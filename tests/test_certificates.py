"""Certificate payloads: serialisation, verification, tamper detection."""

import contextlib
import io
import itertools
import json

import pytest

import snarkdefect as sd
from snarkdefect import certificates as ce
from snarkdefect.cli import analyze_graph, build_descriptor, main


def fresh_cert(g, source="petersen"):
    res = analyze_graph(g)
    return ce.make_certificate("analyze", source, g, res, ce.result_exact("analyze", res), None)


def reparse(cert):
    return json.loads(json.dumps(cert))


# --------------------------------------------------------------------------
# payload helpers
# --------------------------------------------------------------------------

def test_graph_payload_roundtrip(petersen, theta):
    for g in (petersen, theta):
        payload = ce.graph_payload(g)
        back = ce.graph_from_payload(payload)
        assert back.edges == g.edges
        assert payload["sha256"] == ce.graph_digest(g)


def test_graph_digest_golden(petersen):
    assert ce.graph_digest(petersen) == \
        "583134c685f9427dec5e4f89eedf7c3ada37e65911f6c79037980fbd05e904c2"


def test_graph_payload_detects_tamper(petersen):
    payload = ce.graph_payload(petersen)
    payload["sha256"] = "0" * 64
    with pytest.raises(sd.GraphError, match="digest"):
        ce.graph_from_payload(payload)


def test_array_json_roundtrip(petersen):
    arr = sd.regular_defect(petersen).witness
    back = ce.array_from_json(ce.array_json(arr))
    assert back.matchings == arr.matchings


def test_dump_is_canonical(petersen):
    cert = fresh_cert(petersen)
    text = ce.dump_certificate(cert)
    assert text == ce.dump_certificate(reparse(cert))
    assert "\n" not in text
    assert ": " not in text  # compact separators


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

def test_genuine_certificates_verify(petersen, k4, j5):
    for g, name in ((petersen, "petersen"), (k4, "k4"), (j5, "flower:5")):
        assert ce.verify_certificate(fresh_cert(g, name)) == []


def test_forged_value_is_caught(petersen):
    cert = reparse(fresh_cert(petersen))
    cert["result"]["df"]["value"] = 2
    problems = ce.verify_certificate(cert)
    assert "df: value 2 does not match witness (3 uncovered edges)" in problems
    assert "snark with exact df 2 < 3" in problems


def _df_leaving_five_uncovered(g, sec):
    """A df claim of 5 with a witness that leaves 5 edges uncovered."""
    ms = sd.enumerate_perfect_matchings(g)
    arr = next(a for a in itertools.starmap(sd.ThreeArray.of,
                                            itertools.combinations_with_replacement(ms, 3))
               if len(sd.coverage(g, a).uncovered) == 5)
    sec.update(value=5, witness=ce.array_json(arr))


@pytest.mark.parametrize("source, key, tamper, problem", [
    ("inflate-pair:petersen:0:1", "rdf",
     lambda g, sec: sec.update(value=4, witness=ce.array_json(
         sd.inflate_pair_theorem_check(sd.petersen(), 0, 1)[1])),
     "rdf: witness is not regular (edges [0] triply covered)"),
    ("petersen", "df", lambda g, sec: sec.update(witness=None),
     "df: value 3 claimed without witness"),
    ("petersen", "df", lambda g, sec: sec.update(value="unknown"),
     "df: witness present but value is 'unknown'"),
    ("petersen", "df", lambda g, sec: sec.update(value="none_found", witness=None),
     "df: none_found is only meaningful for regular search"),
    ("flower:5", "df", _df_leaving_five_uncovered, "df 5 exceeds rdf 3"),
], ids=["irregular-rdf", "value-without-witness", "witness-without-value",
        "df-none-found", "df-above-rdf"])
def test_forged_defect_claims_are_caught(source, key, tamper, problem):
    g = build_descriptor(source)
    cert = reparse(fresh_cert(g, source))
    assert cert["result"]["df"]["exhaustive"] and cert["result"]["rdf"]["exhaustive"]
    tamper(g, cert["result"][key])
    assert problem in ce.verify_certificate(cert)


def test_open_oddness_verifies_only_beside_inexact_searches(petersen):
    # a matching cap that cuts the walk off leaves oddness, colourability
    # and snark status null, and then no df or rdf is exhaustive
    res = analyze_graph(petersen, 3)
    exact = ce.result_exact("analyze", res)
    cert = reparse(ce.make_certificate("analyze", "petersen", petersen, res, exact, None))
    assert (res["oddness"], res["colourable"], res["snark"], exact) == (None, None, None, False)
    assert ce.verify_certificate(cert) == []
    # the same claims beside an exhaustive df: null is no longer allowed
    full = reparse(fresh_cert(petersen))
    for key in ("oddness", "colourable", "snark"):
        full["result"][key] = None
    problems = ce.verify_certificate(full)
    assert "oddness: expected an int, got NoneType" in problems
    assert "colourable: expected a bool, got NoneType" in problems
    # null oddness leaves colourability and snark status null too
    cert["result"].update(colourable=False, snark=True)
    assert ce.verify_certificate(cert) == ["colourable: does not match the rebuilt result",
                                           "snark: does not match the rebuilt result"]


def test_truncated_witness_is_caught(petersen):
    cert = reparse(fresh_cert(petersen))
    cert["result"]["rdf"]["witness"][0] = cert["result"]["rdf"]["witness"][0][:3]
    assert ce.verify_certificate(cert)


def test_tampered_core_is_caught(petersen):
    cert = reparse(fresh_cert(petersen))
    cert["result"]["core"]["uncovered"] = [0, 1, 2]
    assert ce.verify_certificate(cert)


def test_tampered_flow_is_caught(petersen):
    cert = reparse(fresh_cert(petersen))
    cert["result"]["characteristic_flow"]["0"] = "111"
    assert ce.verify_certificate(cert)


def test_graph_hash_tamper_is_caught(petersen):
    cert = reparse(fresh_cert(petersen))
    cert["graph"]["sha256"] = "0" * 64
    assert ce.verify_certificate(cert) == ["graph payload: graph digest mismatch"]


def test_unknown_schema_is_rejected(petersen):
    cert = reparse(fresh_cert(petersen))
    cert["schema"] = "nope/9"
    assert ce.verify_certificate(cert) == ["unsupported schema 'nope/9'"]


def test_error_certificates_carry_no_claims():
    cert = ce.error_certificate("analyze", "x.g6:3", "boom")
    assert cert["error"] == "boom"
    assert ce.verify_certificate(cert) == []


def _as_bools(lists):
    """Edge ids 0 and 1 written as JSON false and true."""
    return [[{0: False, 1: True}.get(e, e) for e in x] for x in lists]


def test_bool_edge_ids_are_caught(petersen):
    cert = reparse(fresh_cert(petersen))
    for key in ("df", "rdf"):
        bad = reparse(cert)
        witness = bad["result"][key]["witness"]
        assert any(1 in x for x in witness)
        bad["result"][key]["witness"] = _as_bools(witness)
        assert ce.verify_certificate(bad) == [f"{key}: witness is not a list of edge-id lists"]
    _, out = _cli(["fulkerson", "--construct", "petersen", "--json", "--quiet"])
    for mode in ("find", "verify", "roundtrip"):
        bad = json.loads(out)
        bad["result"]["mode"] = mode
        bad["result"]["cover"] = _as_bools(bad["result"]["cover"])
        assert ce.verify_certificate(bad) == ["cover is not a list of edge-id lists"]


def test_consistent_snark_flags_are_cross_checked(k4):
    cert = reparse(fresh_cert(k4, "k4"))
    # claiming a colourable graph is a snark contradicts df = 0
    cert["result"]["snark"] = True
    assert ce.verify_certificate(cert)


def test_fulkerson_certificates(petersen):
    cover = sd.find_cover(petersen)
    res = {"cover": ce.cover_json(cover), "ok": True}
    cert = ce.make_certificate("fulkerson", "petersen", petersen, res, True, None)
    assert ce.verify_certificate(cert) == []
    bad = reparse(cert)
    bad["result"]["cover"][0][0] = 7
    assert ce.verify_certificate(bad)
    # none_found needs a search to refute, so it is taken at face value
    none = ce.make_certificate("fulkerson", "petersen", petersen,
                               {"mode": "find", "cover": "none_found"}, True, None)
    assert ce.verify_certificate(reparse(none)) == []
    none["exact"] = False
    assert ce.verify_certificate(reparse(none)) == ["exact: does not match the rebuilt result"]


def bridged():
    """Two copies of K4, each with edge 0-1 subdivided, the two new
    vertices joined by a bridge: cubic, 10 vertices, girth 3."""
    half = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]
    return sd.CubicGraph(10, half + [(a + 5, b + 5) for a, b in half] + [(4, 9)])


# results the writers refuse to write on a graph with a bridge, each
# consistent with itself: (command, result, exact)
BRIDGED_FORGERIES = {
    "analyze unknown/none_found": ("analyze", {
        "girth": 3, "colourable": False, "snark": False, "oddness": 2,
        "df": {"value": "unknown", "exhaustive": False, "witness": None},
        "rdf": {"value": "none_found", "exhaustive": True, "witness": None},
        "core_witness": None, "core": None, "characteristic_flow": None,
        "girth_bound": None}, False),
    "find none_found": ("fulkerson", {"mode": "find", "cover": "none_found"}, True),
    "roundtrip none_found": ("fulkerson", {"mode": "roundtrip", "cover": "none_found"}, True),
    "find budget_exceeded": ("fulkerson", {"mode": "find", "cover": "budget_exceeded",
                                           "detail": "cover search exceeded 1 nodes"}, False),
}


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_bridged_graph_results_fail_except_verify_mode(tmp_path, monkeypatch):
    """A result analyze, find or roundtrip refuse to write FAILs on its
    graph; a fulkerson --verify result on the same graph PASSes."""
    g = bridged()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(sd.write_edge_list(g))
    for argv in (["analyze"], ["fulkerson"], ["fulkerson", "--roundtrip"]):
        code, out = _cli([*argv, "--edge-list", "g.txt", "--json", "--quiet"])
        assert code == 1 and "error" in json.loads(out), argv
    for name, (command, result, exact) in BRIDGED_FORGERIES.items():
        cert = reparse(ce.make_certificate(command, "g.txt", g, result, exact))
        problems = ce.verify_certificate(cert)
        assert problems and problems[0].startswith("graph:"), name
    # the bridge lies in all four perfect matchings, so the cover check fails
    pms = [sorted(mm) for mm in sd.enumerate_perfect_matchings(g)]
    (tmp_path / "cover.json").write_text(json.dumps({"matchings": pms + pms[:2]}))
    code, out = _cli(["fulkerson", "--edge-list", "g.txt", "--verify", "cover.json",
                      "--json", "--quiet"])
    cert = json.loads(out)
    assert code == 1 and cert["result"]["ok"] is False
    assert ce.verify_certificate(cert) == []


# --------------------------------------------------------------------------
# single-key forgeries
# --------------------------------------------------------------------------

SWEEP_RUNS = {
    "analyze petersen": ["analyze", "--construct", "petersen"],
    "analyze double": ["analyze", "--construct", "double:petersen"],
    "analyze flower5 budgeted": ["analyze", "--construct", "flower:5", "--max-matchings", "3"],
    "fulkerson find": ["fulkerson", "--construct", "petersen"],
    "fulkerson roundtrip": ["fulkerson", "--construct", "petersen", "--roundtrip"],
    "fulkerson budgeted": ["fulkerson", "--construct", "petersen", "--max-nodes", "1"],
    "fulkerson verify pass": ["fulkerson", "--construct", "petersen", "--verify", "pass.json"],
    "fulkerson verify fail": ["fulkerson", "--construct", "petersen", "--verify", "fail.json"],
}

DELETED = object()
OTHER_TYPES = (None, False, 0, "x", [], {})


def _mutations(cert):
    """(key, new value or DELETED, forged certificate) for every
    single-key change: each result key and ``exact`` deleted, given each
    other JSON type, a bool flipped, an int bumped by 1 and by 2; and the
    command relabelled."""
    targets = [("result", k) for k in cert["result"]] + [(None, "exact")]
    for where, key in targets:
        old = (cert[where] if where else cert)[key]
        values = [DELETED] + [v for v in OTHER_TYPES if type(v) is not type(old)]
        if isinstance(old, bool):
            values.append(not old)
        elif isinstance(old, int):
            values += [old + 1, old + 2]
        for value in values:
            forged = reparse(cert)
            sec = forged[where] if where else forged
            if value is DELETED:
                del sec[key]
            else:
                sec[key] = value
            yield key, value, forged
    other = {"analyze": "fulkerson", "fulkerson": "analyze"}[cert["command"]]
    yield "command", other, dict(reparse(cert), command=other)


def _refutable(cert, key, value) -> bool:
    """False for the two forgeries only a search could refute: another
    even oddness that is still 0 exactly when the graph is colourable,
    and ``mode`` dropped from a find result (the mode-less find form)."""
    res = cert["result"]
    if key == "oddness" and type(value) is int and value % 2 == 0 \
            and (value == 0) == res["colourable"]:
        return False
    return not (key == "mode" and value is DELETED and res["mode"] == "find")


def test_single_key_forgeries_fail(tmp_path, monkeypatch, petersen):
    cover = ce.cover_json(sd.find_cover(petersen))
    (tmp_path / "pass.json").write_text(json.dumps({"matchings": cover[::-1]}))
    (tmp_path / "fail.json").write_text(json.dumps({"matchings": cover[:5] + cover[:1]}))
    monkeypatch.chdir(tmp_path)
    survivors = []
    for name, argv in SWEEP_RUNS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main([*argv, "--json", "--quiet"])
        cert = json.loads(out.getvalue())
        assert ce.verify_certificate(cert) == [], name
        for key, value, forged in _mutations(cert):
            if not ce.verify_certificate(forged) and _refutable(cert, key, value):
                survivors.append((name, key, "deleted" if value is DELETED else value))
    assert survivors == []
