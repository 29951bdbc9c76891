"""Command-line behaviour: formats, exit codes, budgets, determinism."""

import contextlib
import io
import json
import sys

import pytest

import snarkdefect as sd
from snarkdefect import cli


def run(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as ex:  # argparse --help / usage errors
            code = ex.code
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

def test_analyze_human_line():
    code, out, err = run(["analyze", "--construct", "petersen"])
    assert code == 0
    assert out == ("petersen: girth=5 snark=yes oddness=2 df=3 rdf=3 "
                   "core=3u/3d/0t in 1 component(s) girth-bound=ok\n")


def test_analyze_json_certificate():
    code, out, _ = run(["analyze", "--construct", "petersen", "--json", "--quiet"])
    assert code == 0
    cert = json.loads(out)
    assert cert["schema"] == "snarkdefect.certificate/1"
    assert cert["command"] == "analyze"
    assert cert["source"] == "petersen"
    assert cert["exact"] is True
    assert cert["timing"] is None
    assert cert["result"]["df"]["value"] == 3
    assert cert["result"]["rdf"]["value"] == 3
    assert cert["result"]["girth"] == 5
    assert cert["result"]["snark"] is True
    assert cert["result"]["oddness"] == 2
    assert cert["graph"]["sha256"].startswith("583134c685f9427d")


def test_analyze_construct_descriptors():
    for desc, expect in [
        ("flower:5", "snark=yes"),
        ("inflate:petersen:0", "girth=3"),
        ("double:petersen", "girth=6 snark=no"),
        ("inflate-pair:petersen:0:1", "df=3"),
    ]:
        code, out, _ = run(["analyze", "--construct", desc])
        assert code == 0, desc
        assert expect in out


def test_analyze_graph6_file(tmp_path, blanusa1, blanusa2):
    path = tmp_path / "pair.g6"
    path.write_text(sd.write_graph6(blanusa1) + "\n" + sd.write_graph6(blanusa2) + "\n")
    code, out, _ = run(["analyze", "--graph6", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"{path}:1: girth=5 snark=yes")
    assert lines[1].startswith(f"{path}:2: girth=5 snark=yes")


def test_analyze_graph6_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(sd.write_graph6(sd.petersen()) + "\n"))
    code, out, _ = run(["analyze", "--graph6", "-"])
    assert code == 0 and "df=3" in out


def test_analyze_edge_list_file(tmp_path, k33):
    path = tmp_path / "k33.txt"
    path.write_text(sd.write_edge_list(k33))
    code, out, _ = run(["analyze", "--edge-list", str(path)])
    assert code == 0
    assert "snark=no" in out and "df=0" in out


def test_bad_input_gives_error_certificate_and_exit_1(tmp_path):
    path = tmp_path / "mixed.g6"
    path.write_text("not-a-graph\n" + sd.write_graph6(sd.petersen()) + "\n")
    code, out, _ = run(["analyze", "--graph6", str(path), "--json", "--quiet"])
    assert code == 1
    first, second = map(json.loads, out.splitlines())
    assert "error" in first
    assert second["result"]["df"]["value"] == 3


@pytest.mark.parametrize("flag, data", [
    ("--graph6", b"IheA@GUAo\n\xff\n"),   # a non-ASCII byte in the file
    ("--graph6", "\u00e9\n"),               # a non-ASCII line on stdin
    ("--edge-list", b"vertices x\n0 1\n"),
    ("--edge-list", None),                  # no such file
])
def test_unreadable_input_gives_error_certificate(monkeypatch, tmp_path, flag, data):
    path = tmp_path / "input"
    if isinstance(data, bytes):
        path.write_bytes(data)
    elif data is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        path = "-"
    code, out, _ = run(["analyze", flag, str(path), "--json", "--quiet"])
    assert code == 1
    [cert] = [json.loads(line) for line in out.splitlines()]
    assert "error" in cert


def test_bridge_graph_is_an_error(tmp_path):
    path = tmp_path / "dumbbell.txt"
    path.write_text("vertices 2\n0 0\n0 1\n1 1\n")
    code, out, _ = run(["analyze", "--edge-list", str(path), "--json", "--quiet"])
    assert code == 1
    assert "bridge" in json.loads(out)["error"]


def test_missing_matching_is_reported_before_bridges(tmp_path):
    # a claw whose leaves carry loops has bridges and no perfect matching
    path = tmp_path / "claw.txt"
    path.write_text("vertices 4\n0 1\n0 2\n0 3\n1 1\n2 2\n3 3\n")
    code, out, _ = run(["analyze", "--edge-list", str(path), "--json", "--quiet"])
    assert code == 1
    assert json.loads(out)["error"] == "graph has no perfect matching"


def _count_calls(monkeypatch, fn):
    """Rebind every package attribute holding fn to a counting wrapper."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "snarkdefect" or name.startswith("snarkdefect."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_analyze_enumerates_once_and_never_backtracks(monkeypatch):
    from snarkdefect import colouring
    graphs = [sd.petersen(), sd.flower_snark(5), sd.bipartite_double(sd.petersen())]
    enumerations = _count_calls(monkeypatch, colouring.enumerate_perfect_matchings)
    colourings = _count_calls(monkeypatch, colouring.three_edge_colour)
    for g in graphs:
        cli.analyze_graph(g, None)
    assert enumerations == graphs
    assert colourings == []
    code, _, _ = run(["analyze", "--construct", "petersen", "--construct", "flower:5"])
    assert code == 0
    assert len(enumerations) == len(graphs) + 2 and colourings == []


def test_analyze_flower7_passes_verify(tmp_path):
    code, out, _ = run(["analyze", "--construct", "flower:7", "--json", "--quiet"])
    assert code == 0
    path = tmp_path / "j7.jsonl"
    path.write_text(out)
    code, vout, _ = run(["verify", str(path)])
    assert code == 0 and vout.startswith(f"PASS {path}:1 (flower:7)")


def test_budget_flag_gives_exit_2():
    code, out, _ = run(["analyze", "--construct", "flower:5", "--max-triples", "10"])
    assert code == 2
    assert "df=11?" in out          # question mark flags a bound, not a value
    assert "rdf=unknown?" in out


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("SNARKDEFECT_MAX_TRIPLES", "10")
    code, out, _ = run(["analyze", "--construct", "flower:5"])
    assert code == 2 and "df=11?" in out
    monkeypatch.delenv("SNARKDEFECT_MAX_TRIPLES")
    code, _, _ = run(["analyze", "--construct", "flower:5"])
    assert code == 0


@pytest.mark.parametrize("var", ["SNARKDEFECT_MAX_MATCHINGS", "SNARKDEFECT_MAX_TRIPLES"])
def test_bad_budget_env_var_is_a_usage_error(monkeypatch, var):
    monkeypatch.setenv(var, "ten")
    code, out, err = run(["analyze", "--construct", "petersen"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("invalid int value: 'ten'")


def test_output_file_mirrors_stdout(tmp_path):
    sink = tmp_path / "certs.jsonl"
    code, out, _ = run(["analyze", "--construct", "petersen", "--json",
                        "--quiet", "--output", str(sink)])
    assert code == 0
    assert sink.read_text() == out


def test_timing_flag_records_seconds():
    _, out, _ = run(["analyze", "--construct", "petersen", "--json", "--quiet", "--timing"])
    timing = json.loads(out)["timing"]
    assert timing is not None and timing["seconds"] >= 0


def test_analyze_is_deterministic_across_runs_and_threads():
    outs = {
        run(["analyze", "--construct", "petersen", "--construct", "flower:5",
             "--json", "--quiet", "--threads", str(t)])[1]
        for t in (1, 4, 8)
    }
    assert len(outs) == 1
    again = run(["analyze", "--construct", "petersen", "--construct", "flower:5",
                 "--json", "--quiet", "--threads", "4"])[1]
    assert again in outs


# --------------------------------------------------------------------------
# fulkerson
# --------------------------------------------------------------------------

def test_fulkerson_find():
    code, out, _ = run(["fulkerson", "--construct", "petersen"])
    assert code == 0
    assert out == "petersen: cover with 6 matchings\n"
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--json", "--quiet"])
    cert = json.loads(out)
    assert cert["result"]["cover"] == [
        [0, 5, 9, 10, 12], [0, 6, 7, 11, 13], [1, 3, 8, 10, 13],
        [1, 4, 5, 11, 14], [2, 3, 7, 12, 14], [2, 4, 6, 8, 9]]


def test_fulkerson_roundtrip():
    for desc in ("petersen", "flower:5"):
        code, out, _ = run(["fulkerson", "--construct", desc, "--roundtrip"])
        assert code == 0
        assert out == f"{desc}: roundtrip PASS\n"


def test_fulkerson_verify_cover_file(tmp_path):
    cover = sd.find_cover(sd.petersen())
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"matchings": [sorted(m) for m in cover.matchings]}))
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--verify", str(path)])
    assert code == 0 and "PASS" in out
    # a find certificate works as cover input too
    _, cert_text, _ = run(["fulkerson", "--construct", "petersen", "--json", "--quiet"])
    path2 = tmp_path / "cover-cert.json"
    path2.write_text(cert_text)
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--verify", str(path2)])
    assert code == 0 and "PASS" in out


def test_fulkerson_verify_rejects_bad_cover(tmp_path):
    cover = sd.find_cover(sd.petersen())
    members = [sorted(m) for m in cover.matchings]
    members[5] = members[0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matchings": members}))
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--verify", str(path)])
    assert code == 1
    assert "FAIL" in out and "covered 3 times" in out


def test_fulkerson_budget_certificate():
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--json",
                        "--quiet", "--max-nodes", "1"])
    assert code == 2
    cert = json.loads(out)
    assert cert["exact"] is False
    assert cert["result"]["cover"] == "budget_exceeded"
    assert "exceeded 1 nodes" in cert["result"]["detail"]


def test_budgeted_roundtrip_certificate_names_its_mode():
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--roundtrip", "--json",
                        "--quiet", "--max-nodes", "1"])
    assert code == 2
    res = json.loads(out)["result"]
    assert (res["mode"], res["cover"]) == ("roundtrip", "budget_exceeded")


@pytest.mark.parametrize("case", ["bad-json", "edge-out-of-range", "edge-string",
                                  "edge-negative"])
def test_fulkerson_verify_malformed_cover_is_an_error(tmp_path, case):
    members = [sorted(m) for m in sd.find_cover(sd.petersen()).matchings]
    if case == "edge-out-of-range":
        members[0][0] = 99
    elif case == "edge-string":
        members[0][0] = str(members[0][0])
    elif case == "edge-negative":  # edge 14 written as -1 aliases the real edge
        members = [[-1 if e == 14 else e for e in m] for m in members]
    path = tmp_path / "cover.json"
    path.write_text("{not json" if case == "bad-json" else json.dumps({"matchings": members}))
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--verify", str(path),
                        "--json", "--quiet"])
    assert code == 1
    assert "error" in json.loads(out)


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_command_passes_genuine(tmp_path):
    _, out, _ = run(["analyze", "--construct", "petersen", "--construct", "flower:5",
                     "--json", "--quiet"])
    path = tmp_path / "certs.jsonl"
    path.write_text(out)
    code, vout, _ = run(["verify", str(path)])
    assert code == 0
    lines = vout.splitlines()
    assert lines[0] == f"PASS {path}:1 (petersen)"
    assert lines[1] == f"PASS {path}:2 (flower:5)"
    assert lines[2] == "verified 2 certificate(s): 2 pass, 0 fail"


def test_verify_command_catches_forgery(tmp_path):
    _, out, _ = run(["analyze", "--construct", "petersen", "--json", "--quiet"])
    cert = json.loads(out)
    cert["result"]["df"]["value"] = 2
    path = tmp_path / "mix.jsonl"
    path.write_text(out + json.dumps(cert) + "\n")
    code, vout, _ = run(["verify", str(path)])
    assert code == 1
    lines = vout.splitlines()
    assert lines[0].startswith("PASS")
    assert lines[1].startswith(f"FAIL {path}:2")
    assert "value 2 does not match witness" in lines[1]
    assert lines[2] == "verified 2 certificate(s): 1 pass, 1 fail"


def test_verify_quiet_prints_failures_only(tmp_path):
    _, out, _ = run(["analyze", "--construct", "petersen", "--json", "--quiet"])
    path = tmp_path / "ok.jsonl"
    path.write_text(out)
    code, vout, _ = run(["verify", "--quiet", str(path)])
    assert code == 0
    assert vout == "verified 1 certificate(s): 1 pass, 0 fail\n"


def test_verify_rejects_unparseable_line(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text("{not json\n")
    code, vout, _ = run(["verify", str(path)])
    assert code == 1 and "FAIL" in vout


@pytest.mark.parametrize("case", ["missing", "byte-0xff", "directory"])
def test_verify_unreadable_file_is_a_failure(tmp_path, case):
    path = tmp_path / "certs.jsonl"
    if case == "byte-0xff":
        path.write_bytes(b"\xff\n")
    elif case == "directory":
        path.mkdir()
    code, vout, _ = run(["verify", str(path)])
    assert code == 1
    lines = vout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"FAIL {path}: cannot read")
    assert lines[1] == "verified 1 certificate(s): 0 pass, 1 fail"


def _malform(cert, shape):
    if shape == "df-not-dict":
        cert["result"]["df"] = 3
    elif shape == "witness-not-list":
        cert["result"]["df"]["witness"] = 7
    elif shape == "edge-one-endpoint":
        cert["graph"]["edges"][0] = cert["graph"]["edges"][0][:1]
    elif shape == "result-list":
        cert["result"] = [cert["result"]]
    elif shape == "edges-not-list":
        cert["graph"]["edges"] = "0 1"
    elif shape == "witness-edge-out-of-range":
        cert["result"]["rdf"]["witness"][0][0] = 99
    elif shape == "witness-edge-negative":  # the same edge under a negative index
        member = cert["result"]["df"]["witness"][0]
        member[-1] -= len(cert["graph"]["edges"])
        member.sort()
    elif shape == "flow-not-dict":
        cert["result"]["characteristic_flow"] = 5
    elif shape == "flow-bad-point":
        cert["result"]["characteristic_flow"]["0"] = "abc"
    elif shape == "cover-member-not-list":
        cert["result"]["cover"][0] = 7
    elif shape == "cover-edge-out-of-range":
        cert["result"]["cover"][0][0] = 99
    elif shape == "cover-edge-negative":  # the same edge under a negative index
        member = cert["result"]["cover"][0]
        member[-1] -= len(cert["graph"]["edges"])
        member.sort()
    elif shape == "roundtrip-no-rebuilt":
        del cert["result"]["rebuilt"]
    elif shape == "rebuilt-int":
        cert["result"]["rebuilt"] = 5
    elif shape == "flows-ints":
        cert["result"]["flows"] = [1, 2]
    elif shape == "flows-removed-int":
        for flow in cert["result"]["flows"]:
            flow["removed"] = 3
    elif shape == "flows-dict":  # the two flows keyed by position
        cert["result"]["flows"] = {str(i): f for i, f in enumerate(cert["result"]["flows"])}
    elif shape == "core-witness-list":
        cert["result"]["core_witness"] = ["rdf"]
    elif shape == "core-witness-object":
        cert["result"]["core_witness"] = {"rdf": 1}
    elif shape == "core-witness-df":  # petersen has an rdf witness
        cert["result"]["core_witness"] = "df"
    elif shape == "core-null":
        cert["result"]["core"] = None
    elif shape == "flow-null":
        cert["result"]["characteristic_flow"] = None
    elif shape == "girth-bound-null":
        cert["result"]["girth_bound"] = None
    else:
        cert = [cert]
    return cert


ROUNDTRIP_SHAPES = ["roundtrip-no-rebuilt", "rebuilt-int", "flows-ints", "flows-removed-int",
                    "flows-dict"]


@pytest.mark.parametrize("shape", ["df-not-dict", "witness-not-list", "edge-one-endpoint",
                                   "result-list", "cert-list", "edges-not-list",
                                   "witness-edge-out-of-range", "witness-edge-negative",
                                   "flow-not-dict", "flow-bad-point",
                                   "cover-member-not-list", "cover-edge-out-of-range",
                                   "cover-edge-negative", *ROUNDTRIP_SHAPES,
                                   "core-witness-list", "core-witness-object",
                                   "core-witness-df", "core-null", "flow-null",
                                   "girth-bound-null"])
def test_verify_fails_malformed_certificate(tmp_path, shape):
    if shape in ROUNDTRIP_SHAPES:
        command = ["fulkerson", "--roundtrip"]
    else:
        command = ["fulkerson" if shape.startswith("cover") else "analyze"]
    _, out, _ = run([*command, "--construct", "petersen", "--json", "--quiet"])
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_malform(json.loads(out), shape)) + "\n")
    code, vout, _ = run(["verify", str(path)])
    assert code == 1
    lines = vout.splitlines()
    assert lines[0].startswith(f"FAIL {path}:1")
    assert lines[1] == "verified 1 certificate(s): 0 pass, 1 fail"


def test_verified_fulkerson_roundtrip_certificate(tmp_path):
    _, out, _ = run(["fulkerson", "--construct", "petersen", "--roundtrip",
                     "--json", "--quiet"])
    path = tmp_path / "rt.jsonl"
    path.write_text(out)
    code, vout, _ = run(["verify", str(path)])
    assert code == 0 and vout.startswith("PASS")


def test_verified_flower11_roundtrip_certificate(tmp_path):
    code, out, _ = run(["fulkerson", "--construct", "flower:11", "--roundtrip", "--json"])
    assert code == 0
    path = tmp_path / "j11.jsonl"
    path.write_text(out)
    code, vout, _ = run(["verify", str(path)])
    assert code == 0 and vout.startswith("PASS")


# --------------------------------------------------------------------------
# interface contract
# --------------------------------------------------------------------------

def test_help_screens_list_documented_flags():
    _, top, _ = run(["--help"])
    for word in ("analyze", "fulkerson", "verify"):
        assert word in top
    _, an, _ = run(["analyze", "--help"])
    for flag in ("--graph6", "--edge-list", "--construct", "--json", "--quiet",
                 "--output", "--threads", "--timing", "--max-matchings",
                 "--max-triples"):
        assert flag in an
    _, fu, _ = run(["fulkerson", "--help"])
    for flag in ("--find", "--verify", "--roundtrip", "--max-nodes"):
        assert flag in fu


def test_no_input_is_a_quiet_noop():
    # no sources given -> nothing analyzed, nothing printed
    code, out, err = run(["analyze"])
    assert (code, out, err) == (0, "", "")
