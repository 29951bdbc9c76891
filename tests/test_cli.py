"""Command-line behaviour: formats, exit codes, budgets, determinism."""

import ast
import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import snarkdefect as sd
import oracles
from snarkdefect import certificates, cli
from conftest import counted_walks


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
    # stdin ends lines as a file read in text mode does: at \r\n and \r too
    p6 = sd.write_graph6(sd.petersen())
    monkeypatch.setattr("sys.stdin", io.StringIO(p6 + "\r\n" + p6 + "\r" + p6))
    code, out, _ = run(["analyze", "--graph6", "-"])
    assert code == 0 and [line[:4] for line in out.splitlines()] == ["-:1:", "-:2:", "-:3:"]


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


def test_bad_descriptor_values_are_error_lines():
    # a number is ASCII digits only, as in the edge-list format: int()
    # alone reads 1_1 as 11 and takes ' 5', '+0' and Arabic-Indic digits
    numbers = [("flower:1_1", "1_1"), ("flower: 5", " 5"), ("flower:\u0665", "\u0665"),
               ("flower:-3", "-3"), ("inflate:petersen:+0", "+0"),
               ("inflate-pair:petersen:0:1_0", "1_0")]
    code, out, _ = run(["analyze", "--construct", "flower:x",
                        "--construct", "inflate-pair:petersen:0", "--construct", "inflate:petersen",
                        "--construct", "petersen"]
                       + [arg for desc, _ in numbers for arg in ("--construct", desc)]
                       + ["--construct", "double:double:flower:x",
                          "--construct", "inflate:double:foo:0"])
    assert code == 1
    bad_int, short_pair, short_inflate, good, *digit_rule, nested, unknown = out.splitlines()
    assert bad_int == ("flower:x: ERROR bad construction descriptor 'flower:x': "
                       "invalid literal for int() with base 10: 'x'")
    assert digit_rule == [f"{desc}: ERROR bad construction descriptor {desc!r}: "
                          f"invalid literal for int() with base 10: {tok!r}"
                          for desc, tok in numbers]
    # the error names the form, as the --construct help does
    assert short_pair == ("inflate-pair:petersen:0: ERROR bad construction descriptor "
                          "'inflate-pair:petersen:0': expected inflate-pair:GRAPH:U:V")
    assert short_inflate == ("inflate:petersen: ERROR bad construction descriptor "
                             "'inflate:petersen': expected inflate:GRAPH:V")
    assert good.startswith("petersen: girth=5 snark=yes")
    # a nested error names the whole descriptor once, with the innermost reason
    assert nested == ("double:double:flower:x: ERROR bad construction descriptor "
                      "'double:double:flower:x': invalid literal for int() with base 10: 'x'")
    assert unknown == ("inflate:double:foo:0: ERROR bad construction descriptor "
                       "'inflate:double:foo:0': unknown construction descriptor 'foo'")
    # nesting past the recursion limit is an error line too; a matching
    # cap of 1 keeps the run short were the graph built after all
    deep = "inflate:" * 1000 + "petersen" + ":0" * 1000
    code, out, err = run(["analyze", "--construct", deep, "--max-matchings", "1"])
    assert (code, out, err) == (1, f"{deep}: ERROR bad construction descriptor "
                                   f"{deep!r}: nested too deeply\n", "")


def test_blank_graph6_lines_are_skipped_and_keep_line_numbers(tmp_path):
    path = tmp_path / "gaps.g6"
    path.write_text("\n   \n" + sd.write_graph6(sd.petersen()) + "\n\n")
    code, out, _ = run(["analyze", "--graph6", str(path)])
    assert code == 0
    assert out.splitlines() == [f"{path}:3: girth=5 snark=yes oddness=2 df=3 rdf=3 "
                                "core=3u/3d/0t in 1 component(s) girth-bound=ok"]


def test_a_graph6_line_ends_at_a_newline_only(tmp_path):
    # a form feed inside a line does not end it, so the next graph keeps
    # its line number
    p6 = sd.write_graph6(sd.petersen())
    path = tmp_path / "ff.g6"
    path.write_text(p6 + "\f" + p6 + "\n" + p6 + "\n")
    code, out, _ = run(["analyze", "--graph6", str(path)])
    assert code == 1
    first, second = out.splitlines()
    assert first.startswith(f"{path}:1: ERROR parse error: ")
    assert second.startswith(f"{path}:2: girth=5 snark=yes")


def test_edge_list_with_free_ends_is_a_parse_error(tmp_path):
    path = tmp_path / "claw.txt"
    path.write_text("vertices 1\n0 -\n0 -\n0 -\n")
    code, out, _ = run(["analyze", "--edge-list", str(path)])
    assert code == 1
    assert out == f"{path}: ERROR parse error: multipole has 3 free ends, not a graph\n"


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


@pytest.mark.parametrize("desc, cap", [("flower:17", "10"), ("flower:1001", "1")])
def test_matching_cap_leaves_a_large_snarks_oddness_open(desc, cap):
    # the walk stops after cap + 1 matchings, before oddness is settled:
    # oddness, colourability and snark status are null, df and rdf only
    # bounds.  Reading every matching, flower:17 took 3.7 s; flower:1001
    # (4,004 vertices) ended at the interpreter's recursion limit.
    argv = ["-m", "snarkdefect.cli", "analyze", "--construct", desc, "--max-matchings", cap]
    code, out, cpu = _capped([*argv, "--json"], None)
    assert (code, cpu < 2.0) == (2, True)
    cert = json.loads(out)
    assert cert["exact"] is False and certificates.verify_certificate(cert) == []
    res = cert["result"]
    assert (res["oddness"], res["colourable"], res["snark"]) == (None, None, None)
    assert not (res["df"]["exhaustive"] or res["rdf"]["exhaustive"])
    code, out, _ = _capped(argv, None)
    assert code == 2 and f"{desc}: girth=6 snark=? oddness=? df=" in out


def test_running_out_of_memory_is_an_error_certificate(monkeypatch):
    # the first input runs out of memory; the batch goes on to the second
    analyze = cli.analyze_graph
    seen = []

    def first_runs_out(g, max_matchings, max_triples):
        seen.append(g)
        if len(seen) == 1:
            raise MemoryError
        return analyze(g, max_matchings, max_triples)

    monkeypatch.setattr(cli, "analyze_graph", first_runs_out)
    argv = ["analyze", "--construct", "flower:5", "--construct", "petersen"]
    code, out, _ = run(argv + ["--json", "--quiet"])
    assert code == 1
    first, second = map(json.loads, out.splitlines())
    assert first == certificates.error_certificate("analyze", "flower:5", "out of memory")
    assert second["result"]["df"]["value"] == 3
    seen.clear()
    code, out, _ = run(argv)
    assert code == 1
    assert out.splitlines()[0] == "flower:5: ERROR out of memory"


def test_missing_matching_is_reported_before_bridges(tmp_path):
    # a claw whose leaves carry loops has bridges and no perfect matching
    path = tmp_path / "claw.txt"
    path.write_text("vertices 4\n0 1\n0 2\n0 3\n1 1\n2 2\n3 3\n")
    code, out, _ = run(["analyze", "--edge-list", str(path), "--json", "--quiet"])
    assert code == 1
    assert json.loads(out)["error"] == "graph has no perfect matching"
    # the library says the same, before it looks at the bridges
    g = sd.parse_edge_list(path.read_text())
    for search in (sd.defect, sd.regular_defect, sd.oddness,
                   lambda g: sd.enumerate_optimal_arrays(g, False)):
        with pytest.raises(sd.GraphError, match="^graph has no perfect matching$"):
            search(g)


def _bridged_blobs(k):
    """A vertex joined by three bridges to three blobs, each a prism on 2k
    vertices with one rung subdivided, blob edges listed first.  Each
    blob is odd and needs its bridge, so there is no perfect matching."""
    edges, bridges, n = [], [], 1
    for _ in range(3):
        u, w, x = range(n, n + k), range(n + k, n + 2 * k), n + 2 * k
        edges += [(u[i], u[(i + 1) % k]) for i in range(k)]
        edges += [(w[i], w[(i + 1) % k]) for i in range(k)]
        edges += [(u[i], w[i]) for i in range(1, k)] + [(u[0], x), (x, w[0])]
        bridges.append((0, x))
        n = x + 1
    return sd.CubicGraph(n, edges + bridges)


def test_missing_matching_behind_bridges_is_found_at_once(tmp_path):
    # a blob has about Fib(k) matchings of all but its subdivision vertex;
    # a matching walk that met the second blob's dead end again below each
    # of them took 9 s at k = 16 (100 vertices), and this is k = 50
    g = _bridged_blobs(50)
    (tmp_path / "blobs.txt").write_text(
        f"vertices {g.vertex_count}\n" + "".join(f"{a} {b}\n" for a, b in g.edges))
    code, out, cpu = _capped(["-m", "snarkdefect.cli", "analyze", "--edge-list", "blobs.txt",
                              "--json"], tmp_path)
    assert (code, cpu < 2.0) == (1, True)
    assert json.loads(out) == certificates.error_certificate(
        "analyze", "blobs.txt", "graph has no perfect matching")
    code, out, cpu = _capped(["-c", "import snarkdefect as sd\n"
                              f"g = sd.CubicGraph({g.vertex_count}, {list(g.edges)!r})\n"
                              "try:\n    sd.oddness(g)\n"
                              "except sd.GraphError as exc:\n    print(exc)"], None)
    assert (code, out, cpu < 2.0) == (0, "graph has no perfect matching\n", True)


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
    walks = _count_calls(monkeypatch, colouring._lex_matchings)
    enumerations = _count_calls(monkeypatch, colouring.perfect_matching_masks)
    edge_sets = _count_calls(monkeypatch, colouring.enumerate_perfect_matchings)
    colourings = _count_calls(monkeypatch, colouring.three_edge_colour)
    for g in graphs:
        cli.analyze_graph(g)
    # one walk each: it lists a snark's matchings, and stops at the least
    # colour class of double:petersen
    assert walks == graphs and enumerations == []
    assert colourings == []
    code, _, _ = run(["analyze", "--construct", "petersen", "--construct", "flower:5"])
    assert code == 0
    assert len(walks) == len(graphs) + 2 and enumerations == [] and colourings == []
    # the pipeline reads edge bitmasks and never builds the edge-set list
    code, _, _ = run(["fulkerson", "--construct", "petersen", "--roundtrip"])
    assert code == 0
    assert len(walks) == len(graphs) + 3 and enumerations == edge_sets == []


def test_analyze_refuses_a_bridge_after_one_matching(monkeypatch):
    """A graph with a bridge and a perfect matching is refused after the
    walk's first matching, not after the whole walk oddness would make."""
    from test_certificates import bridged
    reads = counted_walks(monkeypatch)
    with pytest.raises(sd.GraphError, match="undefined for graphs with bridges"):
        cli.analyze_graph(bridged())
    assert reads == [1]

def test_each_value_is_checked_once(monkeypatch, tmp_path):
    """analyze, fulkerson --roundtrip and verify of its certificate each
    derive the girth and the core, and check the cover and the pair, once."""
    from snarkdefect import defect_engine, fulkerson, graph_core
    girths = _count_calls(monkeypatch, graph_core.girth)
    cores = _count_calls(monkeypatch, defect_engine.core_of)
    covers = _count_calls(monkeypatch, fulkerson.verify_cover)
    pairs = _count_calls(monkeypatch, fulkerson.check_complementary)
    assert run(["analyze", "--construct", "petersen"])[0] == 0
    assert (len(girths), len(cores)) == (1, 1)
    cores.clear()
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--roundtrip", "--json", "--quiet"])
    assert code == 0
    assert (len(covers), len(pairs), len(cores)) == (1, 1, 0)
    path = tmp_path / "rt.jsonl"
    path.write_text(out)
    covers.clear()
    assert run(["verify", str(path)])[0] == 0
    assert len(covers) == 1


def test_bridgelessness_is_tested_once_and_no_flow_is_rechecked(monkeypatch, tmp_path):
    """analyze tests for bridges once and does not re-check the
    characteristic flow it builds; verify of its certificate tests for
    bridges once and does not check the flow either."""
    from snarkdefect import fano_flow, graph_core
    bridge_tests = _count_calls(monkeypatch, graph_core.is_bridgeless)
    flow_checks = _count_calls(monkeypatch, fano_flow.verify_flow)
    code, out, _ = run(["analyze", "--construct", "petersen", "--json", "--quiet"])
    assert code == 0
    assert (len(bridge_tests), len(flow_checks)) == (1, 0)
    path = tmp_path / "p.jsonl"
    path.write_text(out)
    assert run(["verify", str(path)])[0] == 0
    assert (len(bridge_tests), len(flow_checks)) == (2, 0)


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
    """Each call reads the variable as it is at that call, in one process."""
    argv = ["analyze", "--construct", "flower:5"]
    monkeypatch.setenv("SNARKDEFECT_MAX_TRIPLES", "10")
    code, out, _ = run(argv)
    assert code == 2 and "df=11?" in out
    monkeypatch.setenv("SNARKDEFECT_MAX_TRIPLES", "50")
    code, out, _ = run(argv)
    assert (code, out) == run([*argv, "--max-triples", "50"])[:2]
    assert code == 2 and "df=9?" in out
    monkeypatch.delenv("SNARKDEFECT_MAX_TRIPLES")
    code, out, _ = run(argv)
    assert code == 0 and "df=3 " in out
    monkeypatch.setenv("SNARKDEFECT_MAX_TRIPLES", "ten")
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("argument --max-triples: invalid int value: 'ten'")
    monkeypatch.delenv("SNARKDEFECT_MAX_TRIPLES")
    code, out, _ = run(argv)
    assert code == 0 and "df=3 " in out


@pytest.mark.parametrize("var", ["SNARKDEFECT_MAX_MATCHINGS", "SNARKDEFECT_MAX_TRIPLES"])
def test_bad_budget_env_var_is_a_usage_error(monkeypatch, var):
    monkeypatch.setenv(var, "ten")
    code, out, err = run(["analyze", "--construct", "petersen"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("invalid int value: 'ten'")


@pytest.mark.parametrize("argv, env", [
    (["analyze", "--max-matchings", "0"], {}),
    (["fulkerson", "--max-matchings", "0"], {}),
    (["analyze", "--max-matchings", "-3"], {}),
    (["analyze", "--max-triples", "-5"], {}),
    (["fulkerson", "--max-nodes", "-1"], {}),
    (["analyze"], {"SNARKDEFECT_MAX_MATCHINGS": "0"}),
    (["fulkerson"], {"SNARKDEFECT_MAX_TRIPLES": "-1"}),
])
def test_budget_value_out_of_range_is_a_usage_error(monkeypatch, argv, env):
    """Every command reads a matching cap below 1, or a negative triple
    or node cap, as a usage error and runs nothing."""
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    code, out, err = run([*argv, "--construct", "petersen"])
    assert (code, out) == (2, "")
    assert "must be at least" in err.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["analyze", "--max-matchings", "1"],
    ["analyze", "--max-triples", "0"],
    ["fulkerson", "--max-nodes", "0"],
])
def test_least_budget_values_run(argv):
    code, out, _ = run([*argv, "--construct", "petersen"])
    assert code == 2 and out.startswith("petersen:")


def test_output_file_mirrors_stdout(tmp_path):
    sink = tmp_path / "certs.jsonl"
    code, out, _ = run(["analyze", "--construct", "petersen", "--json",
                        "--quiet", "--output", str(sink)])
    assert code == 0
    assert sink.read_text() == out


@pytest.mark.parametrize("command", ["analyze", "fulkerson"])
@pytest.mark.parametrize("case, reason", [("missing-dir", "No such file or directory"),
                                          ("directory", "Is a directory"),
                                          ("input", "it is also an input")])
def test_unwritable_output_is_one_error_line(tmp_path, command, case, reason):
    sink = tmp_path / "missing" / "x.jsonl" if case == "missing-dir" else tmp_path
    inputs = []
    if case == "input":  # the graph6 file of analyze, the cover file of fulkerson --verify
        sink = tmp_path / "input.txt"
        if command == "analyze":
            sink.write_text(sd.write_graph6(sd.petersen()) + "\n")
            inputs = ["--graph6", str(sink)]
        else:
            cover = sd.find_cover(sd.petersen())
            sink.write_text(json.dumps({"matchings": [sorted(m) for m in cover.matchings]}))
            inputs = ["--verify", str(sink)]
        before = sink.read_bytes()
    code, out, err = run([command, *inputs, "--construct", "petersen", "--json",
                          "--output", str(sink)])
    assert (code, out) == (1, "")
    assert err == f"snarkdefect: cannot write {sink}: {reason}\n"
    if case == "input":
        assert sink.read_bytes() == before


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

def test_fulkerson_find(monkeypatch):
    code, out, _ = run(["fulkerson", "--construct", "petersen"])
    assert code == 0
    assert out == "petersen: cover with 6 matchings\n"
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--json", "--quiet"])
    cert = json.loads(out)
    assert cert["result"]["cover"] == [
        [0, 5, 9, 10, 12], [0, 6, 7, 11, 13], [1, 3, 8, 10, 13],
        [1, 4, 5, 11, 14], [2, 3, 7, 12, 14], [2, 4, 6, 8, 9]]
    # an exhausted search: no known bridgeless graph gives one, so stub it
    monkeypatch.setattr(cli, "find_cover", lambda *a: sd.NONE_FOUND)
    code, out, _ = run(["fulkerson", "--construct", "petersen"])
    assert (code, out) == (0, "petersen: no cover exists\n")
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--json", "--quiet"])
    assert json.loads(out)["result"] == {"mode": "find", "cover": "none_found"}


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
    # the first line ends at a newline, not at a raw U+2028 inside a string
    path.write_text(json.dumps({"matchings": [sorted(m) for m in cover.matchings],
                                "note": "a\u2028b"}, ensure_ascii=False) + "\n[]\n",
                    encoding="utf-8")
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--verify", str(path)])
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


def test_fulkerson_verify_reads_the_cover_file_once(monkeypatch, tmp_path):
    path = tmp_path / "cover.json"
    cover = sd.find_cover(sd.petersen())
    path.write_text(json.dumps({"matchings": [sorted(m) for m in cover.matchings]}))
    loads = _count_calls(monkeypatch, cli._load_cover_members)
    three = ["--construct", "petersen"] * 3
    code, out, _ = run(["fulkerson", "--verify", str(path), "--json", "--quiet", *three])
    assert code == 0 and len(out.splitlines()) == 3
    assert len(loads) == 1
    # an unreadable file gives each input the same error certificate
    missing = str(tmp_path / "missing.json")
    code, out, _ = run(["fulkerson", "--verify", missing, "--json", "--quiet", *three])
    certs = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and len(certs) == 3 and len(loads) == 2
    assert all(cert == certs[0] and "cannot read a cover" in cert["error"] for cert in certs)


NESTED = "[" * 100_000 + "]" * 100_000  # too deep for the JSON decoder


def test_fulkerson_verify_too_deep_cover_is_an_error_for_every_input(tmp_path):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"matchings": "M"}).replace('"M"', NESTED))
    code, out, _ = run(["fulkerson", "--verify", str(path), "--json", "--quiet",
                        "--construct", "petersen", "--construct", "flower:3"])
    certs = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and len(certs) == 2
    assert all("cannot read a cover" in cert["error"] for cert in certs)


def test_fulkerson_verify_rejects_bool_edge_ids(tmp_path):
    # JSON false and true are not edges 0 and 1, though Python's bools equal them
    members = [sorted(m) for m in sd.find_cover(sd.petersen()).matchings]
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"matchings": [[{0: False, 1: True}.get(e, e) for e in m]
                                              for m in members]}))
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--verify", str(path),
                        "--json", "--quiet"])
    assert code == 1
    assert "expected a 'matchings' list" in json.loads(out)["error"]


@pytest.mark.parametrize("case", ["bad-json", "edge-out-of-range", "edge-string",
                                  "edge-negative", "neither-form"])
def test_fulkerson_verify_malformed_cover_is_an_error(tmp_path, case):
    members = [sorted(m) for m in sd.find_cover(sd.petersen()).matchings]
    if case == "edge-out-of-range":
        members[0][0] = 99
    elif case == "edge-string":
        members[0][0] = str(members[0][0])
    elif case == "edge-negative":  # edge 14 written as -1 aliases the real edge
        members = [[-1 if e == 14 else e for e in m] for m in members]
    path = tmp_path / "cover.json"
    text = {"bad-json": "{not json", "neither-form": "[1]"}.get(case)
    path.write_text(text or json.dumps({"matchings": members}))
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--verify", str(path),
                        "--json", "--quiet"])
    assert code == 1
    assert "error" in json.loads(out)



@pytest.mark.parametrize("result", [[1, 2, 3], "cover"])
def test_fulkerson_verify_certificate_without_a_result_object_is_an_error(tmp_path, result):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"schema": "snarkdefect.certificate/1", "result": result}))
    code, out, _ = run(["fulkerson", "--construct", "petersen", "--verify", str(path),
                        "--json", "--quiet"])
    assert code == 1
    assert "expected a 'matchings' list or a fulkerson certificate" in json.loads(out)["error"]

# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_command_passes_genuine(monkeypatch, tmp_path):
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
    # and from stdin, where \r ends a line as it does in a file read in text mode
    monkeypatch.setattr("sys.stdin", io.StringIO(out.replace("\n", "\r")))
    code, vout, _ = run(["verify", "-"])
    assert code == 0
    assert vout.splitlines() == ["PASS -:1 (petersen)", "PASS -:2 (flower:5)",
                                 "verified 2 certificate(s): 2 pass, 0 fail"]


def test_a_certificate_line_ends_at_a_newline_only(tmp_path):
    # a raw U+2028 in a JSON string is valid JSON and does not end the line
    _, out, _ = run(["analyze", "--construct", "petersen", "--json", "--quiet"])
    cert = json.loads(out)
    cert["source"] = "a\u2028b"
    path = tmp_path / "ls.jsonl"
    path.write_text(json.dumps(cert, ensure_ascii=False) + "\n" + out, encoding="utf-8")
    code, vout, _ = run(["verify", str(path)])
    assert code == 0
    assert vout.split("\n") == [f"PASS {path}:1 (a\u2028b)", f"PASS {path}:2 (petersen)",
                                 "verified 2 certificate(s): 2 pass, 0 fail", ""]


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


def test_verify_skips_blank_lines_and_rejects_an_unknown_command(tmp_path):
    _, out, _ = run(["analyze", "--construct", "petersen", "--json", "--quiet"])
    cert = json.loads(out)
    cert["command"] = "zap"
    path = tmp_path / "gaps.jsonl"
    path.write_text("\n" + out + "  \n" + json.dumps(cert) + "\n\n")
    code, vout, _ = run(["verify", str(path)])
    assert code == 1
    assert vout.splitlines() == [f"PASS {path}:2 (petersen)",
                                 f"FAIL {path}:4 (petersen): unknown command 'zap'",
                                 "verified 2 certificate(s): 1 pass, 1 fail"]


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


def test_verify_too_deep_line_is_a_failure(tmp_path):
    _, out, _ = run(["analyze", "--construct", "petersen", "--json"])
    path = tmp_path / "deep.jsonl"
    path.write_text(NESTED + "\n" + out)
    code, vout, _ = run(["verify", str(path)])
    assert code == 1
    lines = vout.splitlines()
    assert lines[0].startswith(f"FAIL {path}:1: bad JSON: ")
    assert lines[1].startswith(f"PASS {path}:2")
    assert lines[2] == "verified 2 certificate(s): 1 pass, 1 fail"


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
    elif shape.endswith("vertex-bool"):
        # vertex 1 written as true: read as 1, it is still Petersen, whose
        # digest the payload keeps
        graph = cert["graph"]
        graph["edges"] = [[True if v == 1 else v for v in p] for p in graph["edges"]]
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
    elif shape == "girth-missing":
        del cert["result"]["girth"]
    elif shape == "snark-false":
        cert["result"]["snark"] = False
    elif shape == "oddness-odd":  # 2-factors of cubic graphs have evenly many odd circuits
        cert["result"]["oddness"] = 3
    elif shape == "oddness-missing":
        del cert["result"]["oddness"]
    elif shape == "colourable-string":
        cert["result"]["colourable"] = "no"
    elif shape == "exhaustive-int":
        cert["result"]["rdf"]["exhaustive"] = 1
    elif shape == "exact-false":
        cert["exact"] = False
    elif shape == "relabelled-fulkerson":
        cert["command"] = "fulkerson"
    elif shape == "witness-reordered":  # the writer lists members in canonical order
        cert["result"]["df"]["witness"].reverse()
    elif shape == "cover-reordered":
        cert["result"]["cover"].reverse()
    elif shape == "cover-extra-key":
        cert["result"]["note"] = "x"
    elif shape == "error-beside-result":  # a forged result next to an empty error
        cert["result"]["df"]["value"] = 0
        cert["result"]["snark"] = False
        cert["error"] = ""
    elif shape == "extra-top-key":
        cert["foo"] = 1
    elif shape == "graph-empty":  # 0 vertices, with claims that fit it
        cert["graph"] = certificates.graph_payload(sd.CubicGraph(0, []))
        cert["result"].update(colourable=True, snark=False, oddness=0)
        for key in ("df", "rdf"):
            cert["result"][key].update(value=0, witness=[[], [], []])
    elif shape == "vertices-bool":
        cert["graph"]["vertices"] = True
    elif shape == "witness-two-lists":
        del cert["result"]["df"]["witness"][2]
    elif shape == "timing-string":
        cert["timing"] = "fast"
    elif shape == "timing-seconds-string":
        cert["timing"] = {"seconds": "x"}
    elif shape == "timing-missing":
        del cert["timing"]
    elif shape == "source-list":
        cert["source"] = [1, 2]
    elif shape == "graph-extra-key":
        cert["graph"]["note"] = "x"
    elif shape == "error-not-string":
        cert = {key: cert[key] for key in ("schema", "command", "source")} | {"error": 5}
    else:
        cert = [cert]
    return cert


# shapes whose whole failure line is pinned
MALFORMED_MESSAGES = {
    "graph-empty": "verification error: girth of the empty graph is undefined",
    "vertices-bool": "graph payload: vertices is not an int",
    "witness-two-lists": "df: bad witness: a 3-array has three matchings, got 2",
}

ROUNDTRIP_SHAPES = ["roundtrip-no-rebuilt", "rebuilt-int", "flows-ints", "flows-removed-int",
                    "flows-dict", "roundtrip-vertex-bool"]


@pytest.mark.parametrize("shape", ["df-not-dict", "witness-not-list", "edge-one-endpoint",
                                   "result-list", "cert-list", "edges-not-list",
                                   "witness-edge-out-of-range", "witness-edge-negative",
                                   "flow-not-dict", "flow-bad-point",
                                   "cover-member-not-list", "cover-edge-out-of-range",
                                   "cover-edge-negative", *ROUNDTRIP_SHAPES,
                                   "core-witness-list", "core-witness-object",
                                   "core-witness-df", "core-null", "flow-null",
                                   "girth-bound-null", "girth-missing", "snark-false",
                                   "oddness-odd", "oddness-missing", "colourable-string",
                                   "exhaustive-int", "exact-false", "relabelled-fulkerson",
                                   "witness-reordered", "cover-reordered", "cover-extra-key",
                                   "error-beside-result", "error-not-string",
                                   "vertex-bool", "cover-vertex-bool", "extra-top-key",
                                   "timing-string", "timing-seconds-string", "timing-missing",
                                   "source-list", "graph-extra-key", *MALFORMED_MESSAGES])
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
    if shape.endswith("vertex-bool"):
        assert "graph payload: " in lines[0]
    if shape in MALFORMED_MESSAGES:
        assert lines[0] == f"FAIL {path}:1 (petersen): {MALFORMED_MESSAGES[shape]}"


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
    # fulkerson takes --max-triples, and checks it, but counts no triples
    assert "triple inspection cap" in an and "triple inspection cap" not in fu
    assert fu.count("has no effect") == 2           # --threads and --max-triples


SRC = Path(cli.__file__).resolve().parents[1]

# Imports the CLI in a fresh interpreter, counting the argparse parsers
# made, then makes several main() calls (one of them a usage error, one
# --help) counting the builder's calls, then one make_parser() call.
COUNT_BUILDS = """
import argparse, contextlib, io, json
made = 0
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    global made
    made += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import snarkdefect.cli as cli
at_import = made
builds = 0
build = cli._build_parser
def counting_build():
    global builds
    builds += 1
    return build()
cli._build_parser = counting_build
codes = []
for argv in (["analyze", "--construct", "petersen"], ["analyze", "--bogus"], ["--help"],
             ["fulkerson", "--construct", "petersen"], ["analyze", "--construct", "flower:3"],
             ["fulkerson", "--help"], ["verify", "no-such-file"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
in_main, builds_in_main = made - at_import, builds
cli.make_parser()
print(json.dumps({"at_import": at_import, "builds": builds_in_main, "in_main": in_main,
                  "one_build": made - at_import - in_main, "codes": codes}))
"""


def _fresh_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SNARKDEFECT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **extra}


def test_parser_is_built_once_per_process_and_not_at_import():
    proc = subprocess.run([sys.executable, "-c", COUNT_BUILDS], env=_fresh_env(),
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 2, 0, 0, 0, 0, 1]
    assert got["at_import"] == 0
    assert got["builds"] == 1
    assert got["in_main"] == got["one_build"] > 0


def test_import_footprint_is_pinned():
    """What ``import snarkdefect`` runs, from the source: the modules
    imported at module level (outside any def or class) and the number of
    dataclasses.  Growing either is import-time work for every process,
    so it shows up here as a reviewed change of this test."""
    imported, dataclasses = set(), 0
    for path in sorted(SRC.glob("snarkdefect/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack += [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        dataclasses += sum(
            1 for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for d in node.decorator_list
            if "dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None)))
    assert imported - {"snarkdefect"} == {
        "__future__", "argparse", "dataclasses", "functools", "hashlib", "itertools", "json",
        "os", "re", "sys", "time", "typing", "warnings"}
    assert dataclasses == 15


def test_no_text_reader_splits_lines_at_other_breaks():
    """A line of every text input ends at '\\n' only: ``str.splitlines``
    also breaks at \\v, \\f, \\x1c-\\x1e, \\x85, U+2028 and U+2029."""
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("snarkdefect/*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "splitlines"]
    assert calls == []


def _unread_module_names(counted):
    """(defined, unread): the names bound at module level (a def, a class
    or an assignment) for which ``counted(module, name)`` holds, and
    those of them that no other top-level statement of the package
    reads.  ``__init__``'s imports read the names it re-exports."""
    defined, reads = {}, []
    for path in sorted(SRC.glob("snarkdefect/*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                bound = []
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            reads.append(names)
            for name in bound:
                if counted(path.stem, name):
                    defined[f"{path.stem}.{name}"] = name, len(reads) - 1
    unread = [where for where, (name, own) in defined.items()
              if not any(name in names for i, names in enumerate(reads) if i != own)]
    return defined, unread


def test_every_private_module_name_is_used():
    """A private name bound at module level that no other top-level
    statement of the package reads is dead code, and an assignment still
    runs at import."""
    defined, unread = _unread_module_names(
        lambda module, name: name.startswith("_") and not name.startswith("__"))
    assert len(defined) > 30
    assert unread == []


def test_every_public_module_name_is_exported_or_used():
    """A public name bound at module level outside ``cli.py``, the entry
    point, is API only when ``__init__`` re-exports it; one that it does
    not re-export and that no other top-level statement reads is dead."""
    defined, unread = _unread_module_names(
        lambda module, name: not name.startswith("_") and module != "cli")
    assert len(defined) > 100
    assert unread == []


def test_every_public_parameter_is_read():
    """A parameter of a public function or method that its body never
    reads is an option that selects nothing."""
    unread, checked = [], 0
    for path in sorted(SRC.glob("snarkdefect/*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        methods = [(f"{cls.name}.", node) for cls in body if isinstance(cls, ast.ClassDef)
                   and not cls.name.startswith("_") for node in cls.body]
        for prefix, fn in [("", node) for node in body] + methods:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("_"):
                continue
            checked += 1
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            a = fn.args
            unread += [f"{path.stem}.{prefix}{fn.name}({p.arg})"
                       for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                       if p and p.arg not in read]
    assert checked > 100
    assert unread == []


def test_every_defaulted_public_parameter_is_passed():
    """A defaulted parameter of a public function or method that no call
    in the package or the benchmark passes is an option only tests set.
    A call counts by the name it calls, its positional count and its
    keywords.  No program calls nz_4flow or cyclic_edge_connectivity:
    their gates are the API itself."""
    sources = sorted(SRC.glob("snarkdefect/*.py")) + sorted(SRC.parent.glob("perfbench/**/*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    passed = {}  # called name -> the positions and keywords some call passes
    for tree in trees.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                many = any(isinstance(a, ast.Starred) for a in call.args)
                at = passed.setdefault(name, set())
                at |= set(range(99 if many else len(call.args)))
                at |= {k.arg or "**" for k in call.keywords}
    gates = {"fulkerson.nz_4flow(removed)", "fulkerson.nz_4flow(max_dimension)",
             "graph_core.cyclic_edge_connectivity(max_vertices)"}
    unset, checked = [], 0
    for path, tree in trees.items():
        if path.parent.name != "snarkdefect":
            continue
        methods = [(f"{cls.name}.", node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                   and not cls.name.startswith("_") for node in cls.body]
        for prefix, fn in [("", node) for node in tree.body] + methods:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("_"):
                continue
            a = fn.args
            positional = (a.posonlyargs + a.args)[1 if prefix else 0:]  # a method's self
            defaulted = [(i, p) for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(None, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            at = passed.get(fn.name, set())
            for i, p in defaulted:
                checked += 1
                if not {i, p.arg, "**"} & at:
                    unset.append(f"{path.stem}.{prefix}{fn.name}({p.arg})")
    assert checked > 10
    assert set(unset) == gates


def test_no_search_takes_a_matching_cap_beside_its_facts():
    """A search's matching cap is the cap of its ``GraphFacts``: no public
    function or method that takes ``facts`` takes a cap too, and no
    dataclass carries one, so a cap cannot be set in two places."""
    both, fields, checked = [], [], 0
    for path in sorted(SRC.glob("snarkdefect/*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        classes = [node for node in body if isinstance(node, ast.ClassDef)]
        methods = [(f"{cls.name}.", node) for cls in classes
                   if not cls.name.startswith("_") for node in cls.body]
        for prefix, fn in [("", node) for node in body] + methods:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("_"):
                continue
            a = fn.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            checked += "facts" in params
            if "facts" in params and params & {"cap", "max_matchings"}:
                both.append(f"{path.stem}.{prefix}{fn.name}")
        fields += [f"{path.stem}.{cls.name}" for cls in classes
                   if any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
                   for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
                   and getattr(stmt.target, "id", None) == "max_matchings"]
    assert checked >= 3  # oddness, defect, regular_defect
    assert (both, fields) == ([], [])


def _capped(argv, cwd, address_space=1 << 30):
    """Run ``python`` with argv in a child limited to ``address_space``
    bytes (1 GB) and a minute of wall time: (exit code, stdout, its CPU
    seconds)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=_fresh_env(), preexec_fn=limit,
                          capture_output=True, text=True, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return proc.returncode, proc.stdout, cpu


def _seeded_simple_cubic(n, seed):
    """A simple bridgeless cubic graph from the configuration model."""
    rng = random.Random(seed)
    while True:
        edges = oracles.random_cubic_edges(rng, n)
        if all(a != b for a, b in edges) and len(set(edges)) == len(edges):
            g = sd.CubicGraph(n, edges)
            if sd.is_bridgeless(g):
                return g


@pytest.mark.parametrize("source", ["double:flower:11", "n100"])
def test_analyze_reaches_large_colourable_graphs(tmp_path, source):
    # a colourable graph's witness needs no list of its matchings; built
    # from that list, each ran out of a 1 GB address space, after 6 s
    # (double:flower:11, 88 vertices) and 9 s of CPU (the 100-vertex graph)
    if source == "n100":
        g = _seeded_simple_cubic(100, 1)
        (tmp_path / "n100.txt").write_text(
            "vertices 100\n" + "".join(f"{a} {b}\n" for a, b in g.edges))
        argv = ["--edge-list", "n100.txt"]
    else:
        argv = ["--construct", source]
    code, out, cpu = _capped(["-m", "snarkdefect.cli", "analyze", *argv, "--json"], tmp_path)
    assert code == 0 and cpu < 2.0
    result = json.loads(out)["result"]
    assert [(result[k]["value"], result[k]["exhaustive"]) for k in ("df", "rdf")] == \
        [(0, True), (0, True)]
    (tmp_path / "cert.jsonl").write_text(out)
    code, out, _ = _capped(["-m", "snarkdefect.cli", "verify", "cert.jsonl"], tmp_path)
    assert code == 0 and out.startswith(f"PASS cert.jsonl:1 ({argv[1]})")


@pytest.mark.parametrize("n, seed, place", [(100, 3, 10635), (200, 1, 3035)])
def test_oddness_reaches_a_late_least_colour_class(n, seed, place):
    # the least colour class is the walk's 10,635th and 3,035th matching;
    # sent to a full enumeration after the 64th, oddness ran out of a
    # 1.5 GB address space after 7-17 s of CPU
    g = _seeded_simple_cubic(n, seed)
    code, out, cpu = _capped(["-c", "import snarkdefect as sd\n"
                              f"facts = sd.GraphFacts(sd.CubicGraph({n}, {sorted(g.edges)!r}))\n"
                              "print(facts.oddness, 'masks' in vars(facts), len(facts._seen))"],
                             None)
    assert (code, out, cpu < 2.0) == (0, f"0 False {place}\n", True)


def test_oddness_reaches_a_bipartite_double_of_a_double():
    # double:double:flower:9 is two copies of double:flower:9 (144
    # vertices); from the full list, oddness ran out of a 1 GB address
    # space after 2.6 s.  analyze refuses it: it is disconnected.
    code, out, cpu = _capped(["-c", "import snarkdefect as sd\n"
                              "from snarkdefect.cli import build_descriptor\n"
                              "g = build_descriptor('double:double:flower:9')\n"
                              "print(g.vertex_count, sd.oddness(g), sd.is_snark(g))"], None)
    assert (code, out, cpu < 2.0) == (0, "144 0 False\n", True)
    with pytest.raises(sd.GraphError, match="found disconnected"):
        cli.analyze_graph(cli.build_descriptor("double:double:flower:9"))


def test_a_descriptor_too_large_to_build_is_an_error_certificate(tmp_path):
    # double: x 20 + petersen has about 10 million vertices; building it
    # ended in a MemoryError traceback from CubicGraph.__init__.  In a
    # 200 MB address space it runs out in about 1.5 s of CPU, and the
    # batch goes on to the next input
    desc = "double:" * 20 + "petersen"
    code, out, cpu = _capped(["-m", "snarkdefect.cli", "analyze", "--construct", desc,
                              "--construct", "petersen", "--json"], tmp_path, 200 << 20)
    assert code == 1 and cpu < 5.0
    first, second = map(json.loads, out.splitlines())
    assert first == certificates.error_certificate("analyze", desc, "out of memory")
    assert second["source"] == "petersen" and second["result"]["df"]["value"] == 3


def test_warm_call_prints_what_a_fresh_process_prints(monkeypatch, tmp_path):
    """stdout, stderr and exit code of in-process main() calls made after
    other calls, with a budget variable set and unset, equal those of a
    fresh ``python -m snarkdefect.cli`` per command line."""
    monkeypatch.chdir(tmp_path)
    for var in (cli.ENV_MAX_MATCHINGS, cli.ENV_MAX_TRIPLES):
        monkeypatch.delenv(var, raising=False)
    screen = {"COLUMNS": "80", "LINES": "24"}
    for var, value in screen.items():
        monkeypatch.setenv(var, value)
    _, certs, _ = run(["analyze", "--construct", "flower:3", "--json"])
    (tmp_path / "certs.jsonl").write_text(certs, encoding="utf-8")
    argvs = [
        ["analyze", "--construct", "petersen", "--json"],
        ["fulkerson", "--construct", "petersen", "--roundtrip", "--json"],
        ["verify", "certs.jsonl"],
        ["fulkerson", "--construct", "petersen", "--find", "--roundtrip"],
        ["--help"],
        ["analyze", "--help"],
        ["fulkerson", "--help"],
    ]
    monkeypatch.setenv(cli.ENV_MAX_TRIPLES, "5")      # warm the parser with a budget set
    run(["analyze", "--construct", "flower:5"])
    run(["fulkerson", "--construct", "petersen", "--max-nodes", "-1"])
    monkeypatch.delenv(cli.ENV_MAX_TRIPLES)
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "snarkdefect.cli", *argv],
                              env=_fresh_env(**screen), capture_output=True, text=True)
        assert run(argv) == (proc.returncode, proc.stdout, proc.stderr), argv


def test_no_input_is_a_quiet_noop():
    # no sources given -> nothing analyzed, nothing printed
    code, out, err = run(["analyze"])
    assert (code, out, err) == (0, "", "")
