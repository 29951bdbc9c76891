"""Batch command line: analyze graphs, find/verify Fulkerson covers,
re-verify certificates.

Certificates are emitted one JSON object per line with sorted keys, so
output is byte-identical across runs; ``--threads`` is accepted and has
no effect.  Timing is only recorded under --timing (and is then, of
course, not reproducible).

Exit codes: 0 all results exact and all checks pass; 2 at least one
result was budget-limited; 1 errors or failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import certificates as certs
from .colouring import GraphFacts, is_snark, oddness
from .constructions import flower_snark, inflate_pair_theorem_check, inflate_to_triangle, petersen
from .defect_engine import BudgetError, NONE_FOUND, SearchBudget, defect, regular_defect
from .fulkerson import find_cover, verify_cover
from .graph_core import (
    CubicGraph,
    FormatError,
    GraphError,
    bipartite_double,
    girth,
    parse_edge_list,
    parse_graph6,
)

ENV_MAX_MATCHINGS = "SNARKDEFECT_MAX_MATCHINGS"
ENV_MAX_TRIPLES = "SNARKDEFECT_MAX_TRIPLES"


def build_descriptor(desc: str) -> CubicGraph:
    """petersen | flower:N | inflate:GRAPH:V | inflate-pair:GRAPH:U:V | double:GRAPH"""
    head, _, rest = desc.partition(":")
    try:
        if head == "petersen" and not rest:
            return petersen()
        if head == "flower":
            return flower_snark(int(rest))
        if head == "double":
            return bipartite_double(build_descriptor(rest))
        if head == "inflate":
            sub, _, v = rest.rpartition(":")
            return inflate_to_triangle(build_descriptor(sub), int(v))
        if head == "inflate-pair":
            sub, u, v = rest.rsplit(":", 2)
            gg, _ = inflate_pair_theorem_check(build_descriptor(sub), int(u), int(v))
            return gg
    except ValueError as exc:
        raise GraphError(f"bad construction descriptor {desc!r}: {exc}") from None
    raise GraphError(f"unknown construction descriptor {desc!r}")


def iter_inputs(args):
    """Yield (source_label, graph_or_error) in a stable order."""
    if args.graph6:
        name = args.graph6
        try:
            if name == "-":
                text = sys.stdin.read()
            else:
                with open(name, encoding="ascii") as fh:
                    text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            yield name, GraphError(f"cannot read {name}: {exc}")
            text = ""
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            src = f"{name}:{lineno}"
            try:
                yield src, parse_graph6(line)
            except (FormatError, GraphError) as exc:
                yield src, GraphError(f"parse error: {exc}")
    if args.edge_list:
        try:
            with open(args.edge_list, encoding="ascii") as fh:
                g = parse_edge_list(fh.read())
            if not isinstance(g, CubicGraph):
                g = g.to_graph()
            yield args.edge_list, g
        except (OSError, UnicodeDecodeError) as exc:
            yield args.edge_list, GraphError(f"cannot read {args.edge_list}: {exc}")
        except (FormatError, GraphError) as exc:
            yield args.edge_list, GraphError(f"parse error: {exc}")
    for desc in args.construct or ():
        try:
            yield desc, build_descriptor(desc)
        except GraphError as exc:
            yield desc, exc


def budget_from(args) -> SearchBudget | None:
    if args.max_matchings is None and args.max_triples is None:
        return None
    return SearchBudget(args.max_matchings, args.max_triples)


def _defect_word(sec: dict) -> str:
    v = sec["value"]
    return f"{v}" + ("" if sec["exhaustive"] else "?")


def analyze_graph(g: CubicGraph, budget, threads=None) -> tuple[dict, bool]:
    """The analyze result section and whether it is exact; ``threads`` is ignored."""
    facts = GraphFacts(g)
    res: dict = {"girth": girth(g)}
    res["colourable"] = facts.colourable
    res["snark"] = is_snark(g, facts=facts)
    res["oddness"] = oddness(g, facts=facts)
    d = defect(g, budget=budget, facts=facts)
    r = regular_defect(g, budget=budget, facts=facts)
    res["df"] = certs.defect_json(d)
    res["rdf"] = certs.defect_json(r)
    res.update(certs.derived_json(g, d, r))
    return res, d.exhaustive and r.exhaustive


def _human_analyze(src: str, res: dict, cert: dict) -> str:
    core = res["core"]
    if core is None:
        core_s = "n/a"
    elif not (core["uncovered"] or core["doubly"] or core["triply"]):
        core_s = "empty"
    else:
        core_s = (f"{len(core['uncovered'])}u/{len(core['doubly'])}d/"
                  f"{len(core['triply'])}t in {len(core['components'])} component(s)")
    gb = res["girth_bound"]
    parts = [
        f"{src}:",
        f"girth={res['girth']}",
        f"snark={'yes' if res['snark'] else 'no'}",
        f"oddness={res['oddness']}",
        f"df={_defect_word(res['df'])}",
        f"rdf={_defect_word(res['rdf'])}",
        f"core={core_s}",
        f"girth-bound={'n/a' if gb is None else ('ok' if gb else 'VIOLATED')}",
    ]
    if cert.get("timing"):
        parts.append(f"time={cert['timing']['seconds']}s")
    return " ".join(parts)


def _run_batch(args, command: str, per_graph, human) -> int:
    """Emit ``per_graph(g) -> (result, exact, passed)`` as one certificate
    and one ``human(src, result, cert)`` line per input; bad inputs and
    GraphErrors become error certificates.  Exit code 1 on any error or
    failed check, else 2 if any result was budget-limited, else 0."""
    sink = open(args.output, "w", encoding="utf-8") if args.output else None
    any_error = any_bounded = any_fail = False

    def emit(cert: dict, line: str) -> None:
        text = certs.dump_certificate(cert)
        if sink:
            sink.write(text + "\n")
        if args.json:
            print(text)
        elif not args.quiet:
            print(line)

    try:
        for src, item in iter_inputs(args):
            t0 = time.perf_counter()
            try:
                if isinstance(item, GraphError):
                    raise item
                res, exact, passed = per_graph(item)
            except GraphError as exc:
                emit(certs.error_certificate(command, src, str(exc)), f"{src}: ERROR {exc}")
                any_error = True
                continue
            dt = time.perf_counter() - t0 if args.timing else None
            cert = certs.make_certificate(command, src, item, res, exact, dt)
            emit(cert, human(src, res, cert))
            any_bounded |= not exact
            any_fail |= not passed
    finally:
        if sink:
            sink.close()
    return 1 if any_error or any_fail else 2 if any_bounded else 0


def cmd_analyze(args) -> int:
    budget = budget_from(args)
    return _run_batch(args, "analyze", lambda g: (*analyze_graph(g, budget), True),
                      _human_analyze)


def _load_cover_members(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.loads((fh.read().splitlines() or [""])[0])
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphError(f"{path}: cannot read a cover: {exc}") from None
    if isinstance(data, dict) and "matchings" in data:
        lists = data["matchings"]
    elif isinstance(data, dict) and data.get("schema") == certs.SCHEMA:
        lists = (data.get("result") or {}).get("cover")
    else:
        lists = None
    if not (isinstance(lists, list) and all(
            isinstance(x, list) and all(isinstance(v, int) for v in x) for x in lists)):
        raise GraphError(f"{path}: expected a 'matchings' list or a fulkerson certificate")
    return [frozenset(x) for x in lists]


def _human_fulkerson(src: str, res: dict, cert: dict) -> str:
    cover = res["cover"]
    if cover == "budget_exceeded":
        return f"{src}: budget exceeded ({res['detail']})"
    if cover == "none_found":
        return f"{src}: no cover exists"
    if res["mode"] == "verify":
        return f"{src}: {'PASS' if res['ok'] else 'FAIL: ' + res['violation']}"
    if res["mode"] == "roundtrip":
        return f"{src}: roundtrip {'PASS' if res['pass'] else 'FAIL'}"
    return f"{src}: cover with {len(cover)} matchings"


def cmd_fulkerson(args) -> int:
    mode = "roundtrip" if args.roundtrip else "find"

    def one(g: CubicGraph):
        if args.verify:
            members = _load_cover_members(args.verify)
            chk = verify_cover(g, members)
            return {
                "mode": "verify",
                "cover": [sorted(mm) for mm in members],
                "ok": bool(chk),
                "violation": chk.violation,
                "multiplicities": list(chk.multiplicities),
            }, True, bool(chk)
        try:
            cover = find_cover(g, args.max_matchings, args.max_nodes)
        except BudgetError as exc:
            return {"mode": mode, "cover": "budget_exceeded", "detail": str(exc)}, False, True
        if cover is NONE_FOUND:
            return {"mode": mode, "cover": "none_found"}, True, True
        if mode == "find":
            return {"mode": "find", "cover": certs.cover_json(cover), "ok": True}, True, True
        res = certs.roundtrip_json(g, cover)
        return res, True, res["pass"]

    return _run_batch(args, "fulkerson", one, _human_fulkerson)


def cmd_verify(args) -> int:
    passed = failed = 0
    try:
        if args.certificates == "-":
            text = sys.stdin.read()
        else:
            with open(args.certificates, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"FAIL {args.certificates}: cannot read: {exc}")
        failed, text = 1, ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        label = f"{args.certificates}:{lineno}"
        try:
            cert = json.loads(line)
        except json.JSONDecodeError as exc:
            print(f"FAIL {label}: bad JSON: {exc}")
            failed += 1
            continue
        problems = certs.verify_certificate(cert)
        src = cert.get("source", "?") if isinstance(cert, dict) else "?"
        if problems:
            print(f"FAIL {label} ({src}): " + "; ".join(problems))
            failed += 1
        else:
            if not args.quiet:
                print(f"PASS {label} ({src})")
            passed += 1
    print(f"verified {passed + failed} certificate(s): {passed} pass, {failed} fail")
    return 1 if failed else 0


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph6", metavar="FILE",
                   help="graph6 input, one graph per line ('-' for stdin)")
    p.add_argument("--edge-list", metavar="FILE", help="edge-list format input")
    p.add_argument("--construct", metavar="DESC", action="append",
                   help="construction descriptor: petersen, flower:N, inflate:GRAPH:V, "
                        "inflate-pair:GRAPH:U:V, double:GRAPH (repeatable)")
    p.add_argument("--json", action="store_true", help="print certificates (JSONL) to stdout")
    p.add_argument("--quiet", action="store_true", help="suppress human summary lines")
    p.add_argument("--output", metavar="FILE", help="also write certificates (JSONL) to FILE")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--timing", action="store_true",
                   help="record wall time (certificates stop being reproducible)")
    # argparse converts a string default with type=int, so a bad variable
    # is a usage error, as a bad flag is
    p.add_argument("--max-matchings", type=int, default=os.environ.get(ENV_MAX_MATCHINGS) or None,
                   help=f"matching enumeration cap (default ${ENV_MAX_MATCHINGS})")
    p.add_argument("--max-triples", type=int, default=os.environ.get(ENV_MAX_TRIPLES) or None,
                   help=f"triple inspection cap (default ${ENV_MAX_TRIPLES})")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snarkdefect",
        description="Exact colouring-defect and Fulkerson-cover computations "
                    "for bridgeless cubic graphs.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("analyze", help="defect, core and flow analysis per input graph")
    _add_input_flags(pa)
    pa.set_defaults(fn=cmd_analyze)

    pf = sub.add_parser("fulkerson", help="find/verify Fulkerson covers, run the roundtrip")
    _add_input_flags(pf)
    mode = pf.add_mutually_exclusive_group()
    mode.add_argument("--find", action="store_true", help="search for a cover (default)")
    mode.add_argument("--verify", metavar="COVERFILE",
                      help="check a cover (JSON {'matchings': [...]}, or a find certificate)")
    mode.add_argument("--roundtrip", action="store_true",
                      help="cover -> complementary pair -> flows -> cover, checked")
    pf.add_argument("--max-nodes", type=int, default=None, help="cover search node cap")
    pf.set_defaults(fn=cmd_fulkerson)

    pv = sub.add_parser("verify", help="re-check certificates produced by analyze/fulkerson")
    pv.add_argument("certificates", help="JSONL certificate file ('-' for stdin)")
    pv.add_argument("--quiet", action="store_true", help="print failures only")
    pv.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
