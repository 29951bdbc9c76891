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
from .colouring import GraphFacts, oddness
from .constructions import flower_snark, inflate_pair_theorem_check, inflate_to_triangle, petersen
from .defect_engine import BudgetError, defect, regular_defect
from .fulkerson import find_cover
from .graph_core import (
    CubicGraph,
    FormatError,
    GraphError,
    bipartite_double,
    parse_edge_list,
    parse_graph6,
)

ENV_MAX_MATCHINGS = "SNARKDEFECT_MAX_MATCHINGS"
ENV_MAX_TRIPLES = "SNARKDEFECT_MAX_TRIPLES"


def _number(tok: str) -> int:
    """A descriptor number: ASCII digits only, rejected in int()'s words."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {tok!r}")
    return int(tok)


def build_descriptor(desc: str) -> CubicGraph:
    """petersen | flower:N | inflate:GRAPH:V | inflate-pair:GRAPH:U:V | double:GRAPH

    A bad descriptor's error names it once, however deep the bad part
    is nested, and gives the innermost reason."""
    try:
        return _build(desc)
    except RecursionError:
        reason = "nested too deeply"
    except ValueError as exc:  # a GraphError is one too
        if str(exc) == f"unknown construction descriptor {desc!r}":
            raise  # the whole descriptor, not a nested one, is unknown
        reason = exc
    raise GraphError(f"bad construction descriptor {desc!r}: {reason}")


def _build(desc: str) -> CubicGraph:
    """The graph of a descriptor; a bad part raises ValueError with its own reason."""
    head, _, rest = desc.partition(":")
    if head == "petersen" and not rest:
        return petersen()
    if head == "flower":
        return flower_snark(_number(rest))
    if head == "double":
        return bipartite_double(_build(rest))
    if head == "inflate":
        if ":" not in rest:
            raise ValueError("expected inflate:GRAPH:V")
        sub, _, v = rest.rpartition(":")
        return inflate_to_triangle(_build(sub), _number(v))
    if head == "inflate-pair":
        if rest.count(":") < 2:
            raise ValueError("expected inflate-pair:GRAPH:U:V")
        sub, u, v = rest.rsplit(":", 2)
        return inflate_pair_theorem_check(_build(sub), _number(u), _number(v))[0]
    raise GraphError(f"unknown construction descriptor {desc!r}")


def _read_text(name: str, encoding: str) -> str:
    """A file's text, or stdin's for '-', with the newlines text mode
    reads from a file: \\r\\n and \\r become \\n."""
    if name == "-":
        return sys.stdin.read().replace("\r\n", "\n").replace("\r", "\n")
    with open(name, encoding=encoding) as fh:
        return fh.read()


def iter_inputs(args):
    """Yield (source_label, graph_or_error) in a stable order."""
    if args.graph6:
        name = args.graph6
        try:
            text = _read_text(name, "ascii")
        except (OSError, UnicodeDecodeError) as exc:
            yield name, GraphError(f"cannot read {name}: {exc}")
            text = ""
        for lineno, line in enumerate(text.split("\n"), start=1):
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
            g = build_descriptor(desc)
        except GraphError as exc:
            g = exc
        except MemoryError:  # yielded outside the handler, so the partial graph is freed
            g = GraphError("out of memory")
        yield desc, g


def _defect_word(sec: dict) -> str:
    v = sec["value"]
    return f"{v}" + ("" if sec["exhaustive"] else "?")


def analyze_graph(g: CubicGraph, max_matchings: int | None = None,
                  max_triples: int | None = None) -> dict:
    """The analyze result, reading at most ``max_matchings`` matchings
    and inspecting at most ``max_triples`` triples per search."""
    facts = GraphFacts(g, max_matchings)
    d = defect(g, max_triples, facts=facts)
    r = regular_defect(g, max_triples, facts=facts)
    return certs.analyze_json(g, oddness(g, facts=facts), d, r)


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
        f"snark={'?' if res['snark'] is None else 'yes' if res['snark'] else 'no'}",
        f"oddness={'?' if res['oddness'] is None else res['oddness']}",
        f"df={_defect_word(res['df'])}",
        f"rdf={_defect_word(res['rdf'])}",
        f"core={core_s}",
        f"girth-bound={'n/a' if gb is None else ('ok' if gb else 'VIOLATED')}",
    ]
    if cert.get("timing"):
        parts.append(f"time={cert['timing']['seconds']}s")
    return " ".join(parts)


def _run_batch(args, command: str, per_graph, human) -> int:
    """Emit ``per_graph(g) -> result`` as one certificate and one
    ``human(src, result, cert)`` line per input; bad inputs, GraphErrors
    and running out of memory become error certificates.  Exit code 1 on
    an unwritable --output file, any error or failed check, else 2 if any
    result was budget-limited, else 0.  An --output file that is also an input is
    refused the same way: opening it would overwrite the input."""
    inputs = (args.edge_list, getattr(args, "verify", None), args.graph6 != "-" and args.graph6)
    if args.output and os.path.exists(args.output) and any(
            name and os.path.exists(name) and os.path.samefile(name, args.output)
            for name in inputs):
        print(f"snarkdefect: cannot write {args.output}: it is also an input", file=sys.stderr)
        return 1
    try:
        sink = open(args.output, "w", encoding="utf-8") if args.output else None
    except OSError as exc:
        print(f"snarkdefect: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
        return 1
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
                res = per_graph(item)
            except (GraphError, MemoryError) as exc:
                msg = "out of memory" if isinstance(exc, MemoryError) else str(exc)
                emit(certs.error_certificate(command, src, msg), f"{src}: ERROR {msg}")
                any_error = True
                continue
            dt = time.perf_counter() - t0 if args.timing else None
            exact = certs.result_exact(command, res)
            cert = certs.make_certificate(command, src, item, res, exact, dt)
            emit(cert, human(src, res, cert))
            any_bounded |= not exact
            any_fail |= not certs.result_passes(res)
    finally:
        if sink:
            sink.close()
    return 1 if any_error or any_fail else 2 if any_bounded else 0


def cmd_analyze(args) -> int:
    return _run_batch(args, "analyze",
                      lambda g: analyze_graph(g, args.max_matchings, args.max_triples),
                      _human_analyze)


def _load_cover_members(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.loads(fh.read().split("\n", 1)[0])
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"{path}: cannot read a cover: {exc}") from None
    if isinstance(data, dict) and "matchings" in data:
        lists = data["matchings"]
    elif isinstance(data, dict) and data.get("schema") == certs.SCHEMA:
        result = data.get("result")
        lists = result.get("cover") if isinstance(result, dict) else None
    else:
        lists = None
    if not (isinstance(lists, list) and all(
            isinstance(x, list) and all(type(v) is int for v in x) for x in lists)):
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
    mode = "verify" if args.verify else "roundtrip" if args.roundtrip else "find"
    try:  # read once: every input gets the same cover, or the same error
        cover = _load_cover_members(args.verify) if args.verify else None
    except GraphError as exc:
        cover = exc

    def one(g: CubicGraph) -> dict:
        if isinstance(cover, GraphError):
            raise GraphError(str(cover))  # a new error, so no traceback piles up
        if args.verify:
            found = cover
        else:
            try:
                found = find_cover(g, args.max_nodes, facts=GraphFacts(g, args.max_matchings))
            except BudgetError as exc:
                found = exc
        return certs.fulkerson_json(g, mode, found)

    return _run_batch(args, "fulkerson", one, _human_fulkerson)


def cmd_verify(args) -> int:
    passed = failed = 0
    try:
        text = _read_text(args.certificates, "utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"FAIL {args.certificates}: cannot read: {exc}")
        failed, text = 1, ""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        label = f"{args.certificates}:{lineno}"
        try:
            cert = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
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


def _add_input_flags(p: argparse.ArgumentParser, max_triples_help: str) -> None:
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
    # main() sets the defaults of these two from the environment on every call
    p.add_argument("--max-matchings", type=int, default=None,
                   help=f"matching enumeration cap (default ${ENV_MAX_MATCHINGS})")
    p.add_argument("--max-triples", type=int, default=None, help=max_triples_help)


def make_parser() -> argparse.ArgumentParser:
    """A new command-line parser; main() builds one per process and keeps it."""
    return _build_parser()[0]


def _build_parser() -> tuple[argparse.ArgumentParser, tuple[argparse.ArgumentParser, ...]]:
    """The parser, and its subparsers that take the budget flags."""
    parser = argparse.ArgumentParser(
        prog="snarkdefect",
        description="Exact colouring-defect and Fulkerson-cover computations "
                    "for bridgeless cubic graphs.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("analyze", help="defect, core and flow analysis per input graph")
    _add_input_flags(pa, f"triple inspection cap (default ${ENV_MAX_TRIPLES})")
    pa.set_defaults(fn=cmd_analyze)

    pf = sub.add_parser("fulkerson", help="find/verify Fulkerson covers, run the roundtrip")
    _add_input_flags(pf, f"accepted for compatibility; has no effect (default ${ENV_MAX_TRIPLES})")
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
    return parser, (pa, pf)


_built = None  # what _build_parser() returns, from the first main() call


def main(argv=None) -> int:
    """Run one command line and return its exit code; ``--help`` and
    usage errors raise SystemExit, as argparse does.

    main can be called any number of times in one process.  The parser is
    built on the first call and reused by later ones; the
    SNARKDEFECT_MAX_MATCHINGS and SNARKDEFECT_MAX_TRIPLES variables are
    read on every call."""
    global _built
    if _built is None:
        _built = _build_parser()
    parser, budgeted = _built
    # argparse converts a string default with type=int, so a bad variable
    # is a usage error, as a bad flag is
    budgets = {"max_matchings": os.environ.get(ENV_MAX_MATCHINGS) or None,
               "max_triples": os.environ.get(ENV_MAX_TRIPLES) or None}
    for p in budgeted:
        p.set_defaults(**budgets)
    args = parser.parse_args(argv)
    # a value from a SNARKDEFECT_MAX_* variable is checked, and reported,
    # as the flag it stands in for
    for key, least in (("max_matchings", 1), ("max_triples", 0), ("max_nodes", 0)):
        value = getattr(args, key, None)
        if value is not None and value < least:
            parser.error(f"--{key.replace('_', '-')} must be at least {least}, got {value}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
