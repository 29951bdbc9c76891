"""Certificate records: the result format, written and re-checked by
the same code.

``analyze_json`` and ``fulkerson_json`` build every result the CLI
writes, and ``result_exact`` says whether one is exact.  A certificate
carries the graph itself (edge list + digest), so `verify` re-checks it
without the original input and without any search: it validates the
witnesses or the cover, passes them to the same builder together with
the claims only a search could check (oddness, null where a matching
cap left it open, each ``exhaustive``, none_found, the budget detail),
and names every result key, and ``exact``, that differs from the
rebuilt result.  Those claims
are taken at face value, after their JSON types and their consistency
with each other are checked.  A result the writers refuse to write
fails before any rebuild: an ``analyze``, ``find`` or ``roundtrip``
result on a graph that is not bridgeless.
"""

from __future__ import annotations

import hashlib
import json

from .defect_engine import (
    NONE_FOUND,
    UNKNOWN,
    BudgetError,
    DefectResult,
    ThreeArray,
    core_of,
    coverage,
    girth_bound_holds,
)
from .fano_flow import characteristic_flow
from .fulkerson import (
    FulkersonCover,
    GroupFlow,
    complementary_to_flows,
    cover_to_complementary,
    flows_to_cover,
    verify_cover,
)
from .graph_core import CubicGraph, GraphError, girth, is_bridgeless, write_edge_list

SCHEMA = "snarkdefect.certificate/1"
_ERROR_KEYS = {"schema", "command", "source", "error"}
_CERT_KEYS = {"schema", "command", "source", "graph", "result", "exact", "timing"}
_GRAPH_KEYS = {"sha256", "vertices", "edges"}
_FULKERSON_MODES = ("find", "verify", "roundtrip")


def graph_digest(g: CubicGraph) -> str:
    return hashlib.sha256(write_edge_list(g).encode("utf-8")).hexdigest()


def graph_payload(g: CubicGraph) -> dict:
    return {
        "sha256": graph_digest(g),
        "vertices": g.vertex_count,
        "edges": [list(p) for p in g.edges],
    }


def graph_from_payload(d: dict) -> CubicGraph:
    """The graph of a payload; vertex ids are ints (a bool is not one)."""
    n, edges = d["vertices"], d["edges"]
    if type(n) is not int:
        raise GraphError("vertices is not an int")
    if not (isinstance(edges, list) and all(
            isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p)
            for p in edges)):
        raise GraphError("edges is not a list of vertex-id pairs")
    g = CubicGraph(n, [tuple(p) for p in edges])
    if graph_digest(g) != d["sha256"]:
        raise GraphError("graph digest mismatch")
    return g


def array_json(a: ThreeArray) -> list[list[int]]:
    return [list(t) for t in a.sorted_lists()]


def array_from_json(lists) -> ThreeArray:
    if len(lists) != 3:
        raise GraphError(f"a 3-array has three matchings, got {len(lists)}")
    return ThreeArray.of(*(frozenset(x) for x in lists))


def defect_json(r: DefectResult) -> dict:
    if isinstance(r.value, int):
        value = r.value
    else:
        value = repr(r.value).lower()
    return {
        "value": value,
        "exhaustive": r.exhaustive,
        "witness": array_json(r.witness) if r.witness is not None else None,
    }


def core_json(core) -> dict:
    return {
        "uncovered": sorted(core.uncovered),
        "doubly": sorted(core.doubly),
        "triply": sorted(core.triply),
        "components": [
            {"kind": c.kind, "vertices": sorted(c.vertices), "edges": sorted(c.edges)}
            for c in sorted(core.components, key=lambda c: min(c.edges))
        ],
    }


def cover_json(cover: FulkersonCover) -> list[list[int]]:
    return [sorted(mm) for mm in cover.matchings]


def flow_json(f: GroupFlow) -> dict:
    return {
        "removed": sorted(f.removed),
        "values": [f.values[e] for e in range(len(f.values))],
    }


def analyze_json(g: CubicGraph, oddness: int | None, d: DefectResult,
                 r: DefectResult) -> dict:
    """The whole ``analyze`` result from the search outcomes: girth,
    colourability (oddness 0) and snark status, all three null when a
    matching cap left oddness open, the df and rdf results,
    the core of the rdf witness (else the df witness), the
    characteristic flow of the rdf witness and, for an exact rdf, the
    girth-bound check on that girth and core.

    g must be bridgeless: ``defect`` refuses any other graph, and
    ``verify_certificate`` fails such a certificate before it rebuilds
    the result.  A bridgeless cubic graph is 2-connected, so it is a
    snark exactly when it is not colourable.  The characteristic flow
    of a regular array of perfect matchings needs no check: around each
    vertex each member takes one edge and none takes all three, so the
    edges are simply covered by distinct members, or one is uncovered,
    one doubly and one simply covered; their values form the weight-2
    line or a line through 111, both in the four-line catalogue."""
    gi = girth(g)  # before the rest: the empty graph's error is its girth's
    if r.witness is not None:
        core_w, core = "rdf", core_of(g, r.witness)
    elif d.witness is not None:
        core_w, core = "df", core_of(g, d.witness)
    else:
        core_w, core = None, None
    flow = characteristic_flow(g, r.witness) if r.witness is not None else None
    exact_rdf = r.exhaustive and isinstance(r.value, int) and r.witness is not None
    return {
        "girth": gi,
        "colourable": None if oddness is None else oddness == 0,
        "snark": None if oddness is None else oddness != 0,
        "oddness": oddness,
        "df": defect_json(d),
        "rdf": defect_json(r),
        "core_witness": core_w,
        "core": core_json(core) if core is not None else None,
        "characteristic_flow": flow.serialize() if flow is not None else None,
        "girth_bound": girth_bound_holds(gi, r.value, core) if exact_rdf else None,
    }


def fulkerson_json(g: CubicGraph, mode: str, found) -> dict:
    """The whole ``fulkerson`` result in ``mode`` (find, verify or
    roundtrip).  ``found`` is what the cover search gave (a cover,
    NONE_FOUND or the BudgetError it raised) or, in verify mode, the
    members of the cover to check, in the order they were read."""
    if isinstance(found, BudgetError):
        return {"mode": mode, "cover": "budget_exceeded", "detail": str(found)}
    if found is NONE_FOUND:
        return {"mode": mode, "cover": "none_found"}
    if mode == "verify":
        chk = verify_cover(g, found)
        return {
            "mode": mode,
            "cover": [sorted(mm) for mm in found],
            "ok": chk.ok,
            "violation": chk.violation,
            "multiplicities": list(chk.multiplicities),
        }
    if mode == "find":
        return {"mode": mode, "cover": cover_json(found), "ok": True}
    # roundtrip: cover -> complementary pair -> flows -> cover
    pair = cover_to_complementary(found)
    p1, p2, f1, f2 = complementary_to_flows(g, pair)
    rebuilt = flows_to_cover(g, p1, p2, f1, f2)
    return {
        "mode": mode,
        "cover": cover_json(found),
        "pair": [array_json(pair.first), array_json(pair.second)],
        "p1": sorted(p1),
        "p2": sorted(p2),
        "flows": [flow_json(f1), flow_json(f2)],
        "rebuilt": cover_json(rebuilt),
        "pass": found.matchings == rebuilt.matchings,  # both in canonical order
    }


def result_exact(command: str, res: dict) -> bool:
    """Whether a result is exact: no search behind it stopped at a budget."""
    if command == "analyze":
        return res["df"]["exhaustive"] and res["rdf"]["exhaustive"]
    return res["cover"] != "budget_exceeded"


def result_passes(res: dict) -> bool:
    """Whether the check a result states (a given cover, a roundtrip) passed."""
    return res.get("ok", True) and res.get("pass", True)


def make_certificate(command: str, source: str, g: CubicGraph, result: dict,
                     exact: bool, seconds: float | None = None) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "source": source,
        "graph": graph_payload(g),
        "result": result,
        "exact": exact,
        "timing": None if seconds is None else {"seconds": round(seconds, 6)},
    }


def error_certificate(command: str, source: str, message: str) -> dict:
    return {"schema": SCHEMA, "command": command, "source": source, "error": message}


def dump_certificate(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# re-verification
# ---------------------------------------------------------------------------

def _defect_claim(g: CubicGraph, sec: dict, regular: bool, label: str,
                  problems: list[str]) -> DefectResult | None:
    """The df or rdf result a section states, rebuilt from its witness
    with the stated exhaustiveness; without a witness, the stated
    none_found (exhaustive) or else unknown (not exhaustive).  None when
    the witness cannot carry a result; problems go to ``problems``."""
    value = sec.get("value")
    witness = sec.get("witness")
    if witness is None:
        if isinstance(value, int):
            problems.append(f"{label}: value {value} claimed without witness")
        elif value == "none_found" and not regular:
            problems.append(f"{label}: none_found is only meaningful for regular search")
        if value == "none_found":
            return DefectResult(NONE_FOUND, None, True, regular)
        return DefectResult(UNKNOWN, None, False, regular)
    try:
        arr = array_from_json(witness)
        prof = coverage(g, arr)
    except GraphError as exc:
        problems.append(f"{label}: bad witness: {exc}")
        return None
    if regular and prof.triply:
        problems.append(f"{label}: witness is not regular "
                        f"(edges {sorted(prof.triply)} triply covered)")
        return None
    if not isinstance(value, int):
        problems.append(f"{label}: witness present but value is {value!r}")
    elif len(prof.uncovered) != value:
        problems.append(f"{label}: value {value} does not match witness "
                        f"({len(prof.uncovered)} uncovered edges)")
    return DefectResult(len(prof.uncovered), arr, sec["exhaustive"], regular)


def _cross_check(res: dict, problems: list[str]) -> None:
    """Consistency of the claims only a search could prove."""
    df, rdf = res["df"], res["rdf"]
    dv, rv = df.get("value"), rdf.get("value")
    if df["exhaustive"] and rdf["exhaustive"]:
        if isinstance(dv, int) and isinstance(rv, int) and dv > rv:
            problems.append(f"df {dv} exceeds rdf {rv}")
    if df["exhaustive"] and isinstance(dv, int):
        if res["colourable"] and dv != 0:
            problems.append("colourable graph with nonzero exact df")
        if not res["colourable"] and dv == 0:
            problems.append("uncolourable graph with zero df")
        if res.get("snark") is True and dv < 3:
            problems.append(f"snark with exact df {dv} < 3")
    # a 2-factor of a cubic graph has an even number of odd circuits; null
    # oddness (a matching cap left it open) claims nothing
    odd = res["oddness"]
    if odd is not None and (odd < 0 or odd % 2):
        problems.append(f"oddness {odd} is not a non-negative even number")


def _rebuild_analyze(g: CubicGraph, res: dict, problems: list[str]) -> dict | None:
    d = _defect_claim(g, res["df"], False, "df", problems)
    r = _defect_claim(g, res["rdf"], True, "rdf", problems)
    _cross_check(res, problems)
    if d is None or r is None:
        return None
    return analyze_json(g, res["oddness"], d, r)


def _rebuild_fulkerson(g: CubicGraph, res: dict, problems: list[str]) -> dict | None:
    """The stated cover is checked once: here for a find result, by
    ``fulkerson_json`` for a verify or roundtrip result."""
    mode, cover = res.get("mode", "find"), res["cover"]
    try:
        if cover == "budget_exceeded":
            found = BudgetError(res["detail"])
        elif cover == "none_found":
            found = NONE_FOUND
        elif mode == "verify":
            found = [frozenset(x) for x in cover]
        else:
            found = FulkersonCover.of(g, cover)
            if mode == "find":
                chk = verify_cover(g, found)
                if not chk:
                    raise GraphError(f"invalid cover: {chk.violation}")
        rebuilt = fulkerson_json(g, mode, found)
    except GraphError as exc:
        problems.append(f"cover: {exc}")
        return None
    if "mode" not in res:
        del rebuilt["mode"]  # the mode-less find form
    if rebuilt.get("pass") is False:
        problems.append("roundtrip did not return the original cover")
    return rebuilt


_canonical = json.JSONEncoder(sort_keys=True).encode


def _differences(stated: dict, rebuilt: dict) -> list[str]:
    """Each key whose stated value is missing, extra or, as JSON, not the
    rebuilt one (so 1 and true differ)."""
    if _canonical(stated) == _canonical(rebuilt):
        return []
    out = []
    for key in sorted(stated.keys() | rebuilt.keys()):
        if key not in stated:
            out.append(f"{key}: missing")
        elif key not in rebuilt:
            out.append(f"{key}: not part of the result")
        elif _canonical(stated[key]) != _canonical(rebuilt[key]):
            out.append(f"{key}: does not match the rebuilt result")
    return out


def _edge_lists_problem(x, m: int) -> str | None:
    """Why x is not a list of lists of edge ids below m, or None."""
    if not (isinstance(x, list) and all(
            isinstance(y, list) and all(type(v) is int for v in y) for y in x)):
        return "is not a list of edge-id lists"
    if any(not 0 <= v < m for y in x for v in y):
        return "names an edge the graph does not have"
    return None


_TYPE_NAMES = {bool: "a bool", int: "an int", str: "a string", dict: "an object"}


def _type_problems(obj: dict, types: dict, prefix: str = "") -> list[str]:
    """Each key of ``types`` that ``obj`` lacks or holds with another type."""
    out = []
    for key, kind in types.items():
        if key not in obj:
            out.append(f"{prefix}{key}: missing")
        elif type(obj[key]) is not kind:
            out.append(f"{prefix}{key}: expected {_TYPE_NAMES[kind]}, "
                       f"got {type(obj[key]).__name__}")
    return out


def _shape_problems(command: str, cert: dict, m: int) -> list[str]:
    """Parts of a certificate whose JSON type or edge ids (m edges) are
    not the ones the checks read, including each claim taken at face
    value, and an envelope that is not the writer's (its keys, a string
    source, a null or {"seconds": number} timing, the graph's keys); such
    a certificate is reported, not checked."""
    if cert.keys() != _CERT_KEYS:
        return [f"certificate: expected the keys {sorted(_CERT_KEYS)}, got {sorted(cert)}"]
    res, timing, graph = cert["result"], cert["timing"], cert["graph"]
    if not isinstance(res, dict):
        return [f"result: expected an object, got {type(res).__name__}"]
    problems = _type_problems(cert, {"exact": bool, "source": str})
    if timing is not None and not (type(timing) is dict and timing.keys() == {"seconds"}
                                   and type(timing["seconds"]) in (int, float)):
        problems.append('timing: expected null or {"seconds": <number>}')
    if graph.keys() != _GRAPH_KEYS:
        problems.append(f"graph: expected the keys {sorted(_GRAPH_KEYS)}, got {sorted(graph)}")
    if command == "analyze":
        # a matching cap that leaves oddness open leaves it and
        # colourability null, and then no df or rdf is exhaustive
        open_ = res.get("oddness", 0) is None and not any(
            type(res.get(key)) is dict and res[key].get("exhaustive") is True
            for key in ("df", "rdf"))
        problems += _type_problems(res, {"df": dict, "rdf": dict} if open_ else
                                   {"colourable": bool, "oddness": int, "df": dict, "rdf": dict})
        for key in ("df", "rdf"):
            sec = res.get(key)
            if type(sec) is not dict:
                continue
            problems += _type_problems(sec, {"exhaustive": bool}, f"{key}.")
            if sec.get("witness") is not None:
                bad = _edge_lists_problem(sec["witness"], m)
                if bad:
                    problems.append(f"{key}: witness {bad}")
    else:
        mode = res.get("mode", "find")
        if mode not in _FULKERSON_MODES:
            problems.append(f"mode: expected one of {', '.join(_FULKERSON_MODES)}, got {mode!r}")
        cover = res.get("cover")
        if cover == "budget_exceeded":
            problems += _type_problems(res, {"detail": str})
        elif cover != "none_found":
            bad = _edge_lists_problem(cover, m)
            if bad:
                problems.append(f"cover {bad}")
    return problems


def verify_certificate(cert: object) -> list[str]:
    """Re-check a certificate: rebuild its result from the validated
    witnesses or cover and the face-value claims, with the code that
    wrote it.  An empty list means PASS."""
    if not isinstance(cert, dict):
        return [f"certificate: expected an object, got {type(cert).__name__}"]
    if cert.get("schema") != SCHEMA:
        return [f"unsupported schema {cert.get('schema')!r}"]
    if "error" in cert:  # an error record makes no checkable claims, so holds nothing else
        if cert.keys() != _ERROR_KEYS:
            return [f"error record: expected the keys {sorted(_ERROR_KEYS)}, got {sorted(cert)}"]
        return _type_problems(cert, {"error": str})
    try:
        g = graph_from_payload(cert["graph"])
    except (GraphError, KeyError, TypeError, ValueError) as exc:  # malformed payload
        return [f"graph payload: {exc}"]
    command = cert.get("command")
    if command == "analyze":
        rebuild = _rebuild_analyze
    elif command == "fulkerson":
        rebuild = _rebuild_fulkerson
    else:
        return [f"unknown command {command!r}"]
    problems = _shape_problems(command, cert, g.edge_count)
    if problems:
        return problems
    res = cert["result"]
    # analyze, find and roundtrip refuse a graph with a bridge; checking
    # a given cover on one is a legitimate verify result
    writer = command if command == "analyze" else f"fulkerson {res.get('mode', 'find')}"
    if writer != "fulkerson verify" and not is_bridgeless(g):
        return [f"graph: has a bridge or is disconnected; {writer} writes no result for it"]
    try:
        rebuilt = rebuild(g, res, problems)
    except GraphError as exc:
        return problems + [f"verification error: {exc}"]
    if rebuilt is not None:
        problems += _differences(res, rebuilt)
        if cert["exact"] != result_exact(command, rebuilt):
            problems.append("exact: does not match the rebuilt result")
    return problems
