"""Certificate records: JSON-serializable claims plus cheap re-checks.

A certificate carries the graph itself (edge list + digest), so `verify`
can re-check every structural claim without touching the original input
or re-running any search: witnesses are re-validated, counts recomputed,
flows and covers re-verified.  Search-dependent claims (exhaustiveness,
snark status, oddness) are taken at face value but cross-checked for
internal consistency.
"""

from __future__ import annotations

import hashlib
import json

from .colouring import is_perfect_matching
from .defect_engine import ThreeArray, core_of, coverage, check_girth_bound, DefectResult
from .fano_flow import CharacteristicFlow, characteristic_flow, verify_flow
from .fulkerson import (
    ComplementaryPair,
    FulkersonCover,
    GroupFlow,
    check_complementary,
    complementary_to_flows,
    cover_to_complementary,
    flows_to_cover,
    verify_cover,
    verify_group_flow,
)
from .graph_core import CubicGraph, GraphError, girth, write_edge_list

SCHEMA = "snarkdefect.certificate/1"


def graph_digest(g: CubicGraph) -> str:
    return hashlib.sha256(write_edge_list(g).encode("utf-8")).hexdigest()


def graph_payload(g: CubicGraph) -> dict:
    return {
        "sha256": graph_digest(g),
        "vertices": g.vertex_count,
        "edges": [list(p) for p in g.edges],
    }


def graph_from_payload(d: dict) -> CubicGraph:
    g = CubicGraph(d["vertices"], [tuple(p) for p in d["edges"]])
    if graph_digest(g) != d["sha256"]:
        raise GraphError("graph digest mismatch")
    return g


def matching_json(mm) -> list[int]:
    return sorted(mm)


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


def flow_from_json(g: CubicGraph, d: dict) -> GroupFlow:
    vals = d["values"]
    if len(vals) != g.edge_count:
        raise GraphError("flow value table has the wrong length")
    return GroupFlow(g, frozenset(d["removed"]), tuple(vals))


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

def _check_defect_section(g: CubicGraph, sec: dict, regular: bool, label: str,
                          problems: list[str]) -> ThreeArray | None:
    value = sec.get("value")
    witness = sec.get("witness")
    arr = None
    if witness is not None:
        try:
            arr = array_from_json(witness)
        except GraphError as exc:
            problems.append(f"{label}: bad witness: {exc}")
            return None
        for mm in arr.matchings:
            if not is_perfect_matching(g, mm):
                problems.append(f"{label}: witness member {sorted(mm)} is not a perfect matching")
                return None
        prof = coverage(g, arr)
        if regular and prof.triply:
            problems.append(f"{label}: witness is not regular "
                            f"(edges {sorted(prof.triply)} triply covered)")
        if isinstance(value, int):
            if len(prof.uncovered) != value:
                problems.append(
                    f"{label}: value {value} does not match witness "
                    f"({len(prof.uncovered)} uncovered edges)")
        else:
            problems.append(f"{label}: witness present but value is {value!r}")
    else:
        if isinstance(value, int):
            problems.append(f"{label}: value {value} claimed without witness")
        elif value == "none_found" and not regular:
            problems.append(f"{label}: none_found is only meaningful for regular search")
    return arr


def _verify_analyze(g: CubicGraph, res: dict, problems: list[str]) -> None:
    if "girth" in res and res["girth"] != girth(g):
        problems.append(f"girth: stated {res['girth']}, recomputed {girth(g)}")
    df = res.get("df") or {}
    rdf = res.get("rdf") or {}
    df_arr = _check_defect_section(g, df, False, "df", problems)
    rdf_arr = _check_defect_section(g, rdf, True, "rdf", problems)

    dv, rv = df.get("value"), rdf.get("value")
    if df.get("exhaustive") and rdf.get("exhaustive"):
        if isinstance(dv, int) and isinstance(rv, int) and dv > rv:
            problems.append(f"df {dv} exceeds rdf {rv}")
    if df.get("exhaustive") and isinstance(dv, int):
        if res.get("colourable") is True and dv != 0:
            problems.append("colourable graph with nonzero exact df")
        if res.get("colourable") is False and dv == 0:
            problems.append("uncolourable graph with zero df")
        if res.get("snark") is True and dv < 3:
            problems.append(f"snark with exact df {dv} < 3")
    if res.get("snark") is True and res.get("colourable") is True:
        problems.append("snark flagged colourable")

    core = res.get("core")
    core_w = res.get("core_witness")
    arr = {"rdf": rdf_arr, "df": df_arr, None: None}.get(core_w)
    if core is not None:
        if arr is None:
            problems.append("core stated without a usable witness")
        else:
            actual = core_json(core_of(g, arr))
            if actual != core:
                problems.append("core does not match the witness's recomputed core")

    cf = res.get("characteristic_flow")
    if cf is not None:
        if rdf_arr is None:
            problems.append("characteristic flow stated without a regular witness")
        else:
            flow = characteristic_flow(g, rdf_arr)
            if flow.serialize() != cf:
                problems.append("characteristic flow does not match the rdf witness")
            else:
                chk = verify_flow(g, CharacteristicFlow.deserialize(cf, g.edge_count))
                if not chk:
                    problems.append(f"characteristic flow invalid: {chk.violation}")

    gb = res.get("girth_bound")
    if gb is not None:
        if not (rdf.get("exhaustive") and isinstance(rv, int) and rdf_arr is not None):
            problems.append("girth bound stated without an exact rdf witness")
        else:
            r = DefectResult(rv, rdf_arr, True, True)
            if check_girth_bound(g, r) != gb:
                problems.append("girth bound flag does not match recomputation")


def _verify_fulkerson(g: CubicGraph, res: dict, problems: list[str]) -> None:
    cover_lists = res.get("cover")
    cover = None
    if isinstance(cover_lists, list):
        try:
            cover = FulkersonCover.of(g, [frozenset(x) for x in cover_lists])
            chk = verify_cover(g, cover)
        except GraphError as exc:
            problems.append(f"cover: {exc}")
            return
        stated_ok = res.get("ok", True)
        if bool(chk) != bool(stated_ok):
            problems.append(f"cover check mismatch: stated ok={stated_ok}, got {chk.violation or 'ok'}")
        if not chk and res.get("violation") not in (None, chk.violation):
            problems.append("stated violation does not match recomputation")
        if not chk:
            return

    if res.get("mode") == "roundtrip" and cover is not None:
        pair = cover_to_complementary(cover)
        if [array_json(pair.first), array_json(pair.second)] != res.get("pair"):
            problems.append("complementary pair does not match the cover split")
            return
        err = check_complementary(g, pair.first, pair.second)
        if err:
            problems.append(f"pair not complementary: {err}")
            return
        p1, p2, f1, f2 = complementary_to_flows(g, pair)
        if [sorted(p1), sorted(p2)] != [res.get("p1"), res.get("p2")]:
            problems.append("removed matchings do not match")
        flows = res.get("flows") or []
        if [flow_json(f1), flow_json(f2)] != flows:
            problems.append("flows do not match the pair construction")
        for i, fj in enumerate(flows):
            chk = verify_group_flow(flow_from_json(g, fj))
            if not chk:
                problems.append(f"flow {i + 1} invalid: {chk.violation}")
        rebuilt = flows_to_cover(g, p1, p2, f1, f2)
        if cover_json(rebuilt) != res.get("rebuilt"):
            problems.append("rebuilt cover does not match")
        if sorted(map(sorted, res["rebuilt"])) != sorted(map(sorted, cover_lists)):
            problems.append("roundtrip did not return the original cover")
        if res.get("pass") is not True:
            problems.append("roundtrip pass flag is not true despite consistent stages")


def _edge_lists_problem(x, m: int) -> str | None:
    """Why x is not a list of lists of edge ids below m, or None."""
    if not (isinstance(x, list) and all(
            isinstance(y, list) and all(isinstance(v, int) for v in y) for y in x)):
        return "is not a list of edge-id lists"
    if any(not 0 <= v < m for y in x for v in y):
        return "names an edge the graph does not have"
    return None


def _shape_problems(res: object, m: int) -> list[str]:
    """Parts of a result whose JSON type or edge ids (m edges) are not
    the ones the checks read; such a certificate is reported, not checked."""
    if not isinstance(res, (dict, type(None))):
        return [f"result: expected an object, got {type(res).__name__}"]
    res = res or {}
    problems = []
    for key in ("df", "rdf"):
        sec = res.get(key)
        if sec is None:
            continue
        if not isinstance(sec, dict):
            problems.append(f"{key}: expected an object, got {type(sec).__name__}")
        elif sec.get("witness") is not None:
            bad = _edge_lists_problem(sec["witness"], m)
            if bad:
                problems.append(f"{key}: witness {bad}")
    if isinstance(res.get("cover"), list):
        bad = _edge_lists_problem(res["cover"], m)
        if bad:
            problems.append(f"cover {bad}")
    return problems


def verify_certificate(cert: object) -> list[str]:
    """Re-check a certificate's claims; empty list means PASS."""
    problems: list[str] = []
    if not isinstance(cert, dict):
        return [f"certificate: expected an object, got {type(cert).__name__}"]
    if cert.get("schema") != SCHEMA:
        return [f"unsupported schema {cert.get('schema')!r}"]
    if "error" in cert:
        return []  # an error record makes no checkable claims
    try:
        g = graph_from_payload(cert["graph"])
    except (GraphError, KeyError, TypeError, ValueError) as exc:  # malformed payload
        return [f"graph payload: {exc}"]
    shape = _shape_problems(cert.get("result"), g.edge_count)
    if shape:
        return shape
    res = cert.get("result") or {}
    try:
        if cert.get("command") == "analyze":
            _verify_analyze(g, res, problems)
        elif cert.get("command") == "fulkerson":
            _verify_fulkerson(g, res, problems)
        else:
            problems.append(f"unknown command {cert.get('command')!r}")
    except GraphError as exc:
        problems.append(f"verification error: {exc}")
    return problems
