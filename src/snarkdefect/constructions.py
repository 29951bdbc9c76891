"""Generators and transformations: named graphs, triangle inflation,
removability scans, path-removal multipoles, and superposition.

Vertex labels are stable and documented per generator; transformation
outputs keep the input's edge ids where edges survive, so arrays and
covers computed before a transformation can be compared after it.
"""

from __future__ import annotations

from .colouring import three_edge_colour, warn_if_not_snark
from .defect_engine import ThreeArray, core_of
from .graph_core import (
    CubicGraph,
    EndRef,
    GraphError,
    Multipole,
    WiringSpec,
    _check_index,
    junction,
    remove_vertices,
)


def petersen() -> CubicGraph:
    """The Petersen graph: outer 5-circuit 0-4, inner pentagram 5-9,
    spokes i -- i+5.  Edges sorted by endpoint pair."""
    eps = [(i, (i + 1) % 5) for i in range(5)]
    eps += [(i, i + 5) for i in range(5)]
    eps += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    eps = sorted(tuple(sorted(p)) for p in eps)
    return CubicGraph(10, eps)


def flower_snark(n: int) -> CubicGraph:
    """Isaacs' flower graph J_n for odd n >= 3.

    Labels: hubs 0..n-1; inner circuit vertices n+i; the outer 2n-circuit
    runs 2n+0 .. 2n+(n-1), 3n+0 .. 3n+(n-1) and closes up.  Hub i joins
    n+i, 2n+i and 3n+i.
    """
    if type(n) is not int or n < 3 or n % 2 == 0:
        raise GraphError(f"flower graphs need odd n >= 3, got {n!r}")
    eps = []
    for i in range(n):
        eps += [(i, n + i), (i, 2 * n + i), (i, 3 * n + i)]
        eps.append((n + i, n + (i + 1) % n))
    for i in range(n - 1):
        eps += [(2 * n + i, 2 * n + i + 1), (3 * n + i, 3 * n + i + 1)]
    eps += [(3 * n - 1, 3 * n), (4 * n - 1, 2 * n)]
    eps = sorted(tuple(sorted(p)) for p in eps)
    return CubicGraph(4 * n, eps)


def inflate_to_triangle(g: CubicGraph, v: int) -> CubicGraph:
    """Replace vertex v by a triangle on {v, n, n+1}.

    The three former edge-ends of v reattach in ascending (edge, end)
    order: lowest stays on v, next goes to n, last to n+1.  Existing
    edge ids are unchanged; the triangle edges (v,n), (v,n+1), (n,n+1)
    are appended in that order.
    """
    _check_index("vertex", v, g.vertex_count)
    slots = g.incident_ends(v)
    if len({e for e, _ in slots}) != 3:
        raise GraphError(f"vertex {v} carries a loop; inflation is undefined")
    n = g.vertex_count
    eps = [list(p) for p in g.edges]
    for target, (e, end) in zip((v, n, n + 1), slots):
        eps[e][end] = target
    eps += [[v, n], [v, n + 1], [n, n + 1]]
    return CubicGraph(n + 2, [tuple(p) for p in eps])


def _removal_colourable(g: CubicGraph, vs) -> bool:
    pole, _, _ = remove_vertices(g, vs)
    return three_edge_colour(pole) is not None


def find_non_removable_pairs(g: CubicGraph) -> list[tuple[int, int]]:
    """Adjacent pairs {u,v} whose deletion (dangling ends kept) leaves a
    3-edge-colourable multipole.  Output sorted; loops never qualify."""
    warn_if_not_snark(g, "non-removable pair scan")
    pairs = sorted({(min(a, b), max(a, b)) for a, b in g.edges if a != b})
    return [p for p in pairs if _removal_colourable(g, p)]


def five_circuits(g: CubicGraph) -> list[tuple[int, ...]]:
    """All 5-circuits as vertex tuples, least vertex first, lesser
    neighbour second; sorted."""
    n = g.vertex_count
    nbrs = [{w for w, _ in g.arcs(v)} - {v} for v in range(n)]
    out = []
    for v0 in range(n):
        # paths of 5 distinct vertices: v0, then four above it
        paths = [(v0,)]
        for _ in range(4):
            paths = [p + (w,) for p in paths for w in nbrs[p[-1]] if w > v0 and w not in p]
        out += (p for p in paths if v0 in nbrs[p[-1]] and p[1] < p[-1])
    return sorted(out)


def find_non_removable_5cycles(g: CubicGraph) -> list[tuple[int, ...]]:
    """5-circuits whose vertex deletion (dangling ends kept) leaves a
    3-edge-colourable multipole."""
    return [c for c in five_circuits(g) if _removal_colourable(g, c)]


def inflate_pair_theorem_check(g: CubicGraph, u: int, v: int) -> tuple[CubicGraph, ThreeArray]:
    """Inflate both endpoints of a non-removable adjacent pair and build
    the explicit 3-array witnessing a defect of at most 4.

    A colouring of g - {u,v} forces equal colours on the two ends left
    dangling at u (and likewise at v) -- otherwise recolouring the u-v
    edge would 3-edge-colour g.  Each matching of the array contains the
    surviving u-v edge; the colour-alpha matching picks up u's two
    reattached edges, the other two pick up the triangle edge opposite
    the u-v attachment corner.  The resulting core is one triply covered
    edge, its four neighbours uncovered, and two doubly covered edges
    (checked before returning).
    """
    warn_if_not_snark(g, "pair inflation")
    star = [e for e, (a, b) in enumerate(g.edges) if {a, b} == {u, v}]
    if not star:
        raise GraphError(f"{u} and {v} are not adjacent")
    e_uv = star[0]
    pole, _, emap = remove_vertices(g, (u, v))
    sigma = three_edge_colour(pole)
    if sigma is None:
        raise GraphError(f"pair ({u}, {v}) is not non-removable: no colouring of the remainder")
    colour_of = {e: sigma[ne] for e, ne in emap.items()}

    side_colour = {}
    for w in (u, v):
        hanging = [e for _, e in g.arcs(w) if e != e_uv]
        a, b = (colour_of[x] for x in hanging)
        if a != b:
            raise GraphError(
                f"colouring gives unequal ends {a}, {b} at vertex {w}; "
                "this cannot happen when g is uncolourable")
        side_colour[w] = a

    m = g.edge_count
    gg = inflate_to_triangle(inflate_to_triangle(g, u), v)
    tri_u = range(m, m + 3)
    tri_v = range(m + 3, m + 6)
    eu, ev = gg.endpoints(e_uv)
    corner_u, corner_v = (eu, ev) if eu in {u, g.vertex_count, g.vertex_count + 1} else (ev, eu)
    opp_u = next(e for e in tri_u if corner_u not in gg.endpoints(e))
    opp_v = next(e for e in tri_v if corner_v not in gg.endpoints(e))

    matchings = []
    for t in (1, 2, 3):
        mt = {e_uv} | {e for e, c in colour_of.items() if c == t}
        if t != side_colour[u]:
            mt.add(opp_u)
        if t != side_colour[v]:
            mt.add(opp_v)
        matchings.append(frozenset(mt))
    witness = ThreeArray.of(*matchings)
    core = core_of(gg, witness)
    pattern = (len(core.triply), len(core.uncovered), len(core.doubly))
    assert pattern == (1, 4, 2), f"unexpected core pattern {pattern}"
    assert core.triply == {e_uv}
    return gg, witness


def z_pole() -> Multipole:
    """The trivalent (3,3,1)-pole of order 1: one vertex with three
    dangling edges (0,1,2) plus two isolated edges (3,4).  Connector a
    holds edge 0's free end and one end of each isolated edge, b holds
    edge 1's free end and the other isolated ends, c holds edge 2's."""
    eps = [(0, None), (0, None), (0, None), (None, None), (None, None)]
    conns = [
        ("a", [(0, 1), (3, 0), (4, 0)]),
        ("b", [(1, 1), (3, 1), (4, 1)]),
        ("c", [(2, 1)]),
    ]
    return Multipole(1, eps, conns)


def remove_path2(g: CubicGraph, path) -> Multipole:
    """Delete the three vertices of a 2-edge path u-w-x, keeping the
    severed ends as free ends (a 5-pole when g is triangle-free)."""
    u, w, x = path
    if len({u, w, x}) != 3:
        raise GraphError(f"path vertices must be distinct, got {path}")
    adj = {frozenset(p) for p in g.edges if p[0] != p[1]}
    if frozenset((u, w)) not in adj or frozenset((w, x)) not in adj:
        raise GraphError(f"{u}-{w}-{x} is not a path in the graph")
    pole, _, _ = remove_vertices(g, (u, w, x))
    return pole


# ---------------------------------------------------------------------------
# superposition
# ---------------------------------------------------------------------------

def trivial_tripole() -> Multipole:
    """One vertex, three dangling edges; connectors r0, r1, r2 carry the
    free end of edges 0, 1, 2.  Stands in for an unsubstituted vertex."""
    eps = [(0, None), (0, None), (0, None)]
    return Multipole(1, eps, [("r0", [(0, 1)]), ("r1", [(1, 1)]), ("r2", [(2, 1)])])


def trivial_dipole() -> Multipole:
    """A single isolated edge; connectors a, b are its two ends.  Stands
    in for an unsubstituted edge."""
    return Multipole(0, [(None, None)], [("a", [(0, 0)]), ("b", [(0, 1)])])


def identity_wiring(base: CubicGraph) -> WiringSpec:
    """The wiring that reassembles `base` from all-trivial parts.

    Part p < n is vertex p's tripole, part n+e is edge e's dipole.  Edge
    e = (x, y) wires its a-end to x and its b-end to y; on the vertex
    side, connector rk serves the k-th of the vertex's (edge, end) slots
    in ascending order.  Substituted parts can reuse this convention by
    naming connectors the same way.
    """
    n = base.vertex_count
    slot_index = {}
    for vtx in range(n):
        for k, slot in enumerate(base.incident_ends(vtx)):
            slot_index[vtx, slot] = k
    joins = []
    for e, (x, y) in enumerate(base.edges):
        for side, vtx, end in (("a", x, 0), ("b", y, 1)):
            k = slot_index[vtx, (e, end)]
            joins.append((EndRef.conn(n + e, side, 0), EndRef.conn(vtx, f"r{k}", 0)))
    return WiringSpec.of(*joins)


def superpose(base: CubicGraph, vertex_subs: dict | None,
              edge_subs: dict | None, w: WiringSpec) -> CubicGraph:
    """Replace vertices by tripoles and edges by dipoles, then weld all
    free ends as the wiring spec says.

    Unsubstituted vertices and edges get the trivial parts, so `w` must
    wire every part (identity_wiring(base) gives the all-trivial case).
    Parts are indexed vertices-first: vertex v is part v, edge e is part
    n + e.  The result must be a loose-end-free cubic graph; leftover
    free ends or wiring mismatches raise.
    """
    vertex_subs = vertex_subs or {}
    edge_subs = edge_subs or {}
    n, m = base.vertex_count, base.edge_count
    for v, part in vertex_subs.items():
        _check_index("substituted vertex", v, n)
        if len(part.connectors) != 3:
            raise GraphError(f"vertex {v}: a tripole needs 3 connectors, got {len(part.connectors)}")
    for e, part in edge_subs.items():
        _check_index("substituted edge", e, m)
        if len(part.connectors) != 2:
            raise GraphError(f"edge {e}: a dipole needs 2 connectors, got {len(part.connectors)}")
    parts = [vertex_subs.get(v) or trivial_tripole() for v in range(n)]
    parts += [edge_subs.get(e) or trivial_dipole() for e in range(m)]
    merged = junction(parts, w)
    return merged.to_graph()
