"""Fulkerson covers and the constructive equivalence with complementary
regular 3-arrays and nowhere-zero Z2 x Z2 flows on matching complements.

The three directions implemented:

  cover -> complementary pair   split the six matchings (canonical order)
                                into two regular 3-arrays; they share a
                                core and have disjoint uncovered sets.
  pair -> two flows             P_i = uncovered(array i); on g - P_i a
                                simply covered edge keeps its member
                                index, a doubly covered edge gets the
                                index of the member it avoids.
  flows -> cover                xi(x) = {phi1(x), phi2(x)+3} off the
                                circuits, {1,2,3}-{phi1(x)} for x in P2,
                                {4,5,6}-{phi2(x)+3} for x in P1; note
                                phi_i exists only off P_i, so x in P2
                                must use phi1 and x in P1 must use phi2.
                                M_i = {x : i in xi(x)}.

Values 1, 2, 3 are the nonzero elements of Z2 x Z2 (XOR arithmetic), as
in the colouring module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colouring import GraphFacts, is_perfect_matching
from .defect_engine import NONE_FOUND, BudgetError, ThreeArray, core_of, coverage
from .fano_flow import FlowCheck
from .graph_core import CubicGraph, GraphError, SizeGateError, bridges, is_bridgeless


@dataclass(frozen=True)
class FulkersonCover:
    """Six perfect matchings covering every edge exactly twice."""

    graph: CubicGraph
    matchings: tuple[frozenset[int], ...]

    @staticmethod
    def of(g: CubicGraph, members) -> "FulkersonCover":
        ms = sorted((frozenset(mm) for mm in members), key=lambda s: tuple(sorted(s)))
        if len(ms) != 6:
            raise GraphError(f"a Fulkerson cover has six members, got {len(ms)}")
        return FulkersonCover(g, tuple(ms))


@dataclass(frozen=True)
class CoverCheck:
    ok: bool
    multiplicities: tuple[int, ...]
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_cover(g: CubicGraph, cover) -> CoverCheck:
    """Check the exactly-twice property; members must be perfect matchings."""
    members = cover.matchings if isinstance(cover, FulkersonCover) else tuple(cover)
    if len(members) != 6:
        raise GraphError(f"expected six matchings, got {len(members)}")
    for idx, mm in enumerate(members):
        if not is_perfect_matching(g, mm):
            raise GraphError(f"cover member {idx} is not a perfect matching")
    mult = [0] * g.edge_count
    for mm in members:
        for e in mm:
            mult[e] += 1
    for e, k in enumerate(mult):
        if k != 2:
            return CoverCheck(False, tuple(mult), f"edge {e} is covered {k} times, expected 2")
    return CoverCheck(True, tuple(mult))


def find_cover(g: CubicGraph, max_matchings: int | None = None,
               max_nodes: int | None = None):
    """First Fulkerson cover in canonical order, or NONE_FOUND.

    Exact multiset search over the lexicographic matching list with
    running-multiplicity pruning; the first member of the result is the
    lexicographically least matching of the cover.  NONE_FOUND means the
    space was exhausted; running out of ``max_nodes`` (or the matching
    cap) raises BudgetError instead, because a truncated search cannot
    certify absence.
    """
    if not is_bridgeless(g):
        raise GraphError("Fulkerson covers are defined for bridgeless graphs")
    matchings, masks, complete = GraphFacts(g).prefix(max_matchings)
    if not complete:
        raise BudgetError(f"more than {max_matchings} perfect matchings")
    m = g.edge_count
    half = g.vertex_count // 2
    full = (1 << m) - 1
    by_edge: list[list[int]] = [[] for _ in range(m)]
    for idx, mm in enumerate(matchings):
        for e in mm:
            by_edge[e].append(idx)

    nodes = 0
    chosen: list[int] = []

    # dfs refers to itself, a cycle that only the cyclic collector frees, so
    # what it captures outlives the call: keep the matching list out of it
    def dfs(start: int, m1: int, m2: int) -> tuple[int, ...] | None:
        nonlocal nodes
        rem = 6 - len(chosen)
        if rem == 0:
            return tuple(chosen) if m2 == full else None
        m0_bits = m - (m1.bit_count() + m2.bit_count())
        if m1.bit_count() + 2 * m0_bits > rem * half:
            return None
        # an edge whose remaining need equals the remaining picks pins
        # every later member; branch on the lowest such edge if any
        tight = -1
        if m0_bits and rem == 2:
            tight = ((full & ~(m1 | m2)) & -(full & ~(m1 | m2))).bit_length() - 1
        elif m1 and rem == 1:
            tight = (m1 & -m1).bit_length() - 1
        candidates = by_edge[tight] if tight >= 0 else range(start, len(masks))
        for idx in candidates:
            if idx < start:
                continue
            mask = masks[idx]
            if mask & m2:
                continue
            if max_nodes is not None and nodes >= max_nodes:
                raise BudgetError(f"cover search exceeded {max_nodes} nodes")
            nodes += 1
            chosen.append(idx)
            new_m2 = m2 | (mask & m1)
            new_m1 = (m1 | mask) & ~new_m2
            got = dfs(idx, new_m1, new_m2)
            chosen.pop()
            if got is not None:
                return got
        return None

    found = dfs(0, 0, 0)
    if found is None:
        return NONE_FOUND
    return FulkersonCover.of(g, [matchings[i] for i in found])


# ---------------------------------------------------------------------------
# cover <-> complementary pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplementaryPair:
    """Two regular 3-arrays with equal cores and disjoint uncovered sets."""

    graph: CubicGraph
    first: ThreeArray
    second: ThreeArray


def check_complementary(g: CubicGraph, a: ThreeArray, b: ThreeArray) -> str | None:
    """None when complementary, else a message for the first failure."""
    if not a.is_regular:
        return "first array is not regular"
    if not b.is_regular:
        return "second array is not regular"
    ca, cb = core_of(g, a), core_of(g, b)
    if ca.edges != cb.edges:
        return "cores differ"
    if ca.uncovered & cb.uncovered:
        return f"uncovered sets intersect in {sorted(ca.uncovered & cb.uncovered)}"
    return None


def cover_to_complementary(cover: FulkersonCover) -> ComplementaryPair:
    """Split a verified cover into two complementary regular 3-arrays.

    Any split works; this takes the first and last three members under
    the cover's canonical order.
    """
    g = cover.graph
    chk = verify_cover(g, cover)
    if not chk:
        raise GraphError(f"invalid cover: {chk.violation}")
    a = ThreeArray.of(*cover.matchings[:3])
    b = ThreeArray.of(*cover.matchings[3:])
    err = check_complementary(g, a, b)
    assert err is None, f"cover split is not complementary: {err}"
    return ComplementaryPair(g, a, b)


# ---------------------------------------------------------------------------
# group-valued flows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupFlow:
    """Nowhere-zero Z2 x Z2 values on the edges of g minus `removed`."""

    graph: CubicGraph
    removed: frozenset[int]
    values: tuple[int | None, ...]  # index e; None exactly on removed edges

    def value(self, e: int) -> int:
        v = self.values[e]
        if v is None:
            raise KeyError(f"edge {e} is not in the flow's subgraph")
        return v


def verify_group_flow(flow: GroupFlow) -> FlowCheck:
    """Nowhere-zero on present edges and XOR-Kirchhoff at every vertex."""
    g = flow.graph
    if len(flow.values) != g.edge_count:
        return FlowCheck(False, "value table length mismatch")
    for e in range(g.edge_count):
        v = flow.values[e]
        if e in flow.removed:
            if v is not None:
                return FlowCheck(False, f"removed edge {e} carries a value")
        elif v not in (1, 2, 3):
            return FlowCheck(False, f"edge {e} carries {v!r}, expected 1, 2, or 3")
    for vtx in range(g.vertex_count):
        acc = 0
        for e, _ in g.incident_ends(vtx):
            if e not in flow.removed:
                acc ^= flow.values[e]
        if acc:
            return FlowCheck(False, f"vertex {vtx}: values sum to {acc}, expected 0")
    return FlowCheck(True)


def complementary_to_flows(g: CubicGraph, pair: ComplementaryPair):
    """(P1, P2, phi1, phi2) from a complementary pair.

    P_i is array i's uncovered set; phi_i lives on g - P_i and assigns a
    simply covered edge the index of its member, a doubly covered edge
    the index of the member avoiding it.
    """
    err = check_complementary(g, pair.first, pair.second)
    if err:
        raise GraphError(f"invalid complementary pair: {err}")
    removals = []
    flows = []
    for arr in (pair.first, pair.second):
        prof = coverage(g, arr)
        p = prof.uncovered
        vals: list[int | None] = []
        for e in range(g.edge_count):
            if e in p:
                vals.append(None)
                continue
            members = [i for i in (1, 2, 3) if e in arr.matchings[i - 1]]
            if len(members) == 1:
                vals.append(members[0])
            else:  # doubly covered: the member it avoids
                vals.append(6 - members[0] - members[1])
        flow = GroupFlow(g, p, tuple(vals))
        chk = verify_group_flow(flow)
        assert chk, f"constructed flow invalid: {chk.violation}"
        removals.append(p)
        flows.append(flow)
    return removals[0], removals[1], flows[0], flows[1]


def flows_to_cover(g: CubicGraph, p1: frozenset[int], p2: frozenset[int],
                   phi1: GroupFlow, phi2: GroupFlow) -> FulkersonCover:
    """Rebuild a cover from two matchings and flows on their complements.

    xi maps each edge to a 2-subset of {1..6}; at every vertex the three
    subsets must partition {1..6} (checked; a failure means the inputs
    violate the preconditions or there is a construction bug).
    """
    p1, p2 = frozenset(p1), frozenset(p2)
    if p1 & p2:
        raise GraphError(f"P1 and P2 share edges {sorted(p1 & p2)}")
    touched = [0] * g.vertex_count
    for p in (p1, p2):
        seen = [0] * g.vertex_count
        for e in p:
            a, b = g.endpoints(e)
            if a == b:
                raise GraphError(f"edge {e} is a loop, not a matching edge")
            seen[a] += 1
            seen[b] += 1
        if any(k > 1 for k in seen):
            raise GraphError("P1/P2 is not a matching")
        for v in range(g.vertex_count):
            touched[v] += seen[v]
    if any(k == 1 for k in touched):
        raise GraphError("P1 union P2 is not a disjoint union of circuits")
    for flow, p in ((phi1, p1), (phi2, p2)):
        if flow.removed != p:
            raise GraphError("flow domain does not match its matching")
        chk = verify_group_flow(flow)
        if not chk:
            raise GraphError(f"flow fails verification: {chk.violation}")

    xi: list[frozenset[int]] = []
    for e in range(g.edge_count):
        if e in p2:
            xi.append(frozenset({1, 2, 3} - {phi1.value(e)}))
        elif e in p1:
            xi.append(frozenset({4, 5, 6} - {phi2.value(e) + 3}))
        else:
            xi.append(frozenset({phi1.value(e), phi2.value(e) + 3}))
    for v in range(g.vertex_count):
        labels = [xi[e] for e, _ in g.incident_ends(v)]
        union = labels[0] | labels[1] | labels[2]
        if len(union) != 6:
            raise GraphError(
                f"vertex partition failure at {v}: {sorted(map(sorted, labels))}")
    members = [frozenset(e for e in range(g.edge_count) if i in xi[e]) for i in range(1, 7)]
    cover = FulkersonCover.of(g, members)
    chk = verify_cover(g, cover)
    assert chk, f"reconstructed cover invalid: {chk.violation}"
    return cover


# ---------------------------------------------------------------------------
# nowhere-zero Z2 x Z2 flows by cycle-space search
# ---------------------------------------------------------------------------

def nz_4flow(g: CubicGraph, removed=(), max_dimension: int = 24) -> GroupFlow | None:
    """Search g minus `removed` for a nowhere-zero Z2 x Z2 flow.

    A flow is a pair of even subgraphs (S1, S2) covering every present
    edge; S1 runs over the cycle space in ascending basis-coefficient
    order, and for each S1 a valid S2 exists iff every component of
    (V, S1) contains an even number of odd-degree vertices.  The first
    hit is returned, so results are deterministic.  Bridges in the
    subgraph are rejected up front (no nowhere-zero flow can exist).
    """
    removed = frozenset(removed)
    for e in removed:
        if not 0 <= e < g.edge_count:
            raise GraphError(f"removed edge {e} out of range")
    bad = bridges(g, removed)
    if bad:
        raise GraphError(f"subgraph has bridges {bad}; no nowhere-zero flow exists")

    n = g.vertex_count
    present = [e for e in range(g.edge_count) if e not in removed]

    # spanning forest; fundamental cycles of the non-tree edges
    parent_edge = [-1] * n
    parent_vtx = [-1] * n
    depth = [0] * n
    visited = [False] * n
    tree: set[int] = set()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in present:
        a, b = g.endpoints(e)
        adj[a].append((b, e))
        adj[b].append((a, e))
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for w, e in adj[u]:
                if not visited[w]:
                    visited[w] = True
                    parent_edge[w] = e
                    parent_vtx[w] = u
                    depth[w] = depth[u] + 1
                    tree.add(e)
                    queue.append(w)

    nontree = [e for e in present if e not in tree]
    d = len(nontree)
    if d > max_dimension:
        raise SizeGateError(f"cycle space dimension {d} exceeds the gate ({max_dimension})")

    def fundamental_cycle(e: int) -> int:
        a, b = g.endpoints(e)
        mask = 1 << e
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            mask ^= 1 << parent_edge[a]
            a = parent_vtx[a]
        return mask

    cycles = [fundamental_cycle(e) for e in nontree]
    odd = [False] * n
    for e in present:
        a, b = g.endpoints(e)
        if a != b:
            odd[a] = not odd[a]
            odd[b] = not odd[b]

    ends = g.endpoints

    def try_s1(s1: int) -> GroupFlow | None:
        # components of (V, S1) must each hold an even number of odd vertices
        nbr: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e in present:
            if s1 >> e & 1:
                a, b = ends(e)
                nbr[a].append((b, e))
                nbr[b].append((a, e))
        comp = [-1] * n
        order: list[int] = []
        pe = [-1] * n
        pv = [-1] * n
        for root in range(n):
            if comp[root] != -1:
                continue
            total_odd = odd[root]
            comp[root] = root
            stack = [root]
            members = [root]
            while stack:
                u = stack.pop()
                for w, e in nbr[u]:
                    if comp[w] == -1:
                        comp[w] = root
                        pe[w] = e
                        pv[w] = u
                        total_odd ^= odd[w]
                        stack.append(w)
                        members.append(w)
            if total_odd:
                return None
            order.extend(members)
        # fix parities along each component's spanning tree, leaves inward
        need = list(odd)
        y_mask = 0
        for u in reversed(order):
            if pe[u] != -1 and need[u]:
                y_mask ^= 1 << pe[u]
                need[u] = False
                need[pv[u]] = not need[pv[u]]
        assert not any(need), "parity fix-up left an odd root"
        s2 = y_mask
        for e in present:
            if not (s1 >> e & 1):
                s2 |= 1 << e
        vals: list[int | None] = [None] * g.edge_count
        for e in present:
            a = s1 >> e & 1
            b = s2 >> e & 1
            vals[e] = 2 * a + b
        flow = GroupFlow(g, removed, tuple(vals))
        chk = verify_group_flow(flow)
        assert chk, f"cycle-space construction failed: {chk.violation}"
        return flow

    result: GroupFlow | None = None

    def rec(t: int, mask: int) -> bool:
        nonlocal result
        if t < 0:
            result = try_s1(mask)
            return result is not None
        if rec(t - 1, mask):
            return True
        return rec(t - 1, mask ^ cycles[t])

    rec(d - 1, 0)
    return result
