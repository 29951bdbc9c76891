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

from .colouring import GraphFacts, edge_set
from .defect_engine import (NONE_FOUND, BudgetError, ThreeArray, _canonical_order,
                            _member_multiplicities, coverage)
from .fano_flow import FlowCheck
from .graph_core import CubicGraph, GraphError, SizeGateError, _check_budget, _check_index, bridges


@dataclass(frozen=True)
class FulkersonCover:
    """Six perfect matchings covering every edge exactly twice."""

    graph: CubicGraph
    matchings: tuple[frozenset[int], ...]

    @staticmethod
    def of(g: CubicGraph, members) -> "FulkersonCover":
        ms = _canonical_order(members)
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
    mult = _member_multiplicities(g, members, "cover")
    for e, k in enumerate(mult):
        if k != 2:
            return CoverCheck(False, tuple(mult), f"edge {e} is covered {k} times, expected 2")
    return CoverCheck(True, tuple(mult))


def find_cover(g: CubicGraph, max_matchings: int | None = None,
               max_nodes: int | None = None):
    """First Fulkerson cover in canonical order, or NONE_FOUND.

    Exact multiset search over the lexicographic matching list: the
    result is the least non-decreasing 6-tuple of matching indices that
    covers every edge twice, so its first member is the lexicographically
    least matching of the cover.  The first four members are searched on
    bitsets of candidate indices (those at or after the last pick that
    avoid every doubly covered edge), and a candidate ends its level once
    some edge still short of two covers lies in no matching at or after
    it.  A candidate is skipped, not placed, when after it some edge
    still short of two covers lies in none of the candidates it leaves.
    The skip keeps the result: on the branch of the least cover
    j1 <= ... <= j6, every member after the pick at j_k, the closing
    pair included, is at or after j_k and avoids every doubly covered
    edge, so it is one of the candidates left and the skip never cuts
    that branch; earlier branches give no cover without the skip, so
    none with it.

    The last two members are counted, not searched.  With ``m0`` the
    uncovered edges and ``need`` the edges not yet covered twice, take
    any candidate ``a`` holding all of ``m0``.  After it each edge is
    covered once or twice and each vertex meets five members, so one
    edge at each vertex is covered once: those edges, ``b = (need ^ a) |
    m0``, are a perfect matching that closes the cover.  So the first
    such ``a`` closes, and a level with none fails.

    One node of ``max_nodes`` is one member placed: each of the first
    four picks that is not skipped, the closing ``a`` and its ``b``.  A
    node costs polynomial work (bitset updates).
    NONE_FOUND means the space was exhausted; running out of
    ``max_nodes`` (or the matching cap) raises BudgetError instead,
    because a truncated search cannot certify absence.  A negative
    ``max_nodes``, or one that is not an int, is an input error.
    """
    facts = GraphFacts(g, max_matchings)
    if not facts.bridgeless:
        raise GraphError("Fulkerson covers are defined for bridgeless graphs")
    _check_budget("max_nodes", max_nodes, 0)
    masks, complete = facts.prefix()
    if not complete:
        raise BudgetError(f"more than {max_matchings} perfect matchings")
    m = g.edge_count
    full = (1 << m) - 1
    # has[e]: bitset of the matchings holding e.  Row i of ``rows`` is
    # the m-bit string of masks[-1 - i], so column e, read top down, is
    # bit e of every mask, last matching first: has[e] in binary
    rows = "".join(format(mask, f"0{m}b") for mask in reversed(masks))
    has = [int(rows[m - 1 - e::m], 2) for e in range(m)] if rows else [0] * m
    suffix = [0] * (len(masks) + 1)  # suffix[i]: union of masks[i:]
    for idx in range(len(masks) - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] | masks[idx]

    nodes = 0
    chosen: list[int] = []

    def place() -> None:
        nonlocal nodes
        if max_nodes is not None and nodes >= max_nodes:
            raise BudgetError(f"cover search exceeded {max_nodes} nodes")
        nodes += 1

    # dfs refers to itself through its closure cell; the del below empties
    # the cell, so no reference cycle keeps has and suffix alive
    def dfs(allowed: int, m1: int, m2: int) -> tuple[int, ...] | None:
        need = full & ~m2
        if len(chosen) == 4:
            m0 = need & ~m1
            rest = m0
            while rest:  # a holds every uncovered edge
                low = rest & -rest
                allowed &= has[low.bit_length() - 1]
                rest ^= low
            if not allowed:
                return None
            a = masks[(allowed & -allowed).bit_length() - 1]
            place()
            place()
            return (*chosen, a, (need ^ a) | m0)
        while allowed:
            low = allowed & -allowed
            idx = low.bit_length() - 1
            if need & ~suffix[idx]:
                break  # no member from idx on covers some needed edge
            mask = masks[idx]
            doubled = mask & m1
            child = allowed
            rest = doubled
            while rest:
                bit = rest & -rest
                child &= ~has[bit.bit_length() - 1]
                rest ^= bit
            rest = need & ~doubled
            while rest:
                bit = rest & -rest
                if not has[bit.bit_length() - 1] & child:
                    break  # an edge short of two covers has no candidate
                rest ^= bit
            else:
                place()
                chosen.append(mask)
                got = dfs(child, (m1 | mask) & ~doubled, m2 | doubled)
                chosen.pop()
                if got is not None:
                    return got
            allowed ^= low
        return None

    try:
        found = dfs((1 << len(masks)) - 1, 0, 0)
    finally:
        del dfs, place
    if found is None:
        return NONE_FOUND
    return FulkersonCover.of(g, [edge_set(mask) for mask in found])


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
    """None when complementary, else a message for the first failure;
    the core of a regular array is its edges not covered exactly once."""
    if not a.is_regular:
        return "first array is not regular"
    if not b.is_regular:
        return "second array is not regular"
    pa, pb = coverage(g, a), coverage(g, b)
    if pa.uncovered | pa.doubly != pb.uncovered | pb.doubly:
        return "cores differ"
    if pa.uncovered & pb.uncovered:
        return f"uncovered sets intersect in {sorted(pa.uncovered & pb.uncovered)}"
    return None


def cover_to_complementary(cover: FulkersonCover) -> ComplementaryPair:
    """Split a verified cover into two complementary regular 3-arrays.

    Any split works; this takes the first and last three members under
    the cover's canonical order.  An edge in k of the first three is in
    2 - k of the last three, so both are regular, share the core (k != 1)
    and have disjoint uncovered sets (k = 0 and k = 2): no check needed.
    """
    g = cover.graph
    chk = verify_cover(g, cover)
    if not chk:
        raise GraphError(f"invalid cover: {chk.violation}")
    a = ThreeArray.of(*cover.matchings[:3])
    b = ThreeArray.of(*cover.matchings[3:])
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
    for e, v in enumerate(flow.values):
        if e in flow.removed:
            if v is not None:
                return FlowCheck(False, f"removed edge {e} carries a value")
        elif v not in (1, 2, 3):
            return FlowCheck(False, f"edge {e} carries {v!r}, expected 1, 2, or 3")
    for vtx in range(g.vertex_count):
        acc = 0
        for _, e in g.arcs(vtx):
            if e not in flow.removed:
                acc ^= flow.values[e]
        if acc:
            return FlowCheck(False, f"vertex {vtx}: values sum to {acc}, expected 0")
    return FlowCheck(True)


def complementary_to_flows(g: CubicGraph, pair: ComplementaryPair):
    """(P1, P2, phi1, phi2) from a complementary pair.

    P_i is array i's uncovered set; phi_i lives on g - P_i and assigns a
    simply covered edge the index of its member, a doubly covered edge
    the index of the member avoiding it: the image of array i's
    characteristic flow under the linear map e_j -> j from Z2^3 onto
    Z2 x Z2, whose kernel {000, 111} holds no value off P_i (the array
    is regular), so phi_i is a nowhere-zero flow without a check.
    """
    err = check_complementary(g, pair.first, pair.second)
    if err:
        raise GraphError(f"invalid complementary pair: {err}")
    flows = []
    for arr in (pair.first, pair.second):
        # XOR of the indices of the members holding e, which is that of
        # the members avoiding e, since 1 ^ 2 ^ 3 = 0
        vals = [0] * g.edge_count
        for i, mm in enumerate(arr.matchings, start=1):
            for e in mm:
                vals[e] ^= i
        p = frozenset(e for e, v in enumerate(vals) if v == 0)
        flows.append(GroupFlow(g, p, tuple(v or None for v in vals)))
    return flows[0].removed, flows[1].removed, flows[0], flows[1]


def flows_to_cover(g: CubicGraph, p1: frozenset[int], p2: frozenset[int],
                   phi1: GroupFlow, phi2: GroupFlow) -> FulkersonCover:
    """Rebuild a cover from two matchings and flows on their complements.

    Checked: P1 and P2 are disjoint matchings of edge ids of g, without
    loops, that meet the same vertices, and phi_i is a verified flow on
    g - P_i.  Then the labels xi(x) at each vertex partition {1..6}, so
    each M_i is a perfect matching and every edge is in two members:

    - at a vertex P1 and P2 miss, each flow XORs three nonzero values to
      zero (a loop there would leave zero on the third edge), so it
      gives the three edges 1, 2 and 3: the labels are {a, b+3} over
      three distinct a and three distinct b;
    - at a vertex P1 and P2 meet, in p1 and p2, with third edge f,
      Kirchhoff gives phi1(p2) = phi1(f) = a and phi2(p1) = phi2(f) = b:
      the labels are {1,2,3}-{a}, {4,5,6}-{b+3} and {a, b+3}.
    """
    p1, p2 = frozenset(p1), frozenset(p2)
    if p1 & p2:
        raise GraphError(f"P1 and P2 share edges {sorted(p1 & p2)}")
    met = []
    for p in (p1, p2):
        ends: list[int] = []
        for e in p:
            _check_index("P1/P2 edge", e, g.edge_count)
            a, b = g.endpoints(e)
            if a == b:
                raise GraphError(f"edge {e} is a loop, not a matching edge")
            ends += a, b
        met.append(set(ends))
        if len(met[-1]) < len(ends):
            raise GraphError("P1/P2 is not a matching")
    if met[0] != met[1]:
        raise GraphError("P1 union P2 is not a disjoint union of circuits")
    for flow, p in ((phi1, p1), (phi2, p2)):
        if flow.graph != g or flow.removed != p:
            raise GraphError("flow domain does not match its matching")
        chk = verify_group_flow(flow)
        if not chk:
            raise GraphError(f"flow fails verification: {chk.violation}")

    xi = [{1, 2, 3} - {phi1.value(e)} if e in p2
          else {4, 5, 6} - {phi2.value(e) + 3} if e in p1
          else {phi1.value(e), phi2.value(e) + 3} for e in range(g.edge_count)]
    members = [frozenset(e for e in range(g.edge_count) if i in xi[e]) for i in range(1, 7)]
    return FulkersonCover.of(g, members)


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

    The flow built for a hit is valid without a re-check.  S1 is even,
    as a sum of circuits.  Each component of (V, S1) holds an even
    number of odd vertices, so the fix-up along its spanning tree, leaves
    inward, leaves the root even and gives a set y of S1 edges with odd
    degree exactly at the odd vertices.  Then S2 = y + (present - S1) is
    even, and every present edge lies in S1 or S2, so its value
    2*[e in S1] + [e in S2] is nonzero and both coordinates XOR to zero
    at every vertex.
    """
    removed = frozenset(removed)
    for e in removed:
        _check_index("removed edge", e, g.edge_count)
    bad = bridges(g, removed)
    if bad:
        raise GraphError(f"subgraph has bridges {bad}; no nowhere-zero flow exists")

    n = g.vertex_count
    present = [e for e in range(g.edge_count) if e not in removed]

    # spanning forest, as its arcs u -> w in search order; the cycle space
    # dimension d is gated before any circuit is built
    tree: list[tuple[int, int, int]] = []
    visited = [False] * n
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        queue = [root]
        for u in queue:
            for w, e in g.arcs(u):
                if e not in removed and not visited[w]:
                    visited[w] = True
                    tree.append((u, w, e))
                    queue.append(w)
    nontree = sorted(set(present) - {e for _, _, e in tree})
    d = len(nontree)
    if d > max_dimension:
        raise SizeGateError(f"cycle space dimension {d} exceeds the gate ({max_dimension})")

    # circuit t, of the non-tree edge ab, holds the tree edges with exactly
    # one of a, b below them.  below[] marks a and b with bit t and sums
    # each subtree's marks, leaves inward; bit t of below[w] is then set
    # iff the tree edge into w is on circuit t (a loop's two marks cancel)
    cycles = [1 << e for e in nontree]
    below = [0] * n
    for t, e in enumerate(nontree):
        for v in g.endpoints(e):
            below[v] ^= 1 << t
    for u, w, e in reversed(tree):
        below[u] ^= below[w]
        for t in range(d):
            if below[w] >> t & 1:
                cycles[t] |= 1 << e
    odd = [sum(e not in removed for _, e in g.arcs(v)) % 2 for v in range(n)]
    present_mask = sum(1 << e for e in present)

    def try_s1(s1: int) -> GroupFlow | None:
        # components of (V, S1) must each hold an even number of odd vertices
        comp = [-1] * n
        arcs: list[tuple[int, int, int]] = []  # the components' tree arcs, in search order
        for root in range(n):
            if comp[root] != -1:
                continue
            total_odd = odd[root]
            comp[root] = root
            stack = [root]
            while stack:
                u = stack.pop()
                for w, e in g.arcs(u):
                    if s1 >> e & 1 and comp[w] == -1:
                        comp[w] = root
                        arcs.append((u, w, e))
                        total_odd ^= odd[w]
                        stack.append(w)
            if total_odd:
                return None
        # fix parities along each component's spanning tree, leaves inward
        need = list(odd)
        y_mask = 0
        for u, w, e in reversed(arcs):
            if need[w]:
                y_mask ^= 1 << e
                need[u] = not need[u]
        s2 = y_mask | present_mask & ~s1
        # a removed edge lies in neither set: value 0, stored as None
        return GroupFlow(g, removed, tuple(2 * (s1 >> e & 1) + (s2 >> e & 1) or None
                                          for e in range(g.edge_count)))

    # bit t of coeffs selects cycles[t], so S1 runs in ascending order of
    # its coefficient vector read with cycles[d - 1] as the top bit
    for coeffs in range(1 << d):
        s1 = 0
        for t in range(d):
            if coeffs >> t & 1:
                s1 ^= cycles[t]
        flow = try_s1(s1)
        if flow is not None:
            return flow
    return None
