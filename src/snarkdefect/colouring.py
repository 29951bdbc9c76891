"""Perfect matchings and 3-edge-colourings of cubic graphs and multipoles.

Colours live in {1, 2, 3}, identified with the nonzero elements of
Z2 x Z2 via 1=(0,1), 2=(1,0), 3=(1,1); the group operation is integer
XOR.  A colouring is valid when the three edge-ends at every vertex
carry colours XORing to zero, which for distinct nonzero values is the
same as being pairwise distinct.  Free ends are unconstrained.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

from .graph_core import CubicGraph, GraphError, Multipole, is_bridgeless

COLOURS = (1, 2, 3)


def _no_room(limit: int | None) -> bool:
    """True when ``limit`` asks for nothing; a negative limit is an error."""
    if limit is not None and limit < 0:
        raise GraphError(f"limit must not be negative, got {limit}")
    return limit == 0


def is_perfect_matching(g: CubicGraph, edges) -> bool:
    """Every vertex covered exactly once by edges of g; loops never
    qualify, nor do ids that are not edges of g (a bool is not an id)."""
    ends = g.edges
    covered: list[int] = []
    for e in edges:
        if not (type(e) is int and 0 <= e < len(ends)):
            return False
        covered += ends[e]
    # n endpoints, all distinct: each vertex once, and no loop
    return len(covered) == g.vertex_count == len(set(covered))


def edge_set(mask: int) -> frozenset[int]:
    """The edge ids of an edge bitmask (bit e set for edge e)."""
    return frozenset(e for e, bit in enumerate(format(mask, "b")[::-1]) if bit == "1")


def enumerate_perfect_matchings(g: CubicGraph, limit: int | None = None) -> list[frozenset[int]]:
    """``perfect_matching_masks`` as edge sets: all perfect matchings,
    sorted lexicographically by sorted edge list, or with ``limit`` the
    search-order prefix of that many, re-sorted."""
    return [edge_set(m) for m in perfect_matching_masks(g, limit)]


def perfect_matching_masks(g: CubicGraph, limit: int | None = None) -> list[int]:
    """All perfect matchings as edge bitmasks (bit e set for edge e),
    sorted lexicographically by sorted edge list.

    Backtracking over the lowest uncovered vertex, trying its edges in
    ``incident_ends`` order; with ``limit`` the search stops after that
    many matchings (the truncated result is then a prefix of the search
    order, re-sorted).

    Forced moves prune the search.  After each choice, look at the
    uncovered neighbours of the two newly covered vertices: one with no
    uncovered partner ends the branch, and one whose only uncovered
    partner is reached by a single edge is matched at once, and the
    check repeats.  This never reorders the matchings: every matching
    below the branch contains the forced edges, so the unpruned search
    takes each of them too when its end becomes the lowest uncovered
    vertex (every other edge there leads to no matching), and it
    branches on the same vertices, with the same edges, in the same
    order.  The pruned subtrees hold no matching, so ``limit`` prefixes
    are unchanged as well.

    The completions of a search state, in search order, depend only on
    its mask of uncovered vertices, so each mask is solved once.  Under
    ``limit`` a state keeps its first ``limit`` completions: the first
    ``limit`` of a concatenation need only the first ``limit`` of each
    part.  Every matching has n/2 edges, so the lexicographic order is
    the descending order of the bit strings read from edge 0.
    """
    n = g.vertex_count
    if _no_room(limit) or n % 2:
        return []
    # per vertex, with loops skipped: the partners as a bitmask, and the
    # partners reached by exactly one edge (partner bit -> edge)
    nbr: list[int] = []
    sole: list[dict[int, int]] = []
    for v in range(n):
        partners = [w for w, _ in g.arcs(v) if w != v]
        nbr.append(sum(1 << w for w in set(partners)))
        sole.append({1 << w: e for w, e in g.arcs(v) if w != v and partners.count(w) == 1})
    try:
        found = _completions((1 << n) - 1, {0: [0]}, limit, g, nbr, sole)
    except RecursionError:
        # one Python level per branching pick; an explicit stack would not
        # help while oddness enumerates every matching whatever the cap
        raise GraphError(f"the matching search on {n} vertices is deeper than "
                         "the interpreter's recursion limit") from None
    width = f"0{g.edge_count}b"
    return sorted(found, key=lambda m: format(m, width)[::-1], reverse=True)


def _completions(free: int, memo: dict[int, list[int]], limit: int | None,
                 g, nbr, sole) -> list[int]:
    """The perfect matchings of the vertices in the bitmask ``free``, as
    edge bitmasks in search order, the first ``limit`` of them; each
    ``free`` is solved once and kept in ``memo``.  A module-level
    function, not a closure, so no reference cycle keeps ``memo`` alive
    after the search."""
    got = memo.get(free)
    if got is not None:
        return got
    v = (free & -free).bit_length() - 1
    others = free ^ 1 << v
    out: list[int] = []
    for w, e in g.arcs(v):
        if not others >> w & 1:
            continue  # a loop, or the partner is already matched
        forced = _force(others ^ 1 << w, [v, w], nbr, sole)
        if forced is None:
            continue
        rest, bits = forced
        bits |= 1 << e
        out += [bits | m for m in _completions(rest, memo, limit, g, nbr, sole)]
        if limit is not None and len(out) >= limit:
            del out[limit:]
            break
    memo[free] = out
    return out


def _force(free: int, touched: list[int], nbr, sole) -> tuple[int, int] | None:
    """Apply the forced moves around the ``touched`` vertices: the new
    ``free`` mask and the forced edges as a bitmask, or None when an
    uncovered vertex is left with no uncovered partner."""
    bits = 0
    while touched:
        around = nbr[touched.pop()] & free
        while around:
            low = around & -around
            around ^= low
            if not free & low:
                continue  # covered by a forced move since
            u = low.bit_length() - 1
            cand = nbr[u] & free
            if not cand:
                return None
            e = sole[u].get(cand)  # None unless one partner, by one edge
            if e is not None:
                bits |= 1 << e
                free &= ~(low | cand)
                touched += (u, cand.bit_length() - 1)
    return free, bits


# ---------------------------------------------------------------------------
# 3-edge-colouring as a lexicographic search
# ---------------------------------------------------------------------------

def enumerate_colourings(m: Multipole, limit: int | None = None) -> list[dict[int, int]]:
    """All valid colourings (or the first ``limit``) in lexicographic
    order of the colour vector, edge 0 first.

    Edges are coloured in id order, colours tried in ascending order, and
    no colour is put on a vertex twice: for three nonzero elements of
    Z2 x Z2 that is the same as XORing to zero.  Each free end gets a
    spare vertex of its own, which no other end shares.  After each
    colour, every higher-id edge that shares a vertex with the edge must
    still have a colour left; this cuts dead branches early and never
    changes the order, since it only skips subtrees without colourings.
    """
    if _no_room(limit):
        return []
    n = m.vertex_count
    ends = []
    spare = n
    for e in range(m.edge_count):
        a, b = m.endpoints(e)
        if a is None:
            a, spare = spare, spare + 1
        if b is None:
            b, spare = spare, spare + 1
        if a == b:
            return []  # a loop puts its colour on its vertex twice
        ends.append((a, b))
    k = len(ends)
    # per edge, the ends of the higher-id edges that share a vertex with it
    later = [{ends[f] for v in (a, b) if v < n for f, _ in m.incident_ends(v) if f > e}
             for e, (a, b) in enumerate(ends)]
    used = [0] * spare  # per vertex, a bitmask of the colours on its ends
    colour = [0] * k
    out: list[dict[int, int]] = []
    e = 0
    while e >= 0:
        if e == k:
            out.append(dict(enumerate(colour)))
            if len(out) == limit:
                break
            e -= 1
            continue
        if e == 0 and colour[0] and not out:
            # every permutation of {1, 2, 3} is an automorphism of
            # Z2 x Z2 and free ends are unconstrained, so colours 2 and 3
            # on edge 0 fail when colour 1 does
            break
        a, b = ends[e]
        c = colour[e]
        if c:
            used[a] ^= 1 << c
            used[b] ^= 1 << c
        # colours above c that neither end carries yet (bits 1-3)
        free = 14 & -(2 << c) & ~(used[a] | used[b])
        if free:
            c = (free & -free).bit_length() - 1
            colour[e] = c
            used[a] |= 1 << c
            used[b] |= 1 << c
            for x, y in later[e]:
                if not 14 & ~(used[x] | used[y]):
                    break  # a later edge has no colour left: try the next c
            else:
                e += 1
        else:
            colour[e] = 0
            e -= 1
    return out


def three_edge_colour(m: Multipole) -> dict[int, int] | None:
    """The lexicographically least valid colouring, or None."""
    out = enumerate_colourings(m, 1)
    return out[0] if out else None


def check_colouring(m: Multipole, colouring: dict[int, int]) -> str | None:
    """None when valid, otherwise a message naming the first violation."""
    for e in range(m.edge_count):
        c = colouring.get(e)
        if c not in (1, 2, 3):
            return f"edge {e} has no valid colour (got {c!r})"
    for v in range(m.vertex_count):
        acc = 0
        seen = []
        for e, i in m.incident_ends(v):
            acc ^= colouring[e]
            seen.append(colouring[e])
        if acc != 0:
            return f"vertex {v}: incident colours {seen} do not cancel"
    return None


def colour_classes(g: CubicGraph, colouring: dict[int, int]):
    """The three colour classes of a coloured cubic graph, as matchings."""
    err = check_colouring(g, colouring)
    if err:
        raise GraphError(err)
    classes = tuple(frozenset(e for e, c in colouring.items() if c == t) for t in COLOURS)
    return classes


@dataclass(frozen=True)
class ParityReport:
    ok: bool
    counts: tuple[int, int, int]  # free ends carrying colour 1, 2, 3
    free_end_count: int
    message: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_parity(m: Multipole, colouring: dict[int, int]) -> ParityReport:
    """Check the free-end parity condition of a coloured multipole.

    Each colour must appear on the free ends with the parity of the
    number of free ends; equivalently the free-end colours XOR to zero.
    With counts c1, c2, c3 of colours 1 = 01, 2 = 10 and 3 = 11, the XOR
    has low bit c1 + c3 and high bit c2 + c3 (mod 2), so it is zero iff
    the three counts share a parity, which is then that of their sum,
    the number of free ends.  So the counts alone decide.
    An invalid colouring is a hard error, not a False report.
    """
    err = check_colouring(m, colouring)
    if err:
        raise GraphError(f"invalid colouring: {err}")
    counts = [0, 0, 0]
    for e, _ in m.free_ends:
        counts[colouring[e] - 1] += 1
    n = len(m.free_ends)
    bad = [t + 1 for t in range(3) if counts[t] % 2 != n % 2]
    msg = None
    if bad:
        msg = f"colour(s) {bad} break parity: counts {tuple(counts)} vs {n} free ends"
    return ParityReport(not bad, tuple(counts), n, msg)


def is_snark(g: CubicGraph, *, facts: GraphFacts | None = None) -> bool:
    """Bridgeless (for a cubic graph the same as 2-connected) and not
    3-edge-colourable."""
    facts = _facts_for(g, facts)
    return facts.bridgeless and not facts.colourable


def two_factor_circuits(g: CubicGraph, matching: frozenset[int]) -> list[list[int]]:
    """Circuits (as edge-id lists) of the 2-factor complementary to a PM."""
    if not is_perfect_matching(g, matching):
        raise GraphError("not a perfect matching")
    return _circuits(g, sum(1 << e for e in matching))


def odd_circuit_count(g: CubicGraph, matching: frozenset[int]) -> int:
    """Number of odd circuits in the 2-factor complementary to a perfect matching."""
    return sum(len(c) & 1 for c in two_factor_circuits(g, matching))


def _circuits(g: CubicGraph, mask: int) -> list[list[int]]:
    """Circuits (as edge-id lists) of the 2-factor complementary to the
    perfect matching with edge bitmask ``mask``.

    Walks each circuit from its lowest unwalked edge.  A vertex has two
    2-factor ends, so the unwalked one beside the edge just walked is
    the next step; there is none once the walk is back at its first
    edge, or when that edge is a loop.  One flag per edge, read off the
    mask once, keeps the walk linear in the edge count."""
    m = g.edge_count
    # per edge, "0" while it is a 2-factor edge not walked yet ([:m]:
    # with no edges, format still gives "0")
    rest = bytearray(format(mask, f"0{m}b")[::-1][:m], "ascii")
    circuits = []
    start = rest.find(b"0")
    while start >= 0:
        e, v = start, g.endpoints(start)[1]
        circuit = []
        while True:
            rest[e] = 49  # "1"
            circuit.append(e)
            for w, f in g.arcs(v):
                if rest[f] == 48:  # "0"
                    e, v = f, w
                    break
            else:
                break
        circuits.append(circuit)
        start = rest.find(b"0", start)
    return circuits


def _odd_circuits(g: CubicGraph, mask: int) -> int:
    """Number of odd circuits in the 2-factor of ``_circuits``."""
    return sum(len(c) & 1 for c in _circuits(g, mask))


def _lex_matchings(g: CubicGraph):
    """Yield every perfect matching as an edge bitmask, in lexicographic
    order of sorted edge lists, the order of ``perfect_matching_masks``.

    Edges are decided in id order, include before exclude: the matchings
    below a state agree on every edge below the lowest one still open,
    and those that hold it come first (all have n/2 edges).  After each
    decision a vertex left with no open edge ends the branch, and one
    left with a single open edge takes it at once.  Both only drop
    subtrees or decisions that hold no matching, so the order is
    unchanged; so is skipping a set of open edges (the matchings below
    a state depend on nothing else) that held none before, which walks
    each dead end once.  The walk keeps a stack of states, not Python
    frames, so its depth has no recursion limit.
    """
    n = g.vertex_count
    ends = g.edges
    inc = [0] * n  # per vertex, its edges as a bitmask, loops left out
    open_ = 0  # the edges still open
    for e, (a, b) in enumerate(ends):
        if a != b:
            inc[a] |= 1 << e
            inc[b] |= 1 << e
            open_ |= 1 << e
    nbrs = [[w for w, _ in g.arcs(v)] for v in range(n)]
    # states still to walk: (open edges, chosen edges, vertices to check),
    # the exclude branch below the include branch.  Open edges have both
    # ends uncovered, and every uncovered vertex keeps one after the
    # forced moves, so a state with no open edge is a perfect matching.
    stack = [(open_, 0, list(range(n)))]
    dead = set()  # open edge sets with no matching below
    found = 0
    while stack:
        open_, chosen, touched = stack.pop()
        if touched is None:  # the walk below open_ is over
            if chosen == found:
                dead.add(open_)
            continue
        while touched:  # forced moves around the touched vertices
            v = touched.pop()
            live = inc[v] & open_
            if live & (live - 1):
                continue  # two open edges or more
            if not live:
                if inc[v] & chosen:
                    continue  # covered
                break  # uncovered with no open edge: no matching here
            a, b = ends[live.bit_length() - 1]
            chosen |= live
            open_ &= ~(inc[a] | inc[b])
            touched += nbrs[a] + nbrs[b]
        else:
            if not open_:
                found += 1
                yield chosen
                continue
            if open_ in dead:
                continue
            low = open_ & -open_
            a, b = ends[low.bit_length() - 1]
            stack.append((open_, found, None))  # matchings found before it
            stack.append((open_ ^ low, chosen, [a, b]))
            stack.append((open_ & ~(inc[a] | inc[b]), chosen | low, nbrs[a] + nbrs[b]))


class GraphFacts:
    """Facts about one cubic graph, each computed at most once, on first
    use: bridgelessness, oddness and the df/rdf witness of a colourable
    graph from one lexicographic walk over the perfect matchings, and the
    full list of matchings, as edge bitmasks, for the paths that need it.

    The walk stops at the least colour class, so a colourable graph
    never builds the list.  On a snark it sees every matching, in list
    order, and its matchings become the list.  Before testing a 65th
    2-factor it gives up, and the list is enumerated and walked instead:
    the cap changes only speed, never a result.

    Create one per graph and hand it to the functions that accept
    ``facts=``; nothing is cached beyond the object's own lifetime.
    """

    def __init__(self, g: CubicGraph):
        self.graph = g
        self._prefixes: dict[int, tuple[list[int], bool]] = {}
        self._least_class: int | None = None  # set by the oddness walk
        self._exact_df: int | None = None  # set by defect once df is exact

    @cached_property
    def bridgeless(self) -> bool:
        """Connected with no cut edge: the graphs df, rdf and Fulkerson
        covers are defined for."""
        return is_bridgeless(self.graph)

    @cached_property
    def masks(self) -> list[int]:
        """All perfect matchings as edge bitmasks, in lexicographic order."""
        return perfect_matching_masks(self.graph)

    @cached_property
    def matchings(self) -> list[frozenset[int]]:
        """The matchings as edge sets, in the same order."""
        return [edge_set(m) for m in self.masks]

    def prefix(self, cap: int | None) -> tuple[list[int], bool]:
        """(masks, complete) for a search capped at ``cap`` matchings:
        the least ``cap`` of the first ``cap + 1`` in search order, so
        capped results are reproducible.  A cap that holds every
        matching fills the full list.  Each cap is searched once; later
        calls return the same result.  A cap below 1 is an error.
        """
        if cap is None:
            return self.masks, True
        if cap < 1:
            raise GraphError("max_matchings must be at least 1")
        if cap not in self._prefixes:
            found = perfect_matching_masks(self.graph, cap + 1)
            if len(found) <= cap:
                self.masks = found
                self._prefixes[cap] = found, True
            else:
                self._prefixes[cap] = found[:cap], False
        return self._prefixes[cap]

    @cached_property
    def oddness(self) -> int:
        """Minimum number of odd circuits over all 2-factors: the
        2-factors in lexicographic order of their matchings, up to the
        first all-even one, whose matching is kept as the least colour
        class for ``_colour_triple``.  The list is walked instead when it
        is already there or the walk gives up before its 65th 2-factor;
        on a snark, the matchings seen become the list."""
        g = self.graph
        # a test walks the n edges of a 2-factor: 64 tests keep that cost
        # near linear in n, and hold every matching of the small snarks
        walk = None if "masks" in self.__dict__ else _first_even(g, _lex_matchings(g), 64)
        best, seen = walk or _first_even(g, self.masks)
        if best is None:
            raise GraphError("graph has no perfect matching")
        if best:
            self.masks = seen
        else:
            self._least_class = seen[-1]
        return best

    @cached_property
    def _colour_triple(self) -> tuple[int, int, int] | None:
        """The least triple M1 <= M2 <= M3 of perfect matchings, as edge
        bitmasks, that partitions the edges: the df and rdf witness of a
        colourable graph.  None when the graph is not colourable.

        Each member of a partition has an all-even 2-factor, the other two
        members alternating along it, so M1 is the least colour class,
        the first all-even 2-factor.  A matching that avoids M1 takes one
        of the two alternating halves of each circuit of E - M1, and two
        such choices first differ at the lowest edge of a circuit where
        they differ; so the least, M2, takes on each circuit the half
        that holds its lowest edge.  M2 is a colour class too (M1 and M3
        alternate along its 2-factor), so it is not below M1.  M3 =
        E - M1 - M2 avoids M1 too, so it is not below M2.
        """
        if not self.colourable:
            return None
        g = self.graph
        m1 = self._least_class
        m2 = 0
        for circuit in _circuits(g, m1):  # each walked from its lowest edge
            for e in circuit[::2]:
                m2 |= 1 << e
        return m1, m2, ((1 << g.edge_count) - 1) ^ m1 ^ m2

    @property
    def colourable(self) -> bool:
        """3-edge-colourable: some 2-factor has only even circuits (the
        colour classes 2 and 3 alternate along them)."""
        try:
            return self.oddness == 0
        except GraphError:  # no perfect matching
            return False


def _first_even(g: CubicGraph, matchings,
                cap: int | None = None) -> tuple[int | None, list[int]] | None:
    """(the least odd count, None with no matching; the matchings seen)
    over the 2-factors of ``matchings``, in their order, up to the first
    all-even one, which is then the last seen.  None when ``matchings``
    holds more than ``cap`` to test."""
    best, seen = None, []
    for m in matchings:
        if len(seen) == cap:
            return None
        odd = _odd_circuits(g, m)
        seen.append(m)
        if best is None or odd < best:
            best = odd
            if not odd:
                break
    return best, seen


def _facts_for(g: CubicGraph, facts: GraphFacts | None) -> GraphFacts:
    """The caller's facts for g, or fresh ones; facts about another graph
    are an error, not a silent wrong answer."""
    if facts is None:
        return GraphFacts(g)
    if facts.graph is not g:
        raise GraphError("facts= was built for a different graph")
    return facts


def oddness(g: CubicGraph, *, facts: GraphFacts | None = None) -> int:
    """Minimum number of odd circuits over all 2-factors of g."""
    return _facts_for(g, facts).oddness


def warn_if_not_snark(g: CubicGraph, context: str) -> None:
    if not is_snark(g):
        warnings.warn(f"{context}: input is not a snark", stacklevel=3)
