"""Perfect matchings and 3-edge-colourings of cubic graphs and multipoles.

Perfect matchings come from one enumerator, ``_lex_matchings``: a walk
that lists them in lexicographic order of sorted edge lists, memoised
on the completions of each set of open edges.  ``GraphFacts`` is the
one driver of that walk: it keeps one walk per graph, whose list its
bridge check, capped prefix, oddness and full list all extend, and
``perfect_matching_masks`` is its full list.  Oddness tests the
2-factors in that order and stops at the least colour class; under a
matching cap it reads only the capped matchings and is None when they
do not settle it.

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

from .graph_core import CubicGraph, GraphError, Multipole, _check_budget, is_bridgeless

COLOURS = (1, 2, 3)


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


# _BITS[k] maps a byte to b"1" when its bit k is set, else to b"0"
_BITS = [(b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8)]


def _edge_columns(masks: list[int], m: int) -> list[int]:
    """Per edge e < m, the bitset of the indices of the masks that hold
    e: bit i of the result's e-th entry is bit e of ``masks[i]``."""
    w = (m + 7) // 8
    # row i is masks[-1 - i] in w little-endian bytes, so the bytes
    # holding bit e, read top down through _BITS[e & 7], spell column e
    # in binary, last mask first (base 2 has no int digit limit)
    rows = b"".join([x.to_bytes(w, "little") for x in reversed(masks)])
    return [int(rows[e >> 3::w].translate(_BITS[e & 7]) or b"0", 2) for e in range(m)]


def enumerate_perfect_matchings(g: CubicGraph) -> list[frozenset[int]]:
    """``perfect_matching_masks`` as edge sets: all perfect matchings,
    sorted lexicographically by sorted edge list."""
    return [edge_set(m) for m in perfect_matching_masks(g)]


def perfect_matching_masks(g: CubicGraph) -> list[int]:
    """All perfect matchings as edge bitmasks (bit e set for edge e),
    sorted lexicographically by sorted edge list: ``GraphFacts.masks``.
    ``GraphFacts(g, cap).prefix()`` gives the first ``cap`` of them."""
    return GraphFacts(g).masks


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
    _check_budget("limit", limit, 0)
    if limit == 0:
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
    later = [{ends[f] for v in (a, b) if v < n for _, f in m.arcs(v) if f > e}
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
        for _, e in m.arcs(v):
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


def is_snark(g: CubicGraph) -> bool:
    """Bridgeless (for a cubic graph the same as 2-connected) and not
    3-edge-colourable."""
    facts = GraphFacts(g)
    return facts.bridgeless and not facts.colourable


def two_factor_circuits(g: CubicGraph, matching: frozenset[int]) -> list[list[int]]:
    """Circuits (as edge-id lists) of the 2-factor complementary to a PM."""
    if not is_perfect_matching(g, matching):
        raise GraphError("not a perfect matching")
    return _circuits(g, sum(1 << e for e in matching))


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


def _lex_matchings(g: CubicGraph, found: list[int]):
    """Append every perfect matching to ``found``, the caller's list, as
    an edge bitmask in lexicographic order of sorted edge lists; yield each.

    Edges are decided in id order, include before exclude: the matchings
    below a state agree on every edge below the lowest one still open,
    and those that hold it come first (all have n/2 edges).  After each
    decision a vertex left with no open edge ends the branch, and one
    left with a single open edge takes it at once.  Both only drop
    subtrees or decisions that hold no matching, so the order is
    unchanged.  These forced moves are unit propagation on each vertex's
    exactly-one constraint: a vertex whose count of open edges did not
    change cannot become dead or forced, and the state they reach, or
    the dead end, does not depend on the order of the checks.  So only
    the vertices that lost an open edge are re-checked: the ends of an
    excluded edge, and when an edge ab is taken, by the include branch
    or by a forced move, the far ends of the edges at a and b that were
    still open.

    Every edge chosen below a state is open in it, and its uncovered
    vertices are the ends of its open edges, so the matchings below it
    are its chosen edges joined with completions that depend on its open
    edges alone.  When the walk below a set of open edges ends, the
    stretch of matchings it found is noted with the chosen edges they
    share, and a later state with the same open edges replays that
    stretch with its own chosen edges in their place instead of walking
    again.  The replay keeps the order: matchings that share their
    chosen edges first differ, and so compare, where their completions
    do.  A dead end is walked once.  The walk keeps a stack of states,
    not Python frames, so its depth has no recursion limit.
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
    # states still to walk: (open edges, chosen edges, vertices to check),
    # the exclude branch below the include branch, and below both the
    # state again with the index in found where its walk began.  The
    # include branch checks ~e, the edge e it takes, before any vertex.
    # Open edges have both ends uncovered, and every uncovered vertex
    # keeps one after the forced moves, so a state with no open edge is
    # a perfect matching.
    stack = [(open_, 0, list(range(n)))]
    # open edges -> (start, end, chosen edges): the walk below them found
    # found[start:end] under those chosen edges
    memo: dict[int, tuple[int, int, int]] = {}
    while stack:
        open_, chosen, touched = stack.pop()
        if type(touched) is int:  # the walk below open_, begun at found[touched], is over
            memo[open_] = touched, len(found), chosen
            continue
        while touched:  # forced moves around the touched vertices
            v = touched.pop()
            if v < 0:  # the include branch takes edge ~v
                live = 1 << ~v
            else:
                live = inc[v] & open_
                if live & (live - 1):
                    continue  # two open edges or more
                if not live:
                    if inc[v] & chosen:
                        continue  # covered
                    break  # uncovered with no open edge: no matching here
            a, b = ends[live.bit_length() - 1]
            chosen |= live
            cut = (inc[a] | inc[b]) & open_
            open_ ^= cut
            cut ^= live  # the other open edges at a and b: check their far ends
            while cut:
                f = cut & -cut
                x, y = ends[f.bit_length() - 1]
                touched.append(y if x == a or x == b else x)
                cut ^= f
        else:
            if not open_:
                found.append(chosen)
                yield chosen
                continue
            done = memo.get(open_)
            if done is None:
                low = open_ & -open_
                e = low.bit_length() - 1
                stack.append((open_, chosen, len(found)))
                stack.append((open_ ^ low, chosen, list(ends[e])))
                stack.append((open_, chosen, [~e]))
                continue
            start, end, was = done
            for m in found[start:end]:  # a copy: found grows meanwhile
                m = m ^ was | chosen
                found.append(m)
                yield m


class GraphFacts:
    """Facts about one cubic graph, each computed at most once, on first
    use: bridgelessness, oddness, the df/rdf witness of a colourable
    graph and the perfect matchings as edge bitmasks.

    All but bridgelessness read one list, which the one lexicographic
    walk (``_lex_matchings``) fills as far as it has gone; ``masks`` is
    that list once the walk is over, not a copy of it.  Oddness
    tests the 2-factors in that order and stops at the first all-even
    one, the least colour class, so a colourable graph walks no further;
    a snark walks to the end.  It keeps that matching with the circuits
    of its 2-factor (``_least_class``), from which ``_colour_triple``
    reads M2 and M3, so that 2-factor is walked once.  ``defect`` keeps
    its result once df is exact (``_exact_df``), and ``regular_defect``
    returns it without a scan when its witness is regular.

    ``cap`` is a run's matching cap: the capped list, oddness and
    colourability read at most its first ``cap`` matchings, and one more
    tells whether there are others.  When the cap cuts the walk off
    before oddness is settled, oddness and colourability are None.  A
    cap below 1, or not an int, is an error.  The functions that take
    ``facts=`` read this cap, and fresh facts have none.

    Create one per graph and hand it to the functions that accept
    ``facts=``; nothing is cached beyond the object's own lifetime.
    """

    def __init__(self, g: CubicGraph, cap: int | None = None):
        _check_budget("max_matchings", cap, 1)
        self.graph = g
        self.cap = cap
        self._seen: list[int] = []  # the walk's matchings so far, filled by the walk
        self._walk = _lex_matchings(g, self._seen)
        self._least_class = None  # (M1, its 2-factor's circuits), set by the oddness walk
        self._exact_df = None  # set by defect: df's DefectResult once it is exact

    def _reach(self, i: int) -> bool:
        """Whether the walk has an i-th matching (counting from 0),
        walking on to it if it has not got there yet."""
        seen = self._seen
        if i >= len(seen):
            for _ in self._walk:
                if i < len(seen):
                    break
        return i < len(seen)

    @cached_property
    def bridgeless(self) -> bool:
        """Connected with no cut edge: the graphs df, rdf and Fulkerson
        covers are defined for."""
        return is_bridgeless(self.graph)

    @cached_property
    def masks(self) -> list[int]:
        """All perfect matchings as edge bitmasks, in lexicographic
        order, whatever the cap."""
        for _ in self._walk:  # the walk appends each one to the list
            pass
        return self._seen

    def prefix(self) -> tuple[list[int], bool]:
        """(masks, complete): the first ``cap`` matchings, or all of them
        with no cap, and whether they are all."""
        if self.cap is None:
            return self.masks, True
        complete = not self._reach(self.cap)
        return self._seen[:self.cap], complete

    @cached_property
    def oddness(self) -> int | None:
        """Minimum number of odd circuits over all 2-factors: the
        2-factors in the walk's order, up to the first all-even one, whose
        matching and circuits are kept for ``_colour_triple``.  None when
        the cap cuts the walk off first."""
        best, i = None, 0
        while i != self.cap and self._reach(i):
            circuits = _circuits(self.graph, self._seen[i])
            odd = sum(len(c) & 1 for c in circuits)
            if best is None or odd < best:
                best = odd
                if not odd:
                    self._least_class = self._seen[i], circuits
                    return 0
            i += 1
        if self._reach(i):  # the cap cut the walk off
            return None
        if best is None:
            raise GraphError("graph has no perfect matching")
        return best

    @cached_property
    def _colour_triple(self) -> tuple[int, int, int] | None:
        """The least triple M1 <= M2 <= M3 of perfect matchings, as edge
        bitmasks, that partitions the edges: the df and rdf witness of a
        colourable graph.  None when the graph is not known to be
        colourable.

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
        m1, circuits = self._least_class
        m2 = 0
        for circuit in circuits:  # each walked from its lowest edge
            for e in circuit[::2]:
                m2 |= 1 << e
        return m1, m2, ((1 << self.graph.edge_count) - 1) ^ m1 ^ m2

    @property
    def colourable(self) -> bool | None:
        """3-edge-colourable: some 2-factor has only even circuits (the
        colour classes 2 and 3 alternate along them).  None when the cap
        leaves oddness open."""
        try:
            odd = self.oddness
        except GraphError:  # no perfect matching
            return False
        return None if odd is None else odd == 0


def _facts_for(g: CubicGraph, facts: GraphFacts | None) -> GraphFacts:
    """The caller's facts for g, with their matching cap, or fresh ones
    with none; facts about another graph are an error, not a silent
    wrong answer."""
    if facts is None:
        return GraphFacts(g)
    if facts.graph is not g:
        raise GraphError("facts= was built for a different graph")
    return facts


def oddness(g: CubicGraph, *, facts: GraphFacts | None = None) -> int | None:
    """Minimum number of odd circuits over all 2-factors of g; None only
    when ``facts`` carries a matching cap that leaves it open."""
    return _facts_for(g, facts).oddness


def warn_if_not_snark(g: CubicGraph, context: str) -> None:
    if not is_snark(g):
        warnings.warn(f"{context}: input is not a snark", stacklevel=3)
