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
    qualify, nor do ids that are not edges of g."""
    ends = g.edges
    covered: list[int] = []
    for e in edges:
        if not (isinstance(e, int) and 0 <= e < len(ends)):
            return False
        covered += ends[e]
    # n endpoints, all distinct: each vertex once, and no loop
    return len(covered) == g.vertex_count == len(set(covered))


def enumerate_perfect_matchings(g: CubicGraph, limit: int | None = None) -> list[frozenset[int]]:
    """All perfect matchings, sorted lexicographically by sorted edge list.

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
    """
    n = g.vertex_count
    if _no_room(limit):
        return []
    if n == 0:
        return [frozenset()]
    if n % 2:
        return []
    # per vertex, with loops skipped: the partners as a bitmask, and the
    # partners reached by exactly one edge (partner bit -> edge)
    nbr: list[int] = []
    sole: list[dict[int, int]] = []
    for v in range(n):
        partners = [w for w, _ in g.arcs(v) if w != v]
        nbr.append(sum(1 << w for w in set(partners)))
        sole.append({1 << w: e for w, e in g.arcs(v) if w != v and partners.count(w) == 1})
    out: list[tuple[int, ...]] = []
    _match_lowest((1 << n) - 1, [], out, limit, g, nbr, sole)
    out.sort()
    return [frozenset(t) for t in out]


def _match_lowest(free: int, chosen: list[int], out: list[tuple[int, ...]],
                  limit: int | None, g, nbr, sole) -> bool:
    """Extend ``chosen`` over the bitmask ``free`` of uncovered vertices,
    appending each perfect matching to ``out``; True once ``limit`` is
    reached.  A module-level function, not a closure, so no reference
    cycle keeps ``out`` alive after the search."""
    if not free:
        out.append(tuple(sorted(chosen)))
        return limit is not None and len(out) >= limit
    v = (free & -free).bit_length() - 1
    others = free ^ 1 << v
    depth = len(chosen)
    for w, e in g.arcs(v):
        if not others >> w & 1:
            continue  # a loop, or the partner is already matched
        chosen.append(e)
        rest = _force(others ^ 1 << w, [v, w], chosen, nbr, sole)
        if rest is not None and _match_lowest(rest, chosen, out, limit, g, nbr, sole):
            return True
        del chosen[depth:]
    return False


def _force(free: int, touched: list[int], chosen: list[int], nbr, sole) -> int | None:
    """Apply the forced moves around the ``touched`` vertices, appending
    forced edges to ``chosen``: the new ``free`` mask, or None when an
    uncovered vertex is left with no uncovered partner."""
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
                chosen.append(e)
                free &= ~(low | cand)
                touched += (u, cand.bit_length() - 1)
    return free


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
    An invalid colouring is a hard error, not a False report.
    """
    err = check_colouring(m, colouring)
    if err:
        raise GraphError(f"invalid colouring: {err}")
    counts = [0, 0, 0]
    acc = 0
    for e, _ in m.free_ends:
        counts[colouring[e] - 1] += 1
        acc ^= colouring[e]
    n = len(m.free_ends)
    bad = [t + 1 for t in range(3) if counts[t] % 2 != n % 2]
    ok = not bad and acc == 0
    msg = None
    if bad:
        msg = f"colour(s) {bad} break parity: counts {tuple(counts)} vs {n} free ends"
    elif acc != 0:
        msg = f"free-end colours sum to {acc}, expected 0"
    return ParityReport(ok, tuple(counts), n, msg)


def is_snark(g: CubicGraph, *, facts: GraphFacts | None = None) -> bool:
    """Bridgeless (for a cubic graph the same as 2-connected) and not
    3-edge-colourable."""
    facts = _facts_for(g, facts)
    return facts.bridgeless and not facts.colourable


def two_factor_circuits(g: CubicGraph, matching: frozenset[int]) -> list[list[int]]:
    """Circuits (as edge-id lists) of the 2-factor complementary to a PM."""
    if not is_perfect_matching(g, matching):
        raise GraphError("not a perfect matching")
    # each vertex has exactly two 2-factor ends; walk them
    used = set()
    circuits = []
    for e0 in range(g.edge_count):
        if e0 in matching or e0 in used:
            continue
        circuit = []
        e, v = e0, g.endpoints(e0)[1]
        while True:
            used.add(e)
            circuit.append(e)
            nxt = [(f, w) for w, f in g.arcs(v) if f != e and f not in matching]
            if not nxt:
                break  # e is a loop, a circuit of its own
            e, v = nxt[0]  # step to the far end of the next edge
            if e == e0:
                break
        circuits.append(circuit)
    return circuits


def odd_circuit_count(g: CubicGraph, matching: frozenset[int]) -> int:
    """Number of odd circuits in the 2-factor complementary to a perfect matching."""
    return sum(1 for c in two_factor_circuits(g, matching) if len(c) % 2)


def matching_masks(matchings: list[frozenset[int]]) -> list[int]:
    """Each matching as an edge bitmask (bit e set for edge e), in order."""
    return [sum(1 << e for e in mm) for mm in matchings]


class GraphFacts:
    """Facts about one cubic graph, each computed at most once, on first
    use: bridgelessness, and the rest from one perfect-matching
    enumeration.

    Create one per graph and hand it to the functions that accept
    ``facts=``; nothing is cached beyond the object's own lifetime.
    """

    def __init__(self, g: CubicGraph):
        self.graph = g
        self._prefixes: dict[int, tuple[list[frozenset[int]], list[int], bool]] = {}

    @cached_property
    def bridgeless(self) -> bool:
        """Connected with no cut edge: the graphs df, rdf and Fulkerson
        covers are defined for."""
        return is_bridgeless(self.graph)

    @cached_property
    def matchings(self) -> list[frozenset[int]]:
        """All perfect matchings in lexicographic order."""
        return enumerate_perfect_matchings(self.graph)

    @cached_property
    def masks(self) -> list[int]:
        """The matchings as edge bitmasks, in the same order."""
        return matching_masks(self.matchings)

    def prefix(self, cap: int | None) -> tuple[list[frozenset[int]], list[int], bool]:
        """(matchings, masks, complete) for a search capped at ``cap``
        matchings: the search-order prefix, re-sorted, so capped results
        are reproducible.  A cap that holds every matching fills the full
        list; an all-even 2-factor in a partial prefix records oddness 0.
        Each cap is searched once; later calls return the same result.
        A cap below 1 is an error.
        """
        if cap is None:
            return self.matchings, self.masks, True
        if cap < 1:
            raise GraphError("max_matchings must be at least 1")
        if cap not in self._prefixes:
            found = enumerate_perfect_matchings(self.graph, cap + 1)
            if len(found) <= cap:
                self.matchings = found
                self._prefixes[cap] = found, self.masks, True
            else:
                found = found[:cap]
                if any(odd_circuit_count(self.graph, mm) == 0 for mm in found):
                    self.oddness = 0
                self._prefixes[cap] = found, matching_masks(found), False
        return self._prefixes[cap]

    @cached_property
    def oddness(self) -> int:
        """Minimum number of odd circuits over all 2-factors."""
        if not self.matchings:
            raise GraphError("graph has no perfect matching")
        best = None
        for pm in self.matchings:
            odd = odd_circuit_count(self.graph, pm)
            if best is None or odd < best:
                best = odd
                if best == 0:
                    break
        return best

    @property
    def colourable(self) -> bool:
        """3-edge-colourable: some 2-factor has only even circuits (the
        colour classes 2 and 3 alternate along them)."""
        try:
            return self.oddness == 0
        except GraphError:  # no perfect matching
            return False


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
