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

from .graph_core import CubicGraph, GraphError, Multipole, is_two_connected

COLOURS = (1, 2, 3)


def is_perfect_matching(g: CubicGraph, edges) -> bool:
    """Every vertex covered exactly once by edges of g; loops never
    qualify, nor do ids that are not edges of g."""
    ends, seen = g.edges, [0] * g.vertex_count
    for e in edges:
        if not (isinstance(e, int) and 0 <= e < len(ends)):
            return False
        a, b = ends[e]
        if a == b:
            return False
        seen[a] += 1
        seen[b] += 1
    return all(k == 1 for k in seen)


def enumerate_perfect_matchings(g: CubicGraph, limit: int | None = None) -> list[frozenset[int]]:
    """All perfect matchings, sorted lexicographically by sorted edge list.

    Backtracking over the lowest uncovered vertex; with ``limit`` the
    search stops after that many matchings (the truncated result is then
    an arbitrary prefix of the search order, re-sorted).
    """
    n = g.vertex_count
    if n == 0:
        return [frozenset()]
    if n % 2:
        return []
    covered = [False] * n
    chosen: list[int] = []
    out: list[tuple[int, ...]] = []

    def extend() -> bool:
        v = -1
        for u in range(n):
            if not covered[u]:
                v = u
                break
        if v == -1:
            out.append(tuple(sorted(chosen)))
            return limit is not None and len(out) >= limit
        for e, i in g.incident_ends(v):
            w = g.endpoints(e)[1 - i]
            if w == v or covered[w]:
                continue  # loop, or partner already matched
            covered[v] = covered[w] = True
            chosen.append(e)
            done = extend()
            chosen.pop()
            covered[v] = covered[w] = False
            if done:
                return True
        return False

    extend()
    out.sort()
    return [frozenset(t) for t in out]


# ---------------------------------------------------------------------------
# 3-edge-colouring as constraint propagation on Z2 x Z2 sums
# ---------------------------------------------------------------------------

class _Colourer:
    """Backtracking with unit propagation over dart-level incidences.

    Deterministic: the branching edge is always the lowest-id uncoloured
    edge, colours are tried in ascending order, and forced moves are
    applied eagerly; the first solution under this order is returned.
    """

    def __init__(self, m: Multipole):
        self.pole = m
        self.m = m.edge_count
        self.colour = [0] * self.m
        # per-vertex tally of coloured ends and XOR of their colours
        self.cnt = [0] * m.vertex_count
        self.acc = [0] * m.vertex_count

    def _assign(self, e0: int, c0: int, trail: list[int]) -> bool:
        queue = [(e0, c0)]
        while queue:
            e, c = queue.pop()
            if self.colour[e]:
                if self.colour[e] != c:
                    return False
                continue
            self.colour[e] = c
            trail.append(e)
            # book-keep both endpoints before any constraint check can
            # fail, so _undo's reversal stays symmetric
            for slot in self.pole.endpoints(e):
                if slot is not None:
                    self.cnt[slot] += 1
                    self.acc[slot] ^= c
            for slot in self.pole.endpoints(e):
                if slot is None:
                    continue
                if self.cnt[slot] == 3:
                    if self.acc[slot] != 0:
                        return False
                elif self.cnt[slot] == 2:
                    forced = self.acc[slot]
                    if forced == 0:
                        return False  # two equal colours meet at slot
                    for f, _ in self.pole.incident_ends(slot):
                        if not self.colour[f]:
                            queue.append((f, forced))
                            break
        return True

    def _undo(self, trail: list[int]) -> None:
        for e in reversed(trail):
            c = self.colour[e]
            self.colour[e] = 0
            for slot in self.pole.endpoints(e):
                if slot is not None:
                    self.cnt[slot] -= 1
                    self.acc[slot] ^= c

    def solve(self, limit: int | None, out: list[dict[int, int]]) -> None:
        def rec(start: int) -> bool:
            e = start
            while e < self.m and self.colour[e]:
                e += 1
            if e == self.m:
                out.append({i: self.colour[i] for i in range(self.m)})
                return limit is not None and len(out) >= limit
            for c in COLOURS:
                trail: list[int] = []
                ok = self._assign(e, c, trail)
                if ok and rec(e + 1):
                    return True
                self._undo(trail)
            return False

        rec(0)


def three_edge_colour(m: Multipole) -> dict[int, int] | None:
    """First valid colouring in the documented search order, or None."""
    out: list[dict[int, int]] = []
    _Colourer(m).solve(1, out)
    return out[0] if out else None


def enumerate_colourings(m: Multipole, limit: int | None = None) -> list[dict[int, int]]:
    """All valid colourings (or the first ``limit`` in search order)."""
    out: list[dict[int, int]] = []
    _Colourer(m).solve(limit, out)
    return out


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
    """2-connected and not 3-edge-colourable."""
    return is_two_connected(g) and not _facts_for(g, facts).colourable


def two_factor_circuits(g: CubicGraph, matching: frozenset[int]) -> list[list[int]]:
    """Circuits (as edge-id lists) of the 2-factor complementary to a PM."""
    if not is_perfect_matching(g, matching):
        raise GraphError("not a perfect matching")
    rest = [e for e in range(g.edge_count) if e not in matching]
    # each vertex has exactly two 2-factor ends; walk them
    at: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for e in rest:
        a, b = g.endpoints(e)
        at[a].append((e, 0))
        at[b].append((e, 1))
    used = set()
    circuits = []
    for e0 in rest:
        if e0 in used:
            continue
        circuit = []
        e, i = e0, 0
        while True:
            used.add(e)
            circuit.append(e)
            v = g.endpoints(e)[1 - i]  # walk out of the far end
            nxt = [(f, j) for f, j in at[v] if f != e]
            if len(nxt) == 1:
                e, i = nxt[0]
            else:  # parallel 2-factor edges or a fresh loop
                e, i = next((f, j) for f, j in at[v] if f not in used or f == e0)
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
    """Facts about one cubic graph, all derived from one perfect-matching
    enumeration and each computed at most once, on first use.

    Create one per graph and hand it to the functions that accept
    ``facts=``; nothing is cached beyond the object's own lifetime.
    """

    def __init__(self, g: CubicGraph):
        self.graph = g

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
        """
        if cap is None:
            return self.matchings, self.masks, True
        found = enumerate_perfect_matchings(self.graph, cap + 1)
        if len(found) <= cap:
            self.matchings = found
            return found, self.masks, True
        found = found[:cap]
        if any(odd_circuit_count(self.graph, mm) == 0 for mm in found):
            self.oddness = 0
        return found, matching_masks(found), False

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
