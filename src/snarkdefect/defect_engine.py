"""Colouring defect and regular defect via exact search over matching triples.

A 3-array is a multiset of three perfect matchings.  Its defect is the
number of edges covered by no member; df(g) minimizes this over all
3-arrays, rdf(g) over regular ones (no edge in all three members).

Search contract
---------------

Matchings are enumerated once in lexicographic order; triples (i, j, k)
with i <= j <= k are scanned in lexicographic index order, which equals
lexicographic order on the sorted triples of sorted edge lists.  The
reported witness is the first triple attaining the minimum, i.e. the
lexicographically least optimal 3-array.  Sound pruning (a pair bound on
the uncovered count, and early stop once a proven global lower bound is
attained: 0 for colourable graphs, 3 for snarks) never changes the
value or the witness.  The scan runs on one thread, so a triple
budget's cutoff point is reproducible.  The ``threads`` keywords are
accepted for compatibility and have no effect: the scan is pure Python,
which threads cannot overlap under the interpreter lock.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colouring import GraphFacts, _facts_for, is_perfect_matching
from .graph_core import CubicGraph, GraphError, _Sentinel, bridges, girth, is_bridgeless


class BudgetError(GraphError):
    """An exact search ran out of its configured budget."""


#: No admissible 3-array was inspected before the budget ran out.
UNKNOWN = _Sentinel("UNKNOWN")
#: Exhaustive search proved that no regular 3-array exists at all.
NONE_FOUND = _Sentinel("NONE_FOUND")


@dataclass(frozen=True)
class SearchBudget:
    """Caps for defect searches; None means unlimited."""

    max_matchings: int | None = None
    max_triples: int | None = None


@dataclass(frozen=True)
class ThreeArray:
    """A multiset of three perfect matchings, stored in canonical order."""

    matchings: tuple[frozenset[int], frozenset[int], frozenset[int]]

    @staticmethod
    def of(m1, m2, m3) -> "ThreeArray":
        members = sorted((frozenset(m1), frozenset(m2), frozenset(m3)),
                         key=lambda s: tuple(sorted(s)))
        return ThreeArray(tuple(members))

    def multiplicity(self, e: int) -> int:
        return sum(1 for mm in self.matchings if e in mm)

    @property
    def is_regular(self) -> bool:
        a, b, c = self.matchings
        return not (a & b & c)

    def sorted_lists(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(mm)) for mm in self.matchings)


@dataclass(frozen=True)
class CoverageProfile:
    multiplicity: tuple[int, ...]
    counts: tuple[int, int, int, int]  # (n0, n1, n2, n3)

    @property
    def uncovered(self) -> frozenset[int]:
        return frozenset(e for e, k in enumerate(self.multiplicity) if k == 0)

    @property
    def doubly(self) -> frozenset[int]:
        return frozenset(e for e, k in enumerate(self.multiplicity) if k == 2)

    @property
    def triply(self) -> frozenset[int]:
        return frozenset(e for e, k in enumerate(self.multiplicity) if k == 3)


EVEN_ALTERNATING_CIRCUIT = "EVEN_ALTERNATING_CIRCUIT"
CUBIC_SUBDIVISION = "CUBIC_SUBDIVISION"


@dataclass(frozen=True)
class CoreComponent:
    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    kind: str


@dataclass(frozen=True)
class Core:
    edges: frozenset[int]
    uncovered: frozenset[int]
    doubly: frozenset[int]
    triply: frozenset[int]
    components: tuple[CoreComponent, ...]


@dataclass(frozen=True)
class DefectResult:
    value: object  # int, UNKNOWN, or NONE_FOUND
    witness: ThreeArray | None
    exhaustive: bool
    regular_required: bool

    @property
    def status(self) -> str:
        if isinstance(self.value, int):
            return "EXACT" if self.exhaustive else "UPPER_BOUND"
        return repr(self.value)


def coverage(g: CubicGraph, a: ThreeArray) -> CoverageProfile:
    """Per-edge multiplicities of a 3-array plus the counts n0..n3."""
    for idx, mm in enumerate(a.matchings):
        if not is_perfect_matching(g, mm):
            raise GraphError(f"array member {idx} is not a perfect matching of the graph")
    mult = [0] * g.edge_count
    for mm in a.matchings:
        for e in mm:
            mult[e] += 1
    counts = tuple(mult.count(k) for k in range(4))
    assert sum(counts) == g.edge_count
    assert counts[1] + 2 * counts[2] + 3 * counts[3] == 3 * g.vertex_count // 2
    return CoverageProfile(tuple(mult), counts)


def core_of(g: CubicGraph, a: ThreeArray) -> Core:
    """Subgraph of not-simply-covered edges, with component classification.

    The local structure is asserted: a core vertex meets either one
    doubly covered and one uncovered edge-end, or one triply covered and
    two uncovered edge-ends; circuit components alternate and have even
    length.  A violation is a bug, not an input condition.
    """
    prof = coverage(g, a)
    mult = prof.multiplicity
    core_edges = frozenset(e for e in range(g.edge_count) if mult[e] != 1)

    ends_at: dict[int, list[int]] = {}
    for e in core_edges:
        for slot in g.endpoints(e):
            ends_at.setdefault(slot, []).append(e)
    for v, inc in ends_at.items():
        kinds = sorted(mult[e] for e in inc)
        assert kinds in ([0, 2], [0, 0, 3]), \
            f"core vertex {v} has multiplicity pattern {kinds}"

    comps: list[CoreComponent] = []
    seen: set[int] = set()
    for start in sorted(core_edges):
        if start in seen:
            continue
        stack = [start]
        comp_edges = {start}
        seen.add(start)
        while stack:
            e = stack.pop()
            for slot in g.endpoints(e):
                for f in ends_at[slot]:
                    if f not in comp_edges:
                        comp_edges.add(f)
                        seen.add(f)
                        stack.append(f)
        verts = sorted({s for e in comp_edges for s in g.endpoints(e)})
        degree = {v: 0 for v in verts}
        for e in comp_edges:
            for slot in g.endpoints(e):
                degree[slot] += 1
        if all(d == 2 for d in degree.values()):
            kind = EVEN_ALTERNATING_CIRCUIT
            zeros = sum(1 for e in comp_edges if mult[e] == 0)
            twos = sum(1 for e in comp_edges if mult[e] == 2)
            assert zeros == twos and len(comp_edges) % 2 == 0, \
                "circuit component fails to alternate"
        else:
            kind = CUBIC_SUBDIVISION
        comps.append(CoreComponent(tuple(verts), tuple(sorted(comp_edges)), kind))

    return Core(core_edges, prof.uncovered, prof.doubly, prof.triply, tuple(comps))


def is_induced_circuit(g: CubicGraph, comp: CoreComponent) -> bool:
    """True when the component's vertex set induces exactly its edges in g."""
    if comp.kind != EVEN_ALTERNATING_CIRCUIT:
        return False
    inside = set(comp.vertices)
    induced = [e for e, (x, y) in enumerate(g.edges) if x in inside and y in inside]
    return sorted(induced) == list(comp.edges)


# ---------------------------------------------------------------------------
# triple scan
# ---------------------------------------------------------------------------

def _scan(masks: list[int], m: int, half: int, regular: bool, lower: int,
          max_triples: int | None = None):
    """Scan triples i <= j <= k; returns (value, optimal, completed).

    ``optimal`` is every inspected triple attaining the minimum, in scan
    order, so its first entry is the witness; value is None when it is
    empty.  The scan stops once `lower` is attained (the bound must be
    globally valid; -1 never stops it), and with `completed` False once
    `max_triples` triples were inspected.
    """
    n = len(masks)
    best_val = m + 1
    best: list[tuple[int, int, int]] = []
    left = max_triples
    for i in range(n):
        mi = masks[i]
        for j in range(i, n):
            mj = masks[j]
            u = mi | mj
            if m - u.bit_count() - half > best_val:
                continue
            mij = mi & mj
            for k in range(j, n):
                if left is not None:
                    if left <= 0:
                        return (best_val if best else None), best, False
                    left -= 1
                if regular and (mij & masks[k]):
                    continue
                val = m - (u | masks[k]).bit_count()
                if val <= best_val:
                    if val < best_val:
                        best_val, best = val, []
                    best.append((i, j, k))
                    if val <= lower:
                        return best_val, best, True
    return (best_val if best else None), best, True


def _require_bridgeless(g: CubicGraph) -> None:
    if not is_bridgeless(g):
        raise GraphError("defect is undefined for graphs with bridges "
                         f"(found {bridges(g) or 'disconnected'})")


def _defect_impl(g: CubicGraph, regular: bool, budget: SearchBudget | None,
                 facts: GraphFacts | None) -> DefectResult:
    _require_bridgeless(g)
    cap = budget.max_matchings if budget else None
    if cap is not None and cap < 1:
        raise GraphError("max_matchings must be at least 1")
    facts = _facts_for(g, facts)
    matchings, masks, complete = facts.prefix(cap)
    lower = 0 if facts.colourable else 3  # snark lower bound; bridgeless + uncolourable = snark

    mt = budget.max_triples if budget else None
    val, optimal, scanned_all = _scan(masks, g.edge_count, g.vertex_count // 2, regular, lower, mt)

    # a witness attaining the proven lower bound is exact even if the
    # matching list was truncated
    exhaustive = (complete and scanned_all) or val == lower
    if not optimal:
        if regular and complete and scanned_all:
            return DefectResult(NONE_FOUND, None, True, True)
        return DefectResult(UNKNOWN, None, False, regular)
    witness = ThreeArray.of(*(matchings[x] for x in optimal[0]))
    return DefectResult(val, witness, exhaustive, regular)


def defect(g: CubicGraph, budget: SearchBudget | None = None,
           threads: int | None = None, *, facts: GraphFacts | None = None) -> DefectResult:
    """df(g): minimum uncovered count over all 3-arrays, with witness.

    ``threads`` is accepted and ignored.  ``facts`` shares one matching
    enumeration with other calls on the same graph.
    """
    return _defect_impl(g, False, budget, facts)


def regular_defect(g: CubicGraph, budget: SearchBudget | None = None,
                   threads: int | None = None, *,
                   facts: GraphFacts | None = None) -> DefectResult:
    """rdf(g): as defect but restricted to regular 3-arrays."""
    return _defect_impl(g, True, budget, facts)


def enumerate_optimal_arrays(g: CubicGraph, regular: bool, target: int | None = None,
                             threads: int | None = None) -> list[ThreeArray]:
    """Every 3-array (regular ones if requested) attaining the optimum,
    in lexicographic order, from one scan with no early stop.

    ``target`` is a claimed optimum: if it is not the optimum the result
    is empty, even when it is above it and arrays attain it.  Graphs with
    bridges are rejected, as by ``defect``.  ``threads`` is ignored.
    """
    _require_bridgeless(g)
    facts = GraphFacts(g)
    val, optimal, _ = _scan(facts.masks, g.edge_count, g.vertex_count // 2, regular, -1)
    if val is None and target is None:
        raise GraphError(f"no optimum to enumerate: {NONE_FOUND!r}")
    if target is not None and target != val:
        return []
    return [ThreeArray.of(*(facts.matchings[x] for x in t)) for t in optimal]


# ---------------------------------------------------------------------------
# structural checks built on defect results
# ---------------------------------------------------------------------------

def check_girth_bound(g: CubicGraph, r: DefectResult) -> bool:
    """Verify rdf >= girth/2 and the core circuits are even of length >= girth.

    Vacuously true for an empty core (colourable case).  A False return
    signals a hard bug somewhere: the bound is a theorem.
    """
    if not r.regular_required or r.witness is None or not isinstance(r.value, int):
        raise GraphError("check_girth_bound needs a regular-defect result with a witness")
    if r.value == 0:
        return True
    gi = girth(g)
    if 2 * r.value < gi:
        return False
    core = core_of(g, r.witness)
    for comp in core.components:
        if comp.kind != EVEN_ALTERNATING_CIRCUIT:
            raise GraphError("regular witness produced a non-circuit core component")
        if len(comp.edges) % 2 or len(comp.edges) < gi:
            return False
    return True


def verify_corollary_rdf3(g: CubicGraph) -> bool:
    """(df = 3) iff (rdf = 3), both computed exhaustively."""
    facts = GraphFacts(g)
    d = defect(g, facts=facts)
    r = regular_defect(g, facts=facts)
    if not (d.exhaustive and r.exhaustive):
        raise GraphError("corollary check requires exhaustive searches")
    return (d.value == 3) == (r.value == 3)
