"""Colouring defect and regular defect via exact search over matching triples.

A 3-array is a multiset of three perfect matchings.  Its defect is the
number of edges covered by no member; df(g) minimizes this over all
3-arrays, rdf(g) over regular ones (no edge in all three members).

Search contract
---------------

Matchings are listed at most once, in lexicographic order, by the one
walk of the graph's ``GraphFacts``, and only as far as a search needs
them.  The matching cap is the facts' own, ``GraphFacts(g, cap)``: a
search reads the first ``cap`` matchings of that list, and
colourability and oddness then read no further.

A graph known to be colourable has df = rdf = 0, exact under any
budget, witnessed by the least triple of matchings that partitions the
edges (regular: a partition has no common edge).  ``GraphFacts`` builds
it from the least colour class M1, where the oddness walk stops, and
reads M2 and M3 off M1's 2-factor without listing them, so a cap bounds
the matchings listed and a triple budget inspects no triple.

The scan serves snarks, graphs whose oddness a cap left open, and
``enumerate_optimal_arrays``, which needs every tie.  Triples (i, j, k)
with i <= j <= k go in lexicographic index order, which is
lexicographic order on sorted triples of sorted edge lists, and the
witness is the first triple at the minimum: the lexicographically least
optimal 3-array.  Sound pruning (a pair bound on the uncovered count,
and a stop at a proven lower bound, 3 for snarks) changes neither.  The
scan keeps nothing: it yields each triple at or below the running
minimum; df and rdf keep one witness, ``enumerate_optimal_arrays`` the
ties at the final minimum.

rdf reads an exact df found on the same facts, as rdf >= df.  df's
witness is the first triple at the least value, df; when it is regular,
no regular triple comes before it at a value <= df, so it is rdf's
witness, exact, and rdf scans nothing.  This holds on a capped prefix
too, because df and rdf scan the same prefix in the same order.  An
irregular witness leaves df as the rdf scan's lower bound.

The scan runs on one thread, so a triple budget's cutoff point is
reproducible; a negative or non-int budget is an input error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colouring import GraphFacts, _check_budget, _facts_for, edge_set, is_perfect_matching
from .graph_core import CubicGraph, GraphError, _Sentinel, bridges, girth


class BudgetError(GraphError):
    """An exact search ran out of its configured budget."""


#: No admissible 3-array was inspected before the budget ran out.
UNKNOWN = _Sentinel("UNKNOWN")
#: Exhaustive search proved that no regular 3-array exists at all.
NONE_FOUND = _Sentinel("NONE_FOUND")


def _canonical_order(members) -> list[frozenset[int]]:
    """Members as frozensets in canonical order: by sorted edge list.
    Every id must be an int (a bool is not one), so the sort compares
    like with like."""
    ms = [frozenset(mm) for mm in members]
    for mm in ms:
        for e in mm:
            if type(e) is not int:
                raise GraphError(f"member holds {e!r}, which is not an edge id")
    return sorted(ms, key=sorted)


@dataclass(frozen=True)
class ThreeArray:
    """A multiset of three perfect matchings, stored in canonical order."""

    matchings: tuple[frozenset[int], frozenset[int], frozenset[int]]

    @staticmethod
    def of(m1, m2, m3) -> "ThreeArray":
        return ThreeArray(tuple(_canonical_order((m1, m2, m3))))

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


def _member_multiplicities(g: CubicGraph, members, kind: str) -> list[int]:
    """How many members hold each edge; each must be a perfect matching."""
    mult = [0] * g.edge_count
    for idx, mm in enumerate(members):
        if not is_perfect_matching(g, mm):
            raise GraphError(f"{kind} member {idx} is not a perfect matching of the graph")
        for e in mm:
            mult[e] += 1
    return mult


def coverage(g: CubicGraph, a: ThreeArray) -> CoverageProfile:
    """Per-edge multiplicities of a 3-array plus the counts n0..n3.

    Each member is checked to be a perfect matching, so it has n/2 edges:
    every multiplicity is 0..3, the counts sum to the edge count, and
    n1 + 2*n2 + 3*n3 = 3n/2.
    """
    mult = _member_multiplicities(g, a.matchings, "array")
    counts = tuple(mult.count(k) for k in range(4))
    return CoverageProfile(tuple(mult), counts)


def core_of(g: CubicGraph, a: ThreeArray) -> Core:
    """Subgraph of not-simply-covered edges, with component classification.

    Read off the graph's arc table, keeping the edges not covered exactly
    once.  ``coverage`` checks that all three members are perfect
    matchings, so at each vertex each member takes one edge-end: the
    ends not covered exactly once are none, {0, 2} or {0, 0, 3}.  So a
    core vertex has degree 2 or 3 in the core, a component is a circuit
    exactly when it has no triply covered edge, and a circuit's edges
    alternate between 0 and 2, so it has even length.  Components come
    by least edge, each with its vertices and edges sorted.
    """
    prof = coverage(g, a)
    mult = prof.multiplicity
    core_edges = frozenset(e for e in range(g.edge_count) if mult[e] != 1)

    comps: list[CoreComponent] = []
    seen: set[int] = set()
    for start in sorted(core_edges):
        if start in seen:
            continue
        comp_edges = {start}
        stack = list(g.endpoints(start))
        while stack:
            for w, e in g.arcs(stack.pop()):
                if mult[e] != 1 and e not in comp_edges:
                    comp_edges.add(e)
                    stack.append(w)
        seen |= comp_edges
        verts = sorted({v for e in comp_edges for v in g.endpoints(e)})
        kind = CUBIC_SUBDIVISION if any(mult[e] == 3 for e in comp_edges) \
            else EVEN_ALTERNATING_CIRCUIT
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

def _scan(masks: list[int], m: int, half: int, regular: bool,
          max_triples: int | None = None):
    """Scan triples i <= j <= k in lexicographic order, keeping nothing.

    Yields ``(value, (i, j, k))`` for each triple whose value is at most
    the running minimum: the first triple at each new minimum, then its
    ties.  Yields None and stops once ``max_triples`` triples were
    inspected.  Each caller keeps what it needs of what it is given.
    """
    n = len(masks)
    best_val = m + 1
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
                        yield None
                        return
                    left -= 1
                if regular and (mij & masks[k]):
                    continue
                val = m - (u | masks[k]).bit_count()
                if val <= best_val:
                    best_val = val
                    yield val, (i, j, k)


def _require_bridgeless(facts: GraphFacts) -> None:
    """Refuse a graph with a bridge; one with no perfect matching says so first."""
    if not facts.bridgeless:
        if not facts._reach(0):
            raise GraphError("graph has no perfect matching")
        raise GraphError("defect is undefined for graphs with bridges "
                         f"(found {bridges(facts.graph) or 'disconnected'})")


def _defect_impl(g: CubicGraph, regular: bool, max_triples: int | None,
                 facts: GraphFacts | None) -> DefectResult:
    facts = _facts_for(g, facts)
    _require_bridgeless(facts)
    _check_budget("max_triples", max_triples, 0)
    if facts.colourable:  # the least partition into colour classes, in order
        return DefectResult(0, ThreeArray(tuple(map(edge_set, facts._colour_triple))),
                            True, regular)

    # a snark's df is at least 3 (bridgeless + uncolourable = snark); a cap
    # that leaves oddness open leaves no bound above 0
    lower = 3 if facts.oddness else 0
    d = facts._exact_df
    if regular and d is not None:  # see the module docstring
        if d.witness.is_regular:
            return DefectResult(d.value, d.witness, True, True)
        lower = d.value
    masks, complete = facts.prefix()
    best = None  # (value, (i, j, k)): the first triple at the least value
    scanned_all = True
    for hit in _scan(masks, g.edge_count, g.vertex_count // 2, regular, max_triples):
        if hit is None:
            scanned_all = False
            break
        if best is None or hit[0] < best[0]:
            best = hit
        if best[0] <= lower:
            break

    if best is None:
        if regular and complete and scanned_all:
            return DefectResult(NONE_FOUND, None, True, True)
        return DefectResult(UNKNOWN, None, False, regular)
    val, triple = best
    # a witness attaining the proven lower bound is exact even if the
    # matching list was truncated
    exhaustive = (complete and scanned_all) or val == lower
    res = DefectResult(val, ThreeArray(tuple(edge_set(masks[x]) for x in triple)),
                       exhaustive, regular)
    if exhaustive and not regular:
        facts._exact_df = res
    return res


def defect(g: CubicGraph, max_triples: int | None = None,
           *, facts: GraphFacts | None = None) -> DefectResult:
    """df(g): minimum uncovered count over all 3-arrays, with witness,
    inspecting at most ``max_triples`` triples (None: no limit).

    ``facts`` shares one matching enumeration with other calls on the
    same graph, and carries the matching cap.
    """
    return _defect_impl(g, False, max_triples, facts)


def regular_defect(g: CubicGraph, max_triples: int | None = None,
                   *, facts: GraphFacts | None = None) -> DefectResult:
    """rdf(g): as defect but restricted to regular 3-arrays."""
    return _defect_impl(g, True, max_triples, facts)


def enumerate_optimal_arrays(g: CubicGraph, regular: bool) -> list[ThreeArray]:
    """Every 3-array (regular ones if requested) attaining the optimum,
    in lexicographic order, from one scan with no early stop.  Graphs
    with bridges are rejected, as by ``defect``.
    """
    facts = GraphFacts(g)
    _require_bridgeless(facts)
    val, optimal = None, []  # the ties at the running minimum, in scan order
    for value, triple in _scan(facts.masks, g.edge_count, g.vertex_count // 2, regular):
        if value != val:
            val, optimal = value, []
        optimal.append(triple)
    if val is None:
        raise GraphError(f"no optimum to enumerate: {NONE_FOUND!r}")
    return [ThreeArray(tuple(edge_set(facts.masks[x]) for x in t)) for t in optimal]


# ---------------------------------------------------------------------------
# structural checks built on defect results
# ---------------------------------------------------------------------------

def girth_bound_holds(gi: int, value: int, core: Core) -> bool:
    """rdf >= girth/2 and the core circuits are even of length >= girth,
    for the girth ``gi``, an exact rdf ``value`` and its witness's core.

    Vacuously true for rdf 0 (colourable case, empty core).  A False
    return signals a hard bug somewhere: the bound is a theorem.
    """
    if value == 0:
        return True
    if 2 * value < gi:
        return False
    for comp in core.components:
        if comp.kind != EVEN_ALTERNATING_CIRCUIT:
            raise GraphError("regular witness produced a non-circuit core component")
        if len(comp.edges) % 2 or len(comp.edges) < gi:
            return False
    return True


def check_girth_bound(g: CubicGraph, r: DefectResult) -> bool:
    """``girth_bound_holds`` for an rdf result with a witness."""
    if not r.regular_required or r.witness is None or not isinstance(r.value, int):
        raise GraphError("check_girth_bound needs a regular-defect result with a witness")
    if r.value == 0:  # the empty graph has no girth to compute
        return True
    return girth_bound_holds(girth(g), r.value, core_of(g, r.witness))


def verify_corollary_rdf3(g: CubicGraph) -> bool:
    """(df = 3) iff (rdf = 3), both computed exhaustively."""
    facts = GraphFacts(g)
    d = defect(g, facts=facts)
    r = regular_defect(g, facts=facts)
    return (d.value == 3) == (r.value == 3)
