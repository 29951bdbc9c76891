"""Defect search: values, witnesses, cores, budgets, and the girth bound."""

import itertools
import random

import pytest

import snarkdefect as sd
import oracles
from oracles import edge_pairs


def witness_lists(arr):
    return sorted(sorted(m) for m in arr.matchings)


def oracle_lists(triple):
    return sorted(sorted(m) for m in triple)


# --------------------------------------------------------------------------
# values and witnesses against the unpruned triple loop
# --------------------------------------------------------------------------

@pytest.mark.parametrize("regular", [False, True])
def test_defect_matches_naive_oracle(theta, k4, k33, prism, cube, petersen, j3, regular):
    for g in (theta, k4, k33, prism, cube, petersen, j3):
        want_value, want_triple = oracles.naive_defect(
            g.vertex_count, edge_pairs(g), regular=regular)
        res = sd.regular_defect(g) if regular else sd.defect(g)
        assert res.value == want_value
        assert res.exhaustive
        assert res.status == "EXACT"
        assert res.regular_required == regular
        assert witness_lists(res.witness) == oracle_lists(want_triple)


def test_colourable_means_zero(theta, k4, k33, prism, cube):
    for g in (theta, k4, k33, prism, cube):
        assert sd.defect(g).value == 0
        assert sd.regular_defect(g).value == 0


def test_snark_values(petersen, j3, j5, blanusa1, blanusa2):
    for g in (petersen, j3, j5, blanusa1, blanusa2):
        assert sd.defect(g).value == 3
        assert sd.regular_defect(g).value == 3


def test_petersen_witness_golden(petersen):
    res = sd.regular_defect(petersen)
    assert witness_lists(res.witness) == [
        [0, 5, 9, 10, 12], [0, 6, 7, 11, 13], [1, 3, 8, 10, 13]]


def test_defect_rejects_bridges(dumbbell):
    with pytest.raises(sd.GraphError, match="bridge"):
        sd.defect(dumbbell)
    two_thetas = sd.CubicGraph(4, ((0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3)))
    with pytest.raises(sd.GraphError):
        sd.defect(two_thetas)


# --------------------------------------------------------------------------
# three-arrays and coverage bookkeeping
# --------------------------------------------------------------------------

def test_three_array_canonicalisation(petersen):
    ms = sd.enumerate_perfect_matchings(petersen)
    arr = sd.ThreeArray.of(ms[3], ms[0], ms[3])
    assert arr.matchings == (ms[0], ms[3], ms[3])  # sorted, repeats kept
    for e in range(15):
        assert arr.multiplicity(e) == (e in ms[0]) + 2 * (e in ms[3])
    assert arr.is_regular is (len(ms[0] & ms[3]) == 0)
    # repeating one matching thrice leaves its edges triply covered
    assert not sd.ThreeArray.of(ms[0], ms[0], ms[0]).is_regular


def test_coverage_identities_on_sampled_arrays(petersen, j5):
    rng = random.Random(20260815)
    for g in (petersen, j5):
        ms = sd.enumerate_perfect_matchings(g)
        n, m = g.vertex_count, g.edge_count
        for _ in range(100):
            arr = sd.ThreeArray.of(*(rng.choice(ms) for _ in range(3)))
            cov = sd.coverage(g, arr)
            n0, n1, n2, n3 = cov.counts
            assert n0 + n1 + n2 + n3 == m
            assert n1 + 2 * n2 + 3 * n3 == 3 * n // 2
            # recount by hand
            for e in range(m):
                assert cov.multiplicity[e] == sum(e in mm for mm in arr.matchings)
            assert cov.uncovered == frozenset(e for e in range(m) if cov.multiplicity[e] == 0)
            assert cov.doubly == frozenset(e for e in range(m) if cov.multiplicity[e] == 2)
            assert cov.triply == frozenset(e for e in range(m) if cov.multiplicity[e] == 3)


def test_core_structure_on_sampled_arrays(petersen, j5):
    """Vertex patterns: all-simple, uncovered+doubly, or uncovered+uncovered+triply."""
    rng = random.Random(4251)
    for g in (petersen, j5):
        ms = sd.enumerate_perfect_matchings(g)
        for _ in range(100):
            arr = sd.ThreeArray.of(*(rng.choice(ms) for _ in range(3)))
            cov = sd.coverage(g, arr)
            core = sd.core_of(g, arr)
            assert core.edges == cov.uncovered | cov.doubly | cov.triply
            for v in range(g.vertex_count):
                mults = sorted(cov.multiplicity[e] for e in g.incident_edges(v))
                assert mults in ([1, 1, 1], [0, 1, 2], [0, 0, 3])
            # components partition the core edge set
            comp_edges = [e for c in core.components for e in c.edges]
            assert sorted(comp_edges) == sorted(core.edges)
            for comp in core.components:
                if comp.kind == "EVEN_ALTERNATING_CIRCUIT":
                    assert len(comp.edges) % 2 == 0
                    assert not (set(comp.edges) & core.triply)
                else:
                    assert comp.kind == "CUBIC_SUBDIVISION"
                    assert set(comp.edges) & core.triply


def test_regular_core_alternates(petersen):
    """On a regular array the core is 2-regular: walk each circuit and check
    that uncovered and doubly covered edges strictly alternate."""
    res = sd.regular_defect(petersen)
    core = sd.core_of(petersen, res.witness)
    assert core.triply == frozenset()
    for comp in core.components:
        assert comp.kind == "EVEN_ALTERNATING_CIRCUIT"
        # build the cyclic order by hand
        edges = set(comp.edges)
        e0 = min(edges)
        walk = [e0]
        v = petersen.endpoints(e0)[1]
        while len(walk) < len(edges):
            nxt = next(e for e in petersen.incident_edges(v)
                       if e in edges and e != walk[-1])
            walk.append(nxt)
            a, b = petersen.endpoints(nxt)
            v = b if a == v else a
        kinds = ["u" if e in core.uncovered else "d" for e in walk]
        assert all(kinds[i] != kinds[(i + 1) % len(kinds)] for i in range(len(kinds)))


def test_petersen_core_golden(petersen):
    res = sd.regular_defect(petersen)
    core = sd.core_of(petersen, res.witness)
    assert sorted(core.uncovered) == [2, 4, 14]
    assert sorted(core.doubly) == [0, 10, 13]
    comp, = core.components
    assert comp.kind == "EVEN_ALTERNATING_CIRCUIT"
    assert comp.vertices == (0, 1, 5, 6, 7, 9)
    assert comp.edges == (0, 2, 4, 10, 13, 14)
    assert sd.is_induced_circuit(petersen, comp)


def test_is_induced_circuit(k4):
    # a K4 triangle is induced ...
    tri = sd.CoreComponent(kind="EVEN_ALTERNATING_CIRCUIT",
                           vertices=(0, 1, 2), edges=(0, 1, 3))
    assert sd.is_induced_circuit(k4, tri)
    # ... but the 4-circuit 0-1-2-3 has two chords
    quad = sd.CoreComponent(kind="EVEN_ALTERNATING_CIRCUIT",
                            vertices=(0, 1, 2, 3), edges=(0, 2, 3, 5))
    assert not sd.is_induced_circuit(k4, quad)


# --------------------------------------------------------------------------
# budgets, threads, determinism
# --------------------------------------------------------------------------

def test_budget_truncation_is_reported(petersen, k4):
    res = sd.defect(petersen, budget=sd.SearchBudget(max_triples=5))
    assert res.value == 6
    assert not res.exhaustive
    assert res.status == "UPPER_BOUND"
    res = sd.defect(k4, budget=sd.SearchBudget(max_matchings=1))
    assert res.value == 4  # one matching repeated thrice covers two edges
    assert not res.exhaustive


def test_budget_with_lower_bound_hit_stays_exact(petersen):
    # a snark cannot go below 3, so finding 3 is proof even when capped
    res = sd.defect(petersen, budget=sd.SearchBudget(max_matchings=3))
    assert res.value == 3
    assert res.exhaustive
    assert res.status == "EXACT"


def test_matching_cap_on_colourable_graph_enumerates_only_the_prefix(monkeypatch, cube):
    # an all-even 2-factor among the capped matchings proves colourability,
    # so the capped search never enumerates every matching
    from snarkdefect import colouring, defect_engine
    limits = []

    def counted(g, limit=None):
        limits.append(limit)
        return enumerate_all(g, limit)

    enumerate_all = colouring.enumerate_perfect_matchings
    monkeypatch.setattr(colouring, "enumerate_perfect_matchings", counted)
    sd.defect(cube, budget=sd.SearchBudget(max_matchings=2))
    assert limits == [3]


def test_matching_cap_holding_every_matching_enumerates_once(monkeypatch, petersen):
    # the capped prefix is the whole list, so colourability reuses it
    from snarkdefect import colouring
    limits = []
    enumerate_all = colouring.enumerate_perfect_matchings

    def counted(g, limit=None):
        limits.append(limit)
        return enumerate_all(g, limit)

    monkeypatch.setattr(colouring, "enumerate_perfect_matchings", counted)
    res = sd.defect(petersen, budget=sd.SearchBudget(max_matchings=6))
    assert limits == [7]
    assert (res.value, res.exhaustive) == (3, True)


def test_threads_do_not_change_results(petersen, j5):
    for g in (petersen, j5):
        base = sd.regular_defect(g)
        for t in (1, 2, 8):
            again = sd.regular_defect(g, threads=t)
            assert again.value == base.value
            assert witness_lists(again.witness) == witness_lists(base.witness)
            assert again.exhaustive == base.exhaustive


def test_budgeted_search_ignores_thread_count(petersen):
    budget = sd.SearchBudget(max_triples=5)
    base = sd.defect(petersen, budget=budget)
    for t in (2, 8):
        again = sd.defect(petersen, budget=budget, threads=t)
        assert (again.value, witness_lists(again.witness)) == \
            (base.value, witness_lists(base.witness))


# --------------------------------------------------------------------------
# optimal-array enumeration
# --------------------------------------------------------------------------

def test_enumerate_optimal_arrays_petersen(petersen):
    arrays = sd.enumerate_optimal_arrays(petersen, regular=True)
    assert len(arrays) == 20
    first = sd.regular_defect(petersen).witness
    assert witness_lists(arrays[0]) == witness_lists(first)
    for arr in arrays:
        assert arr.is_regular
        assert sd.coverage(petersen, arr).counts[0] == 3
    # lexicographic on the sorted matching lists
    keys = [tuple(tuple(m) for m in arr.sorted_lists()) for arr in arrays]
    assert keys == sorted(keys)


def test_enumerate_optimal_arrays_k4(k4):
    regular = sd.enumerate_optimal_arrays(k4, regular=True)
    anykind = sd.enumerate_optimal_arrays(k4, regular=False)
    assert len(regular) == len(anykind) == 1
    # the three colour classes, nothing else, cover K4 perfectly
    assert witness_lists(regular[0]) == [[0, 5], [1, 4], [2, 3]]


def test_enumerate_optimal_arrays_explicit_target(petersen):
    assert len(sd.enumerate_optimal_arrays(petersen, regular=True, target=3)) == 20
    # Petersen matchings pairwise share one edge: 4 uncovered is unreachable
    assert sd.enumerate_optimal_arrays(petersen, regular=True, target=4) == []
    assert sd.enumerate_optimal_arrays(petersen, regular=True, target=2) == []


@pytest.mark.parametrize("regular", [False, True])
def test_enumerate_optimal_arrays_matches_brute_force(theta, k4, k33, prism, cube, petersen,
                                                      j3, regular):
    suite = [theta, k4, k33, prism, cube, petersen, j3]
    rng = random.Random(20260815)
    suite += [g for g in (sd.CubicGraph(n, oracles.random_cubic_edges(rng, n))
                          for n in [4, 6, 8, 10, 12] * 20) if sd.is_bridgeless(g)]
    for g in suite:
        pms = oracles.perfect_matchings(g.vertex_count, edge_pairs(g))
        scored = []
        for triple in itertools.combinations_with_replacement(pms, 3):
            sets = [set(t) for t in triple]
            if not (regular and sets[0] & sets[1] & sets[2]):
                scored.append((g.edge_count - len(sets[0] | sets[1] | sets[2]), triple))
        best = min(v for v, _ in scored)
        want = [[list(t) for t in triple] for v, triple in scored if v == best]
        got = sd.enumerate_optimal_arrays(g, regular=regular)
        assert [[list(t) for t in a.sorted_lists()] for a in got] == want, g.edges


def test_enumerate_optimal_arrays_target_is_a_claimed_optimum(k4, dumbbell):
    assert len(sd.enumerate_optimal_arrays(k4, regular=False, target=0)) == 1
    # arrays leaving two edges uncovered exist, but 2 is not the optimum
    assert sd.enumerate_optimal_arrays(k4, regular=False, target=2) == []
    with pytest.raises(sd.GraphError, match="bridge"):
        sd.enumerate_optimal_arrays(dumbbell, regular=False, target=0)


def test_enumerate_optimal_arrays_threads_agree(j5):
    one = sd.enumerate_optimal_arrays(j5, regular=True, threads=1)
    four = sd.enumerate_optimal_arrays(j5, regular=True, threads=4)
    assert len(one) == 80
    assert [witness_lists(a) for a in one] == [witness_lists(a) for a in four]


# --------------------------------------------------------------------------
# derived checks
# --------------------------------------------------------------------------

def test_check_girth_bound(petersen, k4, j5, blanusa1):
    for g in (petersen, k4, j5, blanusa1):
        assert sd.check_girth_bound(g, sd.regular_defect(g))


def test_check_girth_bound_needs_regular_result(k4):
    with pytest.raises(sd.GraphError, match="regular"):
        sd.check_girth_bound(k4, sd.defect(k4))


def test_corollary_rdf3(petersen, k4, j3, j5, blanusa1, blanusa2):
    for g in (petersen, k4, j3, j5, blanusa1, blanusa2):
        assert sd.verify_corollary_rdf3(g)


def test_sentinels():
    assert repr(sd.UNKNOWN) == "UNKNOWN"
    assert repr(sd.NONE_FOUND) == "NONE_FOUND"
    assert sd.UNKNOWN is not sd.NONE_FOUND
