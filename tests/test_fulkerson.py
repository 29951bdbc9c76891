"""Six-matching covers, complementary pairs, and the flow translations."""

import gc
import random
import re
import time
import tracemalloc

import pytest

import snarkdefect as sd
import oracles
from snarkdefect import cli
from conftest import SEED

PETERSEN_COVER = [
    [0, 5, 9, 10, 12], [0, 6, 7, 11, 13], [1, 3, 8, 10, 13],
    [1, 4, 5, 11, 14], [2, 3, 7, 12, 14], [2, 4, 6, 8, 9],
]


def cover_lists(cover):
    return sorted(sorted(m) for m in cover.matchings)


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

def test_verify_cover_petersen(petersen):
    ms = sd.enumerate_perfect_matchings(petersen)
    cover = sd.FulkersonCover.of(petersen, ms)
    chk = sd.verify_cover(petersen, cover)
    assert chk.ok
    assert chk.multiplicities == (2,) * 15
    assert chk.violation is None
    assert bool(chk)


def test_verify_cover_flags_wrong_multiplicity(petersen):
    ms = sd.enumerate_perfect_matchings(petersen)
    tampered = sd.FulkersonCover.of(petersen, ms[:5] + [ms[0]])
    chk = sd.verify_cover(petersen, tampered)
    assert not chk.ok
    assert chk.violation == "edge 0 is covered 3 times, expected 2"
    assert chk.multiplicities[0] == 3
    with pytest.raises(sd.GraphError, match="^invalid cover: edge 0 is covered 3 times"):
        sd.cover_to_complementary(tampered)


def test_verify_cover_rejects_non_matching_member(petersen):
    ms = sd.enumerate_perfect_matchings(petersen)
    bad = sd.FulkersonCover.of(petersen, ms[:5] + [frozenset({0, 1, 9, 10, 12})])
    with pytest.raises(sd.GraphError, match="matching"):
        sd.verify_cover(petersen, bad)


def test_cover_of_needs_six(petersen):
    ms = sd.enumerate_perfect_matchings(petersen)
    with pytest.raises(sd.GraphError, match="six"):
        sd.FulkersonCover.of(petersen, ms[:5])
    with pytest.raises(sd.GraphError, match="^expected six matchings, got 5$"):
        sd.verify_cover(petersen, ms[:5])


def test_cover_of_canonicalises(petersen):
    ms = sd.enumerate_perfect_matchings(petersen)
    shuffled = [ms[4], ms[0], ms[5], ms[2], ms[1], ms[3]]
    assert cover_lists(sd.FulkersonCover.of(petersen, shuffled)) == PETERSEN_COVER


# --------------------------------------------------------------------------
# search
# --------------------------------------------------------------------------

def test_find_cover_petersen_uses_all_six(petersen):
    cover = sd.find_cover(petersen)
    assert cover is not sd.NONE_FOUND
    assert cover_lists(cover) == PETERSEN_COVER
    assert sd.verify_cover(petersen, cover).ok


def test_find_cover_k4_doubles_the_colour_classes(k4):
    cover = sd.find_cover(k4)
    assert cover_lists(cover) == [[0, 5], [0, 5], [1, 4], [1, 4], [2, 3], [2, 3]]


def test_find_cover_theta(theta):
    cover = sd.find_cover(theta)
    assert cover_lists(cover) == [[0], [0], [1], [1], [2], [2]]


def test_find_cover_larger_snarks(j5, blanusa1):
    for g in (j5, blanusa1):
        cover = sd.find_cover(g)
        assert sd.verify_cover(g, cover).ok


def reference_cover(g):
    """The oracle's cover, over the brute-force matching list where that is
    quick, else over the unpruned search-order enumeration, sorted."""
    n, edges = g.vertex_count, oracles.edge_pairs(g)
    if n <= 12:
        return oracles.fulkerson_cover(n, edges)
    pms = sorted(tuple(sorted(m)) for m in oracles.search_order_perfect_matchings(g))
    return oracles.fulkerson_cover(n, edges, pms)


def test_find_cover_matches_the_reference_search(petersen, k4, theta, j3, j5, j7,
                                                  blanusa1, blanusa2):
    suite = [petersen, k4, theta, j3, j5, j7, sd.flower_snark(9), blanusa1, blanusa2,
             sd.bipartite_double(petersen)]
    rng = random.Random(SEED)
    randoms = []
    while len(randoms) < 200:
        n = rng.randrange(4, 26, 2)
        g = sd.CubicGraph(n, oracles.random_cubic_edges(rng, n))
        if sd.is_bridgeless(g):
            randoms.append(g)
    for g in suite + randoms:
        assert cover_lists(sd.find_cover(g)) == [list(t) for t in reference_cover(g)], g.edges


@pytest.mark.parametrize("name, nodes", [("j5", 36), ("j7", 70)])
def test_find_cover_node_count(request, name, nodes):
    """One node is one member placed; the closing pair is looked up, so
    the search places few members that lead nowhere."""
    g = request.getfixturevalue(name)
    assert sd.verify_cover(g, sd.find_cover(g, max_nodes=nodes)).ok
    with pytest.raises(sd.BudgetError, match=f"exceeded {nodes - 1} nodes"):
        sd.find_cover(g, max_nodes=nodes - 1)


def test_find_cover_matching_cap_holds_exactly_that_many(petersen):
    assert cover_lists(sd.find_cover(petersen, max_matchings=6)) == PETERSEN_COVER
    with pytest.raises(sd.BudgetError, match="more than 5 perfect matchings"):
        sd.find_cover(petersen, max_matchings=5)


@pytest.mark.parametrize("search", [
    lambda g: sd.find_cover(g, max_matchings=0),
    lambda g: sd.defect(g, facts=sd.GraphFacts(g, 0)),
    lambda g: sd.regular_defect(g, facts=sd.GraphFacts(g, -1)),
    lambda g: cli.analyze_graph(g, 0),
])
def test_matching_cap_below_one_is_an_input_error(petersen, search):
    with pytest.raises(sd.GraphError, match="max_matchings must be at least 1") as info:
        search(petersen)
    assert not isinstance(info.value, sd.BudgetError)


@pytest.mark.parametrize("search, message", [
    (lambda g: sd.defect(g, -5), "max_triples must be at least 0"),
    (lambda g: sd.regular_defect(g, -1), "max_triples must be at least 0"),
    (lambda g: sd.find_cover(g, max_nodes=-1), "max_nodes must be at least 0"),
    (lambda g: cli.analyze_graph(g, None, -1), "max_triples must be at least 0"),
])
def test_negative_search_budget_is_an_input_error(petersen, search, message):
    with pytest.raises(sd.GraphError, match=message) as info:
        search(petersen)
    assert not isinstance(info.value, sd.BudgetError)


@pytest.mark.parametrize("value", [1.5, True, "3"])
@pytest.mark.parametrize("search, name", [  # every entry point of a search budget
    pytest.param(lambda g, b: sd.GraphFacts(g, b), "max_matchings", id="GraphFacts"),
    pytest.param(lambda g, b: sd.find_cover(g, max_matchings=b), "max_matchings",
                 id="find_cover-max_matchings"),
    pytest.param(lambda g, b: cli.analyze_graph(g, b), "max_matchings",
                 id="analyze_graph-max_matchings"),
    pytest.param(lambda g, b: sd.defect(g, b), "max_triples", id="defect"),
    pytest.param(lambda g, b: sd.regular_defect(g, b), "max_triples", id="regular_defect"),
    pytest.param(lambda g, b: cli.analyze_graph(g, None, b), "max_triples",
                 id="analyze_graph-max_triples"),
    pytest.param(lambda g, b: sd.find_cover(g, max_nodes=b), "max_nodes",
                 id="find_cover-max_nodes"),
])
def test_search_budget_that_is_not_an_int_is_an_input_error(petersen, search, name, value):
    # a bool is not an int here, as it is not a vertex or edge id; a
    # float or a bool was read as a number, and a cap of 1.5 never
    # stopped the oddness walk
    with pytest.raises(sd.GraphError, match=re.escape(f"{name} {value!r} is not an int")) as info:
        search(petersen, value)
    assert not isinstance(info.value, sd.BudgetError)

def test_find_cover_rejects_bridges(dumbbell):
    with pytest.raises(sd.GraphError, match="bridgeless"):
        sd.find_cover(dumbbell)


def test_find_cover_budgets(petersen):
    with pytest.raises(sd.BudgetError, match="perfect matchings"):
        sd.find_cover(petersen, max_matchings=3)
    with pytest.raises(sd.BudgetError, match="nodes"):
        sd.find_cover(petersen, max_nodes=1)


@pytest.mark.parametrize("search", [
    lambda g: sd.find_cover(g),
    lambda g: sd.find_cover(g, max_nodes=3),
    lambda g: sd.nz_4flow(g),
    lambda g: sd.three_edge_colour(g),
    lambda g: sd.enumerate_colourings(g),
    lambda g: sd.five_circuits(g),
    lambda g: sd.canonical_form(g),
], ids=["find-cover", "find-cover-budget", "nz-4flow", "three-edge-colour",
        "enumerate-colourings", "five-circuits", "canonical-form"])
def test_searches_leave_no_reference_cycles(j5, search):
    # the recursive closures refer to themselves; unless the search empties
    # their cells, what they capture waits for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        try:
            search(j5)
        except sd.BudgetError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


# --------------------------------------------------------------------------
# complementary pairs
# --------------------------------------------------------------------------

def test_cover_to_complementary_petersen(petersen):
    pair = sd.cover_to_complementary(sd.find_cover(petersen))
    assert pair.graph is petersen
    assert sd.check_complementary(petersen, pair.first, pair.second) is None
    cov1 = sd.coverage(petersen, pair.first)
    cov2 = sd.coverage(petersen, pair.second)
    assert sorted(cov1.uncovered) == [2, 4, 14]
    assert sorted(cov2.uncovered) == [0, 10, 13]
    # identical cores, swapped roles
    assert cov1.uncovered == cov2.doubly
    assert cov2.uncovered == cov1.doubly


def test_splits_of_a_cover_are_complementary(petersen, k4, j5):
    """Any 3+3 split of a Fulkerson cover gives a complementary pair."""
    import itertools
    for g in (petersen, k4, j5):
        cover = sd.find_cover(g)
        for picks in itertools.combinations(range(6), 3):
            rest = [i for i in range(6) if i not in picks]
            a = sd.ThreeArray.of(*(cover.matchings[i] for i in picks))
            b = sd.ThreeArray.of(*(cover.matchings[i] for i in rest))
            assert sd.check_complementary(g, a, b) is None


def test_check_complementary_messages(petersen):
    ms = sd.enumerate_perfect_matchings(petersen)
    arr = sd.regular_defect(petersen).witness
    triply = sd.ThreeArray.of(ms[0], ms[0], ms[0])
    assert "regular" in sd.check_complementary(petersen, triply, arr)
    assert sd.check_complementary(petersen, arr, triply) == "second array is not regular"
    assert sd.check_complementary(petersen, arr, arr) == \
        "uncovered sets intersect in [2, 4, 14]"
    with pytest.raises(sd.GraphError, match="^invalid complementary pair: uncovered sets"):
        sd.complementary_to_flows(petersen, sd.ComplementaryPair(petersen, arr, arr))
    # a regular pair that is not complementary
    other = sd.ThreeArray.of(ms[0], ms[2], ms[4])
    msg = sd.check_complementary(petersen, arr, other)
    assert msg is not None


# --------------------------------------------------------------------------
# flows from pairs and back
# --------------------------------------------------------------------------

def test_complementary_to_flows_petersen(petersen):
    pair = sd.cover_to_complementary(sd.find_cover(petersen))
    p1, p2, f1, f2 = sd.complementary_to_flows(petersen, pair)
    assert sorted(p1) == [2, 4, 14]
    assert sorted(p2) == [0, 10, 13]
    assert f1.removed == p1 and f2.removed == p2
    assert sd.verify_group_flow(f1).ok
    assert sd.verify_group_flow(f2).ok
    with pytest.raises(KeyError, match="edge 2 is not in the flow's subgraph"):
        f1.value(2)
    # simply covered edge: the flow names its member matching
    for e in range(15):
        if f1.values[e] is None:
            continue
        members = [i for i in range(3) if e in pair.first.matchings[i]]
        if len(members) == 1:
            assert f1.values[e] == members[0] + 1
        else:  # doubly covered: the flow names the avoided matching
            avoided = [i for i in range(3) if e not in pair.first.matchings[i]]
            assert len(avoided) == 1 and f1.values[e] == avoided[0] + 1


def test_roundtrip_is_identity(petersen, k4, j5, blanusa1):
    for g in (petersen, k4, j5, blanusa1):
        cover = sd.find_cover(g)
        pair = sd.cover_to_complementary(cover)
        p1, p2, f1, f2 = sd.complementary_to_flows(g, pair)
        rebuilt = sd.flows_to_cover(g, p1, p2, f1, f2)
        assert cover_lists(rebuilt) == cover_lists(cover)
        assert sd.verify_cover(g, rebuilt).ok


def test_rebuild_respects_membership_rule(petersen):
    """Edges uncovered in the second array get their two member slots from
    the first half of the rebuilt cover, avoiding index phi1(x)."""
    cover = sd.find_cover(petersen)
    pair = sd.cover_to_complementary(cover)
    p1, p2, f1, f2 = sd.complementary_to_flows(petersen, pair)
    rebuilt = sd.flows_to_cover(petersen, p1, p2, f1, f2)
    for e in sorted(p2):
        slots = [i for i, m in enumerate(rebuilt.matchings, start=1) if e in m]
        assert len(slots) == 2
        assert set(slots) <= {1, 2, 3}
        assert f1.value(e) not in slots
    for e in sorted(p1):
        slots = [i for i, m in enumerate(rebuilt.matchings, start=1) if e in m]
        assert set(slots) <= {4, 5, 6}
        assert f2.value(e) + 3 not in slots


def test_flows_to_cover_validates_inputs(petersen, dumbbell):
    pair = sd.cover_to_complementary(sd.find_cover(petersen))
    p1, p2, f1, f2 = sd.complementary_to_flows(petersen, pair)
    with pytest.raises(sd.GraphError):
        sd.flows_to_cover(petersen, p1, p1, f1, f2)        # identical sets
    with pytest.raises(sd.GraphError):
        sd.flows_to_cover(petersen, frozenset({0, 1}), p2, f1, f2)  # adjacent edges
    broken = sd.GroupFlow(petersen, f1.removed,
                          tuple(0 if v == 1 else v for v in f1.values))
    with pytest.raises(sd.GraphError):
        sd.flows_to_cover(petersen, p1, p2, broken, f2)
    for bad in (99, -1):  # ids that are not edges of the graph
        with pytest.raises(sd.GraphError, match="not an edge id"):
            sd.flows_to_cover(petersen, p1 | {bad}, p2, f1, f2)
    with pytest.raises(sd.GraphError, match="circuits"):  # P1 and P2 meet different vertices
        sd.flows_to_cover(petersen, frozenset(sorted(p1)[1:]), p2, f1, f2)
    # two edges at vertex 2 that P2 does not hold
    at_2 = frozenset(e for e, _ in petersen.incident_ends(2) if e not in p2)
    with pytest.raises(sd.GraphError, match="^P1/P2 is not a matching$"):
        sd.flows_to_cover(petersen, at_2, p2, f1, f2)
    with pytest.raises(sd.GraphError, match="^flow domain does not match its matching$"):
        sd.flows_to_cover(petersen, p1, p2, f2, f1)
    with pytest.raises(sd.GraphError, match="^edge 0 is a loop, not a matching edge$"):
        sd.flows_to_cover(dumbbell, frozenset({0}), frozenset(), f1, f2)


# --------------------------------------------------------------------------
# group flows
# --------------------------------------------------------------------------

def test_verify_group_flow_violations(petersen, k33):
    good = sd.nz_4flow(k33)
    assert sd.verify_group_flow(good).ok
    # a corrupted value breaks Kirchhoff at its endpoints
    values = list(good.values)
    values[0] = values[0] % 3 + 1
    chk = sd.verify_group_flow(sd.GroupFlow(k33, frozenset(), tuple(values)))
    assert not chk.ok and "expected 0" in chk.violation
    # out-of-range entry
    values = list(good.values)
    values[0] = 5
    assert not sd.verify_group_flow(sd.GroupFlow(k33, frozenset(), tuple(values))).ok
    # a removed edge must carry None
    chk = sd.verify_group_flow(sd.GroupFlow(k33, frozenset({0}), good.values))
    assert not chk.ok
    # and present edges must not
    values = list(good.values)
    values[0] = None
    assert not sd.verify_group_flow(sd.GroupFlow(k33, frozenset(), tuple(values))).ok
    # length mismatch
    assert not sd.verify_group_flow(sd.GroupFlow(k33, frozenset(), good.values[:-1])).ok


def test_nz_4flow_on_colourable_graphs(theta, k4, k33, prism, cube):
    for g in (theta, k4, k33, prism, cube):
        flow = sd.nz_4flow(g)
        assert flow is not None
        assert sd.verify_group_flow(flow).ok
        assert flow.removed == frozenset()


def test_nz_4flow_k33_golden(k33, cube, prism, j5, petersen):
    assert sd.nz_4flow(k33).values == (1, 3, 2, 2, 1, 3, 3, 2, 1)

    def word(g, removed=()):  # the values as digits, "-" on removed edges
        return "".join("-" if v is None else str(v) for v in sd.nz_4flow(g, removed).values)

    assert word(cube) == "132321221331"
    assert word(prism) == "321123321"
    assert word(sd.bipartite_double(petersen)) == "322113123113321223332312312211"
    assert sd.nz_4flow(j5) is None
    assert word(j5, sd.enumerate_perfect_matchings(j5)[0]) == "-11-11-11-11-1111111-11-1-1-1-"
    assert [word(petersen, m) for m in sd.enumerate_perfect_matchings(petersen)] == [
        "-1111-111--1-11", "-11111--111-1-1", "1-1-1111-1-11-1",
        "1-11--11111-11-", "11--111-1111-1-", "11-1-1-1--11111"]
    # two non-adjacent edges removed: the search passes S1 = 0
    assert [word(petersen, r) for r in ((0, 14), (3, 12), (5, 10))] == [
        "-3333211321212-", "213-23321321-21", "31212-1332-2131"]


def test_petersen_has_no_nz_4flow(petersen):
    assert sd.nz_4flow(petersen) is None


def test_petersen_minus_any_matching_has_a_flow(petersen):
    for m in sd.enumerate_perfect_matchings(petersen):
        flow = sd.nz_4flow(petersen, removed=m)
        assert flow is not None
        assert flow.removed == m
        assert sd.verify_group_flow(flow).ok
        assert all(flow.values[e] is None for e in m)


def test_nz_4flow_equivalent_to_colourability(theta, k4, k33, prism, cube,
                                              petersen, j3, j5, blanusa1, blanusa2):
    for g in (theta, k4, k33, prism, cube, petersen, j3, j5, blanusa1, blanusa2):
        assert (sd.nz_4flow(g) is not None) == (sd.three_edge_colour(g) is not None)


def test_nz_4flow_rejects_bridgy_subgraph(petersen, k4):
    # cutting two of vertex 0's edges leaves the third as a bridge
    with pytest.raises(sd.GraphError, match="bridge"):
        sd.nz_4flow(petersen, removed=(0, 1))
    with pytest.raises(sd.GraphError, match="^removed edge 15 out of range$"):
        sd.nz_4flow(petersen, removed=(15,))
    # edge ids are ints: 1.5 would remove nothing, True would alias edge 1
    with pytest.raises(sd.GraphError, match=r"^removed edge 1\.5 out of range$"):
        sd.nz_4flow(k4, removed=(1.5,))
    with pytest.raises(sd.GraphError, match="^removed edge True out of range$"):
        sd.nz_4flow(petersen, removed=(True,))


def test_nz_4flow_dimension_gate(petersen):
    with pytest.raises(sd.SizeGateError):
        sd.nz_4flow(petersen, max_dimension=2)


def flower_minus_matching(k):
    """J_k and the perfect matching of hub i with inner vertex k + i and
    of alternate edges of the outer 2k-circuit."""
    g = sd.flower_snark(k)
    outer = [2 * k + i for i in range(k)] + [3 * k + i for i in range(k)]
    pairs = {(i, k + i) for i in range(k)} | {(outer[j], outer[j + 1]) for j in range(0, 2 * k, 2)}
    return g, [e for e in range(g.edge_count) if g.endpoints(e) in pairs]


@pytest.mark.parametrize("drop_matching", [False, True], ids=["gated", "minus-matching"])
def test_nz_4flow_memory_is_linear_on_large_graphs(drop_matching):
    # J_2001 has 8004 vertices and 12006 edges: its cycle space dimension
    # 4003 is refused after one walk, and without the matching it is 2;
    # neither keeps an edge mask per vertex
    g, matching = flower_minus_matching(2001)
    removed = matching if drop_matching else ()
    tracemalloc.start()
    start = time.process_time()
    try:
        if drop_matching:
            flow = sd.nz_4flow(g, removed)
        else:
            with pytest.raises(sd.SizeGateError, match="dimension 4003 "):
                sd.nz_4flow(g, removed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 3.0
    assert peak < 400 * g.edge_count
    if drop_matching:
        assert sd.verify_group_flow(flow).ok
