"""Edge colourings, matchings, parity, and the snark predicates."""

import random
import time

import pytest

import snarkdefect as sd
import oracles
from snarkdefect import colouring
from oracles import edge_pairs

PETERSEN_MATCHINGS = [
    (0, 5, 9, 10, 12), (0, 6, 7, 11, 13), (1, 3, 8, 10, 13),
    (1, 4, 5, 11, 14), (2, 3, 7, 12, 14), (2, 4, 6, 8, 9),
]


def as_sorted_maps(colourings):
    return sorted(tuple(sorted(c.items())) for c in colourings)


# --------------------------------------------------------------------------
# colouring enumeration against the 3^m oracle
# --------------------------------------------------------------------------

def test_enumeration_matches_oracle_tiny(theta, k4, dumbbell, k33, prism):
    cases = [
        theta, k4, dumbbell, k33, prism,
        sd.Multipole(1, [(0, None)] * 3),          # one tripole
        sd.Multipole(1, [(0, 0), (0, None)]),      # loop plus a semiedge
        sd.z_pole(),
    ]
    for m in cases:
        ends = [tuple(m.endpoints(e)) for e in range(m.edge_count)]
        got = as_sorted_maps(sd.enumerate_colourings(m))
        want = as_sorted_maps(oracles.all_colourings(ends))
        assert got == want


def test_colouring_counts(theta, k4, dumbbell):
    assert len(sd.enumerate_colourings(theta)) == 6
    assert len(sd.enumerate_colourings(k4)) == 6
    assert sd.enumerate_colourings(dumbbell) == []
    z = sd.z_pole()
    # 6 ways round the vertex x 3 x 3 for the two isolated edges
    assert len(sd.enumerate_colourings(z)) == 54


def test_enumerate_colourings_limit(k4):
    first_two = sd.enumerate_colourings(k4, limit=2)
    assert first_two == sd.enumerate_colourings(k4)[:2]


def test_colour_symmetry_cut_keeps_every_colouring(theta, k4, k33, prism, cube):
    """Stopping after colour 1 fails on the first edge loses nothing: the
    full enumeration still agrees with a plain backtracking count."""
    cases = [theta, k4, k33, prism, cube, sd.z_pole(), sd.Multipole(1, [(0, None)] * 3)]
    rng = random.Random(20261018)
    cases += [g for g in (sd.CubicGraph(n, oracles.random_cubic_edges(rng, n))
                          for n in [4, 6, 8] * 8) if sd.three_edge_colour(g) is not None]
    for m in cases:
        ends = [tuple(m.endpoints(e)) for e in range(m.edge_count)]
        got = sd.enumerate_colourings(m)
        assert len(got) == oracles.count_colourings(ends) > 0, ends
        assert all(sd.check_colouring(m, c) is None for c in got)
        assert len(as_sorted_maps(got)) == len(set(as_sorted_maps(got)))
        assert sd.three_edge_colour(m) == got[0]


def test_colourings_come_in_lexicographic_order(theta, k4, k33):
    """The list is the 3^m product scan's, in its order, edge 0 first,
    and ``limit`` takes a prefix of it."""
    cases = [
        theta, k4, k33,
        sd.Multipole(1, [(0, None)] * 3),          # one tripole
        sd.Multipole(1, [(0, 0), (0, None)]),      # loop plus a semiedge
        sd.z_pole(),
    ]
    for m in cases:
        want = oracles.all_colourings([tuple(m.endpoints(e)) for e in range(m.edge_count)])
        assert sd.enumerate_colourings(m) == want
        for limit in (1, 2, 5):
            assert sd.enumerate_colourings(m, limit) == want[:limit]


def test_colourings_match_the_propagating_search(k33, prism, cube, petersen, j5):
    """The same lists, limit prefixes included, as the propagating
    colourer the package used before.  Full lists up to 10 vertices; on
    J5 poles the reference's dead search takes seconds for a full list and
    up to 0.3 s for ten colourings, so those run at limit 10 alone."""
    rng = random.Random(20261018)
    bases = [k33, prism, cube, petersen, j5]
    poles = [sd.remove_vertices(g, rng.sample(range(g.vertex_count), rng.randint(1, 3)))[0]
             for g in (rng.choice(bases) for _ in range(30))]
    poles += [sd.CubicGraph(n, oracles.random_cubic_edges(rng, n)) for n in [2, 4, 6, 8, 10] * 6]
    for m in poles:
        for limit in (None, 1, 10) if m.vertex_count <= 10 else (10,):
            assert sd.enumerate_colourings(m, limit) == oracles.search_order_colourings(m, limit)


def test_colouring_limits(k4, petersen):
    assert sd.enumerate_colourings(k4, limit=0) == []
    with pytest.raises(sd.GraphError, match="^limit must be at least 0$"):
        sd.enumerate_colourings(k4, limit=-1)
    # a limit is an int, and a bool is not one: 1.5 would list all 18
    # colourings of this pole, and True would act as 1
    pole, _, _ = sd.remove_vertices(petersen, (0, 1))
    for limit in (1.5, True):
        with pytest.raises(sd.GraphError, match=rf"^limit {limit!r} is not an int$"):
            sd.enumerate_colourings(pole, limit=limit)


def test_three_edge_colour_on_a_long_prism():
    """3,000 edges, deeper than the default recursion limit."""
    rungs = 1000
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    edges += [(2 * i + s, (2 * i + 2) % (2 * rungs) + s) for i in range(rungs) for s in (0, 1)]
    g = sd.CubicGraph(2 * rungs, edges)
    assert sd.check_colouring(g, sd.three_edge_colour(g)) is None


def test_three_edge_colour_on_colourables(theta, k4, k33, prism, cube):
    for g in (theta, k4, k33, prism, cube):
        col = sd.three_edge_colour(g)
        assert col is not None
        assert sd.check_colouring(g, col) is None


def test_three_edge_colour_on_snarks(petersen, j3, j5, j7, blanusa1, blanusa2):
    for g in (petersen, j3, j5, j7, blanusa1, blanusa2):
        assert sd.three_edge_colour(g) is None


def test_check_colouring_messages(k4):
    assert sd.check_colouring(k4, {0: 1, 1: 2, 2: 3, 3: 3, 4: 2, 5: 2}) == \
        "vertex 2: incident colours [2, 3, 2] do not cancel"
    assert sd.check_colouring(k4, {0: 1, 1: 2, 2: 3, 3: 3, 4: 2, 5: 7}) == \
        "edge 5 has no valid colour (got 7)"
    assert "got None" in sd.check_colouring(k4, {0: 1})


def test_colour_classes_are_matchings(k4, theta):
    classes = sd.colour_classes(k4, sd.three_edge_colour(k4))
    assert classes == (frozenset({0, 5}), frozenset({1, 4}), frozenset({2, 3}))
    for cls in classes:
        assert sd.is_perfect_matching(k4, cls)
    for cls in sd.colour_classes(theta, sd.three_edge_colour(theta)):
        assert sd.is_perfect_matching(theta, cls)
    with pytest.raises(sd.GraphError, match="^vertex 2: incident colours"):
        sd.colour_classes(k4, {0: 1, 1: 2, 2: 3, 3: 3, 4: 2, 5: 2})


# --------------------------------------------------------------------------
# perfect matchings
# --------------------------------------------------------------------------

def test_petersen_matchings_golden(petersen):
    got = sd.enumerate_perfect_matchings(petersen)
    assert [tuple(sorted(m)) for m in got] == PETERSEN_MATCHINGS
    # classical: every edge of the Petersen graph lies in exactly two
    for e in range(15):
        assert sum(e in m for m in got) == 2
    # and distinct matchings meet in exactly one edge
    for i in range(6):
        for j in range(i + 1, 6):
            assert len(got[i] & got[j]) == 1


def test_matchings_match_oracle(theta, k4, k33, prism, cube, petersen, j3, dumbbell):
    for g in (theta, k4, k33, prism, cube, petersen, j3, dumbbell):
        want = oracles.perfect_matchings(g.vertex_count, edge_pairs(g))
        got = sd.enumerate_perfect_matchings(g)
        assert [tuple(sorted(m)) for m in got] == want


def test_matching_counts_match_counting_oracle(k33, cube, j5, j7, blanusa1, blanusa2):
    for g in (k33, cube, j5, j7, blanusa1, blanusa2):
        assert len(sd.enumerate_perfect_matchings(g)) == \
            oracles.count_perfect_matchings(g.vertex_count, edge_pairs(g))


def test_matching_enumeration_limit(petersen):
    got, complete = sd.GraphFacts(petersen, 2).prefix()
    assert [tuple(sorted(colouring.edge_set(m))) for m in got] == PETERSEN_MATCHINGS[:2]
    assert not complete


def test_enumeration_is_the_search_order_prefix_for_every_limit(
        petersen, k4, k33, theta, dumbbell, prism, cube, j3, j5, j7, blanusa1, blanusa2):
    """Every cap gives the first ``cap`` matchings of the full
    lexicographic list, the unpruned search's matchings, sorted, and
    tells whether they are all."""
    suite = [petersen, k4, k33, theta, dumbbell, prism, cube, j3, j5, j7, blanusa1, blanusa2]
    rng = random.Random(20261018)
    suite += [sd.CubicGraph(n, oracles.random_cubic_edges(rng, n))
              for n in [2, 4, 6, 8, 10, 12, 14, 16] * 10]
    loops = parallel = empty = 0
    for g in suite:
        order = sorted(oracles.search_order_perfect_matchings(g), key=sorted)
        assert sd.enumerate_perfect_matchings(g) == order, g.edges
        for cap in range(1, len(order) + 2):
            masks, complete = sd.GraphFacts(g, cap).prefix()
            assert [colouring.edge_set(m) for m in masks] == order[:cap], (g.edges, cap)
            assert complete == (cap >= len(order)), (g.edges, cap)
        loops += any(a == b for a, b in g.edges)
        parallel += len(set(g.edges)) < g.edge_count
        empty += not order
    assert min(loops, parallel, empty) >= 3


# a 3-sum of flower:3 and inflate-pair:petersen:0:1 with df 4 and rdf 6
G24 = "WD[CIC@_IGc?????_?G??????AO?Ao?@WC?_?GCG?K???`@"


def _random_multigraphs(seed, count):
    rng = random.Random(seed)
    return [sd.CubicGraph(n, oracles.random_cubic_edges(rng, n))
            for n in [2, 4, 6, 8, 10, 12, 14, 16] * (count // 8)]


def test_mask_kernel_matches_the_pruned_search_it_replaces(petersen, blanusa1, blanusa2):
    """The walk returns the masks of the old pruned search's matchings,
    sorted, and under a cap the first ``cap`` of them."""
    suite = [petersen, blanusa1, blanusa2, sd.bipartite_double(petersen), sd.parse_graph6(G24)]
    suite += [sd.flower_snark(k) for k in (3, 5, 7, 9)]
    suite += _random_multigraphs(20261019, 304)
    loops = parallel = empty = 0
    for g in suite:
        want = [sum(1 << e for e in m)
                for m in sorted(oracles.search_order_matchings(g), key=sorted)]
        for cap in (1, 2, 5, 50):
            masks, complete = sd.GraphFacts(g, cap).prefix()
            assert masks == want[:cap], (g.edges, cap)
            assert complete == (cap >= len(want)), (g.edges, cap)
        got = sd.perfect_matching_masks(g)
        assert got == want, g.edges
        assert len(got) == oracles.count_perfect_matchings(g.vertex_count, edge_pairs(g))
        assert sd.enumerate_perfect_matchings(g) == [colouring.edge_set(m) for m in got]
        loops += any(a == b for a, b in g.edges)
        parallel += len(set(g.edges)) < g.edge_count
        empty += not got
    assert min(loops, parallel, empty) >= 10


def test_edge_columns_match_their_definition(theta, k4, petersen, cube):
    """Bit i of column e is set iff masks[i] holds edge e: edge counts
    below, at (the cube's double, 24) and above a multiple of 8, and
    lists of many masks, of one and of none."""
    graphs = [theta, k4, petersen, sd.bipartite_double(cube), sd.flower_snark(11)]
    graphs += _random_multigraphs(20261022, 56)[:50]
    cases = [(sd.perfect_matching_masks(g), g.edge_count) for g in graphs]
    cases += [(sd.perfect_matching_masks(petersen)[:1], 15), ([], 15), ([], 0)]
    for masks, m in cases:
        want = [sum(1 << i for i, mask in enumerate(masks) if mask >> e & 1) for e in range(m)]
        assert colouring._edge_columns(masks, m) == want, (masks, m)


def test_matching_walk_replays_each_open_edge_set():
    """J17 has 131,072 matchings.  Replaying what it found below each set
    of open edges, the walk lists them in 0.03 s of CPU; keeping only
    its dead ends, it took 1.0-1.4 s (Python 3.11, 2-core x86)."""
    g = sd.flower_snark(17)
    start = time.process_time()
    assert len(sd.perfect_matching_masks(g)) == 131072
    assert time.process_time() - start < 0.3


def test_odd_circuit_walk_counts_the_odd_two_factor_circuits(theta, dumbbell, petersen, j5):
    """On every matching of multigraphs with loops and parallel edges,
    against the union-find components of the 2-factor."""
    checked = 0
    for g in [theta, dumbbell, petersen, j5] + _random_multigraphs(20261020, 304):
        for m in sd.enumerate_perfect_matchings(g):
            want = oracles.two_factor_circuits(g.vertex_count, oracles.edge_pairs(g), m)
            got = colouring._circuits(g, sum(1 << e for e in m))
            assert sorted(map(sorted, got)) == sorted(map(sorted, want)), (g.edges, m)
            odd = sum(len(c) % 2 for c in want)
            assert sum(len(c) & 1 for c in got) == odd, (g.edges, m)
            checked += 1
    assert checked > 1000


def test_is_perfect_matching_rejects_bools(petersen):
    # False and True equal 0 and 1, but JSON false and true are no edge ids
    assert sd.is_perfect_matching(petersen, [0, 5, 9, 10, 12])
    assert not sd.is_perfect_matching(petersen, [False, 5, 9, 10, 12])
    assert not sd.is_perfect_matching(petersen, [True, 4, 5, 11, 14])


def test_odd_graphs_have_no_matching():
    # no perfect matching on an odd vertex count
    assert oracles.count_perfect_matchings(3, [(0, 1), (1, 2)]) == 0


def test_is_perfect_matching(petersen):
    assert sd.is_perfect_matching(petersen, {0, 5, 9, 10, 12})
    assert not sd.is_perfect_matching(petersen, {0, 5, 9, 10})      # misses vertices
    assert not sd.is_perfect_matching(petersen, {0, 1, 9, 10, 12})  # edges 0,1 share vertex 0


# --------------------------------------------------------------------------
# two-factors and oddness
# --------------------------------------------------------------------------

def test_is_perfect_matching_rejects_ids_that_are_not_edges(petersen):
    assert not sd.is_perfect_matching(petersen, [1, 4, 5, 11, -1])  # -1 would alias edge 14
    assert not sd.is_perfect_matching(petersen, [0, 5, 9, 10, 99])
    assert not sd.is_perfect_matching(petersen, [0, 5, 9, 10, "12"])


def test_two_factor_circuits(petersen, k4, theta, dumbbell):
    for m in sd.enumerate_perfect_matchings(petersen):
        circuits = sd.two_factor_circuits(petersen, m)
        assert sorted(len(c) for c in circuits) == [5, 5]
        # circuits are edge-id lists partitioning the complement of m
        assert sorted(e for c in circuits for e in c) == sorted(set(range(15)) - m)
    k4_pm = sd.enumerate_perfect_matchings(k4)[0]
    assert [len(c) for c in sd.two_factor_circuits(k4, k4_pm)] == [4]
    # complement of one theta edge is a 2-circuit of parallel edges
    assert [len(c) for c in sd.two_factor_circuits(theta, frozenset({0}))] == [2]
    # dumbbell: the bridge is a matching, the loops are 1-circuits
    assert sd.two_factor_circuits(dumbbell, frozenset({1})) == [[0], [2]]
    with pytest.raises(sd.GraphError, match="^not a perfect matching$"):
        sd.two_factor_circuits(petersen, frozenset({0, 5}))


def test_oddness(petersen, k4, k33, prism, cube, j3, j5, j7, blanusa1, blanusa2):
    for g in (k4, k33, prism, cube):
        assert sd.oddness(g) == 0
    for g in (petersen, j3, j5, j7, blanusa1, blanusa2):
        assert sd.oddness(g) == 2


def test_is_snark(petersen, k4, theta, dumbbell, j3, j5, blanusa1, blanusa2):
    for g in (petersen, j3, j5, blanusa1, blanusa2):
        assert sd.is_snark(g)
    for g in (k4, theta, dumbbell):
        assert not sd.is_snark(g)


def test_graph_facts_colourability_matches_colourer_and_oracle(
        petersen, k4, k33, theta, dumbbell, prism, cube, j3, j5, blanusa1, blanusa2):
    """Colourable iff some 2-factor has only even circuits."""
    suite = [petersen, k4, k33, theta, dumbbell, prism, cube, j3, j5, blanusa1, blanusa2]
    rng = random.Random(20260815)
    suite += [sd.CubicGraph(n, oracles.random_cubic_edges(rng, n))
              for n in [4, 6, 8, 10, 12, 14] * 10]
    seen = set()
    for g in suite:
        facts = sd.GraphFacts(g)
        assert facts.colourable == (sd.three_edge_colour(g) is not None), g.edges
        assert facts.colourable == oracles.proper_three_colourable(g.vertex_count,
                                                                   edge_pairs(g)), g.edges
        seen.add(facts.colourable)
    assert seen == {True, False}


def test_graph_facts_reports_missing_matching():
    # a claw whose three leaves carry loops: matching the centre strands two leaves
    facts = sd.GraphFacts(sd.CubicGraph(4, ((0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3))))
    assert facts.masks == []
    assert not facts.colourable
    with pytest.raises(sd.GraphError, match="no perfect matching"):
        facts.oddness


def test_graph_facts_prefix_is_kept_per_cap(j5):
    # the cap is the facts' own: its prefix is the first cap matchings of
    # the one walk, which reads one more to tell that there are others
    facts = sd.GraphFacts(j5, 3)
    three = facts.prefix()
    assert facts.prefix() == three == (sd.perfect_matching_masks(j5)[:3], False)
    assert facts._seen == sd.perfect_matching_masks(j5)[:4]
    assert sd.GraphFacts(j5, 5).prefix()[0] == sd.perfect_matching_masks(j5)[:5]
    with pytest.raises(sd.GraphError, match="at least 1"):
        sd.GraphFacts(j5, 0)


def test_graph_facts_for_another_graph_are_rejected(petersen, k33):
    facts = sd.GraphFacts(k33)
    for call in (sd.oddness, sd.defect, sd.regular_defect, sd.find_cover):
        with pytest.raises(sd.GraphError, match="different graph"):
            call(petersen, facts=facts)


def test_searches_read_the_cap_of_their_facts(petersen):
    facts = sd.GraphFacts(petersen, 3)
    assert not sd.regular_defect(petersen, facts=facts).exhaustive
    assert (sd.oddness(petersen, facts=facts), facts.colourable) == (None, None)
    with pytest.raises(sd.BudgetError, match="^more than 3 perfect matchings$"):
        sd.find_cover(petersen, facts=facts)


# --------------------------------------------------------------------------
# multipoles: parity and the stripped-graph equivalence
# --------------------------------------------------------------------------

def test_parity_report_on_four_pole(petersen):
    pole, _, _ = sd.remove_vertices(petersen, (0, 1))
    cols = sd.enumerate_colourings(pole)
    assert cols, "deleting adjacent vertices from Petersen leaves a colourable 4-pole"
    for col in cols:
        rep = sd.verify_parity(pole, col)
        assert rep.ok
        assert rep.free_end_count == 4
        assert sum(rep.counts) == 4
        assert all(c % 2 == 0 for c in rep.counts)


def test_parity_rejects_invalid_colouring(petersen):
    pole, _, _ = sd.remove_vertices(petersen, (0, 1))
    col = sd.three_edge_colour(pole)
    col[0] = 9
    with pytest.raises(sd.GraphError, match="invalid colouring"):
        sd.verify_parity(pole, col)


def test_parity_failure_is_reported(monkeypatch, petersen):
    # the parity lemma holds for every valid colouring, so only a
    # colouring the check lets through can break it
    pole, _, _ = sd.remove_vertices(petersen, (0, 1))
    col = sd.three_edge_colour(pole)
    e, _ = pole.free_ends[0]
    col[e] = col[e] % 3 + 1
    monkeypatch.setattr(colouring, "check_colouring", lambda m, c: None)
    rep = sd.verify_parity(pole, col)
    assert not rep and not rep.ok
    assert rep.message == (f"colour(s) {[t + 1 for t in range(3) if rep.counts[t] % 2]} "
                           f"break parity: counts {rep.counts} vs 4 free ends")


def test_parity_lemma_on_seeded_multipoles(petersen, j5, k33, cube, prism):
    """Each colour count on free ends has the parity of the pole order."""
    rng = random.Random(20260815)
    bases = [petersen, j5, k33, cube, prism]
    checked = 0
    for _ in range(50):
        base = rng.choice(bases)
        drop = rng.sample(range(base.vertex_count), rng.randint(1, 3))
        pole, _, _ = sd.remove_vertices(base, drop)
        free = len(pole.free_ends)
        for col in sd.enumerate_colourings(pole, limit=10):
            counts = [0, 0, 0]
            for e, end in pole.free_ends:
                counts[col[e] - 1] += 1
            assert all(c % 2 == free % 2 for c in counts)
            rep = sd.verify_parity(pole, col)
            assert rep.ok and tuple(counts) == rep.counts
            checked += 1
    assert checked > 50


def test_colourability_equals_stripped_graph_colourability(petersen, j5, k33, prism):
    """A multipole is colourable iff the graph left after deleting its
    dangling and isolated edges has a proper 3-edge-colouring."""
    cases = [
        (petersen, (0, 1)),
        (petersen, (0, 2, 7)),
        (petersen, (5,)),
        (j5, (5, 6, 7, 8, 9)),
        (k33, (0,)),
        (prism, (1, 4)),
    ]
    for base, drop in cases:
        pole, _, _ = sd.remove_vertices(base, drop)
        stripped = [tuple(pole.endpoints(e)) for e in range(pole.edge_count)
                    if None not in pole.endpoints(e)]
        ours = sd.three_edge_colour(pole) is not None
        theirs = oracles.proper_three_colourable(pole.vertex_count, stripped)
        assert ours == theirs
