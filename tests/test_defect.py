"""Defect search: values, witnesses, cores, budgets, and the girth bound."""

import hashlib
import importlib.util
import itertools
import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import snarkdefect as sd
import oracles
from snarkdefect import certificates, cli, colouring
from snarkdefect.defect_engine import _scan
from conftest import counted_walks, petersen_ring
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


@pytest.mark.parametrize("members", [[{0, 1}, {"x"}, {2}], [{0}, {True}, {2}]],
                         ids=["string", "bool"])
def test_array_constructors_reject_non_int_ids(petersen, members):
    with pytest.raises(sd.GraphError, match="not an edge id"):
        sd.ThreeArray.of(*members)
    with pytest.raises(sd.GraphError, match="not an edge id"):
        sd.FulkersonCover.of(petersen, members * 2)


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


def test_df_and_rdf_keep_one_witness_not_every_optimum():
    # the ring of three Petersen copies has 9,472 optimal arrays of each
    # kind and the scan cannot stop early; df and rdf keep one of them
    g = petersen_ring(3)
    facts = sd.GraphFacts(g)
    assert (len(facts.masks), facts.colourable) == (72, False)  # warm: measure the scans
    tracemalloc.start()
    try:
        results = sd.defect(g, facts=facts), sd.regular_defect(g, facts=facts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    for res, regular in zip(results, (False, True)):
        assert (res.value, res.exhaustive) == (9, True)
        optimal = sd.enumerate_optimal_arrays(g, regular)
        assert len(optimal) == 9472
        assert res.witness == optimal[0]

# --------------------------------------------------------------------------
# colourable graphs: the colour-class triple instead of the scan
# --------------------------------------------------------------------------

# a triple budget keeps df and rdf on the scan; this one never runs out
SCAN = sd.SearchBudget(max_triples=10 ** 12)


def test_colour_triple_matches_the_scan(theta, k4, k33, prism, cube):
    suite = [theta, k4, k33, prism, cube, sd.bipartite_double(sd.petersen()),
             sd.bipartite_double(sd.flower_snark(3)), sd.inflate_to_triangle(k4, 0)]
    rng = random.Random(20261019)
    multigraphs = 0
    while len(suite) < 220:
        n = rng.choice([2, 4, 6, 8, 10, 12, 14, 16])
        g = sd.CubicGraph(n, oracles.random_cubic_edges(rng, n))
        if sd.is_bridgeless(g) and sd.GraphFacts(g).colourable:
            suite.append(g)
            multigraphs += len(set(g.edges)) < g.edge_count
    assert multigraphs >= 20
    walked = 0
    for g in suite:
        facts = sd.GraphFacts(g)
        triple = facts._colour_triple  # before the list exists
        walked += "masks" not in vars(facts)
        zero = next(t for v, t in _scan(facts.masks, g.edge_count, g.vertex_count // 2, False)
                    if v == 0)
        assert triple == tuple(facts.masks[x] for x in zero), g.edges
        for search in (sd.defect, sd.regular_defect):
            direct, scanned = search(g), search(g, budget=SCAN)
            assert (direct.value, direct.witness, direct.exhaustive) == \
                (scanned.value, scanned.witness, scanned.exhaustive) == \
                (0, sd.ThreeArray.of(*(facts.matchings[x] for x in zero)), True), g.edges
    assert walked == len(suite)  # every triple came from the walk, none from the list


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_inputs(monkeypatch):
    """perfbench/inputs.py, loaded by path (it is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look it up there
    spec.loader.exec_module(mod)
    return mod


def _list_triple(g):
    """The colour triple as the full list gives it: the first value-0
    triple of the scan, which starts at the first all-even 2-factor."""
    masks = sd.perfect_matching_masks(g)
    first_even = next(i for i, m in enumerate(masks) if not colouring._odd_circuits(g, m))
    zero = next(t for v, t in _scan(masks, g.edge_count, g.vertex_count // 2, False) if v == 0)
    assert zero[0] == first_even
    return tuple(masks[x] for x in zero)


def _walk_triple(g):
    """The colour triple from fresh facts, which must not build the list."""
    facts = sd.GraphFacts(g)
    triple = facts._colour_triple
    assert "masks" not in vars(facts), g.edges
    return triple


def test_walk_triple_matches_the_list(monkeypatch, theta, k4, k33, prism, cube):
    # every colourable graph of the suite's fixtures and constructions, and
    # 300 graphs as the analyze-random benchmark draws them
    suite = [theta, k4, k33, prism, cube, sd.inflate_to_triangle(k4, 0)]
    suite += [cli.build_descriptor(f"double:{name}")
              for name in ("petersen", "flower:3", "flower:5")]
    inputs = _perfbench_inputs(monkeypatch)
    rng = random.Random(20261019)
    suite += [sd.parse_graph6(inputs.graph6(30, inputs.random_cubic(30, rng)))
              for _ in range(300)]
    for g in suite:
        assert _walk_triple(g) == _list_triple(g), g.edges


def test_walk_lists_every_matching_of_a_small_snark(monkeypatch, blanusa1, blanusa2):
    # the analyze-snarks graphs: oddness walks every matching once, and
    # the list is that walk's
    suite = [cli.build_descriptor(name) for name in
             ("petersen", "flower:3", "flower:5", "inflate:petersen:0",
              "inflate-pair:petersen:0:1")] + [blanusa1, blanusa2]
    enumerate_all = colouring.perfect_matching_masks
    want = [(enumerate_all(g), min(colouring._odd_circuits(g, m) for m in enumerate_all(g)))
            for g in suite]
    reads = counted_walks(monkeypatch)
    for g, (masks, least) in zip(suite, want):
        facts = sd.GraphFacts(g)
        assert facts.oddness == least == 2
        assert facts.masks == masks
    assert reads == [len(masks) for masks, _ in want]


def test_walk_past_64_two_factors_keeps_its_certificates(monkeypatch):
    # flower:7 (a snark) and a colourable 40-vertex benchmark-style graph
    # test more than 64 2-factors; their certificates are the ones the
    # enumerated list gave
    inputs = _perfbench_inputs(monkeypatch)
    g40 = sd.parse_graph6(inputs.graph6(40, inputs.random_cubic(40, random.Random(21))))
    for name, g, odd, digest in (
            ("flower:7", sd.flower_snark(7), 2,
             "7609dec827e1ddd4f40a06c1e61e91b10fa1b299cbffe343254c1c4a3ddb7b4e"),
            ("g40", g40, 0,
             "2017ade21492b4b6412d1b6e754e8a75018c8bcd563f1fa24bfed798f3ad0aa1")):
        facts = sd.GraphFacts(g)
        assert facts.oddness == odd
        assert len(facts._seen) > 64
        if odd == 0:
            assert "masks" not in vars(facts)
            assert facts._colour_triple == _list_triple(g)
        else:
            assert facts.masks == sd.perfect_matching_masks(g)
        res, exact = cli.analyze_graph(g, None)
        text = certificates.dump_certificate(
            certificates.make_certificate("analyze", name, g, res, exact, None))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_walk_takes_no_node_cap(monkeypatch):
    # a 60-vertex benchmark-style graph whose walk makes 289 search nodes
    # before its least colour class, the 43rd 2-factor tested: the walk
    # finds it, and the list is never built
    inputs = _perfbench_inputs(monkeypatch)
    g = sd.parse_graph6(inputs.graph6(60, inputs.random_cubic(60, random.Random(2))))
    facts = sd.GraphFacts(g)
    assert facts.oddness == 0
    assert "masks" not in vars(facts)
    assert facts._colour_triple == _list_triple(g)


def test_oddness_reads_a_list_already_built(monkeypatch, cube, j5):
    # a capped prefix that held every matching ended the walk: oddness
    # and the witness read its list, with no second walk
    for g, odd, triple in ((cube, 0, _list_triple(cube)), (j5, 2, None)):
        facts = sd.GraphFacts(g, 1000)
        assert facts.prefix()[1]
        monkeypatch.setattr(colouring, "_lex_matchings", lambda g: pytest.fail("walked again"))
        assert (facts.oddness, facts._colour_triple) == (odd, triple)
        monkeypatch.undo()


def test_prefix_is_the_same_with_or_without_the_walk(cube, j5):
    for g in (cube, j5, cli.build_descriptor("double:petersen")):
        walked = sd.GraphFacts(g, 3)
        walked.oddness
        assert walked.prefix() == sd.GraphFacts(g, 3).prefix()


def test_budgeted_certificates_are_unchanged(cube):
    # sha256 of the six certificates per graph, one per line, as the list
    # alone gave them: --max-matchings 1, 2, 7 and --max-triples 1, 5, 40
    budgets = [sd.SearchBudget(max_matchings=m) for m in (1, 2, 7)] + \
              [sd.SearchBudget(max_triples=t) for t in (1, 5, 40)]
    for name, g, digest in (
            ("double:petersen", cli.build_descriptor("double:petersen"),
             "b39f6dfc9be62854292e9c775138dd03218267f5bd925207eee7fe5edd4433fe"),
            ("cube", cube,
             "20aced757619c4c0a3194993009ac4ed9ae044d8be86a0bc2ae661479b3166e4"),
            ("flower:5", cli.build_descriptor("flower:5"),
             "cbf45ea80e652af844e1d57733a76c9d088c65831e533e25255f28971c18d0f2")):
        lines = []
        for budget in budgets:
            res, exact = cli.analyze_graph(g, budget)
            lines.append(certificates.dump_certificate(
                certificates.make_certificate("analyze", name, g, res, exact, None)))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, name


def test_colour_triple_after_a_capped_prefix(cube):
    # a capped scan before the colour triple leaves the uncapped witness
    # as the scan gives it
    facts = sd.GraphFacts(cube, 2)
    capped = sd.defect(cube, budget=sd.SearchBudget(max_matchings=2), facts=facts)
    assert not capped.exhaustive
    members = (colouring.edge_set(m) for m in facts._colour_triple)
    assert sd.ThreeArray.of(*members) == sd.defect(cube, budget=SCAN).witness


def test_triple_budget_keeps_the_scan_on_colourable_graphs():
    # values, flags and witnesses as the scan gave them before the
    # colour-class triple existed
    g = cli.build_descriptor("double:petersen")
    first = (0, 1, 10, 11, 18, 19, 20, 21, 24, 25)
    second = (0, 1, 12, 13, 14, 15, 22, 23, 26, 27)
    for triples, want_df in ((1, (20, False, (first, first, first))),
                             (5, (12, False, (first, first, second))),
                             (40, (12, False, (first, first, second)))):
        budget = sd.SearchBudget(max_triples=triples)
        d, r = sd.defect(g, budget=budget), sd.regular_defect(g, budget=budget)
        assert (d.value, d.exhaustive, d.witness.sorted_lists()) == want_df
        assert (r.value, r.exhaustive, r.witness) == (sd.UNKNOWN, False, None)
    d = sd.defect(g, budget=sd.SearchBudget(max_triples=1000))
    assert (d.value, d.exhaustive, d.witness) == (0, True, sd.defect(g).witness)


def test_analyze_reaches_double_flower_7():
    # 20,760 matchings; the scan took about 3 s to reach the partition
    g = cli.build_descriptor("double:flower:7")
    start = time.process_time()
    res, exact = cli.analyze_graph(g, None)
    assert time.process_time() - start < 1.5
    assert exact and (res["df"]["value"], res["rdf"]["value"]) == (0, 0)


def test_rdf_stops_at_an_exact_df(monkeypatch):
    # rdf >= df: once df is exact, the rdf scan stops at the first regular
    # triple that reaches it, which the full scan keeps too
    g = petersen_ring(4)
    spent = []

    def timed(*args, **kwargs):
        start = time.process_time()
        res = sd.regular_defect(*args, **kwargs)
        spent.append(time.process_time() - start)
        return res

    monkeypatch.setattr(cli, "regular_defect", timed)
    res, exact = cli.analyze_graph(g, None)
    assert spent[0] < 0.1  # 0.3 s when the scan ran to its end
    text = certificates.dump_certificate(
        certificates.make_certificate("analyze", "ring4", g, res, exact, None))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "dc9355037b11f9587ffaea41bfd100bf36276cb611301e1a1ee48dcb6226e4b4"


def test_exact_df_makes_a_budgeted_rdf_exact():
    # the declared change: a triple budget that reaches rdf's witness but
    # not the end of the scan gives an exact rdf once df is exact
    g = petersen_ring(2)
    budget = sd.SearchBudget(max_triples=100)
    alone = sd.regular_defect(g, budget=budget)
    assert (alone.value, alone.exhaustive) == (6, False)
    facts = sd.GraphFacts(g)
    assert sd.defect(g, facts=facts).value == 6
    after = sd.regular_defect(g, budget=budget, facts=facts)
    assert (after.value, after.exhaustive, after.witness) == (6, True, alone.witness)


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


def test_budget_with_lower_bound_hit_stays_exact(petersen, cube):
    # a colourable graph cannot go below 0, so a capped list that holds a
    # partition is proof: the cube has 9 matchings
    res = sd.defect(cube, budget=sd.SearchBudget(max_matchings=7))
    assert (res.value, res.exhaustive, res.status) == (0, True, "EXACT")
    # a snark cannot go below 3, but 3 matchings of Petersen's 6 do not
    # settle its oddness: 3 is then an upper bound
    res = sd.defect(petersen, budget=sd.SearchBudget(max_matchings=3))
    assert (res.value, res.exhaustive, res.status) == (3, False, "UPPER_BOUND")
    # once oddness is known, it is proof
    facts = sd.GraphFacts(petersen, 6)
    res = sd.defect(petersen, budget=sd.SearchBudget(max_matchings=6), facts=facts)
    assert (facts.oddness, res.value, res.exhaustive) == (2, 3, True)


def test_matching_cap_on_colourable_graph_enumerates_only_the_prefix(monkeypatch, cube):
    # an all-even 2-factor among the capped matchings proves colourability,
    # so the capped search never walks to every matching
    reads = counted_walks(monkeypatch)
    sd.defect(cube, budget=sd.SearchBudget(max_matchings=2))
    assert reads == [3]


def test_matching_cap_holding_every_matching_enumerates_once(monkeypatch, petersen):
    # the capped prefix is the whole list, so colourability reuses it
    reads = counted_walks(monkeypatch)
    res = sd.defect(petersen, budget=sd.SearchBudget(max_matchings=6))
    assert reads == [6]
    assert (res.value, res.exhaustive) == (3, True)


def test_analyze_searches_each_matching_cap_once(monkeypatch):
    # oddness, df and rdf read the same capped prefix of one walk
    reads = counted_walks(monkeypatch)
    code = cli.main(["analyze", "--construct", "flower:5", "--max-matchings", "10",
                     "--json", "--quiet"])
    assert code == 2
    assert reads == [11]


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
