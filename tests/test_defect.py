"""Defect search: values, witnesses, cores, budgets, and the girth bound."""

import ast
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
from snarkdefect.defect_engine import _scan, girth_bound_holds
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
    # only a circuit component can be an induced circuit
    claw = sd.CoreComponent(kind="CUBIC_SUBDIVISION", vertices=(0, 1, 2), edges=(0, 1, 3))
    assert not sd.is_induced_circuit(k4, claw)


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

# a triple budget that never runs out: a colourable graph's df and rdf
# are its colour triple under it, as under no budget
SCAN = 10 ** 12


def test_the_least_colour_class_is_walked_once(monkeypatch, k33, cube):
    # oddness keeps M1's circuits, and the colour triple reads them
    walked = []
    circuits = colouring._circuits

    def counted(g, mask):
        walked.append(mask)
        return circuits(g, mask)

    monkeypatch.setattr(colouring, "_circuits", counted)
    for g in (k33, cube, sd.bipartite_double(sd.petersen())):
        walked.clear()
        facts = sd.GraphFacts(g)
        res = sd.defect(g, facts=facts)
        assert sd.regular_defect(g, facts=facts) == sd.DefectResult(0, res.witness, True, True)
        m1 = facts._colour_triple[0]
        assert walked.count(m1) == 1 and walked[-1] == m1


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
        want = sd.ThreeArray.of(*(colouring.edge_set(facts.masks[x]) for x in zero))
        for search in (sd.defect, sd.regular_defect):
            direct, scanned = search(g), search(g, SCAN)
            assert (direct.value, direct.witness, direct.exhaustive) == \
                (scanned.value, scanned.witness, scanned.exhaustive) == (0, want, True), g.edges
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
    first_even = next(i for i, m in enumerate(masks)
                      if not sum(len(c) & 1 for c in colouring._circuits(g, m)))
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
    want = [(enumerate_all(g), min(sum(len(c) & 1 for c in colouring._circuits(g, m))
                                   for m in enumerate_all(g)))
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
        res = cli.analyze_graph(g)
        exact = certificates.result_exact("analyze", res)
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
        monkeypatch.setattr(colouring, "_lex_matchings", lambda *a: pytest.fail("walked again"))
        assert (facts.oddness, facts._colour_triple) == (odd, triple)
        monkeypatch.undo()


def test_prefix_is_the_same_with_or_without_the_walk(cube, j5):
    for g in (cube, j5, cli.build_descriptor("double:petersen")):
        walked = sd.GraphFacts(g, 3)
        walked.oddness
        assert walked.prefix() == sd.GraphFacts(g, 3).prefix()


def test_budgeted_certificates_are_unchanged(cube):
    # sha256 of the six certificates per graph, one per line, as the list
    # alone gave them: --max-matchings 1, 2, 7 and --max-triples 1, 5, 40.
    # Each budget leaves double:petersen and the cube their colour triple,
    # so theirs are six copies of the unbudgeted certificate
    budgets = [(m, None) for m in (1, 2, 7)] + [(None, t) for t in (1, 5, 40)]
    for name, g, digest in (
            ("double:petersen", cli.build_descriptor("double:petersen"),
             "2f3d95f4c261ae1cddc18d26711e7f18f3f9095150f368675f4f793a981c76ae"),
            ("cube", cube,
             "0d0b014a46b58300ec570153353fbf40581a2e27c4d76ac759b24f6ff3c66632"),
            ("flower:5", cli.build_descriptor("flower:5"),
             "cbf45ea80e652af844e1d57733a76c9d088c65831e533e25255f28971c18d0f2")):
        lines = []
        for budget in budgets:
            res = cli.analyze_graph(g, *budget)
            exact = certificates.result_exact("analyze", res)
            lines.append(certificates.dump_certificate(
                certificates.make_certificate("analyze", name, g, res, exact, None)))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, name


def test_colour_triple_after_a_capped_prefix(cube):
    # a capped prefix taken before the colour triple leaves df and rdf the
    # triple the full list gives
    facts = sd.GraphFacts(cube, 2)
    assert facts.prefix() == (sd.perfect_matching_masks(cube)[:2], False)
    want = sd.ThreeArray.of(*(colouring.edge_set(m) for m in _list_triple(cube)))
    for search in (sd.defect, sd.regular_defect):
        res = search(cube, facts=facts)
        assert (res.value, res.exhaustive, res.witness) == (0, True, want)


def test_triple_budget_keeps_the_colour_triple_on_colourable_graphs():
    # a triple budget inspects no triple of a colourable graph: df and rdf
    # are its colour triple, exact
    g = cli.build_descriptor("double:petersen")
    want = sd.defect(g).witness
    for triples in (0, 1, 5, 40, 1000):
        for search in (sd.defect, sd.regular_defect):
            res = search(g, triples)
            assert (res.value, res.exhaustive, res.witness) == (0, True, want)


def test_analyze_reaches_double_flower_7():
    # 20,760 matchings; the scan took about 3 s to reach the partition
    g = cli.build_descriptor("double:flower:7")
    start = time.process_time()
    res = cli.analyze_graph(g)
    assert time.process_time() - start < 1.5
    assert certificates.result_exact("analyze", res)
    assert (res["df"]["value"], res["rdf"]["value"]) == (0, 0)


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
    res = cli.analyze_graph(g)
    assert spent[0] < 0.1  # 0.3 s when the scan ran to its end
    exact = certificates.result_exact("analyze", res)
    text = certificates.dump_certificate(
        certificates.make_certificate("analyze", "ring4", g, res, exact, None))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "dc9355037b11f9587ffaea41bfd100bf36276cb611301e1a1ee48dcb6226e4b4"


def test_exact_df_makes_a_budgeted_rdf_exact():
    # the declared change: a triple budget that reaches rdf's witness but
    # not the end of the scan gives an exact rdf once df is exact
    g = petersen_ring(2)
    alone = sd.regular_defect(g, 100)
    assert (alone.value, alone.exhaustive) == (6, False)
    facts = sd.GraphFacts(g)
    assert sd.defect(g, facts=facts).value == 6
    after = sd.regular_defect(g, 100, facts=facts)
    assert (after.value, after.exhaustive, after.witness) == (6, True, alone.witness)


def test_rdf_takes_a_regular_df_witness_without_a_scan(monkeypatch):
    # df's witness is the first triple at the least value; when it is
    # regular it is rdf's, and rdf scans nothing
    from snarkdefect import defect_engine
    g = sd.flower_snark(5)
    want = sd.regular_defect(g)
    scans = []

    def counted(*args, **kwargs):
        scans.append(args)
        return _scan(*args, **kwargs)

    monkeypatch.setattr(defect_engine, "_scan", counted)
    facts = sd.GraphFacts(g)
    d = sd.defect(g, facts=facts)
    assert d.witness.is_regular and len(scans) == 1
    r = sd.regular_defect(g, facts=facts)
    assert len(scans) == 1
    assert r == want and (r.value, r.exhaustive, r.witness) == (3, True, d.witness)


def test_g24_rdf_scans_above_an_irregular_df_witness():
    # G24: df = 4 has only irregular witnesses, so df is the rdf scan's
    # lower bound and rdf = 6 comes from the scan
    from test_colouring import G24
    g = sd.parse_graph6(G24)
    facts = sd.GraphFacts(g)
    d = sd.defect(g, facts=facts)
    r = sd.regular_defect(g, facts=facts)
    assert (d.value, d.exhaustive, d.witness.is_regular) == (4, True, False)
    assert (r.value, r.exhaustive, r.witness.is_regular) == (6, True, True)
    assert r == sd.regular_defect(g)
    assert r.witness == sd.enumerate_optimal_arrays(g, True)[0]


# --------------------------------------------------------------------------
# budgets, determinism
# --------------------------------------------------------------------------

def test_budget_truncation_is_reported(petersen, k4):
    res = sd.defect(petersen, 5)
    assert res.value == 6
    assert not res.exhaustive
    assert res.status == "UPPER_BOUND"
    # K4's first matching is a colour class, so a cap of 1 settles it
    res = sd.defect(k4, facts=sd.GraphFacts(k4, 1))
    assert (res.value, res.exhaustive) == (0, True)
    res = sd.defect(petersen, facts=sd.GraphFacts(petersen, 1))
    assert res.value == 10  # one matching repeated thrice covers five edges
    assert not res.exhaustive


def test_budget_with_lower_bound_hit_stays_exact(petersen, cube):
    # a cap that reaches the least colour class proves colourability, and
    # df is the colour triple's 0: the cube has 9 matchings
    res = sd.defect(cube, facts=sd.GraphFacts(cube, 7))
    assert (res.value, res.exhaustive, res.status) == (0, True, "EXACT")
    # a snark cannot go below 3, but 3 matchings of Petersen's 6 do not
    # settle its oddness: 3 is then an upper bound
    res = sd.defect(petersen, facts=sd.GraphFacts(petersen, 3))
    assert (res.value, res.exhaustive, res.status) == (3, False, "UPPER_BOUND")
    # once oddness is known, it is proof
    facts = sd.GraphFacts(petersen, 6)
    res = sd.defect(petersen, facts=facts)
    assert (facts.oddness, res.value, res.exhaustive) == (2, 3, True)


def test_matching_cap_on_colourable_graph_enumerates_only_the_prefix(monkeypatch, cube):
    # an all-even 2-factor among the capped matchings proves colourability,
    # so the capped search reads no matching past it: the cube's first
    reads = counted_walks(monkeypatch)
    sd.defect(cube, facts=sd.GraphFacts(cube, 2))
    assert reads == [1]


def _late_colour_class():
    """A simple bridgeless graph on 8 vertices whose least colour class is
    the third of its five matchings."""
    return sd.CubicGraph(8, ((0, 1), (0, 3), (0, 5), (1, 4), (1, 7), (2, 4), (2, 5),
                             (2, 6), (3, 5), (3, 6), (4, 7), (6, 7)))


# sha256 of the late graph's certificates under caps that stop before its
# least colour class: oddness stays open, so df and rdf scan the capped
# prefix, and the certificates are those the scan gave for every budget
BELOW_THE_LEAST_CLASS = {  # (matching cap, triple budget): digest
    (1, None): "89238b13359b94a1f4dcc4680b0634088023f7646d19fde5220f060a91da2477",
    (2, None): "7cff31ae7cfb500ec739a8f6d447f5873c8b57342040ddbc7924d28ad475471c",
    (1, 0): "a5bf48ca1f29ba0767e3b2855bfa6bb9e47d2aed5d204485461650ba8ec5a5cd",
    (2, 5): "7cff31ae7cfb500ec739a8f6d447f5873c8b57342040ddbc7924d28ad475471c",
}


@pytest.mark.parametrize("name", ["k4", "k33", "prism", "cube", "theta", "double:petersen",
                                  "double:flower:7", "late"])
def test_budgets_keep_the_colour_triple(monkeypatch, request, name):
    # once a cap reaches the least colour class M1, or with no cap, df and
    # rdf are the colour triple, exact, whatever the budget: the
    # certificate is the unbudgeted one, and no walk reads past M1
    if name == "late":
        g = _late_colour_class()
    elif name.startswith("double:"):
        g = cli.build_descriptor(name)
    else:
        g = request.getfixturevalue(name)
    masks = sd.perfect_matching_masks(g)
    first = 1 + next(i for i, m in enumerate(masks)
                     if not sum(len(c) & 1 for c in colouring._circuits(g, m)))

    def cert(budget):
        res = cli.analyze_graph(g, *budget)
        exact = certificates.result_exact("analyze", res)
        text = certificates.dump_certificate(
            certificates.make_certificate("analyze", name, g, res, exact, None))
        return exact, text

    want = cert((None, None))
    assert want[0]
    caps = sorted({*range(first, first + 64), len(masks), len(masks) + 1})
    budgets = [(None, t) for t in (0, 1, 5, 50)]
    budgets += [(c, None) for c in caps]
    budgets += [(first, 0)]
    reads = counted_walks(monkeypatch)
    for budget in budgets:
        assert cert(budget) == want, budget
    assert reads == [first] * len(budgets)
    below = BELOW_THE_LEAST_CLASS if name == "late" else {}
    assert {cap for cap, _ in below} == set(range(1, first))
    for budget, digest in below.items():
        exact, text = cert(budget)
        assert not exact
        assert hashlib.sha256(text.encode()).hexdigest() == digest, budget


def test_matching_cap_holding_every_matching_enumerates_once(monkeypatch, petersen):
    # the capped prefix is the whole list, so colourability reuses it
    reads = counted_walks(monkeypatch)
    res = sd.defect(petersen, facts=sd.GraphFacts(petersen, 6))
    assert reads == [6]
    assert (res.value, res.exhaustive) == (3, True)


def test_analyze_searches_each_matching_cap_once(monkeypatch):
    # oddness, df and rdf read the same capped prefix of one walk
    reads = counted_walks(monkeypatch)
    code = cli.main(["analyze", "--construct", "flower:5", "--max-matchings", "10",
                     "--json", "--quiet"])
    assert code == 2
    assert reads == [11]


def test_repeated_searches_agree(petersen, j5):
    for g in (petersen, j5):
        base = sd.regular_defect(g)
        again = sd.regular_defect(g)
        assert again.value == base.value
        assert witness_lists(again.witness) == witness_lists(base.witness)
        assert again.exhaustive == base.exhaustive


def test_repeated_budgeted_searches_agree(petersen):
    base = sd.defect(petersen, 5)
    again = sd.defect(petersen, 5)
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


def test_enumerate_optimal_arrays_k4(k4, dumbbell):
    regular = sd.enumerate_optimal_arrays(k4, regular=True)
    anykind = sd.enumerate_optimal_arrays(k4, regular=False)
    assert len(regular) == len(anykind) == 1
    # the three colour classes, nothing else, cover K4 perfectly
    assert witness_lists(regular[0]) == [[0, 5], [1, 4], [2, 3]]
    with pytest.raises(sd.GraphError, match="bridge"):
        sd.enumerate_optimal_arrays(dumbbell, regular=False)


def test_enumerate_optimal_arrays_explicit_target(petersen):
    # the optimum the enumeration settles on is the regular defect:
    # Petersen matchings pairwise share one edge, so no array leaves 4
    # uncovered, and none of the 20 optima leaves 2
    arrays = sd.enumerate_optimal_arrays(petersen, regular=True)
    assert len(arrays) == 20
    assert sd.regular_defect(petersen).value == 3
    assert {sd.coverage(petersen, arr).counts[0] for arr in arrays} == {3}


def test_enumerate_optimal_arrays_target_is_a_claimed_optimum(k4, dumbbell):
    # arrays leaving two edges uncovered exist, but only the optimum 0 is listed
    arrays = sd.enumerate_optimal_arrays(k4, regular=False)
    assert len(arrays) == 1
    assert sd.defect(k4).value == 0
    assert sd.coverage(k4, arrays[0]).counts[0] == 0
    with pytest.raises(sd.GraphError, match="bridge"):
        sd.enumerate_optimal_arrays(dumbbell, regular=False)


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


def test_enumerate_optimal_arrays_j5_has_80(j5):
    first = sd.enumerate_optimal_arrays(j5, regular=True)
    again = sd.enumerate_optimal_arrays(j5, regular=True)
    assert len(first) == 80
    assert [witness_lists(a) for a in first] == [witness_lists(a) for a in again]


# --------------------------------------------------------------------------
# derived checks
# --------------------------------------------------------------------------

def test_check_girth_bound(petersen, k4, j5, blanusa1):
    for g in (petersen, k4, j5, blanusa1):
        assert sd.check_girth_bound(g, sd.regular_defect(g))
    # Petersen's rdf core is one 6-circuit: at a claimed girth of 7 both
    # rdf = 3 (2 * 3 < 7) and rdf = 4 (the circuit is short) fail the bound
    witness = sd.regular_defect(petersen).witness
    core = sd.core_of(petersen, witness)
    assert girth_bound_holds(5, 3, core)
    assert not girth_bound_holds(7, 3, core)
    assert not girth_bound_holds(7, 4, core)
    # a "regular" result whose witness covers each matching edge three times
    m = witness.matchings[0]
    triple = sd.DefectResult(3, sd.ThreeArray.of(m, m, m), True, True)
    with pytest.raises(sd.GraphError, match="^regular witness produced a non-circuit core"):
        sd.check_girth_bound(petersen, triple)


def test_check_girth_bound_needs_regular_result(k4):
    with pytest.raises(sd.GraphError, match="regular"):
        sd.check_girth_bound(k4, sd.defect(k4))


def test_corollary_rdf3(petersen, k4, j3, j5, blanusa1, blanusa2):
    for g in (petersen, k4, j3, j5, blanusa1, blanusa2):
        assert sd.verify_corollary_rdf3(g)


def test_sentinels(petersen):
    assert repr(sd.UNKNOWN) == "UNKNOWN"
    assert repr(sd.NONE_FOUND) == "NONE_FOUND"
    assert sd.UNKNOWN is not sd.NONE_FOUND
    # a result's status names its sentinel; no triple inspected leaves rdf unknown
    cut = sd.regular_defect(petersen, 0)
    assert (cut.value, cut.status) == (sd.UNKNOWN, "UNKNOWN")
    assert sd.DefectResult(sd.NONE_FOUND, None, True, True).status == "NONE_FOUND"


# --------------------------------------------------------------------------
# documentation
# --------------------------------------------------------------------------

def test_readme_library_block_runs_as_documented():
    # the README's Library example runs, and each bare expression in it
    # gives the value its comment starts with
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    ns, checked = {}, []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
        comment = lines[stmt.lineno - 1].partition("#")[2].partition(":")[0].strip()
        try:
            want = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue  # prose, not a value
        assert value == want, lines[stmt.lineno - 1]
        checked.append(want)
    assert checked == [True, (2, False), 5665, None, "UPPER_BOUND"]
    assert (ns["res"].value, ns["res"].exhaustive, ns["res"].regular_required) == (3, True, True)
    assert ns["facts"].masks[0] == sum(1 << e for e in (0, 5, 9, 10, 12))
