"""Acceptance gate: eight end-to-end checks, one test per criterion.

Each test is self-contained and re-derives its claims either from an
independent oracle (tests/oracles.py) or from raw edge multiplicities,
never from the code path under test alone.  Time limits are asserted
with time.monotonic around exactly the work the criterion names.
"""

import contextlib
import io
import json
import math
import random
import time
from pathlib import Path

import snarkdefect as sd
from snarkdefect import cli

from oracles import count_perfect_matchings, edge_pairs, naive_defect

SEED = 20260815


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _circuit_walk(g, comp):
    """Cyclic edge order of a 2-regular core component, derived by hand."""
    edges = set(comp.edges)
    walk = [min(edges)]
    v = g.endpoints(walk[0])[1]
    while len(walk) < len(edges):
        nxt = next(e for e in g.incident_edges(v) if e in edges and e != walk[-1])
        walk.append(nxt)
        a, b = g.endpoints(nxt)
        v = b if a == v else a
    return walk


def _suite():
    here = __file__.rsplit("/", 1)[0]
    read = lambda f: sd.parse_graph6(Path(f"{here}/data/{f}").read_text())
    return {
        "theta": sd.CubicGraph(2, [(0, 1), (0, 1), (0, 1)]),
        "k4": sd.CubicGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        "k33": sd.CubicGraph(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]),
        "prism": sd.CubicGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                   (0, 3), (1, 4), (2, 5)]),
        "cube": sd.CubicGraph(8, [(a, a ^ bit) for a in range(8)
                                  for bit in (1, 2, 4) if a < (a ^ bit)]),
        "petersen": sd.petersen(),
        "j3": sd.flower_snark(3),
        "j5": sd.flower_snark(5),
        "j7": sd.flower_snark(7),
        "blanusa1": read("blanusa1.g6"),
        "blanusa2": read("blanusa2.g6"),
    }


# 1. Petersen baseline: df = rdf = 3, exhaustively, matching a naive
#    unpruned triple-loop oracle, with an induced alternating 6-circuit
#    core on the regular witness.  Budget: one second.
def test_a1_petersen_baseline():
    g = sd.petersen()
    t0 = time.monotonic()
    df = sd.defect(g)
    rdf = sd.regular_defect(g)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"baseline took {elapsed:.2f}s"

    assert (df.value, df.exhaustive) == (3, True)
    assert (rdf.value, rdf.exhaustive) == (3, True)

    for regular, res in ((False, df), (True, rdf)):
        value, witness = naive_defect(10, edge_pairs(g), regular=regular)
        assert res.value == value
        assert res.witness.matchings == tuple(frozenset(m) for m in witness)

    core = sd.core_of(g, rdf.witness)
    comp, = core.components
    assert comp.kind == "EVEN_ALTERNATING_CIRCUIT"
    assert len(comp.edges) == 6
    assert sd.is_induced_circuit(g, comp)
    walk = _circuit_walk(g, comp)
    kinds = ["u" if e in core.uncovered else "d" for e in walk]
    assert kinds in (["u", "d"] * 3, ["d", "u"] * 3)


# 2. df = 3 exactly when rdf = 3 on the snark suite, with the Blanusa
#    graphs arriving through the graph6 reader.  Budget: five minutes.
def test_a2_defect3_iff_regular_defect3():
    here = __file__.rsplit("/", 1)[0]
    graphs = {
        "petersen": sd.petersen(),
        "j5": sd.flower_snark(5),
        "j7": sd.flower_snark(7),
        "blanusa1": sd.parse_graph6(Path(f"{here}/data/blanusa1.g6").read_text()),
        "blanusa2": sd.parse_graph6(Path(f"{here}/data/blanusa2.g6").read_text()),
    }
    t0 = time.monotonic()
    for name, g in graphs.items():
        df = sd.defect(g)
        rdf = sd.regular_defect(g)
        assert df.exhaustive and rdf.exhaustive, name
        assert (df.value == 3) == (rdf.value == 3), name
        assert (df.value, rdf.value) == (3, 3), name
        assert sd.verify_corollary_rdf3(g), name
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"suite took {elapsed:.1f}s"


# 3. Inflating both endpoints of any Petersen edge to triangles yields a
#    graph with a constructed array covering all but 4 edges (one edge
#    triply, two doubly covered), whose exhaustive defect is 3 or 4.
#    Budget: two minutes for all fifteen edges.
def test_a3_pair_inflation_pattern():
    g = sd.petersen()
    t0 = time.monotonic()
    for u, v in g.edges:
        big, arr = sd.inflate_pair_theorem_check(g, u, v)
        cov = sd.coverage(big, arr)
        assert cov.counts == (4, 14, 2, 1), (u, v)
        res = sd.defect(big)
        assert res.exhaustive, (u, v)
        assert res.value in (3, 4), (u, v)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"pair inflations took {elapsed:.1f}s"


# 4. Girth lower bound, zero tolerance: whenever rdf is exact and the
#    optimal core is nonempty, rdf >= ceil(girth/2) and every core
#    circuit has even length >= girth.
def test_a4_girth_bound():
    for name, g in _suite().items():
        rdf = sd.regular_defect(g)
        assert rdf.exhaustive, name
        core = sd.core_of(g, rdf.witness)
        if not core.edges:
            continue
        gi = sd.girth(g)
        assert rdf.value >= math.ceil(gi / 2), name
        assert sd.check_girth_bound(g, rdf)
        for comp in core.components:
            assert len(comp.edges) % 2 == 0, name
            assert len(comp.edges) >= gi, name


# 5. Six-matching double covers round-trip through complementary arrays
#    and flow pairs, and the slot sets at each vertex tile {1..6}.
#    Budget: one minute.
def test_a5_cover_roundtrip_and_slot_partition():
    k4 = sd.CubicGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    t0 = time.monotonic()
    for name, g in (("petersen", sd.petersen()), ("k4", k4),
                    ("j5", sd.flower_snark(5))):
        cover = sd.find_cover(g)
        assert sd.verify_cover(g, cover).ok, name
        if name == "k4":
            # colourable case: the cover is the three colour classes, doubled
            distinct = set(cover.matchings)
            assert len(distinct) == 3
            for m in distinct:
                assert cover.matchings.count(m) == 2

        pair = sd.cover_to_complementary(cover)
        assert sd.check_complementary(g, pair.first, pair.second) is None, name
        p1, p2, phi1, phi2 = sd.complementary_to_flows(g, pair)
        back = sd.flows_to_cover(g, p1, p2, phi1, phi2)
        assert sd.verify_cover(g, back).ok, name

        slots = {e: frozenset(i + 1 for i, m in enumerate(back.matchings) if e in m)
                 for e in range(g.edge_count)}
        for e, s in slots.items():
            assert len(s) == 2, name
        for v in range(g.vertex_count):
            tiles = [slots[e] for e in g.incident_edges(v)]
            assert sorted(x for s in tiles for x in s) == [1, 2, 3, 4, 5, 6], name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"round trips took {elapsed:.1f}s"


# 6. Flow coherence: a nowhere-zero Z2xZ2 flow exists exactly on the
#    3-edge-colourable suite members, and the characteristic flow of
#    every regular optimal array passes the Fano-line verifier.
def test_a6_flow_coherence():
    suite = _suite()
    colourable = {name: sd.three_edge_colour(g) is not None
                  for name, g in suite.items()}
    assert colourable["k33"] and not colourable["petersen"]

    for name, g in suite.items():
        flow = sd.nz_4flow(g)
        assert (flow is not None) == colourable[name], name
        if flow is not None:
            assert sd.verify_group_flow(flow).ok, name

    for name, g in suite.items():
        for arr in sd.enumerate_optimal_arrays(g, regular=True):
            f = sd.characteristic_flow(g, arr)
            chk = sd.verify_flow(g, f)
            assert chk.ok, (name, chk.violation)


# 7. Randomized property suites, seeded: core structure on 200 sampled
#    arrays per graph; the parity lemma on every colouring of 50
#    generated multipoles; matching enumeration against an independent
#    counting oracle on every suite graph with at most 14 vertices.
def test_a7_property_suites():
    rng = random.Random(SEED)
    suite = _suite()

    sampled = {n: g for n, g in suite.items() if n != "j7"}  # keep runtime sane
    for name, g in sampled.items():
        ms = sd.enumerate_perfect_matchings(g)
        for _ in range(200):
            arr = sd.ThreeArray.of(*(rng.choice(ms) for _ in range(3)))
            cov = sd.coverage(g, arr)
            for v in range(g.vertex_count):
                mults = sorted(cov.multiplicity[e] for e in g.incident_edges(v))
                assert mults in ([1, 1, 1], [0, 1, 2], [0, 0, 3]), name
            core = sd.core_of(g, arr)
            assert core.edges == cov.uncovered | cov.doubly | cov.triply
            for comp in core.components:
                if comp.kind == "EVEN_ALTERNATING_CIRCUIT":
                    assert len(comp.edges) % 2 == 0
                    walk = _circuit_walk(g, comp)
                    kinds = [cov.multiplicity[e] for e in walk]
                    assert all(kinds[i] != kinds[(i + 1) % len(kinds)]
                               for i in range(len(kinds)))
                else:
                    assert comp.kind == "CUBIC_SUBDIVISION"
                    assert set(comp.edges) & core.triply

    bases = [suite[n] for n in ("k33", "prism", "cube", "petersen", "j5")]
    poles = 0
    while poles < 50:
        g = rng.choice(bases)
        drop = rng.sample(range(g.vertex_count), rng.randint(1, 3))
        pole, _, _ = sd.remove_vertices(g, drop)
        cols = sd.enumerate_colourings(pole)
        for col in cols:
            rep = sd.verify_parity(pole, col)
            assert rep.ok
            counts = [0, 0, 0]
            for e, _end in pole.free_ends:
                counts[col[e] - 1] += 1
            assert list(rep.counts) == counts
            assert rep.free_end_count == len(pole.free_ends)
            assert all(c % 2 == rep.free_end_count % 2 for c in counts)
        poles += 1

    small = {n: g for n, g in suite.items() if g.vertex_count <= 14}
    assert len(small) >= 6
    big, arr = sd.inflate_pair_theorem_check(sd.petersen(), 0, 1)
    small["inflated"] = big
    for name, g in small.items():
        found = sd.enumerate_perfect_matchings(g)
        assert len(found) == count_perfect_matchings(g.vertex_count, edge_pairs(g))
        assert len(set(found)) == len(found)
        for m in found:
            assert sd.is_perfect_matching(g, m)


# 8. Determinism: the full certificate stream is byte-identical across
#    repeated runs and across 1, 4 and 8 worker threads.
def test_a8_deterministic_certificates(tmp_path):
    here = __file__.rsplit("/", 1)[0]
    g6 = tmp_path / "suite.g6"
    g6.write_text(Path(f"{here}/data/blanusa1.g6").read_text().strip() + "\n"
                  + Path(f"{here}/data/blanusa2.g6").read_text().strip() + "\n")
    analyze = ["analyze", "--graph6", str(g6),
               "--construct", "petersen", "--construct", "flower:3",
               "--construct", "flower:5", "--construct", "inflate:petersen:0",
               "--construct", "inflate-pair:petersen:0:1",
               "--construct", "double:petersen", "--json", "--quiet"]
    fulkerson = ["fulkerson", "--construct", "petersen", "--roundtrip",
                 "--json", "--quiet"]

    streams = set()
    for threads in ("1", "4", "8", "4"):
        code_a, out_a = _cli(analyze + ["--threads", threads])
        code_f, out_f = _cli(fulkerson + ["--threads", threads])
        assert (code_a, code_f) == (0, 0)
        streams.add(out_a + out_f)
    assert len(streams) == 1
    for line in next(iter(streams)).splitlines():
        assert json.loads(line)["schema"] == "snarkdefect.certificate/1"
