"""Generators, inflations, removals, and superposition."""

import pytest

import snarkdefect as sd


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

def test_petersen_labelling(petersen):
    g = petersen
    # outer 5-circuit on 0..4, spokes i--i+5, pentagram on 5..9
    for i in range(5):
        assert tuple(sorted((i, (i + 1) % 5))) in g.edges
        assert (i, i + 5) in g.edges
        assert tuple(sorted((5 + i, 5 + (i + 2) % 5))) in g.edges
    assert sd.girth(g) == 5 and sd.is_snark(g)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_flower_sizes(n):
    g = sd.flower_snark(n)
    assert g.vertex_count == 4 * n
    assert g.edge_count == 6 * n
    assert sd.is_connected(g)
    # hubs 0..n-1 touch their inner-cycle vertex and two outer vertices
    for i in range(n):
        assert len(g.incident_edges(i)) == 3


def test_flower_goldens(j3, j5, j7):
    assert (sd.girth(j3), sd.girth(j5), sd.girth(j7)) == (3, 5, 6)
    for g in (j3, j5, j7):
        assert sd.is_snark(g)


def test_flower_rejects_bad_order():
    for n in (1, 4, 0, -3, 5.0, True):
        with pytest.raises(sd.GraphError, match="odd n >= 3"):
            sd.flower_snark(n)


# --------------------------------------------------------------------------
# triangle inflation
# --------------------------------------------------------------------------

def test_inflate_counts_and_reattachment(petersen):
    g = sd.inflate_to_triangle(petersen, 0)
    assert g.vertex_count == 12 and g.edge_count == 18
    assert sd.girth(g) == 3
    # vertex 0's former slots land on (0, 10, 11) in (edge, end) order
    assert g.edges[0] == (0, 1)
    assert g.edges[1] == (10, 4)
    assert g.edges[2] == (11, 5)
    # untouched edges keep id and endpoints
    assert g.edges[3:15] == petersen.edges[3:15]
    # the new triangle comes last
    assert g.edges[15:] == ((0, 10), (0, 11), (10, 11))


def test_inflate_k4_gives_prism(k4, prism):
    assert sd.is_isomorphic(sd.inflate_to_triangle(k4, 0), prism)


def test_inflate_preserves_uncolourability(petersen):
    # snark-ness survives triangle inflation both ways
    g = sd.inflate_to_triangle(petersen, 3)
    assert sd.three_edge_colour(g) is None
    assert sd.is_snark(g)
    h = sd.inflate_to_triangle(sd.flower_snark(3), 0)
    assert sd.three_edge_colour(h) is None


def test_inflate_rejects_loops(dumbbell):
    with pytest.raises(sd.GraphError, match="loop"):
        sd.inflate_to_triangle(dumbbell, 0)
    with pytest.raises(sd.GraphError, match="^vertex 2 out of range$"):
        sd.inflate_to_triangle(dumbbell, 2)
    # a vertex id is an int, and a bool is not one
    for v in (1.0, True):
        with pytest.raises(sd.GraphError, match=rf"^vertex {v!r} out of range$"):
            sd.inflate_to_triangle(dumbbell, v)


def test_inflate_then_contract_is_identity(petersen, k4, j5):
    def contract(g, tri):
        keep = [v for v in range(g.vertex_count) if v not in tri]
        vmap = {v: i for i, v in enumerate(keep)}
        new = len(keep)
        pairs = []
        for x, y in g.edges:
            if x in tri and y in tri:
                continue
            pairs.append(tuple(sorted((new if x in tri else vmap[x],
                                       new if y in tri else vmap[y]))))
        return sd.CubicGraph(new + 1, sorted(pairs))

    for base, v in ((petersen, 0), (petersen, 7), (k4, 2), (j5, 11)):
        big = sd.inflate_to_triangle(base, v)
        tri = {v, base.vertex_count, base.vertex_count + 1}
        assert sd.is_isomorphic(contract(big, tri), base)


# --------------------------------------------------------------------------
# five-circuits and removability
# --------------------------------------------------------------------------

def test_five_circuits(petersen, j5, prism, k33, cube):
    pet = sd.five_circuits(petersen)
    assert len(pet) == 12
    assert pet[0] == (0, 1, 2, 3, 4)
    assert all(len(c) == 5 for c in pet)
    assert pet == sorted(pet)
    # the flower J5 has exactly one 5-circuit: its inner pentagon
    assert sd.five_circuits(j5) == [(5, 6, 7, 8, 9)]
    assert len(sd.five_circuits(prism)) == 6
    # bipartite graphs carry no odd circuit
    assert sd.five_circuits(k33) == []
    assert sd.five_circuits(cube) == []


def test_five_circuits_are_circuits(petersen):
    for cyc in sd.five_circuits(petersen):
        assert len(set(cyc)) == 5
        for i in range(5):
            a, b = cyc[i], cyc[(i + 1) % 5]
            assert any(set(petersen.endpoints(e)) == {a, b}
                       for e in range(petersen.edge_count))


def test_petersen_pairs_all_non_removable(petersen):
    pairs = sd.find_non_removable_pairs(petersen)
    assert len(pairs) == 15
    assert pairs == sorted(pairs)
    assert set(pairs) == {tuple(sorted(petersen.endpoints(e))) for e in range(15)}


def test_j3_has_three_removable_pairs(j3):
    pairs = sd.find_non_removable_pairs(j3)
    assert len(pairs) == 15
    adjacent = {tuple(sorted(j3.endpoints(e))) for e in range(j3.edge_count)}
    # only the inner triangle resists: deleting it leaves an uncolourable rest
    assert sorted(adjacent - set(pairs)) == [(3, 4), (3, 5), (4, 5)]


def test_non_snark_input_warns(k4, prism):
    with pytest.warns(UserWarning, match="not a snark"):
        pairs = sd.find_non_removable_pairs(k4)
    # deleting two adjacent vertices of K4 leaves a colourable 2-pole chain
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    # on a colourable graph a colouring of the remainder may split the
    # ends at u, which the theorem rules out for snarks
    with pytest.warns(UserWarning, match="not a snark"), pytest.raises(
            sd.GraphError, match="^colouring gives unequal ends 3, 2 at vertex 3; "):
        sd.inflate_pair_theorem_check(prism, 3, 4)


def test_petersen_5cycles_all_non_removable(petersen):
    cycles = sd.find_non_removable_5cycles(petersen)
    assert len(cycles) == 12
    assert cycles == sd.five_circuits(petersen)


def test_5cycle_scan_on_girth_six_graph_is_empty(j7):
    assert sd.find_non_removable_5cycles(j7) == []


def test_5cycle_scan_of_blanusa2_finds_10(blanusa2):
    first = sd.find_non_removable_5cycles(blanusa2)
    assert first == sd.find_non_removable_5cycles(blanusa2)
    assert len(first) == 10


def test_pair_scan_of_blanusa1_finds_27(blanusa1):
    first = sd.find_non_removable_pairs(blanusa1)
    assert first == sd.find_non_removable_pairs(blanusa1)
    assert len(first) == 27


# --------------------------------------------------------------------------
# the pair-inflation check
# --------------------------------------------------------------------------

def test_pair_inflation_on_petersen_edge(petersen):
    gbar, arr = sd.inflate_pair_theorem_check(petersen, 0, 1)
    assert gbar.vertex_count == 14 and gbar.edge_count == 21
    assert sd.is_snark(gbar)
    cov = sd.coverage(gbar, arr)
    assert cov.counts == (4, 14, 2, 1)
    assert sorted(cov.uncovered) == [15, 16, 18, 19]
    assert sorted(cov.doubly) == [17, 20]
    assert sorted(cov.triply) == [0]  # the original uv edge, covered thrice
    core = sd.core_of(gbar, arr)
    comp, = core.components
    assert comp.kind == "CUBIC_SUBDIVISION"
    assert (len(comp.vertices), len(comp.edges)) == (6, 7)
    res = sd.defect(gbar)
    assert res.exhaustive and res.value in (3, 4)
    assert res.value == 3


def test_pair_inflation_every_petersen_edge(petersen):
    # the theorem pattern holds along every edge, not just (0, 1)
    for e in (3, 9, 14):
        u, v = petersen.endpoints(e)
        gbar, arr = sd.inflate_pair_theorem_check(petersen, u, v)
        assert sd.coverage(gbar, arr).counts == (4, 14, 2, 1)


def test_pair_inflation_rejects_non_adjacent(petersen):
    with pytest.raises(sd.GraphError, match="not adjacent"):
        sd.inflate_pair_theorem_check(petersen, 0, 7)


def test_pair_inflation_rejects_removable_pair(j3):
    with pytest.raises(sd.GraphError, match="not non-removable"):
        sd.inflate_pair_theorem_check(j3, 3, 4)


# --------------------------------------------------------------------------
# poles and path removal
# --------------------------------------------------------------------------

def test_z_pole_shape():
    z = sd.z_pole()
    assert z.vertex_count == 1
    assert z.edge_count == 5
    assert len(z.free_ends) == 7
    names = [name for name, _ in z.connectors]
    sizes = [len(ends) for _, ends in z.connectors]
    assert names == ["a", "b", "c"]
    assert sizes == [3, 3, 1]
    # one trivalent vertex, three semiedges on it, two isolated edges
    assert sum(1 for e in range(5) if z.endpoints(e) == (None, None)) == 2
    assert sum(1 for e in range(5) if z.endpoints(e)[0] == 0) == 3


def test_remove_path2(k33, petersen):
    pole = sd.remove_path2(k33, (0, 3, 1))
    assert pole.vertex_count == 3
    assert len(pole.free_ends) == 5
    assert sd.three_edge_colour(pole) is not None
    pole = sd.remove_path2(petersen, (0, 1, 2))
    assert pole.vertex_count == 7
    assert len(pole.free_ends) == 5


def test_remove_path2_validates(petersen):
    with pytest.raises(sd.GraphError):
        sd.remove_path2(petersen, (0, 1, 0))   # repeated vertex
    with pytest.raises(sd.GraphError):
        sd.remove_path2(petersen, (0, 2, 4))   # 0-2 not an edge


def test_trivial_poles():
    t = sd.trivial_tripole()
    assert t.vertex_count == 1 and t.edge_count == 3
    assert [name for name, _ in t.connectors] == ["r0", "r1", "r2"]
    d = sd.trivial_dipole()
    assert d.vertex_count == 0 and d.edge_count == 1
    assert [name for name, _ in d.connectors] == ["a", "b"]


# --------------------------------------------------------------------------
# superposition
# --------------------------------------------------------------------------

def test_identity_superposition(petersen, k4, j5):
    for base in (petersen, k4, j5):
        same = sd.superpose(base, None, None, sd.identity_wiring(base))
        assert sd.is_isomorphic(same, base)


def test_identity_wiring_join_count(petersen):
    assert len(sd.identity_wiring(petersen).joins) == 30


def test_superpose_validates_connector_counts(petersen):
    w = sd.identity_wiring(petersen)
    with pytest.raises((sd.GraphError, sd.WiringError), match="connector"):
        sd.superpose(petersen, {0: sd.trivial_dipole()}, None, w)
    with pytest.raises((sd.GraphError, sd.WiringError), match="connector"):
        sd.superpose(petersen, None, {0: sd.trivial_tripole()}, w)
    with pytest.raises(sd.GraphError, match="^substituted vertex 10 out of range$"):
        sd.superpose(petersen, {10: sd.trivial_tripole()}, None, w)
    with pytest.raises(sd.GraphError, match="^substituted edge -1 out of range$"):
        sd.superpose(petersen, None, {-1: sd.trivial_dipole()}, w)
    # a key that is not an int would be silently ignored
    with pytest.raises(sd.GraphError, match=r"^substituted vertex 1\.5 out of range$"):
        sd.superpose(petersen, {1.5: sd.trivial_tripole()}, None, w)
    with pytest.raises(sd.GraphError, match="^substituted edge True out of range$"):
        sd.superpose(petersen, None, {True: sd.trivial_dipole()}, w)


def test_superpose_rejects_unwired_ends(petersen):
    w = sd.WiringSpec.of(*sd.identity_wiring(petersen).joins[:-1])
    with pytest.raises((sd.WiringError, sd.NotCubicError, sd.ConnectorError, sd.GraphError)):
        sd.superpose(petersen, None, None, w)


def test_superpose_z_poles_across_an_edge(petersen):
    """Both endpoints of edge 0 become (3,3,1)-poles and the edge becomes a
    triple strand; the spare strands exit through the neighbours' former
    edges.  Smallest usable exercise of supervertex wiring: the two
    supervertices close into a theta component and the remainder reknits
    into an 8-vertex cubic graph."""
    base = petersen
    z0, z1 = sd.z_pole(), sd.z_pole()
    fat = sd.Multipole(0, [(None, None)] * 3,
                       [("a", [(0, 0), (1, 0), (2, 0)]),
                        ("b", [(0, 1), (1, 1), (2, 1)])])
    joins = []
    for a, b in sd.identity_wiring(base).joins:
        eref = a if a.part >= 10 else b
        if eref.part - 10 >= 5:  # edges 5..14 keep their standard wiring
            joins.append((a, b))
    conn = sd.EndRef.conn
    joins += [(conn(0, "a", i), conn(10, "a", i)) for i in range(3)]
    joins += [(conn(1, "a", i), conn(10, "b", i)) for i in range(3)]
    joins += [
        # spare strands run through the old edges 1..4 into the neighbours
        (conn(0, "b", 1), conn(11, "a", 0)), (conn(11, "b", 0), conn(4, "r0", 0)),
        (conn(0, "b", 2), conn(12, "a", 0)), (conn(12, "b", 0), conn(5, "r0", 0)),
        (conn(1, "b", 1), conn(13, "a", 0)), (conn(13, "b", 0), conn(2, "r0", 0)),
        (conn(1, "b", 2), conn(14, "a", 0)), (conn(14, "b", 0), conn(6, "r0", 0)),
        # leftover semiedges pair up across the two supervertices
        (conn(0, "b", 0), conn(1, "c", 0)),
        (conn(0, "c", 0), conn(1, "b", 0)),
    ]
    assert len(joins) == 36
    h = sd.superpose(base, {0: z0, 1: z1}, {0: fat}, sd.WiringSpec.of(*joins))
    assert h.vertex_count == 10 and h.edge_count == 15
    expected = sd.CubicGraph(10, sorted([
        (0, 1), (0, 1), (0, 1),                    # the supervertex theta
        (2, 3), (2, 4), (2, 7), (3, 4), (3, 8), (4, 9),
        (5, 6), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9),
    ]))
    assert sd.canonical_form(h) == sd.canonical_form(expected)
    assert len(sd.connected_components(h)) == 2
