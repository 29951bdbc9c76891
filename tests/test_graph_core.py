"""Containers, text formats, and the structural predicates."""

import random
import re
import string
import time

import networkx as nx
import pytest

import snarkdefect as sd
import oracles
from conftest import petersen_ring
from oracles import edge_pairs

PETERSEN_G6 = "IheA@GUAo"

# a 3-sum of flower:3 and inflate-pair:petersen:0:1, cyclically 3-edge-connected
G24 = "WD[CIC@_IGc?????_?G??????AO?Ao?@WC?_?GCG?K???`@"

PETERSEN_EDGES = (
    (0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4),
    (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9),
)


def relabelled(g, perm):
    pairs = sorted(tuple(sorted((perm[a], perm[b]))) for a, b in g.edges)
    return sd.CubicGraph(g.vertex_count, pairs)


# --------------------------------------------------------------------------
# construction and validation
# --------------------------------------------------------------------------

def test_petersen_container_basics(petersen):
    g = petersen
    assert g.vertex_count == 10
    assert g.edge_count == 15
    assert g.edges == PETERSEN_EDGES
    assert g.is_graph
    assert g.free_ends == ()
    for v in range(10):
        assert len(g.incident_edges(v)) == 3
    assert g.endpoints(0) == (0, 1)
    assert g.other_endpoint(0, 0) == 1
    assert g.other_endpoint(0, 1) == 0
    assert g.adjacency()[0] == [(1, 0), (4, 1), (5, 2)]
    assert repr(g) == "<CubicGraph n=10 m=15 free=0>"
    twin = sd.CubicGraph(10, PETERSEN_EDGES)
    assert twin == g and hash(twin) == hash(g)
    assert (g == 1) is False  # Multipole.__eq__ returns NotImplemented


def test_incident_ends_are_darts(petersen):
    # every (edge, end) dart at v points back at v
    for v in range(10):
        for e, end in petersen.incident_ends(v):
            assert petersen.endpoints(e)[end] == v


def test_not_cubic_rejected():
    with pytest.raises(sd.NotCubicError, match="4 incident"):
        sd.Multipole(1, [(0, None)] * 4)
    with pytest.raises(sd.NotCubicError, match="2 incident"):
        sd.Multipole(1, [(0, None)] * 2)


def test_vertex_out_of_range_rejected(petersen):
    with pytest.raises(sd.GraphError, match="out of range"):
        sd.Multipole(2, [(0, 1), (0, 1), (0, None), (1, None), (5, None)])
    with pytest.raises(sd.GraphError, match="^negative vertex count$"):
        sd.Multipole(-1, [])
    # a vertex id is an int, and a bool is not one: True would pass for
    # vertex 1 and then fail certificate checks and the edge-list reader
    as_true = [tuple(True if v == 1 else v for v in p) for p in petersen.edges]
    with pytest.raises(sd.GraphError, match=r"^edge 0 end 1: vertex True out of range$"):
        sd.CubicGraph(10, as_true)
    for slot in (1.0, "1"):
        with pytest.raises(sd.GraphError, match=rf"^edge 0 end 0: vertex {slot!r} out of range$"):
            sd.Multipole(2, [(slot, None)] + [(0, None)] * 3 + [(1, None)] * 2)
    for count in (True, 1.0):
        with pytest.raises(sd.GraphError, match=rf"^vertex count {count!r} is not an int$"):
            sd.Multipole(count, [(0, None)] * 3)


def test_cubic_graph_rejects_free_ends():
    with pytest.raises(sd.ConnectorError, match="^free ends not covered by any connector"):
        sd.CubicGraph(1, [(0, None)] * 3)


def test_default_connector_covers_all_free_ends():
    m = sd.Multipole(1, [(0, None), (0, None), (0, None)])
    assert m.connectors == (("free", ((0, 1), (1, 1), (2, 1))),)
    assert m.connector("free") == ((0, 1), (1, 1), (2, 1))


def test_explicit_connectors_must_cover():
    with pytest.raises(sd.ConnectorError, match="not covered"):
        sd.Multipole(1, [(0, None)] * 3, ())
    with pytest.raises(sd.ConnectorError):
        # an end listed twice
        sd.Multipole(1, [(0, None)] * 3,
                     [("a", [(0, 1), (0, 1)]), ("b", [(1, 1), (2, 1)])])
    with pytest.raises(sd.ConnectorError, match=r"^connector a: \(0, 0\) is not a free end$"):
        sd.Multipole(1, [(0, None)] * 3, [("a", [(0, 0), (1, 1), (2, 1)])])


def test_connector_names_are_unique():
    text = "vertices 1\n0 -\n0 -\n0 -\nconnector a: e0.1\nconnector a: e1.1 e2.1\n"
    with pytest.raises(sd.ConnectorError, match="name used twice"):
        sd.parse_edge_list(text)
    with pytest.raises(sd.ConnectorError, match="name used twice"):
        sd.Multipole(1, [(0, None)] * 3, [("a", [(0, 1)]), ("a", [(1, 1), (2, 1)])])


def test_loops_and_parallel_edges_allowed(theta, dumbbell):
    assert theta.edge_count == 3
    assert dumbbell.endpoints(0) == (0, 0)
    assert dumbbell.incident_edges(0) == (0, 0, 1)  # loop twice


# --------------------------------------------------------------------------
# graph6
# --------------------------------------------------------------------------

def test_graph6_petersen_golden(petersen):
    assert sd.write_graph6(petersen) == PETERSEN_G6
    assert sd.parse_graph6(PETERSEN_G6).edges == PETERSEN_EDGES


def test_graph6_roundtrip_suite(petersen, k33, prism, cube, j5, blanusa1, blanusa2):
    for g in (petersen, k33, prism, cube, j5, blanusa1, blanusa2):
        assert sd.parse_graph6(sd.write_graph6(g)).edges == g.edges


def test_graph6_header_and_whitespace(petersen):
    assert sd.parse_graph6(">>graph6<<" + PETERSEN_G6).edges == petersen.edges
    assert sd.parse_graph6(PETERSEN_G6 + "\n").edges == petersen.edges


def test_graph6_rejects_junk():
    with pytest.raises(sd.FormatError):
        sd.parse_graph6("I" + "\x1f" * 9)
    with pytest.raises(sd.NotCubicError):
        sd.parse_graph6("A_")  # a single edge: degree 1
    with pytest.raises(sd.FormatError, match="^empty graph6 line$"):
        sd.parse_graph6(">>graph6<<")
    with pytest.raises(sd.FormatError, match="^invalid graph6 byte 127$"):
        sd.parse_graph6(PETERSEN_G6[:4] + "\x7f" + PETERSEN_G6[5:])
    # "o" ends the body in 110000; "s" (110100) sets bit 45, the first padding bit
    with pytest.raises(sd.FormatError, match="^nonzero padding bits in graph6 body$"):
        sd.parse_graph6(PETERSEN_G6[:-1] + "s")


def test_graph6_cannot_encode_multigraphs(theta, dumbbell):
    with pytest.raises(sd.FormatError, match="parallel"):
        sd.write_graph6(theta)
    with pytest.raises(sd.FormatError):
        sd.write_graph6(dumbbell)


def test_graph6_matches_networkx(petersen, j5, blanusa1):
    """Both directions agree with networkx on named snarks and on seeded
    simple cubic graphs, a third of them past the one-byte size field."""
    graphs = [petersen, j5, blanusa1]
    rng = random.Random(20261020)
    while len(graphs) < 123:
        n = rng.choice([4, 10, 30, 62] if len(graphs) % 3 else [64, 100, 130])
        edges = oracles.random_cubic_edges(rng, n)  # a multigraph: keep only simple ones
        if len(set(edges)) == len(edges) and all(a != b for a, b in edges):
            graphs.append(sd.CubicGraph(n, edges))
    for g in graphs:
        h = nx.from_graph6_bytes(sd.write_graph6(g).encode())
        assert sorted(map(tuple, map(sorted, h.edges()))) == sorted(g.edges)
        text = nx.to_graph6_bytes(h, header=False).decode("ascii").strip()
        assert sd.parse_graph6(text).edges == tuple(sorted(map(tuple, map(sorted, g.edges))))


def test_graph6_long_size_fields():
    g = sd.bipartite_double(sd.flower_snark(9))  # 72 vertices: a '~' size field
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    text = sd.write_graph6(g)
    assert text.startswith("~") and len(text) == 4 + (72 * 71 // 2 + 5) // 6
    assert text == nx.to_graph6_bytes(h, header=False).decode("ascii").strip()
    back = sd.parse_graph6(text)
    assert back.edges == tuple(sorted((min(a, b), max(a, b)) for a, b in g.edges))
    assert sd.write_graph6(back) == text

    empty = sd.parse_graph6("~~??????")  # n = 0 in the 36-bit form
    assert (empty.vertex_count, empty.edges) == (0, ())
    for text in ("~", "~??", "~~???"):
        with pytest.raises(sd.FormatError, match="^truncated graph6 size field$"):
            sd.parse_graph6(text)
    with pytest.raises(sd.FormatError, match="^invalid graph6 byte 32$"):
        sd.parse_graph6("~? ?")


# --------------------------------------------------------------------------
# edge-list text format
# --------------------------------------------------------------------------

def test_edge_list_roundtrip(petersen):
    text = sd.write_edge_list(petersen)
    back = sd.parse_edge_list(text)
    assert back.edges == petersen.edges
    assert back.is_graph


def test_edge_list_roundtrip_with_connectors():
    z = sd.z_pole()
    back = sd.parse_edge_list(sd.write_edge_list(z))
    assert back.edges == z.edges
    assert back.connectors == z.connectors


def test_readers_fail_only_with_format_or_graph_errors(petersen, k33, theta):
    """Seeded edits of valid graph6 and edge-list text parse or raise
    GraphError (FormatError is one), never another exception."""
    rng = random.Random(20260815)
    alphabet = string.printable + "\u00e9\x00\xff"
    texts = [(sd.parse_graph6, sd.write_graph6(g)) for g in (petersen, k33)]
    texts += [(sd.parse_edge_list, sd.write_edge_list(g)) for g in (petersen, theta)]
    texts += [(sd.parse_edge_list, sd.write_edge_list(sd.z_pole()))]
    for parse, text in texts:
        for _ in range(400):
            chars = list(text)
            for _ in range(rng.randint(1, 4)):
                pos = rng.randrange(len(chars) + 1)
                op = rng.randrange(3) if pos < len(chars) else 0
                if op == 0:
                    chars.insert(pos, rng.choice(alphabet))
                elif op == 1:
                    del chars[pos]
                else:
                    chars[pos] = rng.choice(alphabet)
            try:
                parse("".join(chars))
            except sd.GraphError:
                pass
    with pytest.raises(sd.NotCubicError, match="vertex 0 "):  # no list of 10**12 counters
        sd.parse_edge_list("vertices 1000000000000\n")


def test_edge_list_comments_and_errors():
    m = sd.parse_edge_list("# theta\nvertices 2\n0 1\n0 1\n0 1\n")
    assert m.vertex_count == 2 and m.edge_count == 3
    with pytest.raises(sd.FormatError, match="line 2"):
        sd.parse_edge_list("vertices 2\n0 nope\n")
    with pytest.raises(sd.FormatError, match="^missing 'vertices N' line$"):
        sd.parse_edge_list("0 1\n0 1\n0 1\n")


@pytest.mark.parametrize("text, message", [
    ("verticesX 2\n0 1\n0 1\n0 1\n", "line 1: malformed vertices line"),
    ("vertices 3\n0 1\n0 1\n0 1\nvertices 2\n", "line 5: second vertices line"),
    ("vertices 1_0\n", "line 1: malformed vertices line"),
    ("vertices \u0662\n", "line 1: malformed vertices line"),
    ("vertices 2\n+1 0\n0 1\n0 1\n", "line 2: bad endpoint token '+1'"),
    ("vertices 3\n0_2 1\n", "line 2: bad endpoint token '0_2'"),
    ("vertices 2\n\u0661 0\n0 1\n0 1\n", "line 2: bad endpoint token '\u0661'"),
    ("vertices 1\n0 -\n0 -\n0 -\nconnector a: e\u0660.1 e1.1 e2.1\n",
     "line 5: bad end token 'e\u0660.1'"),
    ("vertices 2\n0 1\f0 1\n0 1\n", "line 2: expected two endpoint tokens"),
], ids=["vertices-prefix", "second-vertices", "count-underscore", "count-arabic-digit",
        "endpoint-plus", "endpoint-underscore", "endpoint-arabic-digit", "end-token-digit",
        "form-feed-in-line"])
def test_edge_list_takes_only_what_the_format_says(text, message):
    with pytest.raises(sd.FormatError, match=f"^{re.escape(message)}$"):
        sd.parse_edge_list(text)


# --------------------------------------------------------------------------
# predicates
# --------------------------------------------------------------------------

def test_girth_goldens(petersen, k4, k33, theta, dumbbell, prism, cube, j5, j7):
    assert sd.girth(petersen) == 5
    assert sd.girth(k4) == 3
    assert sd.girth(k33) == 4
    assert sd.girth(theta) == 2
    assert sd.girth(dumbbell) == 1
    assert sd.girth(prism) == 3
    assert sd.girth(cube) == 4
    assert sd.girth(j5) == 5
    assert sd.girth(j7) == 6


def test_bridges(petersen, dumbbell):
    assert sd.bridges(dumbbell) == [1]
    assert sd.bridges(petersen) == []
    # cutting two of vertex 0's edges leaves the third as a bridge
    assert 2 in sd.bridges(petersen, removed=(0, 1))
    assert not sd.is_bridgeless(dumbbell)
    assert sd.is_bridgeless(petersen)


def test_connectivity(petersen, dumbbell):
    two_thetas = sd.CubicGraph(4, ((0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3)))
    assert sd.is_connected(petersen)
    assert not sd.is_connected(two_thetas)
    assert sorted(map(sorted, sd.connected_components(two_thetas))) == [[0, 1], [2, 3]]
    assert sd.is_two_connected(petersen)
    assert not sd.is_two_connected(dumbbell)
    assert not sd.is_two_connected(two_thetas)


def test_two_connected_matches_vertex_deletion_oracle(petersen, k4, k33, theta, dumbbell,
                                                       prism, cube, j3, j5, blanusa1, blanusa2):
    two_thetas = sd.CubicGraph(4, ((0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3)))
    suite = [petersen, k4, k33, theta, dumbbell, prism, cube, j3, j5, blanusa1, blanusa2,
             two_thetas]
    rng = random.Random(20260815)
    suite += [sd.CubicGraph(n, oracles.random_cubic_edges(rng, n))
              for n in [2, 4, 6, 8, 10, 12] * 10]
    seen = set()
    for g in suite:
        expected = oracles.two_connected(g.vertex_count, edge_pairs(g))
        assert sd.is_two_connected(g) == expected, g.edges
        seen.add(expected)
    assert seen == {True, False}


def test_walks_agree_with_oracles_on_random_multigraphs():
    # configuration-model graphs: loops, parallel edges and disconnected
    # graphs all occur, and each walk reads the same arc table
    rng = random.Random(20261018)
    kinds = set()
    for n in [2, 4, 6, 8, 10, 12, 14] * 35:
        g = sd.CubicGraph(n, oracles.random_cubic_edges(rng, n))
        pairs = edge_pairs(g)
        dropped = rng.sample(range(n), rng.randint(1, min(2, n)))
        pole, _, _ = sd.remove_vertices(g, dropped)
        for m in (g, pole):
            for v in range(m.vertex_count):
                assert m.arcs(v) == tuple((m.endpoints(e)[1 - i], e)
                                          for e, i in m.incident_ends(v))

        count = oracles._component_count(n, pairs)
        comps = sd.connected_components(g)
        assert len(comps) == count
        assert sorted(v for c in comps for v in c) == list(range(n))
        assert comps == sorted(map(sorted, comps))
        where = {v: k for k, c in enumerate(comps) for v in c}
        assert all(where[a] == where[b] for a, b in pairs)

        removed = set(rng.sample(range(g.edge_count), rng.randint(0, 3)))
        for dead in (set(), removed):
            kept = [e for e in range(g.edge_count) if e not in dead]
            base = oracles._component_count(n, [pairs[e] for e in kept])
            expected = [e for e in kept if pairs[e][0] != pairs[e][1]
                        and oracles._component_count(
                            n, [pairs[f] for f in kept if f != e]) > base]
            assert sd.bridges(g, removed=dead) == expected, (g.edges, dead)

        loops = any(a == b for a, b in pairs)
        parallel = len(set(pairs)) < len(pairs)
        kinds.update(kind for kind, seen in (("loop", loops), ("parallel", parallel),
                                             ("disconnected", count > 1)) if seen)
        h = nx.Graph(pairs)
        assert sd.girth(g) == (1 if loops else 2 if parallel else nx.girth(h)), g.edges
        if not (loops or parallel):
            kinds.add("simple")
            assert sd.is_bipartite(g) == nx.is_bipartite(h)
    assert kinds == {"loop", "parallel", "disconnected", "simple"}


def test_bipartite(petersen, k4, k33, cube, theta, prism):
    assert sd.is_bipartite(k33)
    assert sd.is_bipartite(cube)
    assert sd.is_bipartite(theta)
    assert not sd.is_bipartite(petersen)
    assert not sd.is_bipartite(k4)
    assert not sd.is_bipartite(prism)


def test_cyclic_edge_connectivity(petersen, k4, theta, j5, blanusa1, j7, dumbbell):
    assert sd.cyclic_edge_connectivity(petersen, 6) == 5
    # the bridge separates the two loops
    assert sd.cyclic_edge_connectivity(dumbbell, 6) == 1
    assert sd.cyclic_edge_connectivity(j5, 6) == 5
    assert sd.cyclic_edge_connectivity(blanusa1, 6) == 4
    # below any cycle-separating cut, the probe caps out
    assert sd.cyclic_edge_connectivity(petersen, 3) is sd.EXCEEDS_LIMIT
    # K4 and theta admit no cycle-separating cut at all
    assert sd.cyclic_edge_connectivity(k4, 6) is sd.EXCEEDS_LIMIT
    assert sd.cyclic_edge_connectivity(theta, 6) is sd.EXCEEDS_LIMIT
    with pytest.raises(sd.SizeGateError):
        sd.cyclic_edge_connectivity(j7, 6, max_vertices=10)


def _outcome(f, *args, **kw):
    try:
        return f(*args, **kw)
    except sd.GraphError as exc:
        return type(exc), str(exc)


def _brute_cyclic_edge_connectivity(g, limit, max_vertices=40):
    n, pairs = g.vertex_count, edge_pairs(g)
    if n > max_vertices:
        raise sd.SizeGateError(
            f"{n} vertices exceeds the exact enumeration gate ({max_vertices})")
    if oracles._component_count(n, pairs) > 1:
        raise sd.GraphError("cyclic edge connectivity requires a connected graph")
    best = oracles.cyclic_edge_connectivity(n, pairs, limit)
    return sd.EXCEEDS_LIMIT if best is None else best


def test_cyclic_edge_connectivity_matches_the_brute_force():
    # configuration-model multigraphs: loops, parallel edges and
    # disconnected graphs all occur; errors must match in type and text
    rng = random.Random(20261019)
    seen = set()
    for n in [2, 4, 6, 8, 10, 12, 14] * 20:
        g = sd.CubicGraph(n, oracles.random_cubic_edges(rng, n))
        for limit in range(-1, 7):
            got = _outcome(sd.cyclic_edge_connectivity, g, limit)
            assert got == _outcome(_brute_cyclic_edge_connectivity, g, limit), (g.edges, limit)
            seen.add(got if isinstance(got, int) else
                     "exceeds" if got is sd.EXCEEDS_LIMIT else got[0].__name__)
        gate = n - 2
        assert (_outcome(sd.cyclic_edge_connectivity, g, 6, max_vertices=gate)
                == _outcome(_brute_cyclic_edge_connectivity, g, 6, max_vertices=gate))
    assert {1, 2, 3, "exceeds", "GraphError"} <= seen


@pytest.mark.parametrize("graph, limit, expected", [
    (lambda: sd.parse_graph6(G24), 3, 3),
    (lambda: petersen_ring(3), 6, 2),
], ids=["G24", "petersen-ring-3"])
def test_cyclic_edge_connectivity_reaches_small_cuts_of_large_graphs(graph, limit, expected):
    # 24 and 30 vertices: 2^23 and 2^29 bipartitions, but small cuts are
    # found through bridges of the graph minus a few edges
    g = graph()
    start = time.process_time()
    assert sd.cyclic_edge_connectivity(g, limit) == expected
    assert time.process_time() - start < 1.0


def test_bipartite_double(petersen, k4, theta, cube):
    d = sd.bipartite_double(petersen)
    assert d.vertex_count == 20 and d.edge_count == 30
    assert sd.is_bipartite(d)
    assert sd.is_connected(d)
    assert sd.girth(d) == 6
    # the double cover of K4 is the cube
    assert sd.is_isomorphic(sd.bipartite_double(k4), cube)
    # bipartite input doubles to two disjoint copies
    assert len(sd.connected_components(sd.bipartite_double(theta))) == 2


# --------------------------------------------------------------------------
# vertex deletion
# --------------------------------------------------------------------------

def test_remove_vertices(petersen):
    m, vmap, emap = sd.remove_vertices(petersen, (0, 1))
    assert m.vertex_count == 8
    assert m.edge_count == 14  # edge (0,1) vanished, four ends dangle
    assert len(m.free_ends) == 4
    assert m.connectors[0][0] == "cut"
    assert 0 not in emap  # the fully-internal edge has no image
    assert vmap == {v: v - 2 for v in range(2, 10)}
    # surviving edges keep their endpoints, renumbered
    for old, new in emap.items():
        a, b = petersen.endpoints(old)
        na, nb = m.endpoints(new)
        assert na == (None if a in (0, 1) else vmap[a])
        assert nb == (None if b in (0, 1) else vmap[b])


def test_remove_vertices_out_of_range(petersen):
    with pytest.raises(sd.GraphError, match="out of range"):
        sd.remove_vertices(petersen, (0, 99))


@pytest.mark.parametrize("vs", [[1.5], [True]], ids=["float", "bool"])
def test_remove_vertices_takes_only_int_vertices(petersen, vs):
    # 1.5 would remove nothing, and True vertex 1
    with pytest.raises(sd.GraphError, match=r"^vertex (1\.5|True) out of range$"):
        sd.remove_vertices(petersen, vs)


# --------------------------------------------------------------------------
# end references and junctions
# --------------------------------------------------------------------------

def test_endref_parse():
    r = sd.EndRef.parse("0:e17.1")
    assert (r.part, r.edge, r.end) == (0, 17, 1)
    r = sd.EndRef.parse("2:cut[3]")
    assert (r.part, r.connector, r.index) == (2, "cut", 3)
    with pytest.raises(sd.WiringError):
        sd.EndRef.parse("garbage")
    for token in ("x:e1.0", ":e1.0", "0:!", "+0:e1.0", "0_0:e1.0", " 0:e1.0", "-1:e0.0",
                  "\u0661:e1.0", "0:e\u0661.0", "0:cut[\u0661]"):
        with pytest.raises(sd.WiringError, match="bad end reference"):
            sd.EndRef.parse(token)
    with pytest.raises(sd.WiringError, match="bad end reference"):
        sd.WiringSpec.parse("join x:a[0] 1:b[0]")
    # a line ends at '\n' only
    with pytest.raises(sd.WiringError, match="^line 1: expected 'join A B'$"):
        sd.WiringSpec.parse("join 0:e0.1 1:e0.0\x1cjoin 0:e1.1 1:e1.0")


def test_wiring_spec_parse_matches_of():
    text = "# weld one pair\njoin 0:e0.1 1:e0.0  # across the parts"
    parsed = sd.WiringSpec.parse(text)
    built = sd.WiringSpec.of((sd.EndRef.edge_end(0, 0, 1), sd.EndRef.edge_end(1, 0, 0)))
    assert parsed == built
    with pytest.raises(sd.WiringError, match="^line 2: expected 'join A B'$"):
        sd.WiringSpec.parse("join 0:e0.1 1:e0.0\nweld 0:e1.1 1:e1.0")


# a trivial tripole's connector r<k> is the free end 1 of its edge k
END_REFS = {"connector": lambda p, k: sd.EndRef.conn(p, f"r{k}", 0),
            "edge-end": lambda p, k: sd.EndRef.edge_end(p, k, 1)}


@pytest.mark.parametrize("ref", END_REFS.values(), ids=END_REFS.keys())
def test_junction_two_tripoles_make_theta(theta, ref):
    t0, t1 = sd.trivial_tripole(), sd.trivial_tripole()
    w = sd.WiringSpec.of(*[(ref(0, k), ref(1, k)) for k in range(3)])
    joined = sd.junction((t0, t1), w).to_graph()
    assert sd.canonical_form(joined) == sd.canonical_form(theta)


def test_junction_rejects_an_edge_past_the_part():
    t0, t1 = sd.trivial_tripole(), sd.trivial_tripole()
    for far, message in [(sd.EndRef.edge_end(1, 3, 1), "part 1: edge 3 out of range"),
                         (sd.EndRef.edge_end(2, 0, 1), "part 2 out of range"),
                         (sd.EndRef.conn(1, "zz", 0), "part 1: no connector 'zz'"),
                         (sd.EndRef.conn(1, "r0", 1), "part 1: connector 'r0' has no index 1")]:
        w = sd.WiringSpec.of((sd.EndRef.edge_end(0, 0, 1), far))
        with pytest.raises(sd.WiringError, match=f"^{message}$"):
            sd.junction((t0, t1), w)


def test_junction_rejects_vertex_free_circle():
    d0, d1 = sd.trivial_dipole(), sd.trivial_dipole()
    w = sd.WiringSpec.of(
        (sd.EndRef.conn(0, "a", 0), sd.EndRef.conn(1, "b", 0)),
        (sd.EndRef.conn(0, "b", 0), sd.EndRef.conn(1, "a", 0)),
    )
    with pytest.raises(sd.WiringError, match="circle"):
        sd.junction((d0, d1), w)


def test_junction_rejects_reused_end():
    t0, t1, t2 = (sd.trivial_tripole() for _ in range(3))
    w = sd.WiringSpec.of(
        (sd.EndRef.conn(0, "r0", 0), sd.EndRef.conn(1, "r0", 0)),
        (sd.EndRef.conn(0, "r0", 0), sd.EndRef.conn(2, "r0", 0)),
    )
    with pytest.raises(sd.WiringError, match="used by more than one directive"):
        sd.junction((t0, t1, t2), w)
    anchored = sd.EndRef.edge_end(0, 0, 0)  # end 0 of a tripole edge sits on its vertex
    w = sd.WiringSpec.of((anchored, sd.EndRef.conn(1, "r0", 0)))
    with pytest.raises(sd.WiringError, match="is not a free end$"):
        sd.junction((t0, t1), w)
    w = sd.WiringSpec.of((sd.EndRef.conn(0, "r0", 0), sd.EndRef.edge_end(0, 0, 1)))
    with pytest.raises(sd.WiringError, match="^directive welds an end to itself: "):
        sd.junction((t0, t1), w)


def test_junction_keeps_unwired_ends_free():
    t0, t1 = sd.trivial_tripole(), sd.trivial_tripole()
    w = sd.WiringSpec.of((sd.EndRef.conn(0, "r0", 0), sd.EndRef.conn(1, "r0", 0)))
    m = sd.junction((t0, t1), w)
    assert len(m.free_ends) == 4
    with pytest.raises((sd.NotCubicError, sd.ConnectorError, sd.GraphError)):
        m.to_graph()


# --------------------------------------------------------------------------
# isomorphism
# --------------------------------------------------------------------------

def test_canonical_form_is_relabelling_invariant(petersen, j5):
    rng = random.Random(20260815)
    for g in (petersen, j5):
        base = sd.canonical_form(g)
        for _ in range(5):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            assert sd.canonical_form(relabelled(g, perm)) == base


def test_is_isomorphic(petersen, k33, prism, cube, k4):
    assert sd.is_isomorphic(petersen, relabelled(petersen, [3, 1, 4, 0, 5, 9, 2, 6, 8, 7]))
    assert not sd.is_isomorphic(k33, prism)
    assert not sd.is_isomorphic(petersen, cube)  # sizes differ
    assert not sd.is_isomorphic(k4, prism)


def test_isomorphism_agrees_with_networkx(petersen, j5, blanusa1, blanusa2):
    assert not sd.is_isomorphic(blanusa1, blanusa2)
    g1 = nx.Graph(list(blanusa1.edges))
    g2 = nx.Graph(list(blanusa2.edges))
    assert not nx.is_isomorphic(g1, g2)


def test_canonical_form_size_gate():
    big = sd.flower_snark(17)  # 68 vertices
    with pytest.raises(sd.SizeGateError):
        sd.canonical_form(big)


def test_edge_pairs_helper(petersen):
    assert edge_pairs(petersen) == list(PETERSEN_EDGES)
