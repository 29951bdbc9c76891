from pathlib import Path

import pytest

import snarkdefect as sd
from snarkdefect import colouring

DATA = Path(__file__).parent / "data"

SEED = 20260815


@pytest.fixture(scope="session")
def petersen():
    return sd.petersen()


@pytest.fixture(scope="session")
def k4():
    return sd.CubicGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


@pytest.fixture(scope="session")
def k33():
    return sd.CubicGraph(6, ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                             (2, 3), (2, 4), (2, 5)))


@pytest.fixture(scope="session")
def theta():
    # two vertices joined by a triple edge
    return sd.CubicGraph(2, ((0, 1), (0, 1), (0, 1)))


@pytest.fixture(scope="session")
def dumbbell():
    # two loops joined by a bridge
    return sd.CubicGraph(2, ((0, 0), (0, 1), (1, 1)))


@pytest.fixture(scope="session")
def prism():
    return sd.CubicGraph(6, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5),
                             (3, 4), (3, 5), (4, 5)))


@pytest.fixture(scope="session")
def cube():
    # Q3, vertices = 3-bit strings, edges flip one bit
    return sd.CubicGraph(8, ((0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
                             (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)))


@pytest.fixture(scope="session")
def j3():
    return sd.flower_snark(3)


@pytest.fixture(scope="session")
def j5():
    return sd.flower_snark(5)


@pytest.fixture(scope="session")
def j7():
    return sd.flower_snark(7)


@pytest.fixture(scope="session")
def blanusa1():
    return sd.parse_graph6((DATA / "blanusa1.g6").read_text())


@pytest.fixture(scope="session")
def blanusa2():
    return sd.parse_graph6((DATA / "blanusa2.g6").read_text())


def petersen_ring(k):
    """k copies of Petersen minus edge 0, joined in a ring: the copy
    ends of edge 0 = (0, 1) become 10c and 10c + 1, and 10c + 1 is
    joined to 10(c + 1) of the next copy.

    Each copy minus its edge has 10 vertices, an even number, so a
    perfect matching covers them with an even number of edges leaving
    the copy: it takes both ring edges of a copy or neither.  Rings cut
    every 3-array along these 2-edge cuts, so the scan cannot stop at
    the snark bound 3: df = rdf = 3k.
    """
    p = sd.petersen()
    edges = []
    for c in range(k):
        edges += [(a + 10 * c, b + 10 * c) for a, b in p.edges[1:]]
        edges.append((10 * c + 1, 10 * ((c + 1) % k)))
    return sd.CubicGraph(10 * k, tuple(edges))


def counted_walks(monkeypatch):
    """Count what each matching walk yields: one entry per walk."""
    walk, reads = colouring._lex_matchings, []

    def counted(g, found):
        reads.append(0)
        at = len(reads) - 1
        for m in walk(g, found):
            reads[at] += 1
            yield m

    monkeypatch.setattr(colouring, "_lex_matchings", counted)
    return reads
