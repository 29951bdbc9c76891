"""Characteristic Z2^3 flows of regular 3-arrays and their Fano geometry.

Each edge of a graph carrying a regular 3-array gets the triple
(x1, x2, x3) with x_i = 0 exactly when the edge lies in the i-th
matching.  Nonzero triples are the seven points of the Fano plane; the
three values around any vertex XOR to zero, i.e. form a Fano line, and
only four of the seven lines can occur: the line of weight-2 points
(all three edges simply covered) and the three lines through (1,1,1)
(an uncovered edge meets a doubly covered and a simply covered one).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .defect_engine import ThreeArray
from .graph_core import CubicGraph, GraphError


class IrregularArrayError(GraphError):
    """The 3-array has a triply covered edge, so no characteristic flow."""


@dataclass(frozen=True, order=True)
class FanoPoint:
    x1: int
    x2: int
    x3: int

    def __post_init__(self):
        for x in (self.x1, self.x2, self.x3):
            if x not in (0, 1):
                raise ValueError(f"coordinates must be bits, got {x!r}")

    def __add__(self, other: "FanoPoint") -> "FanoPoint":
        return FanoPoint(self.x1 ^ other.x1, self.x2 ^ other.x2, self.x3 ^ other.x3)

    @property
    def is_zero(self) -> bool:
        return not (self.x1 or self.x2 or self.x3)

    @property
    def weight(self) -> int:
        return self.x1 + self.x2 + self.x3

    def __str__(self) -> str:
        return f"{self.x1}{self.x2}{self.x3}"

    @staticmethod
    def parse(s: str) -> "FanoPoint":
        if len(s) != 3 or any(c not in "01" for c in s):
            raise ValueError(f"bad point serialization {s!r}")
        return FanoPoint(int(s[0]), int(s[1]), int(s[2]))


_POINTS = tuple(FanoPoint(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
                if (a, b, c) != (0, 0, 0))


@cache
def fano_lines() -> frozenset[frozenset[FanoPoint]]:
    """All seven lines of PG(2,2): triples of points summing to zero.
    Built on first use, then shared."""
    out = set()
    for p, q in combinations(_POINTS, 2):
        r = p + q
        out.add(frozenset((p, q, r)))
    assert len(out) == 7
    return frozenset(out)


@cache
def four_line_catalogue() -> frozenset[frozenset[FanoPoint]]:
    """The lines realizable around a vertex of a regular 3-array.

    Exactly the all-weight-2 line plus the three lines through (1,1,1).
    Built on first use, then shared.
    """
    ones = FanoPoint(1, 1, 1)
    cat = frozenset(line for line in fano_lines()
                    if ones in line or all(p.weight == 2 for p in line))
    assert len(cat) == 4
    return cat


@dataclass(frozen=True)
class CharacteristicFlow:
    """Per-edge Fano points; index e holds the value on edge e."""

    values: tuple[FanoPoint, ...]

    def member_edges(self, i: int) -> frozenset[int]:
        """Recover matching M_i as the edges whose i-th coordinate is 0."""
        if i not in (1, 2, 3):
            raise ValueError("matching index must be 1, 2, or 3")
        return frozenset(e for e, p in enumerate(self.values)
                         if (p.x1, p.x2, p.x3)[i - 1] == 0)

    def serialize(self) -> dict[str, str]:
        return {str(e): str(p) for e, p in enumerate(self.values)}

    @staticmethod
    def deserialize(data: dict[str, str], edge_count: int) -> "CharacteristicFlow":
        vals = []
        for e in range(edge_count):
            if str(e) not in data:
                raise GraphError(f"flow is missing edge {e}")
            vals.append(FanoPoint.parse(data[str(e)]))
        return CharacteristicFlow(tuple(vals))


def characteristic_flow(g: CubicGraph, a: ThreeArray) -> CharacteristicFlow:
    """x_i(e) = 0 iff e lies in the i-th matching of the (regular) array."""
    m1, m2, m3 = a.matchings
    vals = []
    for e in range(g.edge_count):
        k = 4 * (e not in m1) + 2 * (e not in m2) + (e not in m3)
        if not k:
            raise IrregularArrayError(f"edge {e} is triply covered; its value would be 000")
        vals.append(_POINTS[k - 1])  # _POINTS[4*x1 + 2*x2 + x3 - 1] is (x1, x2, x3)
    return CharacteristicFlow(tuple(vals))


@dataclass(frozen=True)
class FlowCheck:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_flow(g: CubicGraph, f: CharacteristicFlow) -> FlowCheck:
    """Check any Z2^3 edge assignment against the vertex-line rules.

    Accepts assignments not produced by characteristic_flow, so external
    certificates can be checked: reports the first violation among
    totality, nowhere-zero, proper-colouring (distinct values at each
    vertex), Kirchhoff, and catalogue membership of every vertex line.
    """
    if len(f.values) != g.edge_count:
        return FlowCheck(False, f"flow covers {len(f.values)} edges, graph has {g.edge_count}")
    for e, p in enumerate(f.values):
        if p.is_zero:
            return FlowCheck(False, f"edge {e} carries 000 (nowhere-zero violation)")
    catalogue = four_line_catalogue()
    for v in range(g.vertex_count):
        pts = [f.values[e] for e, _ in g.incident_ends(v)]
        if len({str(p) for p in pts}) != 3:
            return FlowCheck(False, f"vertex {v}: repeated value (not a proper colouring)")
        total = pts[0] + pts[1] + pts[2]
        if not total.is_zero:
            return FlowCheck(False, f"vertex {v}: values do not sum to zero")
        if frozenset(pts) not in catalogue:
            return FlowCheck(False, f"vertex {v}: line {{{', '.join(sorted(map(str, pts)))}}} "
                                    "is outside the four-line catalogue")
    return FlowCheck(True)
