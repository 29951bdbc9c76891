"""Cubic multigraphs and multipoles with dart-level edge addressing.

Edges carry dense integer ids; each edge has two endpoint slots (end 0
and end 1).  A slot holds a vertex index, or ``None`` for a free end
(semiedge).  Loops, parallel edges, dangling edges and isolated edges
are all first class: incidence bookkeeping happens per edge-end, never
per vertex pair.

Text formats
------------

graph6 (simple graphs only) follows the published format: optional
``>>graph6<<`` header, then bytes 63..126 whose 6-bit groups, big end
first, read as one bit string.  A long size field is a binary number;
body bit j(j-1)/2 + i is set when i < j are adjacent, then zero padding.
Parsed edges are re-ordered lexicographically by (min endpoint, max
endpoint), which is also the order the writer emits, so parse/serialize
round-trips on canonical edge lists.

The edge-list format handles multigraphs and multipoles::

    # comment
    vertices 4
    0 1
    0 1          # parallel edge
    2 -          # dangling edge at vertex 2
    - -          # isolated edge
    connector left: e2.1 e3.0
    connector right: e3.1

Each edge line gives the two endpoint slots in end order (end 0 first);
``-`` marks a free end.  ``connector NAME: ...`` lines partition the
free ends using ``e<edge>.<end>`` tokens.  If no connector line is
present, all free ends form a single connector named ``free`` in
(edge, end) order.  Every free end must lie in exactly one connector,
and no two connectors share a name.  Counts and ids are ASCII digits,
``vertices`` comes once, and a line ends at '\\n' only.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Base class for structural and format errors."""


class FormatError(GraphError):
    """Malformed graph6 or edge-list input."""


class NotCubicError(GraphError):
    """A vertex is not incident with exactly three edge-ends."""

    def __init__(self, vertex: int, ends: int):
        super().__init__(f"vertex {vertex} has {ends} incident edge-ends, expected 3")
        self.vertex = vertex
        self.ends = ends


class ConnectorError(GraphError):
    """Connectors do not partition the free ends."""


class WiringError(GraphError):
    """A junction directive references a missing, anchored or reused end."""


class SizeGateError(GraphError):
    """Input exceeds a documented exact-search size gate."""


class _Sentinel:
    """A named marker result, compared by identity; prints its name."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Returned by :func:`cyclic_edge_connectivity` when no cycle-separating
#: cut of size <= limit exists (including graphs with no such cut at all).
EXCEEDS_LIMIT = _Sentinel("EXCEEDS_LIMIT")


class Multipole:
    """A cubic multipole: every vertex meets exactly three edge-ends.

    Immutable after construction; safe to share freely.
    """

    __slots__ = ("_n", "_endpoints", "_connectors", "_incidence", "_arcs", "_free")

    def __init__(
        self,
        vertex_count: int,
        endpoints: Iterable[tuple[int | None, int | None]],
        connectors: Sequence[tuple[str, Sequence[tuple[int, int]]]] | None = None,
    ):
        eps = tuple((a, b) for a, b in endpoints)
        if type(vertex_count) is not int:  # a bool is not one
            raise GraphError(f"vertex count {vertex_count!r} is not an int")
        if vertex_count < 0:
            raise GraphError("negative vertex count")
        # sparse, so a huge stated vertex count fails without a huge list
        ends_per_vertex: dict[int, int] = {}
        free: list[tuple[int, int]] = []
        for e, (a, b) in enumerate(eps):
            for end, slot in enumerate((a, b)):
                if slot is None:
                    free.append((e, end))
                elif type(slot) is int and 0 <= slot < vertex_count:
                    ends_per_vertex[slot] = ends_per_vertex.get(slot, 0) + 1
                else:
                    raise GraphError(f"edge {e} end {end}: vertex {slot!r} out of range")
        for v in range(vertex_count):
            k = ends_per_vertex.get(v, 0)
            if k != 3:
                raise NotCubicError(v, k)

        free_set = set(free)
        if connectors is None:
            conns = (("free", tuple(free)),) if free else ()
        else:
            conns = tuple((name, tuple((e, i) for e, i in ends)) for name, ends in connectors)
            seen: set[tuple[int, int]] = set()
            names: set[str] = set()
            for name, ends in conns:
                if name in names:
                    raise ConnectorError(f"connector {name}: name used twice")
                names.add(name)
                for fe in ends:
                    if fe not in free_set:
                        raise ConnectorError(f"connector {name}: {fe} is not a free end")
                    if fe in seen:
                        raise ConnectorError(f"connector {name}: {fe} listed twice")
                    seen.add(fe)
            if seen != free_set:
                missing = sorted(free_set - seen)
                raise ConnectorError(f"free ends not covered by any connector: {missing}")

        # both tables fill in (edge, end) order, so they are sorted and
        # position k of arcs(v) is the far end of incident_ends(v)[k]
        incidence: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
        arcs: list[list[tuple[int | None, int]]] = [[] for _ in range(vertex_count)]
        for e, (a, b) in enumerate(eps):
            if a is not None:
                incidence[a].append((e, 0))
                arcs[a].append((b, e))
            if b is not None:
                incidence[b].append((e, 1))
                arcs[b].append((a, e))

        self._n = vertex_count
        self._endpoints = eps
        self._connectors = conns
        self._incidence = tuple(map(tuple, incidence))
        self._arcs = tuple(map(tuple, arcs))
        self._free = tuple(free)  # in (edge, end) order, as filled

    # -- basic queries ---------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._endpoints)

    @property
    def edges(self) -> tuple[tuple[int | None, int | None], ...]:
        return self._endpoints

    @property
    def connectors(self) -> tuple[tuple[str, tuple[tuple[int, int], ...]], ...]:
        return self._connectors

    def endpoints(self, e: int) -> tuple[int | None, int | None]:
        return self._endpoints[e]

    def incident_ends(self, v: int) -> tuple[tuple[int, int], ...]:
        """The three (edge, end) pairs at v, sorted; a loop appears twice."""
        return self._incidence[v]

    def arcs(self, v: int) -> tuple[tuple[int | None, int], ...]:
        """The (neighbour, edge) pairs at v in ``incident_ends`` order: a
        loop appears twice, and a free end has neighbour None.  Built once
        with the multipole; every graph walk reads it."""
        return self._arcs[v]

    def incident_edges(self, v: int) -> tuple[int, ...]:
        return tuple(e for e, _ in self._incidence[v])

    @property
    def free_ends(self) -> tuple[tuple[int, int], ...]:
        return self._free

    @property
    def is_graph(self) -> bool:
        return not self._free

    def connector(self, name: str) -> tuple[tuple[int, int], ...]:
        for cname, ends in self._connectors:
            if cname == name:
                return ends
        raise KeyError(name)

    def other_endpoint(self, e: int, v: int) -> int | None:
        """The endpoint of e opposite to one occurrence of v (loop -> v)."""
        a, b = self._endpoints[e]
        return b if a == v else a

    def to_graph(self) -> "CubicGraph":
        if self._free:
            raise GraphError(f"multipole has {len(self._free)} free ends, not a graph")
        return CubicGraph(self._n, self._endpoints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multipole):
            return NotImplemented
        return (
            self._n == other._n
            and self._endpoints == other._endpoints
            and self._connectors == other._connectors
        )

    def __hash__(self) -> int:
        return hash((self._n, self._endpoints, self._connectors))

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"<{kind} n={self._n} m={self.edge_count} free={len(self._free)}>"


class CubicGraph(Multipole):
    """A cubic multigraph: a multipole with no free ends.

    Satisfies the handshake identity 3*vertex_count == 2*edge_count, as
    every vertex meets three edge-ends and no end is free.  A free end
    raises ConnectorError, since the empty connector list covers none.
    """

    def __init__(self, vertex_count: int, endpoints: Iterable[tuple[int | None, int | None]]):
        super().__init__(vertex_count, endpoints, connectors=())

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbour, edge id); loops contribute twice."""
        return [list(a) for a in self._arcs]


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_bits(data: bytes) -> str:
    """The 6-bit groups of graph6 bytes as one string of '0' and '1'."""
    for c in data:
        if not 63 <= c <= 126:
            raise FormatError(f"invalid graph6 byte {c}")
    return "".join([format(c - 63, "06b") for c in data])


def _g6_read_n(data: bytes) -> tuple[int, int]:
    """Decode the vertex count of a non-empty line; returns (n, bytes consumed)."""
    if data[0] != 126:
        n = data[0] - 63
        if not 0 <= n <= 62:
            raise FormatError(f"invalid graph6 size byte {data[0]}")
        return n, 1
    # 18 bits after one '~', 36 bits after two
    start, width = (2, 6) if data[1:2] == b"~" else (1, 3)
    if len(data) < start + width:
        raise FormatError("truncated graph6 size field")
    return int(_g6_bits(data[start:start + width]), 2), start + width


def parse_graph6(text: str) -> CubicGraph:
    """Decode one graph6 line into a cubic graph.

    Only simple graphs are expressible in graph6; the result must be
    cubic or :class:`NotCubicError` is raised naming the offending
    vertex.  Edge ids are assigned in lexicographic (u, v) order.
    """
    line = text.strip()
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    if not line:
        raise FormatError("empty graph6 line")
    if not line.isascii():
        raise FormatError("graph6 text must be ASCII")
    data = line.encode("ascii")
    n, used = _g6_read_n(data)
    body = data[used:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise FormatError(f"graph6 body has {len(body)} bytes, expected {nbytes} for n={n}")
    bits = _g6_bits(body)
    if "1" in bits[nbits:]:
        raise FormatError("nonzero padding bits in graph6 body")
    # column j holds bits top .. top + j - 1, with top = j(j-1)/2
    edges = []
    j = top = 0
    k = bits.find("1")
    while k >= 0:
        while k >= top + j:
            top += j
            j += 1
        edges.append((k - top, j))
        k = bits.find("1", k + 1)
    edges.sort()
    return CubicGraph(n, edges)


def write_graph6(g: CubicGraph) -> str:
    """Encode a simple cubic graph as one graph6 line."""
    n = g.vertex_count
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise FormatError("graph too large for this writer")
    # bit j(j-1)/2 + i stands for the pair i < j (column-major upper triangle)
    bits = ["0"] * ((n * (n - 1) // 2 + 5) // 6 * 6)
    for e, (a, b) in enumerate(g.edges):
        if a == b:
            raise FormatError(f"graph6 cannot encode loop (edge {e})")
        i, j = min(a, b), max(a, b)
        k = j * (j - 1) // 2 + i
        if bits[k] == "1":
            raise FormatError(f"graph6 cannot encode parallel edge (edge {e})")
        bits[k] = "1"
    s = "".join(bits)
    body = bytes([int(s[i:i + 6], 2) + 63 for i in range(0, len(s), 6)])
    return (head + body).decode("ascii")


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------

_END_TOKEN = re.compile(r"^e(\d+)\.([01])$", re.ASCII)


def parse_edge_list(text: str) -> Multipole:
    """Parse the edge-list format; returns a CubicGraph when no end is free."""
    vertex_count: int | None = None
    endpoints: list[tuple[int | None, int | None]] = []
    connectors: list[tuple[str, list[tuple[int, int]]]] = []

    def slot(tok: str, lineno: int) -> int | None:
        if tok == "-":
            return None
        if not (tok.isascii() and tok.isdigit()):
            raise FormatError(f"line {lineno}: bad endpoint token {tok!r}")
        return int(tok)

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices"):
            parts = line.split()
            if (len(parts) != 2 or parts[0] != "vertices"
                    or not (parts[1].isascii() and parts[1].isdigit())):
                raise FormatError(f"line {lineno}: malformed vertices line")
            if vertex_count is not None:
                raise FormatError(f"line {lineno}: second vertices line")
            vertex_count = int(parts[1])
            continue
        if line.startswith("connector"):
            m = re.match(r"^connector\s+(\S+)\s*:\s*(.*)$", line)
            if not m:
                raise FormatError(f"line {lineno}: malformed connector line")
            name, rest = m.group(1), m.group(2)
            ends = []
            for tok in rest.split():
                em = _END_TOKEN.match(tok)
                if not em:
                    raise FormatError(f"line {lineno}: bad end token {tok!r}")
                ends.append((int(em.group(1)), int(em.group(2))))
            connectors.append((name, ends))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected two endpoint tokens")
        endpoints.append((slot(parts[0], lineno), slot(parts[1], lineno)))

    if vertex_count is None:
        raise FormatError("missing 'vertices N' line")
    pole = Multipole(vertex_count, endpoints, connectors if connectors else None)
    return pole.to_graph() if pole.is_graph else pole


def write_edge_list(m: Multipole) -> str:
    """Serialize to the edge-list format (inverse of parse_edge_list)."""
    lines = [f"vertices {m.vertex_count}"]
    for a, b in m.edges:
        lines.append(f"{'-' if a is None else a} {'-' if b is None else b}")
    for name, ends in m.connectors:
        toks = " ".join(f"e{e}.{i}" for e, i in ends)
        lines.append(f"connector {name}: {toks}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

def girth(g: CubicGraph) -> int:
    """Length of a shortest circuit; a loop counts 1, a parallel pair 2.

    One breadth-first search from each vertex, recording the edge each
    vertex was reached by.  Any other edge to a reached vertex closes a
    circuit through the search tree: a loop at the root closes one of
    length 1, an edge parallel to a tree edge one of length 2."""
    n, m = g.vertex_count, g.edge_count
    if n == 0:
        raise GraphError("girth of the empty graph is undefined")
    # every vertex has degree 3, so a circuit exists and the search finds one
    best = m + 1
    for s in range(n):
        dist = [-1] * n
        via = [-1] * n
        dist[s] = 0
        queue = [s]
        for u in queue:
            if 2 * dist[u] >= best:
                break
            for w, e in g.arcs(u):
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    via[w] = e
                    queue.append(w)
                elif e != via[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def connected_components(g: Multipole) -> list[list[int]]:
    """Vertex sets of the components, each sorted, ordered by minimum vertex."""
    n = g.vertex_count
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for w, _ in g.arcs(u):
                if w is not None and not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Multipole) -> bool:
    return len(connected_components(g)) <= 1


def bridges(g: CubicGraph, removed: Iterable[int] = ()) -> list[int]:
    """Edge ids of all cut edges (iterative lowpoint DFS, multigraph-safe).

    ``removed`` edges are treated as absent, so this doubles as a bridge
    test for spanning subgraphs of g.
    """
    n = g.vertex_count
    dead = set(removed)
    disc = [-1] * n
    low = [0] * n
    out: list[int] = []
    timer = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # (vertex, edge it was reached by, its arcs not yet tried)
        stack = [(root, -1, iter(g.arcs(root)))]
        while stack:
            u, pe, arcs = stack[-1]
            for w, e in arcs:
                if e == pe or e in dead:
                    continue  # removed edges are absent
                if disc[w] < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, e, iter(g.arcs(w))))
                    break
                low[u] = min(low[u], disc[w])  # a loop (w == u) changes nothing
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        out.append(pe)
    return sorted(out)


def is_bridgeless(g: CubicGraph) -> bool:
    """True iff g is connected and has no cut edge."""
    return is_connected(g) and not bridges(g)


def is_two_connected(g: CubicGraph) -> bool:
    """Connected with no cut vertex (loops ignored for articulation).

    In a connected cubic multigraph on three or more vertices a cut
    vertex forces a bridge and a bridge forces a cut vertex; on two or
    fewer there is no cut vertex and a bridge is the only obstruction.
    So this is the bridge test.
    """
    return is_bridgeless(g)


def is_bipartite(g: CubicGraph) -> bool:
    """Two-colourable.  A loop fails like any odd circuit: its far end
    w == u already carries u's colour."""
    n = g.vertex_count
    colour = [-1] * n
    for s in range(n):
        if colour[s] != -1:
            continue
        colour[s] = 0
        queue = [s]
        for u in queue:
            for w, _ in g.arcs(u):
                if colour[w] == -1:
                    colour[w] = 1 - colour[u]
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


def cyclic_edge_connectivity(g: CubicGraph, limit: int, max_vertices: int = 40):
    """Smallest size of a cycle-separating edge cut, exactly.

    Returns EXCEEDS_LIMIT when every cycle-separating cut is larger than
    ``limit`` or when no such cut exists; refuses graphs larger than
    ``max_vertices``.  Let S = δ(A) be a least cycle-separating cut:

    - Both sides are connected: a disconnected side has a component with
      a circuit, and that component's cut is a strict subset of S.  So
      each edge h of S is a bridge of G − (S − h).
    - S is a matching: a vertex with two edges in S lies on no circuit of
      its side, and moving it across gives a smaller cut.  So |S| ≤ n/2.
    - A component C of G − S that meets S in k_C edge-ends has
      3|C| = 2e(C) + k_C, so C holds a circuit iff k_C ≤ |C|.

    Any S that leaves two components with a circuit bounds the least cut
    by |S|.  So for k = 1, 2, ... the search takes each matching T of
    k − 1 edges and each bridge h > max(T) of G − T, and returns the
    first k at which G − (T ∪ {h}) has two components with a circuit:
    about C(m, k − 1)·(n + m) steps for size k.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise SizeGateError(
            f"{n} vertices exceeds the exact enumeration gate ({max_vertices})")
    if not is_connected(g):
        raise GraphError("cyclic edge connectivity requires a connected graph")
    edges = g.edges
    for k in range(1, min(limit, n // 2) + 1):
        for t in itertools.combinations(range(g.edge_count), k - 1):
            if len({v for e in t for v in edges[e]}) < 2 * len(t):
                continue  # not a matching
            last = t[-1] if t else -1
            for h in bridges(g, t):
                if h > last and _cyclic_components(g, {*t, h}) >= 2:
                    return k
    return EXCEEDS_LIMIT


def _cyclic_components(g: CubicGraph, dead: set[int]) -> int:
    """Number of components of g minus the ``dead`` edges that hold a
    circuit, which is those with at most as many dead edge-ends as
    vertices."""
    n = g.vertex_count
    seen = [False] * n
    count = 0
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        size = cut = 0
        while stack:
            u = stack.pop()
            size += 1
            for w, e in g.arcs(u):
                if e in dead:
                    cut += 1
                elif not seen[w]:
                    seen[w] = True
                    stack.append(w)
        count += cut <= size
    return count


def bipartite_double(g: CubicGraph) -> CubicGraph:
    """Tensor product with K2: edge uv yields (u,0)(v,1) and (u,1)(v,0).

    Vertices (v,0) keep id v, vertices (v,1) get id v + n.  Edge e maps
    to new edges 2e and 2e+1 in that slot order.
    """
    n = g.vertex_count
    eps = []
    for a, b in g.edges:
        eps.append((a, b + n))
        eps.append((a + n, b))
    return CubicGraph(2 * n, eps)


# ---------------------------------------------------------------------------
# junction of multipoles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndRef:
    """Reference to a free end of one part in a junction.

    Either direct (edge, end) or connector-relative (connector, index).
    Textual forms: ``0:e17.1`` and ``0:left[2]``.
    """

    part: int
    edge: int | None = None
    end: int | None = None
    connector: str | None = None
    index: int | None = None

    @staticmethod
    def edge_end(part: int, edge: int, end: int) -> "EndRef":
        return EndRef(part, edge=edge, end=end)

    @staticmethod
    def conn(part: int, connector: str, index: int) -> "EndRef":
        return EndRef(part, connector=connector, index=index)

    @staticmethod
    def parse(token: str) -> "EndRef":
        part_s, _, rest = token.partition(":")
        if part_s.isascii() and part_s.isdigit():
            part = int(part_s)
            m = _END_TOKEN.match(rest)
            if m:
                return EndRef(part, edge=int(m.group(1)), end=int(m.group(2)))
            m = re.match(r"^(\S+)\[(\d+)\]$", rest, re.ASCII)
            if m:
                return EndRef(part, connector=m.group(1), index=int(m.group(2)))
        raise WiringError(f"bad end reference {token!r}")

    def resolve(self, parts: Sequence[Multipole]) -> tuple[int, int]:
        """Local (edge, end) within the referenced part."""
        if not 0 <= self.part < len(parts):
            raise WiringError(f"part {self.part} out of range")
        pole = parts[self.part]
        if self.edge is not None:
            if not 0 <= self.edge < pole.edge_count:
                raise WiringError(f"part {self.part}: edge {self.edge} out of range")
            return (self.edge, self.end)
        try:
            ends = pole.connector(self.connector)
        except KeyError:
            raise WiringError(f"part {self.part}: no connector {self.connector!r}") from None
        if not 0 <= self.index < len(ends):
            raise WiringError(
                f"part {self.part}: connector {self.connector!r} has no index {self.index}")
        return ends[self.index]


@dataclass(frozen=True)
class WiringSpec:
    """A sequence of directives, each welding two free ends together."""

    joins: tuple[tuple[EndRef, EndRef], ...]

    @staticmethod
    def of(*pairs: tuple[EndRef, EndRef]) -> "WiringSpec":
        return WiringSpec(tuple(pairs))

    @staticmethod
    def parse(text: str) -> "WiringSpec":
        """Parse ``join A B`` lines (comments with #)."""
        joins = []
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] != "join" or len(parts) != 3:
                raise WiringError(f"line {lineno}: expected 'join A B'")
            joins.append((EndRef.parse(parts[1]), EndRef.parse(parts[2])))
        return WiringSpec(tuple(joins))


def junction(parts: Sequence[Multipole], wiring: WiringSpec) -> Multipole:
    """Weld pairs of free ends across (or within) multipoles.

    Welding two free ends fuses their edges into a single edge, so each
    directive reduces the edge count by one; vertex degrees never
    change.  Part p's vertices are shifted by the total vertex count of
    parts 0..p-1, and likewise for edge ids.  A fused edge keeps the
    smallest shifted id among its fragments; surviving edges are then
    renumbered densely in id order.  Remaining connectors are renamed
    ``p<idx>.<name>`` and keep their end order.
    """
    v_off = [0]
    e_off = [0]
    for p in parts:
        v_off.append(v_off[-1] + p.vertex_count)
        e_off.append(e_off[-1] + p.edge_count)
    total_v, total_e = v_off[-1], e_off[-1]

    slots: list[list[int | None]] = []
    for pi, p in enumerate(parts):
        for a, b in p.edges:
            slots.append([None if a is None else a + v_off[pi],
                          None if b is None else b + v_off[pi]])

    link: dict[tuple[int, int], tuple[int, int]] = {}
    used: set[tuple[int, int]] = set()
    for ra, rb in wiring.joins:
        (ea, ia) = ra.resolve(parts)
        (eb, ib) = rb.resolve(parts)
        ga = (ea + e_off[ra.part], ia)
        gb = (eb + e_off[rb.part], ib)
        for gref, ref in ((ga, ra), (gb, rb)):
            if slots[gref[0]][gref[1]] is not None:
                raise WiringError(f"{ref} is not a free end")
            if gref in used:
                raise WiringError(f"{ref} used by more than one directive")
        if ga == gb:
            raise WiringError(f"directive welds an end to itself: {ra}")
        used.add(ga)
        used.add(gb)
        link[ga] = gb
        link[gb] = ga

    # walk each chain of welded fragments from an unwelded end; each chain
    # becomes one edge, ordered by its least fragment id.  A fragment with
    # both ends welded is mid-chain, reached from an end later, or on a
    # closed circle, which no walk reaches.
    chains: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
    visited: set[int] = set()
    for e in range(total_e):
        first = next(((e, i) for i in (0, 1) if (e, i) not in link), None)
        if e in visited or first is None:
            continue
        cur, members = first, []
        while True:
            members.append(cur[0])
            last = (cur[0], 1 - cur[1])
            if last not in link:
                break
            cur = link[last]
        visited.update(members)
        chains.append((min(members), *sorted((first, last))))
    if len(visited) != total_e:
        raise WiringError("directives close a vertex-free circle of edges")
    chains.sort()

    eps = []
    extreme_map: dict[tuple[int, int], tuple[int, int]] = {}
    for e, (_, end_a, end_b) in enumerate(chains):
        eps.append((slots[end_a[0]][end_a[1]], slots[end_b[0]][end_b[1]]))
        extreme_map[end_a] = (e, 0)
        extreme_map[end_b] = (e, 1)

    conns: list[tuple[str, list[tuple[int, int]]]] = []
    for pi, p in enumerate(parts):
        for name, ends in p.connectors:
            remaining = []
            for (e, i) in ends:
                gref = (e + e_off[pi], i)
                if gref in used:
                    continue
                remaining.append(extreme_map[gref])
            if remaining:
                conns.append((f"p{pi}.{name}", remaining))
    return Multipole(total_v, eps, conns if conns else None)


def remove_vertices(g: CubicGraph, vs: Iterable[int]):
    """Delete a vertex set; severed edge-ends become free ends.

    Each id must be an int vertex of g (a bool is not one).  Edges
    with both endpoints deleted disappear.  Kept vertices and edges are
    renumbered densely preserving order.  Returns
    (multipole, vertex_map, edge_map) with old->new maps for kept items;
    all new free ends land in one connector, ``cut``, in (edge, end) order.
    """
    dead = set()
    for v in vs:
        if type(v) is not int or not 0 <= v < g.vertex_count:
            raise GraphError(f"vertex {v!r} out of range")
        dead.add(v)
    kept_v = [v for v in range(g.vertex_count) if v not in dead]
    vmap = {v: i for i, v in enumerate(kept_v)}
    eps = []
    emap = {}
    for e, (a, b) in enumerate(g.edges):
        na = None if a in dead else vmap[a]
        nb = None if b in dead else vmap[b]
        if na is None and nb is None:
            continue
        emap[e] = len(eps)
        eps.append((na, nb))
    free = [(e, i) for e, ends in enumerate(eps) for i, s in enumerate(ends) if s is None]
    conns = [("cut", free)] if free else None
    return Multipole(len(kept_v), eps, conns), vmap, emap


# ---------------------------------------------------------------------------
# canonical form (exact, size-gated; for small golden tests)
# ---------------------------------------------------------------------------

def canonical_form(g: CubicGraph) -> tuple:
    """A complete isomorphism invariant: the minimum relabelled edge list.

    Iterated degree/neighbourhood refinement plus full backtracking over
    non-singleton cells, on an explicit stack of colourings rather than
    by recursion; exponential in the worst case, gated at 64 vertices.
    ``refine`` ranks its colours 0..k-1, so a colouring with no repeated
    colour is itself a relabelling, and the minimum over these leaves
    does not depend on the order they are visited in.
    """
    n = g.vertex_count
    if n > 64:
        raise SizeGateError(f"{n} vertices exceeds the canonical-form gate (64)")

    def refine(colour: tuple[int, ...]) -> tuple[int, ...]:
        while True:
            sig = [(colour[v], tuple(sorted(colour[w] for w, _ in g.arcs(v)))) for v in range(n)]
            ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
            new = tuple(ranks[s] for s in sig)
            if new == colour:
                return colour
            colour = new

    best = None
    stack = [(0,) * n]
    while stack:
        colour = refine(stack.pop())
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)
        if len(cells) == n:
            key = tuple(sorted(tuple(sorted((colour[a], colour[b]))) for a, b in g.edges))
            if best is None or key < best:
                best = key
            continue
        target = min(c for c, cell in cells.items() if len(cell) > 1)
        for v in cells[target]:
            stack.append(tuple((c if u != v else -1) for u, c in enumerate(colour)))
    return (n, best)


def is_isomorphic(g: CubicGraph, h: CubicGraph) -> bool:
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)
