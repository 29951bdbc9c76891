"""Cubic multigraphs and multipoles with dart-level edge addressing.

Edges carry dense integer ids; each edge has two endpoint slots (end 0
and end 1).  A slot holds a vertex index, or ``None`` for a free end
(semiedge).  Loops, parallel edges, dangling edges and isolated edges
are all first class: incidence bookkeeping happens per edge-end, never
per vertex pair.

Text formats
------------

graph6 (simple graphs only) follows the published format: optional
``>>graph6<<`` header, 6-bit big-endian packing of the upper adjacency
triangle in column-major order.  Parsed edges are re-ordered
lexicographically by (min endpoint, max endpoint), which is also the
order the writer emits, so parse/serialize round-trips on canonical
edge lists.

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
(edge, end) order.  Every free end must lie in exactly one connector.
"""

from __future__ import annotations

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

    __slots__ = ("_n", "_endpoints", "_connectors", "_incidence", "_free", "_hash")

    def __init__(
        self,
        vertex_count: int,
        endpoints: Iterable[tuple[int | None, int | None]],
        connectors: Sequence[tuple[str, Sequence[tuple[int, int]]]] | None = None,
    ):
        eps = tuple((a, b) for a, b in endpoints)
        if vertex_count < 0:
            raise GraphError("negative vertex count")
        # sparse, so a huge stated vertex count fails without a huge list
        ends_per_vertex: dict[int, int] = {}
        free: list[tuple[int, int]] = []
        for e, (a, b) in enumerate(eps):
            for end, slot in enumerate((a, b)):
                if slot is None:
                    free.append((e, end))
                elif 0 <= slot < vertex_count:
                    ends_per_vertex[slot] = ends_per_vertex.get(slot, 0) + 1
                else:
                    raise GraphError(f"edge {e} end {end}: vertex {slot} out of range")
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
            for name, ends in conns:
                for fe in ends:
                    if fe not in free_set:
                        raise ConnectorError(f"connector {name}: {fe} is not a free end")
                    if fe in seen:
                        raise ConnectorError(f"connector {name}: {fe} listed twice")
                    seen.add(fe)
            if seen != free_set:
                missing = sorted(free_set - seen)
                raise ConnectorError(f"free ends not covered by any connector: {missing}")

        incidence: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
        for e, (a, b) in enumerate(eps):
            if a is not None:
                incidence[a].append((e, 0))
            if b is not None:
                incidence[b].append((e, 1))

        self._n = vertex_count
        self._endpoints = eps
        self._connectors = conns
        self._incidence = tuple(tuple(sorted(inc)) for inc in incidence)
        self._free = tuple(sorted(free))
        self._hash = hash((vertex_count, eps, conns))

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
        return self._hash

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"<{kind} n={self._n} m={self.edge_count} free={len(self._free)}>"


class CubicGraph(Multipole):
    """A cubic multigraph: a multipole with no free ends.

    Satisfies the handshake identity 3*vertex_count == 2*edge_count,
    checked on every construction.
    """

    def __init__(self, vertex_count: int, endpoints: Iterable[tuple[int | None, int | None]]):
        super().__init__(vertex_count, endpoints, connectors=())
        if self._free:
            raise GraphError("CubicGraph cannot have free ends")
        assert 3 * self._n == 2 * self.edge_count

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbour, edge id); loops contribute twice."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self._n)]
        for e, (a, b) in enumerate(self._endpoints):
            adj[a].append((b, e))
            adj[b].append((a, e))
        return adj


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_read_n(data: bytes) -> tuple[int, int]:
    """Decode the vertex count; returns (n, bytes consumed)."""
    if not data:
        raise FormatError("empty graph6 line")
    if data[0] != 126:
        n = data[0] - 63
        if not 0 <= n <= 62:
            raise FormatError(f"invalid graph6 size byte {data[0]}")
        return n, 1
    if len(data) >= 2 and data[1] == 126:
        if len(data) < 8:
            raise FormatError("truncated graph6 size field")
        bits = 0
        for c in data[2:8]:
            if not 63 <= c <= 126:
                raise FormatError(f"invalid graph6 byte {c}")
            bits = (bits << 6) | (c - 63)
        return bits, 8
    if len(data) < 4:
        raise FormatError("truncated graph6 size field")
    bits = 0
    for c in data[1:4]:
        if not 63 <= c <= 126:
            raise FormatError(f"invalid graph6 byte {c}")
        bits = (bits << 6) | (c - 63)
    return bits, 4


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
    bits: list[int] = []
    for c in body:
        if not 63 <= c <= 126:
            raise FormatError(f"invalid graph6 byte {c}")
        x = c - 63
        bits.extend((x >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise FormatError("nonzero padding bits in graph6 body")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    edges.sort()
    return CubicGraph(n, edges)


def write_graph6(g: CubicGraph) -> str:
    """Encode a simple cubic graph as one graph6 line."""
    n = g.vertex_count
    seen = set()
    adj = [[False] * n for _ in range(n)]
    for e, (a, b) in enumerate(g.edges):
        if a == b:
            raise FormatError(f"graph6 cannot encode loop (edge {e})")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise FormatError(f"graph6 cannot encode parallel edge (edge {e})")
        seen.add(key)
        adj[a][b] = adj[b][a] = True
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise FormatError("graph too large for this writer")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if adj[i][j] else 0)
    while len(bits) % 6:
        bits.append(0)
    body = bytes(sum(b << (5 - k) for k, b in enumerate(bits[i:i + 6])) + 63
                 for i in range(0, len(bits), 6))
    return (head + body).decode("ascii")


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------

_END_TOKEN = re.compile(r"^e(\d+)\.([01])$")


def parse_edge_list(text: str) -> Multipole:
    """Parse the edge-list format; returns a CubicGraph when no end is free."""
    vertex_count: int | None = None
    endpoints: list[tuple[int | None, int | None]] = []
    connectors: list[tuple[str, list[tuple[int, int]]]] = []

    def slot(tok: str, lineno: int) -> int | None:
        if tok == "-":
            return None
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"line {lineno}: bad endpoint token {tok!r}") from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices"):
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: malformed vertices line")
            try:
                vertex_count = int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: malformed vertices line") from None
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
    """Length of a shortest circuit; a loop counts 1, a parallel pair 2."""
    n, m = g.vertex_count, g.edge_count
    if n == 0:
        raise GraphError("girth of the empty graph is undefined")
    pair_seen = set()
    best = None
    for a, b in g.edges:
        if a == b:
            return 1
        key = (min(a, b), max(a, b))
        if key in pair_seen:
            best = 2
        pair_seen.add(key)
    if best == 2:
        return 2
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    best = m + 1
    for s in range(n):
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            if 2 * dist[u] >= best:
                break
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v and parent[v] != u:
                    best = min(best, dist[u] + dist[v] + 1)
    if best > m:
        raise GraphError("graph has no circuit")
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
            for e, i in g.incident_ends(u):
                w = g.endpoints(e)[1 - i]
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
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(g.edges):
        if e in dead:
            continue
        adj[a].append((b, e))
        adj[b].append((a, e))
    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    out: list[int] = []
    timer = 0
    for root in range(n):
        if visited[root]:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # (vertex, parent edge, next child idx)
        while stack:
            u, pe, idx = stack.pop()
            if idx == 0:
                visited[u] = True
                disc[u] = low[u] = timer
                timer += 1
            if idx < len(adj[u]):
                stack.append((u, pe, idx + 1))
                w, e = adj[u][idx]
                if w == u:
                    continue  # loops are never bridges
                if not visited[w]:
                    stack.append((w, e, 0))
                elif e != pe:
                    low[u] = min(low[u], disc[w])
            else:
                if pe != -1:
                    a, b = g.endpoints(pe)
                    p = a if b == u else b
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
    n = g.vertex_count
    colour = [-1] * n
    for s in range(n):
        if colour[s] != -1:
            continue
        colour[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for e, i in g.incident_ends(u):
                w = g.endpoints(e)[1 - i]
                if w == u and g.endpoints(e) == (u, u):
                    return False  # loop
                if colour[w] == -1:
                    colour[w] = 1 - colour[u]
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


def cyclic_edge_connectivity(g: CubicGraph, limit: int, max_vertices: int = 40):
    """Smallest size of a cycle-separating edge cut, exactly.

    Returns EXCEEDS_LIMIT when every cycle-separating cut is larger than
    ``limit`` or when no such cut exists.  Exact brute force over vertex
    bipartitions; refuses graphs larger than ``max_vertices``.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise SizeGateError(
            f"{n} vertices exceeds the exact enumeration gate ({max_vertices})")
    if not is_connected(g):
        raise GraphError("cyclic edge connectivity requires a connected graph")
    if n < 2:
        return EXCEEDS_LIMIT

    edge_masks = []
    for a, b in g.edges:
        edge_masks.append((1 << a) | (1 << b))
    adj_mask = [0] * n
    for a, b in g.edges:
        if a != b:
            adj_mask[a] |= 1 << b
            adj_mask[b] |= 1 << a

    loops = [e for e, (a, b) in enumerate(g.edges) if a == b]

    def has_circuit(mask: int) -> bool:
        # a circuit exists iff some component of the induced subgraph has
        # at least as many induced edges as vertices
        if any(edge_masks[e] & mask and (edge_masks[e] & mask) == edge_masks[e] for e in loops):
            return True
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            comp = 1 << v
            frontier = comp
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    u = (f & -f).bit_length() - 1
                    f &= f - 1
                    nxt |= adj_mask[u] & mask & ~comp
                comp |= nxt
                frontier = nxt
            ec = 0
            for em in edge_masks:
                if em & comp == em:
                    ec += 1
            if ec >= bin(comp).count("1"):
                return True
            rest &= ~comp
        return False

    full = (1 << n) - 1
    best = None
    # fix vertex n-1 on the complement side; A runs over subsets of the rest
    for a_mask in range(1, 1 << (n - 1)):
        cap = limit + 1 if best is None else min(best, limit + 1)
        cut = 0
        for em in edge_masks:
            part = em & a_mask
            if part and part != em:
                cut += 1
                if cut >= cap:
                    break
        if cut >= cap:
            continue
        if has_circuit(a_mask) and has_circuit(full & ~a_mask):
            best = cut
            if best <= 1:
                break
    if best is None or best > limit:
        return EXCEEDS_LIMIT
    return best


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
        if not rest:
            raise WiringError(f"bad end reference {token!r}")
        part = int(part_s)
        m = _END_TOKEN.match(rest)
        if m:
            return EndRef(part, edge=int(m.group(1)), end=int(m.group(2)))
        m = re.match(r"^(\S+)\[(\d+)\]$", rest)
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
        for lineno, raw in enumerate(text.splitlines(), start=1):
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

    # walk chains of welded fragments; each chain becomes one edge
    chain_of: dict[int, int] = {}
    merged: list[tuple[int | None, int | None, tuple[tuple[int, int], tuple[int, int]]]] = []
    visited: set[int] = set()
    for e in range(total_e):
        if e in visited:
            continue
        # find an extreme end of the chain containing e
        extreme = None
        for i in (0, 1):
            if (e, i) not in link:
                extreme = (e, i)
                break
        if extreme is None:
            # both ends welded: either mid-chain (skip; reached later) or a cycle
            probe, seen = (e, 0), {e}
            closed = False
            while True:
                other = (probe[0], 1 - probe[1])
                if other not in link:
                    break
                probe = link[other]
                if probe[0] in seen:
                    closed = True
                    break
                seen.add(probe[0])
            if closed:
                raise WiringError("directives close a vertex-free circle of edges")
            continue
        # traverse from the extreme
        first = extreme
        cur = extreme
        members = []
        while True:
            members.append(cur[0])
            other = (cur[0], 1 - cur[1])
            if other not in link:
                last = other
                break
            cur = link[other]
        if any(x in visited for x in members):
            continue
        visited.update(members)
        key = min(members)
        idx = len(merged)
        for x in members:
            chain_of[x] = idx
        ends_sorted = sorted((first, last))
        merged.append((slots[ends_sorted[0][0]][ends_sorted[0][1]],
                       slots[ends_sorted[1][0]][ends_sorted[1][1]],
                       (ends_sorted[0], ends_sorted[1])))
    if len(visited) != total_e:
        raise WiringError("directives close a vertex-free circle of edges")

    order = sorted(range(len(merged)), key=lambda i: min(e for e, c in chain_of.items() if c == i))
    new_id = {old: new for new, old in enumerate(order)}
    eps = [None] * len(merged)
    extreme_map: dict[tuple[int, int], tuple[int, int]] = {}
    for ci, (a, b, (end_a, end_b)) in enumerate(merged):
        e = new_id[ci]
        eps[e] = (a, b)
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
    return Multipole(total_v, [tuple(x) for x in eps], conns if conns else None)


def remove_vertices(g: CubicGraph, vs: Iterable[int], connector_name: str = "cut"):
    """Delete a vertex set; severed edge-ends become free ends.

    Edges with both endpoints deleted disappear.  Kept vertices and
    edges are renumbered densely preserving order.  Returns
    (multipole, vertex_map, edge_map) with old->new maps for kept items;
    all new free ends land in one connector, in (edge, end) order.
    """
    dead = set(vs)
    for v in dead:
        if not 0 <= v < g.vertex_count:
            raise GraphError(f"vertex {v} out of range")
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
    free = sorted((e, i) for e, (a, b) in enumerate(eps) for i, s in enumerate((a, b)) if s is None)
    conns = [(connector_name, free)] if free else None
    return Multipole(len(kept_v), eps, conns), vmap, emap


# ---------------------------------------------------------------------------
# canonical form (exact, size-gated; for small golden tests)
# ---------------------------------------------------------------------------

def canonical_form(g: CubicGraph, max_vertices: int = 64) -> tuple:
    """A complete isomorphism invariant: the minimum relabelled edge list.

    Iterated degree/neighbourhood refinement plus full backtracking over
    non-singleton cells; exponential in the worst case, gated by size.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise SizeGateError(f"{n} vertices exceeds the canonical-form gate ({max_vertices})")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)

    def refine(colour: tuple[int, ...]) -> tuple[int, ...]:
        while True:
            sig = [(colour[v], tuple(sorted(colour[w] for w in nbrs[v]))) for v in range(n)]
            ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
            new = tuple(ranks[s] for s in sig)
            if new == colour:
                return colour
            colour = new

    def edge_key(order: list[int]) -> tuple:
        pos = {v: i for i, v in enumerate(order)}
        rel = sorted(tuple(sorted((pos[a], pos[b]))) for a, b in g.edges)
        return tuple(rel)

    best: list[tuple | None] = [None]

    def search(colour: tuple[int, ...]) -> None:
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = c
                break
        if target is None:
            order = sorted(range(n), key=lambda v: colour[v])
            key = edge_key(order)
            if best[0] is None or key < best[0]:
                best[0] = key
            return
        for v in cells[target]:
            nxt = tuple((c if u != v else -1) for u, c in enumerate(colour))
            search(refine(nxt))

    search(refine(tuple([0] * n)))
    return (n, best[0])


def is_isomorphic(g: CubicGraph, h: CubicGraph) -> bool:
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)
