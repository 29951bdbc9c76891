"""Brute-force reference implementations.

Nothing here imports from snarkdefect: every result is recomputed from a
plain edge list, so the package's pruned searches have something
genuinely independent to disagree with.  All of it is slow on purpose —
keep inputs small.
"""

from __future__ import annotations

import itertools


def edge_pairs(g):
    """CubicGraph -> plain [(a, b)] endpoint list for feeding the oracles."""
    return [tuple(g.endpoints(e)) for e in range(g.edge_count)]


def perfect_matchings(n, edges):
    """All perfect matchings as sorted edge-index tuples, in lex order."""
    if n % 2:
        return []
    out = []
    for combo in itertools.combinations(range(len(edges)), n // 2):
        seen = set()
        for i in combo:
            a, b = edges[i]
            if a == b or a in seen or b in seen:
                break
            seen.add(a)
            seen.add(b)
        else:
            out.append(combo)
    return out


def search_order_perfect_matchings(g, limit=None):
    """Perfect matchings of a CubicGraph in the package's search order.

    The unpruned backtracking the package used before its forced-move
    kernel, kept without its final sort: branch on the lowest uncovered
    vertex, try its edges in ``incident_ends`` order, and stop after
    ``limit`` matchings.  The package must return exactly the sorted
    ``limit`` prefix of this list.
    """
    n = g.vertex_count
    if n == 0:
        return [frozenset()]
    if n % 2:
        return []
    covered = [False] * n
    chosen: list[int] = []
    out: list[tuple[int, ...]] = []

    def extend() -> bool:
        v = -1
        for u in range(n):
            if not covered[u]:
                v = u
                break
        if v == -1:
            out.append(tuple(sorted(chosen)))
            return limit is not None and len(out) >= limit
        for e, i in g.incident_ends(v):
            w = g.endpoints(e)[1 - i]
            if w == v or covered[w]:
                continue  # loop, or partner already matched
            covered[v] = covered[w] = True
            chosen.append(e)
            done = extend()
            chosen.pop()
            covered[v] = covered[w] = False
            if done:
                return True
        return False

    extend()
    return [frozenset(t) for t in out]


def search_order_matchings(g, limit=None):
    """Perfect matchings of a CubicGraph from the package's earlier
    pruned search, kept as it was, in search order and as frozensets:
    branch on the lowest uncovered vertex, try its edges in
    ``incident_ends`` order, apply forced moves after each choice, and
    stop after ``limit`` matchings.  Sorted by sorted edge list, it is
    what the package must return, ``limit`` prefixes included."""
    n = g.vertex_count
    if n == 0:
        return [frozenset()]
    if n % 2:
        return []
    # per vertex, with loops skipped: the partners as a bitmask, and the
    # partners reached by exactly one edge (partner bit -> edge)
    nbr = []
    sole = []
    for v in range(n):
        partners = [w for w, _ in g.arcs(v) if w != v]
        nbr.append(sum(1 << w for w in set(partners)))
        sole.append({1 << w: e for w, e in g.arcs(v) if w != v and partners.count(w) == 1})
    out = []
    _match_lowest((1 << n) - 1, [], out, limit, g, nbr, sole)
    return [frozenset(t) for t in out]


def _match_lowest(free, chosen, out, limit, g, nbr, sole):
    """Extend ``chosen`` over the bitmask ``free`` of uncovered vertices,
    appending each perfect matching to ``out``; True once ``limit`` is
    reached."""
    if not free:
        out.append(tuple(sorted(chosen)))
        return limit is not None and len(out) >= limit
    v = (free & -free).bit_length() - 1
    others = free ^ 1 << v
    depth = len(chosen)
    for w, e in g.arcs(v):
        if not others >> w & 1:
            continue  # a loop, or the partner is already matched
        chosen.append(e)
        rest = _force(others ^ 1 << w, [v, w], chosen, nbr, sole)
        if rest is not None and _match_lowest(rest, chosen, out, limit, g, nbr, sole):
            return True
        del chosen[depth:]
    return False


def _force(free, touched, chosen, nbr, sole):
    """Apply the forced moves around the ``touched`` vertices, appending
    forced edges to ``chosen``: the new ``free`` mask, or None when an
    uncovered vertex is left with no uncovered partner."""
    while touched:
        around = nbr[touched.pop()] & free
        while around:
            low = around & -around
            around ^= low
            if not free & low:
                continue  # covered by a forced move since
            u = low.bit_length() - 1
            cand = nbr[u] & free
            if not cand:
                return None
            e = sole[u].get(cand)  # None unless one partner, by one edge
            if e is not None:
                chosen.append(e)
                free &= ~(low | cand)
                touched += (u, cand.bit_length() - 1)
    return free


def fulkerson_cover(n, edges, matchings=None):
    """The first Fulkerson cover, or None when there is none.

    A cover is six perfect matchings covering every edge exactly twice;
    the first is the least non-decreasing 6-tuple of indices into the
    lex matching list, returned as six sorted edge tuples.  This is the
    package's earlier running-multiplicity search: pick members in index
    order, skip any that meets a doubly covered edge, and when every
    remaining member must hold one edge (an uncovered edge with two
    picks left, a once-covered edge with one) try only the matchings
    holding it.  ``matchings`` is that lex list; it defaults to
    ``perfect_matchings(n, edges)``, which is too slow beyond n = 12, so
    larger graphs pass ``sorted`` tuples from
    ``search_order_perfect_matchings`` instead.
    """
    pms = perfect_matchings(n, edges) if matchings is None else matchings
    m = len(edges)
    full = (1 << m) - 1
    masks = [sum(1 << e for e in pm) for pm in pms]
    by_edge = [[] for _ in range(m)]
    for idx, pm in enumerate(pms):
        for e in pm:
            by_edge[e].append(idx)
    chosen = []

    def dfs(start, m1, m2):
        rem = 6 - len(chosen)
        if rem == 0:
            return tuple(chosen) if m2 == full else None
        m0 = full & ~(m1 | m2)
        if m0 and rem == 2:
            candidates = by_edge[(m0 & -m0).bit_length() - 1]
        elif m1 and rem == 1:
            candidates = by_edge[(m1 & -m1).bit_length() - 1]
        else:
            candidates = range(start, len(masks))
        for idx in candidates:
            if idx < start or masks[idx] & m2:
                continue
            chosen.append(idx)
            new_m2 = m2 | (masks[idx] & m1)
            got = dfs(idx, (m1 | masks[idx]) & ~new_m2, new_m2)
            chosen.pop()
            if got is not None:
                return got
        return None

    try:
        found = dfs(0, 0, 0)
    finally:
        del dfs
    return None if found is None else [tuple(pms[i]) for i in found]


def count_perfect_matchings(n, edges):
    """Memoised count over vertex bitmasks (branch on the lowest vertex)."""
    if n % 2:
        return 0
    incident = [[] for _ in range(n)]
    for i, (a, b) in enumerate(edges):
        if a != b:  # a loop never sits in a matching
            incident[a].append((i, b))
            incident[b].append((i, a))
    memo = {0: 1}

    def count(mask):
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        total = 0
        for i, u in incident[v]:
            if u != v and (mask >> u) & 1:
                total += count(mask & ~((1 << v) | (1 << u)))
        memo[mask] = total
        return total

    return count((1 << n) - 1)


def naive_defect(n, edges, regular=False):
    """Triple loop over all matchings; no pruning, no early exit.

    Returns (value, witness) where witness is the first optimal triple in
    scan order i <= j <= k over the lex matching list — the same triple a
    correct lex-least search must report.
    """
    pms = perfect_matchings(n, edges)
    best, wit = None, None
    for x in range(len(pms)):
        for y in range(x, len(pms)):
            for z in range(y, len(pms)):
                cnt = [0] * len(edges)
                for m in (pms[x], pms[y], pms[z]):
                    for e in m:
                        cnt[e] += 1
                if regular and 3 in cnt:
                    continue
                miss = cnt.count(0)
                if best is None or miss < best:
                    best, wit = miss, (pms[x], pms[y], pms[z])
    return best, wit


def proper_three_colourable(n, edges):
    """Proper 3-edge-colourability of a plain graph, by backtracking.

    Edges sharing an endpoint must differ.  A loop conflicts with itself,
    so any loop kills colourability outright.
    """
    m = len(edges)
    for a, b in edges:
        if a == b:
            return False
    clash = [set() for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if set(edges[i]) & set(edges[j]):
                clash[i].add(j)
                clash[j].add(i)
    colour = [0] * m

    def go(i):
        if i == m:
            return True
        used = {colour[j] for j in clash[i]}
        for c in (1, 2, 3):
            if c not in used:
                colour[i] = c
                if go(i + 1):
                    return True
        colour[i] = 0
        return False

    return go(0)


def all_colourings(ends):
    """Every edge->colour map with three distinct colours at each vertex.

    `ends` is a multipole endpoint list, (a, b) with None for free ends.
    3^m product scan — tiny fragments only.
    """
    m = len(ends)
    out = []
    for assign in itertools.product((1, 2, 3), repeat=m):
        slots = {}
        for e, (a, b) in enumerate(ends):
            for v in (a, b):
                if v is not None:
                    slots.setdefault(v, []).append(assign[e])
        if all(len(cols) == len(set(cols)) for cols in slots.values()):
            out.append(dict(enumerate(assign)))
    return out


COLOURS = (1, 2, 3)


class _Colourer:
    """Backtracking with unit propagation over dart-level incidences.

    Deterministic: the branching edge is always the lowest-id uncoloured
    edge, colours are tried in ascending order, and forced moves are
    applied eagerly; the first solution under this order is returned.
    When colour 1 on the first edge leads to no colouring, colours 2 and
    3 are not tried: by colour symmetry they cannot lead to one either.
    """

    def __init__(self, m: Multipole):
        self.pole = m
        self.m = m.edge_count
        self.colour = [0] * self.m
        # per-vertex tally of coloured ends and XOR of their colours
        self.cnt = [0] * m.vertex_count
        self.acc = [0] * m.vertex_count

    def _assign(self, e0: int, c0: int, trail: list[int]) -> bool:
        queue = [(e0, c0)]
        while queue:
            e, c = queue.pop()
            if self.colour[e]:
                if self.colour[e] != c:
                    return False
                continue
            self.colour[e] = c
            trail.append(e)
            # book-keep both endpoints before any constraint check can
            # fail, so _undo's reversal stays symmetric
            for slot in self.pole.endpoints(e):
                if slot is not None:
                    self.cnt[slot] += 1
                    self.acc[slot] ^= c
            for slot in self.pole.endpoints(e):
                if slot is None:
                    continue
                if self.cnt[slot] == 3:
                    if self.acc[slot] != 0:
                        return False
                elif self.cnt[slot] == 2:
                    forced = self.acc[slot]
                    if forced == 0:
                        return False  # two equal colours meet at slot
                    for f, _ in self.pole.incident_ends(slot):
                        if not self.colour[f]:
                            queue.append((f, forced))
                            break
        return True

    def _undo(self, trail: list[int]) -> None:
        for e in reversed(trail):
            c = self.colour[e]
            self.colour[e] = 0
            for slot in self.pole.endpoints(e):
                if slot is not None:
                    self.cnt[slot] -= 1
                    self.acc[slot] ^= c

    def solve(self, limit: int | None, out: list[dict[int, int]]) -> None:
        def rec(start: int) -> bool:
            e = start
            while e < self.m and self.colour[e]:
                e += 1
            if e == self.m:
                out.append({i: self.colour[i] for i in range(self.m)})
                return limit is not None and len(out) >= limit
            for c in COLOURS:
                trail: list[int] = []
                ok = self._assign(e, c, trail)
                if ok and rec(e + 1):
                    return True
                self._undo(trail)
                if start == 0 and not out:
                    # every permutation of {1, 2, 3} is an automorphism of
                    # Z2 x Z2 and free ends are unconstrained, so colours 2
                    # and 3 on the root edge fail when colour 1 does
                    return False
            return False

        # rec refers to itself through its closure cell; emptying the cell
        # leaves no reference cycle holding this colourer
        try:
            rec(0)
        finally:
            del rec


def search_order_colourings(m, limit=None):
    """Colourings of a Multipole from the package's earlier propagating
    colourer, kept as it was: branch on the lowest uncoloured edge, try
    colours in ascending order, apply forced colours eagerly, and stop
    after ``limit`` colourings.  Its output is in lexicographic order of
    the colour vector, edge 0 first, which the package must reproduce
    exactly, ``limit`` prefixes included."""
    out = []
    _Colourer(m).solve(limit, out)
    return out


def count_colourings(ends):
    """Number of edge->colour maps with three distinct colours at each
    vertex, by backtracking in edge order; `ends` as for all_colourings.
    """
    m = len(ends)
    at = {}
    for e, (a, b) in enumerate(ends):
        for v in (a, b):
            if v is not None:
                at.setdefault(v, []).append(e)
    colour = [0] * m

    def distinct_at(v):
        cols = [colour[f] for f in at[v] if colour[f]]
        return len(cols) == len(set(cols))

    def go(i):
        if i == m:
            return 1
        total = 0
        for c in (1, 2, 3):
            colour[i] = c
            if all(distinct_at(v) for v in ends[i] if v is not None):
                total += go(i + 1)
        colour[i] = 0
        return total

    return go(0)


def fano_line_triples():
    """The 7 Fano lines as frozensets of nonzero GF(2)^3 points (as ints)."""
    return {
        frozenset(t)
        for t in itertools.combinations(range(1, 8), 3)
        if t[0] ^ t[1] ^ t[2] == 0
    }


def _component_count(n, edges, dead=None):
    """Connected components of a plain graph, ignoring vertex `dead`."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n - (dead is not None)
    for a, b in edges:
        if dead in (a, b):
            continue
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            comps -= 1
    return comps


def two_factor_circuits(n, edges, matching):
    """The circuits of the 2-factor left when the perfect matching
    ``matching`` (edge ids) is removed, as sets of edge ids: the
    components of the remaining edges, by union-find on the vertices.
    Every vertex keeps two edge-ends, so each component is a circuit."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rest = [i for i in range(len(edges)) if i not in matching]
    for i in rest:
        a, b = edges[i]
        parent[find(a)] = find(b)
    circuits = {}
    for i in rest:
        circuits.setdefault(find(edges[i][0]), set()).add(i)
    return list(circuits.values())


def two_connected(n, edges):
    """Connected with no cut vertex, by deleting each vertex in turn.

    Loops are ignored for articulation.  Two or fewer vertices have no
    cut vertex, so there only a bridge (a single edge whose removal
    disconnects) is an obstruction.
    """
    if _component_count(n, edges) > 1:
        return False
    if n <= 2:
        return all(_component_count(n, edges[:i] + edges[i + 1:]) == 1
                   for i in range(len(edges)))
    return all(_component_count(n, edges, dead=v) == 1 for v in range(n))


def random_cubic_edges(rng, n):
    """A random cubic multigraph on n vertices (n even) as a plain edge
    list: the configuration model, so loops, parallel edges and
    disconnected graphs all occur."""
    stubs = [v for v in range(n) for _ in range(3)]
    rng.shuffle(stubs)
    return [(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])]


def cyclic_edge_connectivity(n, edges, limit):
    """Smallest size of a cycle-separating edge cut of a connected cubic
    multigraph, or None when every such cut is larger than ``limit`` or
    none exists.

    The package's earlier brute force, kept as it was: every one of the
    2^(n-1) vertex bipartitions, on bitmask adjacency.
    """
    if n < 2:
        return None

    edge_masks = []
    for a, b in edges:
        edge_masks.append((1 << a) | (1 << b))
    adj_mask = [0] * n
    for a, b in edges:
        if a != b:
            adj_mask[a] |= 1 << b
            adj_mask[b] |= 1 << a

    def has_circuit(mask: int) -> bool:
        # a circuit exists iff some component of the induced subgraph has
        # at least as many induced edges as vertices
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
            if ec >= comp.bit_count():
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
        return None
    return best
