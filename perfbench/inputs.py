"""Seeded inputs for the benchmark workloads.

Everything here runs in the parent process before any op is timed.  The
program under test only ever sees the graph6 and JSONL files written here.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "data" / "corpus.jsonl"

# Colourer-bound suite for analyze-snarks; every one of them finishes in
# about a second today.  Both op lists have an odd length, so the median
# of the pooled op latencies falls inside one graph's cluster of samples
# rather than between two.  flower:7 (about 19 s) and flower:9 (does not
# finish) are run as probes in the traced run instead, see LARGE_PROBES.
SNARKS = ("petersen", "blanusa1", "blanusa2", "flower:3", "flower:5",
          "inflate:petersen:0", "inflate-pair:petersen:0:1")
# One enumeration each, no colourer.
FULKERSON_NAMED = ("petersen", "blanusa1", "blanusa2", "double:petersen",
                   "flower:5", "flower:7", "flower:9", "flower:11")
LARGE_PROBES = ("flower:7", "flower:9")

# Random graphs all have 30 vertices: enumeration is then about 80 % of
# analyze and a graph takes about 0.1 s, so a 25 s run sees some 200 of
# them.  At 36 vertices (0.5 s, some 50 graphs a run) which graphs a seed
# drew moved the per-run medians by 10-15 % from seed to seed.
RANDOM_N = 30
ANALYZE_BATCH = 5      # random graphs per analyze-random batch call
FULKERSON_RANDOM = 3   # random graphs per fulkerson-roundtrip pass
# verify-certs passes cycle through this many seeded orders of the corpus:
# which certificate comes first sets the first (slowest) gap of the call,
# so one order per run tied slowest_op_cpu_s to the seed.
CORPUS_ORDERS = 8


@dataclass
class Op:
    """One CLI call.  ``ops`` is how many graphs or certificates it handles."""

    argv: list[str]
    kind: str                  # analyze-snark | analyze-random | roundtrip | verify | tampered
    ops: int = 1
    key: str | None = None     # golden key for calls whose bytes are pinned


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def _is_bridgeless_connected(n: int, edges: list[tuple[int, int]]) -> bool:
    """Connected, and still connected after deleting any single edge."""
    def connected(skip: int) -> bool:
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, (a, b) in enumerate(edges):
            if i != skip:
                adj[a].append(b)
                adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    return all(connected(skip) for skip in range(-1, len(edges)))


def _is_colourable(n: int, edges: list[tuple[int, int]]) -> bool:
    """3-edge-colourable: some perfect matching leaves a 2-factor of even
    cycles.  The check is the benchmark's own, so the program under test
    never picks its own inputs."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    mate = [-1] * n

    def even_cycles() -> bool:
        seen = [False] * n
        for s in range(n):
            if seen[s]:
                continue
            prev, v, length = -1, s, 0
            while not (v == s and length):
                seen[v] = True
                prev, v = v, next(w for w in adj[v] if w != mate[v] and w != prev)
                length += 1
            if length % 2:
                return False
        return True

    def match(v: int) -> bool:
        while v < n and mate[v] >= 0:
            v += 1
        if v == n:
            return even_cycles()
        for w in adj[v]:
            if mate[w] < 0:
                mate[v], mate[w] = w, v
                if match(v + 1):
                    return True
                mate[v] = mate[w] = -1
        return False

    return match(0)


def random_cubic(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Configuration model, rejecting loops, multi-edges, bridges,
    disconnected graphs and graphs that are not 3-edge-colourable (about
    one in 4,000 at 30 vertices); returns the sorted edge list."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for a, b in zip(points[::2], points[1::2]):
            if a == b or (min(a, b), max(a, b)) in edges:
                break
            edges.add((min(a, b), max(a, b)))
        else:
            out = sorted(edges)
            if _is_bridgeless_connected(n, out) and _is_colourable(n, out):
                return out


def graph6(n: int, edges) -> str:
    """graph6 encoding of a simple graph with at most 62 vertices."""
    adj = {(min(a, b), max(a, b)) for a, b in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = bytes(63 + sum(b << (5 - k) for k, b in enumerate(bits[i:i + 6]))
                 for i in range(0, len(bits), 6))
    return chr(n + 63) + body.decode("ascii")


def named_graph6(name: str, root: Path) -> str:
    """graph6 for a suite name: tests/data/<name>.g6, or a CLI construction."""
    data = root / "tests" / "data" / f"{name}.g6"
    if data.is_file():
        return data.read_text(encoding="ascii").strip()
    from snarkdefect.cli import build_descriptor
    g = build_descriptor(name)
    return graph6(g.vertex_count, g.edges)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """The op list of every pass, made from the seed and nothing else.

    Files go under ``work`` with paths relative to the checkout root, so
    certificate ``source`` labels, and with them the golden digests, do
    not depend on where the checkout lives.  Files whose bytes depend on
    the seed go under ``work/seed<N>``, so runs with different seeds never
    write the same file; a file is replaced atomically and only when its
    bytes change, so a run never reads another run's half-written file.
    """

    def __init__(self, name: str, seed: int, root: Path, work: Path):
        self.name, self.seed, self.root, self.work = name, seed, root, work
        self.seed_work = work / f"seed{seed}"
        self.inputs: dict[str, str] = {}   # relative path -> sha256 of its bytes
        (root / self.seed_work).mkdir(parents=True, exist_ok=True)

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(map(str, ("perfbench", self.name, self.seed) + parts)))

    def write(self, filename: str, text: str, seeded: bool = False) -> str:
        """Write one input file; ``seeded`` for bytes that depend on the seed."""
        rel = str((self.seed_work if seeded else self.work) / filename)
        path, data = self.root / rel, text.encode("utf-8")
        if not path.is_file() or path.read_bytes() != data:
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        self.inputs[rel] = sha256(text)
        return rel

    def graph_file(self, name: str) -> str:
        return self.write(name.replace(":", "_") + ".g6", named_graph6(name, self.root) + "\n")

    def random_file(self, tag: str, count: int) -> str:
        rng = self.rng(tag)
        lines = [graph6(RANDOM_N, random_cubic(RANDOM_N, rng)) for _ in range(count)]
        return self.write(f"random-{tag}.g6", "\n".join(lines) + "\n", seeded=True)

    def ops(self, p: int) -> list[Op]:
        """Op list of pass ``p``; a traced run repeats pass 0."""
        rng = self.rng("order", p)
        if self.name == "analyze-snarks":
            ops = [Op(["analyze", "--graph6", self.graph_file(g), "--json"], "analyze-snark",
                      key=f"analyze {g}") for g in SNARKS]
        elif self.name == "analyze-random":
            # new graphs every pass, in one batch call
            return [Op(["analyze", "--graph6", self.random_file(f"a{p}", ANALYZE_BATCH), "--json"],
                       "analyze-random", ops=ANALYZE_BATCH)]
        elif self.name == "fulkerson-roundtrip":
            ops = [Op(["fulkerson", "--graph6", self.graph_file(g), "--roundtrip", "--json"],
                      "roundtrip", key=f"fulkerson {g}") for g in FULKERSON_NAMED]
            ops += [Op(["fulkerson", "--graph6", self.random_file(f"f{p}-{i}", 1),
                        "--roundtrip", "--json"], "roundtrip") for i in range(FULKERSON_RANDOM)]
        elif self.name == "verify-certs":
            ops = self.verify_ops(p)
        else:
            raise ValueError(f"unknown workload {self.name!r}")
        rng.shuffle(ops)
        return ops

    def probe_ops(self) -> list[Op]:
        return [Op(["analyze", "--graph6", self.graph_file(g), "--json"], "analyze-snark",
                   key=f"analyze {g}") for g in LARGE_PROBES]

    # -- verify-certs -------------------------------------------------------

    def verify_ops(self, p: int) -> list[Op]:
        """One verify call over the corpus in the order of pass ``p``, one per
        tampered certificate."""
        valid = CORPUS.read_text(encoding="utf-8").splitlines()
        order = p % CORPUS_ORDERS
        self.rng("corpus", order).shuffle(valid)
        corpus = self.write(f"corpus-{order}.jsonl", "\n".join(valid) + "\n", seeded=True)
        return [Op(["verify", corpus], "verify", ops=len(valid))] + list(self.tampered_ops)

    @functools.cached_property
    def tampered_ops(self) -> tuple[Op, ...]:
        return tuple(Op(["verify", self.write(f"tampered-{tag}.jsonl",
                                              json.dumps(cert, sort_keys=True) + "\n")],
                        "tampered")
                     for tag, cert in tampered(_first_analyze()).items())

    def malformed_files(self) -> dict[str, str]:
        return {tag: self.write(f"malformed-{tag}.jsonl", json.dumps(cert) + "\n")
                for tag, cert in malformed(_first_analyze()).items()}

    def inputs_digest(self) -> str:
        return sha256("".join(f"{k} {v}\n" for k, v in sorted(self.inputs.items())))


def _first_analyze() -> dict:
    return json.loads(next(line for line in CORPUS.read_text(encoding="utf-8").splitlines()
                           if '"command":"analyze"' in line))


def tampered(cert: dict) -> dict[str, dict]:
    """Valid certificate with one claim broken; verify must print FAIL."""
    out = {}
    c = copy.deepcopy(cert)
    c["result"]["df"]["value"] -= 1
    out["forged-df"] = c

    c = copy.deepcopy(cert)
    member = c["result"]["df"]["witness"][0]
    used = set(member)
    member[0] = next(e for e in range(len(c["graph"]["edges"])) if e not in used)
    member.sort()
    out["swapped-witness-edge"] = c

    c = copy.deepcopy(cert)
    c["graph"]["sha256"] = "0" * 64
    out["digest-mismatch"] = c
    return out


def malformed(cert: dict) -> dict[str, object]:
    """The five malformed shapes that make verify raise instead of printing FAIL."""
    out: dict[str, object] = {}
    c = copy.deepcopy(cert)
    c["result"]["df"] = 3
    out["df-not-dict"] = c

    c = copy.deepcopy(cert)
    c["result"]["df"]["witness"] = 7
    out["witness-not-list"] = c

    c = copy.deepcopy(cert)
    c["graph"]["edges"][0] = c["graph"]["edges"][0][:1]
    out["edge-one-endpoint"] = c

    c = copy.deepcopy(cert)
    c["result"] = [c["result"]]
    out["result-list"] = c

    out["cert-list"] = [cert]
    return out
