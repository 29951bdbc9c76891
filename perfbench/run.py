"""snarkdefect benchmark: drives ``snarkdefect.cli.main`` in one worker process.

    python3 perfbench/run.py --workload analyze-snarks --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run it from the root of a checkout.  One client, closed loop: each call
waits for the previous one.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; the last line of stdout is one JSON
object.  Times in the metrics are the worker's CPU seconds; wall-clock
figures are printed beside them.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import Gate, malformed_outcome
from inputs import Workload
from spans import SPAN_NAMES

HERE = Path(__file__).resolve().parent
WORKLOADS = ("analyze-snarks", "analyze-random", "fulkerson-roundtrip", "verify-certs")
DEADLINE = 30.0        # wall seconds an op may print nothing before its worker is killed
PROBE_DEADLINE = 10.0  # the same for the flower:7 and flower:9 probes
SETUP_RUNS = 15        # fresh workers timed per run for setup_s
# CPU seconds the worker's reference job takes at the reference speed.  Times
# in the end-to-end metrics are scaled by REFERENCE_S over the run's median
# reference time: seconds on a host where the reference job takes this long.
REFERENCE_S = 0.005
MIN_TRACED_PASSES = 2  # counters must repeat exactly between traced passes


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process; JSON lines over its stdin and stdout."""

    def __init__(self, root: Path):
        self.root = root
        self.proc: subprocess.Popen | None = None
        self.buf = b""
        self.rss_kb = 0

    def start(self) -> float:
        """Start a fresh worker; returns the CPU seconds it used up to
        ``import snarkdefect`` done."""
        # budgets set in the caller's environment would change what is measured
        env = {k: v for k, v in os.environ.items() if not k.startswith("SNARKDEFECT_")}
        env["PYTHONPATH"] = str(self.root / "src")
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=self.root,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     bufsize=0)
        self.buf = b""
        try:
            msg = self.read(DEADLINE)
        except WorkerError:
            msg = None
        if not (msg and msg.get("ready")):
            self.stop(kill=True)
            raise WorkerError("worker did not start (is src/snarkdefect importable?)")
        return msg["cpu"]

    def read(self, timeout: float) -> dict | None:
        """Next message, or None when none arrives within ``timeout``."""
        end = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            left = end - time.perf_counter()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise WorkerError("worker exited unexpectedly")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, argv: list[str], trace: bool = False, keep_spans: bool = False,
             deadline: float = DEADLINE) -> dict:
        """Run one CLI call.  An op that prints nothing for ``deadline`` seconds
        is killed with its worker, which is then restarted.  An op whose
        worker died or was killed is charged the deadline as both its wall
        and its CPU time."""
        req = {"argv": argv, "trace": trace, "keep_spans": keep_spans}
        self.proc.stdin.write((json.dumps(req) + "\n").encode())
        lines: list[dict] = []
        while True:
            try:
                msg = self.read(deadline)
            except WorkerError as exc:      # the worker died
                return self.failed(lines, False, str(exc), deadline)
            if msg is None:
                return self.failed(lines, True, None, deadline)
            if "line" in msg:
                lines.append(msg)
            else:
                self.rss_kb = max(self.rss_kb, msg["rss_kb"])
                return dict(msg, lines=lines, timed_out=False)

    def reference(self) -> float:
        """CPU seconds of one run of the worker's reference job."""
        self.proc.stdin.write(b'{"reference": true}\n')
        msg = self.read(DEADLINE)
        if msg is None:
            raise WorkerError("the reference job did not finish")
        return msg["reference_cpu"]

    def failed(self, lines, timed_out: bool, raised: str | None, deadline: float) -> dict:
        self.stop(kill=True)
        self.start()
        return {"lines": lines, "timed_out": timed_out, "code": None, "raised": raised,
                "seconds": deadline, "cpu": deadline}

    def stop(self, kill: bool = False) -> None:
        if self.proc is None:
            return
        if kill:
            self.proc.kill()
        else:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        self.proc = None


def op_latencies(op, res: dict, clock: str) -> list[float]:
    """Per-op latencies of one call on ``clock`` ("t" wall, "c" CPU): the call
    itself for single-graph calls, otherwise the gaps between consecutive
    certificate or verdict lines."""
    if res["timed_out"] or res["raised"] or op.ops == 1:
        return [res["seconds" if clock == "t" else "cpu"]]
    times = [ln[clock] for ln in res["lines"]
             if op.kind != "verify" or ln["line"][:5] in ("PASS ", "FAIL ")]
    return [b - a for a, b in zip([0.0] + times, times)]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, root: Path):
        self.root, self.seconds = root, seconds
        self.wl = Workload(workload, seed, root, Path(".perfbench_work") / workload)
        self.worker = Worker(root)
        self.gate = Gate()
        self.calls: list[tuple[object, dict]] = []   # every measured call, gated afterwards
        self.cpu_samples: list[float] = []
        self.wall_samples: list[float] = []
        self.pass_cpus: list[float] = []
        self.pass_walls: list[float] = []
        self.pass_slowest: list[float] = []          # CPU latency of each pass's slowest op
        self.reference_cpus: list[float] = []        # one reference job after each pass
        self.malformed: dict[str, tuple[str, str | None]] = {}
        self.notes: list[str] = []
        self.correct = True

    def do_pass(self, ops, trace: bool = False, keep_spans: bool = False) -> list[dict]:
        t0 = time.perf_counter()
        results, cpu_ops = [], []
        for op in ops:
            res = self.worker.call(op.argv, trace, keep_spans)
            results.append(res)
            self.calls.append((op, res))
            cpu_ops += op_latencies(op, res, "c")
            self.wall_samples += op_latencies(op, res, "t")
        self.pass_walls.append(time.perf_counter() - t0)
        self.pass_cpus.append(sum(res["cpu"] for res in results))
        self.pass_slowest.append(max(cpu_ops, default=0.0))   # no output fails the gate
        self.cpu_samples += cpu_ops
        return results

    # -- measured region ------------------------------------------------------

    def measure(self) -> dict:
        warm = Worker(self.root)
        warm.start()            # writes __pycache__, so later starts see what users see
        warm.stop()
        setup = []
        for _ in range(SETUP_RUNS):
            w = Worker(self.root)
            setup.append(w.start())
            w.stop()
        self.worker.start()
        p, t_end = 0, time.perf_counter() + self.seconds
        while p == 0 or time.perf_counter() < t_end:
            ops = self.wl.ops(p)            # input files are written outside the pass timing
            self.do_pass(ops)
            self.reference_cpus.append(self.worker.reference())
            p += 1
        self.malformed_probes()
        self.worker.stop()
        return {"setup_s": statistics.median(setup)}

    def measure_traced(self) -> dict:
        """Alternate untraced and traced passes over the op list of pass 0."""
        self.worker.start()
        ops = self.wl.ops(0)
        plain, traced = [], []
        t_end = time.perf_counter() + self.seconds
        while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < t_end:
            self.do_pass(ops)
            plain.append(self.pass_cpus[-1])
            results = self.do_pass(ops, trace=True, keep_spans=not traced)
            traced.append((self.pass_cpus[-1], results))
        probes = self.large_probes()
        self.malformed_probes()
        self.worker.stop()
        return {"plain": plain, "traced": traced, "probes": probes, "ops": ops}

    def large_probes(self) -> dict:
        """flower:7 and flower:9 through analyze, once each, untraced.  They are
        too slow to repeat in a run today; both hit the probe deadline."""
        out = {}
        if self.wl.name != "analyze-snarks":
            return out
        for op in self.wl.probe_ops():
            res = self.worker.call(op.argv, deadline=PROBE_DEADLINE)
            out[op.key] = res
            if not res["timed_out"]:
                problems = self.gate.check(op, res["code"], [ln["line"] for ln in res["lines"]])
                if problems:
                    self.correct = False
                    self.notes.append(f"probe {op.key}: {problems[0]}")
        return out

    def malformed_probes(self) -> None:
        """verify-certs: the five malformed certificates, each its own call.
        Today each raises (the known defect); a PASS would be wrong."""
        if self.wl.name != "verify-certs":
            return
        for tag, path in self.wl.malformed_files().items():
            res = self.worker.call(["verify", path])
            outcome = malformed_outcome(res["code"], [ln["line"] for ln in res["lines"]],
                                        res["raised"])
            self.malformed[tag] = (outcome, res["raised"])
            if outcome == "wrong":
                self.correct = False
                self.notes.append(f"malformed {tag}: accepted")

    # -- after the measured region ----------------------------------------------

    def gate_calls(self) -> tuple[int, int]:
        attempted = failed = 0
        for op, res in self.calls:
            attempted += op.ops
            if res["timed_out"]:
                problems = [f"{op.key or op.argv}: deadline of {DEADLINE:g} s exceeded"] * op.ops
            elif res["raised"]:
                problems = [f"{op.key or op.argv}: raised {res['raised']}"] * op.ops
            else:
                problems = self.gate.check(op, res["code"], [ln["line"] for ln in res["lines"]])
            failed += len(problems)
            self.notes += problems[:3]
        if failed:
            self.correct = False
        return attempted, failed


def tail(samples: list[float]) -> tuple[float, float, int, int]:
    """Latency at the highest percentile with at least ten samples beyond it
    (the largest sample when there are fewer than 11).  Returns (value,
    percentile, sample count, samples beyond it)."""
    s = sorted(samples)
    n = len(s)
    i = n - 11 if n > 10 else n - 1
    return s[i], 100.0 * (i + 1) / n, n, n - 1 - i


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: Run, info: dict, attempted: int, failed: int) -> dict:
    cpu_tail, pct, n, beyond = tail(run.cpu_samples)
    wall_tail = tail(run.wall_samples)[0]
    p50 = statistics.median(run.cpu_samples)
    ref = statistics.median(run.reference_cpus)
    scale = REFERENCE_S / ref
    pass_cpu, slowest = statistics.median(run.pass_cpus), statistics.median(run.pass_slowest)
    ok = attempted - failed
    m = {
        "pass_ref_s": metric(pass_cpu * scale, "s"),
        "ops_per_ref_s": metric(ok / (sum(run.pass_cpus) * scale), "1/s"),
        "slowest_op_ref_s": metric(slowest * scale, "s"),
        "setup_s": metric(info["setup_s"], "s"),
        "peak_rss_mb": metric(run.worker.rss_kb / 1024, "MB"),
    }
    wall = statistics.median(run.pass_walls)
    print(f"  reference job  {ref:.6f} s    median CPU time of {len(run.reference_cpus)}; "
          f"*_ref_s = CPU seconds x {scale:.4f}")
    print(f"  pass_ref_s     {m['pass_ref_s']['value']:.6f} s    median time of one pass "
          f"({len(run.pass_cpus)} passes); CPU {pass_cpu:.6f} s, wall {wall:.6f} s")
    print(f"  ops_per_ref_s  {m['ops_per_ref_s']['value']:.4f} 1/s  successful ops per second; "
          f"per CPU second {ok / sum(run.pass_cpus):.4f}, per wall second "
          f"{ok / sum(run.pass_walls):.4f}")
    print(f"  op_p50_cpu_s   {p50:.6f} s    median op latency (printed only); wall "
          f"{statistics.median(run.wall_samples):.6f} s")
    print(f"  slowest_op_ref_s {m['slowest_op_ref_s']['value']:.6f} s  median over the passes "
          f"of the latency of the pass's slowest op; CPU {slowest:.6f} s")
    print(f"  op_tail_cpu_s  {cpu_tail:.6f} s    op latency at p{pct:.2f} of {n} samples, "
          f"{beyond} beyond it (printed only); wall {wall_tail:.6f} s")
    print(f"  fail_share     {failed / attempted:.6f}      {failed} of {attempted} ops failed")
    print(f"  setup_s        {info['setup_s']:.6f} s    CPU time of a fresh worker up to "
          f"`import snarkdefect` done, median of {SETUP_RUNS}")
    print(f"  peak_rss_mb    {m['peak_rss_mb']['value']:.3f} MB   worker maximum RSS")
    return m


def per_layer(run: Run, tr: dict) -> dict:
    graphs = sum(op.ops for op in tr["ops"] if op.kind != "tampered")
    per_pass = []
    for _, results in tr["traced"]:
        tot = {n: dict.fromkeys(("calls", "self_s", "found", "matchings", "bytes"), 0)
               for n in SPAN_NAMES}
        for res in results:
            for name, st in res["stats"].items():
                for k, v in st.items():
                    tot[name][k] += v
        per_pass.append(tot)
    counts = [{n: (st["calls"], st["found"], st["matchings"], st["bytes"])
               for n, st in tot.items()} for tot in per_pass]
    if any(c != counts[0] for c in counts):
        run.correct = False
        run.notes.append("work counters differ between traced passes")
    first = per_pass[0]

    def self_s(name):
        return statistics.median(tot[name]["self_s"] for tot in per_pass)

    m = {}
    for name in SPAN_NAMES:
        if name != "certificates.error_certificate":
            m[f"{name}.calls"] = metric(first[name]["calls"], "count")
            m[f"{name}.self_s"] = metric(self_s(name), "s")
    te, ep = "colouring.three_edge_colour", "colouring.enumerate_perfect_matchings"
    te_calls, ep_calls = first[te]["calls"], first[ep]["calls"]
    m[f"{te}.found_ratio"] = metric(first[te]["found"] / te_calls if te_calls else 0.0, "ratio")
    m[f"{te}.calls_per_graph"] = metric(te_calls / graphs, "count")
    m[f"{ep}.calls_per_graph"] = metric(ep_calls / graphs, "count")
    m[f"{ep}.matchings"] = metric(first[ep]["matchings"], "count")
    m[f"{ep}.matchings_per_s"] = metric(
        first[ep]["matchings"] / self_s(ep) if ep_calls else 0.0, "1/s")
    m["certificates.emit.bytes"] = metric(first["certificates.emit"]["bytes"], "B")
    m["cli.error_certificates"] = metric(first["certificates.error_certificate"]["calls"], "count")
    plain = statistics.median(tr["plain"])
    m["trace.overhead_share"] = metric(statistics.median(c for c, _ in tr["traced"]) / plain - 1,
                                       "ratio")
    for key, label in (("analyze flower:7", "flower7"), ("analyze flower:9", "flower9")):
        res = tr["probes"].get(key)
        m[f"probe.{label}.analyze_s"] = metric(0.0 if res is None else res["seconds"], "s")
    m["probe.timeouts"] = metric(sum(r["timed_out"] for r in tr["probes"].values()), "count")
    m["verify.malformed_tracebacks"] = metric(
        sum(o == "traceback" for o, _ in run.malformed.values()), "count")

    for name, v in m.items():
        print(f"  {name:56s} {v['value']!r} {v['unit']}")
    whole = statistics.median(c for c, _ in tr["traced"])
    print(f"  share of the traced pass ({whole:.6f} CPU s): three_edge_colour self "
          f"{self_s(te) / whole:.3f}, enumerate_perfect_matchings self {self_s(ep) / whole:.3f}")
    for key, res in tr["probes"].items():
        state = (f"timed out at {res['seconds']:g} s" if res["timed_out"]
                 else f"{res['seconds']:.3f} s wall")
        print(f"  probe {key}: {state}")
    return m


def run_one(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> bool:
    run = Run(workload, seed, seconds, root)
    try:
        info = run.measure_traced() if trace else run.measure()
    finally:
        run.worker.stop()
    attempted, failed = run.gate_calls()
    print(f"workload {workload} seed {seed} trace {int(trace)}: {attempted} ops, "
          f"{len(run.wl.inputs)} input files, inputs sha256 {run.wl.inputs_digest()}")
    record = root / run.wl.seed_work / f"inputs-trace{int(trace)}.json"
    record.write_text(json.dumps(run.wl.inputs, indent=1, sort_keys=True) + "\n")
    if trace:
        metrics = per_layer(run, info)
        _, results = info["traced"][0]
        spans = [{"argv": op.argv, "spans": res["spans"]} for op, res in zip(info["ops"], results)]
        (root / run.wl.seed_work / "spans.json").write_text(json.dumps(spans) + "\n")
    else:
        metrics = end_to_end(run, info, attempted, failed)
    for tag, (outcome, raised) in run.malformed.items():
        print(f"  malformed certificate {tag}: {outcome}" + (f" ({raised})" if raised else ""))
    for note in run.notes[:10]:
        print(f"  problem: {note}")
    print(json.dumps({"correct": run.correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return run.correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "snarkdefect" / "cli.py").is_file():
        print("perfbench: run from the root of a snarkdefect checkout (src/snarkdefect missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.trace is None else (bool(args.trace),)
    print(f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
          f"os.cpu_count() {os.cpu_count()}")
    ok = True
    for wl in workloads:
        for trace in traces:
            ok &= run_one(wl, args.seed, args.seconds, trace, root)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
