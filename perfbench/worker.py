"""Benchmark worker: runs ``snarkdefect.cli.main`` in-process, one call per request.

Started by run.py with ``src`` on PYTHONPATH.  It talks JSON lines over
stdin/stdout:

* after ``import snarkdefect`` it sends ``{"ready": true, "cpu": ...}``,
  the CPU seconds the process has used since it started;
* for ``{"reference": true}`` it runs the reference job once and sends
  ``{"reference_cpu": ...}``, its CPU seconds;
* for each request ``{"argv": [...], "trace": bool}`` it sends one
  ``{"line": text, "t": ..., "c": ...}`` event per line the CLI prints, as
  the line is printed, then ``{"done": true, "code": ..., "seconds": ...,
  "cpu": ..., "raised": ..., "rss_kb": ...}`` and, for traced calls, the
  span statistics.  ``t`` and ``seconds`` are wall seconds, ``c`` and
  ``cpu`` this process's CPU seconds (all threads), from the start of the
  call;
* end of input ends it.
"""

import contextlib
import gc
import io
import json
import random
import resource
import sys
import time
import traceback

import snarkdefect  # noqa: F401
from snarkdefect import cli

SETUP_CPU = time.process_time()   # set-up time ends here, before the benchmark's own imports

from inputs import _is_colourable, graph6, random_cubic  # noqa: E402
from spans import MAIN, Tracer  # noqa: E402

PIPE = sys.stdout

# The reference job: plain Python work of the same kind as snarkdefect's
# (small lists, ints, recursion), on fixed graphs, 5-10 ms.  run.py
# divides the program's CPU times by its CPU time to take out the host's
# speed, which drifts by 10-30 % over minutes on a shared machine.
REFERENCE_GRAPHS = 12
REFERENCE_N = 30


def reference(graphs: list) -> float:
    """CPU seconds of one reference job.  The collector is off while it runs,
    so the size of the program's heap cannot change its cost."""
    gc.disable()
    try:
        c0 = time.process_time()
        for edges in graphs:
            _is_colourable(REFERENCE_N, edges)
            graph6(REFERENCE_N, edges)
        return time.process_time() - c0
    finally:
        gc.enable()


def send(obj) -> None:
    PIPE.write(json.dumps(obj) + "\n")
    PIPE.flush()


class LineTap(io.TextIOBase):
    """Stands in for sys.stdout; forwards each complete line with its time."""

    def __init__(self):
        self.t0, self.c0 = time.perf_counter(), time.process_time()
        self.pending = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.pending += s
        while "\n" in self.pending:
            line, self.pending = self.pending.split("\n", 1)
            send({"line": line, **self.now()})
        return len(s)

    def now(self) -> dict:
        return {"t": time.perf_counter() - self.t0, "c": time.process_time() - self.c0}


def run(argv: list[str], tracer: Tracer | None) -> dict:
    tap = LineTap()
    code, raised = None, None
    if tracer:
        tracer.install()
        tracer.open(MAIN)
    try:
        with contextlib.redirect_stdout(tap), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        raised = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    finally:
        if tracer:
            tracer.close()
            tracer.uninstall()
    end = tap.now()
    if tap.pending:
        send({"line": tap.pending, **end})
    return {"done": True, "code": code, "seconds": end["t"], "cpu": end["c"], "raised": raised,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main() -> None:
    send({"ready": True, "cpu": SETUP_CPU})
    graphs = None
    for request in sys.stdin:
        req = json.loads(request)
        if req.get("reference"):
            if graphs is None:      # made on first use: most workers only time their start
                rng = random.Random("perfbench:reference")
                graphs = [random_cubic(REFERENCE_N, rng) for _ in range(REFERENCE_GRAPHS)]
            send({"reference_cpu": reference(graphs)})
            continue
        tracer = Tracer() if req.get("trace") else None
        reply = run(req["argv"], tracer)
        if tracer:
            reply["stats"] = tracer.stats
            reply["spans"] = tracer.spans if req.get("keep_spans") else None
        send(reply)


if __name__ == "__main__":
    main()
