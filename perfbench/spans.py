"""Spans around the public functions of each snarkdefect layer.

``install`` rebinds every module attribute through which snarkdefect looks
a traced function up (``defect_engine.three_edge_colour`` as well as
``colouring.three_edge_colour``, ``cli.defect`` as well as
``defect_engine.defect``) to a wrapper that opens a span.  ``uninstall``
puts the original functions back.  Nothing in the library changes.

Span times are this process's CPU seconds (``time.process_time``), so
time the machine spends on other virtual machines does not count.  A
span's self time is its duration minus the time of its direct child
spans.  Spans are also kept as (id, name, start, end, parent id) records;
one Tracer serves one CLI call, so its spans share that call.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (module, function names); several functions may share a span
TRACED = {
    "graph_core.parse_graph6": ("graph_core", ("parse_graph6",)),
    "graph_core.girth": ("graph_core", ("girth",)),
    "graph_core.is_two_connected": ("graph_core", ("is_two_connected",)),
    "graph_core.is_bridgeless": ("graph_core", ("is_bridgeless",)),
    "colouring.three_edge_colour": ("colouring", ("three_edge_colour",)),
    "colouring.enumerate_perfect_matchings": ("colouring", ("enumerate_perfect_matchings",)),
    "colouring.oddness": ("colouring", ("oddness",)),
    "colouring.is_snark": ("colouring", ("is_snark",)),
    "defect_engine.defect": ("defect_engine", ("defect",)),
    "defect_engine.regular_defect": ("defect_engine", ("regular_defect",)),
    "defect_engine.core_of": ("defect_engine", ("core_of",)),
    "defect_engine.check_girth_bound": ("defect_engine", ("check_girth_bound",)),
    "defect_engine.coverage": ("defect_engine", ("coverage",)),
    "fano_flow.characteristic_flow": ("fano_flow", ("characteristic_flow",)),
    "fano_flow.verify_flow": ("fano_flow", ("verify_flow",)),
    "fulkerson.find_cover": ("fulkerson", ("find_cover",)),
    "fulkerson.convert": ("fulkerson", ("cover_to_complementary", "complementary_to_flows",
                                        "flows_to_cover")),
    "fulkerson.verify_cover": ("fulkerson", ("verify_cover",)),
    "certificates.emit": ("certificates", ("make_certificate", "dump_certificate")),
    "certificates.verify_certificate": ("certificates", ("verify_certificate",)),
    "certificates.error_certificate": ("certificates", ("error_certificate",)),
}
MAIN = "cli.main"
SPAN_NAMES = tuple(TRACED) + (MAIN,)

MODULES = ("graph_core", "colouring", "defect_engine", "fano_flow", "fulkerson",
           "constructions", "certificates", "cli")


def _count(name: str, fn_name: str, result, stats: dict) -> None:
    """Work counters read off a traced function's result."""
    if name == "colouring.three_edge_colour":
        stats["found"] += result is not None
    elif name == "colouring.enumerate_perfect_matchings":
        stats["matchings"] += len(result)
    elif fn_name == "dump_certificate":
        stats["bytes"] += len(result.encode("utf-8"))


class Tracer:
    def __init__(self):
        self.stats = {n: {"calls": 0, "self_s": 0.0, "found": 0, "matchings": 0, "bytes": 0}
                      for n in SPAN_NAMES}
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[list] = []      # [name, start, child time, span id]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> None:
        self._stack.append([name, time.process_time(), 0.0, self._next_id])
        self._next_id += 1

    def close(self) -> None:
        end = time.process_time()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        st = self.stats[name]
        st["calls"] += 1
        st["self_s"] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append((sid, name, start, end, parent[3] if parent else -1))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            _count(name, fn.__name__, result, self.stats[name])
            return result
        return traced

    def install(self) -> None:
        mods = {m: sys.modules[f"snarkdefect.{m}"] for m in MODULES}
        originals = {}
        for name, (home, fns) in TRACED.items():
            for fn_name in fns:
                fn = getattr(mods[home], fn_name)
                originals[id(fn)] = self.wrap(name, fn)
        for mod in list(mods.values()) + [sys.modules["snarkdefect"]]:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()
