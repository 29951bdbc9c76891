"""The benchmark's tracer (perfbench/spans.py) looks each traced function
up by module and name, so renaming or moving one of them breaks
``perfbench/run.py --trace 1``; these tests catch that here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_function_resolves():
    spans = _spans()
    missing = [f"{home}.{name}" for home, names in spans.TRACED.values() for name in names
               if not callable(getattr(importlib.import_module(f"snarkdefect.{home}"),
                                       name, None))]
    assert missing == []


def test_tracer_installs_and_uninstalls():
    spans = _spans()
    mods = [importlib.import_module(f"snarkdefect.{m}") for m in spans.MODULES]
    before = [dict(vars(mod)) for mod in mods]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for home, names in spans.TRACED.values():
            for name in names:
                mod = importlib.import_module(f"snarkdefect.{home}")
                assert getattr(mod, name) is not before[mods.index(mod)][name], name
    finally:
        tracer.uninstall()
    assert [dict(vars(mod)) for mod in mods] == before
