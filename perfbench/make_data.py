"""Regenerate perfbench/data: the verify-certs corpus and the certificate goldens.

    PYTHONPATH=src python3 perfbench/make_data.py     # from the checkout root

The goldens pin the certificate bytes of every fixed-input op, so they
must only be regenerated when a change to the certificate format is
intended.  flower:7 takes about 20 s.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from inputs import FULKERSON_NAMED, LARGE_PROBES, SNARKS, Workload

from snarkdefect import cli

HERE = Path(__file__).resolve().parent


def certificates(argv: list[str]) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return out.getvalue().splitlines()


def main() -> None:
    root = Path.cwd()
    goldens: dict[str, str] = {}
    corpus: list[str] = []

    snarks = Workload("analyze-snarks", 0, root, Path(".perfbench_work") / "analyze-snarks")
    for name in SNARKS + LARGE_PROBES[:1]:
        [line] = certificates(["analyze", "--graph6", snarks.graph_file(name), "--json"])
        goldens[f"analyze {name}"] = hashlib.sha256(line.encode()).hexdigest()
        corpus.append(line)

    ful = Workload("fulkerson-roundtrip", 0, root, Path(".perfbench_work") / "fulkerson-roundtrip")
    for name in FULKERSON_NAMED:
        [line] = certificates(["fulkerson", "--graph6", ful.graph_file(name),
                               "--roundtrip", "--json"])
        goldens[f"fulkerson {name}"] = hashlib.sha256(line.encode()).hexdigest()
        corpus.append(line)

    extra = Workload("corpus", 0, root, Path(".perfbench_work") / "corpus")
    corpus += certificates(["analyze", "--graph6", extra.random_file("a", 3),
                            "--json"])
    corpus += certificates(["fulkerson", "--graph6", extra.random_file("f", 2),
                            "--roundtrip", "--json"])

    data = HERE / "data"
    data.mkdir(exist_ok=True)
    (data / "corpus.jsonl").write_text("\n".join(corpus) + "\n", encoding="utf-8")
    (data / "goldens.json").write_text(
        json.dumps({"certificates": goldens}, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
