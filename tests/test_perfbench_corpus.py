"""The benchmark's correctness gate runs ``verify`` on its checked-in
corpus (perfbench/data/corpus.jsonl) and needs every certificate there
to PASS; a verify rule that rejects one of them fails here first."""

import contextlib
import io
from pathlib import Path

from snarkdefect import cli

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "corpus.jsonl"


def test_benchmark_corpus_passes_verify():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(CORPUS), "--quiet"])
    assert (code, out.getvalue().splitlines()[-1]) == \
        (0, "verified 21 certificate(s): 21 pass, 0 fail")
