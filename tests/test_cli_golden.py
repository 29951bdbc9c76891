"""CLI output bytes: the sha256 of stdout and the exit code of a fixed
matrix of runs, against the digests in data/cli_golden.json.

The matrix covers analyze, fulkerson and fulkerson --roundtrip on four
graphs, with and without budgets, in JSON and human output, plus a
node-capped search, --verify with a passing and a failing cover, and
error inputs.  Every certificate it prints must also pass verify.

Regenerate the digests, only for an intended change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from snarkdefect import certificates as ce
from snarkdefect import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

PETERSEN_COVER = [[0, 5, 9, 10, 12], [0, 6, 7, 11, 13], [1, 3, 8, 10, 13],
                  [1, 4, 5, 11, 14], [2, 3, 7, 12, 14], [2, 4, 6, 8, 9]]

# written to the working directory, so sources and messages are stable
FILES = {
    "cover-pass.json": json.dumps({"matchings": PETERSEN_COVER[::-1]}),  # read order kept
    "cover-fail.json": json.dumps({"matchings": PETERSEN_COVER[:5] + PETERSEN_COVER[:1]}),
    "empty.txt": "vertices 0\n",
    "dumbbell.txt": "vertices 2\n0 0\n0 1\n1 1\n",
    "claw.txt": "vertices 4\n0 1\n0 2\n0 3\n1 1\n2 2\n3 3\n",
}

COMMANDS = (["analyze"], ["fulkerson"], ["fulkerson", "--roundtrip"])
GRAPHS = ("petersen", "flower:5", "inflate-pair:petersen:0:1", "double:petersen")
BUDGETS = ([], ["--max-matchings", "3"], ["--max-triples", "50"],
           ["--max-matchings", "4", "--max-triples", "20"])
OUTPUTS = (["--json", "--quiet"], [])


def matrix() -> list[list[str]]:
    runs = [[*cmd, "--construct", desc, *budget, *out]
            for cmd in COMMANDS for desc in GRAPHS for budget in BUDGETS for out in OUTPUTS]
    extra = [
        ["fulkerson", "--construct", "petersen", "--max-nodes", "1"],
        ["fulkerson", "--construct", "petersen", "--roundtrip", "--max-nodes", "1"],
        ["fulkerson", "--construct", "petersen", "--verify", "cover-pass.json"],
        ["fulkerson", "--construct", "petersen", "--verify", "cover-fail.json"],
    ]
    for cmd in (["analyze"], ["fulkerson"]):
        extra += [
            [*cmd, "--construct", "nope:3"],
            [*cmd, "--edge-list", "empty.txt"],
            [*cmd, "--edge-list", "dumbbell.txt"],
            [*cmd, "--edge-list", "claw.txt"],
        ]
    return runs + [[*argv, *out] for argv in extra for out in OUTPUTS]


def run_matrix(workdir: Path) -> dict[str, tuple[int, str]]:
    """argv (space-joined) -> (exit code, stdout) for every run."""
    for name, text in FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        mp.delenv(cli.ENV_MAX_MATCHINGS, raising=False)
        mp.delenv(cli.ENV_MAX_TRIPLES, raising=False)
        for argv in matrix():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            results[" ".join(argv)] = code, out.getvalue()
    return results


def digests(results: dict[str, tuple[int, str]]) -> dict[str, list]:
    return {key: [code, hashlib.sha256(out.encode("utf-8")).hexdigest()]
            for key, (code, out) in results.items()}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_matrix(tmp_path_factory.mktemp("cli-golden"))


def test_cli_output_matches_golden_digests(results):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(results)
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


def test_every_matrix_certificate_verifies(results):
    checked = 0
    for key, (_, out) in results.items():
        if "--json" not in key.split():
            continue
        for line in out.splitlines():
            assert ce.verify_certificate(json.loads(line)) == [], key
            checked += 1
    assert checked == len(results) // 2


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(run_matrix(Path(tmp)))
    rows = (f" {json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table))
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
