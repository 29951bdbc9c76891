"""Correctness gate, run in the parent after the timed region.

Every call is checked for its exit code and its output lines.  Every
certificate is re-checked with ``certificates.verify_certificate``, its
df/rdf compared with the expected table (snarks 3/3, random cubic
graphs 0/0, each witnessed), and, where the input is fixed, its bytes
compared with the checked-in sha256 golden.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "data" / "goldens.json"

# df, rdf and snark flag by kind of analyze input
EXPECTED = {"analyze-snark": (3, 3, True), "analyze-random": (0, 0, False)}


class Gate:
    def __init__(self):
        from snarkdefect import certificates
        self.verify_certificate = certificates.verify_certificate
        self.goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
        self._seen: dict[str, list[str]] = {}

    def _recheck(self, line: str) -> list[str]:
        """verify_certificate on one emitted line, once per distinct line."""
        if line not in self._seen:
            try:
                self._seen[line] = self.verify_certificate(json.loads(line))
            except Exception as exc:  # a crash in the re-check is a failed op, not a crash here
                self._seen[line] = [f"re-check raised {type(exc).__name__}: {exc}"]
        return self._seen[line]

    def check(self, op, code, lines: list[str]) -> list[str]:
        """Problems with one completed call; one entry per failed op at most."""
        if op.kind in ("verify", "tampered"):
            return self._check_verify(op, code, lines)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        if len(lines) != op.ops:
            problems.append(f"{len(lines)} certificate lines, expected {op.ops}")
        for line in lines:
            try:
                err = self._check_certificate(op, line)
            except (KeyError, TypeError, AttributeError) as exc:
                err = f"{op.key or op.argv[2]}: certificate lacks an expected field ({exc!r})"
            if err:
                problems.append(err)
        return problems[:op.ops]

    def _check_certificate(self, op, line: str) -> str | None:
        head = op.key or op.argv[2]
        try:
            cert = json.loads(line)
        except json.JSONDecodeError:
            return f"{head}: output is not JSON: {line[:60]!r}"
        want = self.goldens["certificates"].get(op.key)   # flower:9 has none: it never finished
        if want is not None and hashlib.sha256(line.encode("utf-8")).hexdigest() != want:
            return f"{head}: certificate bytes differ from the golden"
        problems = self._recheck(line)
        if problems:
            return f"{head}: verify_certificate: {problems[0]}"
        if cert.get("exact") is not True:
            return f"{head}: result not exact"
        res = cert["result"]
        if op.kind == "roundtrip":
            if res.get("mode") != "roundtrip" or res.get("pass") is not True:
                return f"{head}: roundtrip did not pass"
            return None
        df, rdf, snark = EXPECTED[op.kind]
        for sec, want in (("df", df), ("rdf", rdf)):
            got = res[sec]
            if got["value"] != want or not got["exhaustive"] or got["witness"] is None:
                return f"{head}: {sec} {got['value']}, expected {want} with a witness"
        if res.get("snark") is not snark or res.get("colourable") is snark:
            return f"{head}: snark/colourable flags are wrong"
        return None

    @staticmethod
    def _check_verify(op, code, lines: list[str]) -> list[str]:
        if op.kind == "tampered":
            if code == 1 and lines and lines[0].startswith("FAIL "):
                return []
            return [f"tampered {op.argv[1]}: exit {code}, output {lines[:1]}"]
        verdicts = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
        bad = [ln for ln in verdicts if not ln.startswith("PASS ")]
        problems = [f"valid certificate rejected: {ln[:120]}" for ln in bad]
        problems += ["valid certificate not verified"] * (op.ops - len(verdicts))
        if code != 0 and not problems:
            problems.append(f"verify exit code {code}")
        return problems[:op.ops]


def malformed_outcome(code, lines: list[str], raised: str | None) -> str:
    """'traceback' (the known defect), 'fail' (the wanted behaviour) or 'wrong'."""
    if raised is not None:
        return "traceback"
    if code == 1 and lines and lines[0].startswith("FAIL "):
        return "fail"
    return "wrong"
