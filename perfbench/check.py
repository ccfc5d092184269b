"""Correctness checks for the outputs of the benchmarked ``fiet`` processes.

Each process of a workload names a *check*: a golden digest key, or
``"oracle"``.  A process fails when it prints a traceback, exits with a code
other than 0 or 1, writes output that does not parse, or misses its digest.

For ``verify`` only the exact-number sections are pinned (towers, level-1
vectors, separation records, the record count and the two fidelity matrices
per case).  The verdict flags ``passed`` and ``discrepancy_isolated`` and the
exit code 0 versus 1 are deliberately not pinned: an honest fix of the
fidelity check may flip them without changing any computed number.

Run ``python3 perfbench/check.py`` to print the digests of the current
program's outputs in the format of ``golden.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from functools import cache
from pathlib import Path
from typing import Optional


@cache
def golden() -> dict:
    return json.loads(Path(__file__).with_name("golden.json").read_text())["digests"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def verify_sections(report: dict) -> dict:
    """The exact-number sections of a ``fiet verify`` JSON report."""
    return {
        "towers": report["towers"],
        "level1_vectors": report["level1_vectors"],
        "separation": report["separation"],
        "records_total": report["records_total"],
        "fidelity_matrices": [
            {"computed": case["computed"], "reference": case["reference"]}
            for case in report["matrix_fidelity"]["cases"]
        ],
    }


def digest(key: str, text: str) -> str:
    """Digest of an output as pinned under ``key`` (raises if it does not parse)."""
    if key.startswith("verify "):
        return _sha256(_canonical(verify_sections(json.loads(text))))
    if key.startswith("construct "):
        json.loads(text)
    elif key == "simulate":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0][0] != "start":
            raise ValueError("simulate output is not the frequency CSV")
    return _sha256(text)


def check_oracle(text: str, trials: int) -> Optional[str]:
    report = json.loads(text)
    if report["trials"] != trials:
        return f"oracle ran {report['trials']} trials, expected {trials}"
    if report["passes"] != trials or report["failures"]:
        return f"oracle passed {report['passes']} of {trials} trials"
    return None


def check_process(
    check: str, returncode: int, stderr: str, text: Optional[str], trials: int = 0
) -> Optional[str]:
    """Why one finished process failed, or None if it is correct."""
    if "Traceback (most recent call last)" in stderr:
        return "traceback on stderr: " + stderr.strip().splitlines()[-1]
    if returncode not in (0, 1):
        return f"exit code {returncode}"
    if text is None:
        return "no output written"
    try:
        if check == "oracle":
            return check_oracle(text, trials)
        got = digest(check, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"output does not parse: {exc!r}"
    if got != golden()[check]:
        return f"{check}: digest {got[:12]} differs from golden {golden()[check][:12]}"
    return None


def orbit_steps(csv_text: str) -> int:
    """Orbit steps a simulate run made: per start, its longest completed horizon."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    longest: dict[str, int] = {}
    for row in rows:
        steps = int(row["steps_completed"])
        longest[row["start"]] = max(steps, longest.get(row["start"], 0))
    return sum(longest.values())


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import golden_digests

    print(json.dumps(golden_digests(), indent=2, sort_keys=True))
