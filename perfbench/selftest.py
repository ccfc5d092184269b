"""Self-test of the benchmark's correctness gate.

Runs ``fiet verify --mode relaxed --depth 8`` and ``fiet construct --mode
relaxed --depth 3`` once, then shows that the gate in ``check.py``

* accepts both real outputs;
* fails an output with one changed digit, in a pinned verify section and
  anywhere in the construct JSON;
* does not fail a verify report whose ``passed`` or ``discrepancy_isolated``
  flag alone was flipped, nor exit code 1;
* fails a traceback, exit code 2, output that does not parse, no output,
  and an oracle report with fewer passes than trials.

Usage: ``python3 perfbench/selftest.py``; exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import check_process  # noqa: E402
from run import ORACLE_TRIALS, ROOT, Proc, Runner, remove_work  # noqa: E402

VERIFY = Proc("verify-relaxed-8", ("verify", "--mode", "relaxed", "--depth", "8"),
              "verify relaxed 8")
CONSTRUCT = Proc("construct-3", ("construct", "--mode", "relaxed", "--depth", "3"),
                 "construct relaxed 3")
TRACEBACK = "Traceback (most recent call last):\n  ...\nValueError: boom\n"


def change_digit_after(text: str, marker: str) -> str:
    """``text`` with the first digit after ``marker`` replaced by another digit."""
    i = text.index(marker) + len(marker)
    while not text[i].isdigit():
        i += 1
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def flip(text: str, key: str) -> str:
    for old, new in ((f'"{key}": true', f'"{key}": false'),
                     (f'"{key}": false', f'"{key}": true')):
        if text.count(old) == 1:
            return text.replace(old, new)
    raise ValueError(f"no single {key!r} flag to flip")


def main() -> int:
    work = ROOT / ".bench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work, time.perf_counter() + 170)
        verify = runner.run(VERIFY).output
        construct = runner.run(CONSTRUCT).output
    finally:
        remove_work(work)
    if verify is None or construct is None:
        print("FAIL: the program wrote no output")
        return 1
    towers_margin = verify.index('"towers"')
    # The first digit after the first "[" of the section is in a vector's
    # first entry, not in a key (keys are sorted, so "lambda2" comes first).
    vectors = verify.index('"level1_vectors"')
    oracle_ok = json.dumps({"failures": [], "passes": ORACLE_TRIALS,
                            "trials": ORACLE_TRIALS})
    oracle_failed = json.dumps({"failures": [{"trial": 7}], "passes": ORACLE_TRIALS - 1,
                                "trials": ORACLE_TRIALS})
    cases = [
        # (description, check, returncode, stderr, output, should fail)
        ("real verify output", VERIFY.check, 0, "", verify, False),
        ("real construct output", CONSTRUCT.check, 0, "", construct, False),
        ("verify exit code 1 alone", VERIFY.check, 1, "", verify, False),
        ("verify 'passed' flipped", VERIFY.check, 1, "", flip(verify, "passed"), False),
        ("verify 'discrepancy_isolated' flipped", VERIFY.check, 0, "",
         flip(verify, "discrepancy_isolated"), False),
        ("one digit changed in a separation margin", VERIFY.check, 0, "",
         change_digit_after(verify, '"margin": "'), True),
        ("one digit changed in a tower margin", VERIFY.check, 0, "",
         verify[:towers_margin] + change_digit_after(verify[towers_margin:], '"margin": "'),
         True),
        ("one digit changed in a level-1 vector entry", VERIFY.check, 0, "",
         verify[:vectors] + change_digit_after(verify[vectors:], "["), True),
        ("one digit changed in the construct JSON", CONSTRUCT.check, 0, "",
         change_digit_after(construct, '"alpha"'), True),
        ("traceback on stderr", CONSTRUCT.check, 1, TRACEBACK, construct, True),
        ("exit code 2", CONSTRUCT.check, 2, "", construct, True),
        ("output that does not parse", VERIFY.check, 0, "", verify[:-100], True),
        ("no output", CONSTRUCT.check, 0, "", None, True),
        ("oracle with every trial passing", "oracle", 0, "", oracle_ok, False),
        ("oracle with a failed trial", "oracle", 1, "", oracle_failed, True),
    ]
    wrong = 0
    for description, check, code, stderr, text, should_fail in cases:
        failure = check_process(check, code, stderr, text, ORACLE_TRIALS)
        ok = (failure is not None) == should_fail
        wrong += not ok
        verdict = f"flagged: {failure}" if failure else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {description}: {verdict}")
    print(f"{len(cases) - wrong} of {len(cases)} expectations met")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
