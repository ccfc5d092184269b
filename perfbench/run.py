"""Benchmark of the ``fiet`` command line, end to end and per layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``verify``    ``fiet verify --mode relaxed --depth 8``, then
                ``fiet verify --mode strict --depth 5``
* ``construct`` ``fiet construct --mode relaxed --depth 6``
* ``simulate``  set-up ``fiet construct --mode relaxed --depth 3`` writes the
                length vector; operation ``fiet simulate --alpha <file>
                --horizons 15000,50000`` over the 8 midpoint starts
* ``oracle``    ``fiet oracle --trials 2500 --seed <seed>``

``construct`` is not in ``BENCHMARK.json``: its 5 s operations leave too few
per run for a steady figure on a shared host (see README.md).

Only ``oracle`` takes random input; the other three are the paper's fixed
instances, and ``--seed`` does not change them.

Every operation runs the program from ``src/`` as a fresh process, one at a
time, the way a user runs the ``fiet`` console script.  ``--trace 0``
repeats operations while one more fits in ``--seconds``, with the set-ups
spread among them, each process pinned to the CPU that is fastest at the
time, and reports each command's fastest wall and CPU time (summed over the
operation's commands), the median peak RSS and the median set-up time.
``--trace 1`` runs one untraced operation, one traced with ``trace_child.py``
(spans around the public functions of each module) and one under the
gcd-counting profiler, and reports the per-layer metrics.
Every output is checked against ``golden.json`` (see ``check.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from check import check_process, digest, orbit_steps  # noqa: E402

WORKLOADS = ("verify", "construct", "simulate", "oracle")
ORACLE_TRIALS = 2500
SETUP_REPEATS = 7
RUN_LIMIT_S = 170  # every process is killed before the run reaches this age
# What the ``fiet`` console script runs, plus a record of the process's peak
# RSS.  A reaped child's ``ru_maxrss`` is no use here: at exec the kernel
# folds the spawning harness's high-water mark into it.  ``VmHWM`` covers
# only the program's own address space.
FIET_MAIN = """\
import sys
peak_file = sys.argv.pop(1)
try:
    from fiet.cli import main
    code = main()
finally:
    with open("/proc/self/status") as status, open(peak_file, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""
IMPORT_PROBE = "import fiet.cli"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
LAYER_UNITS = {
    "induction.power.calls": "count",
    "induction.matmul.calls": "count",
    "induction.apply_path.calls": "count",
    "induction.apply_path.s": "s",
    "construction.theta_copy.calls": "count",
    "construction.theta_copy.s": "s",
    "construction.limit_vectors.self_s": "s",
    "construction.max_entry_bits": "bits",
    "construction.matrix_fidelity_report.s": "s",
    "verify.tower_vectors.s": "s",
    "verify.lemma_checks.s": "s",
    "verify.records": "count",
    "verify.max_den_bits": "bits",
    "fractions.gcd_calls": "count",
    "verify.birkhoff_frequencies.s": "s",
    "verify.orbit_steps": "count",
    "verify.orbit_steps_per_s": "1/s",
    "core.first_return.calls": "count",
    "core.first_return.s": "s",
    "core.first_return.inapplicable": "count",
    "induction.rauzy_step.calls": "count",
    "induction.rauzy_step.s": "s",
    "verify.oracle_crosscheck.self_s": "s",
    "verify.oracle_trials_per_s": "1/s",
    "verify.oracle_pass_ratio": "ratio",
    "serialize.s": "s",
    "serialize.bytes_out": "bytes",
    "serialize.max_int_digits": "digits",
    "serialize.int_max_str_digits": "digits",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
LEMMA_CHECKS = {f"verify.check_lemma{k}" for k in range(1, 5)} | {"verify.check_separation"}


@dataclass(frozen=True)
class Proc:
    """One ``fiet`` process: its arguments (without ``--out``) and its check."""

    name: str
    args: tuple[str, ...]
    check: str


def workload_procs(workload: str, seed: int, work: Path) -> tuple[list[Proc], list[Proc]]:
    """(set-up processes, operation processes) of a workload."""
    if workload == "verify":
        return [], [
            Proc("verify-relaxed-8", ("verify", "--mode", "relaxed", "--depth", "8"),
                 "verify relaxed 8"),
            Proc("verify-strict-5", ("verify", "--mode", "strict", "--depth", "5"),
                 "verify strict 5"),
        ]
    if workload == "construct":
        return [], [Proc("construct-6", ("construct", "--mode", "relaxed", "--depth", "6"),
                         "construct relaxed 6")]
    if workload == "simulate":
        alpha = str(work / "alpha.out")
        return (
            [Proc("alpha", ("construct", "--mode", "relaxed", "--depth", "3"),
                  "construct relaxed 3")],
            [Proc("simulate", ("simulate", "--alpha", alpha,
                               "--horizons", "15000,50000"), "simulate")],
        )
    if workload == "oracle":
        return [], [Proc("oracle", ("oracle", "--trials", str(ORACLE_TRIALS),
                                    "--seed", str(seed)), "oracle")]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Finished:
    """A finished process: its resource use, and why it failed (or None)."""

    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    output: Optional[str]
    failure: Optional[str]


def cpu_probe() -> float:
    """Seconds for a fixed bit of Fraction arithmetic, about 2 ms on a free core."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    return time.perf_counter() - start


class Runner:
    """Spawns the program's processes one at a time inside a work directory."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin_to_fastest_cpu(self) -> None:
        """Pin this process, and so the next child, to the CPU that runs a probe fastest.

        The host's CPUs slow down under other tenants' load independently
        of each other, for seconds at a time; a 2 ms probe on each picks
        the one that is uncontended now.
        """
        if len(self.cpus) < 2:
            return
        fastest = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            fastest[cpu] = min(cpu_probe() for _ in range(3))
        os.sched_setaffinity(0, {min(fastest, key=fastest.get)})

    def spawn(self, argv: list[str]) -> tuple[float, float, int, str]:
        """Run argv to completion: (wall s, cpu s, exit code, stderr).

        One child runs at a time, so the change in the reaped children's
        rusage is this process's CPU time.
        """
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return 0.0, 0.0, -1, "run time limit reached before start"
        self.pin_to_fastest_cpu()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            done = subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, cwd=ROOT, env=self.env,
                                  timeout=timeout)
            code, stderr = done.returncode, done.stderr
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            code, stderr = -signal.SIGKILL, (exc.stderr or b"") + b"\nkilled at the run time limit"
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        return wall, cpu, code, stderr.decode("utf-8", errors="replace")

    def run(self, p: Proc, mode: Optional[str] = None) -> Finished:
        """Run one fiet process, untraced or under trace_child.py ``mode``."""
        out = self.work / f"{p.name}.out"
        out.unlink(missing_ok=True)
        args = [*p.args, "--out", str(out)]
        peak = self.work / "peak_rss.txt"
        peak.unlink(missing_ok=True)
        if mode is None:
            argv = [sys.executable, "-c", FIET_MAIN, str(peak), *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), mode,
                    str(self.trace_file(p, mode)), "--", *args]
        wall, cpu, code, stderr = self.spawn(argv)
        text = out.read_text(encoding="utf-8") if out.exists() else None
        failure = check_process(p.check, code, stderr, text, ORACLE_TRIALS)
        rss_mib = int(peak.read_text().split()[1]) / 1024.0 if peak.exists() else 0.0
        return Finished(wall, cpu, rss_mib, text, failure)

    def trace_file(self, p: Proc, mode: str) -> Path:
        return self.work / f"{p.name}.{mode}.json"

    def import_probe(self) -> float:
        wall, _, code, stderr = self.spawn([sys.executable, "-c", IMPORT_PROBE])
        if code != 0:
            raise RuntimeError(f"cannot import fiet from {SRC}: {stderr.strip()}")
        return wall


def report_failure(what: str, failure: str) -> None:
    sys.stderr.write(f"FAILED {what}: {failure}\n")


def setup_once(runner: Runner, setup: list[Proc]) -> tuple[float, int]:
    """One set-up: the set-up processes, or loading the program if there are none."""
    if not setup:
        return runner.import_probe(), 0
    wall, failed = 0.0, 0
    for p in setup:
        done = runner.run(p)
        wall += done.wall_s
        if done.failure:
            report_failure(f"set-up {p.name}", done.failure)
            failed += 1
    return wall, failed


def run_operation(runner: Runner, op: list[Proc], mode: Optional[str] = None) -> list[Finished]:
    """One operation: its processes in order."""
    return [runner.run(p, mode) for p in op]


def failure_of(op: list[Proc], done: list[Finished]) -> Optional[str]:
    return "; ".join(f"{p.name}: {d.failure}" for p, d in zip(op, done) if d.failure) or None


def measure(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: operations for ``seconds``, with the set-ups spread among them.

    An operation starts only if one more fits in the window, judged by the
    slowest so far (at least one operation always runs).  Set-up ``k`` runs
    once ``k / SETUP_REPEATS`` of the window has passed, or at the end if
    the operations took the whole window.

    Each of the host's CPUs alternates between a fast state and a state
    about twice as slow, each lasting seconds to a minute, so the median and
    the mean of a run follow how long the slow state lasted.  ``wall_s`` and
    ``cpu_s`` are therefore the sum, over the operation's commands, of each
    command's fastest time in the run: the cost on an uncontended core,
    which ``Runner.pin_to_fastest_cpu`` makes more runs reach.
    """
    setup, op = workload_procs(workload, seed, runner.work)
    setup_times: list[float] = []
    setup_failed = 0
    ops: list[list[Finished]] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        fits = not ops or elapsed + max(sum(d.wall_s for d in done) for done in ops) <= seconds
        due = len(setup_times) < SETUP_REPEATS and (
            not fits or elapsed >= len(setup_times) * seconds / SETUP_REPEATS)
        if due:
            wall, failed = setup_once(runner, setup)
            setup_times.append(wall)
            setup_failed += failed
        elif fits:
            done = run_operation(runner, op)
            if failure_of(op, done):
                report_failure(f"{workload} operation {len(ops) + 1}", failure_of(op, done))
            ops.append(done)
        else:
            break
    failed = sum(1 for done in ops if failure_of(op, done))
    values = {
        "wall_s": sum(min(done[i].wall_s for done in ops) for i in range(len(op))),
        "cpu_s": sum(min(done[i].cpu_s for done in ops) for i in range(len(op))),
        "peak_rss_mib": statistics.median(max(d.peak_rss_mib for d in done) for done in ops),
        "setup_s": statistics.median(setup_times),
    }
    walls = sorted(sum(d.wall_s for d in done) for done in ops)
    print(f"  {len(ops)} operations and {len(setup_times)} set-ups in "
          f"{time.perf_counter() - start:.1f} s; operation wall min {walls[0]:.4f} "
          f"median {statistics.median(walls):.4f} max {walls[-1]:.4f} s")
    for name, value in values.items():
        print(f"  {name:<14} {value:.6f} {END_TO_END_UNITS[name]}")
    print(f"  {'error_rate':<14} {failed / len(ops):.6f}  ({failed} of {len(ops)} "
          f"operations failed)")
    return {
        "correct": failed == 0 and setup_failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in values.items()},
    }


class SpanFile:
    """The spans one traced process wrote, with nesting resolved."""

    def __init__(self, path: Path) -> None:
        data = json.loads(path.read_text(encoding="utf-8"))
        self.names: list[str] = data["names"]
        self.spans: list = data["spans"]
        self.children_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self.children_s[parent] += end - start

    def named(self, names: set[str]):
        return [s for s in self.spans if self.names[s[0]] in names]

    def calls(self, name: str) -> int:
        return len(self.named({name}))

    def covered_s(self, names: set[str]) -> float:
        """Time inside spans of ``names``, nested ones counted once."""
        inside = [False] * len(self.spans)
        total = 0.0
        for i, (name_id, start, end, parent, _) in enumerate(self.spans):
            outer = parent >= 0 and inside[parent]
            inside[i] = outer or self.names[name_id] in names
            if self.names[name_id] in names and not outer:
                total += end - start
        return total

    def self_s(self, name: str) -> float:
        return sum((end - start - self.children_s[i]
                    for i, (name_id, start, end, _, _) in enumerate(self.spans)
                    if self.names[name_id] == name), 0.0)

    def extras(self, name: str) -> list:
        return [s[4] for s in self.named({name}) if isinstance(s[4], int)]


def layer_metrics(spans: list[SpanFile], gcd_calls: int, outputs: list[tuple[str, str]],
                  int_limit: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from the spans, the gcd count and the (check, output) pairs."""
    def calls(name):
        return sum(f.calls(name) for f in spans)

    def covered(*names):
        return sum(f.covered_s(set(names)) for f in spans)

    def self_s(name):
        return sum(f.self_s(name) for f in spans)

    def extras(name):
        return [x for f in spans for x in f.extras(name)]

    def ratio(num, den):
        return num / den if den else 0.0

    serialize_names = {n for f in spans for n in f.names if n.startswith("serialize.")}
    steps = sum(orbit_steps(text) for check, text in outputs if check == "simulate")
    oracle = [json.loads(text) for check, text in outputs if check == "oracle"]
    trials = sum(o["trials"] for o in oracle)
    birkhoff_s = covered("verify.birkhoff_frequencies")
    oracle_s = covered("verify.oracle_crosscheck")
    inapplicable = sum(1 for f in spans for s in f.named({"core.first_return"})
                       if s[4] == "OracleInapplicable")
    values = {
        "induction.power.calls": calls("induction.power"),
        "induction.matmul.calls": calls("induction.matmul"),
        "induction.apply_path.calls": calls("induction.apply_path"),
        "induction.apply_path.s": covered("induction.apply_path"),
        "construction.theta_copy.calls": calls("construction.theta_copy"),
        "construction.theta_copy.s": covered("construction.theta_copy"),
        "construction.limit_vectors.self_s": self_s("construction.limit_vectors"),
        "construction.max_entry_bits": max(extras("induction.matmul"), default=0),
        "construction.matrix_fidelity_report.s":
            covered("construction.matrix_fidelity_report"),
        "verify.tower_vectors.s": covered("verify.tower_vectors"),
        "verify.lemma_checks.s": covered(*LEMMA_CHECKS),
        "verify.records": sum(x for name in LEMMA_CHECKS for x in extras(name)),
        "verify.max_den_bits": max(extras("verify.tower_vectors"), default=0),
        "fractions.gcd_calls": gcd_calls,
        "verify.birkhoff_frequencies.s": birkhoff_s,
        "verify.orbit_steps": steps,
        "verify.orbit_steps_per_s": ratio(steps, birkhoff_s),
        "core.first_return.calls": calls("core.first_return"),
        "core.first_return.s": covered("core.first_return"),
        "core.first_return.inapplicable": inapplicable,
        "induction.rauzy_step.calls": calls("induction.rauzy_step"),
        "induction.rauzy_step.s": covered("induction.rauzy_step"),
        "verify.oracle_crosscheck.self_s": self_s("verify.oracle_crosscheck"),
        "verify.oracle_trials_per_s": ratio(trials, oracle_s),
        "verify.oracle_pass_ratio": ratio(sum(o["passes"] for o in oracle), trials),
        "serialize.s": covered(*serialize_names),
        "serialize.bytes_out": sum(len(text.encode("utf-8")) for _, text in outputs),
        "serialize.max_int_digits": max(
            (len(m) for _, text in outputs for m in re.findall(r"\d+", text)),
            default=0),
        "serialize.int_max_str_digits": int_limit,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return {name: {"value": value, "unit": LAYER_UNITS[name]}
            for name, value in values.items()}


def trace(runner: Runner, workload: str, seed: int) -> dict:
    """Traced run: one untraced, one traced and one gcd-counted operation.

    The per-layer metrics cover every traced process: the operation's and,
    for ``simulate``, the set-up's too, so the construction layers show.
    ``trace.wall_s`` and ``trace.overhead_s`` are the operation's alone.
    """
    setup, op = workload_procs(workload, seed, runner.work)
    traced_setup = [runner.run(p, "spans") for p in setup]
    counted_setup = [runner.run(p, "gcd") for p in setup]
    untraced = run_operation(runner, op)
    traced_op = run_operation(runner, op, "spans")
    counted = run_operation(runner, op, "gcd")

    setup_failures = [d.failure for d in traced_setup + counted_setup if d.failure]
    for failure in setup_failures:
        report_failure(f"{workload} set-up", failure)
    failed = 0
    for label, done in (("untraced", untraced), ("traced", traced_op),
                        ("gcd-counted", counted)):
        failure = failure_of(op, done)
        if failure:
            report_failure(f"{workload} {label} operation", failure)
            failed += 1

    procs = setup + op
    traced = traced_setup + traced_op
    spans = [SpanFile(runner.trace_file(p, "spans")) for p in procs]
    gcd = [json.loads(runner.trace_file(p, "gcd").read_text()) for p in procs]
    traced_wall = sum(d.wall_s for d in traced_op)
    metrics = layer_metrics(
        spans, sum(g["gcd_calls"] for g in gcd),
        [(p.check, d.output or "") for p, d in zip(procs, traced)],
        min(g["int_max_str_digits"] for g in gcd), traced_wall,
        sum(d.wall_s for d in untraced))
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']} {m['unit']}")
    return {
        "correct": failed == 0 and not setup_failures,
        "attempted": 3,
        "failed": failed,
        "metrics": metrics,
    }


def environment() -> dict:
    """Interpreter, limits, processors and the source under test."""
    sources = hashlib.sha256()
    for path in sorted((SRC / "fiet").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "nproc": len(os.sched_getaffinity(0)),
        "fiet_commit": commit,
        "fiet_sources_sha256": sources.hexdigest(),
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work, time.perf_counter() + RUN_LIMIT_S)
        runner.import_probe()  # warm-up: bytecode and file cache, before any timing
        print(f"{workload} (seed {seed}, {'traced' if traced else f'{seconds:g} s'}):")
        if traced:
            return trace(runner, workload, seed)
        return measure(runner, workload, seed, seconds)
    finally:
        remove_work(work)


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def golden_digests() -> dict:
    """Digests of the current program's outputs, keyed as in golden.json."""
    work = ROOT / ".bench_work" / f"golden-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work, time.perf_counter() + 600)
        procs = [p for w in ("verify", "construct", "simulate")
                 for group in workload_procs(w, 0, work) for p in group]
        return {p.check: digest(p.check, runner.run(p).output or "") for p in procs}
    finally:
        remove_work(work)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "fiet" / "cli.py").is_file():
        sys.stderr.write(f"fiet sources not found under {SRC}; run from a checkout\n")
        return 1
    print("# env " + json.dumps(environment(), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in names}
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
