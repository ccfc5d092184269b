"""Command-line interface.

Subcommands:

* ``step``      one induction step on an FIET (length-driven) or on
                combinatorics alone (``--letter``)
* ``path``      thread a letter word or the parameterized construction path
* ``construct`` limit length vectors and contraction diameter after m blocks
* ``verify``    the full inequality/separation/matrix verification pipeline
* ``simulate``  exact Birkhoff visit frequencies of the constructed map
* ``oracle``    randomized cross-check of induction against first returns

Exit codes: 0 success, 1 a verification failed or the induction step is
undefined, 2 usage, input or output errors.  All outputs are byte-reproducible:
sorted JSON keys, exact rationals as "num/den", no timestamps.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction
from typing import Iterator, Optional, TextIO

from . import serialize
from .construction import (
    FAMILIES,
    NAMED_SCHEDULES,
    RULES,
    ParameterSchedule,
    PathParameters,
    ResourceLimitError,
    base_datum,
    build_path,
    limit_vectors,
)
from .core import Fiet, FietError, replace
from .induction import (
    KeaneViolation,
    RauzyPath,
    apply_path,
    apply_step,
    rauzy_step,
    symbolic_step,
)
from .verify import (
    _check_b,
    _check_c,
    birkhoff_frequencies,
    midpoint_starts,
    oracle_crosscheck,
    verify_all,
)


class UsageError(Exception):
    """Bad input or flag combination; reported on stderr with exit code 2."""


@contextmanager
def _bad_input(what: str):
    """Report a failed conversion of user input as a usage error.

    Wrap only the parsing and validation of flags and input files, so that a
    fault in a computation still surfaces as a traceback.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers bad JSON and bytes that are not UTF-8; RecursionError
    # is how the decoder reports nesting too deep to parse.
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}") from exc


@contextmanager
def _output(dest: Optional[str]) -> Iterator[TextIO]:
    """The stream a command writes its output to: the ``--out`` file or stdout.

    Enter it once the output is computed, so that a run whose computation
    fails leaves no file behind.  A file is written under a temporary name
    beside it and renamed onto it only once complete, so a failed write
    leaves the destination as it was.  An ``OSError`` on opening, writing or
    closing becomes a usage error that names the destination and the
    error's reason.  A stdout closed by its reader is pointed at the null
    device, so the interpreter's final flush has nowhere to fail.
    """
    to_stdout = dest is None or dest == "-"
    try:
        if to_stdout:
            if sys.stdout is None:
                raise OSError("standard output is closed")
            yield sys.stdout
            sys.stdout.flush()
        elif not os.path.basename(dest) or (os.path.exists(dest)
                                            and not os.path.isfile(dest)):
            # A device or a pipe, such as /dev/null, cannot be replaced, and
            # a name ending in a separator names no file.
            with open(dest, "w", encoding="utf-8") as fh:
                yield fh
        else:
            target = os.path.realpath(dest)
            head, name = os.path.split(target)
            tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
            fh = open(tmp, "x", encoding="utf-8")
            try:
                with fh:
                    if os.path.exists(target):
                        shutil.copymode(target, tmp)
                    yield fh
                os.replace(tmp, target)
            except BaseException:
                with suppress(OSError):
                    os.remove(tmp)
                raise
    except OSError as exc:
        if to_stdout and isinstance(exc, BrokenPipeError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        # The error's own text may name the temporary file, whose name holds
        # the process id, so only its reason is given.
        raise UsageError(f"cannot write {'stdout' if to_stdout else dest}: "
                         f"{exc.strerror or exc}") from exc


def _schedule_from_args(args) -> ParameterSchedule:
    if args.depth < 1:
        raise UsageError("--depth must be >= 1")
    if args.config:
        data = _read_json(args.config)
        with _bad_input("bad schedule config"):
            schedule = serialize.schedule_from_dict(data)
    else:
        schedule = serialize.named_schedule(args.mode)
    overrides = {"d": args.d, "p1_1": args.p1,
                 "p4_rule": args.p4_rule, "p5_rule": args.p5_rule}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        with _bad_input("bad schedule override"):
            schedule = replace(schedule, **overrides, mode="custom")
    return schedule


def _params_from_string(s: str) -> PathParameters:
    with _bad_input(f"bad parameter list {s!r}"):
        parts = [int(v) for v in s.split(",")]
        if len(parts) != 5:
            raise UsageError("expected five comma-separated parameters p1,p2,p3,p4,p5")
        return PathParameters(*parts)


def _cmd_step(args) -> int:
    data = _read_json(args.input)
    with _bad_input("bad FIET data"):
        f = serialize.fiet_from_dict(data) if "lengths" in data else None
        comb = f.comb if f is not None else serialize.comb_from_dict(data)

    if f is None and not args.letter:
        raise UsageError("input has no lengths; --letter is required")

    if args.letter:
        out = symbolic_step(comb, args.letter)
        payload = serialize.step_outcome_to_dict(out)
        if f is not None:
            try:
                f2 = apply_step(f, out)
            except ValueError:
                raise UsageError(
                    "letter contradicts the lengths: winner is not longer"
                ) from None
            payload["lengths"] = serialize.vector_to_strs(f2.lengths)
    else:
        f2, out = rauzy_step(f)
        payload = serialize.step_outcome_to_dict(out)
        payload["lengths"] = serialize.vector_to_strs(f2.lengths)
    with _output(args.out) as fh:
        serialize.dump_json(payload, fh)
    return 0


def _cmd_path(args) -> int:
    if (args.word is None) == (args.params is None):
        raise UsageError("exactly one of --word or --params is required")
    if args.input:
        data = _read_json(args.input)
        with _bad_input("bad combinatorics data"):
            comb = serialize.comb_from_dict(data)
    else:
        comb = base_datum()
    if args.word is not None:
        if set(args.word) - {"a", "b"}:
            raise UsageError("--word must use only letters 'a' and 'b'")
        path = RauzyPath.from_word(args.word)
    else:
        path = build_path(_params_from_string(args.params))
    if args.power < 1:
        raise UsageError("--power must be >= 1")
    with _bad_input("bad --power"):
        repeated = path.repeat(args.power)
    end, matrix = apply_path(comb, repeated)
    payload = {
        "start": serialize.comb_to_dict(comb),
        "combinatorics": serialize.comb_to_dict(end),
        "matrix": serialize.matrix_to_lists(matrix),
        "path_length": path.length * args.power,
        "power": args.power,
    }
    if args.induced:
        with _bad_input("bad --induced list"):
            labels = [int(v) for v in args.induced.split(",")]
            pi0r, pi1r = end.restrict(labels)
        payload["induced"] = {
            "labels": sorted(set(labels)),
            "pi0": list(pi0r),
            "pi1": list(pi1r),
        }
    with _output(args.out) as fh:
        serialize.dump_json(payload, fh)
    return 0


def _check_precision(args) -> None:
    if args.precision < 1:
        raise UsageError("--precision must be >= 1")


def _cmd_construct(args) -> int:
    _check_precision(args)
    schedule = _schedule_from_args(args)
    try:
        report = limit_vectors(schedule, args.depth, family=args.family)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        if exc.partial is not None:
            payload = serialize.limit_report_to_dict(exc.partial, args.precision)
            payload["partial"] = True
            with _output(args.out) as fh:
                serialize.dump_json(payload, fh)
        return 1
    payload = serialize.limit_report_to_dict(report, args.precision)
    payload["schedule"] = serialize.schedule_to_dict(schedule)
    with _output(args.out) as fh:
        serialize.dump_json(payload, fh)
    return 0


def _cmd_verify(args) -> int:
    schedule = _schedule_from_args(args)
    # A bad --c or --b is rejected before any tower is built.
    with _bad_input("bad --c or --b"):
        _check_c(args.c)
        _check_b(args.b)
    report = verify_all(
        schedule,
        args.depth,
        c=args.c,
        b=args.b,
        family=args.family,
        include_matrix_report=not args.no_matrix_report,
    )
    # Every verdict is decided by now.  The payload keeps the records
    # themselves, and dump_json builds each tower level's records as it
    # writes the level.
    payload = serialize.verify_report_to_dict(report)
    with _output(args.out) as fh:
        serialize.dump_json(payload, fh)
    if not report["passed"]:
        sys.stderr.write(
            f"verification FAILED: {len(report['records_failing'])} record(s) failing\n"
        )
        return 1
    return 0


def _cmd_simulate(args) -> int:
    _check_precision(args)
    if args.alpha:
        data = _read_json(args.alpha)
        with _bad_input("--alpha file must be construct output with alpha.exact"):
            f = Fiet(base_datum(), tuple(
                serialize.parse_fraction(s) for s in data["alpha"]["exact"]))
    else:
        schedule = _schedule_from_args(args)
        f = Fiet(base_datum(),
                 limit_vectors(schedule, args.depth, family=args.family).alpha)
    if args.starts == "midpoints":
        starts = midpoint_starts(f)
    else:
        with _bad_input("bad --starts list"):
            starts = tuple(Fraction(s) for s in args.starts.split(","))
    with _bad_input("bad --horizons list"):
        horizons = tuple(int(h) for h in args.horizons.split(","))
    # birkhoff_frequencies is where a start outside the interval or a
    # non-positive horizon is rejected, so the orbit walk is inside the boundary.
    try:
        with _bad_input("bad --starts or --horizons"):
            report = birkhoff_frequencies(f, starts, horizons)
    except ResourceLimitError as exc:  # a horizon whose max_gap grid is too large
        raise UsageError(f"resource limit: {exc}") from exc
    text = serialize.frequency_report_csv(report, args.precision)
    with _output(args.out) as fh:
        fh.write(text)
    return 0


def _cmd_oracle(args) -> int:
    if args.trials < 0:
        raise UsageError("--trials must be >= 0")
    if args.seed < 0:  # random.Random(-n) draws what Random(n) does
        raise UsageError("--seed must be >= 0")
    summary = oracle_crosscheck(args.trials, args.seed)
    payload = {
        "trials": summary["trials"],
        "passes": summary["passes"],
        "failures": [
            {
                "trial": item["trial"],
                "fiet": serialize.fiet_to_dict(item["fiet"]),
                "detail": item.get("error", "step/return mismatch"),
            }
            for item in summary["failures"]
        ],
    }
    with _output(args.out) as fh:
        serialize.dump_json(payload, fh)
    return 0 if not summary["failures"] else 1


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=tuple(NAMED_SCHEDULES), default="relaxed",
                   help="named parameter schedule (default: relaxed)")
    p.add_argument("--config", help="JSON schedule file overriding --mode")
    p.add_argument("--depth", type=int, default=3,
                   help="number of three-copy blocks (default: 3)")
    p.add_argument("--family", choices=tuple(FAMILIES),
                   help="matrix family (defaults: construct/simulate computed, "
                        "verify reference)")
    p.add_argument("--d", type=int, help="override the growth ratio d")
    p.add_argument("--p1", type=int, help="override the copy-1 parameter p1")
    p.add_argument("--p4-rule", dest="p4_rule", choices=RULES,
                   help="which parameter the p4 run copies")
    p.add_argument("--p5-rule", dest="p5_rule", choices=RULES,
                   help="which parameter the p5 run copies")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiet",
        description="Exact interval exchanges with flips: induction, "
                    "construction, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("step", help="one induction step on an FIET")
    p.add_argument("--in", dest="input", default="-",
                   help="FIET JSON file ('-' for stdin, default)")
    p.add_argument("--letter", choices=("a", "b"),
                   help="force this step type instead of comparing lengths")
    p.set_defaults(func=_cmd_step)

    p = sub.add_parser("path", help="thread a letter word through combinatorics")
    p.add_argument("--in", dest="input",
                   help="combinatorics JSON (default: the 8-interval datum)")
    p.add_argument("--word", help="explicit letter word, e.g. 'aaab'")
    p.add_argument("--params",
                   help="p1,p2,p3,p4,p5 for the parameterized construction path")
    p.add_argument("--power", type=int, default=1,
                   help="apply the path this many times (default 1)")
    p.add_argument("--induced",
                   help="comma-separated labels: also report both rows "
                        "restricted to these labels")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("construct", help="limit length vectors after m blocks")
    _add_schedule_flags(p)
    p.add_argument("--precision", type=int, default=12,
                   help="decimal digits in the report (default 12)")
    p.set_defaults(func=_cmd_construct, family="computed")

    p = sub.add_parser("verify", help="run the full verification pipeline")
    _add_schedule_flags(p)
    p.add_argument("--c", type=int, default=11,
                   help="domination constant for the lambda2 tower (default 11)")
    p.add_argument("--b", type=int, default=34,
                   help="denominator bound for the lambda2 tower (default 34)")
    p.add_argument("--no-matrix-report", action="store_true",
                   help="skip the matrix fidelity section")
    p.set_defaults(func=_cmd_verify, family="reference")

    p = sub.add_parser("simulate", help="exact Birkhoff frequencies of the map")
    _add_schedule_flags(p)
    p.add_argument("--alpha",
                   help="construct output JSON supplying the length vector "
                        "(skips rebuilding it)")
    p.add_argument("--starts", default="midpoints",
                   help="'midpoints' or comma-separated rationals (default: "
                        "midpoints)")
    p.add_argument("--horizons", default="100000",
                   help="comma-separated orbit lengths (default: 100000)")
    p.add_argument("--precision", type=int, default=12,
                   help="decimal digits in the CSV (default 12)")
    p.set_defaults(func=_cmd_simulate, family="computed")

    p = sub.add_parser("oracle", help="randomized induction/first-return crosscheck")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0,
                   help="non-negative seed of the random maps (default 0)")
    p.set_defaults(func=_cmd_oracle)

    for p in sub.choices.values():
        p.add_argument("--out", help="output file (default: stdout)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except KeaneViolation as exc:
        sys.stderr.write(f"induction undefined: {exc}\n")
        return 1
    except FietError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
