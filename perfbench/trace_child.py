"""Run one ``fiet`` command in this process with tracing, for the traced run.

Usage::

    python3 perfbench/trace_child.py spans OUT.json -- <fiet arguments>
    python3 perfbench/trace_child.py gcd   OUT.json -- <fiet arguments>

``spans`` wraps the public functions the per-layer metrics name at every
module that imported them by name (``fiet.construction.apply_path``,
``fiet.verify.theta_copy``, ``fiet.cli.limit_vectors``, ...), plus
``TransitionMatrix.__matmul__`` and ``TransitionMatrix.power`` on the class,
then calls ``fiet.cli.main``.  Each call becomes a span
``[name, start, end, parent, extra]`` held in memory and written to OUT.json
when the command ends; ``parent`` is the index of the innermost enclosing
span (-1 at top level) and ``extra`` a size counter read from the result.

``gcd`` instead counts the ``math.gcd`` calls made by ``fractions`` under
``sys.setprofile``.  The profiler slows every call, so that pass reports
the count only, never a time.

The exit code is the command's.  The interpreter's integer-string limit is
left as it is, and reported in OUT.json.
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Callable, Optional

# Wrapped module functions: (module, function, span name).
TRACED_FUNCTIONS = (
    ("fiet.core", "first_return", "core.first_return"),
    ("fiet.induction", "rauzy_step", "induction.rauzy_step"),
    ("fiet.induction", "apply_path", "induction.apply_path"),
    ("fiet.construction", "theta_copy", "construction.theta_copy"),
    ("fiet.construction", "limit_vectors", "construction.limit_vectors"),
    ("fiet.construction", "matrix_fidelity_report",
     "construction.matrix_fidelity_report"),
    ("fiet.verify", "tower_vectors", "verify.tower_vectors"),
    ("fiet.verify", "check_lemma1", "verify.check_lemma1"),
    ("fiet.verify", "check_lemma2", "verify.check_lemma2"),
    ("fiet.verify", "check_lemma3", "verify.check_lemma3"),
    ("fiet.verify", "check_lemma4", "verify.check_lemma4"),
    ("fiet.verify", "check_separation", "verify.check_separation"),
    ("fiet.verify", "birkhoff_frequencies", "verify.birkhoff_frequencies"),
    ("fiet.verify", "oracle_crosscheck", "verify.oracle_crosscheck"),
    ("fiet.serialize", "limit_report_to_dict", "serialize.limit_report_to_dict"),
    ("fiet.serialize", "verify_report_to_dict", "serialize.verify_report_to_dict"),
    ("fiet.serialize", "frequency_report_csv", "serialize.frequency_report_csv"),
    ("fiet.serialize", "fiet_to_dict", "serialize.fiet_to_dict"),
    ("fiet.serialize", "schedule_to_dict", "serialize.schedule_to_dict"),
    ("fiet.serialize", "dump_json", "serialize.dump_json"),
)


def _max_den_bits(levels, parent_name) -> int:
    return max(q.denominator.bit_length() for vec in levels.values() for q in vec)


def _record_count(records, parent_name) -> int:
    return len(records)


def _block_entry_bits(matrix, parent_name) -> Optional[int]:
    # Block products are the matrices multiplied directly inside limit_vectors.
    if parent_name != "construction.limit_vectors":
        return None
    return max(e.bit_length() for row in matrix.rows for e in row)


EXTRAS: dict[str, Callable] = {
    "verify.tower_vectors": _max_den_bits,
    "verify.check_lemma1": _record_count,
    "verify.check_lemma2": _record_count,
    "verify.check_lemma3": _record_count,
    "verify.check_lemma4": _record_count,
    "verify.check_separation": _record_count,
    "induction.matmul": _block_entry_bits,
}


class Tracer:
    """Span recorder: wrapped calls append spans, nesting kept on a stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        extra_fn = EXTRAS.get(name)
        spans, stack, names = self.spans, self.stack, self.names
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name_id, 0.0, 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if extra_fn is not None:
                parent_name = names[spans[parent][0]] if parent >= 0 else None
                span[4] = extra_fn(result, parent_name)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each module that holds it by name."""
        import fiet.cli  # noqa: F401 - loads every fiet module
        from fiet.induction import TransitionMatrix

        modules = [m for k, m in sys.modules.items()
                   if k == "fiet" or k.startswith("fiet.")]
        for module_name, attr, span_name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        TransitionMatrix.__matmul__ = self.wrap(
            "induction.matmul", TransitionMatrix.__matmul__)
        TransitionMatrix.power = self.wrap("induction.power", TransitionMatrix.power)


def _run_cli(argv: list[str]) -> int:
    from fiet.cli import main

    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def main(args: list[str]) -> int:
    mode, out_path, sep, *argv = args
    if mode not in ("spans", "gcd") or sep != "--":
        sys.stderr.write(__doc__)
        return 2
    result = {"int_max_str_digits": sys.get_int_max_str_digits()}
    if mode == "spans":
        tracer = Tracer()
        tracer.install()
        try:
            code = _run_cli(argv)
        finally:
            result.update(names=tracer.names, spans=tracer.spans)
            _write(out_path, result)
        return code

    import fiet.cli  # noqa: F401 - imported before counting starts

    gcd = math.gcd
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and arg is gcd \
                and frame.f_globals.get("__name__") == "fractions":
            count += 1

    sys.setprofile(profile)
    try:
        code = _run_cli(argv)
    finally:
        sys.setprofile(None)
        result["gcd_calls"] = count
        _write(out_path, result)
    return code


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
