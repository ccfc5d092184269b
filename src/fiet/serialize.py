"""Stable exact-rational serialization for files, pipes, and reports.

Rationals are rendered "num/den" (always with the denominator, so round
trips are unambiguous); decimals are a fixed-precision rendering for human
readers only and never parsed back.  One writer, :func:`dump_json`, lays
out every command's JSON as ``json.dumps(indent=2, sort_keys=True)`` does,
writes integers of any size, refuses floats and carries no timestamps, so
identical inputs produce identical bytes.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional, Sequence, TextIO

from .core import Fiet, FietCombinatorics, exact_int
from .construction import NAMED_SCHEDULES, LimitReport, ParameterSchedule
from .induction import StepOutcome, TransitionMatrix
from .orbits import FrequencyReport
from .verify import InequalityRecord, LevelRecords


# The interpreter's int/str conversion digit limit; 0 means none.  Python
# releases before 3.10.7 have no limit and no getter.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def int_to_str(n: int) -> str:
    """Decimal text of an integer of any size.

    Integers over the interpreter's digit limit are split on a power of ten
    and converted half by half; the limit itself is never changed.
    """
    limit = _max_str_digits()
    # b bits give at most 0.302*b + 1 digits, so 3*limit bits stay in the limit.
    if not limit or n.bit_length() <= 3 * limit:
        return str(n)
    if n < 0:
        return "-" + int_to_str(-n)
    k = n.bit_length() * 3 // 20  # about half the decimal digits
    hi, lo = divmod(n, 10**k)
    return int_to_str(hi) + int_to_str(lo).rjust(k, "0")


def str_to_int(s: str) -> int:
    """Parse decimal text of any length, the inverse of :func:`int_to_str`."""
    limit = _max_str_digits()
    if not limit or len(s) <= limit:
        return int(s)
    s = s.strip()
    if s[:1] in ("+", "-"):
        magnitude = str_to_int(s[1:])
        return -magnitude if s[0] == "-" else magnitude
    k = len(s) // 2
    return str_to_int(s[:-k]) * 10**k + str_to_int(s[-k:])


_NO_TWINS = (None, None)


def _digits(n: int, twin) -> str:
    """Decimal text of n: its twin's, if it has one, else :func:`int_to_str`'s."""
    return int_to_str(n) if twin is None else str(twin)


def format_fraction(q: Fraction) -> str:
    """The text "num/den" of q; a :class:`~fiet.twins.TwinFraction` gives
    its twins' digits."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    num, den = map(_digits, (q.numerator, q.denominator),
                   getattr(q, "twins", _NO_TWINS))
    return f"{num}/{den}"


def parse_fraction(s: str) -> Fraction:
    if not isinstance(s, str):
        raise TypeError(f'expected an exact "num/den" string, got {s!r}')
    limit = _max_str_digits()
    if not limit or len(s) <= limit:
        return Fraction(s)
    num, _, den = s.partition("/")
    return Fraction(str_to_int(num), str_to_int(den) if den else 1)


def fraction_to_decimal(q: Fraction, precision: int = 12) -> str:
    """Fixed-point decimal rendering, round-half-up, deterministic."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = (q.numerator * 10**precision * 2 + q.denominator) // (2 * q.denominator)
    digits = int_to_str(scaled).rjust(precision + 1, "0")
    return f"{sign}{digits[:-precision]}.{digits[-precision:]}"


def vector_to_strs(vec: Sequence) -> list[str]:
    return [format_fraction(v) for v in vec]


def comb_to_dict(c: FietCombinatorics) -> dict:
    return {
        "n": c.n,
        "pi0": list(c.pi0),
        "pi1": list(c.pi1),
        "flips": sorted(c.flips),
    }


def comb_from_dict(d: dict) -> FietCombinatorics:
    return FietCombinatorics(
        exact_int(d["n"], "n"),
        tuple(exact_int(v, "pi0 entry") for v in d["pi0"]),
        tuple(exact_int(v, "pi1 entry") for v in d["pi1"]),
        frozenset(exact_int(v, "flips entry") for v in d.get("flips", ())),
    )


def fiet_to_dict(f: Fiet) -> dict:
    out = comb_to_dict(f.comb)
    out["lengths"] = vector_to_strs(f.lengths)
    return out


def fiet_from_dict(d: dict) -> Fiet:
    if "lengths" not in d:
        raise ValueError("FIET data must include 'lengths'")
    return Fiet(comb_from_dict(d), tuple(parse_fraction(s) for s in d["lengths"]))


def matrix_to_lists(m: TransitionMatrix) -> list[list[int]]:
    return [list(row) for row in m.rows]


def step_outcome_to_dict(out: StepOutcome) -> dict:
    return {
        "combinatorics": comb_to_dict(out.new_comb),
        "winner": out.winner,
        "loser": out.loser,
        "case_tag": out.case_tag,
        "letter": out.letter,
        "matrix": matrix_to_lists(out.matrix),
    }


def record_to_dict(r: InequalityRecord) -> dict:
    return {
        "lemma": r.lemma_id,
        "item": r.item,
        "lhs": format_fraction(r.lhs),
        "rhs": format_fraction(r.rhs),
        "margin": format_fraction(r.margin),
        "holds": r.holds,
        "strict": r.strict,
    }


def schedule_to_dict(s: ParameterSchedule) -> dict:
    return {name: getattr(s, name) for name in s._fields}


def schedule_from_dict(d: dict) -> ParameterSchedule:
    """The schedule a config file describes; a key it does not know is an
    error, and one it leaves out takes the :class:`ParameterSchedule`
    default."""
    if not isinstance(d, dict):
        raise TypeError("a schedule config must be a JSON object")
    unknown = set(d).difference(ParameterSchedule._fields)
    if unknown:
        raise ValueError(f"unknown schedule key(s) {sorted(unknown)}")
    if "mode" in d and set(d) <= {"mode"}:
        return named_schedule(d["mode"])
    if missing := {"d", "p1_1"} - set(d):
        raise ValueError(f"missing schedule key(s) {sorted(missing)}; "
                         "a config with 'mode' alone is the other valid form")
    return ParameterSchedule(**d)


def named_schedule(mode: str) -> ParameterSchedule:
    if mode not in NAMED_SCHEDULES:
        raise ValueError(f"unknown schedule mode {mode!r}")
    return ParameterSchedule(**NAMED_SCHEDULES[mode], mode=mode)


def limit_report_to_dict(rep: LimitReport, precision: int = 12) -> dict:
    def both(vec):
        return {
            "exact": vector_to_strs(vec),
            "decimal": [fraction_to_decimal(v, precision) for v in vec],
        }

    return {
        "depth": rep.m,
        "family": rep.family,
        "lambda2": both(rep.lambda2),
        "lambda5": both(rep.lambda5),
        "lambda7": both(rep.lambda7),
        "alpha": both(rep.alpha),
        "contraction_diameter": {
            "exact": format_fraction(rep.contraction_diameter),
            "decimal": fraction_to_decimal(rep.contraction_diameter, precision),
        },
    }


def json_default(o):
    """The ``default`` hook with which ``json.dumps`` writes what
    :func:`dump_json` writes: a :class:`~fiet.verify.LevelRecords` as its
    record list, built as it is read, and an :class:`InequalityRecord` as
    its :func:`record_to_dict` dict."""
    if isinstance(o, LevelRecords):
        return list(o)
    if isinstance(o, InequalityRecord):
        return record_to_dict(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def verify_report_to_dict(report: dict) -> dict:
    """The payload :func:`dump_json` writes for the dict of verify.verify_all.

    Records stay :class:`InequalityRecord` values, written as their
    :func:`record_to_dict` dicts.  Each tower level is its
    :class:`~fiet.verify.LevelRecords`, whose records are built when the
    writer reaches that level, so a written report holds one level at a time.
    """
    towers = {}
    for key in ("lambda7", "lambda5", "lambda2"):
        tower = report["towers"][key]
        towers[key] = {str(level): tower[level] for level in tower}
    vectors = {
        key: vector_to_strs(vec)
        for key, vec in report["towers"]["vectors"].items()
    }
    out = {
        "schedule": schedule_to_dict(report["schedule"]),
        "validity": report["validity"],
        "depth": report["depth"],
        "family": report["family"],
        "checked_levels": list(report["checked_levels"]),
        "towers": towers,
        "level1_vectors": vectors,
        "separation": report["separation"],
        "records_total": report["records_total"],
        "records_failing": report["records_failing"],
        "passed": report["passed"],
    }
    if "matrix_fidelity" in report:
        out["matrix_fidelity"] = fidelity_to_dict(report["matrix_fidelity"])
    return out


def fidelity_to_dict(fid: dict) -> dict:
    """The fidelity report as :func:`dump_json` writes it: each case's
    matrices become their rows, its parameters p1..p5 and its end state
    :func:`comb_to_dict`; the tuples and flags pass through as they are."""
    return {**fid, "cases": [{
        **c,
        "params": {f"p{k}": getattr(c["params"], f"p{k}") for k in range(1, 6)},
        "end_state": comb_to_dict(c["end_state"]),
        "computed": matrix_to_lists(c["computed"]),
        "reference": matrix_to_lists(c["reference"]),
    } for c in fid["cases"]]}


FREQUENCY_CSV_HEADER = (
    ["start", "horizon"]
    + [f"f{k}" for k in range(1, 9)]
    + [f"f{k}_dec" for k in range(1, 9)]
    + ["steps_completed", "terminated_at", "max_gap"]
)


def frequency_report_rows(report: FrequencyReport, precision: int = 12) -> list[list[str]]:
    """CSV rows (strings) for a frequency report over an 8-interval map.

    Frequencies appear twice, exact ("num/den") and decimal; the start point
    and max-gap diagnostic are decimal only (their exact forms can run to
    hundreds of digits when the lengths come from deep renormalization).
    """
    rows = []
    for r in report.results:
        freqs = list(r.frequencies)
        if len(freqs) != 8:
            raise ValueError("frequency CSV layout expects 8 labels")
        rows.append(
            [fraction_to_decimal(r.start, precision), str(r.horizon)]
            + [format_fraction(v) for v in freqs]
            + [fraction_to_decimal(v, precision) for v in freqs]
            + [
                str(r.steps_completed),
                "" if r.terminated_at is None else str(r.terminated_at),
                fraction_to_decimal(r.max_gap, precision),
            ]
        )
    return rows


def frequency_report_csv(report: FrequencyReport, precision: int = 12) -> str:
    lines = [",".join(FREQUENCY_CSV_HEADER)]
    lines += [",".join(row) for row in frequency_report_rows(report, precision)]
    return "\n".join(lines) + "\n"


def dump_json(obj, stream: Optional[TextIO] = None) -> Optional[str]:
    """Deterministic JSON: sorted keys, floats refused, newline end.

    The text is ``json.dumps(obj, indent=2, sort_keys=True,
    default=json_default) + "\n"``, with integers of any size written in
    :func:`int_to_str` digits.  Given a text ``stream``, it is written there
    piece by piece as it is made and nothing is returned, so no copy of the
    whole text is ever held; a :class:`~fiet.verify.LevelRecords` builds
    each level's records when it is reached, so one level's records are
    held at a time.  Without a stream the text is returned.  A float, a
    dict key that is not a ``str`` or a value of any other type raises
    ``TypeError``.
    """
    pieces = _json_pieces(obj, "")
    if stream is None:
        return "".join(pieces) + "\n"
    stream.writelines(pieces)
    stream.write("\n")
    return None


def _json_pieces(o, indent: str) -> Iterator[str]:
    """The JSON text of ``o`` in pieces, as :func:`dump_json` lays it out
    ``indent`` deep.  A record's values are written by
    :func:`format_fraction`, which takes a tower value's digits from its
    decimal twins."""
    if isinstance(o, str):
        yield encode_basestring_ascii(o)
    elif o is None:
        yield "null"
    elif o is True or o is False:
        yield "true" if o else "false"
    elif isinstance(o, int):
        yield int_to_str(o)
    elif isinstance(o, InequalityRecord):
        # The fields of record_to_dict, in sorted order.
        field = ",\n" + indent + "  "
        yield "{" + field[1:] + field.join((
            f'"holds": {"true" if o.holds else "false"}',
            f'"item": {encode_basestring_ascii(o.item)}',
            f'"lemma": {encode_basestring_ascii(o.lemma_id)}',
            f'"lhs": "{format_fraction(o.lhs)}"',
            f'"margin": "{format_fraction(o.margin)}"',
            f'"rhs": "{format_fraction(o.rhs)}"',
            f'"strict": {"true" if o.strict else "false"}',
        )) + "\n" + indent + "}"
    elif isinstance(o, dict):
        if not o:
            yield "{}"
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield separator + encode_basestring_ascii(key) + ": "
            yield from _json_pieces(value, inner)
            separator = ",\n" + inner
        yield "\n" + indent + "}"
    elif isinstance(o, (list, tuple, LevelRecords)):
        if not o:
            yield "[]"
            return
        inner = indent + "  "
        separator = "[\n" + inner
        for item in o:
            yield separator
            yield from _json_pieces(item, inner)
            separator = ",\n" + inner
        yield "\n" + indent + "]"
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
