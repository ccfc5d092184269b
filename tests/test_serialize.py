"""Tests for stable text encodings: fractions, JSON payloads, CSV rows."""

import io
import json
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiet import (
    Fiet,
    FietCombinatorics,
    InequalityRecord,
    ParameterSchedule,
    PathParameters,
    apply_path,
    base_datum,
    birkhoff_frequencies,
    build_path,
    check_lemma2,
    check_lemma4,
    check_separation,
    limit_vectors,
    matrix_fidelity_report,
    rauzy_step,
    verify_all,
)
from fiet import serialize, verify
from fiet.cli import schedule_from_dict
from fiet.serialize import (
    FREQUENCY_CSV_HEADER,
    comb_from_dict,
    comb_to_dict,
    dump_json,
    fidelity_to_dict,
    fiet_from_dict,
    fiet_to_dict,
    format_fraction,
    fraction_to_decimal,
    frequency_report_csv,
    frequency_report_rows,
    int_to_str,
    limit_report_to_dict,
    matrix_to_lists,
    parse_fraction,
    record_to_dict,
    schedule_to_dict,
    step_outcome_to_dict,
    str_to_int,
    vector_to_strs,
    verify_report_to_dict,
)

SMALL = ParameterSchedule(d=2, p1_1=2)


class TestFractionText:
    def test_always_num_slash_den(self):
        assert format_fraction(Fraction(3, 6)) == "1/2"
        assert format_fraction(Fraction(5)) == "5/1"
        assert format_fraction(Fraction(-1, 3)) == "-1/3"
        assert format_fraction(Fraction(0)) == "0/1"

    def test_parse_round_trip(self):
        for s in ("1/2", "5/1", "-7/3", "0/1"):
            assert format_fraction(parse_fraction(s)) == s
        assert parse_fraction("7") == 7

    def test_integers_over_the_digit_limit(self):
        digits = 3 * max(sys.get_int_max_str_digits(), 1000) + 7
        chunks = digits // 500
        n = 0
        for _ in range(chunks):
            n = n * 10**500 + int("7" * 500)
        text = "7" * (500 * chunks)
        for value, expected in ((n, text), (-n, "-" + text),
                                (10**digits, "1" + "0" * digits),
                                (10**digits - 1, "9" * digits)):
            assert int_to_str(value) == expected
            assert str_to_int(expected) == value
        q = Fraction(n, 10**digits + 1)
        assert parse_fraction(format_fraction(q)) == q
        assert parse_fraction(text) == n

    def test_decimal_rendering_over_the_digit_limit(self):
        precision = max(sys.get_int_max_str_digits(), 1000) + 10
        assert fraction_to_decimal(Fraction(1, 3), precision) == "0." + "3" * precision

    def test_decimal_rendering(self):
        assert fraction_to_decimal(Fraction(1, 3)) == "0.333333333333"
        assert fraction_to_decimal(Fraction(2, 3), 3) == "0.667"
        assert fraction_to_decimal(Fraction(-1, 8), 3) == "-0.125"
        assert fraction_to_decimal(Fraction(1234), 4) == "1234.0000"

    def test_decimal_rounds_half_up(self):
        assert fraction_to_decimal(Fraction(1, 64), 2) == "0.02"
        assert fraction_to_decimal(Fraction(5, 100), 1) == "0.1"
        assert fraction_to_decimal(Fraction(15, 100), 1) == "0.2"

    def test_decimal_precision_validation(self):
        with pytest.raises(ValueError):
            fraction_to_decimal(Fraction(1, 3), 0)

    def test_vector_to_strs(self):
        assert vector_to_strs((Fraction(1, 2), 3)) == ["1/2", "3/1"]


class TestCombinatoricsPayload:
    def test_round_trip(self):
        c = base_datum()
        assert comb_from_dict(comb_to_dict(c)) == c

    def test_dict_shape(self):
        c = FietCombinatorics(2, (1, 2), (2, 1), frozenset({1}))
        assert comb_to_dict(c) == {
            "n": 2, "pi0": [1, 2], "pi1": [2, 1], "flips": [1]
        }

    def test_flips_default_to_empty(self):
        c = comb_from_dict({"n": 2, "pi0": [1, 2], "pi1": [2, 1]})
        assert c.flips == frozenset()

    @pytest.mark.parametrize("key, value", [
        ("n", True), ("pi0", [True, 2]), ("pi1", [2, True]), ("flips", [True]),
    ])
    def test_bool_entries_rejected(self, key, value):
        d = dict({"n": 2, "pi0": [1, 2], "pi1": [2, 1], "flips": [1]}, **{key: value})
        with pytest.raises(ValueError, match="must be an integer, got True"):
            comb_from_dict(d)

    def test_integral_entries_read_as_ints(self):
        c = comb_from_dict({"n": 2.0, "pi0": [1.0, 2], "pi1": [2, 1], "flips": [1.0]})
        assert c == FietCombinatorics(2, (1, 2), (2, 1), frozenset({1}))
        assert all(type(v) is int for v in (c.n, *c.pi0, *c.flips))


class TestFietPayload:
    def test_round_trip(self):
        f = Fiet(
            FietCombinatorics(2, (1, 2), (2, 1), frozenset({1})),
            (Fraction(1, 3), Fraction(2)),
        )
        assert fiet_from_dict(fiet_to_dict(f)) == f

    def test_lengths_required(self):
        with pytest.raises(ValueError):
            fiet_from_dict({"n": 2, "pi0": [1, 2], "pi1": [2, 1]})

    @pytest.mark.parametrize("length", [0.5, 1, None])
    def test_length_must_be_text(self, length):
        d = {"n": 2, "pi0": [1, 2], "pi1": [2, 1], "lengths": [length, "1/1"]}
        with pytest.raises(TypeError, match='"num/den" string'):
            fiet_from_dict(d)

    def test_lengths_encoded_exactly(self):
        f = Fiet(
            FietCombinatorics(2, (1, 2), (2, 1), frozenset()),
            (Fraction(1, 3), Fraction(2)),
        )
        assert fiet_to_dict(f)["lengths"] == ["1/3", "2/1"]


class TestStepAndRecordPayloads:
    def test_step_outcome_keys(self):
        f = Fiet(
            FietCombinatorics(2, (1, 2), (2, 1), frozenset()),
            (Fraction(9), Fraction(5)),
        )
        _, out = rauzy_step(f)
        d = step_outcome_to_dict(out)
        assert set(d) == {
            "combinatorics", "winner", "loser", "case_tag", "letter", "matrix"
        }
        assert d["letter"] in ("a", "b")
        assert d["matrix"] == matrix_to_lists(out.matrix)

    def test_record_payload(self):
        e2 = tuple(Fraction(1 if k == 2 else 0) for k in range(1, 9))
        rec = check_lemma4(e2, b=34)[0]
        assert record_to_dict(rec) == {
            "lemma": "L4",
            "item": "x2 > 1/34",
            "lhs": "1/1",
            "rhs": "1/34",
            "margin": "33/34",
            "holds": True,
            "strict": True,
        }


class TestSchedulePayload:
    def test_round_trip(self):
        s = ParameterSchedule(d=3, p1_1=5, p4_rule="p3")
        assert schedule_from_dict(schedule_to_dict(s)) == s

    def test_mode_only_dict_resolves_named_schedule(self):
        assert schedule_from_dict({"mode": "relaxed"}) == ParameterSchedule.relaxed()
        assert schedule_from_dict({"mode": "strict"}) == ParameterSchedule.strict()

    def test_named_schedule_rejects_unknown(self):
        with pytest.raises(ValueError):
            ParameterSchedule.named("loose")

    def test_rules_default_when_absent(self):
        s = schedule_from_dict({"d": 3, "p1_1": 5})
        assert (s.p4_rule, s.p5_rule, s.mode) == ("p2", "p1", "custom")

    @pytest.mark.parametrize("d, missing", [
        ({"mode": "relaxed", "d": 128}, "['p1_1']"),
        ({"d": 128}, "['p1_1']"),
        ({"p1_1": 5}, "['d']"),
        ({}, "['d', 'p1_1']"),
    ])
    def test_missing_key_named(self, d, missing):
        with pytest.raises(ValueError) as exc:
            schedule_from_dict(d)
        assert str(exc.value) == (
            f"missing schedule key(s) {missing}; "
            "a config with 'mode' alone is the other valid form"
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="p4rule"):
            schedule_from_dict({"d": 128, "p1_1": 256, "p4rule": "p3"})


class TestReportPayloads:
    def test_limit_report_payload(self):
        rep = limit_vectors(SMALL, 1)
        d = limit_report_to_dict(rep, precision=6)
        assert d["depth"] == 1
        assert d["family"] == "computed"
        for key in ("lambda2", "lambda5", "lambda7", "alpha"):
            assert len(d[key]["exact"]) == 8
            assert len(d[key]["decimal"]) == 8
            assert all("/" in s for s in d[key]["exact"])
            assert all("." in s for s in d[key]["decimal"])
        diam = d["contraction_diameter"]
        assert parse_fraction(diam["exact"]) == rep.contraction_diameter

    def test_verify_report_payload(self):
        rep = verify_all(ParameterSchedule.relaxed(), 1)
        d = verify_report_to_dict(rep)
        assert d["passed"] is True
        assert d["depth"] == 1
        assert d["checked_levels"] == [1]
        assert set(d["towers"]) == {"lambda7", "lambda5", "lambda2"}
        assert set(d["towers"]["lambda7"]) == {"1"}  # JSON keys are strings
        assert d["records_failing"] == []
        assert set(d["level1_vectors"]) == {"lambda7", "lambda5", "lambda2"}
        assert "matrix_fidelity" in d

    def test_fidelity_payload(self):
        d = fidelity_to_dict(matrix_fidelity_report())
        assert d["entrywise_equal"] is False
        assert d["reference_identities_hold"] is True
        assert d["discrepancy_isolated"] is True
        case = d["cases"][0]
        assert set(case["params"]) == {"p1", "p2", "p3", "p4", "p5"}
        assert len(case["computed"]) == 8
        assert case["differing_entries"]

    def test_verify_payload_is_json_clean(self):
        rep = verify_all(SMALL, 1, include_matrix_report=False)
        text = dump_json(verify_report_to_dict(rep))
        assert '"passed": false' in text


class TestFrequencyCsv:
    FIET8 = Fiet(base_datum(), tuple(Fraction(1) for _ in range(8)))

    def test_header(self):
        assert FREQUENCY_CSV_HEADER[:2] == ["start", "horizon"]
        assert len(FREQUENCY_CSV_HEADER) == 21
        assert FREQUENCY_CSV_HEADER[-3:] == [
            "steps_completed", "terminated_at", "max_gap"
        ]

    def test_row_shape_and_types(self):
        rep = birkhoff_frequencies(self.FIET8, (Fraction(1, 2),), (1, 2))
        rows = frequency_report_rows(rep, precision=6)
        assert len(rows) == 2
        for row in rows:
            assert len(row) == len(FREQUENCY_CSV_HEADER)
        assert rows[0][0] == "0.500000"
        assert rows[0][1] == "1"
        assert rows[0][-2] == ""  # no termination

    def test_terminated_orbit_row(self):
        # Starting exactly at the left endpoint of flipped tile 2 terminates
        # immediately; the row records zero completed steps.
        rep = birkhoff_frequencies(self.FIET8, (Fraction(1),), 1)
        row = frequency_report_rows(rep)[0]
        assert row[-3] == "0"  # steps completed
        assert row[-2] == "0"  # terminated at step 0

    def test_csv_text(self):
        rep = birkhoff_frequencies(self.FIET8, (Fraction(1, 2),), 1)
        text = frequency_report_csv(rep, precision=6)
        lines = text.splitlines()
        assert lines[0] == ",".join(FREQUENCY_CSV_HEADER)
        assert len(lines) == 2
        assert text.endswith("\n")

    def test_requires_eight_labels(self):
        rot = Fiet(
            FietCombinatorics(2, (1, 2), (2, 1), frozenset()),
            (Fraction(1), Fraction(2)),
        )
        rep = birkhoff_frequencies(rot, (Fraction(1, 2),), 1)
        with pytest.raises(ValueError):
            frequency_report_rows(rep)


class TestDumpJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = dump_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_deterministic(self):
        payload = {"x": [1, 2, 3], "y": {"k": "v"}}
        assert dump_json(payload) == dump_json(payload)

    def test_integers_over_the_digit_limit_are_json_numbers(self):
        big = 10 ** (3 * max(sys.get_int_max_str_digits(), 1000)) + 7
        payload = {"m": [[1, -big], [big, 0]], "s": "x", "t": True}
        text = dump_json(payload)
        assert json.loads(text, parse_int=str_to_int) == payload
        # Same layout as json.dumps gives integers within the limit.
        layout = dump_json({"m": [[1, -2], [3, 0]], "s": "x", "t": True})
        digits = int_to_str(big)
        assert text == layout.replace("3", digits).replace("-2", "-" + digits)


# JSON values of every kind dump_json writes, keys included: strings with
# quotes, backslashes, NUL and non-ASCII, and integers within the digit limit.
json_strings = st.text() | st.sampled_from(['"', "\\", "\x00", "\u00e9", 'a"\\\x00\u20ac'])
json_values = st.recursive(
    st.none() | st.booleans() | json_strings
    | st.integers(min_value=-10 ** 4000, max_value=10 ** 4000),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(json_strings, children)),
    max_leaves=30,
)


class TestDumpJsonReference:
    """dump_json writes what json.dumps writes, and refuses a float, a
    non-str key or a value of another type."""

    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, payload):
        text = dump_json(payload)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        stream = io.StringIO()
        assert dump_json(payload, stream) is None
        assert stream.getvalue() == text

    @pytest.mark.parametrize("payload", [
        {"x": [1, 0.5]},
        {"x": {1: "a"}},
        [Fraction(1, 2)],
    ], ids=["float", "int key", "Fraction"])
    def test_refused(self, payload):
        with pytest.raises(TypeError):
            dump_json(payload)
        with pytest.raises(TypeError):
            dump_json(payload, io.StringIO())


def verify_payload(depth):
    """The payload of ``fiet verify --mode relaxed --depth <depth>``."""
    report = verify_all(ParameterSchedule.relaxed(), depth, family="reference")
    return verify_report_to_dict(report)


class TestDumpJsonStream:
    """Given a stream, dump_json writes the text it would return, piece by piece."""

    @staticmethod
    def written(payload, tmp_path):
        out = tmp_path / "out.json"
        with open(out, "w", encoding="utf-8") as fh:
            assert dump_json(payload, fh) is None
        return out.read_text(encoding="utf-8")

    @pytest.fixture(scope="class")
    def power_matrix(self):
        # The matrix of `fiet path --params 10,20,40,20,10 --power 3000`, whose
        # entries run past the digit limit: three copies of the path return
        # to the start, so it is the 1000th power of the three-copy matrix.
        _, matrix = apply_path(
            base_datum(), build_path(PathParameters(10, 20, 40, 20, 10)).repeat(3))
        return {"matrix": matrix_to_lists(matrix.power(1000))}

    def test_verify_payload(self, tmp_path):
        payload = verify_payload(3)
        text = self.written(payload, tmp_path)
        assert text == dump_json(payload)
        # Tower levels are deferred; the same hook renders them for json.dumps.
        assert text == json.dumps(payload, indent=2, sort_keys=True,
                                  default=serialize.json_default) + "\n"

    @pytest.mark.parametrize("depth", [1, 7])
    def test_over_limit_integers(self, tmp_path, power_matrix, depth):
        # The matrix sits ``depth`` containers deep, so its digits are written
        # at that indent, one entry a line.
        payload = power_matrix
        for _ in range(depth - 1):
            payload = [payload]
        text = dump_json(payload)
        lines = [line for line in text.splitlines()
                 if len(line) > sys.get_int_max_str_digits()]
        assert lines
        assert all(line.startswith(" " * (2 * depth + 4))
                   and line.lstrip(" -").rstrip(",").isdigit() for line in lines)
        assert json.loads(text, parse_int=str_to_int) == payload
        assert self.written(payload, tmp_path) == text

    @pytest.mark.parametrize("payload", [{}, []], ids=["dict", "list"])
    def test_empty_containers(self, tmp_path, payload):
        assert self.written(payload, tmp_path) == dump_json(payload) \
            == json.dumps(payload) + "\n"

    def test_whole_pipeline_memory_stays_below_the_output(self, tmp_path):
        # Verify, convert and write: the tower levels are built one at a time
        # as they are written, so no stage holds the whole report.
        out = tmp_path / "out.json"
        tracemalloc.start()
        try:
            with open(out, "w", encoding="utf-8") as fh:
                dump_json(verify_payload(8), fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 5_000_000
        assert peak < size / 4

    def test_memory_stays_below_the_output(self, tmp_path):
        payload = verify_payload(5)
        out = tmp_path / "out.json"
        tracemalloc.start()
        try:
            with open(out, "w", encoding="utf-8") as fh:
                dump_json(payload, fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 1_000_000
        assert peak < size / 4


def encoder_text(payload):
    """The reference layout: the standard encoder given the deferred hook."""
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=serialize.json_default) + "\n"


class TestRecordText:
    """dump_json writes record lists as text laid out as the encoder lays them out."""

    @pytest.mark.parametrize("mode, depth, family", [
        ("relaxed", 3, "computed"),  # failing tower records
        ("strict", 2, "reference"),  # the non-strict record
    ])
    def test_verify_reports(self, mode, depth, family):
        schedule = getattr(ParameterSchedule, mode)()
        payload = verify_report_to_dict(verify_all(schedule, depth, family=family))
        text = dump_json(payload)
        assert text == encoder_text(payload)
        data = json.loads(text)
        towers = [r for tower in data["towers"].values()
                  for level in tower.values() for r in level]
        assert len(data["separation"]) == 12
        if family == "computed":
            assert len(data["records_failing"]) == 91
            assert any(not r["holds"] for r in towers)
        if mode == "strict":
            assert any(not r["strict"] for r in towers)

    @staticmethod
    def records():
        w = (1, 5, 0, 2, 9, 0, 3, 4)
        odd = InequalityRecord('L\u00e9', 'say "x" \\ y\n\u0000', Fraction(-3, 7),
                               Fraction(10 ** 5000 + 1, 3), Fraction(0), False, False)
        return ([odd] + check_lemma2(w, PathParameters(2, 4, 8, 4, 2))
                + check_separation(w, w[::-1], (0,) * 7 + (1,),
                                   PathParameters(2, 4, 8, 4, 2)))

    def test_failing_records_written_across_levels(self):
        # The failing list spans several levels and is written as one list.
        big = 10 ** 60 + 7
        rec = InequalityRecord("L1", "x", Fraction(1, big), Fraction(2, big),
                               Fraction(-1, big), False)
        failing = verify.LevelRecords([rec, rec])
        failing.add_level([rec])
        assert failing == [rec] * 3
        payload = {"records_failing": failing}
        text = dump_json(payload)
        assert text == encoder_text(payload)

    def test_verify_all_groups_failing_records_by_level(self):
        rep = verify_all(ParameterSchedule.relaxed(), 3, family="computed",
                         include_matrix_report=False)
        failing = rep["records_failing"]
        assert isinstance(failing, verify.LevelRecords) and len(failing) == 91
        # The separation's failing records first, then each level's.
        runs = [r for r in rep["separation"] if not r.holds] + [
            r
            for key in ("lambda7", "lambda5", "lambda2")
            for tower in [rep["towers"][key]] for level in tower
            for r in tower[level] if not r.holds
        ]
        assert list(failing) == runs

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("empty", [False, True])
    def test_any_depth(self, depth, empty):
        recs = [] if empty else self.records()
        for payload in (verify.LevelRecords(lambda: recs, len(recs)), recs):
            # Alternate dicts and lists around the record list.
            for k in range(depth):
                payload = {"b": 1, "k": payload, "a": [2]} if k % 2 else [3, payload]
            assert dump_json(payload) == encoder_text(payload)
