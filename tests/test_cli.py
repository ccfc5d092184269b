"""End-to-end tests of the command-line interface via ``main(argv)``."""

import errno
import hashlib
import importlib
import io
import json
import os
import random
import resource
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fiet import (
    Fiet,
    FietCombinatorics,
    ParameterSchedule,
    PathParameters,
    RauzyPath,
    TransitionMatrix,
    apply_path,
    base_datum,
    build_path,
    domain_partition,
    limit_vectors,
    rauzy_step,
)
from fiet import construction, core, orbits, serialize
from fiet.cli import main
from fiet.serialize import (
    FREQUENCY_CSV_HEADER,
    comb_to_dict,
    fiet_to_dict,
    format_fraction,
    matrix_to_lists,
    parse_fraction,
)

SMALL_CONFIG = {"d": 2, "p1_1": 2}


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStep:
    # Base datum with label 3 rigged longer than label 8, so the range-side
    # label wins a length-driven step and the flipped case fires.
    RIGGED = {
        "n": 8,
        "pi0": [1, 2, 3, 4, 5, 6, 7, 8],
        "pi1": [4, 5, 6, 7, 2, 1, 8, 3],
        "flips": [2, 3, 4, 5, 6, 7],
        "lengths": ["1/1", "1/1", "2/1", "1/1", "1/1", "1/1", "1/1", "1/1"],
    }

    def test_length_driven_step(self, capsys, tmp_path):
        path = write_json(tmp_path, "f.json", self.RIGGED)
        code, out, _ = run(capsys, ["step", "--in", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["letter"] == "a"
        assert payload["case_tag"] == "b2"
        assert payload["winner"] == 3
        assert payload["loser"] == 8
        f2, expected = rauzy_step(
            Fiet(base_datum(), tuple(Fraction(s) for s in
                 ("1", "1", "2", "1", "1", "1", "1", "1")))
        )
        assert payload["matrix"] == matrix_to_lists(expected.matrix)
        assert payload["lengths"] == [
            "1/1", "1/1", "1/1", "1/1", "1/1", "1/1", "1/1", "1/1"
        ]

    def test_forced_letter_on_combinatorics_only(self, capsys, tmp_path):
        comb = {"n": 3, "pi0": [1, 2, 3], "pi1": [3, 1, 2], "flips": []}
        path = write_json(tmp_path, "c.json", comb)
        code, out, _ = run(capsys, ["step", "--in", path, "--letter", "a"])
        assert code == 0
        payload = json.loads(out)
        assert payload["letter"] == "a"
        assert "lengths" not in payload

    def test_forced_letter_with_consistent_lengths(self, capsys, tmp_path):
        path = write_json(tmp_path, "f.json", self.RIGGED)
        code, out, _ = run(capsys, ["step", "--in", path, "--letter", "a"])
        assert code == 0
        assert json.loads(out)["lengths"][2] == "1/1"

    def test_forced_letter_contradicting_lengths(self, capsys, tmp_path):
        path = write_json(tmp_path, "f.json", self.RIGGED)
        code, _, err = run(capsys, ["step", "--in", path, "--letter", "b"])
        assert code == 2
        assert "winner is not longer" in err

    @pytest.mark.parametrize("lengths", [RIGGED["lengths"], ["1/1"] * 8, ["2/4"] * 7 + ["1/2"]],
                             ids=["shorter", "tied", "unreduced-tie"])
    def test_forced_letter_needs_a_longer_winner(self, capsys, tmp_path, lengths):
        # Label 8 wins letter 'b' only when it is longer than label 3.
        path = write_json(tmp_path, "f.json", dict(self.RIGGED, lengths=lengths))
        code, out, err = run(capsys, ["step", "--in", path, "--letter", "b"])
        assert (code, out) == (2, "")
        assert err == "error: letter contradicts the lengths: winner is not longer\n"

    def test_forced_letter_takes_the_step_rule(self, capsys, tmp_path):
        lengths = ["1/3", "2/4", "7/6", "1", "1", "1", "1", "5/12"]
        f = serialize.fiet_from_dict(dict(self.RIGGED, lengths=lengths))
        path = write_json(tmp_path, "f.json", dict(self.RIGGED, lengths=lengths))
        code, out, _ = run(capsys, ["step", "--in", path, "--letter", "a"])
        assert code == 0
        f2, _ = rauzy_step(f)
        assert json.loads(out)["lengths"] == [
            "1/3", "1/2", "3/4", "1/1", "1/1", "1/1", "1/1", "5/12"
        ] == [f"{q.numerator}/{q.denominator}" for q in f2.lengths]

    def test_tied_lengths_exit_one(self, capsys, tmp_path):
        tied = dict(self.RIGGED, lengths=["1/1"] * 8)
        path = write_json(tmp_path, "tie.json", tied)
        code, _, err = run(capsys, ["step", "--in", path])
        assert code == 1
        assert "undefined" in err

    def test_comb_only_without_letter(self, capsys, tmp_path):
        comb = {"n": 3, "pi0": [1, 2, 3], "pi1": [3, 1, 2], "flips": []}
        path = write_json(tmp_path, "c.json", comb)
        code, _, err = run(capsys, ["step", "--in", path])
        assert code == 2
        assert "--letter" in err

    def test_bad_json_exit_two(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, ["step", "--in", str(p)])
        assert code == 2
        assert "cannot read JSON" in err

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["step", "--in", str(tmp_path / "nope.json")])
        assert code == 2

    def test_reads_stdin_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self.RIGGED)))
        code, out, _ = run(capsys, ["step"])
        assert code == 0
        assert json.loads(out)["letter"] == "a"


class TestPath:
    def test_empty_word_echoes_input(self, capsys, tmp_path):
        comb = {"n": 3, "pi0": [1, 2, 3], "pi1": [3, 1, 2], "flips": [2]}
        path = write_json(tmp_path, "c.json", comb)
        code, out, _ = run(capsys, ["path", "--in", path, "--word", ""])
        assert code == 0
        payload = json.loads(out)
        assert payload["combinatorics"] == payload["start"]
        assert payload["path_length"] == 0
        identity = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert payload["matrix"] == identity

    def test_word_matches_library(self, capsys, tmp_path):
        comb = FietCombinatorics(3, (1, 2, 3), (3, 1, 2), frozenset({2}))
        path = write_json(tmp_path, "c.json", comb_to_dict(comb))
        code, out, _ = run(capsys, ["path", "--in", path, "--word", "ba"])
        assert code == 0
        payload = json.loads(out)
        end, matrix = apply_path(comb, RauzyPath.from_word("ba"))
        assert payload["combinatorics"] == comb_to_dict(end)
        assert payload["matrix"] == matrix_to_lists(matrix)
        assert payload["path_length"] == 2

    def test_undefined_word_exits_one(self, capsys, tmp_path):
        # After the first 'a' step, label 2 is rightmost in both rows and the
        # next step is undefined.
        comb = FietCombinatorics(3, (1, 2, 3), (3, 1, 2), frozenset({2}))
        path = write_json(tmp_path, "c.json", comb_to_dict(comb))
        code, _, err = run(capsys, ["path", "--in", path, "--word", "ab"])
        assert code == 1
        assert "undefined" in err

    def test_params_run_from_default_datum(self, capsys):
        code, out, _ = run(capsys, ["path", "--params", "1,1,1,1,1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["start"] == comb_to_dict(base_datum())
        assert payload["path_length"] == 35
        assert payload["combinatorics"]["pi0"] == [1, 4, 2, 3, 5, 6, 7, 8]
        assert payload["combinatorics"]["pi1"] == [3, 5, 6, 7, 4, 1, 8, 2]

    def test_induced_rows(self, capsys):
        code, out, _ = run(
            capsys, ["path", "--params", "1,1,1,1,1", "--induced", "2,3,4"]
        )
        assert code == 0
        induced = json.loads(out)["induced"]
        assert induced == {"labels": [2, 3, 4], "pi0": [4, 2, 3], "pi1": [3, 4, 2]}

    def test_power(self, capsys):
        code, out, _ = run(
            capsys, ["path", "--params", "1,1,1,1,1", "--power", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        end, matrix = apply_path(
            base_datum(), build_path(PathParameters(1, 1, 1, 1, 1)).repeat(3)
        )
        assert payload["combinatorics"] == comb_to_dict(end)
        assert payload["matrix"] == matrix_to_lists(matrix)
        assert payload["path_length"] == 105
        assert payload["combinatorics"] == comb_to_dict(base_datum())

    def test_power_past_the_int_digit_limit(self, capsys):
        # Matrix entries of this power have ~7800 digits, over Python's
        # default int/str conversion limit of 4300.
        code, out, err = run(
            capsys, ["path", "--params", "10,20,40,20,10", "--power", "3000"]
        )
        assert code == 0
        assert "Traceback" not in err
        # Three copies of the path return to the start, so the matrix of
        # 3000 copies is the 1000th power of apply_path's three-copy matrix.
        path = build_path(PathParameters(10, 20, 40, 20, 10))
        end, matrix = apply_path(base_datum(), path.repeat(3))
        assert end == base_datum()
        payload = json.loads(out, parse_int=serialize.str_to_int)
        assert payload["matrix"] == matrix_to_lists(matrix.power(1000))

    def test_power_past_the_int_digit_limit_digest(self, capsys, tmp_path):
        # The same bytes on stdout and in an --out file.
        argv = ["path", "--params", "10,20,40,20,10", "--power", "3000"]
        dest = tmp_path / "path.json"
        _, out, _ = run(capsys, argv)
        assert run(capsys, argv + ["--out", str(dest)]) == (0, "", "")
        digest = "54562ce2832371a9908a8874774369aabe0208a3d41707cecb7defc7bbec548d"
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest

    def test_word_and_params_both_rejected(self, capsys):
        code, _, err = run(
            capsys, ["path", "--word", "ab", "--params", "1,1,1,1,1"]
        )
        assert code == 2
        assert "exactly one" in err

    def test_neither_word_nor_params_rejected(self, capsys):
        code, _, _ = run(capsys, ["path"])
        assert code == 2

    def test_bad_letters_rejected(self, capsys):
        code, _, err = run(capsys, ["path", "--word", "abc"])
        assert code == 2
        assert "letters" in err

    def test_bad_params_rejected(self, capsys):
        assert run(capsys, ["path", "--params", "1,2,3"])[0] == 2
        assert run(capsys, ["path", "--params", "1,2,3,x,5"])[0] == 2
        assert run(capsys, ["path", "--params", "0,1,1,1,1"])[0] == 2

    def test_bad_induced_labels_rejected(self, capsys):
        code, _, _ = run(
            capsys, ["path", "--params", "1,1,1,1,1", "--induced", "2,9"]
        )
        assert code == 2

    def test_power_must_be_positive(self, capsys):
        code, _, _ = run(
            capsys, ["path", "--params", "1,1,1,1,1", "--power", "0"]
        )
        assert code == 2


class TestConstruct:
    def test_small_schedule_report(self, capsys, tmp_path):
        cfg = write_json(tmp_path, "s.json", SMALL_CONFIG)
        code, out, _ = run(
            capsys, ["construct", "--config", cfg, "--depth", "1"]
        )
        assert code == 0
        payload = json.loads(out)
        alpha = [parse_fraction(s) for s in payload["alpha"]["exact"]]
        assert sum(alpha) == 1
        assert payload["schedule"]["d"] == 2

    def test_relaxed_depth_two_sums_to_one(self, capsys):
        code, out, _ = run(capsys, ["construct", "--mode", "relaxed", "--depth", "2"])
        assert code == 0
        payload = json.loads(out)
        for key in ("lambda2", "lambda5", "lambda7", "alpha"):
            vec = [parse_fraction(s) for s in payload[key]["exact"]]
            assert sum(vec) == 1
            assert all(x > 0 for x in vec)

    def test_strict_depth_one_completes(self, capsys):
        code, out, _ = run(capsys, ["construct", "--mode", "strict", "--depth", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schedule"]["mode"] == "strict"
        assert sum(parse_fraction(s) for s in payload["alpha"]["exact"]) == 1

    def test_byte_reproducible(self, capsys):
        args = ["construct", "--mode", "relaxed", "--depth", "1"]
        first = run(capsys, args)
        second = run(capsys, args)
        assert first == second

    def test_overrides_force_custom_mode(self, capsys):
        code, out, _ = run(
            capsys,
            ["construct", "--mode", "relaxed", "--d", "2", "--p1", "2",
             "--depth", "1"],
        )
        assert code == 0
        sched = json.loads(out)["schedule"]
        assert sched == {
            "d": 2, "p1_1": 2, "p4_rule": "p2", "p5_rule": "p1",
            "mode": "custom",
        }

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "c.json"
        code, out, _ = run(
            capsys,
            ["construct", "--mode", "relaxed", "--depth", "1",
             "--out", str(dest)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["depth"] == 1

    def test_mode_only_config(self, capsys, tmp_path):
        cfg = write_json(tmp_path, "m.json", {"mode": "relaxed"})
        code, out, _ = run(capsys, ["construct", "--config", cfg, "--depth", "1"])
        assert code == 0
        assert json.loads(out)["schedule"]["mode"] == "relaxed"


class TestVerify:
    def test_relaxed_depth_one_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--mode", "relaxed", "--depth", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["records_failing"] == []
        assert payload["family"] == "reference"

    def test_small_schedule_fails(self, capsys, tmp_path):
        cfg = write_json(tmp_path, "s.json", SMALL_CONFIG)
        code, out, err = run(capsys, ["verify", "--config", cfg, "--depth", "1"])
        assert code == 1
        assert "FAILED" in err
        payload = json.loads(out)
        assert payload["passed"] is False
        assert len(payload["records_failing"]) == 14

    def test_undersized_parameter_is_reported(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--mode", "relaxed", "--p1", "10", "--depth", "1"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["validity"]["p1 > 45"] is False

    def test_empty_config_exit_two(self, capsys, tmp_path):
        cfg = write_json(tmp_path, "empty.json", {})
        code, _, err = run(capsys, ["verify", "--config", cfg])
        assert code == 2
        assert "bad schedule config" in err

    def test_matrix_report_can_be_skipped(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--mode", "relaxed", "--depth", "1",
             "--no-matrix-report"],
        )
        assert code == 0
        assert "matrix_fidelity" not in json.loads(out)

    def test_verify_byte_reproducible(self, capsys):
        args = ["verify", "--mode", "relaxed", "--depth", "1"]
        assert run(capsys, args) == run(capsys, args)

    def test_config_with_the_strict_values_is_strict(self, capsys, tmp_path):
        cfg = write_json(tmp_path, "s.json",
                         {"d": 125001, "p1_1": 125002, "mode": "strict"})
        from_config = run(capsys, ["verify", "--config", cfg, "--depth", "1"])
        assert from_config == run(capsys, ["verify", "--mode", "strict", "--depth", "1"])
        assert from_config[0] == 0

    def test_validity_is_evaluated_at_the_runs_b(self, capsys):
        code, out, _ = run(capsys, ["verify", "--depth", "1", "--d", "2",
                                    "--p1", "20", "--b", "2000"])
        assert code == 1
        payload = json.loads(out)
        assert payload["validity"]["(b-33)*(p3-49) > 33*49"] is True
        size = [r for r in payload["towers"]["lambda2"]["1"]
                if r["item"] == "(b-33)*(p3-49) > 33*49, b=2000"]
        assert size[0]["holds"] is True
        assert size[0]["margin"] == "59360/1"

    def test_a_tower_past_its_budget_is_a_resource_limit(self, capsys, monkeypatch):
        # Relaxed depth 2 needs 145-bit copy parameters at copy 6; a budget
        # of 64 bits stops the tower before it builds any copy.
        monkeypatch.setattr(construction, "MAX_ENTRY_BITS", 64)
        code, out, err = run(capsys, ["verify", "--mode", "relaxed", "--depth", "2"])
        assert (code, out) == (1, "")
        assert err == "resource limit: copy 6's parameters may reach 145 bits (budget 64)\n"


class TestOutputPins:
    """SHA-256 of the whole stdout: every printed number and key, byte for byte."""

    @pytest.mark.parametrize("args,exit_code,digest", [
        ("verify --mode relaxed --depth 3", 0,
         "6fd0a3942643c53ba60376826c1116e60a882f94296e0f94f652621d05677c80"),
        ("verify --mode strict --depth 2", 0,
         "80e8ceae0f569d41fffcef756f62e8e3cd5dbb0441d92e204fd1bb266f3cf2fb"),
        ("construct --depth 3", 0,
         "7049c9a244703f9584401abf1cab7bb43f5c17fd395116310daf17ef5290d57d"),
        # Each command run with the other family than its default.
        ("construct --family reference --depth 3", 0,
         "713e02193bcbe8ad703bf9eee2838ceeb871e33db8c86ee14815a41195eb51e5"),
        ("verify --family computed --depth 3", 1,
         "98f27087b67eb316f868663e4319d8edacf969b8c07465ff9239c755a9a89016"),
        ("verify --family computed --mode strict --depth 2", 1,
         "66ae43fce8adaa2478ace7b515fd4a0c03b975106e3816d35fbd270a5c34fcac"),
    ], ids=["verify-relaxed-3", "verify-strict-2", "construct-3",
            "construct-reference-3", "verify-computed-relaxed-3",
            "verify-computed-strict-2"])
    def test_stdout_digest(self, capsys, args, exit_code, digest):
        code, out, _ = run(capsys, args.split())
        assert code == exit_code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestSimulate:
    SMALL_ARGS = ["--d", "2", "--p1", "2", "--depth", "1"]

    def test_horizon_one_rows_are_indicators(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", *self.SMALL_ARGS, "--horizons", "1"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(FREQUENCY_CSV_HEADER)
        assert len(lines) == 9  # eight midpoint starts
        for row in lines[1:]:
            cells = row.split(",")
            freqs = cells[2:10]
            assert freqs.count("1/1") == 1
            assert freqs.count("0/1") == 7

    def test_byte_reproducible(self, capsys):
        args = ["simulate", *self.SMALL_ARGS, "--horizons", "2"]
        assert run(capsys, args) == run(capsys, args)

    def test_max_gap_grid_over_the_limit_exits_2(self, capsys, monkeypatch):
        # Some midpoint orbit of 20000 steps needs a finer max_gap walk.
        monkeypatch.setattr(orbits, "MAX_GAP_CELLS", 1)
        code, out, err = run(
            capsys, ["simulate", *self.SMALL_ARGS, "--horizons", "20000"])
        assert (code, out) == (2, "")
        assert err.startswith("error: resource limit: ") and "grid cells" in err

    def test_alpha_pipeline_from_construct(self, capsys, tmp_path):
        alpha_file = tmp_path / "c.json"
        code, _, _ = run(
            capsys,
            ["construct", "--d", "2", "--p1", "2", "--depth", "1",
             "--out", str(alpha_file)],
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            ["simulate", "--alpha", str(alpha_file), "--horizons", "1"],
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 9

    def test_explicit_starts_and_horizons(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", *self.SMALL_ARGS,
             "--starts", "1/2,1/3", "--horizons", "1,2"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5  # 2 starts x 2 horizons

    def test_terminated_orbit_flagged_in_status_column(self, capsys):
        # Start exactly on the left endpoint of flipped tile 2: the map is
        # undefined there, so the orbit terminates at step 0.
        schedule = ParameterSchedule(d=2, p1_1=2)
        alpha = limit_vectors(schedule, 1).alpha
        f = Fiet(base_datum(), alpha)
        tile2_left = domain_partition(f)[1][1]
        code, out, _ = run(
            capsys,
            ["simulate", *self.SMALL_ARGS,
             "--starts", str(tile2_left), "--horizons", "3"],
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        terminated_col = FREQUENCY_CSV_HEADER.index("terminated_at")
        steps_col = FREQUENCY_CSV_HEADER.index("steps_completed")
        assert row[terminated_col] == "0"
        assert row[steps_col] == "0"

    def test_bad_starts_exit_two(self, capsys):
        code, _, err = run(
            capsys, ["simulate", *self.SMALL_ARGS, "--starts", "xyz"]
        )
        assert code == 2
        assert "starts" in err

    def test_bad_horizons_exit_two(self, capsys):
        code, _, _ = run(
            capsys, ["simulate", *self.SMALL_ARGS, "--horizons", "one"]
        )
        assert code == 2

    def test_bad_alpha_file_exit_two(self, capsys, tmp_path):
        bad = write_json(tmp_path, "bad.json", {"alpha": {"decimal": []}})
        code, _, err = run(capsys, ["simulate", "--alpha", bad])
        assert code == 2
        assert "alpha" in err


class TestOracle:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--trials", "40"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"trials": 40, "passes": 40, "failures": []}

    def test_negative_trials_exit_two(self, capsys):
        code, _, _ = run(capsys, ["oracle", "--trials", "-1"])
        assert code == 2

    def test_seeded_runs_reproducible(self, capsys):
        args = ["oracle", "--trials", "25", "--seed", "3"]
        assert run(capsys, args) == run(capsys, args)

    def test_negative_seed_exit_two(self, capsys):
        # random.Random(-3) draws the maps of Random(3).
        code, out, err = run(capsys, ["oracle", "--trials", "5", "--seed", "-3"])
        assert (code, out, err) == (2, "", "error: --seed must be >= 0\n")

    def test_mismatch_exits_one_with_each_trial(self, capsys, monkeypatch):
        real = orbits.rauzy_step

        def off_by_one(f):
            stepped, out = real(f)
            nums = list(stepped.nums)
            nums[-1] += 1
            return Fiet.from_integers(stepped.comb, nums, stepped.den), out

        monkeypatch.setattr(orbits, "rauzy_step", off_by_one)
        code, out, err = run(capsys, ["oracle", "--trials", "3"])
        rng = random.Random(0)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"trials": 3, "passes": 0, "failures": [
            {"trial": t, "fiet": fiet_to_dict(orbits._random_fiet(rng)),
             "detail": "step/return mismatch"} for t in range(3)
        ]}

    def test_inapplicable_return_exits_one_with_its_error(self, capsys, monkeypatch):
        monkeypatch.setattr(core, "_MAX_APPLICATIONS", 0)
        code, out, err = run(capsys, ["oracle", "--trials", "2", "--seed", "5"])
        rng = random.Random(5)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"trials": 2, "passes": 0, "failures": [
            {"trial": t, "fiet": fiet_to_dict(orbits._random_fiet(rng)),
             "detail": "OracleInapplicable('iteration budget exhausted')"} for t in range(2)
        ]}


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["construct", "--depth", "0"],
        ["verify", "--depth", "0"],
        ["construct", "--precision", "0"],
        ["simulate", "--d", "2", "--p1", "2", "--depth", "1", "--horizons", "0"],
    ])
    def test_out_of_range_value_exits_two(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_path_input_with_a_huge_n_exits_two(self, capsys, tmp_path, no_huge_label_sets):
        bad = write_json(tmp_path, "c.json", {"n": 100_000_000, "pi0": [1], "pi1": [1]})
        code, out, err = run(capsys, ["path", "--in", bad, "--word", "a"])
        assert (code, out) == (2, "")
        assert err == ("error: bad combinatorics data: pi0 must be a permutation "
                       "of 1..100000000, got (1,)\n")

    def test_path_input_without_pi0_exits_two(self, capsys, tmp_path):
        bad = write_json(tmp_path, "c.json", {"n": 8, "pi1": list(range(1, 9))})
        code, out, err = run(capsys, ["path", "--in", bad, "--word", "ab"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "pi0" in err

    RIGGED_ZERO_DEN = dict(TestStep.RIGGED, lengths=["1/0"] + ["1/1"] * 7)

    # "FILE" in argv is replaced by a file holding the given JSON data.
    @pytest.mark.parametrize("argv, data", [
        (["construct", "--d", "1"], None),
        (["verify", "--d", "1"], None),
        (["simulate", "--d", "1"], None),
        (["construct", "--p1", "0"], None),
        (["construct", "--config", "FILE"], [1, 2]),
        (["verify", "--config", "FILE"], "relaxed"),
        (["simulate", "--config", "FILE"], 5),
        (["verify", "--depth", "1", "--c", "10"], None),
        (["verify", "--depth", "1", "--b", "33"], None),
        (["step", "--in", "FILE"], RIGGED_ZERO_DEN),
        (["simulate", "--alpha", "FILE"], {"alpha": {"exact": ["1/0"] * 8}}),
        (["simulate", "--alpha", "FILE"], {"alpha": {"exact": ["1/7"] * 7}}),
        (["simulate", "--alpha", "FILE"],
         {"alpha": {"exact": ["0/1"] + ["1/7"] * 7}}),
        (["path", "--in", "FILE", "--word", "ab"],
         dict(comb_to_dict(base_datum()), n=float("inf"))),
        (["step", "--in", "FILE"], dict(TestStep.RIGGED, pi0=[1.9] + list(range(2, 9)))),
        (["step", "--in", "FILE"], dict(TestStep.RIGGED, flips=[2.2])),
        (["path", "--in", "FILE", "--word", "ab"], dict(comb_to_dict(base_datum()), n=8.7)),
        (["construct", "--config", "FILE"], {"d": 128.9, "p1_1": 256.5}),
        (["verify", "--config", "FILE"], {"d": 128, "p1_1": 256, "mode": "strict"}),
        (["verify", "--config", "FILE"], {"d": 128, "p1_1": 256, "mode": "banana"}),
        (["construct", "--config", "FILE"], {"d": 128, "p1_1": 256, "p4rule": "p3"}),
        (["construct", "--config", "FILE"], {"d": 128, "p1_1": True}),
        (["step", "--in", "FILE"], {"n": 2, "pi0": [True, 2], "pi1": [2, 1],
                                    "flips": [True], "lengths": ["1/1", "2/1"]}),
        (["step", "--in", "FILE"], dict(TestStep.RIGGED, lengths=[0.5] + ["1/1"] * 7)),
        (["verify", "--config", "FILE"], {"mode": "relaxed", "d": 128}),
        (["construct", "--config", "FILE"], {"d": 128}),
        (["simulate", "--config", "FILE"], {"p1_1": 5}),
        (["path", "--params", "1,1,1,1,1", "--power", "100000000"], None),
        (["path", "--word", "ab", "--power", "1000000000"], None),
    ], ids=[
        "construct-d-1", "verify-d-1", "simulate-d-1", "construct-p1-0",
        "config-list", "config-string", "config-number", "verify-c-10",
        "verify-b-33", "step-zero-denominator", "alpha-zero-denominator",
        "alpha-seven-entries", "alpha-zero-entry", "path-infinite-n",
        "step-float-label", "step-float-flip", "path-float-n", "config-float-d",
        "config-mislabelled-strict", "config-unknown-mode", "config-unknown-key",
        "config-bool-p1", "step-bool-label-and-flip", "step-float-length",
        "config-mode-and-d", "config-d-only", "config-p1-only",
        "path-params-huge-power", "path-word-huge-power",
    ])
    def test_bad_input_exits_two(self, capsys, tmp_path, argv, data):
        if data is not None:
            path = write_json(tmp_path, "in.json", data)
            argv = [path if a == "FILE" else a for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_config_with_an_overflowing_d_names_d(self, capsys, tmp_path):
        # JSON reads 1e400 as a float infinity.
        path = tmp_path / "c.json"
        path.write_text('{"d": 1e400, "p1_1": 256}', encoding="utf-8")
        code, out, err = run(capsys, ["construct", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "d must be an integer, got inf" in err

    @pytest.mark.parametrize("raw", [
        b"\xff\xfe not utf-8",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_json_exits_two(self, capsys, tmp_path, raw):
        p = tmp_path / "in.json"
        p.write_bytes(raw)
        code, out, err = run(capsys, ["step", "--in", str(p)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read JSON")


class TestOutputsOverDigitLimit:
    """Exact numbers past the interpreter's int/str digit limit round-trip."""

    @staticmethod
    def round_trips(strings):
        values = [parse_fraction(s) for s in strings]
        assert [format_fraction(v) for v in values] == list(strings)
        return values

    def test_verify_relaxed_depth_nine(self, capsys):
        code, out, _ = run(capsys, ["verify", "--mode", "relaxed", "--depth", "9",
                                    "--no-matrix-report"])
        assert code == 0
        payload = json.loads(out)
        vectors = payload["level1_vectors"]
        assert max(len(s) for vec in vectors.values() for s in vec) \
            > sys.get_int_max_str_digits()
        for vec in vectors.values():
            assert sum(self.round_trips(vec)) == 1
        for rec in payload["separation"]:
            lhs, rhs, margin = self.round_trips(
                [rec["lhs"], rec["rhs"], rec["margin"]])
            assert lhs - rhs == margin

    def test_construct_relaxed_depth_seven(self, capsys):
        code, out, _ = run(capsys, ["construct", "--mode", "relaxed", "--depth", "7"])
        assert code == 0
        payload = json.loads(out)
        alpha = self.round_trips(payload["alpha"]["exact"])
        assert max(len(s) for s in payload["alpha"]["exact"]) \
            > sys.get_int_max_str_digits()
        assert tuple(alpha) == limit_vectors(ParameterSchedule.relaxed(), 7).alpha


class TestOutputErrors:
    """A failed write exits 2 with one line on stderr, never a traceback."""

    SMALL = ["--d", "2", "--p1", "2", "--depth", "1"]

    @pytest.mark.parametrize("argv", [
        ["step", "--in", "FILE"],
        ["path", "--word", "ab"],
        ["construct", *SMALL],
        ["verify", *SMALL],
        ["simulate", *SMALL, "--horizons", "10"],
        ["oracle", "--trials", "3"],
    ], ids=["step", "path", "construct", "verify", "simulate", "oracle"])
    def test_out_in_missing_directory(self, capsys, tmp_path, argv):
        path = write_json(tmp_path, "in.json", TestStep.RIGGED)
        dest = str(tmp_path / "missing" / "x.json")
        argv = [path if a == "FILE" else a for a in argv] + ["--out", dest]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {dest}: ")
        assert err.count("\n") == 1

    def test_out_error_names_only_the_destination(self, capsys, tmp_path):
        # The temporary file beside the destination carries the process id,
        # so naming it would make the message differ from run to run.
        dest = str(tmp_path / "missing" / "x.json")
        assert run(capsys, ["oracle", "--trials", "5", "--out", dest]) == (
            2, "", f"error: cannot write {dest}: {os.strerror(errno.ENOENT)}\n")

    @pytest.mark.parametrize("argv", [
        ["oracle", "--trials", "3"],
        ["verify", "--mode", "relaxed", "--depth", "2"],
    ], ids=["small-output", "output-past-the-pipe-buffer"])
    def test_stdout_closed_by_its_reader(self, argv):
        # A pipe whose read end is closed before the command starts, as in
        # `fiet oracle | head -c 0`: every write to it fails.
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            self.assert_stdout_error([sys.executable, "-m", "fiet.cli", *argv],
                                     stdout=write_fd)
        finally:
            os.close(write_fd)

    def test_stdout_closed_at_start(self):
        # `fiet oracle >&-`: the interpreter starts with no sys.stdout.
        self.assert_stdout_error(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable,
                                  "-m", "fiet.cli", "oracle", "--trials", "3"])

    @pytest.mark.parametrize("old", [None, b"old report\n"], ids=["new", "existing"])
    def test_write_past_the_file_size_limit(self, tmp_path, old):
        # `ulimit -f 100`: the report is larger than 100 KiB, so a write
        # fails part-way; the destination is left as it was, with no
        # temporary file beside it.
        dest = tmp_path / "big.json"
        if old is not None:
            dest.write_bytes(old)
        limit = 100 * 1024
        done = self.run_argv(
            [sys.executable, "-m", "fiet.cli", "verify", "--mode", "relaxed",
             "--depth", "3", "--out", str(dest)],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
        err = done.stderr.decode("utf-8")
        assert done.returncode == 2
        assert err.startswith(f"error: cannot write {dest}: ")
        assert "Traceback" not in err
        if old is None:
            assert os.listdir(tmp_path) == []
        else:
            assert os.listdir(tmp_path) == ["big.json"]
            assert dest.read_bytes() == old

    def test_out_replaces_an_existing_file(self, capsys, tmp_path):
        dest = tmp_path / "x.json"
        dest.write_text("an old report, longer than the new one\n" * 100, encoding="utf-8")
        code, out, _ = run(capsys, ["oracle", "--trials", "3"])
        assert code == 0
        assert run(capsys, ["oracle", "--trials", "3", "--out", str(dest)]) == (0, "", "")
        assert dest.read_text(encoding="utf-8") == out
        assert os.listdir(tmp_path) == ["x.json"]

    def test_out_ending_in_a_separator_writes_no_file(self, capsys, tmp_path):
        dest = str(tmp_path / "x.json") + os.sep
        code, out, err = run(capsys, ["oracle", "--trials", "3", "--out", dest])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {dest}: ")
        assert os.listdir(tmp_path) == []

    def test_out_to_a_device_writes_in_place(self, capsys):
        assert run(capsys, ["oracle", "--trials", "3", "--out", os.devnull]) == (0, "", "")
        assert not os.path.isfile(os.devnull)

    @staticmethod
    def run_argv(argv, **kwargs):
        src = os.path.dirname(os.path.dirname(serialize.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run(argv, stderr=subprocess.PIPE, env=env, timeout=120,
                              **kwargs)

    @classmethod
    def assert_stdout_error(cls, argv, stdout=None):
        done = cls.run_argv(argv, stdout=stdout)
        err = done.stderr.decode("utf-8")
        assert done.returncode == 2
        assert err.startswith("error: cannot write stdout: ")
        assert "Traceback" not in err and "Exception ignored" not in err


class TestParser:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["bogus"])
        assert exc_info.value.code == 2
        capsys.readouterr()

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2
        capsys.readouterr()

    def test_bad_flag_value_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", "--mode", "loose"])
        assert exc_info.value.code == 2
        capsys.readouterr()


class TestBenchmarkHooks:
    """The traced benchmark run (``perfbench/trace_child.py``) wraps fiet
    functions and methods by name, so a name it wraps must stay while it
    does.  ``TransitionMatrix.power`` and ``verify.tower_vectors`` have no
    caller in ``src/`` and are kept only for it: drop them, and their checks
    here, in the benchmark change that drops their per-layer counters."""

    TRACE_CHILD = str(Path(__file__).parents[1] / "perfbench" / "trace_child.py")

    def test_traced_functions_resolve(self):
        # The traced benchmark run wraps these functions by module and name.
        hooks = runpy.run_path(self.TRACE_CHILD, run_name="trace_child")
        for module, name, _ in hooks["TRACED_FUNCTIONS"]:
            assert callable(getattr(importlib.import_module(module), name, None)), \
                f"{module}.{name}"

    def test_the_cli_import_loads_every_traced_function(self):
        # The traced run reads each module it wraps from sys.modules right
        # after ``import fiet.cli``; a fresh interpreter shows what that loads.
        code = ("import runpy, sys, fiet.cli\n"
                f"for m, n, _ in runpy.run_path({self.TRACE_CHILD!r})['TRACED_FUNCTIONS']:\n"
                "    assert callable(getattr(sys.modules.get(m), n, None)), f'{m}.{n}'\n")
        done = TestOutputErrors.run_argv([sys.executable, "-c", code])
        assert done.returncode == 0, done.stderr.decode()

    @pytest.mark.parametrize("name", ["__matmul__", "power"])
    def test_traced_methods_resolve(self, name):
        # It wraps these on the class itself.
        assert callable(getattr(TransitionMatrix, name, None))


class TestStartup:
    def test_import_loads_no_code_introspection_modules(self):
        # Every command starts by importing fiet.cli.  It is compared with
        # a bare interpreter in the same environment, so that site start-up
        # files do not decide what counts as added.
        show = "import sys; print(' '.join(sorted(sys.modules)))"
        bare, cli = (
            set(TestOutputErrors.run_argv([sys.executable, "-c", code],
                                          stdout=subprocess.PIPE).stdout.split())
            for code in (show, "import fiet.cli; " + show)
        )
        added = {name.decode() for name in cli - bare}
        assert "fiet.cli" in added
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
