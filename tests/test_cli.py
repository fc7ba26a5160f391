import collections
import csv
import dataclasses
import importlib
import inspect
import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from xyzring import checks, cli, ed, entanglement, mps, parent
from xyzring.checks import VerifyConfig
from xyzring.cli import COMMANDS, main
from xyzring.model import ModelParams, MpsTensors, ring_points
from xyzring.observables import SingularParameterError
from xyzring.parent import constant_shift


def run_csv(tmp_path, argv, name="out.csv"):
    path = tmp_path / name
    code = main(argv + ["--output", str(path)])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return code, rows, path.read_bytes()


def test_one_default_coupling_weight():
    # ModelParams, VerifyConfig and the --j flag of verify and ed-compare share J = 1
    args = [cli.build_parser().parse_args([command]) for command in ("verify", "ed-compare")]
    assert ModelParams().j == VerifyConfig().j == args[0].j == args[1].j == 1.0


def test_one_default_tolerance():
    # VerifyConfig, the --tolerance flag of verify and ed-compare, and sweep --check share 1e-10
    args = [cli.build_parser().parse_args([command]) for command in ("verify", "ed-compare")]
    assert (VerifyConfig().tolerance == args[0].tolerance == args[1].tolerance
            == cli.FLAGS["--tolerance"]["default"] == 1e-10)


class TestVerify:
    def test_default_config_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS  op-coverage" in out
        assert "FAIL" not in out

    def test_jsonl_report(self, tmp_path, capsys):
        path = tmp_path / "report.jsonl"
        assert main(["verify", "--output", str(path)]) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(r["status"] == "pass" for r in records)
        names = {r["check"] for r in records}
        assert "op-coverage" in names and "parent-hamiltonian" in names

    def test_invalid_j_rejected(self, capsys):
        assert main(["verify", "--j", "-1"]) == 2
        assert "--j" in capsys.readouterr().err

    def test_odd_sizes_pass(self, capsys):
        # eta = -1 has no state on odd rings, so those checks skip that class
        assert main(["verify", "--n-list", "5,7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(checks._REGISTRY) + 1
        assert all(line.startswith("PASS ") for line in lines)

    def test_ring_of_three_passes(self, tmp_path, capsys):
        # every check covers n = 3; concurrence-agreement evaluates its pairs there
        path = tmp_path / "report.jsonl"
        assert main(["verify", "--n", "3", "--output", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(checks._REGISTRY) + 1
        assert all(line.startswith("PASS ") for line in lines)
        records = {r["check"]: r for r in map(json.loads, path.read_text().splitlines())}
        assert records["concurrence-agreement"]["details"].keys() == {"max_error", "separations"}
        assert records["concurrence-agreement"]["details"]["separations"] == {"3": 2}
        assert 0 < records["concurrence-agreement"]["details"]["max_error"] < 1e-10

    @pytest.mark.parametrize("argv,skipped", [
        (["--g-min", "-1", "--g-max", "-1", "--g-steps", "1"],
         {"closed-form-correlators", "thermodynamic-limits"}),
        (["--g-min", "0", "--g-max", "0", "--g-steps", "1"], {"thermodynamic-limits"})])
    def test_check_without_g_skips(self, tmp_path, capsys, argv, skipped):
        # a check left with no g evaluates nothing, so it is a skip and fails op-coverage
        path = tmp_path / "report.jsonl"
        assert main(["verify", *argv, "--output", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert {line.split()[1] for line in lines if line.startswith("SKIP ")} == skipped
        assert lines[-1] == "FAIL  op-coverage"
        passed = sum(line.startswith("PASS ") for line in lines)
        assert passed == len(checks._REGISTRY) - len(skipped)
        records = {r["check"]: r for r in map(json.loads, path.read_text().splitlines())}
        for name in skipped:
            assert records[name]["status"] == "skip"
            assert records[name]["details"] == {
                "skipped": [{"g": float(argv[1]), "reason": "singular parameter"}]}

    def test_sizes_the_closed_forms_claim_pass(self, capsys):
        # above n = 1000 the separations are a geometric sample, so this stays fast
        assert main(["verify", "--n-list", "4,6,1000,100000,1000000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(checks._REGISTRY) + 1
        assert all(line.startswith("PASS ") for line in lines)

    def test_details_count_the_separations(self, tmp_path, capsys):
        # every r up to n = 1000, a geometric sample above: details record how many
        path = tmp_path / "report.jsonl"
        assert main(["verify", "--n-list", "4,1000,100000", "--output", str(path)]) == 0
        records = {r["check"]: r for r in map(json.loads, path.read_text().splitlines())}
        want = {str(n): len(checks._separations(n)) for n in (4, 1000, 100000)}
        for name in ("closed-form-correlators", "concurrence-agreement"):
            assert records[name]["details"]["separations"] == want, name
        assert want["1000"] == 999 and want["100000"] < 100

    def test_unknown_command_rejected(self):
        assert main(["bogus"]) == 2

    def test_size_beyond_dense_caps_is_skipped(self, tmp_path, capsys):
        # the dense-state and ED checks record n = 30 as skipped and check n = 4
        path = tmp_path / "report.jsonl"
        assert main(["verify", "--n-list", "4,30", "--output", str(path)]) == 0
        assert all(line.startswith("PASS ") for line in capsys.readouterr().out.splitlines())
        records = {r["check"]: r for r in map(json.loads, path.read_text().splitlines())}
        caps = {"normalization-consistency": "dense state needs n <= 20",
                "ground-state-equivalence": "dense state needs n <= 20",
                "parent-hamiltonian": "ED needs n <= 12"}
        for name, reason in caps.items():
            assert records[name]["details"]["skipped"] == [{"n": 30, "reason": reason}], name
        assert "skipped" not in records["closed-form-correlators"]["details"]

    def test_every_size_beyond_a_cap_skips_the_check(self, tmp_path, capsys):
        # a skipped check does not count for op-coverage, so the run fails, but it
        # runs every check instead of exiting 2 on the first dense cap
        path = tmp_path / "report.jsonl"
        assert main(["verify", "--n", "30", "--output", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        skipped = {"normalization-consistency", "ground-state-equivalence", "parent-hamiltonian"}
        assert {line.split()[1] for line in lines if line.startswith("SKIP ")} == skipped
        assert lines[-1] == "FAIL  op-coverage"
        assert sum(line.startswith("PASS ") for line in lines) == len(checks._REGISTRY) - 3
        records = {r["check"]: r for r in map(json.loads, path.read_text().splitlines())}
        assert records["parent-hamiltonian"]["status"] == "skip"
        assert records["parent-hamiltonian"]["details"] == {
            "skipped": [{"n": 30, "reason": "ED needs n <= 12"}]}

    def test_numerical_guard_is_an_error_line(self, monkeypatch, capsys):
        # a doubled tr(E^n) trips build_state's normalization cross-check
        real = mps.transfer_matrix
        monkeypatch.setattr(mps, "transfer_matrix", lambda t: 2 * real(t))
        assert main(["verify"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: normalization mismatch")

    def test_explicit_state_error_names_g_and_n(self, monkeypatch, capsys):
        # a tr(E^n) that is off for the explicit (complex) tensors only trips
        # their cross-check; the error names the point it failed at
        real = mps.transfer_matrix
        monkeypatch.setattr(mps, "transfer_matrix",
                            lambda t: real(t) * (2 if np.iscomplexobj(t.a0) else 1))
        assert main(["verify", "--n", "3", "--g-min=-1e8", "--g-max=-1e8", "--g-steps", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: normalization mismatch")
        assert err[0].endswith("(g=-100000000.0, n=3)")

    def test_floating_point_error_is_an_error_line(self, monkeypatch, capsys):
        def overflow(*args):
            raise FloatingPointError("overflow encountered in matmul")

        monkeypatch.setattr(checks, "expectation_two_point", overflow)
        assert main(["verify"]) == 2
        assert capsys.readouterr().err == "error: overflow encountered in matmul\n"

    def test_singular_parameter_error_is_an_error_line(self, monkeypatch, capsys):
        # the singular g are dropped before any closed form sees them, so one
        # that reaches a check is a defect, not a skip
        def singular(cfg):
            raise SingularParameterError("u(g) is singular at g = -1")

        registry = [(name, covers, singular if name == "closed-form-correlators" else fn)
                    for name, covers, fn in checks._REGISTRY]
        monkeypatch.setattr(checks, "_REGISTRY", registry)
        assert main(["verify"]) == 2
        assert capsys.readouterr().err == "error: u(g) is singular at g = -1\n"


class TestSweep:
    def test_golden_row(self, tmp_path):
        code, rows, _ = run_csv(
            tmp_path,
            ["sweep", "--n", "4", "--g-min", str(1 / 3), "--g-max", str(1 / 3),
             "--g-steps", "1"],
        )
        assert code == 0
        (row,) = rows
        assert float(row["u"]) == pytest.approx(0.5)
        assert float(row["mx"]) == pytest.approx(10 / 17, abs=1e-14)
        assert float(row["Gx"]) == pytest.approx(8 / 17, abs=1e-14)
        assert float(row["Gy"]) == pytest.approx(-3 / 17, abs=1e-14)
        assert float(row["Gz"]) == pytest.approx(12 / 17, abs=1e-14)
        assert float(row["C"]) == pytest.approx(3 / 17, abs=1e-14)

    def test_deterministic_output(self, tmp_path):
        argv = ["sweep", "--n-list", "4,6", "--g-min", "-2", "--g-max", "2",
                "--g-steps", "21"]
        _, _, first = run_csv(tmp_path, argv, "a.csv")
        _, _, second = run_csv(tmp_path, argv, "b.csv")
        assert first == second

    @pytest.mark.parametrize("value,code", [("1e-30", 1), ("1e-10", 0), ("1", 0)])
    def test_tolerance_needs_check(self, tmp_path, capsys, value, code):
        # sweep reads --tolerance only with --check, so alone it is an error
        path = tmp_path / "x.csv"
        argv = ["sweep", "--n", "4", "--g-min", "0.3", "--g-max", "0.3", "--g-steps", "1",
                "--output", str(path)]
        assert main(argv + ["--tolerance", value]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: --tolerance needs --check"]
        assert not path.exists()
        # with --check it is the largest error that passes (1e-10 when not given);
        # the checked error here is about 1e-16
        assert main(argv + ["--check", "--tolerance", value]) == code
        assert ("cross-check failed at g=0.3, n=4" in capsys.readouterr().err) == bool(code)
        assert main(argv + ["--check"]) == 0

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_cross_check_flag(self, tmp_path, epsilon, n):
        # the grid steps through g = -1, which is skipped with its warning
        code, rows, _ = run_csv(
            tmp_path,
            ["sweep", "--check", "--n", str(n), "--epsilon", str(epsilon),
             "--g-min=-2", "--g-max", "1.5", "--g-steps", "8"],
        )
        assert code == 0
        assert len(rows) == 7

    def test_singular_point_skipped(self, tmp_path, capsys):
        code, rows, _ = run_csv(
            tmp_path,
            ["sweep", "--n", "4", "--g-min", "-1", "--g-max", "0", "--g-steps", "2"],
        )
        assert code == 0
        assert [float(r["g"]) for r in rows] == [0.0]
        assert "singular" in capsys.readouterr().err

    def test_singular_point_warns_once_per_size(self, tmp_path, capsys):
        code, rows, _ = run_csv(
            tmp_path,
            ["sweep", "--n-list", "8,4,6", "--g-min", "-1", "--g-max", "1", "--g-steps", "3"],
        )
        assert code == 0
        assert [(r["g"], r["N"]) for r in rows] == [
            ("0", "8"), ("0", "4"), ("0", "6"), ("1", "8"), ("1", "4"), ("1", "6")]
        assert capsys.readouterr().err.splitlines() == [
            f"warning: skipping singular point g=-1 (n={n})" for n in (8, 4, 6)]

    def test_no_negative_zero_in_output(self, tmp_path):
        _, _, raw = run_csv(
            tmp_path,
            ["sweep", "--n", "4", "--g-min", "1", "--g-max", "1", "--g-steps", "1"],
        )
        assert b"-0," not in raw and not raw.endswith(b"-0\n")

    def test_check_covers_every_size(self, tmp_path, capsys, monkeypatch):
        argv = ["sweep", "--n-list", "4,64,12,1000000", "--g-min", "0.3", "--g-max", "0.3",
                "--g-steps", "1"]
        _, _, plain = run_csv(tmp_path, argv, "plain.csv")
        code, rows, checked = run_csv(tmp_path, argv + ["--check"], "checked.csv")
        assert code == 0 and len(rows) == 4
        assert checked == plain
        assert capsys.readouterr().err == ""
        real = cli.expectation_two_point
        monkeypatch.setattr(cli, "expectation_two_point", lambda t, a, b, r, n: real(
            t, a, b, r, n) * (np.nan if n == 10**6 else 1))
        path = tmp_path / "x.csv"
        assert main(argv + ["--check", "--output", str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cross-check failed at g=0.3, n=1000000: max error nan")
        assert not path.exists()

    @pytest.mark.parametrize("n,g", [(3, -3e17), (3, 7e8), (4, -1e150), (10, 1e150)])
    def test_check_at_huge_field(self, tmp_path, capsys, n, g):
        # the closed-form rows are right at these fields, so the check must pass them
        argv = ["sweep", "--n", str(n), f"--g-min={g}", f"--g-max={g}", "--g-steps", "1"]
        _, _, plain = run_csv(tmp_path, argv, "plain.csv")
        code, rows, checked = run_csv(tmp_path, argv + ["--check"], "checked.csv")
        assert code == 0 and len(rows) == 1
        assert checked == plain
        assert capsys.readouterr().err == ""

    def test_check_overflow_names_g_and_n(self, tmp_path, capsys):
        # E ~ 2 g^2 overflows a double from |g| ~ 9.5e153
        path = tmp_path / "x.csv"
        assert main(["sweep", "--check", "--n", "4", "--g-min", "1e300", "--g-max", "1e300",
                     "--g-steps", "1", "--output", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: overflow in the dressed transfer matrices")
        assert line.endswith("(g=1e+300, n=4)")
        assert not path.exists()

    def test_odd_ring_at_huge_field(self, tmp_path):
        # v rounds to -1 there, but 1 + v^3 does not vanish
        code, rows, _ = run_csv(
            tmp_path, ["sweep", "--n", "3", "--g-min=-3e17", "--g-max=-3e17", "--g-steps", "1"])
        assert code == 0
        (row,) = rows
        assert float(row["mx"]) == pytest.approx(-1 / 3, rel=1e-14, abs=0)

    def test_inverted_range_rejected(self, tmp_path):
        assert main(["sweep", "--g-min", "2", "--g-max", "1",
                     "--output", str(tmp_path / "x.csv")]) == 2


UNREAD_FLAGS = [
    (["figure1", "--check"], "--check"),
    (["ed-compare", "--epsilon", "-1"], "--epsilon"),
    (["verify", "--eta", "-1", "--n", "5"], "--eta"),
    (["sweep", "--eta", "-1"], "--eta"),
    (["sweep", "--j", "1"], "--j"),
] + [([cmd, "--workers", "2"], "--workers") for cmd in COMMANDS]


class TestUnreadFlags:
    @pytest.mark.parametrize("argv,flag", UNREAD_FLAGS,
                             ids=[argv[0] + flag for argv, flag in UNREAD_FLAGS])
    def test_rejected(self, tmp_path, capsys, argv, flag):
        path = tmp_path / "x.csv"
        assert main(argv + ["--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err
        assert not path.exists()


BAD_FLOATS = [
    (["sweep", "--n", "4"], "--g-min", "inf"),
    (["sweep", "--n", "4"], "--g-min", "nan"),
    (["figure2"], "--g-min", "nan"),
    (["sweep", "--n", "4"], "--g-max", "-inf"),
    (["figure1"], "--g-max", "nan"),
    (["verify"], "--j", "nan"),
    (["ed-compare"], "--j", "-inf"),
    (["sweep", "--n", "4"], "--tolerance", "nan"),
    (["sweep", "--n", "4", "--check"], "--tolerance", "inf"),
    (["verify"], "--tolerance", "0"),
    (["ed-compare"], "--tolerance", "-1e-10"),
]


class TestFloatFlags:
    @pytest.mark.parametrize("argv,flag,value", BAD_FLOATS,
                             ids=[f"{argv[0]}{flag}={value}" for argv, flag, value in BAD_FLOATS])
    def test_rejected(self, tmp_path, capsys, argv, flag, value):
        path = tmp_path / "x.csv"
        assert main(argv + [f"{flag}={value}", "--output", str(path)]) == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err
        assert not path.exists()

    def test_n_and_n_list_exclusive(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        assert main(["sweep", "--n", "4", "--n-list", "6", "--output", str(path)]) == 2
        assert "argument --n-list: not allowed with argument --n" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("flag,value", [("--n", "2"), ("--n-list", "4,0")])
    def test_ring_size_below_three(self, tmp_path, capsys, command, flag, value):
        path = tmp_path / "x.csv"
        assert main([command, flag, value, "--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: ring sizes must be at least 3, got {value}" in err
        assert "Warning" not in err
        assert not path.exists()

    def test_bad_n_list_names_the_format(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        assert main(["sweep", "--n-list", "4,x", "--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert "argument --n-list: expected comma-separated integers, got '4,x'" in err
        assert not path.exists()


class TestGridInput:
    @pytest.mark.parametrize("argv,message", [
        (["figure1", "--g-steps", "10001"], "--g-steps needs"),
        (["sweep", "--g-min", "2", "--g-max", "1"], "exceeds --g-max"),
        (["figure2", "--g-min", "0", "--g-max", "1", "--g-steps", "0"], "at least 1"),
        (["sweep", "--n", "3", "--g-min=-1e308", "--g-max=1e308", "--g-steps", "7"],
         "minus --g-min"),
    ])
    def test_rejected_with_message(self, tmp_path, capsys, argv, message):
        path = tmp_path / "x.csv"
        assert main(argv + ["--output", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not path.exists()

    def test_oversized_grid_is_an_error_line(self, tmp_path, capsys):
        # numpy refuses the 7 PiB grid before allocating any of it
        path = tmp_path / "x.csv"
        argv = ["sweep", "--g-min", "0", "--g-max", "1", "--g-steps", str(10**15)]
        assert main(argv + ["--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not path.exists()

    def test_default_steps_with_range(self, tmp_path):
        code, rows, _ = run_csv(tmp_path, ["sweep", "--n", "4", "--g-min", "0",
                                           "--g-max", "1"])
        assert code == 0
        assert len(rows) == 41


class TestFigure1:
    def test_columns_and_ordering(self, tmp_path):
        code, rows, _ = run_csv(
            tmp_path,
            ["figure1", "--g-min", "1", "--g-max", "1", "--g-steps", "1"],
        )
        assert code == 0
        (row,) = rows
        # finite-size curves approach the limit from above as N grows
        assert float(row["NC_N6"]) > float(row["NC_N50"]) > float(row["limit"])
        assert float(row["limit"]) == pytest.approx(0.4768, abs=1e-4)

    def test_custom_sizes(self, tmp_path):
        code, rows, _ = run_csv(
            tmp_path,
            ["figure1", "--n-list", "10,100", "--g-min", "0.5", "--g-max", "0.5",
             "--g-steps", "1"],
        )
        assert code == 0
        assert set(rows[0]) == {"g", "NC_N10", "NC_N100", "limit"}

    def test_huge_g_on_odd_ring(self, tmp_path):
        # (1+g)^N and (1-g)^N cancel in the log domain, and cosh(g) overflows
        code, rows, _ = run_csv(
            tmp_path, ["figure1", "--n", "3", "--g-min=-3e17", "--g-max=-3e17", "--g-steps", "1"])
        assert code == 0
        assert float(rows[0]["NC_N3"]) == pytest.approx(2.0, rel=1e-12, abs=0)
        assert float(rows[0]["limit"]) == 0.0


class TestFigure2:
    def test_reciprocal_column(self, tmp_path):
        code, rows, _ = run_csv(
            tmp_path,
            ["figure2", "--g-min", "0.5", "--g-max", "0.5", "--g-steps", "1"],
        )
        assert code == 0
        (row,) = rows
        assert float(row["mx_limit"]) == pytest.approx(1 / 3)
        assert float(row["mx_limit_reciprocal"]) == pytest.approx(3.0)
        assert float(row["mx_N64"]) == pytest.approx(1 / 3, abs=1e-8)

    def test_epsilon_flips_sign(self, tmp_path):
        argv = ["figure2", "--g-min", "0.5", "--g-max", "0.5", "--g-steps", "1"]
        _, rows_p, _ = run_csv(tmp_path, argv, "p.csv")
        _, rows_m, _ = run_csv(tmp_path, argv + ["--epsilon", "-1"], "m.csv")
        assert float(rows_m[0]["mx_limit"]) == -float(rows_p[0]["mx_limit"])
        assert float(rows_m[0]["mx_N8"]) == -float(rows_p[0]["mx_N8"])

    def test_singular_points_are_nan(self, tmp_path):
        code, rows, _ = run_csv(
            tmp_path,
            ["figure2", "--g-min", "-1", "--g-max", "1", "--g-steps", "5"],
        )
        assert code == 0
        by_g = {float(r["g"]): r for r in rows}
        assert list(by_g) == [-1.0, -0.5, 0.0, 0.5, 1.0]
        finite = [f"mx_N{n}" for n in (4, 8, 16, 64)]
        nan_cells = {(-1.0, c) for c in finite + ["mx_limit", "mx_limit_reciprocal"]}
        nan_cells |= {(0.0, "mx_limit"), (1.0, "mx_limit_reciprocal")}
        assert {(g, c) for g, r in by_g.items() for c, v in r.items() if v == "nan"} == nan_cells
        assert by_g[0.0]["mx_N4"] == "1"


SPECIAL_CELLS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e15, 1e16, 0.1 + 0.2]
DECADES = np.array([float(f"1e{k}") for k in range(-323, 309)])
# the largest double below each rounding boundary 9.999999999999995·10^k, so
# the boundary's neighbours below and above round down and up to the decade
BELOW_DECADES = np.nextafter([float(f"9.999999999999995e{k}") for k in range(-324, 308)], 0)


class TestWriteTable:
    """One numpy kernel per block gives the bytes of _fmt per cell: -0 prints as
    0, nan and inf as Python prints them, and the ints N, epsilon, eta and
    degeneracy, stored as floats, as str prints them."""

    HEADER = [f"c{k}" for k in range(12)]
    BLOCK = cli.CELL_BLOCK // len(HEADER)  # rows of 12 cells formatted at a time

    def expected(self, rows):
        return "".join(",".join(row) + "\n" for row in [self.HEADER]
                       + [list(map(cli._fmt, row)) for row in rows])

    def assert_cells(self, tmp_path, cells, columns):
        """cells, padded with 0 to whole rows of the given width, come out as _fmt
        prints each; only the indices of differing lines are compared, since a
        diff of many lines is slow to print."""
        cells = np.concatenate([cells, np.zeros(-len(cells) % columns)]).reshape(-1, columns)
        path = tmp_path / "t.csv"
        cli._write_table(str(path), self.HEADER[:columns], cells)
        got = path.read_text().splitlines()[1:]
        want = [",".join(map(cli._fmt, row)) for row in cells.tolist()]
        assert len(got) == len(want)
        assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == []

    def test_rows_across_a_block_boundary(self, tmp_path):
        # N, epsilon, eta and degeneracy as ints, then the special values, whose
        # order flips on the two rows either side of the boundary
        rows = [[1024, -1, 1, 2, *SPECIAL_CELLS[::-1]] for _ in range(self.BLOCK + 1)]
        rows[self.BLOCK - 1][4:] = rows[self.BLOCK][4:] = SPECIAL_CELLS
        path = tmp_path / "t.csv"
        cli._write_table(str(path), self.HEADER, np.array(rows, dtype=float))
        got, want = path.read_text().splitlines(), self.expected(rows).splitlines()
        # the indices of differing lines, since a diff of 4k lines is slow to print
        assert len(got) == len(want)
        assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == []

    def test_one_row(self, tmp_path, capsys):
        row = [4, 1, -1, 3, *SPECIAL_CELLS]
        path = tmp_path / "t.csv"
        cli._write_table(str(path), self.HEADER, np.array([row], dtype=float))
        cli._write_table(None, self.HEADER, np.array([row], dtype=float))
        want = self.expected([row])
        assert path.read_text() == capsys.readouterr().out == want
        assert want.endswith("\n4,1,-1,3,0,nan,inf,-inf,4.94065645841247e-324,1e+15,1e+16,"
                             "0.3\n")

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(1901).integers(0, 2**64, 10**6, dtype=np.uint64)
        self.assert_cells(tmp_path, bits.view(np.float64), 8)

    def test_decades_and_their_rounding_boundaries(self, tmp_path):
        values = np.concatenate([DECADES, BELOW_DECADES])
        cells = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
        self.assert_cells(tmp_path, np.concatenate([cells, -cells]), 12)

    def test_notation_after_rounding(self, capsys):
        # each rounds up to the next decade, which switches its notation
        cli._write_table(None, ["a", "b", "c"], np.array([[9.9999999999999995e-5, 1e15,
                                                         999999999999999.9]]))
        assert capsys.readouterr().out == "a,b,c\n0.0001,1e+15,1e+15\n"
        assert cli._fmt(9.9999999999999995e-5) == "0.0001"

    def test_exact_ties_and_extremes(self, tmp_path):
        ties = np.random.default_rng(1902).integers(10**14, 10**15, 20000) + 0.5
        extremes = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, np.finfo(float).max,
                    -np.finfo(float).max, 123456789012345.5, 999999999999999.5]
        self.assert_cells(tmp_path, np.concatenate([ties, extremes]), 12)

    def test_only_nonfinite_and_undecided_cells_use_fmt(self, monkeypatch):
        calls = []
        fmt = cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda x: calls.append(x) or fmt(x))
        ties = np.arange(10**14, 10**14 + 10) + 0.5
        cells = np.concatenate([np.linspace(-3, 3, 1000), ties, [np.nan, np.inf, -np.inf]])
        text = cli._format_cells(cells.reshape(-1, 1))
        assert text.splitlines() == list(map(fmt, cells))
        assert np.array_equal(calls, np.concatenate([ties, [np.nan, np.inf, -np.inf]]),
                              equal_nan=True)

    @pytest.mark.parametrize("columns", [1, 12])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_shapes(self, tmp_path, columns, extra):
        rng = np.random.default_rng(columns + extra)
        n = (cli.CELL_BLOCK // columns + extra) * columns  # a block of rows, one less, one more
        cells = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        self.assert_cells(tmp_path, cells, columns)
        self.assert_cells(tmp_path, cells[:columns], columns)  # one row

    def test_float64_precision(self, tmp_path, monkeypatch):
        # with no wider float most cells are undecided and go through _fmt
        monkeypatch.setattr(cli, "WIDE", np.float64)
        cells = np.random.default_rng(3).integers(0, 2**64, 30000, dtype=np.uint64)
        self.assert_cells(tmp_path, np.concatenate([cells.view(np.float64), DECADES,
                                                    BELOW_DECADES]), 8)

    def test_powers_are_correctly_rounded(self):
        powers = cli._tables(cli.WIDE).powers
        for e, p in zip(range(cli._E_LO, cli._E_HI + 1), powers):
            if p == 0:  # beyond the range of WIDE: those cells go through _fmt
                continue
            error = abs(Fraction(*p.as_integer_ratio()) - Fraction(10)**(14 - e))
            assert error <= Fraction(*np.spacing(p).as_integer_ratio()) / 2, e


class TestEdCompare:
    def test_energies_match_across_classes(self, tmp_path):
        code, rows, _ = run_csv(
            tmp_path,
            ["ed-compare", "--n", "4", "--g-min", "0.3", "--g-max", "0.7",
             "--g-steps", "2"],
        )
        assert code == 0
        for row in rows:
            assert float(row["residual"]) < 1e-10
            assert float(row["overlap"]) > 1 - 1e-10
            assert int(row["degeneracy"]) >= 2
        # ground energy depends only on (g, J, N), not the sign class
        by_g = {}
        for row in rows:
            by_g.setdefault(row["g"], set()).add(row["energy_ed"])
        assert all(len(vals) == 1 for vals in by_g.values())

    def test_energy_is_ground_vector_quotient(self, tmp_path):
        code, rows, _ = run_csv(tmp_path, ["ed-compare", "--n-list", "4,6,8"])
        assert code == 0
        assert len(rows) == 72
        assert all(row["energy_ed"] == row["energy_expected"] for row in rows)

    @pytest.mark.parametrize("g", ["1000", "-1000"])
    def test_large_field_is_hermitian(self, tmp_path, capsys, g):
        # the sector blocks' entries reach ~1.4e6, so their rounding-level
        # asymmetry is above an absolute 1e-10 but far below a relative one
        code, rows, _ = run_csv(tmp_path, ["ed-compare", "--n-list", "4,6", "--g-min", g,
                                           "--g-max", g, "--g-steps", "1", "--tolerance", "1e-8"])
        assert code == 0 and len(rows) == 8
        assert "Hermitian" not in capsys.readouterr().err

    def test_cap_rejected(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        assert main(["ed-compare", "--n", "14", "--output", str(path)]) == 2
        assert "ring size 14 exceeds dense cap 12" in capsys.readouterr().err
        assert not path.exists()

    def test_cap_checked_before_any_eigensolve(self, tmp_path, capsys, monkeypatch):
        # N = 12 comes first and fits the cap, but no class of it is diagonalized
        calls = []
        for name in ("eigvalsh", "eigh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, real=real: calls.append(a.shape) or real(a))
        path = tmp_path / "x.csv"
        assert main(["ed-compare", "--n-list", "12,14", "--output", str(path)]) == 2
        assert capsys.readouterr().err == "error: ring size 14 exceeds dense cap 12\n"
        assert not path.exists() and calls == []


class TestEdComparePerClass:
    def test_rows_in_point_order(self, tmp_path):
        # one certify call per class over g; the rows still run (eps, eta) outer,
        # g, then N in --n-list order (a repeated N repeats its rows), each
        # with the values of that point's own certify call
        code, rows, _ = run_csv(tmp_path, ["ed-compare", "--n-list", "4,5,4", "--g-min", "0",
                                           "--g-max", "1", "--g-steps", "3"])
        assert code == 0
        points = ring_points([0.0, 0.5, 1.0], [4, 5, 4], 1.0)
        assert len(rows) == len(points)
        for row, p in zip(rows, points):
            c = ed.certify(p)
            assert [int(row["epsilon"]), int(row["eta"]), float(row["g"]), int(row["N"])] == [
                p.epsilon, p.eta, p.g, p.n]
            assert row["energy_ed"] == cli._fmt(c.energy) and row["residual"] == cli._fmt(
                c.residual) and row["overlap"] == cli._fmt(c.overlap)
            assert int(row["degeneracy"]) == c.degeneracy == 2

    def test_nan_member_named_by_its_g(self, tmp_path, capsys, monkeypatch):
        # a NaN in the member g = 0.5 of every class fails that g only
        real = np.linalg.eigh

        def eigh(blocks):
            w, v = real(blocks)
            w = w.copy()
            w[1] = np.nan  # member 1 of the stack, in every sector
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        code, rows, _ = run_csv(tmp_path, ["ed-compare", "--n", "4", "--g-min", "0",
                                           "--g-max", "1", "--g-steps", "3"])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 4 and all("g=0.5, N=4" in line for line in errors)
        for row in rows:
            failed = row["g"] == "0.5"
            assert (row["energy_ed"] == "nan") == failed
            assert failed or float(row["residual"]) < 1e-10


class TestParentHamiltonianDegeneracy:
    def test_reports_min_degeneracy(self):
        ok, details = checks.check_parent_hamiltonian(VerifyConfig())
        assert ok and details["min_degeneracy"] == 2

    def test_single_ground_state_fails(self, monkeypatch):
        # the ground space must hold both product terms at every point
        real = ed.certify

        def certify(p):
            certs = real(p)
            certs[-1] = dataclasses.replace(certs[-1], degeneracy=1)
            return certs

        monkeypatch.setattr(ed, "certify", certify)
        ok, details = checks.check_parent_hamiltonian(VerifyConfig(n_list=[4]))
        assert not ok and details["min_degeneracy"] == 1
        assert details["max_residual"] < 1e-10 and details["max_energy_error"] < 1e-9


def _corrupt_projector(monkeypatch):
    """Add 1 to entry [1, 1] of the projector bond term of every member: the
    residual, the overlap and the energies come from the coupling form and
    cannot see it, only the comparison of the two bond terms can."""
    real = ed.bond_operator

    def bond(p, form="projector"):
        h2 = real(p, form)
        if form == "projector":
            h2[..., 1, 1] += 1.0
        return h2

    monkeypatch.setattr(ed, "bond_operator", bond)


class TestFormMismatchFails:
    def test_ed_compare(self, tmp_path, capsys, monkeypatch):
        _corrupt_projector(monkeypatch)
        code, rows, _ = run_csv(tmp_path, ["ed-compare", "--n", "4", "--g-min", "1",
                                           "--g-max", "1", "--g-steps", "1"])
        assert code == 1
        assert all(float(r["residual"]) < 1e-10 and float(r["overlap"]) > 1 - 1e-10
                   and r["energy_ed"] == r["energy_expected"] for r in rows)
        _, _, worst = capsys.readouterr().err.partition("max deviation: ")
        assert float(worst) == pytest.approx(1.0)

    def test_parent_hamiltonian(self, monkeypatch):
        _corrupt_projector(monkeypatch)
        ok, details = checks.check_parent_hamiltonian(VerifyConfig(n_list=[4], g_values=[1.0]))
        assert not ok
        assert details["max_residual"] < 1e-10 and details["max_energy_error"] < 1e-9
        assert details["max_form_mismatch"] == pytest.approx(1.0)


class TestNullSpaceKernel:
    """null-space-kernel passes only when M annihilates the kernel it reports
    and that kernel is span{e1, e2}, of dimension 2."""

    CFG = VerifyConfig(g_values=[0.3, 0.7])

    def test_three_dimensional_kernel_fails(self, monkeypatch):
        # rank-one eta = +1 tensors A_0 = diag(1, 0), A_1 = diag(x, 0): every product
        # A_j1 A_j2 is x_j1 x_j2 diag(1, 0) with x_0 = 1, so the kernel of M is the
        # 3-dimensional complement of (1, x, x, x^2); it holds psi_-, and e2 as well
        # for x a root of eps (1 - g) x^2 - 2 (1 + g) x + eps (1 - g)
        real = checks.mps_matrices

        def tensors(p):
            if p.eta == -1:
                return real(p)
            x = np.roots([p.epsilon * (1 - p.g), -2 * (1 + p.g), p.epsilon * (1 - p.g)])[0]
            return MpsTensors(np.diag([1.0, 0.0]), np.diag([x, 0.0]))

        monkeypatch.setattr(checks, "mps_matrices", tensors)
        ok, details = checks.check_null_space(self.CFG)
        assert not ok and details["kernel_dims"] == [2, 3]

    def test_kernel_outside_the_null_space_of_m_fails(self, monkeypatch):
        # the kernel stays span{e1, e2}, but M no longer annihilates its first column
        real = parent.null_space_k2

        def null_space_k2(a0, a1):
            prob = real(a0, a1)
            m = prob.m + 1e-6 * np.outer(np.ones(4), prob.kernel[:, 0].conj())
            return parent.NullSpaceProblem(m=m, kernel=prob.kernel)

        monkeypatch.setattr(parent, "null_space_k2", null_space_k2)
        ok, details = checks.check_null_space(self.CFG)
        assert not ok and details["kernel_dims"] == [2]
        assert details["max_error"] == pytest.approx(2e-6)


def _nan_eigh(field):
    """np.linalg.eigh with a NaN put into the first entry of one field of its
    result, the eigenvalues or the eigenvectors (ground_vectors)."""
    real, k = np.linalg.eigh, ["eigenvalues", "ground_vectors"].index(field)

    def eigh(h):
        out = list(real(h))
        out[k] = out[k].copy()
        out[k].flat[0] = np.nan
        return tuple(out)

    return eigh


def _nan_ring_spectrum(field):
    """ed.ring_spectrum of a stack with a NaN put into one field of each
    member's result (verify runs np.linalg.eigh outside the ED oracle too)."""
    real = ed.ring_spectrum

    def spectrum(h2, n):
        specs = []
        for spec in real(h2, n):
            value = getattr(spec, field).copy()
            value.flat[0] = np.nan
            specs.append(dataclasses.replace(spec, **{field: value}))
        return specs

    return spectrum


class TestNanFails:
    @pytest.mark.parametrize("field", ["eigenvalues", "ground_vectors"])
    def test_ed_compare(self, tmp_path, capsys, monkeypatch, field):
        monkeypatch.setattr(np.linalg, "eigh", _nan_eigh(field))
        code, rows, _ = run_csv(tmp_path, ["ed-compare", "--n", "4", "--g-min", "0.3",
                                           "--g-max", "0.3", "--g-steps", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: non-finite energy, residual or overlap" in err
        assert "max deviation: nan" in err

    def test_sweep_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "expectation_two_point",
                            lambda t, *args: np.full((*np.shape(t.a0)[:-2], 4), np.nan))
        code = main(["sweep", "--check", "--n", "4", "--g-min", "0.3", "--g-max", "0.3",
                     "--g-steps", "1", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "cross-check failed" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @staticmethod
    def _sweep_with_nan_at(tmp_path, monkeypatch, planted):
        """sweep --check over g = 0, 0.5, 1 and n = 4, 6 with a NaN in the batched
        transfer-matrix values of every member at a planted (g, n); returns the
        exit code and the g shape of each call."""
        real, calls = cli.expectation_two_point, []

        def values(t, op_a, op_b, r, n):
            calls.append(np.shape(t.a0)[:-2])
            out = real(t, op_a, op_b, r, n)
            for g, m in planted:
                if m == n:
                    out[t.a0[:, 0, 1] == g] = np.nan
            return out

        monkeypatch.setattr(cli, "expectation_two_point", values)
        code = main(["sweep", "--check", "--n-list", "4,6", "--g-min", "0", "--g-max", "1",
                     "--g-steps", "3", "--output", str(tmp_path / "x.csv")])
        return code, calls

    def test_sweep_check_names_first_failing_row(self, tmp_path, capsys, monkeypatch):
        # rows go g outer, n inner; each n has one batched call over the g grid
        code, calls = self._sweep_with_nan_at(tmp_path, monkeypatch, [(0.5, 6)])
        assert code == 1 and calls == [(3,), (3,)]
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cross-check failed at g=0.5, n=6: max error nan")
        assert not (tmp_path / "x.csv").exists()

    def test_sweep_check_names_first_failure_in_row_order(self, tmp_path, capsys, monkeypatch):
        # an earlier g failing at the later n comes first in row order, before a
        # later g failing at the earlier n
        code, _ = self._sweep_with_nan_at(tmp_path, monkeypatch, [(1.0, 4), (0.0, 6)])
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cross-check failed at g=0.0, n=6: max error nan")
        assert not (tmp_path / "x.csv").exists()

    def test_sweep_check_site_one_marginal(self, tmp_path, capsys, monkeypatch):
        # a shift of the (sigma^x, 1) column alone: Gx, Gy and Gz keep their
        # values, so only the <sigma^x_1> check can see it
        real = cli.expectation_two_point
        monkeypatch.setattr(cli, "expectation_two_point",
                            lambda *args: real(*args) + np.array([1e-6, 0, 0, 0]))
        code = main(["sweep", "--check", "--n", "4", "--g-min", "0.3", "--g-max", "0.3",
                     "--g-steps", "1", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "cross-check failed" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["eigenvalues", "ground_vectors"])
    def test_verify(self, capsys, monkeypatch, field):
        monkeypatch.setattr(ed, "ring_spectrum", _nan_ring_spectrum(field))
        assert main(["verify", "--n", "4"]) == 1
        assert "FAIL  parent-hamiltonian" in capsys.readouterr().out

    def test_verify_jsonl_is_strict(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ed, "ring_spectrum", _nan_ring_spectrum("eigenvalues"))
        path = tmp_path / "report.jsonl"
        assert main(["verify", "--n", "4", "--output", str(path)]) == 1

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        records = [json.loads(line, parse_constant=refuse)
                   for line in path.read_text().splitlines()]
        (record,) = [r for r in records if r["check"] == "parent-hamiltonian"]
        assert record["status"] == "fail"
        assert record["details"]["max_energy_error"] is None


def _nan_in_excited_blocks(p):
    """np.linalg.eigvalsh, which alone solves the sector blocks that hold no
    ground state, with a NaN put into the eigenvalues of every such block of
    p's coupling form."""
    real = np.linalg.eigvalsh
    excited = -p.n * constant_shift(p) + 1e-6

    def eigvalsh(h):
        w = real(h)
        if w[..., 0].min() <= excited:
            return w
        w = w.copy()
        w[..., -1] = np.nan
        return w

    return eigvalsh


class TestNanInExcitedBlock:
    p = ModelParams(epsilon=1, eta=1, g=0.3, j=1.0, n=4)

    def test_ed_compare(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", _nan_in_excited_blocks(self.p))
        code, rows, _ = run_csv(tmp_path, ["ed-compare", "--n", "4", "--g-min", "0.3",
                                           "--g-max", "0.3", "--g-steps", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: non-finite energy, residual or overlap at epsilon=1, eta=1" in err
        assert "max deviation: nan" in err

    def test_parent_hamiltonian(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", _nan_in_excited_blocks(self.p))
        ok, details = checks.check_parent_hamiltonian(VerifyConfig(n_list=[4], g_values=[0.3]))
        assert not ok
        assert np.isnan(details["max_energy_error"])


class TestChecks:
    def test_covers_name_functions(self):
        for _, covers, _ in checks._REGISTRY:
            for name in covers:
                module, _, attr = name.partition(".")
                fn = getattr(importlib.import_module(f"xyzring.{module}"), attr)
                assert inspect.isfunction(fn) and fn.__name__ == attr

    def test_covers_are_called(self):
        # each check runs, under the default config, every function it covers
        for check, covers, fn in checks._REGISTRY:
            called = set()

            def profile(frame, event, arg):
                if event == "call":
                    called.add(frame.f_code)

            sys.setprofile(profile)
            try:
                fn(VerifyConfig())
            finally:
                sys.setprofile(None)
            for name in covers:
                module, _, attr = name.partition(".")
                fn_code = getattr(importlib.import_module(f"xyzring.{module}"), attr).__code__
                assert fn_code in called, (check, name)

    def test_nan_oracle_fails(self, monkeypatch):
        monkeypatch.setattr(checks, "expectation_two_point", lambda *args: complex(np.nan))
        ok, details = checks.check_closed_form_correlators(
            VerifyConfig(n_list=[4], g_values=[0.3]))
        assert not ok
        assert np.isnan(details["max_error"])

    def test_large_ring_oracles_pass(self):
        # E^n overflows from N ~ 10^3 unless E is scaled first
        ok, details = checks.check_closed_form_correlators(
            VerifyConfig(n_list=[1000], g_values=[0.3]))
        assert ok, details

    def test_each_oracle_value_computed_once(self):
        # one contraction per class and check, over the x, y, z stack and every
        # separation: calls counted by (oracle, caller)
        cfg = VerifyConfig()
        oracles = {fn.__code__: fn.__name__ for fn in (
            entanglement.pair_density, mps.expectation_one_point, mps.expectation_two_point)}
        counted = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in oracles:
                counted[oracles[frame.f_code], frame.f_back.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            checks.run_verify(cfg)
        finally:
            sys.setprofile(None)
        classes = ring_points([cfg.g_values], cfg.n_list, cfg.j)
        eta_plus = sum(p.eta == 1 for p in classes)
        assert counted == {
            ("pair_density", "check_concurrence"): len(classes),
            ("expectation_two_point", "pair_density"): len(classes),
            ("expectation_one_point", "check_closed_form_correlators"): eta_plus,
            ("expectation_two_point", "expectation_one_point"): eta_plus,
            ("expectation_two_point", "check_closed_form_correlators"): len(classes),
        }

    @pytest.mark.parametrize("n", [4, 7, 1000, 1001, 10**5, 10**6 + 1])
    def test_separations(self, n):
        r = checks._separations(n)
        assert r.dtype.kind == "i" and np.all(np.diff(r) > 0)
        assert {2, n // 2, n} <= set(r.tolist()) and r.min() == 2 and r.max() == n
        if n <= 1000:
            assert np.array_equal(r, np.arange(2, n + 1))
        else:
            assert 50 <= len(r) <= 70

    @pytest.mark.parametrize("n", [1001, 1024, 4097, 10**5, 10**6, 10**9])
    def test_separations_are_the_unique_geometric_r(self, n):
        r = checks._separations(n)
        want = np.unique(np.append(np.geomspace(2, n, 64).astype(int), n // 2))
        assert r.dtype == want.dtype and np.array_equal(r, want)

    def test_one_separation_off_fails(self, monkeypatch):
        real = entanglement.pair_density

        def perturbed(p, i, j):
            rho = real(p, i, j)
            rho[:, 2] = (1 - 1e-6) * rho[:, 2] + 1e-6 * np.eye(4) / 4  # the pair (1, 4)
            return rho

        monkeypatch.setattr(entanglement, "pair_density", perturbed)
        ok, details = checks.check_concurrence(VerifyConfig())
        assert not ok
        assert details["max_error"] > 1e-8

    def test_nan_overlap_fails(self, monkeypatch):
        monkeypatch.setattr(checks, "overlap", lambda psi, chi: np.nan)
        ok, details = checks.check_ground_state_equivalence(VerifyConfig())
        assert not ok
        assert np.isnan(details["min_overlap"])
