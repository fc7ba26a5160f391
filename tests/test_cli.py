import csv
import dataclasses
import importlib
import inspect
import json

import numpy as np
import pytest

from xyzring import checks, cli, ed
from xyzring.checks import VerifyConfig
from xyzring.cli import COMMANDS, main
from xyzring.mps import explicit_ground_state


def run_csv(tmp_path, argv, name="out.csv"):
    path = tmp_path / name
    code = main(argv + ["--output", str(path)])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return code, rows, path.read_bytes()


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

    def test_unknown_command_rejected(self):
        assert main(["bogus"]) == 2


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

    def test_cross_check_flag(self, tmp_path):
        code, rows, _ = run_csv(
            tmp_path,
            ["sweep", "--check", "--n", "6", "--g-min", "0", "--g-max", "1.5",
             "--g-steps", "7"],
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

    def test_no_negative_zero_in_output(self, tmp_path):
        _, _, raw = run_csv(
            tmp_path,
            ["sweep", "--n", "4", "--g-min", "1", "--g-max", "1", "--g-steps", "1"],
        )
        assert b"-0," not in raw and not raw.endswith(b"-0\n")

    def test_check_warns_about_unchecked_sizes(self, tmp_path, capsys):
        argv = ["sweep", "--n-list", "4,64,12", "--g-min", "0.3", "--g-max", "0.3",
                "--g-steps", "1"]
        _, _, plain = run_csv(tmp_path, argv, "plain.csv")
        assert capsys.readouterr().err == ""
        code, rows, checked = run_csv(tmp_path, argv + ["--check"], "checked.csv")
        assert code == 0 and len(rows) == 3
        assert checked == plain
        (warning,) = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: --check") and "n=12,64" in warning

    def test_inverted_range_rejected(self, tmp_path):
        assert main(["sweep", "--g-min", "2", "--g-max", "1",
                     "--output", str(tmp_path / "x.csv")]) == 2


UNREAD_FLAGS = [
    (["figure1", "--check"], "--check"),
    (["ed-compare", "--epsilon", "-1"], "--epsilon"),
    (["verify", "--eta", "-1", "--n", "5"], "--eta"),
    (["sweep", "--eta", "-1"], "--eta"),
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
    (["sweep", "--n", "4"], "--j", "inf"),
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


class TestGridInput:
    @pytest.mark.parametrize("argv,message", [
        (["figure1", "--g-steps", "10001"], "--g-steps needs"),
        (["sweep", "--g-min", "2", "--g-max", "1"], "exceeds --g-max"),
        (["figure2", "--g-min", "0", "--g-max", "1", "--g-steps", "0"], "at least 1"),
    ])
    def test_rejected_with_message(self, tmp_path, capsys, argv, message):
        path = tmp_path / "x.csv"
        assert main(argv + ["--output", str(path)]) == 2
        assert message in capsys.readouterr().err
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
            ["figure2", "--g-min", "-1", "--g-max", "0", "--g-steps", "2"],
        )
        assert code == 0
        by_g = {float(r["g"]): r for r in rows}
        assert by_g[-1.0]["mx_N4"] == "nan"
        assert by_g[0.0]["mx_limit"] == "nan"
        assert by_g[0.0]["mx_N4"] == "1"


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

    def test_cap_rejected(self, tmp_path, capsys):
        assert main(["ed-compare", "--n", "14",
                     "--output", str(tmp_path / "x.csv")]) == 2
        assert "cap" in capsys.readouterr().err


def _corrupt_projector(monkeypatch):
    """Add 1 to one diagonal entry of the projector form, at a basis state where
    the explicit ground state vanishes: the residual, the overlap and the
    energies cannot see it, only the comparison of the two forms can."""
    real = ed.assemble_chain_h

    def assemble(p, form="projector"):
        h = real(p, form)
        if form == "projector" and explicit_ground_state(p).amplitudes[1] == 0:
            h[1, 1] += 1.0
        return h

    monkeypatch.setattr(ed, "assemble_chain_h", assemble)


class TestFormMismatchFails:
    # at g = 1 the eta = +1 states are GHZ-like, so their amplitude at |0001> is 0
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


def _nan_spectrum(field):
    """dense_spectrum with a NaN put into one field of its result."""
    real = ed.dense_spectrum

    def spectrum(h, *args, **kwargs):
        spec = real(h, *args, **kwargs)
        value = getattr(spec, field).copy()
        value.flat[0] = np.nan
        return dataclasses.replace(spec, **{field: value})

    return spectrum


class TestNanFails:
    @pytest.mark.parametrize("field", ["eigenvalues", "ground_vectors"])
    def test_ed_compare(self, tmp_path, capsys, monkeypatch, field):
        monkeypatch.setattr(ed, "dense_spectrum", _nan_spectrum(field))
        code, rows, _ = run_csv(tmp_path, ["ed-compare", "--n", "4", "--g-min", "0.3",
                                           "--g-max", "0.3", "--g-steps", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: non-finite energy, residual or overlap" in err
        assert "max deviation: nan" in err

    def test_sweep_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "state_expectation_two", lambda *args: complex(np.nan))
        code = main(["sweep", "--check", "--n", "4", "--g-min", "0.3", "--g-max", "0.3",
                     "--g-steps", "1", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "cross-check failed" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["eigenvalues", "ground_vectors"])
    def test_verify(self, capsys, monkeypatch, field):
        monkeypatch.setattr(ed, "dense_spectrum", _nan_spectrum(field))
        assert main(["verify", "--n", "4"]) == 1
        assert "FAIL  parent-hamiltonian" in capsys.readouterr().out

    def test_verify_jsonl_is_strict(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ed, "dense_spectrum", _nan_spectrum("eigenvalues"))
        path = tmp_path / "report.jsonl"
        assert main(["verify", "--n", "4", "--output", str(path)]) == 1

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        records = [json.loads(line, parse_constant=refuse)
                   for line in path.read_text().splitlines()]
        (record,) = [r for r in records if r["check"] == "parent-hamiltonian"]
        assert record["status"] == "fail"
        assert record["details"]["max_energy_error"] is None


class TestChecks:
    def test_covers_name_functions(self):
        for _, covers, _ in checks._REGISTRY:
            for name in covers:
                module, _, attr = name.partition(".")
                fn = getattr(importlib.import_module(f"xyzring.{module}"), attr)
                assert inspect.isfunction(fn) and fn.__name__ == attr

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

    def test_nan_overlap_fails(self, monkeypatch):
        monkeypatch.setattr(checks, "overlap", lambda psi, chi: np.nan)
        ok, details = checks.check_ground_state_equivalence(VerifyConfig())
        assert not ok
        assert np.isnan(details["min_overlap"])
