"""The benchmark's own test: an injected NaN, exception or nonzero exit
each counts as a failed operation, and a wrong finite answer clears
`correct`.  Run from the root of a checkout:

    python3 -m pytest perfbench/test_failures.py
"""

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from outcome import FAILED, OK, WRONG, Op, Tally, judge, outcome_of, run_op  # noqa: E402


def tally_of(*ops):
    tally = Tally()
    for op in ops:
        _, raw, exc = run_op(op)
        tally.add(outcome_of(op, raw, exc))
    return tally


def close_to_one(value):
    return judge("value", value, 1.0, 0, 1e-12)


def test_injected_nan_inf_and_exception_fail():
    def boom():
        raise ArithmeticError("injected")

    t = tally_of(
        Op("nan", lambda: math.nan, close_to_one),
        Op("complex nan", lambda: complex(math.nan, 0), close_to_one),
        Op("inf", lambda: math.inf, close_to_one),
        Op("raises", boom, close_to_one),
        Op("fine", lambda: 1.0, close_to_one),
    )
    assert (t.attempted, t.failed, t.wrong) == (5, 4, 0)


def test_nan_never_passes_a_loose_tolerance():
    assert judge("v", math.nan, 1.0, 1e9, 1e9).status == FAILED
    assert judge("v", math.nan, None, 0, 0).status == OK  # nan where nan is due
    assert judge("v", 0.5, None, 0, 0).status == WRONG


def test_wrong_finite_answer_is_wrong():
    t = tally_of(Op("off", lambda: 1.1, close_to_one))
    assert (t.attempted, t.failed, t.wrong) == (1, 1, 1)


def test_nonzero_exit_fails():
    ed = workloads.EdCompare(seed=1, tmp=None)
    op = Op("ed-compare above the dense cap",
            lambda: workloads.CliRun(["ed-compare", "--n-list", "14"]),
            lambda r: ed._check(r, [14]))
    t = tally_of(op)
    assert (t.failed, t.wrong) == (1, 0)
    assert "exit code 2" in t.details[0]


def test_csv_check_catches_nan_and_wrong_values():
    with tempfile.TemporaryDirectory() as tmp:
        grid = workloads.Grid(seed=3, tmp=tmp)
        op = workloads.sweep_op(tmp, grid.rng, 1, (0.1, 0.9, 3), [4, 8])
        op.check.picks = set(range(len(op.check.keys)))  # check every row
        run_ = op.call()
        assert op.check(run_).status == OK
        path = Path(op.check.path)
        good = path.read_text().splitlines()
        for bad_field, status in (("nan", FAILED), ("0.123", WRONG)):
            fields = good[2].split(",")
            fields[4] = bad_field
            path.write_text("\n".join(good[:2] + [",".join(fields)] + good[3:]) + "\n")
            assert op.check(run_).status == status
        path.write_text("\n".join(good[:-1]) + "\n")  # a missing row
        assert op.check(run_).status == WRONG


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
