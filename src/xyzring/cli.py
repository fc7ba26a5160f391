"""Command-line interface: verification runs, parameter sweeps and CSV
reproductions of the scaled-concurrence and magnetization figures.

Exit codes: 0 success, 1 verification/cross-check failure, 2 invalid input.
"""

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import ed, observables, parent
from .checks import VerifyConfig, run_verify, worst_error
from .ed import mps_state, state_expectation_one, state_expectation_two
from .entanglement import concurrence_closed, scaling_limit
from .model import ModelParams, ring_points
from .observables import DiscontinuityError, SingularParameterError
from .pauli import SX, SY, SZ

DEFAULT_G_VALUES = [-2.0, -0.5, 0.3, 0.7, 1.0, 1.5]
FIGURE1_SIZES = [6, 7, 8, 9, 10, 20, 30, 40, 50]
DEFAULT_G_STEPS = 41
CHECK_MAX_N = 10  # sweep --check builds a dense state for each row up to this size


def _fmt(x):
    """Deterministic 15-significant-digit float formatting."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    x = float(x)
    if x == 0:
        x = 0.0  # avoid "-0"
    return f"{x:.15g}"


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _g_grid(args, default):
    if args.g_min is None and args.g_max is None:
        if args.g_steps is not None:
            raise ValueError("--g-steps needs --g-min or --g-max")
        return list(default)
    g_min = args.g_min if args.g_min is not None else args.g_max
    g_max = args.g_max if args.g_max is not None else args.g_min
    steps = args.g_steps if args.g_steps is not None else DEFAULT_G_STEPS
    if g_min > g_max:
        raise ValueError(f"--g-min {g_min} exceeds --g-max {g_max}")
    if steps < 1:
        raise ValueError(f"--g-steps must be at least 1, got {steps}")
    if steps == 1:
        return [g_min]
    return list(np.linspace(g_min, g_max, steps))


def _n_list(args, default):
    if args.n is not None:
        return [args.n]
    return args.n_list or list(default)


def _strict_json(x):
    """x with numpy scalars as Python numbers and non-finite floats as None,
    so that json.dumps writes strict JSON (RFC 8259 has no NaN)."""
    if isinstance(x, dict):
        return {k: _strict_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict_json(v) for v in x]
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def cmd_verify(args):
    cfg = VerifyConfig(
        j=args.j,
        n_list=_n_list(args, [4, 6]),
        g_values=_g_grid(args, DEFAULT_G_VALUES),
        tolerance=args.tolerance,
    )
    results, coverage_ok = run_verify(cfg)
    records = []
    failed = False
    for r in results:
        label = r.status.upper()
        print(f"{label:5s} {r.name}")
        if r.status == "fail":
            failed = True
            print(f"      details: {r.details}")
        records.append(
            json.dumps(
                _strict_json({"check": r.name, "status": r.status, "covers": r.covers,
                              "details": r.details}),
                sort_keys=True,
                allow_nan=False,
            )
        )
    records.append(json.dumps({"check": "op-coverage", "status": "pass" if coverage_ok else "fail"}))
    print(f"{'PASS' if coverage_ok else 'FAIL':5s} op-coverage")
    if args.output:
        _write_lines(args.output, records)
    return 1 if (failed or not coverage_ok) else 0


def cmd_sweep(args):
    g_values = _g_grid(args, np.linspace(0.0, 2.0, 41))
    n_list = _n_list(args, [8])
    unchecked = sorted({n for n in n_list if n > CHECK_MAX_N})
    if args.check and unchecked:
        print(f"warning: --check skips rings above n={CHECK_MAX_N} "
              f"(unchecked n={','.join(map(str, unchecked))})", file=sys.stderr)

    def row(g, n):
        if g == -1:
            print(f"warning: skipping singular point g=-1 (n={n})", file=sys.stderr)
            return None
        rec = observables.observable_record(args.epsilon, g, n)
        c = concurrence_closed(g, n)
        if args.check and n <= CHECK_MAX_N:
            psi = mps_state(ModelParams(epsilon=args.epsilon, eta=1, g=g, j=args.j, n=n))
            errs = [abs(state_expectation_one(psi, SX, 1).real - rec.mx)]
            for op, val in ((SX, rec.gx), (SY, rec.gy), (SZ, rec.gz)):
                errs.append(abs(state_expectation_two(psi, op, op, 1, 2).real - val))
            worst = worst_error(*errs)
            if not worst <= args.tolerance:
                raise ArithmeticError(
                    f"cross-check failed at g={g}, n={n}: max error {worst}"
                )
        return ",".join(
            [_fmt(g), str(n), _fmt(rec.u), _fmt(rec.mx), _fmt(rec.gx), _fmt(rec.gy),
             _fmt(rec.gz), _fmt(c)]
        )

    try:
        rows = [row(g, n) for g, n in itertools.product(g_values, n_list)]
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = ["g,N,u,mx,Gx,Gy,Gz,C"] + [r for r in rows if r is not None]
    _write_lines(args.output, lines)
    return 0


def cmd_figure1(args):
    g_values = _g_grid(args, np.linspace(0.0, 5.0, 101))
    sizes = _n_list(args, FIGURE1_SIZES)

    def row(g):
        vals = [n * concurrence_closed(g / n, n) for n in sizes]
        return ",".join([_fmt(g)] + [_fmt(v) for v in vals] + [_fmt(scaling_limit(g))])

    header = ",".join(["g"] + [f"NC_N{n}" for n in sizes] + ["limit"])
    lines = [header] + [row(g) for g in g_values]
    _write_lines(args.output, lines)
    return 0


def cmd_figure2(args):
    g_values = _g_grid(args, np.linspace(-2.0, 2.0, 81))
    sizes = _n_list(args, [4, 8, 16, 64])

    def safe(fn, *a):
        try:
            return fn(*a)
        except (SingularParameterError, DiscontinuityError):
            return float("nan")

    def row(g):
        finite = [safe(observables.magnetization_x, args.epsilon, g, n) for n in sizes]
        lim = safe(observables.thermodynamic_magnetization, args.epsilon, g)
        alt = safe(observables.thermodynamic_magnetization_alt, args.epsilon, g)
        return ",".join([_fmt(g)] + [_fmt(v) for v in finite] + [_fmt(lim), _fmt(alt)])

    header = ",".join(
        ["g"] + [f"mx_N{n}" for n in sizes] + ["mx_limit", "mx_limit_reciprocal"]
    )
    lines = [header] + [row(g) for g in g_values]
    _write_lines(args.output, lines)
    return 0


def cmd_ed_compare(args):
    g_values = _g_grid(args, DEFAULT_G_VALUES)
    n_list = _n_list(args, [4, 6])
    if any(n > parent.DENSE_CAP for n in n_list):
        print(f"error: ring sizes above dense cap {parent.DENSE_CAP}", file=sys.stderr)
        return 2
    lines = ["epsilon,eta,g,J,N,energy_ed,energy_expected,residual,overlap,degeneracy"]
    worst = 0.0
    for p in ring_points(g_values, n_list, args.j):
        c = ed.certify(p)
        dev = worst_error(abs(c.lowest_eigenvalue - c.expected), abs(c.energy - c.expected),
                          c.residual, 1 - c.overlap, c.form_mismatch)
        if not math.isfinite(dev):
            print(f"error: non-finite energy, residual or overlap at epsilon={p.epsilon}, "
                  f"eta={p.eta}, g={_fmt(p.g)}, N={p.n}", file=sys.stderr)
        worst = worst_error(worst, dev)
        lines.append(
            ",".join(
                [str(p.epsilon), str(p.eta), _fmt(p.g), _fmt(args.j), str(p.n),
                 _fmt(c.energy), _fmt(c.expected), _fmt(c.residual), _fmt(c.overlap),
                 str(c.degeneracy)]
            )
        )
    _write_lines(args.output, lines)
    print(f"max deviation: {_fmt(worst)}", file=sys.stderr)
    return 0 if worst < args.tolerance else 1


def _float_flag(rule, accept=lambda value: True):
    """argparse type: a finite float with accept(value) true, else exit 2 naming the flag."""

    def parse(text):
        value = float(text)
        if not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = "float"  # so that a non-number reads "invalid float value"
    return parse


# flags beyond the grid and output ones, each given only to the commands that read it
FLAGS = {
    "--epsilon": dict(type=int, choices=(1, -1), default=1,
                      help="sign of the field term (default +1)"),
    "--j": dict(type=_float_flag("finite and non-negative", lambda v: v >= 0), default=1.0,
                help="non-negative coupling weight (default 1)"),
    "--tolerance": dict(type=_float_flag("finite and positive", lambda v: v > 0), default=1e-10),
    "--check": dict(action="store_true",
                    help=f"cross-check each row against a dense state (N <= {CHECK_MAX_N})"),
}

COMMANDS = {
    "verify": (cmd_verify, "run all invariant and oracle checks",
               ("--j", "--tolerance")),
    "sweep": (cmd_sweep, "closed-form observables over a (g, N) grid as CSV",
              ("--epsilon", "--j", "--tolerance", "--check")),
    "figure1": (cmd_figure1, "scaled concurrence curves and their limit as CSV", ()),
    "figure2": (cmd_figure2, "finite-N and limiting magnetization as CSV", ("--epsilon",)),
    "ed-compare": (cmd_ed_compare, "exact-diagonalization comparison table",
                   ("--j", "--tolerance")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xyzring",
        description="Exactly solvable spin-1/2 xyz rings: verification, "
        "sweeps and figure data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sizes = sp.add_mutually_exclusive_group()
        sizes.add_argument("--n", type=int, default=None, help="single ring size")
        sizes.add_argument("--n-list", type=lambda s: [int(x) for x in s.split(",")],
                           default=None, help="comma-separated ring sizes")
        sp.add_argument("--g-min", type=_float_flag("finite"), default=None)
        sp.add_argument("--g-max", type=_float_flag("finite"), default=None)
        sp.add_argument("--g-steps", type=int, default=None,
                        help="number of grid samples between g-min and g-max "
                        f"(default {DEFAULT_G_STEPS})")
        sp.add_argument("--output", default=None, help="output file (default stdout)")
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
        sp.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
