"""Command-line interface: verification runs, parameter sweeps and CSV
reproductions of the scaled-concurrence and magnetization figures.

Exit codes: 0 success, 1 verification/cross-check failure, 2 invalid or refused input.
"""

import argparse
import contextlib
import itertools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import ed, observables, parent
from .checks import (DEFAULT_G_VALUES, DEFAULT_SIZES, VerifyConfig, run_verify, states_over_g,
                     worst_error)
from .entanglement import concurrence_closed, scaling_limit
from .model import ModelParams, ring_points
from .pauli import SI, SX, SY, SZ

FIGURE1_SIZES = [6, 7, 8, 9, 10, 20, 30, 40, 50]
DEFAULT_G_STEPS = 41
CHECK_MAX_N = 10  # sweep --check builds the dense states of the rows up to this size
# sigma^x x 1, sigma^x x sigma^x, sigma^y x sigma^y, sigma^z x sigma^z on sites (1, 2):
# their traces against the pair density are <sigma^x_1>, Gx, Gy and Gz
CHECK_OPS = np.stack([np.kron(SX, SI), np.kron(SX, SX), np.kron(SY, SY), np.kron(SZ, SZ)])
ROW_BLOCK = 4096  # CSV rows formatted and written at a time


def _fmt(x):
    """15-significant-digit text; adding 0.0 turns -0 into 0, and NaN prints as nan."""
    return f"{float(x) + 0.0:.15g}"


def _write_table(path, header, values):
    """CSV of the header names and of the rows of a 2-D value array, each cell
    as _fmt prints it (an integral value as str prints the int), written in
    blocks of ROW_BLOCK rows, each as soon as it is formatted."""
    row = ",".join(["%.15g"] * values.shape[1]) + "\n"
    blocks = (values[i:i + ROW_BLOCK] + 0.0 for i in range(0, len(values), ROW_BLOCK))
    text = ("".join([row % tuple(cells) for cells in block.tolist()]) for block in blocks)
    _write(path, itertools.chain([",".join(header) + "\n"], text))


def _write(path, chunks):
    """Write the text chunks to the file at path, or to stdout if path is None."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="\n")) as fh:
        fh.writelines(chunks)


def _g_grid(args, default):
    if args.g_min is None and args.g_max is None:
        if args.g_steps is not None:
            raise ValueError("--g-steps needs --g-min or --g-max")
        return list(map(float, default))
    g_min = args.g_min if args.g_min is not None else args.g_max
    g_max = args.g_max if args.g_max is not None else args.g_min
    steps = args.g_steps if args.g_steps is not None else DEFAULT_G_STEPS
    if g_min > g_max:
        raise ValueError(f"--g-min {g_min} exceeds --g-max {g_max}")
    if not math.isfinite(g_max - g_min):
        raise ValueError(f"--g-max {g_max} minus --g-min {g_min} overflows a float")
    if steps < 1:
        raise ValueError(f"--g-steps must be at least 1, got {steps}")
    return np.linspace(g_min, g_max, steps).tolist()


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
    cfg = VerifyConfig(j=args.j, n_list=args.n_list or list(DEFAULT_SIZES),
                       g_values=_g_grid(args, DEFAULT_G_VALUES), tolerance=args.tolerance)
    results, coverage_ok = run_verify(cfg)
    records = []
    failed = False
    for r in results:
        label = r.status.upper()
        print(f"{label:5s} {r.name}")
        if r.status == "fail":
            failed = True
            print(f"      details: {r.details}")
        record = {"check": r.name, "status": r.status, "covers": r.covers, "details": r.details}
        records.append(json.dumps(_strict_json(record), sort_keys=True, allow_nan=False))
    records.append(json.dumps({"check": "op-coverage", "status": "pass" if coverage_ok else "fail"}))
    print(f"{'PASS' if coverage_ok else 'FAIL':5s} op-coverage")
    if args.output:
        _write(args.output, ["\n".join(records) + "\n"])
    return 1 if (failed or not coverage_ok) else 0


def cmd_sweep(args):
    g_values = _g_grid(args, np.linspace(0.0, 2.0, 41))
    n_list = args.n_list or [8]
    unchecked = sorted({n for n in n_list if n > CHECK_MAX_N})
    if args.check and unchecked:
        print(f"warning: --check skips rings above n={CHECK_MAX_N} "
              f"(unchecked n={','.join(map(str, unchecked))})", file=sys.stderr)
    g = np.array(g_values)
    singular = g == -1
    regular = g[~singular]
    table = np.empty((len(regular), len(n_list), 8))  # rows g outer, n inner
    for j, n in enumerate(n_list):
        r = observables.observable_record(args.epsilon, regular, n)
        columns = np.broadcast_arrays(r.g, r.n, r.u, r.mx, r.gx, r.gy, r.gz, r.c)
        table[:, j] = np.column_stack(columns)
    checked = {n for n in n_list if n <= CHECK_MAX_N} if args.check else set()
    worst = {}  # per checked column j, the worst error of each regular row
    for j, n in enumerate(n_list):
        if n in checked:
            worst[j] = np.empty(len(regular))
            p = ModelParams(epsilon=args.epsilon, g=regular, j=args.j, n=n)
            for rows, psi in states_over_g(p):
                rho = ed.pair_density_brute(psi, 1, 2)
                values = (CHECK_OPS @ rho[..., None, :, :]).trace(axis1=-2, axis2=-1).real
                worst[j][rows] = np.max(np.abs(values - table[rows, j, 3:7]), axis=-1)
    index = np.cumsum(~singular) - 1  # of each g among the regular ones
    # in row order, before the output is opened
    for i in (range(len(g)) if checked else np.flatnonzero(singular)):
        for j, n in enumerate(n_list):
            if singular[i]:
                print(f"warning: skipping singular point g=-1 (n={n})", file=sys.stderr)
            elif j in worst and not worst[j][index[i]] <= args.tolerance:
                print(f"error: cross-check failed at g={g_values[i]}, n={n}: "
                      f"max error {worst[j][index[i]]}", file=sys.stderr)
                return 1
    _write_table(args.output, ["g", "N", "u", "mx", "Gx", "Gy", "Gz", "C"], table.reshape(-1, 8))
    return 0


def cmd_figure1(args):
    g = np.array(_g_grid(args, np.linspace(0.0, 5.0, 101)))
    sizes = args.n_list or FIGURE1_SIZES
    columns = [g] + [n * concurrence_closed(g / n, n) for n in sizes] + [scaling_limit(g)]
    header = ["g"] + [f"NC_N{n}" for n in sizes] + ["limit"]
    _write_table(args.output, header, np.stack(columns, axis=1))
    return 0


def cmd_figure2(args):
    g = np.array(_g_grid(args, np.linspace(-2.0, 2.0, 81)))
    sizes = args.n_list or [4, 8, 16, 64]

    def column(fn, defined):
        """fn(epsilon, g) where defined, nan elsewhere."""
        values = np.full(g.shape, np.nan)
        values[defined] = fn(args.epsilon, g[defined])
        return values

    regular = g != -1
    finite = [column(lambda eps, x: observables.magnetization_x(eps, x, n), regular)
              for n in sizes]
    lim = column(observables.thermodynamic_magnetization, regular & (g != 0))
    alt = column(observables.thermodynamic_magnetization_alt, np.abs(g) != 1)
    header = ["g"] + [f"mx_N{n}" for n in sizes] + ["mx_limit", "mx_limit_reciprocal"]
    _write_table(args.output, header, np.stack([g, *finite, lim, alt], axis=1))
    return 0


def cmd_ed_compare(args):
    g_values = _g_grid(args, DEFAULT_G_VALUES)
    n_list = args.n_list or DEFAULT_SIZES
    if any(n > parent.DENSE_CAP for n in n_list):
        print(f"error: ring sizes above dense cap {parent.DENSE_CAP}", file=sys.stderr)
        return 2
    certs = {(p.epsilon, p.eta, p.n): ed.certify(p)  # one call per class over the g grid
             for p in ring_points([np.array(g_values)], n_list, args.j)}
    rows = []
    worst = 0.0
    for q in ring_points(range(len(g_values)), n_list, args.j):  # row order, g by its index
        p, c = replace(q, g=g_values[q.g]), certs[q.epsilon, q.eta, q.n][q.g]
        dev = worst_error(abs(c.lowest_eigenvalue - c.expected), abs(c.energy - c.expected),
                          c.residual, 1 - c.overlap, c.form_mismatch)
        if not math.isfinite(dev):
            print(f"error: non-finite energy, residual or overlap at epsilon={p.epsilon}, "
                  f"eta={p.eta}, g={_fmt(p.g)}, N={p.n}", file=sys.stderr)
        worst = worst_error(worst, dev)
        rows.append((p.epsilon, p.eta, p.g, args.j, p.n, c.energy, c.expected, c.residual,
                     c.overlap, c.degeneracy))
    _write_table(args.output, ["epsilon", "eta", "g", "J", "N", "energy_ed", "energy_expected",
                               "residual", "overlap", "degeneracy"], np.array(rows, dtype=float))
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


def _int_list(text):
    """argparse type of --n-list: comma-separated ring sizes, each at least 3."""
    try:
        sizes = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if min(sizes) < 3:
        raise argparse.ArgumentTypeError(f"ring sizes must be at least 3, got {text}")
    return sizes


def _ring_size(text):
    """argparse type of --n: one ring size, checked and stored as by --n-list."""
    return _int_list(str(int(text)))


_ring_size.__name__ = "int"  # so that a non-integer reads "invalid int value"


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
        sizes.add_argument("--n", type=_ring_size, dest="n_list", metavar="N",
                           help="single ring size")
        sizes.add_argument("--n-list", type=_int_list, help="comma-separated ring sizes")
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
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
