"""Command-line interface: verification runs, parameter sweeps and CSV
reproductions of the scaled-concurrence and magnetization figures.

Exit codes: 0 success, 1 verification/cross-check failure, 2 invalid or refused input.
"""

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import ed, mps, observables, parent
from .checks import DEFAULT_G_VALUES, DEFAULT_SIZES, VerifyConfig, run_verify, worst_error
from .entanglement import concurrence_closed, scaling_limit
from .model import ModelParams, mps_matrices, ring_points
from .mps import expectation_two_point
from .pauli import SIGMA

FIGURE1_SIZES = [6, 7, 8, 9, 10, 20, 30, 40, 50]
DEFAULT_G_STEPS = 41
# operators on sites 1 and 2 whose pair expectations are <sigma^x_1>, Gx, Gy and Gz
CHECK_A, CHECK_B = SIGMA[[1, 1, 2, 3]], SIGMA
CELL_BLOCK = 8192  # CSV cells formatted and written at a time (whole rows, at least one)
WIDE = np.longdouble  # precision of the scaled cells; were it float64, most would go to _fmt
_E_LO, _E_HI = -330, 315  # decimal exponents of the power table, past those of any double


def _fmt(x):
    """15-significant-digit text; adding 0.0 turns -0 into 0, and NaN prints as nan."""
    return f"{float(x) + 0.0:.15g}"


class _Tables(NamedTuple):
    """Lookup tables of _format_cells. A word is 8 bytes of text as a little-endian
    uint64; the 16 slots of digits and point are two words, indexed [word, ...]."""

    powers: np.ndarray  # [e - _E_LO]: 10^(14-e), 0 where it overflows the dtype
    digits: np.ndarray  # [n]: the 4 digits of n < 10^4
    first: np.ndarray  # [word, k]: the first k slots
    after: np.ndarray  # [word, p]: the slots after place p of the point (p = 16: none)
    point: np.ndarray  # [word, p]: the point at place p
    prefix: np.ndarray  # [5·negative + k]: sign, then "0." and k - 1 zeros if k > 0
    exp: np.ndarray  # [e - _E_LO]: "e+XX" or "e-XXX"


def _words(texts):
    """Byte strings of at most 8·k bytes as (k, len(texts)) words, 0-padded."""
    width = -(-max(map(len, texts)) // 8) * 8
    return np.ascontiguousarray(np.array(texts, f"S{width}").view("<u8").reshape(len(texts), -1).T)


@functools.cache
def _tables(wide):
    """The tables of _format_cells with powers in the dtype wide, built on first
    use. Each power is parsed from its decimal string, so it is correctly
    rounded."""
    e = range(_E_LO, _E_HI + 1)
    with np.errstate(over="ignore"):
        powers = np.array([f"1e{14 - k}" for k in e], dtype=wide)
    powers[~np.isfinite(powers)] = 0
    n = np.arange(10000, dtype=np.uint64)
    digits = sum((n // 10**(3 - k) % 10 + ord("0")) << (8 * k) for k in range(4))
    return _Tables(
        powers, digits,
        first=_words([b"\xff" * k for k in range(17)]),
        after=_words([(bytes(k + 1) + b"\xff" * 15)[:16] for k in range(17)]),
        point=_words([bytes(k) + b"." for k in range(16)] + [b""]),
        prefix=_words([sign + (b"0." + b"0" * (k - 1) if k else b"")
                       for sign in (b"", b"-") for k in range(5)])[0],
        exp=_words([f"e{k:+03d}".encode() for k in e])[0])


def _format_cells(cells):
    """The text of a 2-D float64 block as CSV rows, each cell byte for byte as
    _fmt prints it. A finite cell x != 0 is rounded to 15 digits from
    s = |x|·10^(14-e) in WIDE, whose relative error is below 1.01·eps (one
    correctly rounded power, one rounded product); a cell whose s lies outside
    [1e14, 1e15) or within 2·eps·1e15 of a half-integer (exact ties among
    them), and every nan and inf, is printed by _fmt instead. Each cell is
    four words: sign and "0.000" prefix, 16 slots of digits and point,
    exponent and separator; the 0 bytes between them are dropped."""
    t = _tables(WIDE)
    x = cells.ravel()
    finite = np.isfinite(x)
    a = np.where(finite & (x != 0), np.abs(x), 1.0)  # 0 is printed from 1 with the digit 1 as 0
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a.astype(WIDE) * t.powers[e - _E_LO]  # outside [1e14, 1e15) if log10 rounds to 10^e
    r = np.rint(s)
    tie_gap = 2 * np.finfo(WIDE).eps * 1e15
    exact = finite & (s >= 1e14) & (s < 1e15) & (np.abs(s - r) < 0.5 - tie_gap)
    m = np.where(exact, r.astype(np.int64), 10**14)  # the 15 digits
    up = m == 10**15  # rounds up to the next decade
    m[up] = 10**14
    e += up
    hi = m // 10**7
    lo = m - hi * 10**7
    hi_hi, lo_hi = hi // 10**4, lo // 10**4
    d = [t.digits[hi_hi] | t.digits[hi - hi_hi * 10**4] << 32,  # digits 1-8
         t.digits[lo_hi] >> 8 | t.digits[lo - lo_hi * 10**4] << 24]  # digits 9-15
    # the digits up to the last that is not 0: its byte is the highest nonzero one of d ^ "0"s
    top = [(np.frexp((w ^ np.uint64(zeros)).astype(float))[1] + 7) // 8
           for w, zeros in zip(d, (0x3030303030303030, 0x30303030303030))]
    kept = np.where(top[1] > 0, 8 + top[1], top[0])
    fixed = (e >= -4) & (e < 15)
    small = fixed & (e < 0)
    lead = np.where(fixed & ~small, e + 1, 1)  # digits before the point
    kept = np.maximum(kept, lead)
    place = np.where(small | (kept <= lead), 16, lead)
    for k in (0, 1):
        d[k] &= t.first[k][kept]
    d[0][x == 0] = ord("0")
    shifted = [d[0] << 8, d[1] << 8 | d[0] >> 56]  # the digits one slot later
    words = np.empty((len(x), 4), "<u8")
    words[:, 0] = t.prefix[np.where(x < 0, 5, 0) + np.where(small, -e, 0)]
    for k in (0, 1):
        words[:, 1 + k] = (d[k] & t.first[k][place] | shifted[k] & t.after[k][place]
                           | t.point[k][place])
    words[:, 3] = np.where(fixed, 0, t.exp[e - _E_LO])
    text = words.view(np.uint8)
    for i in np.flatnonzero(~exact).tolist():
        cell = _fmt(x[i]).encode("ascii")
        text[i] = 0
        text[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    text = text.reshape(*cells.shape, 32)
    text[..., -1] = ord(",")
    text[:, -1, -1] = ord("\n")
    return text[text != 0].tobytes().decode("ascii")


def _write_table(path, header, values):
    """CSV of the header names and of the rows of a 2-D value array, each cell
    as _fmt prints it (an integral value as str prints the int), formatted by
    _format_cells in blocks of at most CELL_BLOCK cells (whole rows, at least
    one), each written as soon as it is formatted."""
    step = max(CELL_BLOCK // values.shape[1], 1)
    text = (_format_cells(values[i:i + step]) for i in range(0, len(values), step))
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
    if args.tolerance is not None and not args.check:
        raise ValueError("--tolerance needs --check")
    tolerance = FLAGS["--tolerance"]["default"] if args.tolerance is None else args.tolerance
    g_values = _g_grid(args, np.linspace(0.0, 2.0, 41))
    n_list = args.n_list or [8]
    g = np.array(g_values)
    singular = g == -1
    regular = g[~singular]
    table = np.empty((len(regular), len(n_list), 8))  # rows g outer, n inner
    worst = np.empty((len(regular), len(n_list))) if args.check else None  # --check errors per cell
    for j, n in enumerate(n_list):
        r = observables.observable_record(args.epsilon, regular, n)
        columns = np.broadcast_arrays(r.g, r.n, r.u, r.mx, r.gx, r.gy, r.gz, r.c)
        table[:, j] = np.column_stack(columns)
        if args.check:
            t = mps_matrices(ModelParams(epsilon=args.epsilon, g=regular, n=n))
            with mps._naming_g(regular, n):
                values = expectation_two_point(t, CHECK_A, CHECK_B, 2, n).real
            worst[:, j] = np.max(np.abs(values - table[:, j, 3:7]), axis=-1)
    index = np.cumsum(~singular) - 1  # of each g among the regular ones
    # in row order, before the output is opened
    for i in (range(len(g)) if args.check else np.flatnonzero(singular)):
        for j, n in enumerate(n_list):
            if singular[i]:
                print(f"warning: skipping singular point g=-1 (n={n})", file=sys.stderr)
            elif not worst[index[i], j] <= tolerance:
                print(f"error: cross-check failed at g={g_values[i]}, n={n}: "
                      f"max error {worst[index[i], j]}", file=sys.stderr)
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
    for n in n_list:  # every size before the first eigensolve
        ed.check_dense_cap(n)
    certs = {(p.epsilon, p.eta, p.n): ed.certify(p)  # one call per class over the g grid
             for p in ring_points([np.array(g_values)], n_list, args.j)}
    rows = []
    worst, single = 0.0, False
    for q in ring_points(range(len(g_values)), n_list, args.j):  # row order, g by its index
        p, c = replace(q, g=g_values[q.g]), certs[q.epsilon, q.eta, q.n][q.g]
        expected = -p.n * parent.constant_shift(p)
        dev = worst_error(abs(c.lowest_eigenvalue - expected), abs(c.energy - expected),
                          c.residual, abs(1 - c.overlap), c.form_mismatch)
        where = f"epsilon={p.epsilon}, eta={p.eta}, g={_fmt(p.g)}, N={p.n}"
        if not math.isfinite(dev):
            print(f"error: non-finite energy, residual or overlap at {where}", file=sys.stderr)
        elif c.degeneracy < 2:  # the two product terms span a two-fold ground space
            print(f"error: ground space of dimension {c.degeneracy} at {where}", file=sys.stderr)
            single = True
        worst = worst_error(worst, dev)
        rows.append((p.epsilon, p.eta, p.g, args.j, p.n, c.energy, expected, c.residual,
                     c.overlap, c.degeneracy))
    _write_table(args.output, ["epsilon", "eta", "g", "J", "N", "energy_ed", "energy_expected",
                               "residual", "overlap", "degeneracy"], np.array(rows, dtype=float))
    print(f"max deviation: {_fmt(worst)}", file=sys.stderr)
    return 0 if worst < args.tolerance and not single else 1


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
    "--j": dict(type=_float_flag("finite and non-negative", lambda v: v >= 0), default=ModelParams.j,
                help=f"non-negative coupling weight (default {ModelParams.j:g})"),
    "--tolerance": dict(type=_float_flag("finite and positive", lambda v: v > 0),
                        default=VerifyConfig.tolerance),
    "--check": dict(action="store_true",
                    help="cross-check each row against the transfer-matrix correlators"),
}

COMMANDS = {
    "verify": (cmd_verify, "run all invariant and oracle checks",
               ("--j", "--tolerance")),
    "sweep": (cmd_sweep, "closed-form observables over a (g, N) grid as CSV",
              ("--epsilon", "--tolerance", "--check")),
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
        if "--check" in flags:
            sp.set_defaults(tolerance=None)  # read only with --check, so given alone it is refused
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
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
