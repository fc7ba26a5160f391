"""The four workloads: inputs from a seed, the operations of one pass, and
the check of every output.

Sizes are fixed because they set the cost; the seed picks the g values
(and the sign class where a workload leaves it free).  Every call goes
through `xyzring.cli.main(argv)` or a public library function looked up on
its module at call time, so that the traced run sees it.  References are
evaluated when an output is checked, never inside a timed call.
"""

import contextlib
import hashlib
import io
import itertools
import os
import random

import numpy as np

from xyzring import cli, entanglement, model, mps
from xyzring.pauli import SX, SY, SZ

import reference as ref
from outcome import FAILED, OK, WRONG, Op, Outcome, judge, worst
from probe import PARTS

# bounded closed forms (|mx|, |G| <= 1): relative with an absolute floor;
# C and N*C: relative to their own, possibly tiny, value down to underflow
TOL = (1e-10, 1e-12)
TOL_C = (1e-9, 1e-300)
SAMPLE_ROWS = 64
CLASSES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


class CliRun:
    """Exit code and captured streams of one in-process `xyzring` call."""

    def __init__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.code = cli.main(argv)
        self.stdout, self.stderr = out.getvalue(), err.getvalue()

    def exit_failure(self):
        if self.code == 0:
            return None
        return Outcome(FAILED, f"exit code {self.code}: {self.stderr.strip()[-200:]}")


def _arg(x):
    return repr(float(x))


def _grid_args(g_min, g_max, steps):
    return ["--g-min", _arg(g_min), "--g-max", _arg(g_max), "--g-steps", str(steps)]


def _sizes_arg(sizes):
    return ["--n-list", ",".join(map(str, sizes))]


class CsvCheck:
    """Checks a CSV written by the CLI against its row keys and a reference.

    Every row: the column count, the key columns (g, and N for sweeps) and
    the `nan` positions.  A seeded sample of rows: every value against the
    mpmath reference.  Verdicts are cached by the file digest, since every
    pass writes the same inputs.
    """

    def __init__(self, path, header, keys, nan_cols, ref_row, tols, rng):
        self.path, self.header, self.keys = path, header, keys
        self.nan_cols, self.ref_row, self.tols = nan_cols, ref_row, tols
        self.nkey = len(keys[0]) if keys and isinstance(keys[0], tuple) else 1
        self.picks = set(rng.sample(range(len(keys)), min(SAMPLE_ROWS, len(keys))))
        self.cache = {}

    def __call__(self, run):
        failure = run.exit_failure()
        if failure:
            return failure
        with open(self.path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha1(data).hexdigest()
        if digest not in self.cache:
            self.cache[digest] = self._check(data.decode().splitlines())
        return self.cache[digest]

    def _check(self, lines):
        if not lines or lines[0] != self.header:
            return Outcome(WRONG, f"header {lines[:1]!r}, expected {self.header!r}")
        rows = lines[1:]
        if len(rows) != len(self.keys):
            return Outcome(WRONG, f"{len(rows)} rows, expected {len(self.keys)}")
        ncol = self.header.count(",") + 1
        problems = []
        for i, (line, key) in enumerate(zip(rows, self.keys)):
            fields = line.split(",")
            if len(fields) != ncol:
                problems.append(Outcome(WRONG, f"row {i}: {len(fields)} columns"))
                continue
            key = key if isinstance(key, tuple) else (key,)
            for col, want in enumerate(key):
                problems.append(judge(f"row {i} col {col}", float(fields[col]), want, 1e-14, 0))
            nan_due = self.nan_cols(key[0])
            for col in range(self.nkey, ncol):
                if (fields[col] == "nan") != (col in nan_due):
                    status = WRONG if col in nan_due else FAILED
                    problems.append(Outcome(status, f"row {i} col {col}: {fields[col]}"))
            if i in self.picks:
                want = self.ref_row(*key)
                for col, (v, r, tol) in enumerate(zip(fields[self.nkey:], want, self.tols)):
                    problems.append(judge(f"row {i} col {col + self.nkey}", float(v), r, *tol))
            problems = [worst(problems)]
        return problems[0] if problems else Outcome(OK)


def _no_nan(_g):
    return ()


def sweep_op(tmp, rng, eps, g_range, sizes, extra=()):
    """`sweep` over a g grid and sizes, written to a CSV file and checked."""
    path = os.path.join(tmp, "sweep.csv")
    keys = [(float(g), n) for g, n in itertools.product(np.linspace(*g_range), sizes) if g != -1]
    check = CsvCheck(
        path, "g,N,u,mx,Gx,Gy,Gz,C", keys, _no_nan,
        lambda g, n: ref.sweep_row(eps, g, n), [(1e-10, 0), TOL, TOL, TOL, TOL, TOL_C], rng,
    )
    argv = ["sweep", "--epsilon", str(eps), *_sizes_arg(sizes), *_grid_args(*g_range),
            "--output", path, *extra]
    return Op("sweep", lambda: CliRun(argv), check)


# ---------------------------------------------------------------- grid


class Grid:
    """Closed forms and CSV output only: no ED, no dense states."""

    name = "grid"
    probe_parts = tuple(PARTS)
    SWEEP_SIZES = [4, 8, 16, 64, 1024]
    FIG1_SIZES = [6, 7, 8, 9, 10, 20, 30, 40, 50]
    FIG2_SIZES = [4, 8, 16, 64]
    points = 0

    def __init__(self, seed, tmp):
        rng = random.Random(seed)
        self.tmp, self.rng = tmp, rng
        self.eps = rng.choice((1, -1))
        self.sweep = (rng.uniform(-0.95, -0.5), rng.uniform(1.5, 2.5), 20001)
        self.fig1 = (0.0, rng.uniform(4.0, 6.0), 10001)
        half = rng.choice((1.5, 2.0, 2.5, 3.0))  # +-1 and 0 fall on the grid for 2.0, 2.5
        self.fig2 = (-half, half, 20001)

    def _fig1_op(self, g_range):
        path = os.path.join(self.tmp, "figure1.csv")
        sizes = self.FIG1_SIZES
        header = ",".join(["g"] + [f"NC_N{n}" for n in sizes] + ["limit"])
        keys = [float(g) for g in np.linspace(*g_range)]
        check = CsvCheck(
            path, header, keys, _no_nan, lambda g: ref.figure1_row(g, sizes),
            [TOL_C] * len(sizes) + [TOL], self.rng,
        )
        argv = ["figure1", *_sizes_arg(sizes), *_grid_args(*g_range), "--output", path]
        return Op("figure1", lambda: CliRun(argv), check)

    def _fig2_op(self, g_range):
        path = os.path.join(self.tmp, "figure2.csv")
        sizes, eps, k = self.FIG2_SIZES, self.eps, len(self.FIG2_SIZES)
        header = ",".join(["g"] + [f"mx_N{n}" for n in sizes] + ["mx_limit", "mx_limit_reciprocal"])
        keys = [float(g) for g in np.linspace(*g_range)]

        def nan_cols(g):
            cols = set(range(1, k + 1)) if g == -1 else set()
            if g in (0, -1):
                cols.add(k + 1)
            if abs(g) == 1:
                cols.add(k + 2)
            return cols

        check = CsvCheck(
            path, header, keys, nan_cols, lambda g: ref.figure2_row(eps, g, sizes),
            [TOL] * (k + 2), self.rng,
        )
        argv = ["figure2", "--epsilon", str(eps), *_sizes_arg(sizes), *_grid_args(*g_range),
                "--output", path]
        return Op("figure2", lambda: CliRun(argv), check)

    def ops(self):
        return [
            sweep_op(self.tmp, self.rng, self.eps, self.sweep, self.SWEEP_SIZES),
            self._fig1_op(self.fig1),
            self._fig2_op(self.fig2),
        ]

    def warm_up_ops(self):
        return [
            sweep_op(self.tmp, self.rng, self.eps, (*self.sweep[:2], 11), [4, 1024]),
            self._fig1_op((*self.fig1[:2], 11)),
            self._fig2_op((*self.fig2[:2], 11)),
        ]


# ---------------------------------------------------------------- ed


class EdCompare:
    """Dense parent-Hamiltonian assembly and exact diagonalization."""

    name = "ed"
    # its time is dense eigh and kron assembly through the BLAS threads; with
    # all four parts its pass_rel spread twice as much between runs
    probe_parts = ("eigensolve", "kron")
    SIZES = [6, 8, 10]
    TOLERANCE = 1e-10

    def __init__(self, seed, tmp):
        rng = random.Random(seed)
        lo, hi = rng.choice([(-0.9, -0.1), (0.1, 0.9), (1.1, 1.9)])
        self.g, self.j = rng.uniform(lo, hi), 1.0
        self.points = len(CLASSES) * len(self.SIZES)  # certified (class, N) points

    def _op(self, sizes):
        argv = ["ed-compare", *_sizes_arg(sizes), "--j", _arg(self.j),
                *_grid_args(self.g, self.g, 1)]
        return Op("ed-compare", lambda: CliRun(argv), lambda run: self._check(run, sizes))

    def _check(self, run, sizes):
        failure = run.exit_failure()
        if failure:
            return failure
        _, sep, dev = run.stderr.strip().rpartition("max deviation: ")
        if not sep:
            return Outcome(WRONG, f"no max deviation reported: {run.stderr[-200:]!r}")
        problems = [judge("max deviation", float(dev), 0.0, 0, self.TOLERANCE)]
        lines = run.stdout.splitlines()
        keys = [(e, h, n) for (e, h), n in itertools.product(CLASSES, sizes)]
        if len(lines) != len(keys) + 1:
            return Outcome(WRONG, f"{len(lines) - 1} rows, expected {len(keys)}")
        for line, (eps, eta, n) in zip(lines[1:], keys):
            f = line.split(",")
            if [int(f[0]), int(f[1]), int(f[4])] != [eps, eta, n]:
                problems.append(Outcome(WRONG, f"row {line!r}: expected class {(eps, eta, n)}"))
                continue
            e0 = ref.ground_energy(self.g, self.j, n)
            problems += [
                judge(f"N={n} g", float(f[2]), self.g, 1e-14, 0),
                judge(f"N={n} energy_ed", float(f[5]), e0, 0, 1e-9),
                judge(f"N={n} energy_expected", float(f[6]), e0, 1e-14, 0),
                judge(f"N={n} residual", float(f[7]), 0.0, 0, self.TOLERANCE),
                judge(f"N={n} overlap", float(f[8]), 1.0, 0, self.TOLERANCE),
            ]
            if int(f[9]) < 2:
                problems.append(Outcome(WRONG, f"N={n} degeneracy {f[9]} < 2"))
        return worst(problems)

    def ops(self):
        return [self._op(self.SIZES)]

    def warm_up_ops(self):
        return [self._op([4])]


# ---------------------------------------------------------------- verify


class Verify:
    """Thousands of small oracle calls: per-call overhead, not BLAS."""

    name = "verify"
    probe_parts = tuple(PARTS)
    points = 0

    def __init__(self, seed, tmp):
        rng = random.Random(seed)
        self.tmp, self.rng = tmp, rng
        self.eps = rng.choice((1, -1))
        self.sweep = (rng.uniform(-0.9, -0.3), rng.uniform(1.2, 2.0), 401)

    @staticmethod
    def _verify_op(extra=()):
        return Op("verify", lambda: CliRun(["verify", *extra]), Verify._check_verify)

    @staticmethod
    def _check_verify(run):
        lines = [ln for ln in run.stdout.splitlines() if ln.strip()]
        failure = run.exit_failure()
        if failure:
            return Outcome(FAILED, f"{failure.detail} {lines[-3:]}")
        bad = [ln for ln in lines if not ln.startswith("PASS ")]
        if bad or not any(ln.split()[-1] == "op-coverage" for ln in lines):
            return Outcome(WRONG, f"exit code 0 with lines {bad[:3]} of {len(lines)}")
        return Outcome(OK)

    def ops(self):
        check = ["--check"]
        return [self._verify_op(),
                sweep_op(self.tmp, self.rng, self.eps, self.sweep, [6, 8, 10], check)]

    def warm_up_ops(self):
        g_range = (*self.sweep[:2], 5)
        return [self._verify_op(["--n-list", "4"]),
                sweep_op(self.tmp, self.rng, self.eps, g_range, [4], ["--check"])]


# ---------------------------------------------------------------- large_ring


def _expectation_op(p, axis):
    """<sigma_x(N/2)> for axis None, else <s_a(1) s_a(N/2+1)>, against the closed form."""
    n, t = p.n, model.mps_matrices(p)
    if axis is None:
        name = f"expectation_one_point x N={n}"
        call = lambda: mps.expectation_one_point(t, SX, n // 2, n)  # noqa: E731
        want = lambda: ref.magnetization(p.epsilon, p.g, n)  # noqa: E731
    else:
        op = (SX, SY, SZ)[axis]
        name = f"expectation_two_point {'xyz'[axis]} N={n}"
        call = lambda: mps.expectation_two_point(t, op, op, n // 2 + 1, n)  # noqa: E731
        want = lambda: ref.correlators(p.g, n)[axis]  # noqa: E731
    return Op(name, call, lambda v: judge("value", complex(v), want(), *TOL))


def _pair_op(p, sites, scaled):
    def call():
        rho = entanglement.pair_density(p, *sites)
        return entanglement.wootters_concurrence(rho).c

    name = f"pair_density+wootters N={p.n} g={'g/N' if scaled else 'g'}"
    return Op(name, call, lambda c: judge("C", c, ref.concurrence(p.g, p.n), *TOL))


def _states_op(p):
    def call():
        return mps.build_state(model.mps_matrices(p), p.n), mps.explicit_ground_state(p)

    def check(states):
        a, b = (s.amplitudes for s in states)
        return worst([
            judge(f"N={p.n} norm trace", float(np.vdot(a, a).real), 1.0, 0, 1e-10),
            judge(f"N={p.n} norm explicit", float(np.vdot(b, b).real), 1.0, 0, 1e-10),
            judge(f"N={p.n} |<trace|explicit>|", float(abs(np.vdot(a, b))), 1.0, 0, 1e-10),
        ])

    return Op(f"build_state vs explicit N={p.n}", call, check)


class LargeRing:
    """Oracles and dense builders at the sizes the closed forms claim."""

    name = "large_ring"
    probe_parts = tuple(PARTS)
    EXPECTATION_SIZES = [10**2, 10**3, 10**4, 10**5]
    PAIR_SIZES = [10**2, 10**3, 10**4]
    STATE_SIZES = [12, 16, 20]
    points = 0

    def __init__(self, seed, tmp):
        rng = random.Random(seed)
        self.g = rng.uniform(0.2, 0.9)
        self.state_class = rng.choice(CLASSES)

    def _ops(self, exp_sizes, pair_sizes, state_sizes):
        def params(g, n, eps=1, eta=1):
            return model.ModelParams(epsilon=eps, eta=eta, g=g, j=1.0, n=n)

        ops = []
        for n in exp_sizes:
            ops += [_expectation_op(params(self.g, n), axis) for axis in (None, 0, 1, 2)]
        for n in pair_sizes:
            sites = (1, n // 2 + 1)
            ops.append(_pair_op(params(self.g, n), sites, False))
            ops.append(_pair_op(params(self.g / n, n), sites, True))
        # the largest dense state last, so that held results stay below its peak
        ops += [_states_op(params(self.g, n, *self.state_class)) for n in state_sizes]
        return ops

    def ops(self):
        return self._ops(self.EXPECTATION_SIZES, self.PAIR_SIZES, self.STATE_SIZES)

    def warm_up_ops(self):
        return self._ops([10], [10], [8])


WORKLOADS = {w.name: w for w in (Grid, EdCompare, Verify, LargeRing)}
