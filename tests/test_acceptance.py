"""End-to-end acceptance gate.

Each criterion below is a self-contained property of the library checked at a
fixed tolerance; one pass/fail line per criterion is printed during the run and
repeated in the terminal summary.  Two sub-cases of criterion 6 are provably
unattainable as stated; they are kept as strict expected failures (with the
analysis in the xfail reasons) rather than weakened.
"""

import itertools
import math
import time

import numpy as np
import pytest

from dense_ref import dense_spectrum, op_on_sites, pair_density_brute
from xyzring import (
    ModelParams,
    build_state,
    concurrence_closed,
    constant_shift,
    correlations,
    couplings_from_params,
    e_vectors,
    explicit_ground_state,
    general_mps_matrices,
    ground_membership,
    local_h,
    magnetization_x,
    mps_matrices,
    null_space_k2,
    overlap,
    pair_density,
    pauli_decompose,
    ring_apply,
    scaled_concurrence_curve,
    scaling_limit,
    thermodynamic_magnetization,
    transfer_matrix,
    wootters_concurrence,
)
from xyzring.checks import VerifyConfig, run_verify
from xyzring.parent import bond_operator
from xyzring.pauli import SI, SX, SY, SZ

CRITERION_LINES = []

CLASSES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
G_GRID = [-2.0, -0.5, 0.3, 0.7, 1.0, 1.5]
J_GRID = [0.0, 0.5, 2.0]
N_GRID = [4, 6, 8]


def _record(num, ok, note=""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f"  [{note}]"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def _grid():
    for (eps, eta), g, j, n in itertools.product(CLASSES, G_GRID, J_GRID, N_GRID):
        if eta == -1 and n % 2:
            continue
        yield ModelParams(epsilon=eps, eta=eta, g=g, j=j, n=n)


_STATE_CACHE = {}


def _state(p):
    key = (p.epsilon, p.eta, p.g, p.n)
    if key not in _STATE_CACHE:
        _STATE_CACHE[key] = explicit_ground_state(p)
    return _STATE_CACHE[key]


def test_criterion_01_ground_state_certificate():
    t0 = time.monotonic()
    worst_res, worst_energy = 0.0, 0.0
    for p in _grid():
        psi = _state(p)
        h_proj = ring_apply(bond_operator(p, "projector"), np.eye(2**p.n), p.n)
        worst_res = max(worst_res, float(np.linalg.norm(h_proj @ psi.amplitudes)))
        h = ring_apply(bond_operator(p, "coupling"), np.eye(2**p.n), p.n)
        e0 = dense_spectrum(h).eigenvalues[0]
        expected = -p.n * (p.j + (1 + p.g**2) / 2)
        assert constant_shift(p) == pytest.approx(p.j + (1 + p.g**2) / 2)
        worst_energy = max(worst_energy, abs(e0 - expected))
    elapsed = time.monotonic() - t0
    ok = worst_res < 1e-10 and worst_energy < 1e-9 and elapsed < 120
    _record(1, ok, f"residual {worst_res:.1e}, energy dev {worst_energy:.1e}, "
                   f"{elapsed:.1f}s")


def test_criterion_02_trace_explicit_equivalence():
    worst = 0.0
    for p in _grid():
        ov = abs(overlap(build_state(mps_matrices(p), p.n), _state(p)))
        worst = max(worst, 1 - ov)
    _record(2, worst < 1e-10, f"worst 1-|overlap| = {worst:.1e}")


def test_criterion_03_correlator_closed_forms():
    worst_corr, worst_ident = 0.0, 0.0
    for g, n in itertools.product(G_GRID, range(4, 11)):
        psi = build_state(mps_matrices(ModelParams(g=g, n=n)), n)
        gx, gy, gz = correlations(g, n)
        mx = magnetization_x(1, g, n)
        rho = pair_density_brute(psi, 1, 2)
        worst_corr = max(
            worst_corr, abs(np.trace(np.kron(SX, SI) @ rho).real - mx)
        )
        for r in range(2, n + 1):
            rho = pair_density_brute(psi, 1, r)
            for op, val in ((SX, gx), (SY, gy), (SZ, gz)):
                worst_corr = max(
                    worst_corr,
                    abs(np.trace(np.kron(op, op) @ rho).real - val),
                )
        worst_ident = max(
            worst_ident,
            abs(gx + gy + gz - 1.0),
            abs((1 - gz) * (1 - gy) - mx * mx),
        )
    worked = (
        magnetization_x(1, 1 / 3, 4) == pytest.approx(10 / 17, abs=1e-12)
        and correlations(1 / 3, 4)
        == pytest.approx((8 / 17, -3 / 17, 12 / 17), abs=1e-12)
    )
    ok = worst_corr < 1e-10 and worst_ident < 1e-12 and worked
    _record(3, ok, f"vs direct {worst_corr:.1e}, identities {worst_ident:.1e}")


def test_criterion_04_transfer_spectrum_and_crossing():
    worst = 0.0
    for (eps, eta), g in itertools.product(CLASSES, G_GRID):
        t = mps_matrices(ModelParams(epsilon=eps, eta=eta, g=g))
        ev = np.sort(np.linalg.eigvals(transfer_matrix(t)).real)
        expected = np.sort([2 * (eta + g), 2 * (eta - g), 2 * (1 + g), 2 * (1 - g)])
        worst = max(worst, float(np.max(np.abs(ev - expected))))
    # level crossing at g=0: the dominant eigenvalue switches branch
    crossing = True
    for g in (1e-3, -1e-3):
        lam = np.max(np.linalg.eigvals(transfer_matrix(mps_matrices(ModelParams(g=g)))).real)
        crossing &= abs(lam - 2 * (1 + abs(g))) < 1e-12
        crossing &= (2 * (1 + g) - 2 * (1 - g) > 0) == (g > 0)
    _record(4, worst < 1e-12 and crossing, f"spectrum dev {worst:.1e}")


def test_criterion_05_concurrence_and_distance_independence():
    worst = 0.0
    for (eps, eta), g, n in itertools.product(CLASSES, G_GRID, [4, 6, 8, 10]):
        if eta == -1 and n % 2:
            continue
        p = ModelParams(epsilon=eps, eta=eta, g=g, n=n)
        c = wootters_concurrence(pair_density(p, 1, 2)).c
        worst = max(worst, abs(c - concurrence_closed(g, n)))
    spread = 0.0
    for g in (-0.5, 0.3, 0.7, 1.5):
        p = ModelParams(g=g, n=8)
        cs = [
            wootters_concurrence(pair_density(p, i, j)).c
            for i, j in itertools.combinations(range(1, 9), 2)
        ]
        spread = max(spread, max(cs) - min(cs))
    ok = worst < 1e-10 and spread < 1e-12
    _record(5, ok, f"closed-vs-Wootters {worst:.1e}, pair spread {spread:.1e}")


_SCALING_CASES = [
    pytest.param(0.5, id="g=0.5"),
    pytest.param(1.0, id="g=1"),
    pytest.param(
        2.0,
        id="g=2",
        marks=pytest.mark.xfail(
            strict=True,
            reason="finite-size deviation of N*C(g/N, N) is ~2g/N of the limit, "
            "i.e. 8% at g=2, N=50, which exceeds the stated 5% bound; "
            "the N=10^4 bound and curve ordering do hold there",
        ),
    ),
]


@pytest.mark.parametrize("g", _SCALING_CASES)
def test_criterion_06_scaling_relation(g):
    lim = scaling_limit(g)
    dev50 = abs(scaled_concurrence_curve(50, [g])[0][1] - lim)
    dev1e4 = abs(scaled_concurrence_curve(10**4, [g])[0][1] - lim)
    ok = dev50 < 0.05 * lim and dev1e4 < 0.001 * lim
    _record(6, ok, f"g={g}: dev/limit {dev50 / lim:.3f} @N=50, "
                   f"{dev1e4 / lim:.5f} @N=1e4")


_CURVE_SIZES = [6, 7, 8, 9, 10, 20, 30, 40, 50]


def _curve_ordered(g_values):
    for g in g_values:
        vals = [n * concurrence_closed(g / n, n) for n in _CURVE_SIZES]
        if not all(a > b for a, b in zip(vals, vals[1:])):
            return False
        if not vals[-1] > scaling_limit(g):
            return False
    return True


def test_criterion_06_curve_ordering():
    # the finite-size curves decrease toward the limit as N grows (fixed g > 0)
    grid = [g for g in np.linspace(0.0, 5.0, 101) if 0 < g <= 3.7]
    ok = _curve_ordered(grid)
    _record(6, ok, "curve ordering decreasing in N, 0 < g <= 3.7")


@pytest.mark.xfail(
    strict=True,
    reason="each scaled curve vanishes at g = N, so the smallest-N curves dip "
    "below their neighbours for g beyond ~3.8; the stated top-to-bottom "
    "ordering cannot hold over the full 0..5 grid",
)
def test_criterion_06_curve_ordering_large_g():
    grid = [g for g in np.linspace(0.0, 5.0, 101) if g > 3.7]
    ok = _curve_ordered(grid)
    _record(6, ok, "curve ordering for g > 3.7")


def test_criterion_07_null_space_construction():
    rng = np.random.default_rng(2024)
    worst_det = 0.0
    for _ in range(100):
        a, b, c, d = rng.normal(size=4)
        t = general_mps_matrices(a, b, c, d)
        det = np.linalg.det(null_space_k2(t.a0, t.a1).m).real
        formula = 16 * b * b * c * c * (a - d) ** 2 * (a + d) ** 2
        worst_det = max(worst_det, abs(det - formula) / max(abs(formula), 1e-300))
    worst_proj = 0.0
    for (eps, eta), g in itertools.product(CLASSES, G_GRID):
        p = ModelParams(epsilon=eps, eta=eta, g=g)
        prob = null_space_k2(*[m.astype(complex) for m in
                               (mps_matrices(p).a0, mps_matrices(p).a1)])
        e1, e2 = e_vectors(p)
        basis = np.linalg.qr(np.column_stack([e1, e2]))[0]
        proj_e = basis @ basis.conj().T
        proj_k = prob.kernel @ prob.kernel.conj().T
        if prob.kernel_dim == 2:
            worst_proj = max(worst_proj, float(np.max(np.abs(proj_e - proj_k))))
        else:
            worst_proj = max(
                worst_proj, float(np.max(np.abs(proj_k @ proj_e - proj_e)))
            )
    ok = worst_det < 1e-10 and worst_proj < 1e-10
    _record(7, ok, f"det rel {worst_det:.1e}, projector {worst_proj:.1e}")


def test_criterion_08_coupling_recovery():
    worst, worst_off = 0.0, 0.0
    for (eps, eta), g, j in itertools.product(CLASSES, G_GRID, J_GRID):
        p = ModelParams(epsilon=eps, eta=eta, g=g, j=j)
        coeffs = pauli_decompose(local_h(p))
        c = couplings_from_params(p)
        worst = max(
            worst,
            abs(coeffs["xx"] - c.jx),
            abs(coeffs["yy"] - c.jy),
            abs(coeffs["zz"] - c.jz),
            abs(coeffs["1x"] - c.b / 2),
            abs(coeffs["x1"] - c.b / 2),
            abs(coeffs["11"] - constant_shift(p)),
        )
        worst_off = max(
            worst_off,
            max(abs(v) for k, v in coeffs.items()
                if k not in ("xx", "yy", "zz", "1x", "x1", "11")),
        )
    ok = worst < 1e-12 and worst_off < 1e-12
    _record(8, ok, f"coupling dev {worst:.1e}, off-family {worst_off:.1e}")


def test_criterion_09_symmetry_maps():
    def rx(theta):
        return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * SX

    worst = 0.0
    for n in (4, 6):
        for g, j in ((0.7, 1.0), (-0.5, 0.5), (1.5, 2.0)):
            hp = ring_apply(bond_operator(ModelParams(epsilon=1, g=g, j=j, n=n), "coupling"),
                            np.eye(2**n), n)
            hm = ring_apply(bond_operator(ModelParams(epsilon=-1, g=g, j=j, n=n), "coupling"),
                            np.eye(2**n), n)
            uz = op_on_sites(n, {k: SZ for k in range(1, n + 1)})
            worst = max(worst, float(np.max(np.abs(uz @ hp @ uz - hm))))

            u2 = np.kron(rx(np.pi / 2), rx(-np.pi / 2))
            u = np.array([[1.0 + 0j]])
            for _ in range(n // 2):
                u = np.kron(u, u2)
            h1 = ring_apply(bond_operator(ModelParams(eta=1, g=g, j=j, n=n), "coupling"),
                            np.eye(2**n), n)
            hm1 = ring_apply(bond_operator(ModelParams(eta=-1, g=g, j=j, n=n), "coupling"),
                             np.eye(2**n), n)
            worst = max(worst, float(np.max(np.abs(u @ h1 @ u.conj().T - hm1))))
    _record(9, worst < 1e-12, f"entrywise dev {worst:.1e}")


def test_criterion_10_thermodynamic_discontinuity():
    geometric = True
    for eps, g in itertools.product((1, -1), (0.5, -0.5, 1.7, -2.0)):
        lim = thermodynamic_magnetization(eps, g)
        assert lim == pytest.approx(eps * (1 - abs(g)) / (1 + abs(g)), abs=1e-14)
        errs = [abs(magnetization_x(eps, g, n) - lim) for n in (8, 12, 16, 20, 24)]
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        geometric &= all(r < 1 for r in ratios)
        geometric &= max(ratios) / min(ratios) < 1.2  # near-constant ratio
    results, _ = run_verify(VerifyConfig())
    thermo = next(r for r in results if r.name == "thermodynamic-limits")
    report = thermo.details.get("magnetization_limit_discrepancy")
    reported = (
        report is not None
        and report["reciprocal_form(g=0.5)"]
        == pytest.approx(1 / report["limit(g=0.5)"])
    )
    _record(10, geometric and reported,
            "geometric convergence; limit-vs-reciprocal report emitted")
