"""Named verification checks driven by the CLI `verify` subcommand.

Every check certifies a closed form or an invariant against an
independent oracle (dense state construction, exact diagonalization or
transfer-matrix contraction) and declares which library functions it
exercises. Op-coverage passes when every function that some check covers
is covered by a check that was not skipped.
"""

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List

import numpy as np

from . import ed, entanglement, mps, observables, parent
from .model import (
    ModelParams,
    check_symmetries,
    couplings_from_params,
    g_blocks,
    general_mps_matrices,
    mps_matrices,
    ring_points,
)
from .mps import (
    amplitude,
    bell_pair_matrices,
    build_state,
    expectation_one_point,
    expectation_two_point,
    explicit_ground_state,
    overlap,
    transfer_matrix,
    transfer_with_operator,
)
from .pauli import SIGMA


def worst_error(*errors):
    """Largest entry of the errors (numbers or arrays) and 0, NaN if any is NaN.

    The builtin max drops a NaN that follows a number (max(0.0, nan) is
    0.0), which would let a check pass on NaN.
    """
    return float(np.max(np.hstack([0.0, *map(np.ravel, errors)])))


BLOCK_AMPLITUDES = 2**14  # dense amplitudes that the dense checks build at once
DEFAULT_SIZES = (4, 6)  # with DEFAULT_G_VALUES, the grid of verify and ed-compare without flags
DEFAULT_G_VALUES = (-2.0, -0.5, 0.3, 0.7, 1.0, 1.5)


@dataclass
class VerifyConfig:
    j: float = ModelParams.j
    n_list: List[int] = field(default_factory=lambda: list(DEFAULT_SIZES))
    g_values: List[float] = field(default_factory=lambda: list(DEFAULT_G_VALUES))
    tolerance: float = 1e-10


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    covers: List[str]  # "module.function" names
    details: Dict = field(default_factory=dict)


_REGISTRY: List = []


def _check(name, covers, reason=None, high=np.inf, singular=()):
    """Register a check with the library functions it covers, the largest ring
    size high that its oracle reaches and the g its closed forms do not take
    (singular).  The check runs without the larger sizes (each recorded as
    skipped for the reason given) and the singular g; with none left, ok is None (skip)."""
    names = [f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}" for fn in covers]

    def wrap(fn):
        def run(cfg):
            sizes = [n for n in cfg.n_list if n <= high]
            skipped = [{"n": n, "reason": reason} for n in sorted(set(cfg.n_list) - set(sizes))]
            skipped += [{"g": g, "reason": "singular parameter"} for g in cfg.g_values
                        if g in singular]
            g_values = [g for g in cfg.g_values if g not in singular]
            if not sizes or not g_values:
                return None, {"skipped": skipped}
            ok, details = fn(replace(cfg, n_list=sizes, g_values=g_values))
            return ok, {**details, **({"skipped": skipped} if skipped else {})}

        _REGISTRY.append((name, names, run))
        return run

    return wrap


def _grid_classes(cfg):
    """One ModelParams per (eps, eta, n) of ring_points, holding the whole g grid as an array."""
    return ring_points([np.array(cfg.g_values, dtype=float)], cfg.n_list, cfg.j)


@_check("coupling-surface", [couplings_from_params])
def check_couplings(cfg):
    errs = []
    for p in ring_points(cfg.g_values, [4], cfg.j):
        c = couplings_from_params(p)
        errs += [abs(c.jy + c.jz + 2 * p.eta * cfg.j), abs(c.jy - c.jz - 2 * p.g),
                 abs(c.b - p.epsilon * (p.g * p.g - 1))]
    worst = worst_error(*errs)
    return worst < 1e-12, {"max_error": worst}


@_check("tensor-symmetries", [mps_matrices, check_symmetries])
def check_tensor_symmetries(cfg):
    ok = True
    for p in ring_points(cfg.g_values, [4], cfg.j):
        rep = check_symmetries(mps_matrices(p), p.epsilon)
        ok &= rep.spin_flip and rep.time_reversal
        ok &= rep.parity is None if p.g == 0 else rep.parity is True
    return ok, {}


@_check("normalization-consistency", [amplitude, build_state, transfer_matrix],
        f"dense state needs n <= {mps.DENSE_STATE_CAP}", high=mps.DENSE_STATE_CAP)
def check_normalization(cfg):
    errs = []
    for p in _grid_classes(cfg):
        n = p.n
        for block in g_blocks(p, max(1, BLOCK_AMPLITUDES >> n)):
            t = mps_matrices(block)
            with mps._naming_g(block.g, n):
                psi = build_state(t, n)  # cross-checks Z = tr(E^n)
            # spot-check two amplitudes of every member against the direct trace
            for bits in ("0" * n, "01" * (n // 2) + "0" * (n % 2)):
                direct = amplitude(t, bits) / np.sqrt(psi.z)
                errs.append(np.abs(direct - psi.amplitudes[:, int(bits, 2)]))
    worst = worst_error(*errs)
    return worst < 1e-12, {"max_error": worst}


@_check("transfer-spectrum", [transfer_matrix, transfer_with_operator])
def check_transfer_spectrum(cfg):
    errs = []
    for p in ring_points(cfg.g_values, [4], cfg.j):
        t, eta, g = mps_matrices(p), p.eta, p.g
        ev = np.sort_complex(np.linalg.eigvals(transfer_matrix(t)))
        expect = np.sort_complex(
            np.array([2 * (eta + g), 2 * (eta - g), 2 * (1 + g), 2 * (1 - g)], complex)
        )
        errs.append(np.max(np.abs(ev - expect)))
    worst = worst_error(*errs)
    return worst < 1e-12, {"max_error": worst}


def _separations(n):
    """Every r = 2..n up to n = 1000, above that ~60 geometric r that include 2, n // 2 and n."""
    if n <= 1000:
        return np.arange(2, n + 1)
    r = np.sort(np.append(np.geomspace(2, n, 64).astype(int), n // 2))
    return r[np.append(True, r[1:] != r[:-1])]  # np.unique would import numpy.ma


@_check("closed-form-correlators",
        [transfer_with_operator, expectation_one_point, expectation_two_point,
         observables.u_param, observables.magnetization_x, observables.correlations],
        singular=(-1,))
def check_closed_form_correlators(cfg):
    errs = []
    for p in _grid_classes(cfg):
        t, g, n = mps_matrices(p), p.g, p.n
        separations = _separations(n)  # in one contraction over the x, y, z stack
        if p.eta == 1:
            mx = observables.magnetization_x(p.epsilon, g, n)
            gx, gy, gz = observables.correlations(g, n)
            # the log-domain form against eps u (1 + u^{n-2})/(1 + u^n) in plain powers,
            # taken at 1/u where |u| > 1 (the form is invariant under u -> 1/u)
            u = observables.u_param(g)
            u = np.divide(1, u, out=u, where=np.abs(u) > 1)
            errs.append(np.abs(p.epsilon * u * (1 + u ** (n - 2)) / (1 + u**n) - mx))
            # (mx, 0, 0) at site 1; the transfer-matrix trace is cyclic, so every site gives it
            errs.append(np.abs(expectation_one_point(t, SIGMA[1:], 1, n) - np.outer(mx, [1, 0, 0])))
            # identities
            errs += [np.abs(gx + gy + gz - 1), np.abs((1 - gz) * (1 - gy) - mx * mx)]
            expected = (gx[:, None], gy[:, None], gz[:, None])
        else:
            # the eta = -1 sector through the alternating map
            expected = observables.correlations_eta_minus(g[:, None], n, separations)
        expected = np.stack(np.broadcast_arrays(*expected), axis=1)  # (g, operator, r)
        errs.append(np.abs(expectation_two_point(t, SIGMA[1:], SIGMA[1:], separations, n) - expected))
    worst, counts = worst_error(*errs), {n: len(_separations(n)) for n in cfg.n_list}
    return worst < cfg.tolerance, {"max_error": worst, "separations": counts}


@_check("ground-state-equivalence", [build_state, explicit_ground_state],
        f"dense state needs n <= {mps.DENSE_STATE_CAP}", high=mps.DENSE_STATE_CAP)
def check_ground_state_equivalence(cfg):
    ovs = []
    for p in _grid_classes(cfg):
        for block in g_blocks(p, max(1, BLOCK_AMPLITUDES >> p.n)):
            with mps._naming_g(block.g, p.n):
                psi = build_state(mps_matrices(block), p.n)
                chi = explicit_ground_state(block)
            ovs.append(np.abs(overlap(psi, chi)))
    worst = float(np.min(np.hstack([1.0, *ovs])))  # NaN when any overlap is NaN
    return worst > 1 - 1e-10, {"min_overlap": worst}


@_check("bell-pair-commutation", [bell_pair_matrices])
def check_bell_pairs(cfg):
    errs = []
    for p in ring_points(cfg.g_values, [4], cfg.j):
        if p.eta == 1:
            continue  # the pairs commute for the eta = -1 tensors
        phis = bell_pair_matrices(mps_matrices(p))
        errs += [np.max(np.abs(a @ b - b @ a)) for a, b in itertools.combinations(phis, 2)]
    worst = worst_error(*errs)
    return worst < 1e-12, {"max_commutator": worst}


@_check("null-space-kernel", [parent.null_space_k2, parent.e_vectors])
def check_null_space(cfg):
    errs, dims = [], set()
    for p in ring_points(cfg.g_values, [4], cfg.j):
        t = mps_matrices(p)
        prob = parent.null_space_k2(t.a0, t.a1)
        dims.add(prob.kernel_dim)
        # M c = sum_{j1 j2} c_{j1 j2} A_{j1} A_{j2} of each kernel vector c
        errs.append(np.linalg.norm(prob.m @ prob.kernel, axis=0))
        # the kernel is span{e1, e2}: rank 2, so the two projectors agree
        basis = np.linalg.qr(np.column_stack(parent.e_vectors(p)))[0]
        errs.append(np.max(np.abs(basis @ basis.conj().T - prob.kernel @ prob.kernel.conj().T)))
    worst, dims = worst_error(*errs), sorted(dims)
    return worst < cfg.tolerance and dims == [2], {"max_error": worst, "kernel_dims": dims}


@_check("coupling-recovery", [parent.local_h, parent.pauli_decompose])
def check_coupling_recovery(cfg):
    errs = []
    for p in ring_points(cfg.g_values, [4], cfg.j):
        c = couplings_from_params(p)
        # every other Pauli pair must be absent
        want = {"xx": c.jx, "yy": c.jy, "zz": c.jz, "1x": c.b / 2, "x1": c.b / 2,
                "11": parent.constant_shift(p)}
        coeffs = parent.pauli_decompose(parent.local_h(p))
        errs += [abs(v - want.get(k, 0.0)) for k, v in coeffs.items()]
    worst = worst_error(*errs)
    return worst < 1e-12, {"max_error": worst}


@_check("parent-hamiltonian",
        [parent.ring_apply, ed.ring_spectrum, ed.ground_membership, ed.certify],
        f"ED needs n <= {ed.DENSE_CAP}", high=ed.DENSE_CAP)
def check_parent_hamiltonian(cfg):
    # one certify call per class; the ground space holds the two product terms'
    # span, at the energy -n*c0 formed here and not taken from certify
    certs, expected = [], []
    for p in _grid_classes(cfg):
        certs += ed.certify(p)
        expected += (-p.n * parent.constant_shift(p)).tolist()
    worst_res = worst_error(*(c.residual for c in certs), *(abs(1 - c.overlap) for c in certs))
    worst_energy = worst_error(*(abs(c.lowest_eigenvalue - e) for c, e in zip(certs, expected)))
    worst_forms = worst_error(*(c.form_mismatch for c in certs))
    min_degeneracy = min(c.degeneracy for c in certs)
    ok = (worst_res < cfg.tolerance and worst_energy < 1e-9 and worst_forms < 1e-10
          and min_degeneracy >= 2)
    return ok, {
        "max_residual": worst_res,
        "max_energy_error": worst_energy,
        "max_form_mismatch": worst_forms,
        "min_degeneracy": min_degeneracy,
    }


@_check("concurrence-agreement",
        [entanglement.pair_density, entanglement.wootters_concurrence,
         entanglement.concurrence_closed])
def check_concurrence(cfg):
    errs = []
    for p in _grid_classes(cfg):
        # every pair (1, r) is equally entangled: one pair density per (g, r)
        cs = entanglement.wootters_concurrence(
            entanglement.pair_density(p, 1, _separations(p.n))).c
        closed = entanglement.concurrence_closed(p.g, p.n)
        errs += [np.ptp(cs, axis=1), np.abs(cs - closed[:, None])]
    worst, counts = worst_error(*errs), {n: len(_separations(n)) for n in cfg.n_list}
    return worst < cfg.tolerance, {"max_error": worst, "separations": counts}


@_check("scaling-relation", [entanglement.scaled_concurrence_curve, entanglement.scaling_limit])
def check_scaling(cfg):
    # finite-size deviation of the scaled curve is ~2g/N, so the bound
    # at N=50 is taken as 2.5*g/N (the 5%-of-limit bound only holds for
    # g <= ~1 there); at N=1e4 the 0.1%-of-limit bound is comfortable
    ok = True
    details = {}
    for g in (0.5, 1.0, 2.0):
        lim = entanglement.scaling_limit(g)
        (_, v50) = entanglement.scaled_concurrence_curve(50, [g])[0]
        (_, v1e4) = entanglement.scaled_concurrence_curve(10**4, [g])[0]
        ok &= abs(v50 - lim) < 2.5 * g / 50 * lim
        ok &= abs(v1e4 - lim) < 0.001 * lim
        ok &= abs(v1e4 - lim) < abs(v50 - lim)
        details[f"g={g}"] = {"n50": v50, "n1e4": v1e4, "limit": lim}
    return ok, details


@_check("thermodynamic-limits",
        [observables.thermodynamic_magnetization, observables.thermodynamic_correlations],
        singular=(-1, 0))  # the limits are discontinuous at g = 0
def check_thermodynamic(cfg):
    g = np.array(cfg.g_values, dtype=float)
    lim = observables.thermodynamic_magnetization(1, g)
    # rows n = 8, 16, 32, 64, one call each over the g grid: every error above
    # 1e-14 bounds the next one
    errs = np.abs([observables.magnetization_x(1, g, n) - lim for n in (8, 16, 32, 64)])
    prev, err = errs[:-1], errs[1:]
    ok = bool(np.all(~(prev > 1e-14) | (err <= prev + 1e-14)))
    gx, gy, gz = observables.thermodynamic_correlations(g)
    worst = worst_error(*np.abs(gx + gy + gz - 1))
    # known-discrepancy report: the reciprocal form of the limit
    report = {
        "limit(g=0.5)": observables.thermodynamic_magnetization(1, 0.5),
        "reciprocal_form(g=0.5)": observables.thermodynamic_magnetization_alt(1, 0.5),
        "note": "reciprocal form exceeds |mx| <= 1; the finite-N-consistent limit is used",
    }
    details = {"identity_error": worst, "magnetization_limit_discrepancy": report}
    return ok and worst < 1e-12, details


@_check("general-form-determinant", [parent.null_space_k2])
def check_general_determinant(cfg):
    rng = np.random.default_rng(2024)
    errs = []
    for _ in range(20):
        a, b, c, d = rng.normal(size=4)
        t = general_mps_matrices(a, b, c, d)
        det = np.linalg.det(parent.null_space_k2(t.a0, t.a1).m)
        formula = 16 * b * b * c * c * (a - d) ** 2 * (a + d) ** 2
        scale = max(abs(formula), 1e-30)
        errs.append(abs(det.real - formula) / scale)
    worst = worst_error(*errs)
    return worst < 1e-10, {"max_rel_error": worst}


def run_verify(cfg):
    """Run every registered check; returns (results, coverage_ok)."""
    results = []
    required, covered = set(), set()
    for name, covers, fn in _REGISTRY:
        required.update(covers)
        ok, details = fn(cfg)
        status = "skip" if ok is None else "pass" if ok else "fail"
        results.append(CheckResult(name=name, status=status, covers=covers, details=details))
        if status != "skip":
            covered.update(covers)
    return results, required <= covered
