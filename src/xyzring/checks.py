"""Named verification checks driven by the CLI `verify` subcommand.

Every check certifies a closed form or an invariant against an
independent oracle (dense state construction, exact diagonalization or
brute-force partial traces) and declares which library functions it
exercises. Op-coverage passes when every function that some check covers
is covered by a check that was not skipped.
"""

import itertools
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from . import ed, entanglement, observables, parent
from .model import (
    ModelParams,
    check_symmetries,
    couplings_from_params,
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
from .observables import SingularParameterError
from .pauli import SX, SY, SZ


def worst_error(*errors):
    """Largest of the errors and 0, NaN when any of them is NaN.

    The builtin max drops a NaN that follows a number (max(0.0, nan) is
    0.0), which would let a check pass on NaN.
    """
    return float(np.max(errors, initial=0.0))


@dataclass
class VerifyConfig:
    j: float = 1.0
    n_list: List[int] = field(default_factory=lambda: [4, 6])
    g_values: List[float] = field(default_factory=lambda: [-2.0, -0.5, 0.3, 0.7, 1.0, 1.5])
    tolerance: float = 1e-10


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    covers: List[str]  # "module.function" names
    details: Dict = field(default_factory=dict)


_REGISTRY: List = []


def _check(name, covers):
    """Register a check with the library functions it covers."""
    names = [f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}" for fn in covers]

    def wrap(fn):
        _REGISTRY.append((name, names, fn))
        return fn

    return wrap


def _singular_skips(cfg):
    """Skip records for the grid points g = -1, where the closed forms are singular."""
    skipped = [{"g": g, "reason": "singular parameter"} for g in cfg.g_values if g == -1]
    return {"skipped": skipped} if skipped else {}


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


@_check("normalization-consistency", [amplitude, build_state, transfer_matrix])
def check_normalization(cfg):
    errs = []
    for p in ring_points(cfg.g_values, cfg.n_list, cfg.j):
        t, n = mps_matrices(p), p.n
        psi = build_state(t, n)  # build_state cross-checks Z = tr(E^n)
        # spot-check two amplitudes against the direct trace
        for bits in ("0" * n, "01" * (n // 2) + "0" * (n % 2)):
            direct = amplitude(t, bits) / np.sqrt(psi.z)
            errs.append(abs(direct - psi.amplitudes[int(bits, 2)]))
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


@_check(
    "closed-form-correlators",
    [
        transfer_with_operator,
        expectation_one_point,
        expectation_two_point,
        observables.u_param,
        observables.magnetization_x,
        observables.correlations,
    ],
)
def check_closed_form_correlators(cfg):
    errs = []
    for p in ring_points([g for g in cfg.g_values if g != -1], cfg.n_list, cfg.j):
        t, g, n = mps_matrices(p), p.g, p.n
        if p.eta == 1:
            mx = observables.magnetization_x(p.epsilon, g, n)
            gx, gy, gz = observables.correlations(g, n)
            for k in range(1, n + 1):
                errs += [abs(expectation_one_point(t, SX, k, n) - mx),
                         abs(expectation_one_point(t, SY, k, n)),
                         abs(expectation_one_point(t, SZ, k, n))]
            # identities
            errs += [abs(gx + gy + gz - 1), abs((1 - gz) * (1 - gy) - mx * mx)]
            expected = [(gx, gy, gz)] * (n - 1)
        else:
            # the eta = -1 sector through the alternating map
            expected = [observables.correlations_eta_minus(g, n, r) for r in range(2, n + 1)]
        for r, values in enumerate(expected, start=2):
            errs += [abs(expectation_two_point(t, op, op, r, n) - value)
                     for op, value in zip((SX, SY, SZ), values)]
    worst = worst_error(*errs)
    return worst < cfg.tolerance, {"max_error": worst, **_singular_skips(cfg)}


@_check("ground-state-equivalence", [build_state, explicit_ground_state])
def check_ground_state_equivalence(cfg):
    ovs = [abs(overlap(build_state(mps_matrices(p), p.n), explicit_ground_state(p)))
           for p in ring_points(cfg.g_values, cfg.n_list, cfg.j)]
    worst = float(np.min(ovs, initial=1.0))  # NaN when any overlap is NaN
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
    errs = []
    dims = {}
    for p in ring_points(cfg.g_values, [4], cfg.j):
        t = mps_matrices(p)
        prob = parent.null_space_k2(t.a0, t.a1)
        dims[(p.epsilon, p.eta, p.g)] = prob.kernel_dim
        # null-space membership of each kernel vector
        mats = (t.a0.astype(complex), t.a1.astype(complex))
        for c in prob.kernel.T:
            comb = sum(
                c[2 * j1 + j2] * mats[j1] @ mats[j2]
                for j1, j2 in itertools.product(range(2), repeat=2)
            )
            errs.append(np.linalg.norm(comb))
        # kernel projector vs span{e1, e2}
        e1, e2 = parent.e_vectors(p)
        basis = np.linalg.qr(np.column_stack([e1, e2]))[0]
        proj_e = basis @ basis.conj().T
        proj_k = prob.kernel @ prob.kernel.conj().T
        if prob.kernel_dim == 2:
            errs.append(np.max(np.abs(proj_e - proj_k)))
        else:
            # extra degeneracy: span{e1,e2} must still lie inside the kernel
            errs.append(np.max(np.abs(proj_k @ proj_e - proj_e)))
    worst = worst_error(*errs)
    return worst < cfg.tolerance, {"max_error": worst, "kernel_dims": sorted(set(dims.values()))}


@_check("coupling-recovery", [parent.local_h, parent.pauli_decompose])
def check_coupling_recovery(cfg):
    errs = []
    diag = {"xx": "jx", "yy": "jy", "zz": "jz"}
    for p in ring_points(cfg.g_values, [4], cfg.j):
        coeffs = parent.pauli_decompose(parent.local_h(p))
        c = couplings_from_params(p)
        errs += [abs(coeffs[label] - getattr(c, attr)) for label, attr in diag.items()]
        errs += [abs(coeffs["1x"] - c.b / 2), abs(coeffs["x1"] - c.b / 2),
                 abs(coeffs["11"] - parent.constant_shift(p))]
        errs += [
            abs(v)
            for k, v in coeffs.items()
            if k not in ("xx", "yy", "zz", "1x", "x1", "11")
        ]
    worst = worst_error(*errs)
    return worst < 1e-12, {"max_error": worst}


@_check(
    "parent-hamiltonian",
    [parent.assemble_chain_h, ed.dense_spectrum, ed.ground_membership, ed.certify],
)
def check_parent_hamiltonian(cfg):
    res_errs, energy_errs, form_errs = [], [], []
    for p in ring_points(cfg.g_values, cfg.n_list, cfg.j):
        cert = ed.certify(p)
        res_errs += [cert.residual, 1 - cert.overlap]
        energy_errs.append(abs(cert.lowest_eigenvalue - cert.expected))
        form_errs.append(cert.form_mismatch)
    worst_res = worst_error(*res_errs)
    worst_energy = worst_error(*energy_errs)
    worst_forms = worst_error(*form_errs)
    ok = worst_res < cfg.tolerance and worst_energy < 1e-9 and worst_forms < 1e-10
    return ok, {
        "max_residual": worst_res,
        "max_energy_error": worst_energy,
        "max_form_mismatch": worst_forms,
    }


@_check("degeneracy-scan", [ed.ground_degeneracy_scan])
def check_degeneracy_scan(cfg):
    p = ModelParams(g=0.5, j=cfg.j, n=min(cfg.n_list))
    scan = ed.ground_degeneracy_scan(p, [g for g in cfg.g_values if g not in (0, 1)])
    # dimension 2 is the generic expectation; larger values are recorded
    # as measured degeneracies, never inflated away
    generic_ok = all(dim >= 2 for _, dim in scan)
    return generic_ok, {"scan": scan}


@_check(
    "concurrence-agreement",
    [
        entanglement.pair_density,
        entanglement.wootters_concurrence,
        entanglement.concurrence_closed,
    ],
)
def check_concurrence(cfg):
    errs = []
    for p in ring_points(cfg.g_values, cfg.n_list, cfg.j):
        closed = entanglement.concurrence_closed(p.g, p.n)
        cs = [
            entanglement.wootters_concurrence(entanglement.pair_density(p, i, j)).c
            for i, j in itertools.combinations(range(1, p.n + 1), 2)
        ]
        errs += [np.ptp(cs), abs(np.mean(cs) - closed)]
    worst = worst_error(*errs)
    return worst < cfg.tolerance, {"max_error": worst}


@_check(
    "scaling-relation",
    [entanglement.scaled_concurrence_curve, entanglement.scaling_limit],
)
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


@_check(
    "thermodynamic-limits",
    [observables.thermodynamic_magnetization, observables.thermodynamic_correlations],
)
def check_thermodynamic(cfg):
    ok = True
    errs = []
    for g in cfg.g_values:
        if g in (0, -1):
            continue
        lim = observables.thermodynamic_magnetization(1, g)
        prev = None
        for n in (8, 16, 32, 64):
            err = abs(observables.magnetization_x(1, g, n) - lim)
            if prev is not None and prev > 1e-14:
                ok &= err <= prev + 1e-14
            prev = err
        gx, gy, gz = observables.thermodynamic_correlations(g)
        errs.append(abs(gx + gy + gz - 1))
    worst = worst_error(*errs)
    # known-discrepancy report: the reciprocal form of the limit
    report = {
        "limit(g=0.5)": observables.thermodynamic_magnetization(1, 0.5),
        "reciprocal_form(g=0.5)": observables.thermodynamic_magnetization_alt(1, 0.5),
        "note": "reciprocal form exceeds |mx| <= 1; the finite-N-consistent limit is used",
    }
    details = {"identity_error": worst, "magnetization_limit_discrepancy": report,
               **_singular_skips(cfg)}
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


def run_verify(cfg=None):
    """Run every registered check; returns (results, coverage_ok)."""
    cfg = cfg or VerifyConfig()
    results = []
    required, covered = set(), set()
    for name, covers, fn in _REGISTRY:
        required.update(covers)
        try:
            ok, details = fn(cfg)
            status = "pass" if ok else "fail"
        except SingularParameterError as exc:
            status, details = "skip", {"reason": f"singular parameter: {exc}"}
        results.append(CheckResult(name=name, status=status, covers=covers, details=details))
        if status != "skip":
            covered.update(covers)
    return results, required <= covered
