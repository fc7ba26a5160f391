"""Two-spin reduced density matrices of the MPS ground states,
Wootters concurrence, the closed concurrence formula and its universal
scaling limit.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import mps_matrices, no_state_error
from .mps import _first, _naming, expectation_two_point
from .observables import _reduced
from .pauli import PAULI_PAIRS, SIGMA, SY

_YY = np.kron(SY, SY).real  # real symmetric

PSD_TOL = 1e-10


def pair_density(p, i, j):
    """Reduced density matrix 1/4 sum_ab <s_a(i) s_b(j)> s_a x s_b of sites
    (i, j), s_0 the identity, with all 16 correlators from one transfer-matrix
    contraction; exact for both eta sectors, at a cost of O(log n).

    The ring is translation invariant, so (i, j) is the pair (1, (j - i) % n + 1).
    An array p.g and an integer array j give the stack (*g.shape, *j.shape, 4, 4).
    """
    n, j = p.n, np.asarray(j)
    if np.any(j == i) or not 1 <= i <= n or np.any((j < 1) | (j > n)):
        raise ValueError(f"sites ({i}, {j}) must be distinct and within 1..{n}")
    if error := no_state_error(p.eta, n):
        raise error
    values = expectation_two_point(mps_matrices(p), SIGMA[:, None], SIGMA, (j - i) % n + 1, n).real
    values = np.moveaxis(values, (np.ndim(p.g), np.ndim(p.g) + 1), (-2, -1))
    return np.einsum("...ab,abxy->...xy", values, PAULI_PAIRS) / 4


@dataclass(frozen=True)
class ConcurrenceResult:
    """Wootters concurrence with the sorted square-root eigenvalues of
    rho*rho_tilde (arrays over the members of a stack)."""

    c: float
    sqrt_eigenvalues: Tuple[float, float, float, float]


def wootters_concurrence(rho):
    """Concurrence C = max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    The l_i are the decreasing square roots of the eigenvalues of
    rho * (sy x sy) rho^* (sy x sy), computed as the singular values of
    sqrt(rho) (sy x sy) conj(sqrt(rho)), which is numerically exact for
    nearly singular rho.  A stack (..., 4, 4) gives c (...) and
    sqrt_eigenvalues (..., 4) as arrays, each member's as its own call gives
    them; the error of a member that is not a density matrix names its index.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 density matrix")
    w, v = np.linalg.eigh(rho)
    negative = w[..., 0] < -PSD_TOL
    skew = np.max(np.abs(rho - rho.conj().swapaxes(-2, -1)), axis=(-2, -1)) > PSD_TOL
    for bad, flaw in ((skew, "is not Hermitian"),
                      (np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1) > PSD_TOL,
                       "does not have unit trace"),
                      (negative, f"is not positive semidefinite ({w[_first(negative)][0]})")):
        if bad.any():
            raise _naming(ValueError(f"density matrix {flaw}"), _first(bad))
    sqrt_rho = (v * np.sqrt(np.clip(w, 0, None))[..., None, :]) @ v.conj().swapaxes(-2, -1)
    k = sqrt_rho @ _YY @ sqrt_rho.conj()
    sv = np.linalg.svd(k, compute_uv=False)
    c = np.maximum(0.0, sv[..., 0] - sv[..., 1] - sv[..., 2] - sv[..., 3])
    return ConcurrenceResult(c, sv) if c.ndim else ConcurrenceResult(float(c), tuple(sv.tolist()))


def concurrence_closed(g, n):
    """Closed form C = 4|g| |1-|g||^{n-2} / |(1+g)^n + (1-g)^n| of every pair,
    for g a scalar or an array.

    In the reduced parameter v = (1-|g|)/(1+|g|) this is
    C = |v|^{n-2}(1-v^2)/|1+v^n|, the |Gy| of g >= 0 and the |Gz| of g < 0,
    so C = min(|Gy|, |Gz|).  It is read from the same log-domain evaluation
    as the correlators: n up to ~1e6 neither overflows nor underflows
    prematurely, and C is 0 at g = 0 and at |g| = 1 (g = -1 included).
    """
    return np.abs(_reduced(g, n)[2])


def scaled_concurrence_curve(n, g_grid):
    """Points (g, n*C(g/n, n)) of the scaled-concurrence curve, g_grid a scalar or an array."""
    g = np.atleast_1d(np.asarray(g_grid, dtype=float))
    return list(zip(g.tolist(), (n * concurrence_closed(g / n, n)).tolist()))


def scaling_limit(g):
    """Universal large-n limit 2|g| e^{-|g|} / cosh(g) of n*C(g/n, n), g a scalar or an array."""
    a = np.abs(np.asarray(g, dtype=float))
    with np.errstate(over="ignore"):  # cosh overflows from 710, and the limit underflows from ~377
        limit = 2 * a * np.exp(-a) / np.cosh(a)
    return np.where(a > 700, 0.0, limit)[()]
