"""Two-spin reduced density matrices of the product-form ground states,
Wootters concurrence, the closed concurrence formula and its universal
scaling limit.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import ModelParams
from .mps import product_term_cell
from .pauli import SY

_YY = np.kron(SY, SY).real  # real symmetric

PSD_TOL = 1e-10


def pair_density(p, i, j):
    """Reduced density matrix of sites (i, j) from the two-product-term
    structure of the ground state; exact for both eta sectors.

    The traced-out sites contribute the overlaps of the unit-cell vectors
    raised to the number of traced sites of each parity.  The weights are
    formed in the log domain and scaled by the largest, so they stay finite
    for any n, and the cost does not grow with n.
    """
    if i == j:
        raise ValueError("sites must be distinct")
    n = p.n
    if n < 4:
        raise ValueError("need n >= 4")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"sites ({i}, {j}) outside 1..{n}")
    cell = product_term_cell(p)  # cell[term][parity]
    # traced-out sites with an even and with an odd 0-based index
    traced = [len(range(par, n, 2)) - ((i - 1) % 2 == par) - ((j - 1) % 2 == par)
              for par in (0, 1)]
    log_w = np.zeros((2, 2), dtype=complex)
    for s, t, par in itertools.product(range(2), range(2), range(2)):
        if traced[par]:
            ov = np.vdot(cell[t][par], cell[s][par])
            log_w[s, t] += traced[par] * np.log(ov) if ov else -np.inf
    w = np.exp(log_w - np.max(log_w.real))
    kets = [np.kron(term[(i - 1) % 2], term[(j - 1) % 2]) for term in cell]
    rho = sum(w[s, t] * np.outer(kets[s], kets[t].conj())
              for s, t in itertools.product(range(2), range(2)))
    return rho / np.trace(rho).real


def phi_overlap(g):
    """<phi_+|phi_-> of the unnormalized single-site vectors; equals
    2(1-g) for g >= 0."""
    (phi_p, _), (phi_m, _) = product_term_cell(ModelParams(g=g))
    return np.vdot(phi_p, phi_m)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Wootters concurrence with the sorted square-root eigenvalues of
    rho*rho_tilde."""

    c: float
    sqrt_eigenvalues: Tuple[float, float, float, float]


def wootters_concurrence(rho):
    """Concurrence C = max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    The l_i are the decreasing square roots of the eigenvalues of
    rho * (sy x sy) rho^* (sy x sy), computed as the singular values of
    sqrt(rho) (sy x sy) conj(sqrt(rho)), which is numerically exact for
    nearly singular rho.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 density matrix")
    if np.max(np.abs(rho - rho.conj().T)) > PSD_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1) > PSD_TOL:
        raise ValueError("density matrix does not have unit trace")
    w, v = np.linalg.eigh(rho)
    if w[0] < -PSD_TOL:
        raise ValueError(f"density matrix is not positive semidefinite ({w[0]})")
    sqrt_rho = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    k = sqrt_rho @ _YY @ sqrt_rho.conj()
    sv = np.linalg.svd(k, compute_uv=False)
    c = max(0.0, sv[0] - sv[1] - sv[2] - sv[3])
    return ConcurrenceResult(c=float(c), sqrt_eigenvalues=tuple(float(x) for x in sv))


def concurrence_closed(g, n):
    """Closed form C = 4|g| |1-|g||^{n-2} / |(1+g)^n + (1-g)^n|.

    Evaluated in the log domain so that n up to ~1e6 neither overflows
    nor underflows prematurely.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if g == 0 or abs(g) == 1:
        return 0.0
    log_p = math.log(abs(1 + g))
    log_q = math.log(abs(1 - g))
    # signs of (1+-g)^n
    s_p = (-1) ** n if g < -1 else 1
    s_q = (-1) ** n if g > 1 else 1
    terms = [(n * log_p, s_p), (n * log_q, s_q)]
    m = max(t[0] for t in terms)
    denom = abs(sum(s * math.exp(t - m) for t, s in terms))
    log_num = math.log(4 * abs(g)) + (n - 2) * math.log(abs(1 - abs(g)))
    return math.exp(log_num - m) / denom


def scaled_concurrence_curve(n, g_grid):
    """Points (g, n*C(g/n, n)) of the scaled-concurrence curve."""
    return [(g, n * concurrence_closed(g / n, n)) for g in g_grid]


def scaling_limit(g):
    """Universal large-n limit 2|g| e^{-|g|} / cosh(g) of n*C(g/n, n)."""
    return 2 * abs(g) * math.exp(-abs(g)) / math.cosh(g)
