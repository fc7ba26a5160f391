"""Model parameters, coupling surface, MPS tensors and their symmetries.

The family is parametrized by two signs (epsilon, eta), a continuous
parameter g, a non-negative coupling weight J and the ring size N.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .pauli import SZ

_SIGNS = (1, -1)


@dataclass(frozen=True)
class ModelParams:
    """One point of the two-parameter model family on a ring of n sites."""

    epsilon: int = 1
    eta: int = 1
    g: float = 0.0
    j: float = 0.0
    n: int = 4

    def __post_init__(self):
        if self.epsilon not in _SIGNS:
            raise ValueError(f"epsilon must be +1 or -1, got {self.epsilon}")
        if self.eta not in _SIGNS:
            raise ValueError(f"eta must be +1 or -1, got {self.eta}")
        if self.j < 0:
            raise ValueError(f"coupling weight j must be >= 0, got {self.j}")
        if self.n < 3:
            raise ValueError(f"ring size n must be >= 3, got {self.n}")


@dataclass(frozen=True)
class Couplings:
    """Exchange couplings and field strength of the ring Hamiltonian."""

    jx: float
    jy: float
    jz: float
    b: float


@dataclass(frozen=True)
class MpsTensors:
    """Bond-dimension-2 site tensors."""

    a0: np.ndarray
    a1: np.ndarray


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of the tensor-level symmetry checks.

    parity is None when the conjugating matrix diag(b, c) is singular
    (b = 0 or c = 0), in which case the check is not applicable.
    """

    spin_flip: bool
    parity: Optional[bool]
    time_reversal: bool


def ring_points(g_values, n_list, j):
    """ModelParams over the four (epsilon, eta) sign classes, g_values and
    n_list, in itertools.product order.  eta = -1 has no state on odd rings
    (every amplitude vanishes), so those points are left out."""
    return [
        ModelParams(epsilon=eps, eta=eta, g=g, j=j, n=n)
        for eps, eta, g, n in itertools.product(_SIGNS, _SIGNS, g_values, n_list)
        if eta == 1 or n % 2 == 0
    ]


def couplings_from_params(p):
    """Couplings on the exactly solvable surface for the given parameters."""
    g = p.g
    return Couplings(
        jx=-p.j + (1 + g * g) / 2,
        jy=-p.eta * p.j + g,
        jz=-p.eta * p.j - g,
        b=p.epsilon * (g * g - 1),
    )


def mps_matrices(p):
    """Fixed-gauge site tensors A0 = [[1, g], [1, eta]], A1 = eps*[[1, -g], [-1, eta]]."""
    a0 = np.array([[1.0, p.g], [1.0, p.eta]], dtype=float)
    a1 = p.epsilon * np.array([[1.0, -p.g], [-1.0, p.eta]], dtype=float)
    return MpsTensors(a0=a0, a1=a1)


def general_mps_matrices(a, b, c, d, epsilon=1):
    """Spin-flip-symmetric tensors in the pre-gauge (a, b, c, d) form."""
    if epsilon not in _SIGNS:
        raise ValueError(f"epsilon must be +1 or -1, got {epsilon}")
    a0 = np.array([[a, b], [c, d]], dtype=complex)
    a1 = epsilon * np.array([[a, -b], [-c, d]], dtype=complex)
    return MpsTensors(a0=a0, a1=a1)


def check_symmetries(t, epsilon):
    """Check spin-flip, parity and time-reversal relations of the tensors.

    Spin flip: sigma_z A0 sigma_z = epsilon*A1 (and with A0, A1 swapped).
    Parity: Pi A_i^T Pi^{-1} = A_i with Pi = diag(b, c); skipped (None)
    when Pi is singular.  Time reversal is trivial for real tensors.
    """
    tol = 1e-12
    a0 = np.asarray(t.a0, dtype=complex)
    a1 = np.asarray(t.a1, dtype=complex)
    sz = SZ.real

    flip = (
        np.allclose(sz @ a0 @ sz, epsilon * a1, atol=tol)
        and np.allclose(sz @ a1 @ sz, epsilon * a0, atol=tol)
    )

    b, c = a0[0, 1], a0[1, 0]
    if abs(b) < tol or abs(c) < tol:
        parity = None
    else:
        pi = np.diag([b, c]).astype(complex)
        pi_inv = np.diag([1.0 / b, 1.0 / c]).astype(complex)
        parity = np.allclose(pi @ a0.T @ pi_inv, a0, atol=tol) and np.allclose(
            pi @ a1.T @ pi_inv, a1, atol=tol
        )

    time_reversal = np.allclose(a0.imag, 0, atol=tol) and np.allclose(
        a1.imag, 0, atol=tol
    )
    return SymmetryReport(spin_flip=flip, parity=parity, time_reversal=time_reversal)
