"""Model parameters, coupling surface, MPS tensors and their symmetries.

The family is parametrized by two signs (epsilon, eta), a continuous
parameter g, a non-negative coupling weight J and the ring size N.
"""

import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .pauli import SZ

_SIGNS = (1, -1)
_FLIP_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])  # A1 = eps * A0 * _FLIP_SIGNS, entrywise


@dataclass(frozen=True)
class ModelParams:
    """One point of the two-parameter model family on a ring of n sites."""

    epsilon: int = 1
    eta: int = 1
    g: float = 0.0
    j: float = 1.0
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


def no_state_error(eta, n):
    """The ValueError for a sector without a ground state on a ring of n
    sites, or None: eta = -1 has no state on an odd ring (every amplitude
    vanishes)."""
    return ValueError("eta=-1 ground state needs even n") if eta == -1 and n % 2 else None


def ring_points(g_values, n_list, j):
    """ModelParams over the four (epsilon, eta) sign classes, g_values and
    n_list, in itertools.product order, leaving out the points without a
    ground state (no_state_error)."""
    return [
        ModelParams(epsilon=eps, eta=eta, g=g, j=j, n=n)
        for eps, eta, g, n in itertools.product(_SIGNS, _SIGNS, g_values, n_list)
        if no_state_error(eta, n) is None
    ]


def g_blocks(p, size):
    """replace(p, g=block) for consecutive blocks of at most size values of
    p.g (an array, flattened, or a scalar), each block a 1-D float array."""
    g = np.ravel(np.asarray(p.g, dtype=float))
    return [replace(p, g=g[start:start + size]) for start in range(0, g.size, size)]


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
    """Fixed-gauge site tensors A0 = [[1, g], [1, eta]], A1 = eps*[[1, -g], [-1, eta]].

    p.g may also be an array of g (say dataclasses.replace(p, g=grid)); the
    tensors are then the stacks (*grid.shape, 2, 2) at the (eps, eta) of p.
    """
    g = np.asarray(p.g, dtype=float)
    a0 = np.empty((*g.shape, 2, 2))
    a0[..., 0, 0] = a0[..., 1, 0] = 1.0
    a0[..., 0, 1] = g
    a0[..., 1, 1] = p.eta
    return MpsTensors(a0=a0, a1=p.epsilon * a0 * _FLIP_SIGNS)


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
    Each relation holds when every entry agrees to 1e-12, with no relative term.
    """
    tol = 1e-12
    a0 = np.asarray(t.a0, dtype=complex)
    a1 = np.asarray(t.a1, dtype=complex)
    sz = SZ.real

    def close(x, y):
        return bool(np.max(np.abs(x - y)) <= tol)

    flip = close(sz @ a0 @ sz, epsilon * a1) and close(sz @ a1 @ sz, epsilon * a0)

    b, c = a0[0, 1], a0[1, 0]
    if abs(b) < tol or abs(c) < tol:
        parity = None
    else:
        pi = np.diag([b, c]).astype(complex)
        pi_inv = np.diag([1.0 / b, 1.0 / c]).astype(complex)
        parity = close(pi @ a0.T @ pi_inv, a0) and close(pi @ a1.T @ pi_inv, a1)

    time_reversal = close(a0.imag, 0) and close(a1.imag, 0)
    return SymmetryReport(spin_flip=flip, parity=parity, time_reversal=time_reversal)
