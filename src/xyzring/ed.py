"""Dense exact diagonalization: the independent oracle for ground
energies, degeneracies and ground-space membership.
"""

from dataclasses import dataclass, replace

import numpy as np

from .mps import PureState, build_state
from .model import mps_matrices
from .parent import assemble_chain_h

DEGENERACY_TOL = 1e-8
HERMITICITY_TOL = 1e-10
BLOCK_ROWS = 256  # rows per block where a matrix-size temporary is avoided


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted spectrum with the extracted ground space."""

    eigenvalues: np.ndarray
    ground_space_dim: int
    ground_vectors: np.ndarray  # columns, orthonormal


def dense_spectrum(h):
    """Full Hermitian spectrum and the eigenspace of the minimum.

    Real input stays real, so a real symmetric matrix is diagonalized in
    float64 and its ground vectors come out real.
    """
    h = np.asarray(h)
    h = h.astype(complex if np.iscomplexobj(h) else float, copy=False)
    # max |H - H^dagger|, a block of rows at a time to bound the temporaries
    for start in range(0, len(h), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        if np.max(np.abs(h[rows] - h[:, rows].conj().T)) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh(h)
    dim = int(np.sum(w <= w[0] + DEGENERACY_TOL))
    return SpectrumResult(
        eigenvalues=w, ground_space_dim=dim, ground_vectors=v[:, :dim]
    )


def rayleigh_quotient(h, v):
    """<v|H|v> / <v|v> accumulated in long double.

    Evaluated on an eigenvector of h, the quotient is accurate to second
    order in the eigenvector error, so it does not carry the last-digit
    noise of the eigensolver's eigenvalue. H is converted a block of rows
    at a time to bound the long-double copy.
    """
    v = np.asarray(v)
    dtype = np.clongdouble if np.iscomplexobj(h) or np.iscomplexobj(v) else np.longdouble
    v = v.astype(dtype)
    num = dtype(0)
    for start in range(0, len(v), BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        num += np.vdot(v[start:stop], np.asarray(h[start:stop], dtype=dtype) @ v)
    return float((num / np.vdot(v, v)).real)


def ground_membership(h, psi, spectrum=None):
    """(residual norm, overlap with the ground space) of a normalized state.

    residual = ||H psi - <psi|H|psi> psi||; overlap = ||P_ground psi||.
    spectrum: a precomputed dense_spectrum of h or of any h + c*identity
    (the same eigenvectors); computed from h when omitted.
    """
    vec = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi, complex)
    if abs(np.linalg.norm(vec) - 1) > 1e-10:
        raise ValueError("state is not normalized")
    if spectrum is None:
        spectrum = dense_spectrum(h)
    hv = np.asarray(h) @ vec
    energy = np.vdot(vec, hv)
    residual = float(np.linalg.norm(hv - energy * vec))
    proj = spectrum.ground_vectors.conj().T @ vec
    return residual, float(np.linalg.norm(proj))


def ground_degeneracy_scan(p, g_grid):
    """Measured ground-space dimension of the projector form across a g grid
    at fixed (eps, eta, J, n)."""
    out = []
    for g in g_grid:
        h = assemble_chain_h(replace(p, g=float(g)))
        out.append((float(g), dense_spectrum(h).ground_space_dim))
    return out


def state_expectation_one(psi, op, k):
    """Direct <psi|O(k)|psi> on a dense state (brute-force oracle)."""
    t = psi.amplitudes.reshape([2] * psi.n)
    t = np.moveaxis(t, k - 1, 0).reshape(2, -1)
    return complex(np.vdot(t, np.asarray(op, complex) @ t))


def state_expectation_two(psi, op_a, op_b, i, j):
    """Direct <psi|O_a(i) O_b(j)|psi> on a dense state (brute-force oracle)."""
    t = psi.amplitudes.reshape([2] * psi.n)
    t = np.moveaxis(t, [i - 1, j - 1], [0, 1]).reshape(4, -1)
    op = np.kron(np.asarray(op_a, complex), np.asarray(op_b, complex))
    return complex(np.vdot(t, op @ t))


def pair_density_brute(psi, i, j):
    """Partial-trace oracle for the reduced state of sites (i, j)."""
    t = psi.amplitudes.reshape([2] * psi.n)
    t = np.moveaxis(t, [i - 1, j - 1], [0, 1]).reshape(4, -1)
    return t @ t.conj().T


def mps_state(p):
    """Trace-formula state for the model tensors at p (convenience)."""
    return build_state(mps_matrices(p), p.n)
