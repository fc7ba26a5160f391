"""Dense references for the tests: operators and product states built factor
by factor with np.kron, independent of the bond-by-bond ring_apply and of
the trace-formula states they are compared with, the partial-trace pair
density, independent of the transfer-matrix contraction, the two-contraction
dressing of a transfer matrix, and the spectrum of a whole dense matrix,
independent of the sector blocks of ring_spectrum.

Conventions as in xyzring.pauli: site 1 is the most significant bit.
"""

from functools import reduce

import numpy as np

from xyzring.ed import DEGENERACY_TOL, HERMITICITY_TOL, SpectrumResult
from xyzring.pauli import SI


def kron_all(factors):
    """Kronecker product of a sequence of vectors or matrices, left to right."""
    return reduce(np.kron, factors, np.ones(1, dtype=complex))


def op_on_sites(n, site_ops):
    """Dense 2^n x 2^n operator from a {site: 2x2 matrix} dict (1-based sites)."""
    return kron_all(site_ops.get(k, SI) for k in range(1, n + 1))


def pair_density_brute(psi, i, j):
    """Partial-trace oracle for the reduced state of sites (i, j): a 4x4
    density for one state, and the stack (..., 4, 4) of the members' densities
    for a batch (amplitudes (..., 2^n))."""
    batch = psi.amplitudes.shape[:-1]
    t = psi.amplitudes.reshape(*batch, *[2] * psi.n)
    b = len(batch)
    t = np.moveaxis(t, [b + i - 1, b + j - 1], [b, b + 1]).reshape(*batch, 4, -1)
    return t @ t.conj().swapaxes(-1, -2)


def transfer_with_operator_einsum(t, op):
    """Dressed transfer matrix E_O = sum_ij <i|O|j> conj(A_i) x A_j in two
    two-operand contractions, B_j = sum_i O_ij conj(A_i) and then
    E_O = sum_j B_j x A_j: the reference for the bits of the one-product
    mps.transfer_with_operator."""
    mats = np.stack([t.a0, t.a1], axis=-3).astype(complex)
    b = np.einsum("...ij,...iac->...jac", np.asarray(op, dtype=complex), mats.conj())
    e = np.einsum("...jac,...jbd->...abcd", b, mats)
    return e.reshape(*e.shape[:-4], 4, 4)


def dense_spectrum(h):
    """Full spectrum of a dense Hermitian matrix from one eigh, and the
    eigenspace of its minimum w[0]: the eigenvalues w <= w[0] +
    DEGENERACY_TOL * max |w|, the ground space of ring_spectrum.
    Real input stays real, so a real symmetric matrix gives real ground vectors.
    """
    h = np.asarray(h)
    h = h.astype(complex if np.iscomplexobj(h) else float, copy=False)
    if abs(h - h.conj().T).max() > HERMITICITY_TOL * max(1.0, abs(h).max()):
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh(h)
    dim = int((w <= w[0] + DEGENERACY_TOL * np.abs(w).max()).sum())
    # a copy, so that the result does not keep the whole eigenvector matrix alive
    return SpectrumResult(w, dim, v[:, :dim].copy())
