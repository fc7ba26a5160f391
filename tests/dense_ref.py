"""Dense references for the tests: operators and product states built factor
by factor with np.kron, independent of the bond-by-bond ring_apply and of
the trace-formula states they are compared with, the partial-trace pair
density, independent of the transfer-matrix contraction, the two-contraction
dressing of a transfer matrix, the spectrum of a whole dense matrix,
independent of the sector blocks of ring_spectrum, and the sector walk that
solves every sector block with eigh, the reference for the bits of
ring_spectrum.

Conventions as in xyzring.pauli: site 1 is the most significant bit.
"""

from functools import reduce

import numpy as np

from xyzring.ed import DEGENERACY_TOL, HERMITICITY_TOL, SpectrumResult, _ring_sectors
from xyzring.parent import ring_apply
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


def ring_spectrum_all_eigh(h2, n):
    """ring_spectrum of a stack of bond terms (G, 4, 4) that takes every
    sector's eigenvalues and eigenvectors from one np.linalg.eigh of its
    stacked blocks: the list of the members' results, the reference for the
    bits of ring_spectrum, which solves only the ground sectors with eigh.
    No input checks; see ring_spectrum for the sectors and the ground cut."""
    reps, orbits, stab, chars, members, copies = _ring_sectors(n)
    stack, size = np.asarray(h2).reshape(-1, 4, 4), len(reps)
    units = np.zeros((2**n, size))
    units[reps, np.arange(size)] = 1.0
    cols = ring_apply(stack, units, n)
    gathered = cols[:, orbits] / np.sqrt(np.outer(stab, stab))
    blocks = (chars @ gathered.reshape(len(stack), len(orbits), -1)).reshape(
        len(stack), -1, size, size)
    sectors = [np.linalg.eigh((block if twice == 2 else block.real)[:, sel[:, None], sel])
               for block, sel, twice in zip(blocks.swapaxes(0, 1), members, copies)]
    w = np.sort(np.concatenate([ws for (ws, vs), c in zip(sectors, copies) for _ in range(c)],
                               axis=1), axis=1)
    tops = w[:, 0] + DEGENERACY_TOL * np.fmax.reduce(np.abs(w), axis=1)
    finite = np.isfinite(w).all(axis=1)
    for _, vs in sectors:
        finite &= np.isfinite(vs).all(axis=(1, 2))
    results = []
    for m, (wm, top) in enumerate(zip(w, tops)):
        dim = int((wm <= top).sum())
        if not finite[m]:
            wm[0] = np.nan
            results.append(SpectrumResult(wm, dim, np.full((2**n, max(dim, 1)), np.nan)))
            continue
        columns = []
        for (ws, vs), sel, char, twice in zip(sectors, members, chars, copies):
            c = vs[m][:, ws[m] <= top]
            if not c.shape[1]:
                continue
            weights = c * np.sqrt(stab[sel] / (2 * n))[:, None]
            vec = np.zeros((2**n, c.shape[1]), complex)
            vec[orbits[:, sel]] = char.conj()[:, None, None] * weights
            columns += [vec.real] if twice == 1 else [np.sqrt(2) * vec.real, np.sqrt(2) * vec.imag]
        results.append(SpectrumResult(wm, dim, np.hstack(columns)))
    return results
