"""Dense references for the tests: operators and product states built factor
by factor with np.kron, independent of the bond-by-bond ring_apply and of
the trace-formula states they are compared with, and the partial-trace pair
density, independent of the transfer-matrix contraction.

Conventions as in xyzring.pauli: site 1 is the most significant bit.
"""

from functools import reduce

import numpy as np

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
