"""Pauli matrices and dense Kronecker embedding helpers.

Conventions: sigma_z|0> = +|0>, site 1 occupies the most significant
bit of a computational-basis index.
"""

from functools import reduce

import numpy as np

SI = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"1": SI, "x": SX, "y": SY, "z": SZ}


def kron_all(factors):
    """Kronecker product of a sequence of vectors or matrices, left to right."""
    return reduce(np.kron, factors, np.ones(1, dtype=complex))


def op_on_sites(n, site_ops):
    """Dense 2^n x 2^n operator from a {site: 2x2 matrix} dict (1-based sites)."""
    return kron_all(site_ops.get(k, SI) for k in range(1, n + 1))

