"""Dense Kronecker references for the tests: operators and product states
built factor by factor with np.kron, independent of the bond-by-bond
ring_apply and of the trace-formula states they are compared with.

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
