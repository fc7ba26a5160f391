"""Two-site null space, local projector Hamiltonian, Pauli decomposition
and the ring Hamiltonian applied bond by bond.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .model import couplings_from_params
from .pauli import PAULI, PAULI_PAIRS

KERNEL_RTOL = 1e-10

# Bell states in the (|00>, |01>, |10>, |11>) basis
PSI_PLUS = np.array([0, 1, 1, 0]) / np.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0]) / np.sqrt(2)
PHI_PLUS = np.array([1, 0, 0, 1]) / np.sqrt(2)
PHI_MINUS = np.array([1, 0, 0, -1]) / np.sqrt(2)

_PAULI_PAIRS = dict(zip((a + b for a in PAULI for b in PAULI), PAULI_PAIRS.reshape(-1, 4, 4)))


@dataclass(frozen=True)
class NullSpaceProblem:
    """Coefficient matrix M of sum_{j1 j2} c_{j1 j2} A_{j1} A_{j2} = 0
    together with an orthonormal basis of its kernel (columns).
    """

    m: np.ndarray
    kernel: np.ndarray

    @property
    def kernel_dim(self):
        return self.kernel.shape[1]


def null_space_k2(a0, a1):
    """Set up and solve the two-site null-space equation.

    The unknown vector is (c00, c01, c10, c11); row e of M holds entry e
    of the product A_{j1} A_{j2} for each column (j1, j2).
    """
    mats = (np.asarray(a0, dtype=complex), np.asarray(a1, dtype=complex))
    cols = [
        (mats[j1] @ mats[j2]).reshape(-1)
        for j1, j2 in itertools.product(range(2), repeat=2)
    ]
    m = np.array(cols).T
    _, s, vh = np.linalg.svd(m)
    tol = KERNEL_RTOL * (s[0] if s[0] > 0 else 1.0)
    rank = int(np.sum(s > tol))
    kernel = vh[rank:].conj().T
    return NullSpaceProblem(m=m, kernel=kernel)


def e_vectors(p):
    """The two unnormalized null-space vectors spanning the local projector.

    e1 = (1+eta)|psi_-> + (1-eta)|phi_->,
    e2 = (1+g)|psi_+> - epsilon*(1-g)|phi_+>.
    An array p.g gives e2 as the stack (*g.shape, 4); e1 does not depend on g.
    """
    g = np.asarray(p.g, dtype=float)[..., None]
    e1 = (1 + p.eta) * PSI_MINUS + (1 - p.eta) * PHI_MINUS
    e2 = (1 + g) * PSI_PLUS - p.epsilon * (1 - g) * PHI_PLUS
    return e1.astype(complex), e2.astype(complex)


def local_h(p):
    """Two-site operator h = J |e1><e1| + |e2><e2| (positive semidefinite);
    the stack (*g.shape, 4, 4) for an array p.g."""
    e1, e2 = e_vectors(p)
    return p.j * np.outer(e1, e1.conj()) + e2[..., :, None] * e2.conj()[..., None, :]


def constant_shift(p):
    """Per-bond identity coefficient c0 = J + (1 + g^2)/2 separating the
    projector form from the coupling form of the ring Hamiltonian."""
    return p.j + (1 + p.g * p.g) / 2


def pauli_decompose(h2):
    """Coefficients of a Hermitian 4x4 operator in the two-site Pauli basis.

    Returns a dict keyed by label pairs like "xx", "1x"; coefficients are
    tr(h2 (sigma_a x sigma_b)) / 4 and come out real for Hermitian input.
    """
    h2 = np.asarray(h2, dtype=complex)
    if h2.shape != (4, 4):
        raise ValueError("expected a 4x4 operator")
    if np.max(np.abs(h2 - h2.conj().T)) > 1e-12:
        raise ValueError("operator is not Hermitian")
    return {label: float((np.trace(h2 @ op) / 4).real) for label, op in _PAULI_PAIRS.items()}


def pauli_reconstruct(coeffs):
    """Inverse of pauli_decompose. Coefficients that are arrays of one shape
    give the stack (*shape, 4, 4) of the operators."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in coeffs.values()))
    h2 = np.zeros((*shape, 4, 4), dtype=complex)
    for label, c in coeffs.items():
        h2 += np.asarray(c)[..., None, None] * _PAULI_PAIRS[label]
    return h2


def bond_operator(p, form="projector"):
    """Real 4x4 bond term of the ring Hamiltonian, which sums it over the bonds.
    form="projector": local_h (positive semidefinite, annihilates the MPS state).
    form="coupling": jx sx.sx + jy sy.sy + jz sz.sz + (b/2)(sx.1 + 1.sx), which
    is the projector term minus c0*identity; split over both sites, the field
    makes this hold bond by bond and not only summed around the ring.
    An array p.g gives the stack (*g.shape, 4, 4), each member the bits of
    its own call.
    """
    if form == "projector":
        h2 = local_h(p)
    elif form == "coupling":
        c = couplings_from_params(p)
        h2 = pauli_reconstruct({"xx": c.jx, "yy": c.jy, "zz": c.jz, "x1": c.b / 2, "1x": c.b / 2})
    else:
        raise ValueError(f"unknown form {form!r}")
    return h2.real  # real, because sigma_y x sigma_y is a real matrix


def ring_apply(h2, vecs, n):
    """Sum over the ring bonds of the two-site operator h2 applied to each
    column of vecs, a (2^n, m) array; the result has dtype
    np.result_type(h2, vecs).  Batch axes of the bond terms (..., 4, 4) and
    of the vectors (..., 2^n, m) broadcast against each other, and the stack
    of results (..., 2^n, m) gives each member the bits of its own call.

    Bond l acts on sites (l, l+1) as h2[(s_l' s_{l+1}'), (s_l s_{l+1})],
    and bond n wraps around to (n, 1). Site k is bit n-k of a basis index,
    so for l < n the bond's two bits are axis -2 of vecs viewed as
    (..., 2^(l-1), 4, rest); the wrap bond moves site 1 next to site n and back.
    """
    h2, vecs = np.asarray(h2)[..., None, :, :], np.asarray(vecs)
    batch, m = vecs.shape[:-2], vecs.shape[-1]
    out = np.zeros((*np.broadcast_shapes(h2.shape[:-3], batch), 2**n, m),
                   np.result_type(h2, vecs))
    for l in range(1, n):
        out += (h2 @ vecs.reshape(*batch, 2 ** (l - 1), 4, -1)).reshape(out.shape)
    # (s_1, middle, s_n, column) -> (middle, (s_n s_1), column) and back
    wrap = vecs.reshape(*batch, 2, -1, 2, m).swapaxes(-4, -3).swapaxes(-3, -2)
    back = (h2 @ wrap.reshape(*batch, -1, 4, m)).reshape(*out.shape[:-2], -1, 2, 2, m)
    out += back.swapaxes(-3, -2).swapaxes(-4, -3).reshape(out.shape)
    return out
