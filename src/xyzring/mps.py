"""Trace-formula MPS machinery: amplitudes, full states, transfer
matrices, expectation values and the explicit product-form ground states.
"""

from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .pauli import SI, kron_all

DENSE_STATE_CAP = 20  # 2^20 amplitudes


@dataclass(frozen=True)
class PureState:
    """Normalized dense state on a ring of n spins.

    z is the squared norm of the unnormalized amplitudes (tr(E^n) for a
    trace-built state).
    """

    amplitudes: np.ndarray
    n: int
    z: Optional[float] = None

    def phase_fixed(self):
        """Amplitudes with the first nonzero entry rotated real positive."""
        a = self.amplitudes
        idx = np.flatnonzero(np.abs(a) > 1e-12)
        if idx.size == 0:
            return a.copy()
        ph = a[idx[0]] / abs(a[idx[0]])
        return a / ph


def overlap(psi, chi):
    """Inner product <psi|chi> of two PureStates."""
    return np.vdot(psi.amplitudes, chi.amplitudes)


def amplitude(t, bits):
    """Unnormalized amplitude tr(A_{i1} ... A_{iN}) for a bit pattern.

    bits may be a string like "0101" or any sequence of 0/1; length >= 3.
    """
    seq = [int(b) for b in bits]
    if len(seq) < 3:
        raise ValueError("need at least 3 sites")
    mats = (t.a0, t.a1)
    prod = np.eye(2, dtype=complex)
    for b in seq:
        prod = prod @ mats[b]
    return np.trace(prod)


def _site_products(mats, m):
    """The 2^m products A_{i1} ... A_{im}, indexed by the bits i1 ... im
    with i1 the most significant."""
    prods = mats
    for _ in range(m - 1):
        prods = (prods[:, None] @ mats).reshape(-1, 2, 2)
    return prods


def _all_amplitudes(t, n):
    """All 2^n trace amplitudes, site 1 in the most significant bit.

    The ring is split into sites 1..k and k+1..n with k = n // 2.  Since
    tr(L R) = sum_ab L_ab R_ba, every amplitude is an entry of one matrix
    product with inner size 4 between the 2^k left and the 2^(n-k) right
    products, taken in the tensors' own dtype (real for mps_matrices) and
    at least double precision.
    """
    mats = np.stack([t.a0, t.a1]).astype(np.result_type(t.a0, t.a1, np.float64))
    k = n // 2
    left = _site_products(mats, k).reshape(-1, 4)
    right_t = _site_products(mats, n - k).transpose(0, 2, 1).reshape(-1, 4)
    return (left @ right_t.T).ravel().astype(complex)


def build_state(t, n):
    """Normalized MPS state from the trace formula.

    The normalization constant Z is cross-checked against tr(E^n) and
    stored on the returned state.
    """
    if n > DENSE_STATE_CAP:
        raise ValueError(f"ring size {n} exceeds dense cap {DENSE_STATE_CAP}")
    if n < 3:
        raise ValueError("need at least 3 sites")
    amps = _all_amplitudes(t, n)
    z = float(np.sum(np.abs(amps) ** 2))
    if z < 1e-28:
        raise ValueError("all amplitudes vanish for these tensors")
    z_trace = np.trace(np.linalg.matrix_power(transfer_matrix(t), n))
    if abs(z_trace - z) > 1e-10 * max(z, 1.0):
        raise ArithmeticError(
            f"normalization mismatch: tr(E^n)={z_trace} vs sum |amp|^2={z}"
        )
    return PureState(amplitudes=amps / np.sqrt(z), n=n, z=z)


def transfer_matrix(t):
    """E = conj(A0) x A0 + conj(A1) x A1."""
    return transfer_with_operator(t, SI)


def transfer_with_operator(t, op):
    """Dressed transfer matrix E_O = sum_ij <i|O|j> conj(A_i) x A_j."""
    mats = np.stack([t.a0, t.a1]).astype(complex)
    e = np.einsum("ij,iac,jbd->abcd", np.asarray(op, dtype=complex), mats.conj(), mats)
    return e.reshape(4, 4)  # row (a, b), column (c, d), as in np.kron


def _contract(t, site_ops, n):
    """<prod_k O_k(k)> over a {site: op} dict: the trace of the product over
    sites 1..n of E_O at the sites in site_ops and E elsewhere, over tr(E^n).

    Every factor is divided by the spectral radius of E, which leaves the
    ratio unchanged and keeps the powers of E finite for any n.
    """
    with np.errstate(over="raise", invalid="raise"):
        e = transfer_matrix(t)
        radius = np.max(np.abs(np.linalg.eigvals(e)))
        e = e / radius
        factors, done = [], 0
        for site in sorted(site_ops):
            factors += [np.linalg.matrix_power(e, site - done - 1),
                        transfer_with_operator(t, site_ops[site]) / radius]
            done = site
        factors.append(np.linalg.matrix_power(e, n - done))
        return np.trace(reduce(np.matmul, factors)) / np.trace(np.linalg.matrix_power(e, n))


def expectation_one_point(t, op, k, n):
    """<O(k)> = tr(E^{k-1} E_O E^{n-k}) / tr(E^n).

    Overflow or an invalid value raises FloatingPointError.
    """
    if not 1 <= k <= n:
        raise ValueError(f"site index {k} outside 1..{n}")
    return _contract(t, {k: op}, n)


def expectation_two_point(t, op_a, op_b, r, n):
    """<O_a(1) O_b(r)> = tr(E_a E^{r-2} E_b E^{n-r}) / tr(E^n).

    Overflow or an invalid value raises FloatingPointError.
    """
    if not 2 <= r <= n:
        raise ValueError(f"separation {r} outside 2..{n}")
    return _contract(t, {1: op_a, r: op_b}, n)


def product_term_cell(p):
    """Site vectors of the two product terms of the explicit ground state
    on one two-site unit cell.

    Returns (term_a, term_b), each a pair (vector on sites 1, 3, 5, ...,
    vector on sites 2, 4, 6, ...) of unnormalized single-site 2-vectors.
    For g < 0 the square root continues as i*sqrt(-g).
    """
    sg = np.sqrt(complex(p.g))
    if p.eta == 1:
        phi_p = np.array([1 + sg, 1 - sg])
        phi_m = np.array([1 - sg, 1 + sg])
        cell = ((phi_p, phi_p), (phi_m, phi_m))
    else:
        if p.n % 2 != 0:
            raise ValueError("explicit eta=-1 ground state needs even n")
        y_p = np.array([1, 1j]) / np.sqrt(2)
        y_m = np.array([1, -1j]) / np.sqrt(2)
        chi_p = (1 + sg) * y_p + 1j * (1 - sg) * y_m
        chi_m = (1 + sg) * y_m - 1j * (1 - sg) * y_p
        cell = ((chi_p, chi_m), (chi_m, chi_p))
    if p.epsilon == -1:
        # local pi-rotation around z maps the epsilon = +1 state over
        flip = np.array([1.0, -1.0])
        cell = tuple((v1 * flip, v2 * flip) for v1, v2 in cell)
    return cell


def explicit_ground_state(p):
    """Closed-form ground state as a superposition of two product states."""
    term_a, term_b = ([term[k % 2] for k in range(p.n)] for term in product_term_cell(p))
    amps = kron_all(term_a) + kron_all(term_b)
    z = float(np.sum(np.abs(amps) ** 2))
    if z < 1e-28:
        raise ValueError("explicit ground state vanishes identically")
    return PureState(amplitudes=amps / np.sqrt(z), n=p.n, z=z)


def bell_pair_matrices(t):
    """The four matrices (A0 A_m + (-1)^n A1 A_{m+1 mod 2}) / sqrt(2).

    Returned in the order (m, n) = (0,0), (0,1), (1,0), (1,1); they
    commute pairwise for the eta = -1 tensors.
    """
    mats = (np.asarray(t.a0, dtype=complex), np.asarray(t.a1, dtype=complex))
    out = []
    for m in range(2):
        for sign_idx in range(2):
            phi = (mats[0] @ mats[m] + (-1) ** sign_idx * mats[1] @ mats[(1 + m) % 2])
            out.append(phi / np.sqrt(2))
    return tuple(out)
