"""Trace-formula MPS machinery: amplitudes, full states, transfer
matrices, expectation values and the explicit product-form ground states.
"""

import contextlib
from dataclasses import dataclass

import numpy as np

from .model import MpsTensors, no_state_error
from .pauli import SI

DENSE_STATE_CAP = 20  # 2^20 amplitudes


@dataclass(frozen=True)
class PureState:
    """Normalized dense state on a ring of n spins, or a batch of them.

    One state has amplitudes of shape (2^n,) and a float z; a batch has
    amplitudes of shape (..., 2^n), one row per member, and z of the batch
    shape (...).  z is the squared norm of the unnormalized amplitudes
    (tr(E^n) for a trace-built state).
    """

    amplitudes: np.ndarray
    n: int
    z: float


def overlap(psi, chi):
    """Inner product <psi|chi> of two PureStates, or member by member of two batches."""
    return (psi.amplitudes.conj()[..., None, :] @ chi.amplitudes[..., None])[..., 0, 0][()]


def amplitude(t, bits):
    """Unnormalized amplitude tr(A_{i1} ... A_{iN}) for a bit pattern, or the
    array of them for tensors of shape (..., 2, 2).

    bits may be a string like "0101" or any sequence of 0/1; length >= 3.
    """
    seq = [int(b) for b in bits]
    if len(seq) < 3:
        raise ValueError("need at least 3 sites")
    mats = (t.a0, t.a1)
    prod = np.eye(2, dtype=complex)
    for b in seq:
        prod = prod @ mats[b]
    return np.trace(prod, axis1=-2, axis2=-1)


def _stack(t):
    """A0 and A1 stacked as (..., 2, 2, 2): batch axes, then the bit, then the matrix."""
    return np.stack([t.a0, t.a1], axis=-3)


def _site_products(mats, m):
    """The 2^m products A_{i1} ... A_{im} of the stack mats (..., 2, 2, 2),
    as (..., 2^m, 2, 2), indexed by the bits i1 ... im with i1 the most
    significant."""
    prods, right, shape = mats, mats[..., None, :, :, :], (*mats.shape[:-3], -1, 2, 2)
    for _ in range(m - 1):
        prods = (prods[..., None, :, :] @ right).reshape(shape)
    return prods


def _all_amplitudes(t, n):
    """All 2^n trace amplitudes, site 1 in the most significant bit: shape
    (2^n,) for tensors (2, 2), (..., 2^n) for a batch (..., 2, 2).

    The ring is split into sites 1..k and k+1..n with k = n // 2.  Since
    tr(L R) = sum_ab L_ab R_ba, every amplitude is an entry of one matrix
    product with inner size 4 between the 2^k left and the 2^(n-k) right
    products (one such product per member), taken and returned in the
    tensors' own dtype (real for mps_matrices) and at least double precision.
    """
    mats = _stack(t).astype(np.result_type(t.a0, t.a1, np.float64))
    batch = mats.shape[:-3]
    k = n // 2
    left = _site_products(mats, k).reshape(*batch, -1, 4)
    right_t = _site_products(mats, n - k).swapaxes(-1, -2).reshape(*batch, -1, 4)
    return (left @ right_t.swapaxes(-1, -2)).reshape(*batch, -1)


def _first(bad):
    """Index of the first flagged member of a batch, () for one state."""
    return tuple(map(int, np.unravel_index(np.argmax(bad), bad.shape)))


def _naming(error, k):
    """error with its message naming batch member k (an index tuple, () for
    one state), which it also keeps as error.member for a caller that knows
    more about the member, such as its g."""
    if k:
        error.member = k[0] if len(k) == 1 else k
        error.args = (f"{error.args[0]} at batch member {error.member}",)
    return error


@contextlib.contextmanager
def _naming_g(g, n):
    """Name the g (of the batch's array g) and n of the failing member in a batch error."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        if hasattr(exc, "member"):
            exc.args = (f"{exc.args[0]} (g={g[exc.member]}, n={n})",)
        raise


def build_state(t, n):
    """Normalized MPS state from the trace formula, for tensors a0, a1 of
    shape (2, 2) or for a batch of them, shape (..., 2, 2).

    One state has amplitudes (2^n,) and a float z; a batch has amplitudes
    (..., 2^n) and z of the batch shape.  The z of every member is
    cross-checked against tr(E^n), with E^n from np.linalg.matrix_power on
    the stack (..., 4, 4) in long double (in double, rounding E^n puts tr(E^3)
    4e-9 of z off at g = -1e8).  A member whose amplitudes vanish or whose z
    disagrees raises, and for a batch the error names the first such member.
    z is one inner product per member over the amplitudes' float64 view, so
    no |amp|^2 buffer is made: complex amplitudes are scaled in place, and a
    build peaks at 1.0x its output; real amplitudes are scaled into the
    complex output, 1.5x.
    """
    if n > DENSE_STATE_CAP:
        raise ValueError(f"ring size {n} exceeds dense cap {DENSE_STATE_CAP}")
    if n < 3:
        raise ValueError("need at least 3 sites")
    amps = _all_amplitudes(t, n)
    w = amps.view(np.float64)  # re and im interleaved for complex amplitudes: w.w = sum |amp|^2
    z = (w[..., None, :] @ w[..., :, None])[..., 0, 0]
    e_n = np.linalg.matrix_power(transfer_matrix(t).astype(np.clongdouble), n)
    # z = tr(E^n) is at most sum |(E^n)_ij|; a state that vanishes leaves
    # only rounding, ~1e-32 of that scale
    vanish = z <= 1e-16 * np.abs(e_n).sum(axis=(-2, -1))
    if vanish.any():
        raise _naming(ValueError("all amplitudes vanish for these tensors"), _first(vanish))
    z_trace = np.trace(e_n, axis1=-2, axis2=-1)
    mismatch = np.abs(z_trace - z) > 1e-10 * np.maximum(z, 1.0)
    if mismatch.any():
        k = _first(mismatch)
        raise _naming(ArithmeticError(
            f"normalization mismatch: tr(E^n)={z_trace[k]} vs sum |amp|^2={z[k]}"), k)
    # a reciprocal multiply, as in numpy's complex-by-real division, keeps the bits
    out = amps if amps.dtype == complex else np.empty(amps.shape, complex)
    amps = np.multiply(amps, (1 / np.sqrt(z))[..., None], out=out)
    return PureState(amplitudes=amps, n=n, z=z if z.ndim else float(z))


def transfer_matrix(t):
    """E = conj(A0) x A0 + conj(A1) x A1."""
    return transfer_with_operator(t, SI)


def transfer_with_operator(t, op):
    """Dressed transfer matrix E_O = sum_ij <i|O|j> conj(A_i) x A_j, taken
    as one matrix product: the four conj(A_i) x A_j are formed once, as the
    rows (i, j) of K (..., 4, 16), and E_O is the row O (..., 1, 4) times K.

    The batch axes of the operators (..., 2, 2) and of the tensors
    (..., 2, 2) broadcast against each other: a stack of operators for one
    pair of tensors, or one operator for a stack of tensors, gives the stack
    (..., 4, 4), each member the bits of its own call.  Overflow is not
    raised here but left as inf or NaN in the result for the caller to name.
    """
    mats = _stack(t).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        k = mats.conj()[..., :, None, :, None, :, None] * mats[..., None, :, None, :, None, :]
        row = np.asarray(op, complex).reshape(*np.shape(op)[:-2], 1, 4)
        e = row @ k.reshape(*k.shape[:-6], 4, 16)
    return e.reshape(*e.shape[:-2], 4, 4)  # row (a, b), column (c, d), as in np.kron


def expectation_one_point(t, op, k, n):
    """<O(k)> = tr(E^{k-1} E_O E^{n-k}) / tr(E^n), which by cyclicity of the
    trace is tr(E_O E^{n-1}) / tr(E^n) for every k (per member of a batch).

    Overflow or an invalid value raises FloatingPointError; n < 2 or a zero tr(E^n) ValueError.
    """
    if n < 2:
        raise ValueError(f"ring size {n} below 2")
    if not 1 <= k <= n:
        raise ValueError(f"site index {k} outside 1..{n}")
    return expectation_two_point(t, op, SI, 2, n)


def expectation_two_point(t, op_a, op_b, r, n):
    """<O_a(1) O_b(r)> = tr(E_a E^{r-2} E_b E^{n-r}) / tr(E^n), with E_a and
    E_b the transfer matrices dressed with op_a and op_b, for tensors (2, 2)
    or a batch of them (..., 2, 2) and for an int r or every entry of an
    integer array r in 2..n.  op_a and op_b are operators (2, 2) or stacks
    (..., 2, 2) whose batch shapes broadcast to ops; the result has the shape
    (*batch, *ops, *r.shape), and each member gives the bits of its own call.

    1, op_a and op_b are dressed as one stack.  Every factor is divided by the
    spectral radius of its E, which leaves the ratio unchanged and keeps the
    powers of E finite for any n.  Every power is one np.linalg.matrix_power
    on the stack of members: E^n once, and each distinct exponent among
    r - 2 > 0 and n - r once per call (at r = 2 the chain starts E_a E_b).
    A member whose dressed matrices overflow raises FloatingPointError, one
    whose tr(E^n) is 0 (eta = -1, odd n) ValueError.
    """
    r, batch = np.asarray(r), np.shape(t.a0)[:-2]
    outside = (r < 2) | (r > n)
    if outside.any():
        raise ValueError(f"separation {r[outside].flat[0]} outside 2..{n}")
    shape_a, shape_b = np.shape(op_a)[:-2], np.shape(op_b)[:-2]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        t = MpsTensors(np.reshape(t.a0, (-1, 2, 2)), np.reshape(t.a1, (-1, 2, 2)))
        ops = np.concatenate([SI[None], np.reshape(op_a, (-1, 2, 2)), np.reshape(op_b, (-1, 2, 2))])
        dressed = transfer_with_operator(t, ops[:, None])
        overflow = ~np.isfinite(dressed).all(axis=(0, 2, 3)).reshape(batch)
        if overflow.any():  # the dressing leaves overflow as inf or NaN
            raise _naming(FloatingPointError("overflow in the dressed transfer matrices"),
                          _first(overflow))
        dressed = dressed / np.abs(np.linalg.eigvals(dressed[0])).max(axis=-1)[:, None, None]
        e, k = dressed[0], len(ops) - np.size(op_b) // 4  # E, then E_a, then E_b
        e_a, e_b = dressed[1:k].reshape(shape_a + e.shape), dressed[k:].reshape(shape_b + e.shape)
        total = np.linalg.matrix_power(e, n).trace(axis1=1, axis2=2)
        vanish = (total == 0).reshape(batch)
        if vanish.any():  # eta = -1 on an odd ring, unless rounding leaves a residue
            raise _naming(ValueError("tr(E^n) is 0 for these tensors"), _first(vanish))
        exponents = np.concatenate([r[r > 2] - 2, np.ravel(n - r)])
        powers = {x: np.linalg.matrix_power(e, x) for x in set(exponents.tolist())}
        values = np.empty((*np.broadcast_shapes(shape_a, shape_b), len(e), r.size), complex)
        for i, x in enumerate(r.flat):
            left = e_a if x == 2 else e_a @ powers[x - 2]
            values[..., i] = (left @ e_b @ powers[n - x]).trace(axis1=-2, axis2=-1) / total
        return np.moveaxis(values, -2, 0).reshape(batch + values.shape[:-2] + r.shape)[()]


def product_term_vectors(p):
    """Site-1 vectors (a, b) of the two product terms of the explicit ground
    state, unnormalized single-site vectors (*g.shape, 2).  For eta = +1 the
    terms carry a and b on every site; for eta = -1 they alternate, (a, b, a,
    ...) and (b, a, b, ...).  For g < 0 the square root continues as i*sqrt(-g).
    """
    sg = np.sqrt(np.asarray(p.g, dtype=complex))[..., None]
    if p.eta == 1:
        a = np.concatenate([1 + sg, 1 - sg], axis=-1)
        b = np.concatenate([1 - sg, 1 + sg], axis=-1)
    else:
        y_p = np.array([1, 1j]) / np.sqrt(2)
        y_m = np.array([1, -1j]) / np.sqrt(2)
        a = (1 + sg) * y_p + 1j * (1 - sg) * y_m
        b = (1 + sg) * y_m - 1j * (1 - sg) * y_p
    if p.epsilon == -1:
        # local pi-rotation around z maps the epsilon = +1 state over
        flip = np.array([1.0, -1.0])
        a, b = a * flip, b * flip
    return a, b


def explicit_ground_state(p):
    """Closed-form ground state: the sum of two product states with site-1
    vectors a and b is the trace state of A_s = diag(a_s, b_s).  For eta = -1
    the terms alternate (a, b) and (b, a) over the sites, and A_s = diag(a_s,
    b_s) sigma^x gives A_s1 A_s2 = diag(a_s1 b_s2, b_s1 a_s2) on each pair,
    which closes around the ring only for even n.
    An array p.g gives the batch of the states over g."""
    if error := no_state_error(p.eta, p.n):
        raise error
    a, b = product_term_vectors(p)
    mats = np.zeros((2, *a.shape[:-1], 2, 2), complex)  # A_0, A_1
    mats[..., 0, 0], mats[..., 1, 1] = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    if p.eta == -1:
        mats = mats[..., ::-1]  # times sigma^x: swap the columns
    return build_state(MpsTensors(*mats), p.n)


def bell_pair_matrices(t):
    """The four matrices (A0 A_m + (-1)^n A1 A_{m+1 mod 2}) / sqrt(2).

    Returned in the order (m, n) = (0,0), (0,1), (1,0), (1,1); they
    commute pairwise for the eta = -1 tensors.
    """
    mats = (np.asarray(t.a0, dtype=complex), np.asarray(t.a1, dtype=complex))
    return tuple((mats[0] @ mats[m] + (-1) ** s * mats[1] @ mats[1 - m]) / np.sqrt(2)
                 for m in range(2) for s in range(2))
