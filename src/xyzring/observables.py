"""Closed-form magnetization and correlation functions in the parameter
u = (1-g)/(1+g), all evaluated through one log-domain kernel in the reduced
parameter v = (1-|g|)/(1+|g|), stable for large rings and large |g|, with
explicit handling of the g = 0 discontinuity of the large-N limits.
"""

from dataclasses import dataclass

import numpy as np

from .model import no_state_error


class SingularParameterError(ValueError):
    """Raised where a closed form is undefined: g = -1 for u, and |g| = 1
    for the reciprocal limit form."""


class DiscontinuityError(ValueError):
    """Raised at g = 0 for thermodynamic-limit quantities; carries the
    one-sided limits."""

    def __init__(self, message, limit_pos, limit_neg):
        super().__init__(message)
        self.limit_pos = limit_pos
        self.limit_neg = limit_neg


@dataclass(frozen=True)
class ObservableRecord:
    """Closed-form observables of one ring size n over an array of g (or at one g)."""

    g: np.ndarray
    n: int
    u: np.ndarray
    mx: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    gz: np.ndarray
    c: np.ndarray


def _like(g, *values):
    """The values, arrays of g's size, in g's shape: float64 scalars for a scalar g."""
    shape = np.shape(g)
    return tuple(x.reshape(shape)[()] for x in values)


def _refuse_minus_one(g):
    if np.equal(g, -1).any():
        raise SingularParameterError("u(g) is singular at g = -1")


def u_param(g):
    """u = (1-g)/(1+g)."""
    _refuse_minus_one(g)
    return (1 - g) / (1 + g)


def _log_v(g):
    """The kernel of every finite-n closed form: arrays (v, l) with the reduced
    parameter v = (1-|g|)/(1+|g|) and l = log|v|, for g a scalar or an array.

    v is u for g >= 0 and 1/u for g < 0, so |v| <= 1 and every power
    |v|^k = exp(k l) stays bounded for any n.  With d = 1 - |v| =
    2 min(|g|, 1)/(1+|g|), l is log1p(-d) while d < 1/2, which loses nothing
    to rounding 1 - d near |v| = 1, and log|v| beyond, where 1 - |g| is exact
    near |g| = 1; at |g| = 1, v = 0 and l = -inf.
    """
    a = np.abs(np.array(g, dtype=float, ndmin=1))
    v = (1 - a) / (1 + a)
    d = 2 * np.minimum(a, 1) / (1 + a)
    with np.errstate(divide="ignore"):  # log 0 = -inf at |g| = 1
        return v, np.where(d < 0.5, np.log1p(-d), np.log(np.abs(v)))


def _reduced(g, n):
    """(mx/eps, Gx, Gy, Gz) in the reduced parameter v, with the Gy and Gz of
    g >= 0 (they exchange at g < 0, where v = 1/u):
    mx/eps = v(1 - Gy) = v(1 + v^{n-2})/(1 + v^n), Gx = (v^2 + v^{n-2})/(1 + v^n),
    Gy = v^{n-2}(v^2 - 1)/(1 + v^n) and Gz = (1 - v^2)/(1 + v^n).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    v, l = _log_v(g)
    w = -np.expm1(2 * l)  # 1 - v^2
    p = np.exp((n - 2) * l)  # |v|^{n-2}
    denom = 1 + p * v * v
    gx = (v * v + p) / denom
    gy = -p * w / denom
    if n % 2:
        # at v < 0, v^{n-2} = -p, and each 1 + v^j at odd j is 1 - |v|^j = -expm1(j l):
        # the only sums that cancel, here 1 + v^n and, with m = min(2, n-2),
        # v^2 + v^{n-2} = v^m (1 + v^{|n-4|}); evaluated on those elements only
        c = v < 0
        vc, lc = v[c], l[c]
        denom[c] = -np.expm1(n * lc)
        gx[c] = (vc if n == 3 else vc * vc) * -np.expm1(abs(n - 4) * lc) / denom[c]
        gy[c] = p[c] * w[c] / denom[c]
    return _like(g, v * (1 - gy), gx, gy, w / denom)


def _swap_below_zero(g, gy, gz):
    """(Gy, Gz) of g from those of |g|: they exchange at g < 0."""
    neg = np.less(g, 0)
    return np.where(neg, gz, gy)[()], np.where(neg, gy, gz)[()]


def magnetization_x(eps, g, n):
    """Magnetization per site <sigma_x> = eps*u*(1 + u^{n-2})/(1 + u^n).

    The expression is invariant under u -> 1/u, so it is evaluated in the
    reduced parameter v, with all powers bounded for arbitrarily large n.
    g is a scalar or an array.
    """
    _refuse_minus_one(g)
    return eps * _reduced(g, n)[0]


def correlations(g, n):
    """The closed-form correlators (Gx, Gy, Gz) of the eta = +1 sector.

    Gx = (u^2 + u^{n-2})/(1 + u^n), Gy = u^{n-2}(u^2 - 1)/(1 + u^n),
    Gz = (1 - u^2)/(1 + u^n); independent of the separation.  Under
    u -> 1/u the forms exchange Gy and Gz, so evaluation always uses the
    reduced parameter v with |v| <= 1.  g is a scalar or an array.
    """
    _refuse_minus_one(g)
    _, gx, gy, gz = _reduced(g, n)
    return (gx, *_swap_below_zero(g, gy, gz))


def correlations_eta_minus(g, n, r):
    """Correlators of the eta = -1 sector between sites 1 and r (even n), for
    one separation r or an array of them.

    Gx is unchanged; the y and z correlators exchange with an
    alternating sign (-1)^{r-1}, as induced by the staggered rotation
    relating the two sectors.
    """
    if error := no_state_error(-1, n):
        raise error
    gx, gy, gz = correlations(g, n)
    s = (-1) ** (r - 1)
    return gx, s * gz, s * gy


def observable_record(eps, g, n):
    """Bundle u, mx, the correlators and the concurrence |Gy| of ring size n
    over g, all from one evaluation of the reduced forms."""
    m, gx, gy, gz = _reduced(g, n)
    c = np.abs(gy)
    gy, gz = _swap_below_zero(g, gy, gz)
    return ObservableRecord(g=g, n=n, u=u_param(g), mx=eps * m, gx=gx, gy=gy, gz=gz, c=c)


def thermodynamic_magnetization(eps, g):
    """Large-N limit of the finite-N magnetization: eps*(1-|g|)/(1+|g|).

    At g = 0 the function is non-smooth; the one-sided limits (both equal
    to eps) are reported via DiscontinuityError.  g is a scalar or an array.
    """
    _refuse_minus_one(g)
    if np.any(np.equal(g, 0)):
        raise DiscontinuityError("magnetization limit is non-smooth at g = 0",
                                 limit_pos=float(eps), limit_neg=float(eps))
    a = np.abs(g)
    return eps * (1 - a) / (1 + a)


def thermodynamic_magnetization_alt(eps, g):
    """Alternative (reciprocal) form eps*(1+|g|)/(1-|g|) of the large-N
    magnetization, kept for comparison only.

    It is the reciprocal of the limit of the finite-N expression and
    exceeds the physical bound |mx| <= 1 away from g = 0.  g is a scalar or
    an array.
    """
    a = np.abs(g)
    if np.any(a == 1):
        raise SingularParameterError("reciprocal form is singular at |g| = 1")
    return eps * (1 + a) / (1 - a)


def thermodynamic_correlations(g):
    """Large-N limits of the correlators: (u^2, 0, 1-u^2) for |u| < 1 and
    (u^{-2}, 1-u^{-2}, 0) for |u| > 1.

    At g = 0 (|u| = 1) the limits from the two sides differ; both are
    reported via DiscontinuityError.  g is a scalar or an array.
    """
    _refuse_minus_one(g)
    if np.any(np.equal(g, 0)):
        raise DiscontinuityError("correlator limits are discontinuous at g = 0",
                                 limit_pos=(1.0, 0.0, 0.0), limit_neg=(1.0, 0.0, 0.0))
    _, l = _log_v(g)
    v2, w = _like(g, np.exp(2 * l), -np.expm1(2 * l))  # v^2 and 1 - v^2
    return (v2, *_swap_below_zero(g, np.zeros_like(w), w))
