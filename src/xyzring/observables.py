"""Closed-form magnetization and correlation functions in the parameter
u = (1-g)/(1+g), all evaluated through one log-domain kernel in the reduced
parameter v = (1-|g|)/(1+|g|), stable for large rings and large |g|, with
explicit handling of the g = 0 discontinuity of the large-N limits.
"""

import math
from dataclasses import dataclass


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
    """Closed-form observables of one (g, N) grid point."""

    g: float
    n: int
    u: float
    mx: float
    gx: float
    gy: float
    gz: float
    c: float


def u_param(g):
    """u = (1-g)/(1+g)."""
    if g == -1:
        raise SingularParameterError("u(g) is singular at g = -1")
    return (1 - g) / (1 + g)


def _log_v(g):
    """The kernel of every finite-n closed form: (v, l) with the reduced
    parameter v = (1-|g|)/(1+|g|) and l = log|v|.

    v is u for g >= 0 and 1/u for g < 0, so |v| <= 1 and every power
    |v|^k = exp(k l) stays bounded for any n.  With d = 1 - |v| =
    2 min(|g|, 1)/(1+|g|), l is log1p(-d) while d < 1/2, which loses nothing
    to rounding 1 - d near |v| = 1, and log|v| beyond, where 1 - |g| is exact
    near |g| = 1; at |g| = 1, v = 0 and l = -inf.
    """
    a = abs(g)
    v = (1 - a) / (1 + a)
    d = 2 * (a if a < 1 else 1) / (1 + a)
    if d < 0.5:
        return v, math.log1p(-d)
    return v, math.log(abs(v)) if v else -math.inf


def _reduced(g, n):
    """(mx/eps, Gx, Gy, Gz) in the reduced parameter v, with the Gy and Gz of
    g >= 0 (they exchange at g < 0, where v = 1/u):
    mx/eps = v(1 - Gy) = v(1 + v^{n-2})/(1 + v^n), Gx = (v^2 + v^{n-2})/(1 + v^n),
    Gy = v^{n-2}(v^2 - 1)/(1 + v^n) and Gz = (1 - v^2)/(1 + v^n).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    v, l = _log_v(g)
    w = -math.expm1(2 * l)  # 1 - v^2
    p = math.exp((n - 2) * l)  # |v|^{n-2}
    if v < 0 and n % 2:
        # v^{n-2} = -p, and each 1 + v^j at odd j is 1 - |v|^j = -expm1(j l):
        # the only sums that cancel, here 1 + v^n and, with m = min(2, n-2),
        # v^2 + v^{n-2} = v^m (1 + v^{|n-4|})
        denom = -math.expm1(n * l)
        gx = (v if n == 3 else v * v) * -math.expm1(abs(n - 4) * l) / denom
        gy = p * w / denom
    else:
        denom = 1 + p * v * v
        gx = (v * v + p) / denom
        gy = -p * w / denom
    return v * (1 - gy), gx, gy, w / denom


def magnetization_x(eps, g, n):
    """Magnetization per site <sigma_x> = eps*u*(1 + u^{n-2})/(1 + u^n).

    The expression is invariant under u -> 1/u, so it is evaluated in the
    reduced parameter v, with all powers bounded for arbitrarily large n.
    """
    if g == -1:
        raise SingularParameterError("u(g) is singular at g = -1")
    return eps * _reduced(g, n)[0]


def correlations(g, n):
    """The closed-form correlators (Gx, Gy, Gz) of the eta = +1 sector.

    Gx = (u^2 + u^{n-2})/(1 + u^n), Gy = u^{n-2}(u^2 - 1)/(1 + u^n),
    Gz = (1 - u^2)/(1 + u^n); independent of the separation.  Under
    u -> 1/u the forms exchange Gy and Gz, so evaluation always uses the
    reduced parameter v with |v| <= 1.
    """
    if g == -1:
        raise SingularParameterError("u(g) is singular at g = -1")
    _, gx, gy, gz = _reduced(g, n)
    return (gx, gz, gy) if g < 0 else (gx, gy, gz)


def correlations_eta_minus(g, n, r):
    """Correlators of the eta = -1 sector between sites 1 and r (even n).

    Gx is unchanged; the y and z correlators exchange with an
    alternating sign (-1)^{r-1}, as induced by the staggered rotation
    relating the two sectors.
    """
    if n % 2 != 0:
        raise ValueError("eta = -1 closed forms require even n")
    gx, gy, gz = correlations(g, n)
    s = (-1) ** (r - 1)
    return gx, s * gz, s * gy


def observable_record(eps, g, n):
    """Bundle u, mx, the correlators and the concurrence |Gy| for one grid
    point, all from one evaluation of the reduced forms."""
    u = u_param(g)
    m, gx, gy, gz = _reduced(g, n)
    c = abs(gy)
    if g < 0:
        gy, gz = gz, gy
    return ObservableRecord(g=g, n=n, u=u, mx=eps * m, gx=gx, gy=gy, gz=gz, c=c)


def thermodynamic_magnetization(eps, g):
    """Large-N limit of the finite-N magnetization: eps*(1-|g|)/(1+|g|).

    At g = 0 the function is non-smooth; the one-sided limits (both equal
    to eps) are reported via DiscontinuityError.
    """
    if g == -1:
        raise SingularParameterError("singular at g = -1")
    if g == 0:
        raise DiscontinuityError(
            "magnetization limit is non-smooth at g = 0",
            limit_pos=float(eps),
            limit_neg=float(eps),
        )
    return eps * (1 - abs(g)) / (1 + abs(g))


def thermodynamic_magnetization_alt(eps, g):
    """Alternative (reciprocal) form eps*(1+|g|)/(1-|g|) of the large-N
    magnetization, kept for comparison only.

    It is the reciprocal of the limit of the finite-N expression and
    exceeds the physical bound |mx| <= 1 away from g = 0.
    """
    if abs(g) == 1:
        raise SingularParameterError("reciprocal form is singular at |g| = 1")
    return eps * (1 + abs(g)) / (1 - abs(g))


def thermodynamic_correlations(g):
    """Large-N limits of the correlators: (u^2, 0, 1-u^2) for |u| < 1 and
    (u^{-2}, 1-u^{-2}, 0) for |u| > 1.

    At g = 0 (|u| = 1) the limits from the two sides differ; both are
    reported via DiscontinuityError.
    """
    if g == -1:
        raise SingularParameterError("singular at g = -1")
    if g == 0:
        raise DiscontinuityError(
            "correlator limits are discontinuous at g = 0",
            limit_pos=(1.0, 0.0, 0.0),
            limit_neg=(1.0, 0.0, 0.0),
        )
    _, l = _log_v(g)
    v2, one_minus_v2 = math.exp(2 * l), -math.expm1(2 * l)
    return (v2, one_minus_v2, 0.0) if g < 0 else (v2, 0.0, one_minus_v2)
