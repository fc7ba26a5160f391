"""Closed-form magnetization and correlation functions in the parameter
u = (1-g)/(1+g), with numerically stable evaluation for large rings and
explicit handling of the g = 0 discontinuity of the large-N limits.
"""

import math
from dataclasses import dataclass


class SingularParameterError(ValueError):
    """Raised where the closed forms are undefined (g = -1, or a
    vanishing denominator 1 + u^N)."""


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


def u_param(g):
    """u = (1-g)/(1+g)."""
    if g == -1:
        raise SingularParameterError("u(g) is singular at g = -1")
    return (1 - g) / (1 + g)


def _reduced_u(g):
    """(v, swapped): v = u or 1/u with |v| <= 1, and whether the
    inversion (which exchanges the y and z correlators) was applied."""
    u = u_param(g)
    if abs(u) > 1:
        return 1.0 / u, True
    return u, False


def _one_minus_abs_power(g, k):
    """1 - |v|^k for |g| > 1, where the reduced v = -(|g|-1)/(|g|+1) sits near
    -1 and 1 + v^k = 1 - |v|^k cancels at odd k; taken as
    -expm1(k log1p(-2/(|g|+1))), which has no cancellation."""
    return -math.expm1(k * math.log1p(-2 / (abs(g) + 1)))


def magnetization_x(eps, g, n):
    """Magnetization per site <sigma_x> = eps*u*(1 + u^{n-2})/(1 + u^n).

    The expression is invariant under u -> 1/u, which is used to keep all
    powers bounded for arbitrarily large n.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    v, _ = _reduced_u(g)
    if n % 2 and abs(g) > 1:
        num, denom = _one_minus_abs_power(g, n - 2), _one_minus_abs_power(g, n)
    else:
        num, denom = 1 + v ** (n - 2), 1 + v**n
    if denom == 0:
        raise SingularParameterError(f"1 + u^n vanishes at g = {g}, n = {n}")
    return eps * v * num / denom


def correlations(g, n):
    """The closed-form correlators (Gx, Gy, Gz) of the eta = +1 sector.

    Gx = (u^2 + u^{n-2})/(1 + u^n), Gy = u^{n-2}(u^2 - 1)/(1 + u^n),
    Gz = (1 - u^2)/(1 + u^n); independent of the separation.  Under
    u -> 1/u the forms exchange Gy and Gz, so evaluation always uses the
    branch with |u| <= 1.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    v, swapped = _reduced_u(g)
    if n % 2 and abs(g) > 1:
        # v near -1: v^2 + v^{n-2} = v^m (1 + v^{|n-4|}) with m = min(2, n-2) and
        # 1 - v^2 = (1 + v)(1 - v), so that every cancelling sum is an odd 1 + v^k
        denom = _one_minus_abs_power(g, n)
        gx_num = v ** min(2, n - 2) * _one_minus_abs_power(g, abs(n - 4))
        one_minus_v2 = _one_minus_abs_power(g, 1) * (1 - v)
    else:
        denom = 1 + v**n
        gx_num = v**2 + v ** (n - 2)
        one_minus_v2 = 1 - v**2
    if denom == 0:
        raise SingularParameterError(f"1 + u^n vanishes at g = {g}, n = {n}")
    gx = gx_num / denom
    gy = v ** (n - 2) * -one_minus_v2 / denom
    gz = one_minus_v2 / denom
    if swapped:
        gy, gz = gz, gy
    return gx, gy, gz


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
    """Bundle u, mx and the correlators for one grid point."""
    gx, gy, gz = correlations(g, n)
    return ObservableRecord(
        g=g, n=n, u=u_param(g), mx=magnetization_x(eps, g, n), gx=gx, gy=gy, gz=gz
    )


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
    v, swapped = _reduced_u(g)
    gx, gy, gz = v**2, 0.0, 1 - v**2
    if swapped:
        gy, gz = gz, gy
    return gx, gy, gz
