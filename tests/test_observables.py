import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dense_ref import pair_density_brute
from xyzring import (
    DiscontinuityError,
    ModelParams,
    SingularParameterError,
    build_state,
    concurrence_closed,
    correlations,
    correlations_eta_minus,
    magnetization_x,
    mps_matrices,
    observable_record,
    scaling_limit,
    thermodynamic_correlations,
    thermodynamic_magnetization,
    thermodynamic_magnetization_alt,
    u_param,
)
from xyzring.pauli import SI, SX, SY, SZ

G_GRID = [-2.0, -0.5, 0.3, 0.7, 1.5]


class TestUParam:
    @pytest.mark.parametrize("g,u", [(0.0, 1.0), (1 / 3, 0.5), (3.0, -0.5)])
    def test_values(self, g, u):
        assert u_param(g) == pytest.approx(u, abs=1e-15)

    def test_singular(self):
        with pytest.raises(SingularParameterError):
            u_param(-1.0)


class TestMagnetization:
    def test_g_zero(self):
        assert magnetization_x(1, 0.0, 8) == pytest.approx(1.0)

    def test_worked_point(self):
        assert magnetization_x(1, 1 / 3, 4) == pytest.approx(10 / 17, abs=1e-14)

    def test_epsilon_linearity(self):
        assert magnetization_x(-1, 1 / 3, 4) == pytest.approx(-10 / 17, abs=1e-14)

    @pytest.mark.parametrize("g", G_GRID)
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_against_direct_expectation(self, g, n):
        psi = build_state(mps_matrices(ModelParams(g=g, n=n)), n)
        for k in (1, n // 2, n):
            direct = np.trace(np.kron(SX, SI) @ pair_density_brute(psi, k, k % n + 1)).real
            assert magnetization_x(1, g, n) == pytest.approx(direct, abs=1e-10)

    def test_large_n_stable(self):
        # |u| < 1 and |u| > 1 branches both reduce to bounded powers
        for g in (0.5, -0.5, 3.0):
            val = magnetization_x(1, g, 10**6)
            assert abs(val) <= 1
            assert val == pytest.approx(thermodynamic_magnetization(1, g), abs=1e-12)


class TestCorrelations:
    def test_worked_point(self):
        gx, gy, gz = correlations(1 / 3, 4)
        assert (gx, gy, gz) == pytest.approx((8 / 17, -3 / 17, 12 / 17), abs=1e-14)

    def test_ghz_point(self):
        assert correlations(1.0, 6) == pytest.approx((0.0, 0.0, 1.0))

    def test_g_zero(self):
        assert correlations(0.0, 6) == pytest.approx((1.0, 0.0, 0.0))

    @pytest.mark.parametrize("g", G_GRID)
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_against_direct_expectation(self, g, n):
        psi = build_state(mps_matrices(ModelParams(g=g, n=n)), n)
        gx, gy, gz = correlations(g, n)
        for r in range(2, n + 1):
            rho = pair_density_brute(psi, 1, r)
            assert np.trace(np.kron(SX, SX) @ rho).real == pytest.approx(gx, abs=1e-10)
            assert np.trace(np.kron(SY, SY) @ rho).real == pytest.approx(gy, abs=1e-10)
            assert np.trace(np.kron(SZ, SZ) @ rho).real == pytest.approx(gz, abs=1e-10)

    @pytest.mark.parametrize("g", G_GRID)
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_eta_minus_alternating_map(self, g, n):
        psi = build_state(mps_matrices(ModelParams(eta=-1, g=g, n=n)), n)
        for r in range(2, n + 1):
            gx, gy, gz = correlations_eta_minus(g, n, r)
            rho = pair_density_brute(psi, 1, r)
            assert np.trace(np.kron(SX, SX) @ rho).real == pytest.approx(gx, abs=1e-10)
            assert np.trace(np.kron(SY, SY) @ rho).real == pytest.approx(gy, abs=1e-10)
            assert np.trace(np.kron(SZ, SZ) @ rho).real == pytest.approx(gz, abs=1e-10)
        # an array of separations gives the values of one call per r
        by_r = np.transpose([correlations_eta_minus(g, n, r) for r in range(2, n + 1)])
        at_once = correlations_eta_minus(g, n, np.arange(2, n + 1))
        assert np.array_equal(np.broadcast_arrays(*at_once), by_r)

    @pytest.mark.parametrize("g", G_GRID + [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_identities(self, g, n):
        gx, gy, gz = correlations(g, n)
        mx = magnetization_x(1, g, n)
        assert gx + gy + gz == pytest.approx(1.0, abs=1e-12)
        assert (1 - gz) * (1 - gy) == pytest.approx(mx * mx, abs=1e-12)
        assert abs(mx) <= 1 and all(abs(v) <= 1 for v in (gx, gy, gz))


class TestOddRingsAtLargeField:
    """|g| >> 1: v = -(|g|-1)/(|g|+1) sits near -1, where 1 - v^2 cancels at
    every n and 1 + v^n at odd n."""

    @staticmethod
    def exact(g, n):
        u = (1 - Fraction(g)) / (1 + Fraction(g))
        d = 1 + u**n
        return (u * (1 + u ** (n - 2)) / d, (u**2 + u ** (n - 2)) / d,
                u ** (n - 2) * (u**2 - 1) / d, (1 - u**2) / d)

    @pytest.mark.parametrize("g", [1e8, -1e8])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_against_exact_fractions(self, g, n):
        got = (magnetization_x(1, g, n), *correlations(g, n))
        for value, want in zip(got, self.exact(g, n)):
            assert abs(Fraction(value) - want) <= 2e-15 * abs(want), (value, float(want))

    @pytest.mark.parametrize("g", [1e8, -1e8])
    def test_limits_against_exact_fractions(self, g):
        v = (1 - abs(Fraction(g))) / (1 + abs(Fraction(g)))
        want = (v**2, 1 - v**2, 0) if g < 0 else (v**2, 0, 1 - v**2)
        for value, w in zip(thermodynamic_correlations(g), want):
            assert abs(Fraction(value) - w) <= 2e-15 * abs(w), (value, float(w))

    def test_no_false_singularity(self):
        # 2/(|g|+1) is below half an ulp of 1, so v rounds to -1 and 1 + v^3 to 0
        mx = magnetization_x(1, -3e17, 3)
        gx, gy, gz = correlations(-3e17, 3)
        assert mx == pytest.approx(-1 / 3, rel=1e-15, abs=0)
        assert (gx, gy, gz) == pytest.approx((-1 / 3, 2 / 3, 2 / 3), rel=1e-15, abs=0)


class TestEdgePoints:
    """|g| = 1, where v = 0 and log|v| = -inf, and numpy scalars for g."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_g_one(self, n):
        assert magnetization_x(1, 1.0, n) == 0.0
        assert correlations(1.0, n) == (0.0, 0.0, 1.0)  # v^0 = 1 at n = 4, not NaN

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_singular_at_g_minus_one_only(self, n):
        with pytest.raises(SingularParameterError):
            magnetization_x(1, -1.0, n)
        with pytest.raises(SingularParameterError):
            correlations(-1.0, n)
        assert np.isfinite([magnetization_x(1, g, n) for g in (1.0, -1 + 1e-12, -1 - 1e-12)]).all()

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("g", [0.3, -0.5, 1.0, -2.0, 1e8])
    def test_numpy_scalar_g(self, g, n):
        assert magnetization_x(1, np.float64(g), n) == magnetization_x(1, g, n)
        assert correlations(np.float64(g), n) == correlations(g, n)


class TestArrayKernel:
    """One array call over g takes every branch of the kernel as a mask: log1p or
    log at d = 1/2, l = -inf at |g| = 1, and the cancelling sums at v < 0 and odd N."""

    G = [-1e17, -3.0, -0.5, -0.0, 0.0, 1e-300, 0.5, 1.0, 3.0, 1e17]

    @staticmethod
    def exact(g, n):
        """mx, Gx, Gy, Gz and C, each an exact ratio of integers rounded once:
        g = p/q, so u = a/b with a = q - p and b = q + p."""
        p, q = g.as_integer_ratio()
        a, b = q - p, q + p
        d = b**n + a**n
        return (a * b * (b ** (n - 2) + a ** (n - 2)) / d,
                (a * a * b ** (n - 2) + a ** (n - 2) * b * b) / d,
                a ** (n - 2) * (a * a - b * b) / d, b ** (n - 2) * (b * b - a * a) / d,
                4 * abs(p) * q * abs(q - abs(p)) ** (n - 2) / abs(d))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 1024])
    def test_against_exact_ratios(self, n):
        g = np.array(self.G)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (magnetization_x(1, g, n), *correlations(g, n), concurrence_closed(g, n))
            rec = observable_record(1, g, n)
            c_at_one = concurrence_closed(np.array([-1.0, 1.0]), n)
        for i, gi in enumerate(self.G):
            for value, want in zip((x[i] for x in got), self.exact(gi, n)):
                # as in TestOddRingsAtLargeField, but exp(k l) carries the rounding of l
                # times |k l| ~ |log want|, which reaches ~700 at n = 1024 and |g| = 3;
                # where want underflows to 0, so must the value
                tol = 2e-15 * max(1.0, -math.log(abs(want))) if want else 0.0
                assert abs(value - want) <= tol * abs(want), (gi, value, want)
        for field, value in zip(("mx", "gx", "gy", "gz", "c"), got):
            assert np.array_equal(getattr(rec, field), value)
        assert np.array_equal(rec.u, (1 - g) / (1 + g))
        assert c_at_one.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("n", [3, 4, 5, 1024])
    def test_scalar_is_array_element(self, n):
        g = np.array(self.G)
        m, c = magnetization_x(1, g, n), concurrence_closed(g, n)
        gx, gy, gz = correlations(g, n)
        for i, gi in enumerate(self.G):
            assert type(magnetization_x(1, gi, n)) is np.float64
            assert magnetization_x(1, gi, n) == m[i] and concurrence_closed(gi, n) == c[i]
            assert correlations(gi, n) == (gx[i], gy[i], gz[i])

    def test_empty(self):
        g = np.array([])
        values = (magnetization_x(1, g, 5), *correlations(g, 5), concurrence_closed(g, 5),
                  scaling_limit(g), *thermodynamic_correlations(g))
        assert all(v.shape == (0,) for v in values)
        assert observable_record(1, g, 5).mx.shape == (0,)

    def test_minus_one_in_array_raises(self):
        g = np.array([0.3, -1.0, 2.0])
        with pytest.raises(SingularParameterError):
            magnetization_x(1, g, 4)
        with pytest.raises(SingularParameterError):
            correlations(g, 5)


class TestThermodynamicLimits:
    @pytest.mark.parametrize(
        "g,expected", [(0.5, 1 / 3), (-0.5, 1 / 3), (1e-9, 1.0), (-2.0, -1 / 3)]
    )
    def test_magnetization_limit(self, g, expected):
        assert thermodynamic_magnetization(1, g) == pytest.approx(expected, abs=1e-8)

    def test_magnetization_limit_is_finite_n_limit(self):
        for g in (0.5, -0.5, 1.7):
            lim = thermodynamic_magnetization(1, g)
            errs = [abs(magnetization_x(1, g, n) - lim) for n in (8, 16, 32, 64)]
            assert all(a > b or a < 1e-15 for a, b in zip(errs, errs[1:]))
            assert errs[-1] < 1e-6

    def test_correlation_limits(self):
        assert thermodynamic_correlations(0.5) == pytest.approx((1 / 9, 0.0, 8 / 9))
        assert thermodynamic_correlations(-0.5) == pytest.approx((1 / 9, 8 / 9, 0.0))

    def test_correlation_identity_both_branches(self):
        for g in (0.5, -0.5, 2.0, -3.0):
            gx, gy, gz = thermodynamic_correlations(g)
            assert gx + gy + gz == pytest.approx(1.0, abs=1e-14)

    def test_discontinuity_reported(self):
        with pytest.raises(DiscontinuityError) as exc:
            thermodynamic_magnetization(1, 0.0)
        assert exc.value.limit_pos == exc.value.limit_neg == 1.0
        with pytest.raises(DiscontinuityError) as exc:
            thermodynamic_correlations(0.0)
        assert exc.value.limit_pos == (1.0, 0.0, 0.0)

    def test_alt_form_is_reciprocal(self):
        # the alternative published form is the reciprocal of the limit
        assert thermodynamic_magnetization_alt(1, 0.5) == pytest.approx(3.0)
        assert thermodynamic_magnetization_alt(1, 0.5) == pytest.approx(
            1 / thermodynamic_magnetization(1, 0.5)
        )

    def test_singular_parameter(self):
        with pytest.raises(SingularParameterError):
            thermodynamic_magnetization(1, -1.0)


def test_observable_record_bundles_consistently():
    rec = observable_record(1, 1 / 3, 4)
    assert rec.u == pytest.approx(0.5)
    assert rec.mx == pytest.approx(10 / 17)
    assert (rec.gx, rec.gy, rec.gz) == pytest.approx((8 / 17, -3 / 17, 12 / 17))
