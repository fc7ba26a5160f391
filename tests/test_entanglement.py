import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dense_ref import pair_density_brute
from xyzring import (
    ModelParams,
    build_state,
    concurrence_closed,
    mps_matrices,
    pair_density,
    scaled_concurrence_curve,
    scaling_limit,
    wootters_concurrence,
)
from xyzring.mps import product_term_vectors
from xyzring.pauli import SI, SX, SZ

CLASSES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
G_GRID = [-1.5, -0.5, 0.3, 0.7, 1.0, 1.5]

BELL_PSI_M = np.array([0, 1, -1, 0]) / np.sqrt(2)


def params(eps=1, eta=1, g=0.5, n=6):
    return ModelParams(epsilon=eps, eta=eta, g=g, j=1.0, n=n)


class TestPairDensity:
    def test_ghz_marginal(self):
        rho = pair_density(params(g=1.0, n=6), 1, 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho, expected, atol=1e-14)

    def test_ghz_marginal_large_ring_without_warning(self):
        # <phi_+|phi_-> = 0 at g = 1 gives a zero weight; the diagonal
        # weights 4^(N-2) would overflow unless scaled
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = pair_density(params(g=1.0, n=1000), 1, 500)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho, expected, atol=1e-14)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("g", G_GRID)
    def test_matches_partial_trace(self, eps, eta, g):
        p = params(eps, eta, g, n=6)
        psi = build_state(mps_matrices(p), p.n)
        for i, j in [(1, 2), (2, 5), (3, 6)]:
            assert np.max(
                np.abs(pair_density(p, i, j) - pair_density_brute(psi, i, j))
            ) < 1e-12

    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_valid_density_matrix(self, eps, eta):
        rho = pair_density(params(eps, eta, g=-0.8, n=8), 2, 7)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.eigvalsh(rho)[0] > -1e-12

    def test_rank_two_structure_eta_plus(self):
        # two-product-term states have rank <= 2 pair marginals
        ev = np.sort(np.linalg.eigvalsh(pair_density(params(g=0.6, n=8), 1, 5)))
        assert np.max(np.abs(ev[:2])) < 1e-12

    def test_site_independence_eta_plus(self):
        p = params(g=0.4, n=8)
        ref = pair_density(p, 1, 2)
        for i, j in [(1, 5), (3, 7), (2, 8)]:
            assert np.allclose(pair_density(p, i, j), ref, atol=1e-13)

    def test_overlap_closed_form(self):
        # <phi_+|phi_-> of the unnormalized single-site vectors of the eta = +1 terms
        for g in (0.0, 0.3, 0.9, 1.0):
            phi_p, phi_m = product_term_vectors(ModelParams(g=g))
            assert np.vdot(phi_p, phi_m) == pytest.approx(2 * (1 - g), abs=1e-14)

    def test_rejects_equal_sites(self):
        with pytest.raises(ValueError):
            pair_density(params(), 2, 2)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_ordered_pair_matches_partial_trace(self, n):
        # sites on both sides of i, n = 3 included, over a g grid in one call per site
        g = np.array(G_GRID + [0.0, -1.0])
        for eps, eta in CLASSES:
            if eta == -1 and n % 2:
                continue
            p = params(eps, eta, g, n)
            psi = build_state(mps_matrices(p), n)
            for i in range(1, n + 1):
                js = np.array([j for j in range(1, n + 1) if j != i])
                rho = pair_density(p, i, js)
                assert rho.shape == (len(g), n - 1, 4, 4)
                for k, j in enumerate(js):
                    assert np.max(np.abs(rho[:, k] - pair_density_brute(psi, i, j))) < 1e-14

    @pytest.mark.parametrize("g", [0.3, 0.63])
    def test_spin_flip_zeros_on_a_large_ring(self, g):
        # the spin flip makes <s_z(1)> and <s_x(1) s_z(2)> vanish exactly
        rho = pair_density(params(g=g, n=10**4), 1, 2)
        assert np.trace(rho @ np.kron(SZ, SI)) == 0
        assert np.trace(rho @ np.kron(SX, SZ)) == 0

    @pytest.mark.parametrize("n", [4, 7, 10**3])
    def test_arrays_of_g_and_j_match_per_point(self, n):
        g = np.array(G_GRID)
        js = np.array([[1, 3], [n, 4]])
        for eps, eta in CLASSES:
            if eta == -1 and n % 2:
                continue
            p = params(eps, eta, g, n)
            rho = pair_density(p, 2, js)
            assert rho.shape == (len(g), 2, 2, 4, 4)
            for k, index in itertools.product(range(len(g)), np.ndindex(js.shape)):
                one = pair_density(params(eps, eta, G_GRID[k], n), 2, int(js[index]))
                assert rho[(k, *index)].tobytes() == one.tobytes(), (eps, eta, k, index)

    def test_eta_minus_odd_ring_rejected(self):
        with pytest.raises(ValueError, match="even n"):
            pair_density(params(eta=-1, n=5), 1, 2)


class TestWoottersConcurrence:
    def test_bell_state(self):
        rho = np.outer(BELL_PSI_M, BELL_PSI_M)
        assert wootters_concurrence(rho).c == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert wootters_concurrence(np.eye(4) / 4).c == pytest.approx(0.0, abs=1e-12)

    def test_ghz_marginal_classical(self):
        rho = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        assert wootters_concurrence(rho).c == pytest.approx(0.0, abs=1e-12)

    def test_sqrt_eigenvalues_sorted(self):
        res = wootters_concurrence(np.outer(BELL_PSI_M, BELL_PSI_M))
        sv = res.sqrt_eigenvalues
        assert all(a >= b for a, b in zip(sv, sv[1:]))
        assert sv[0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            wootters_concurrence(np.eye(4))  # trace 4
        bad = np.diag([1.5, -0.5, 0, 0]).astype(complex)
        with pytest.raises(ValueError):
            wootters_concurrence(bad)


WOOTTERS_G = [-2.0, -0.5, 0.0, 0.3, 0.7, 1.0, 1.5]
PAIRS = [(1, 2), (1, 3), (2, 3), (2, 4)]


def _same_bits(a, b):
    return np.asarray(a).dtype == np.asarray(b).dtype and (
        np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes())


class TestWoottersStack:
    """A stack (..., 4, 4) gives every member the bits of its own call."""

    @pytest.mark.parametrize("eps,eta,n", [(eps, eta, n) for eps, eta in CLASSES
                                           for n in range(4, 9) if eta == 1 or n % 2 == 0])
    def test_members_equal_single_calls(self, eps, eta, n):
        rho = np.array([[pair_density(params(eps, eta, g, n), i, j) for i, j in PAIRS]
                        for g in WOOTTERS_G])
        res = wootters_concurrence(rho)
        assert res.c.shape == (len(WOOTTERS_G), len(PAIRS))
        assert res.sqrt_eigenvalues.shape == (len(WOOTTERS_G), len(PAIRS), 4)
        for index in np.ndindex(res.c.shape):
            single = wootters_concurrence(rho[index])
            assert isinstance(single.c, float) and isinstance(single.sqrt_eigenvalues, tuple)
            assert _same_bits(res.c[index], single.c), index
            assert _same_bits(res.sqrt_eigenvalues[index], single.sqrt_eigenvalues), index

    def test_random_densities(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(16, 4, 4)) + 1j * rng.normal(size=(16, 4, 4))
        rho = a @ a.conj().swapaxes(-1, -2)
        rho /= np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
        res = wootters_concurrence(rho)
        for m in range(16):
            single = wootters_concurrence(rho[m])
            assert _same_bits(res.c[m], single.c) and _same_bits(res.sqrt_eigenvalues[m],
                                                                  single.sqrt_eigenvalues)

    def test_non_psd_member_named(self):
        rho = np.array([np.eye(4) / 4] * 3, dtype=complex)
        rho[1] = np.diag([1.5, -0.5, 0, 0])
        with pytest.raises(ValueError, match=r"positive semidefinite \(-0\.5\) at batch member 1$"):
            wootters_concurrence(rho)
        with pytest.raises(ValueError, match=r"at batch member \(1, 0\)$"):
            wootters_concurrence(rho[:, None])

    @pytest.mark.parametrize("defect,message", [("trace", "unit trace"), ("skew", "Hermitian")])
    def test_invalid_member_named(self, defect, message):
        rho = np.array([np.eye(4) / 4] * 3, dtype=complex)
        if defect == "trace":
            rho[2] *= 2
        else:
            rho[2, 0, 1] = 0.1
        with pytest.raises(ValueError, match=f"{message} at batch member 2$"):
            wootters_concurrence(rho)

    def test_single_message_unchanged(self):
        message = r"^density matrix is not positive semidefinite \(-0\.5\)$"
        with pytest.raises(ValueError, match=message):
            wootters_concurrence(np.diag([1.5, -0.5, 0, 0]))


class TestConcurrenceClosed:
    def test_ghz_point(self):
        assert concurrence_closed(1.0, 6) == 0.0

    def test_worked_point(self):
        assert concurrence_closed(0.5, 6) == pytest.approx(0.125 / 11.40625, rel=1e-12, abs=0)

    def test_g_zero(self):
        assert concurrence_closed(0.0, 8) == 0.0

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("g", G_GRID)
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 20, 10**3, 10**4])
    def test_matches_wootters(self, eps, eta, g, n):
        p = params(eps, eta, g, n=n)
        c = wootters_concurrence(pair_density(p, 1, 2)).c
        assert c == pytest.approx(concurrence_closed(g, n), abs=1e-10)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("n", [10**2, 10**3, 10**4])
    def test_matches_wootters_scaled_g(self, eps, eta, n):
        # at g/N the concurrence is ~ 1/N while the unscaled weights grow like 2^N
        for g in (0.5, 2.0):
            p = params(eps, eta, g / n, n=n)
            c = wootters_concurrence(pair_density(p, 1, n // 2 + 1)).c
            # the sum of the four singular values cancels down to C ~ 1/N: at N = 1e4
            # Wootters is 6e-12 to 2.4e-11 off relative, but at most 4.7e-16 absolute
            assert c == pytest.approx(concurrence_closed(g / n, n), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("g", G_GRID)
    def test_distance_independence(self, g):
        p = params(g=g, n=8)
        psi = build_state(mps_matrices(p), p.n)
        cs = [
            wootters_concurrence(pair_density_brute(psi, i, j)).c
            for i, j in itertools.combinations(range(1, 9), 2)
        ]
        assert max(cs) - min(cs) < 1e-12

    def test_large_n_log_domain(self):
        # would overflow in naive arithmetic: (1+g)^n with n = 1e5
        val = concurrence_closed(2.0 / 10**5, 10**5)
        assert 0 < val < 1

    def test_in_unit_interval(self):
        for g in np.linspace(-3, 3, 25):
            assert 0 <= concurrence_closed(float(g), 12) <= 1

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("a", [1.5, 10, 1e3, 1e8, 1e17])
    def test_odd_n_large_g_exact(self, n, a):
        # (1+g)^n and (1-g)^n have opposite signs here; exact rationals as reference
        for g in (a, -a):
            q = Fraction(g)
            want = 4 * abs(q) * abs(1 - abs(q)) ** (n - 2) / abs((1 + q) ** n + (1 - q) ** n)
            assert concurrence_closed(g, n) == pytest.approx(float(want), rel=1e-12, abs=0)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_large_n_scaled_g_exact(self, scale):
        # g = m/2^e, so C = 4m 2^e (2^e-m)^(n-2) / ((2^e+m)^n + (2^e-m)^n) in integers,
        # rounded once by the true division
        n = 10**4
        g = scale / n
        m, two_e = g.as_integer_ratio()
        want = 4 * m * two_e * (two_e - m) ** (n - 2) / ((two_e + m) ** n + (two_e - m) ** n)
        assert concurrence_closed(g, n) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_edge_points(self, n):
        # C = 0 at |g| = 1, also at g = -1 where u is singular; numpy scalars for g
        assert concurrence_closed(1.0, n) == concurrence_closed(-1.0, n) == 0.0
        for g in (0.3, -0.5, 1.0, -1.0, -2.0):
            assert concurrence_closed(np.float64(g), n) == concurrence_closed(g, n)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_finite_where_four_g_overflows(self, n):
        for g in (1e308, -1e308):
            c = concurrence_closed(g, n)
            assert math.isfinite(c) and 0 <= c <= 1


class TestScaling:
    def test_limit_values(self):
        assert scaling_limit(0.0) == 0.0
        assert scaling_limit(1.0) == pytest.approx(2 / math.e / math.cosh(1), rel=1e-12, abs=0)
        assert scaling_limit(1.0) == pytest.approx(0.4768, abs=1e-4)

    def test_limit_past_cosh_overflow(self):
        for g in (400.0, 700.0, 710.0, -800.0, 3e17):
            assert scaling_limit(g) == 0.0

    def test_limit_even(self):
        for g in (0.3, 1.2, 2.5):
            assert scaling_limit(g) == pytest.approx(scaling_limit(-g), rel=1e-14, abs=0)

    def test_curve_converges_to_limit(self):
        (_, v50) = scaled_concurrence_curve(50, [1.0])[0]
        (_, v1e4) = scaled_concurrence_curve(10**4, [1.0])[0]
        lim = scaling_limit(1.0)
        assert abs(v50 - lim) < 0.05 * lim
        assert abs(v1e4 - lim) < 0.001 * lim

    def test_zero_at_g_zero(self):
        for n in (6, 20, 50):
            assert scaled_concurrence_curve(n, [0.0])[0][1] == 0.0

    @pytest.mark.parametrize("g", [0.1, 0.5, 1.0, 3.0])
    def test_monotone_convergence_large_n(self, g):
        lim = scaling_limit(g)
        errs = [
            abs(scaled_concurrence_curve(n, [g])[0][1] - lim)
            for n in (100, 200, 400, 800, 1600)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))
