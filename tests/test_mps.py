import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from dense_ref import kron_all, pair_density_brute, transfer_with_operator_einsum
from xyzring import (
    ModelParams,
    MpsTensors,
    amplitude,
    bell_pair_matrices,
    build_state,
    checks,
    expectation_one_point,
    expectation_two_point,
    explicit_ground_state,
    g_blocks,
    general_mps_matrices,
    mps,
    mps_matrices,
    overlap,
    ring_points,
    transfer_matrix,
    transfer_with_operator,
)
from xyzring.observables import correlations, correlations_eta_minus, magnetization_x
from xyzring.pauli import SI, SX, SY, SZ

CLASSES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
G_GRID = [-2.0, -0.5, 0.3, 1.0, 1.5]
# a non-Hermitian pair with no symmetry that would make the correlator vanish
GENERIC_A = 0.3 * SI + SX - 0.2j * SY + 0.7 * SZ
GENERIC_B = SX + 0.5 * SY - 0.4j * SZ


def params(eps=1, eta=1, g=0.5, j=1.0, n=4):
    return ModelParams(epsilon=eps, eta=eta, g=g, j=j, n=n)


class TestAmplitude:
    def test_all_zeros_at_g_one(self):
        # A0^2 = 2 A0 at g=1, so tr(A0^4) = 2^4
        t = mps_matrices(params(g=1.0, n=4))
        assert amplitude(t, "0000") == pytest.approx(16)

    def test_single_one_at_g_one(self):
        # A0 A1 = 0 at g=1
        t = mps_matrices(params(g=1.0, n=4))
        assert amplitude(t, "0001") == pytest.approx(0)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_cyclic_invariance(self, eps, eta):
        rng = np.random.default_rng(7)
        t = mps_matrices(params(eps, eta, g=0.8, n=7))
        for _ in range(10):
            bits = list(rng.integers(0, 2, size=7))
            shifted = bits[3:] + bits[:3]
            assert amplitude(t, bits) == pytest.approx(amplitude(t, shifted), abs=1e-12)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_reflection_invariance(self, eps, eta):
        rng = np.random.default_rng(8)
        t = mps_matrices(params(eps, eta, g=-0.6, n=8))
        for _ in range(10):
            bits = list(rng.integers(0, 2, size=8))
            assert amplitude(t, bits) == pytest.approx(amplitude(t, bits[::-1]), abs=1e-12)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("n", [5, 6])
    def test_spin_flip_covariance(self, eps, eta, n):
        rng = np.random.default_rng(9)
        t = mps_matrices(params(eps, eta, g=1.3, n=n))
        for _ in range(10):
            bits = list(rng.integers(0, 2, size=n))
            flipped = [1 - b for b in bits]
            assert amplitude(t, flipped) == pytest.approx(
                eps**n * amplitude(t, bits), abs=1e-12
            )


class TestBuildState:
    def test_ghz_at_g_one(self):
        psi = build_state(mps_matrices(params(g=1.0, n=4)), 4)
        expected = np.zeros(16)
        expected[0] = expected[15] = 1 / np.sqrt(2)
        assert np.allclose(psi.amplitudes, expected)
        assert np.count_nonzero(np.abs(psi.amplitudes) > 1e-12) == 2

    def test_amplitudes_are_complex128(self):
        # real tensors give real amplitudes; the state is complex either way
        for t in (mps_matrices(params(g=0.7, n=6)),
                  general_mps_matrices(0.3 + 0.2j, 1.1, -0.7j, 0.4 - 0.5j, epsilon=-1)):
            psi = build_state(t, 6)
            assert psi.amplitudes.dtype == np.complex128
            assert np.allclose(psi.amplitudes, mps._all_amplitudes(t, 6) / np.sqrt(psi.z),
                               rtol=1e-15, atol=0)

    def test_product_state_at_g_zero(self):
        psi = build_state(mps_matrices(params(g=0.0, n=4)), 4)
        assert np.allclose(psi.amplitudes, np.full(16, 0.25))

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("g", G_GRID)
    def test_normalized(self, eps, eta, g):
        psi = build_state(mps_matrices(params(eps, eta, g, n=6)), 6)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1, abs=1e-12)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_z_equals_transfer_trace(self, eps, eta, n):
        # build_state raises if tr(E^n) disagrees with the amplitude sum
        t = mps_matrices(params(eps, eta, g=0.7, n=n))
        psi = build_state(t, n)
        e = transfer_matrix(t)
        z = np.trace(np.linalg.matrix_power(e, n)).real
        assert psi.z == pytest.approx(z, rel=1e-10, abs=0)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_z_is_the_squared_norm_of_the_amplitudes(self, n):
        # z is an inner product over the float64 view; against sum |amp|^2
        real = [mps_matrices(params(eps, eta, np.array(G_GRID), n=n))
                for eps, eta in CLASSES if eta == 1 or n % 2 == 0]
        generic = _stack([general_mps_matrices(0.3 + 0.2j, g, -0.7j, 0.4 - 0.5j, epsilon=-1)
                          for g in G_GRID])
        for batch in (*real, generic):
            want = np.sum(np.abs(mps._all_amplitudes(batch, n)) ** 2, axis=-1)
            assert build_state(batch, n).z == pytest.approx(want, rel=1e-12, abs=0)
            for k, t in enumerate(zip(batch.a0, batch.a1)):
                assert build_state(MpsTensors(*t), n).z == pytest.approx(want[k], rel=1e-12, abs=0)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            build_state(mps_matrices(params(n=21)), 21)

    @staticmethod
    def _assert_all_amplitudes(t, n):
        # every pattern against the per-pattern trace, to a bound on the
        # rounding of n-fold products (eta = -1 odd rings vanish exactly)
        want = np.array([amplitude(t, f"{idx:0{n}b}") for idx in range(2**n)])
        got = mps._all_amplitudes(t, n)
        assert got.dtype == np.result_type(t.a0, t.a1, np.float64) and got.shape == (2**n,)
        scale = max(np.linalg.norm(t.a0, 2), np.linalg.norm(t.a1, 2)) ** n
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("n", range(3, 10))
    def test_every_amplitude_is_the_trace(self, eps, eta, n):
        for g in G_GRID:
            self._assert_all_amplitudes(mps_matrices(params(eps, eta, g, n=n)), n)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_every_amplitude_complex_tensors(self, n):
        t = general_mps_matrices(0.3 + 0.2j, 1.1, -0.7j, 0.4 - 0.5j, epsilon=-1)
        self._assert_all_amplitudes(t, n)

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("n", range(3, 20, 2))
    def test_vanishing_state_raises(self, eps, n):
        # eta = -1 has no state on odd rings; the rounding left in z grows
        # with n, so the test is relative to sum |(E^n)_ij|
        with pytest.raises(ValueError, match="vanish"):
            build_state(mps_matrices(params(eps, -1, g=0.37, n=n)), n)

    def test_normalization_mismatch_raises(self, monkeypatch):
        real = mps.transfer_matrix
        monkeypatch.setattr(mps, "transfer_matrix", lambda t: 2 * real(t))
        with pytest.raises(ArithmeticError, match="normalization mismatch"):
            build_state(mps_matrices(params(g=0.7, n=6)), 6)

    @pytest.mark.parametrize("eta", [1, -1])
    def test_one_full_size_buffer_beside_the_amplitudes(self, eta):
        # z is an inner product, so no |amp|^2 buffer is made: complex
        # amplitudes (16 B per amplitude) are normalized in place, 1.0x the
        # output; real amplitudes (8 B) are scaled into the complex output
        # (16 B), the one extra full-size buffer, 1.5x
        p = params(1, eta, g=0.37, n=18)
        for build, bound in ((lambda: explicit_ground_state(p), 1.1),
                             (lambda: build_state(mps_matrices(p), 18), 1.6)):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                psi = build()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < bound * psi.amplitudes.nbytes


def _stack(tensors):
    return MpsTensors(np.stack([t.a0 for t in tensors]), np.stack([t.a1 for t in tensors]))


class TestBatchedBuild:
    """build_state over a leading batch axis of tensors: one call for a grid of g."""

    G_BATCH = [0.0, 1.0, -1.0, -2.0, -0.5, 0.3, 0.7, 1.5, 1e8, -1e8]

    @pytest.mark.parametrize("eps,eta,n", [(eps, eta, n) for eps, eta in CLASSES
                                           for n in range(3, 13) if eta == 1 or n % 2 == 0])
    def test_matches_per_point(self, eps, eta, n):
        batch = build_state(mps_matrices(params(eps, eta, np.array(self.G_BATCH), n=n)), n)
        assert batch.amplitudes.shape == (len(self.G_BATCH), 2**n)
        assert batch.z.shape == (len(self.G_BATCH),)
        for k, g in enumerate(self.G_BATCH):
            one = build_state(mps_matrices(params(eps, eta, g, n=n)), n)
            assert one.amplitudes.shape == (2**n,) and type(one.z) is float
            assert np.array_equal(batch.amplitudes[k], one.amplitudes), g
            assert batch.z[k] == one.z, g

    def test_stack_of_g_is_the_stack_of_points(self):
        g = np.array([[0.3, -2.0], [1.0, 1e8]])
        stack = mps_matrices(params(-1, -1, g))
        assert stack.a0.shape == stack.a1.shape == (2, 2, 2, 2)
        for idx in np.ndindex(g.shape):
            one = mps_matrices(params(-1, -1, float(g[idx])))
            assert stack.a0[idx].tobytes() == one.a0.tobytes()
            assert stack.a1[idx].tobytes() == one.a1.tobytes()

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_vanishing_member_is_named(self, n):
        # eta = -1 has no state on an odd ring; its neighbours in the batch do
        t = _stack([mps_matrices(params(1, eta, 0.37, n=n)) for eta in (1, 1, -1, 1)])
        with pytest.raises(ValueError, match="vanish.* at batch member 2$") as info:
            build_state(t, n)
        assert info.value.member == 2

    def test_normalization_mismatch_names_the_member(self, monkeypatch):
        real = mps.transfer_matrix
        factor = np.array([1.0, 1.0, 1.0, 2.0, 1.0])[:, None, None]
        monkeypatch.setattr(mps, "transfer_matrix", lambda t: factor * real(t))
        g = np.array([-0.5, 0.3, 0.7, 1.5, 2.0])
        with pytest.raises(ArithmeticError, match="normalization mismatch.* at batch member 3$"):
            build_state(mps_matrices(params(g=g, n=6)), 6)

    def test_blocks_name_the_g_of_a_failing_member(self, monkeypatch):
        # 2^12 amplitudes per state: blocks of 4 g, so g = 0.7 is member 2 of the second
        real = mps.transfer_matrix
        monkeypatch.setattr(mps, "transfer_matrix", lambda t: real(t) * np.where(
            t.a0[..., 0, 1] == 0.7, 2.0, 1.0)[..., None, None])
        cfg = checks.VerifyConfig(n_list=[12], g_values=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        for check in (checks.check_normalization, checks.check_ground_state_equivalence):
            with pytest.raises(ArithmeticError, match=r"at batch member 2 \(g=0.7, n=12\)$"):
                check(cfg)
        # eta = -1 on an odd ring, which the checks leave out, through the same walk
        with pytest.raises(ValueError, match=r"vanish.* at batch member 0 \(g=0.3, n=5\)$"):
            for block in g_blocks(params(eta=-1, g=np.array([0.3, 0.5]), n=5), 4):
                with mps._naming_g(block.g, 5):
                    build_state(mps_matrices(block), 5)

    def test_cross_check_at_large_field(self):
        # z = 16 (2 + 6 g^2); in double, rounding E^3 of the explicit tensors
        # put tr(E^3) 4e-9 of z off at g = +-1e8, past the 1e-10 bound
        for g in (1e8, -1e8, -1e7):
            p = params(g=g, n=3)
            for psi in (build_state(mps_matrices(p), 3), explicit_ground_state(p)):
                assert psi.z == pytest.approx(16 * (2 + 6 * g * g), rel=1e-15, abs=0), g

    def test_single_point_errors_name_no_member(self):
        with pytest.raises(ValueError, match="vanish for these tensors$") as info:
            build_state(mps_matrices(params(1, -1, 0.37, n=5)), 5)
        assert not hasattr(info.value, "member")

    def test_cap_enforced(self):
        g = np.array([0.3, 0.5])
        with pytest.raises(ValueError, match="dense cap"):
            build_state(mps_matrices(params(g=g, n=21)), 21)
        with pytest.raises(ValueError, match="at least 3"):
            build_state(mps_matrices(params(g=g)), 2)

    @pytest.mark.parametrize("n", [4, 7])
    def test_pair_density_brute_per_member(self, n):
        g = np.array(self.G_BATCH)
        batch = build_state(mps_matrices(params(-1, 1, g, n=n)), n)
        for i, j in ((1, 2), (2, 4), (n, 1)):
            rho = pair_density_brute(batch, i, j)
            assert rho.shape == (len(g), 4, 4)
            for k, x in enumerate(self.G_BATCH):
                one = build_state(mps_matrices(params(-1, 1, x, n=n)), n)
                assert np.array_equal(rho[k], pair_density_brute(one, i, j)), (i, j, x)

    def test_dense_checks_walk_blocks_of_g(self, monkeypatch):
        # 2^10 amplitudes per state: at most 16 states per build_state call, in
        # each of the four classes
        shapes, starts, real = [], [], mps.build_state

        def recording(t, n):
            psi = real(t, n)
            shapes.append(psi.amplitudes.shape)
            starts.append(t.a0[0, 0, 1])  # the g of the block's first member
            return psi

        monkeypatch.setattr(checks, "build_state", recording)
        g = np.linspace(0, 2, 401)
        cfg = checks.VerifyConfig(n_list=[10], g_values=g.tolist())
        for check in (checks.check_normalization, checks.check_ground_state_equivalence):
            shapes.clear()
            starts.clear()
            ok, _ = check(cfg)
            assert ok
            assert max(rows * size for rows, size in shapes) <= 2**14
            assert sum(rows for rows, _ in shapes) == 4 * 401
            assert len(shapes) == 4 * -(-401 // 16)
            assert starts == 4 * g[::16].tolist()

    def test_g_blocks(self):
        g = np.linspace(0, 2, 401)
        blocks = g_blocks(params(-1, -1, g, n=10), 16)
        assert [len(b.g) for b in blocks] == [16] * 25 + [1]
        assert np.concatenate([b.g for b in blocks]).tobytes() == g.tobytes()
        assert all(dataclasses.replace(b, g=0.0) == params(-1, -1, 0.0, n=10) for b in blocks)
        one = g_blocks(params(g=0.7), 16)  # a scalar g is a block of one
        assert len(one) == 1 and one[0].g.tolist() == [0.7]


class TestTransferMatrix:
    def test_spectrum_eta_plus(self):
        ev = np.sort(np.linalg.eigvals(transfer_matrix(mps_matrices(params(g=0.5)))).real)
        assert ev == pytest.approx([1, 1, 3, 3], abs=1e-12)

    def test_spectrum_eta_minus(self):
        ev = np.sort(
            np.linalg.eigvals(transfer_matrix(mps_matrices(params(eta=-1, g=0.5)))).real
        )
        assert ev == pytest.approx([-3, -1, 1, 3], abs=1e-12)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("g", G_GRID)
    def test_spectrum_closed_form(self, eps, eta, g):
        ev = np.sort(np.linalg.eigvals(transfer_matrix(mps_matrices(params(eps, eta, g)))).real)
        expected = np.sort([2 * (eta + g), 2 * (eta - g), 2 * (1 + g), 2 * (1 - g)])
        assert ev == pytest.approx(expected, abs=1e-12)

    @staticmethod
    def _tensors():
        """The four classes' tensors over a g grid, and a random complex stack."""
        g = np.array(G_GRID)
        yield from (mps_matrices(params(eps, eta, g)) for eps, eta in CLASSES)
        a = np.random.default_rng(7).normal(size=(2, 5, 2, 2, 2)) @ np.array([1, 1j])
        yield MpsTensors(*a)

    @pytest.mark.parametrize("k", range(6), ids=["1", "x", "y", "z", "A", "B"])
    def test_dressing_is_the_sum_of_krons(self, k):
        op = TestOperatorStacks.OPS[k]
        for t in self._tensors():
            mats = np.stack([t.a0, t.a1])
            for m in range(len(t.a0)):
                want = sum(op[i, j] * np.kron(mats[i, m].conj(), mats[j, m])
                           for i in range(2) for j in range(2))
                got = transfer_with_operator(MpsTensors(t.a0[m], t.a1[m]), op)
                assert got.shape == (4, 4)
                assert np.abs(got - want).max() <= 1e-15 * max(np.abs(want).max(), 1)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_members_keep_their_single_call_bits(self, dtype):
        t = [t for t in self._tensors() if t.a0.dtype == dtype][0]
        stack = transfer_with_operator(t, TestOperatorStacks.OPS[:, None])
        assert stack.shape == (6, len(t.a0), 4, 4)
        for k, m in itertools.product(range(6), range(len(t.a0))):
            one = transfer_with_operator(MpsTensors(t.a0[m], t.a1[m]), TestOperatorStacks.OPS[k])
            assert stack[k, m].tobytes() == one.tobytes(), (k, m)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_one_product_keeps_the_bits_of_two_contractions(self, eps, eta):
        # for 1 and the Paulis on mps_matrices, up to the edge of the float range
        t = mps_matrices(params(eps, eta, np.array(G_GRID + [9.4e153, -9.4e153])))
        for op in TestOperatorStacks.OPS[:4]:
            for m in range(len(t.a0)):
                one = MpsTensors(t.a0[m], t.a1[m])
                want = transfer_with_operator_einsum(one, op)
                assert transfer_with_operator(one, op).tobytes() == want.tobytes(), (op, m)
            assert transfer_with_operator(t, op).tobytes() == transfer_with_operator_einsum(
                t, op).tobytes()

    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_overflow_edge_of_the_dressing(self, eps, eta):
        # E ~ 2 g^2 leaves the float range between |g| = 9.4e153 and 9.6e153
        # for 1 and the Paulis (README: |g| >~ 9.5e153)
        for g in (9.4e153, -9.4e153):
            t = mps_matrices(params(eps, eta, g))
            assert np.isfinite(transfer_with_operator(t, TestOperatorStacks.OPS[:4, None])).all()
            assert np.isfinite(expectation_two_point(t, SX, SX, 2, 4)), g
        for g in (9.6e153, -9.6e153):
            with pytest.raises(FloatingPointError, match="^overflow in the dressed transfer"):
                expectation_two_point(mps_matrices(params(eps, eta, g)), SX, SX, 2, 4)


class TestExpectations:
    def test_one_point_sx_worked_value(self):
        # u = 1/2: eps*u*(1+u^2)/(1+u^4) = 10/17, also against the dense state
        t = mps_matrices(params(g=1 / 3, n=4))
        val = expectation_one_point(t, SX, 1, 4)
        assert val.real == pytest.approx(10 / 17, abs=1e-12)
        psi = build_state(t, 4).amplitudes
        op = np.kron(SX, np.eye(8))
        assert np.vdot(psi, op @ psi).real == pytest.approx(10 / 17, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_translation_invariance_and_sy_sz_vanish(self, k):
        t = mps_matrices(params(g=0.8, n=4))
        assert expectation_one_point(t, SY, k, 4) == pytest.approx(0, abs=1e-12)
        assert expectation_one_point(t, SZ, k, 4) == pytest.approx(0, abs=1e-12)
        assert expectation_one_point(t, SX, k, 4) == pytest.approx(
            expectation_one_point(t, SX, 1, 4), abs=1e-12
        )

    @pytest.mark.parametrize("g", [0.3, 1.0])  # E is singular at g = 1
    def test_one_point_refuses_a_ring_of_one_site(self, g):
        t = mps_matrices(params(g=g))
        for n in (1, 0):
            with pytest.raises(ValueError, match=f"^ring size {n} below 2$"):
                expectation_one_point(t, SX, 1, n)

    def test_one_point_identity(self):
        t = mps_matrices(params(g=0.8, n=5))
        assert expectation_one_point(t, SI, 2, 5) == pytest.approx(1, abs=1e-12)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_two_point_worked_values(self, r):
        t = mps_matrices(params(g=1 / 3, n=4))
        assert expectation_two_point(t, SX, SX, r, 4).real == pytest.approx(
            8 / 17, abs=1e-12
        )
        assert expectation_two_point(t, SZ, SZ, r, 4).real == pytest.approx(
            12 / 17, abs=1e-12
        )
        assert expectation_two_point(t, SY, SY, r, 4).real == pytest.approx(
            -3 / 17, abs=1e-12
        )

    def test_two_point_identity(self):
        t = mps_matrices(params(g=0.8, n=5))
        assert expectation_two_point(t, SI, SI, 3, 5) == pytest.approx(1, abs=1e-12)

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("g", [-2.0, -0.5, 0.63, 1.5])
    @pytest.mark.parametrize("n", [10**3, 10**5])
    def test_large_rings_match_closed_forms(self, eps, g, n):
        # E^n alone overflows from n ~ 10^3; the ratio must stay finite
        t = mps_matrices(params(eps, 1, g, n=10))
        r = n // 2 + 1
        assert expectation_one_point(t, SX, n // 2, n) == pytest.approx(
            magnetization_x(eps, g, n), abs=1e-14)
        for op, want in zip((SX, SY, SZ), correlations(g, n)):
            assert expectation_two_point(t, op, op, r, n) == pytest.approx(want, abs=1e-14)
        tm = mps_matrices(params(eps, -1, g, n=10))
        for op, want in zip((SX, SY, SZ), correlations_eta_minus(g, n, r)):
            assert expectation_two_point(tm, op, op, r, n) == pytest.approx(want, abs=1e-14)


class TestBatchedSeparations:
    """expectation_two_point over an integer array r: one batched contraction per call."""

    @pytest.mark.parametrize("g", [0.0, 0.3, 1.0, -0.5, 1.5])  # E is defective at g = 0
    @pytest.mark.parametrize("n", [*range(3, 13), 1000])
    def test_matches_scalar_calls(self, g, n):
        rs = np.arange(2, n + 1)
        for p in ring_points([g], [n], 1.0):  # the four classes, eta = -1 on even n only
            t = mps_matrices(p)
            batch = expectation_two_point(t, GENERIC_A, GENERIC_B, rs, n)
            scalar = [expectation_two_point(t, GENERIC_A, GENERIC_B, int(r), n) for r in rs]
            assert batch.shape == rs.shape
            assert batch.tobytes() == np.array(scalar).tobytes(), p

    def test_result_takes_the_shape_of_r(self):
        t = mps_matrices(params(g=0.3, n=8))
        rs = np.array([[2, 5], [8, 3]])
        batch = expectation_two_point(t, SZ, SZ, rs, 8)
        assert batch.shape == (2, 2)
        assert batch[1, 0] == expectation_two_point(t, SZ, SZ, 8, 8)
        assert np.isscalar(expectation_two_point(t, SZ, SZ, np.int64(4), 8))

    @pytest.mark.parametrize("rs", [[1, 2, 3], [2, 7], [[2, 3], [4, 0]]])
    def test_separation_outside_raises(self, rs):
        t = mps_matrices(params(g=0.3, n=6))
        with pytest.raises(ValueError, match="outside 2..6"):
            expectation_two_point(t, SX, SX, np.array(rs), 6)

    @pytest.mark.parametrize("r", [2, np.arange(2, 11)])
    def test_overflow_raises(self, r):
        # E = (1 + bN) x (1 + bN), N nilpotent: spectral radius 1, so the scaling
        # leaves it alone, but E^k has entries ~ (k b)^2, past the float range
        # for b = 1e150 and k ~ 1e5
        t = MpsTensors(np.array([[1.0, 1e150], [0.0, 1.0]]), np.zeros((2, 2)))
        assert np.all(np.isfinite(expectation_two_point(t, SZ, SZ, r, 10)))
        with pytest.raises(FloatingPointError):
            expectation_two_point(t, SZ, SZ, r, 10**5)
        with pytest.raises(FloatingPointError):
            expectation_one_point(t, SZ, 1, 10**5)

    def test_dressing_overflow_names_the_member(self):
        # E ~ 2 g^2 is past the float range at g = 1e160, where einsum ignores np.errstate
        t = mps_matrices(params(g=np.array([0.3, 1e160]), n=4))
        with pytest.raises(FloatingPointError, match="overflow.* at batch member 1$") as info:
            expectation_two_point(t, SX, SX, 2, 4)
        assert info.value.member == 1

    def test_many_separations_hold_one_power_per_exponent(self):
        # 41 members x 999 distinct exponents of E, 10.5 MB, and no more
        t = mps_matrices(params(g=np.linspace(-3, 3, 41), n=10))
        sigma = np.array([SX, SY, SZ])
        tracemalloc.start()
        try:
            expectation_two_point(t, sigma, sigma, np.arange(2, 1001), 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestTransferTrace:
    """The powers of E in expectation_two_point: each one np.linalg.matrix_power on the
    stack of members, E^n once per call, and tr(E^n) refused where it vanishes."""

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 1000, 10**5])
    def test_reference_bits(self, n):
        # r - 2 = 3 and n - r = 3 where the ring has them, by an r array and by int r
        mp = np.linalg.matrix_power
        rs = np.unique(np.clip([2, 5, n // 2 + 1, n - 3, n], 2, n))
        for p in ring_points([np.array(TestBatchedOracles.G_BATCH)], [n], 1.0):
            t = mps_matrices(p)
            e, e_a, e_b = (transfer_with_operator(t, op) for op in (SI, GENERIC_A, GENERIC_B))
            rho = np.abs(np.linalg.eigvals(e)).max(axis=-1)[:, None, None]
            e, e_a, e_b = e / rho, e_a / rho, e_b / rho
            total = np.trace(mp(e, n), axis1=1, axis2=2)
            want = np.stack([np.trace(e_a @ mp(e, r - 2) @ e_b @ mp(e, n - r), axis1=1, axis2=2)
                             / total for r in rs], axis=-1)
            got = expectation_two_point(t, GENERIC_A, GENERIC_B, rs, n)
            assert got.tobytes() == want.tobytes(), p
            for k, r in enumerate(rs):
                one = expectation_two_point(t, GENERIC_A, GENERIC_B, int(r), n)
                assert one.tobytes() == want[:, k].tobytes(), (p, r)

    @pytest.mark.parametrize("g", [[0.3], np.linspace(-2, 2, 6)], ids=["1g", "6g"])
    def test_one_matrix_power_per_distinct_exponent(self, monkeypatch, g):
        calls, power = [], np.linalg.matrix_power

        def counted(a, k):
            calls.append(k)
            return power(a, k)

        monkeypatch.setattr(np.linalg, "matrix_power", counted)
        t = mps_matrices(params(g=np.array(g), n=10))
        expectation_two_point(t, SX, SX, np.arange(2, 1001), 1000)
        assert sorted(calls) == [*range(999), 1000]
        for r, count in [(7, 3), (501, 2)]:  # r - 2 = n - r = 499 at r = 501
            calls.clear()
            expectation_two_point(t, SX, SX, r, 1000)
            assert len(calls) == count, r

    def test_no_identity_power_at_r2(self, monkeypatch):
        # at r = 2 the chain starts E_a E_b, with no E^0 between them
        calls, power = [], np.linalg.matrix_power

        def counted(a, k):
            calls.append(k)
            return power(a, k)

        monkeypatch.setattr(np.linalg, "matrix_power", counted)
        t = mps_matrices(params(g=np.linspace(-2, 2, 5), n=10))
        expectation_one_point(t, SX, 1, 10)
        assert sorted(calls) == [8, 10]
        calls.clear()
        expectation_two_point(t, SX, SX, np.array([2, 10]), 10)
        assert sorted(calls) == [0, 8, 10]  # E^0 only on the right, at r = n

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("g", [-0.5, 0.0, 0.7, 1.0])
    def test_zero_trace_raises(self, n, g):
        # eta = -1 has no state on an odd ring; here tr(E^n) cancels to 0
        # exactly, and the refusal comes with no warning on the way
        t = mps_matrices(params(1, -1, g, n=n))
        with pytest.raises(ValueError, match="^tr\\(E\\^n\\) is 0 for these tensors$"):
            expectation_one_point(t, SX, 1, n)
        with pytest.raises(ValueError, match="is 0"):
            expectation_two_point(t, SX, SX, np.arange(2, n + 1), n)

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="tr(E^n) cancels to a rounding residue, not 0 (1.1e-16 at "
                       "g = 0.3, n = 5), and the ratio of two residues is returned")
    @pytest.mark.parametrize("g,n", [(0.3, 5), (-1.7, 3)])
    def test_rounding_residue_of_a_zero_trace_raises(self, g, n):
        with pytest.raises(ValueError):
            expectation_one_point(mps_matrices(params(1, -1, g, n=n)), SX, 1, n)

    def test_zero_trace_member_is_named(self):
        t = _stack([mps_matrices(params(1, eta, 0.7, n=5)) for eta in (1, 1, -1, 1)])
        with pytest.raises(ValueError, match="is 0 .* at batch member 2$") as info:
            expectation_one_point(t, SX, 1, 5)
        assert info.value.member == 2


class TestBatchedOracles:
    """The contraction, the explicit state and the overlap over a batch of g:
    each member equals the per-point call bit for bit."""

    G_BATCH = [0.0, 1.0, -1.0, -2.0, -0.5, 0.3, 1.5]

    @staticmethod
    def _points(p):
        return [dataclasses.replace(p, g=g) for g in TestBatchedOracles.G_BATCH]

    @pytest.mark.parametrize("n", [*range(3, 13), 1000])
    def test_expectations_match_per_point(self, n):
        rs = np.arange(2, n + 1)
        for p in ring_points([np.array(self.G_BATCH)], [n], 1.0):
            t = mps_matrices(p)
            one = [expectation_one_point(t, op, 1, n) for op in (SX, SY, SZ, GENERIC_A)]
            two = [expectation_two_point(t, op, op, rs, n) for op in (SX, SY, SZ)]
            two.append(expectation_two_point(t, GENERIC_A, GENERIC_B, rs, n))
            at_half = expectation_two_point(t, GENERIC_A, GENERIC_B, n // 2 + 1, n)
            assert at_half.shape == (len(self.G_BATCH),)
            assert all(v.shape == (len(self.G_BATCH), len(rs)) for v in two)
            for k, q in enumerate(self._points(p)):
                tq = mps_matrices(q)
                want = [expectation_one_point(tq, op, 1, n) for op in (SX, SY, SZ, GENERIC_A)]
                assert [v[k].tobytes() for v in one] == [v.tobytes() for v in want], q
                want = [expectation_two_point(tq, op, op, rs, n) for op in (SX, SY, SZ)]
                want.append(expectation_two_point(tq, GENERIC_A, GENERIC_B, rs, n))
                assert [v[k].tobytes() for v in two] == [v.tobytes() for v in want], q
                half = expectation_two_point(tq, GENERIC_A, GENERIC_B, n // 2 + 1, n)
                assert at_half[k].tobytes() == half.tobytes(), q

    def test_batch_shape_leads(self):
        g = np.array([[0.3, -2.0], [1.0, 1.5]])
        t = mps_matrices(params(g=g, n=8))
        assert expectation_one_point(t, SX, 1, 8).shape == (2, 2)
        assert expectation_two_point(t, SZ, SZ, np.array([[2, 5, 8]]), 8).shape == (2, 2, 1, 3)
        one = expectation_two_point(mps_matrices(params(g=1.0, n=8)), SZ, SZ, 5, 8)
        assert expectation_two_point(t, SZ, SZ, 5, 8)[1, 0] == one

    @pytest.mark.parametrize("n", range(3, 13))
    def test_explicit_state_and_overlap_match_per_point(self, n):
        for p in ring_points([np.array(self.G_BATCH)], [n], 1.0):
            batch = explicit_ground_state(p)
            ov = overlap(build_state(mps_matrices(p), n), batch)
            assert batch.amplitudes.shape == (len(self.G_BATCH), 2**n)
            assert ov.shape == (len(self.G_BATCH),)
            for k, q in enumerate(self._points(p)):
                one = explicit_ground_state(q)
                assert batch.amplitudes[k].tobytes() == one.amplitudes.tobytes(), q
                assert batch.z[k] == one.z, q
                assert ov[k].tobytes() == overlap(build_state(mps_matrices(q), n), one).tobytes()

    def test_product_term_vectors_per_member(self):
        for p in ring_points([np.array(self.G_BATCH)], [4], 1.0):
            vectors = mps.product_term_vectors(p)
            for k, q in enumerate(self._points(p)):
                one = mps.product_term_vectors(q)
                assert [v[k].tobytes() for v in vectors] == [v.tobytes() for v in one]


class TestOperatorStacks:
    """expectation_two_point over operator stacks: each member equals its single-operator call."""

    OPS = np.array([SI, SX, SY, SZ, GENERIC_A, GENERIC_B])

    @pytest.mark.parametrize("n", [3, 4, 7, 10, 1000, 10**5])
    def test_members_equal_single_calls(self, n):
        rs = np.arange(2, n + 1) if n <= 12 else np.array([2, 3, n // 2, n])
        for p in ring_points([np.array(TestBatchedOracles.G_BATCH)], [n], 1.0):
            t = mps_matrices(p)
            pairs = expectation_two_point(t, self.OPS[:, None], self.OPS, rs, n)
            diagonal = expectation_two_point(t, self.OPS, self.OPS[::-1], rs, n)
            assert pairs.shape == (len(TestBatchedOracles.G_BATCH), 6, 6, len(rs))
            assert diagonal.shape == (len(TestBatchedOracles.G_BATCH), 6, len(rs))
            for a, b in itertools.product(range(6), repeat=2):
                one = expectation_two_point(t, self.OPS[a], self.OPS[b], rs, n)
                assert pairs[:, a, b].tobytes() == one.tobytes(), (p, a, b)
                if a + b == 5:
                    assert diagonal[:, a].tobytes() == one.tobytes(), (p, a, b)

    def test_one_operator_against_a_stack(self):
        t = mps_matrices(params(g=0.3, n=8))
        values = expectation_two_point(t, SX, self.OPS, 4, 8)
        assert values.shape == (6,)
        assert [v.tobytes() for v in values] == [
            np.asarray(expectation_two_point(t, SX, op, 4, 8)).tobytes() for op in self.OPS]
        one_point = expectation_one_point(t, self.OPS[1:4], 3, 8)
        assert one_point.shape == (3,)
        assert one_point[0] == expectation_one_point(t, SX, 1, 8)


class TestExplicitGroundState:
    def test_ghz_n3(self):
        psi = explicit_ground_state(params(g=1.0, n=3))
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        a = psi.amplitudes
        first = a[np.flatnonzero(np.abs(a) > 1e-12)[0]]
        assert np.allclose(a / (first / abs(first)), expected)  # first entry real positive

    def test_z_closed_form(self):
        for g, n in [(0.5, 4), (1.5, 6), (-0.7, 6)]:
            psi = explicit_ground_state(params(g=g, n=n))
            z = 2 ** (n + 1) * ((1 + g) ** n + (1 - g) ** n)
            assert psi.z == pytest.approx(z, rel=1e-12, abs=0)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("g", G_GRID)
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_matches_trace_construction(self, eps, eta, g, n):
        p = params(eps, eta, g, n=n)
        ov = overlap(build_state(mps_matrices(p), n), explicit_ground_state(p))
        assert abs(ov) == pytest.approx(1, abs=1e-12)

    def test_negative_g_state_is_real(self):
        a = explicit_ground_state(params(g=-0.5, n=4)).amplitudes
        first = a[np.flatnonzero(np.abs(a) > 1e-12)[0]]
        fixed = a / (first / abs(first))  # first entry real positive
        assert np.max(np.abs(fixed.imag)) < 1e-12

    def test_eta_minus_requires_even_n(self):
        with pytest.raises(ValueError):
            explicit_ground_state(params(eta=-1, g=0.5, n=5))

    @pytest.mark.parametrize("n", range(3, 15))
    def test_matches_kron_of_product_terms(self, n):
        # the trace state of the diagonal (eta = +1) or anti-diagonal
        # (eta = -1) tensors is the sum of the two product terms
        for (eps, eta), g in itertools.product(CLASSES, [-2, -1, -0.5, 0, 0.37, 1, 1.5, 3]):
            if eta == -1 and n % 2:
                continue
            p = params(eps, eta, g, n=n)
            a, b = mps.product_term_vectors(p)
            # the terms carry (site-1, site-2) vectors alternately around the ring
            cell = ((a, a), (b, b)) if eta == 1 else ((a, b), (b, a))
            terms = [kron_all(term[k % 2] for k in range(n)) for term in cell]
            want = terms[0] + terms[1]
            want /= np.linalg.norm(want)
            got = explicit_ground_state(p).amplitudes
            assert np.max(np.abs(got - want)) <= 1e-14, (eps, eta, g)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="dense cap"):
            explicit_ground_state(params(g=0.37, n=21))


class TestBellPairMatrices:
    @pytest.mark.parametrize("g", G_GRID)
    def test_commute_for_eta_minus(self, g):
        phis = bell_pair_matrices(mps_matrices(params(eta=-1, g=g)))
        for a, b in itertools.combinations(phis, 2):
            assert np.max(np.abs(a @ b - b @ a)) < 1e-12

    def test_mixed_products_vanish_at_eta_plus_g_one(self):
        # A0 A1 = A1 A0 = 0 at g=1, so both m=1 matrices are zero
        phis = bell_pair_matrices(mps_matrices(params(g=1.0)))
        assert np.max(np.abs(phis[2])) < 1e-12
        assert np.max(np.abs(phis[3])) < 1e-12

    def test_phi00_direct_product_oracle(self):
        t = mps_matrices(params(eta=-1, g=0.0))
        phis = bell_pair_matrices(t)
        expected = (t.a0 @ t.a0 + t.a1 @ t.a1) / np.sqrt(2)
        assert np.allclose(phis[0], expected)
