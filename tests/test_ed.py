import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from dense_ref import dense_spectrum, op_on_sites, ring_spectrum_all_eigh
from xyzring import (
    ModelParams,
    build_state,
    certify,
    constant_shift,
    e_vectors,
    explicit_ground_state,
    ground_membership,
    local_h,
    mps_matrices,
    ring_apply,
    ring_spectrum,
)
from xyzring import ed
from xyzring.ed import rayleigh_quotient
from xyzring.parent import bond_operator
from xyzring.pauli import PAULI, SX

CLASSES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
EIGH_FIELDS = {"eigenvalues": 0, "ground_vectors": 1}  # what np.linalg.eigh returns them in


def params(eps=1, eta=1, g=0.5, j=1.0, n=6):
    return ModelParams(epsilon=eps, eta=eta, g=g, j=j, n=n)


def _kron_ring(h2, n):
    """Independent dense reference for the ring sum of any 4x4 h2: each
    matrix unit h2[(a b), (c d)] |a><c| x |b><d| embedded on bond (l, l+1)
    with op_on_sites, bond n wrapping to (n, 1)."""
    ref = np.zeros((2**n, 2**n), dtype=complex)
    for a, b, c, d in itertools.product(range(2), repeat=4):
        first, second = np.zeros((2, 2)), np.zeros((2, 2))
        first[a, c] = second[b, d] = 1.0
        for l in range(1, n + 1):
            ref += h2[2 * a + b, 2 * c + d] * op_on_sites(n, {l: first, l % n + 1: second})
    return ref


class TestRingApply:
    @pytest.mark.parametrize("kind", ["real", "complex", "longdouble"])
    @pytest.mark.parametrize("n", range(3, 7))
    def test_matches_kron_reference(self, n, kind):
        rng = np.random.default_rng(n)
        h2 = rng.normal(size=(4, 4))  # neither symmetric nor flip invariant
        vecs = rng.normal(size=(2**n, 3))
        if kind == "complex":
            h2 = h2 + 1j * rng.normal(size=(4, 4))
            vecs = vecs + 1j * rng.normal(size=(2**n, 3))
        elif kind == "longdouble":
            vecs = vecs.astype(np.longdouble)
        out = ring_apply(h2, vecs, n)
        assert out.dtype == np.result_type(h2, vecs) and out.shape == vecs.shape
        ref = _kron_ring(h2, n) @ vecs.astype(complex)
        assert np.max(np.abs(out - ref)) < 1e-12

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_stack_of_bond_terms(self, n):
        # a stack (..., 4, 4) gives each member the bits of its own call
        rng = np.random.default_rng(n)
        h2, vecs = rng.normal(size=(3, 2, 4, 4)), rng.normal(size=(2**n, 3))
        out = ring_apply(h2, vecs, n)
        assert out.shape == (3, 2, 2**n, 3)
        for index in np.ndindex(3, 2):
            assert out[index].tobytes() == ring_apply(h2[index], vecs, n).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_stack_of_vectors(self, n, dtype):
        # batch axes on vecs (..., 2^n, m) broadcast against those of h2, and
        # each member keeps the bits of its own call
        rng = np.random.default_rng(n)
        h2 = rng.normal(size=(2, 1, 4, 4))
        vecs = rng.normal(size=(3, 2**n, 2)).astype(dtype)
        out = ring_apply(h2, vecs, n)
        assert out.shape == (2, 3, 2**n, 2) and out.dtype == dtype
        for a, b in np.ndindex(2, 3):
            assert out[a, b].tobytes() == ring_apply(h2[a, 0], vecs[b], n).tobytes()
        one = ring_apply(h2[1, 0], vecs, n)  # one bond term for a stack of vectors
        assert one.shape == vecs.shape
        assert all(one[b].tobytes() == out[1, b].tobytes() for b in range(3))


class TestDenseCap:
    def test_certify(self):
        with pytest.raises(ValueError, match="dense cap"):
            certify(params(n=13))

    def test_ring_spectrum_stack(self):
        with pytest.raises(ValueError, match="dense cap"):
            ring_spectrum(np.array([bond_operator(params(n=13))]), 13)


class TestDenseSpectrum:
    def test_projector_form_ground_energy_zero(self):
        p = params()
        h = ring_apply(bond_operator(p, "projector"), np.eye(2**p.n), p.n)
        spec = dense_spectrum(h)
        assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)

    def test_coupling_form_ground_energy(self):
        p = params()
        h = ring_apply(bond_operator(p, "coupling"), np.eye(2**p.n), p.n)
        spec = dense_spectrum(h)
        assert spec.eigenvalues[0] == pytest.approx(-9.75, abs=1e-10)

    def test_zero_matrix(self):
        spec = dense_spectrum(np.zeros((16, 16)))
        assert spec.ground_space_dim == 16
        assert np.allclose(spec.eigenvalues, 0)

    def test_sorted_and_orthonormal(self):
        p = params(g=0.3)
        spec = dense_spectrum(ring_apply(bond_operator(p, "projector"), np.eye(2**p.n), p.n))
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
        gram = spec.ground_vectors.conj().T @ spec.ground_vectors
        assert np.max(np.abs(gram - np.eye(spec.ground_space_dim))) < 1e-10

    def test_real_input_stays_real(self):
        p = params(g=0.3)
        spec = dense_spectrum(ring_apply(bond_operator(p, "coupling"), np.eye(2**p.n), p.n))
        assert spec.eigenvalues.dtype == np.float64
        assert spec.ground_vectors.dtype == np.float64

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            dense_spectrum(m)

    @pytest.mark.parametrize("row,col", [(599, 3), (300, 512), (3, 599)])
    def test_rejects_non_hermitian_in_any_block(self, row, col):
        m = np.zeros((600, 600))
        m[row, col] = 1.0
        with pytest.raises(ValueError):
            dense_spectrum(m)

    def test_hermiticity_relative_to_largest_entry(self):
        # an asymmetry of 1e-15 of the largest entry is rounding, not a defect
        m = np.diag([1.4e6, -3.0, 2.0, 5.0])
        m[0, 1], m[1, 0] = 7.0, 7.0 + 2e-9
        assert dense_spectrum(m).eigenvalues.shape == (4,)
        m[1, 0] = 7.0 + 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            dense_spectrum(m)

    def test_ground_vectors_own_their_data(self):
        # a view would keep the whole eigenvector matrix alive
        p = params(g=0.3)
        spec = dense_spectrum(ring_apply(bond_operator(p, "coupling"), np.eye(2**p.n), p.n))
        assert spec.ground_vectors.flags.owndata

    def test_accepts_complex_hermitian_across_blocks(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))
        spec = dense_spectrum(a + a.conj().T)
        assert spec.eigenvalues.shape == (300,)


class TestGroundMembership:
    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_explicit_state_in_ground_space(self, eps, eta, n):
        p = params(eps, eta, g=0.7, n=n)
        h = ring_apply(bond_operator(p, "projector"), np.eye(2**p.n), p.n)
        res, ov = ground_membership(bond_operator(p), explicit_ground_state(p), dense_spectrum(h))
        assert res < 1e-10
        assert ov > 1 - 1e-10

    def test_random_vector_far_from_ground_space(self):
        p = params(g=0.7)
        h = ring_apply(bond_operator(p, "coupling"), np.eye(2**p.n), p.n)
        rng = np.random.default_rng(11)
        v = rng.normal(size=2**p.n) + 1j * rng.normal(size=2**p.n)
        v /= np.linalg.norm(v)
        _, ov = ground_membership(bond_operator(p, "coupling"), v, dense_spectrum(h))
        assert ov < 0.9

    def test_eigenvector_self_consistency(self):
        p = params(g=0.3)
        spec = dense_spectrum(ring_apply(bond_operator(p, "coupling"), np.eye(2**p.n), p.n))
        _, ov = ground_membership(bond_operator(p, "coupling"), spec.ground_vectors[:, 0], spec)
        assert ov == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_precomputed_spectrum_of_shifted_form(self, eps, eta):
        # the coupling form is the projector form shifted by -n*c0, so its
        # spectrum gives the same membership as recomputing from h_proj
        p = params(eps, eta, g=0.7)
        h_proj = ring_apply(bond_operator(p, "projector"), np.eye(2**p.n), p.n)
        spec = dense_spectrum(ring_apply(bond_operator(p, "coupling"), np.eye(2**p.n), p.n))
        psi = explicit_ground_state(p)
        res, ov = ground_membership(bond_operator(p), psi, spec)
        res_ref, ov_ref = ground_membership(bond_operator(p), psi, dense_spectrum(h_proj))
        assert res == res_ref
        assert ov == pytest.approx(ov_ref, abs=1e-14)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_real_h_matches_complex_product(self, eps, eta):
        # real H is applied to the real and imaginary parts of psi separately
        p = params(eps, eta, g=0.37, n=8)
        h = bond_operator(p)
        spec = ring_spectrum(h, p.n)
        psi = explicit_ground_state(p)
        rng = np.random.default_rng(3)
        v = rng.normal(size=2**p.n) + 1j * rng.normal(size=2**p.n)
        for state in (psi, v / np.linalg.norm(v)):
            res, ov = ground_membership(h, state, spec)
            res_ref, ov_ref = ground_membership(h.astype(complex), state, spec)
            assert res == pytest.approx(res_ref, abs=1e-15, rel=1e-14)
            assert ov == pytest.approx(ov_ref, abs=1e-15)

    def test_matches_direct_product(self):
        # the reference is the plain complex product, not ground_membership
        # itself, for a real and a complex Hermitian bond term and a complex state
        p = params(eta=-1, g=0.37)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        v = rng.normal(size=2**p.n) + 1j * rng.normal(size=2**p.n)
        v /= np.linalg.norm(v)
        for h2 in (bond_operator(p, "coupling"), bond_operator(p, "coupling") + 0.1j * (a - a.T)):
            h = _kron_ring(h2, p.n)
            spec = dense_spectrum(h)
            hv = h @ v
            res, ov = ground_membership(h2, v, spec)
            assert res == pytest.approx(np.linalg.norm(hv - np.vdot(v, hv) * v), rel=1e-13, abs=0)
            assert ov == pytest.approx(np.linalg.norm(spec.ground_vectors.conj().T @ v),
                                       rel=1e-13, abs=0)

    def test_rejects_unnormalized(self):
        h = np.eye(4)
        with pytest.raises(ValueError):
            ground_membership(h, np.ones(4), dense_spectrum(h))


class TestRayleighQuotient:
    def test_ground_vector_gives_expected_energy(self):
        p = params(eta=-1, g=0.3, j=0.5)
        spec = dense_spectrum(ring_apply(bond_operator(p, "coupling"), np.eye(2**p.n), p.n))
        energy = rayleigh_quotient(bond_operator(p, "coupling"), spec.ground_vectors[:, 0])
        assert energy == pytest.approx(-p.n * constant_shift(p), abs=1e-13)

    @pytest.mark.parametrize("g", [-2.0, -0.5, 0.37, 1.5])
    def test_long_double_at_n10(self, g):
        # a float64 quotient of these ground vectors is off by up to ~30 ulp
        for eps, eta in CLASSES:
            p = params(eps, eta, g, j=0.4, n=10)
            h2 = bond_operator(p, "coupling")
            energy = rayleigh_quotient(h2, ring_spectrum(h2, p.n).ground_vectors[:, 0])
            expected = -p.n * constant_shift(p)
            assert abs(energy - expected) <= 2 * np.spacing(abs(expected)), (eps, eta)

    def test_unnormalized_complex_vector(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h2 = a + a.conj().T
        v = 3 * (rng.normal(size=8) + 1j * rng.normal(size=8))
        want = np.vdot(v, _kron_ring(h2, 3) @ v).real / np.vdot(v, v).real
        assert rayleigh_quotient(h2, v) == pytest.approx(want, rel=1e-14, abs=0)


RING_G = [-2.0, -1.0, -0.5, 0.0, 0.37, 1.0, 1.5]
RING_J = [0.0, 0.4, 1.0]


def _record_eigensolves(monkeypatch):
    """Wrap np.linalg.eigvalsh and np.linalg.eigh; returns the list that
    gets the (name, input stack) of every call."""
    calls = []

    def recorded(name, real):
        return lambda blocks: calls.append((name, blocks)) or real(blocks)

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    return calls


def _eigh_sectors(calls, n):
    """(k, s, members) of each eigh call among calls (one ring_spectrum),
    the sector found as the eigvalsh stack, in the sector order k = 0..n//2
    for s = +1 and then for s = -1, that holds the first of its blocks."""
    stacks = [b for name, b in calls if name == "eigvalsh"]
    out = []
    for name, blocks in calls:
        if name == "eigh":
            (i,) = [i for i, st in enumerate(stacks) if st.shape[1:] == blocks.shape[1:]
                    and any(np.array_equal(b, blocks[0]) for b in st)]
            out.append((i % (n // 2 + 1), 1 if i <= n // 2 else -1, len(blocks)))
    return out


def _ground_residual(hv, spec):
    """Spectral norm of H V - E0 V, with hv = H V for the ground vectors V."""
    return np.linalg.norm(hv - spec.eigenvalues[0] * spec.ground_vectors, 2)


class TestRingSpectrum:
    @pytest.mark.parametrize("eta", [1, -1])
    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_dense(self, n, eta):
        # One dense reference per (g, J) serves both signs of epsilon and both
        # forms. U = prod sigma_z flips the sign of the field term only, so
        # H(-epsilon) = U H(epsilon) U with the same spectrum and ground
        # projector U P U; the projector form is the coupling form plus
        # n*c0*identity.
        u = (-1.0) ** np.array([bin(i).count("1") for i in range(2**n)])
        for g, j in itertools.product(RING_G, RING_J):
            h_ref = ring_apply(bond_operator(params(1, eta, g, j, n), "coupling"), np.eye(2**n), n)
            ref = dense_spectrum(h_ref)
            gap = ref.eigenvalues[ref.ground_space_dim] - ref.eigenvalues[0]
            ref_residual = _ground_residual(h_ref @ ref.ground_vectors, ref)
            for eps, form in itertools.product((1, -1), ("coupling", "projector")):
                p = params(eps, eta, g, j, n)
                h2 = bond_operator(p, form)
                spec = ring_spectrum(h2, n)
                where = (eps, g, j, form)
                shift = n * constant_shift(p) if form == "projector" else 0.0
                assert spec.ground_space_dim == ref.ground_space_dim, where
                assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues - shift)) < 1e-12, where
                v = spec.ground_vectors
                assert v.dtype == np.float64 and v.flags.owndata
                assert np.max(np.abs(v.T @ v - np.eye(spec.ground_space_dim))) < 1e-12, where
                ref_v = ref.ground_vectors * (u[:, None] if eps == -1 else 1.0)
                # the ground projectors agree to 1e-12, or to the Davis-Kahan
                # bound (residuals / gap) where a small gap makes them ill-conditioned
                bound = (_ground_residual(ring_apply(h2, v, n), spec) + ref_residual) / gap
                assert np.max(np.abs(v @ v.T - ref_v @ ref_v.T)) < max(1e-12, bound), where

    @pytest.mark.parametrize("entry", [0, 1, 3])
    def test_rejects_broken_flip(self, entry):
        # sx.sx maps the bond state |ab> to |(1-a)(1-b)>, entry e to 3 - e
        h2 = bond_operator(params(n=10), "coupling")
        h2[entry, entry] += 1e-6
        with pytest.raises(ValueError, match="flip"):
            ring_spectrum(h2, 10)

    @staticmethod
    def _assert_matches_dense(h2, n):
        spec, ref = ring_spectrum(h2, n), dense_spectrum(_kron_ring(h2, n).real)
        assert spec.ground_space_dim == ref.ground_space_dim
        assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues)) < 1e-9
        v, ref_v = spec.ground_vectors, ref.ground_vectors
        assert np.max(np.abs(v @ v.T - ref_v @ ref_v.T)) < 1e-12
        return spec

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_antiferromagnetic_pair_sectors(self, n):
        # sigma.sigma on an odd ring: a fourfold ground space in the complex
        # sector pair k = +-1 (n = 3, 5) or k = +-2 (n = 7), both s
        h2 = sum(np.kron(PAULI[a], PAULI[a]) for a in "xyz").real
        assert self._assert_matches_dense(h2, n).ground_space_dim == 4

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_invariant_matrix(self, n):
        # Beyond the model: the ring sum of a random real symmetric bond term,
        # averaged over the flip, is a random invariant matrix; with no
        # site-swap symmetry its blocks k and -k are complex and not equivalent.
        # n = 2 is the one size with a sector that holds no state, (1, +),
        # whose empty block goes through eigvalsh with the rest
        rng = np.random.default_rng(n)
        a = rng.normal(size=(4, 4))
        a += a.T
        self._assert_matches_dense(a + a[::-1, ::-1], n)

    def test_rejects_complex(self):
        h2 = bond_operator(params(n=4), "coupling").astype(complex)
        with pytest.raises(ValueError, match="real"):
            ring_spectrum(h2, 4)

    @pytest.mark.parametrize("field", ["eigenvalues", "ground_vectors"])
    def test_nan_in_a_block_without_ground_state(self, monkeypatch, field):
        # np.sort would move a NaN eigenvalue of an excited block out of sight.
        # An excited block gets eigvalsh only, so a NaN goes into its values:
        # the top one (eigenvalues) or the lowest, which is held against the
        # ground cut in place of the eigenvectors it no longer has (ground_vectors)
        p = params(n=6, g=0.3)
        h = ring_apply(bond_operator(p, "coupling"), np.eye(2**p.n), p.n)
        excited = dense_spectrum(h).eigenvalues[0] + 1
        real, poisoned = np.linalg.eigvalsh, []

        def eigvalsh(block):
            w = real(block)
            if w[..., 0].min() < excited:
                return w
            poisoned.append(block.shape[-1])
            w = w.copy()
            w[..., -1 if field == "eigenvalues" else 0] = np.nan
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert np.isnan(ring_spectrum(bond_operator(p, "coupling"), 6).eigenvalues[0])
        assert poisoned

    def test_certify_diagonalizes_blocks_only(self, monkeypatch):
        calls = _record_eigensolves(monkeypatch)  # certify passes stacks (members, r, r)
        assert certify(params(n=8, g=0.37)).degeneracy == 2
        assert 0 < max(block.shape[-1] for _, block in calls) < 2**8 // 8
        calls.clear()
        ring_spectrum(np.array([bond_operator(params(n=8, g=0.3))]), 8)
        assert 0 < max(block.shape[-1] for _, block in calls) < 2**8 // 8

    def test_one_eigensolve_per_sector(self, monkeypatch):
        # one eigvalsh for each of the n//2 + 1 momenta k <= n/2 times the two
        # flip signs, whatever the stack, and eigh on the two ground sectors only
        calls = _record_eigensolves(monkeypatch)
        for n in (5, 8):
            calls.clear()
            ring_spectrum(np.array([bond_operator(params(n=n, g=g)) for g in BATCH_G]), n)
            shapes = {name: [b.shape[:-2] for f, b in calls if f == name]
                      for name in ("eigvalsh", "eigh")}
            assert shapes["eigvalsh"] == [(len(BATCH_G),)] * 2 * (n // 2 + 1), n
            assert shapes["eigh"] == [(len(BATCH_G),)] * 2, n

    @pytest.mark.parametrize("entry", [(0, 1), (0, 2), (1, 3)])
    def test_rejects_non_symmetric(self, entry):
        # a skew part that keeps the flip symmetry (entry e and 3 - e move together)
        h2 = bond_operator(params(n=6), "coupling")
        (a, b), scale = entry, np.abs(h2).max()
        h2[a, b] += 1e-6 * scale
        h2[3 - a, 3 - b] += 1e-6 * scale
        with pytest.raises(ValueError, match="bond term is not symmetric$"):
            ring_spectrum(h2, 6)

    def test_symmetry_relative_to_largest_entry(self):
        # an asymmetry of 1e-13 of the largest entry is rounding, not a defect
        h2 = bond_operator(params(g=1e4, n=4), "coupling")
        skew = 1e-13 * np.abs(h2).max()
        assert skew > 1e-10
        h2[0, 1] += skew
        h2[3, 2] += skew
        assert ring_spectrum(h2, 4).ground_space_dim == 2

    @pytest.mark.parametrize("g", [1e3, -1e3, 1e4, 1e5])
    def test_projector_form_at_large_field(self, g):
        # the 1x1 complex blocks of n = 3 are sums that cancel down to about 2
        # from entries about g^2/2: a rounding residue in the imaginary part of
        # their diagonal is no defect of the symmetric bond term
        p = params(g=g, n=3)
        shift = p.n * constant_shift(p)
        proj, coup = (ring_spectrum(bond_operator(p, f), 3) for f in ("projector", "coupling"))
        assert np.max(np.abs(proj.eigenvalues - coup.eigenvalues - shift)) < 1e-14 * shift

    def test_certify_holds_no_dense_matrix(self):
        # one 2^10 x 2^10 float64 matrix alone would take 8 MB
        p = params(n=10, g=0.37)
        certify(p)  # lazy imports and the cached sector tables
        tracemalloc.start()
        try:
            certify(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


BATCH_G = [-2.0, -0.5, 0.0, 0.3, 0.7, 1.0, 1.5]
BATCH_CLASSES = [(eps, eta, n) for eps, eta in CLASSES for n in range(3, 9)
                 if eta == 1 or n % 2 == 0]


def _same_bits(a, b):
    """Equal type, dtype, shape and bytes (so -0.0 differs from 0.0 and NaN equals NaN)."""
    return type(a) is type(b) and np.asarray(a).dtype == np.asarray(b).dtype and (
        np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def _same_spectrum(a, b):
    return (_same_bits(a.eigenvalues, b.eigenvalues) and a.ground_space_dim == b.ground_space_dim
            and type(a.ground_space_dim) is int and _same_bits(a.ground_vectors, b.ground_vectors))


class TestBatchEqualsPoint:
    """A stacked ring_spectrum and an array-g certify give every member the bits
    of its own single call."""

    @pytest.mark.parametrize("eps,eta,n", BATCH_CLASSES)
    @pytest.mark.parametrize("form", ["coupling", "projector"])
    def test_ring_spectrum(self, eps, eta, n, form):
        h2 = np.array([bond_operator(params(eps, eta, g, n=n), form) for g in BATCH_G])
        specs = ring_spectrum(h2, n)
        assert len(specs) == len(BATCH_G)
        for g, h, spec in zip(BATCH_G, h2, specs):
            assert _same_spectrum(spec, ring_spectrum(h, n)), g

    @pytest.mark.parametrize("eps,eta,n", BATCH_CLASSES)
    def test_certify(self, eps, eta, n):
        certs = certify(params(eps, eta, np.array(BATCH_G), n=n))
        assert len(certs) == len(BATCH_G)
        for g, cert in zip(BATCH_G, certs):
            single = certify(params(eps, eta, g, n=n))
            assert all(_same_bits(a, b) for a, b in
                       zip(dataclasses.astuple(cert), dataclasses.astuple(single))), g
            assert cert.degeneracy == 2

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("form", ["coupling", "projector"])
    def test_bond_operator(self, eps, eta, form):
        # certify builds each block's bond terms, and so its e_vectors, local_h
        # and pauli_reconstruct, in one call over the array g
        p = params(eps, eta, np.array(BATCH_G))
        stack, (e1, e2) = bond_operator(p, form), e_vectors(p)
        assert stack.shape == (len(BATCH_G), 4, 4) and e2.shape == (len(BATCH_G), 4)
        for k, g in enumerate(BATCH_G):
            q = params(eps, eta, g)
            assert _same_bits(stack[k], bond_operator(q, form)), g
            assert _same_bits(local_h(p)[k], local_h(q)), g
            assert _same_bits((e1, e2[k]), e_vectors(q)), g

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_rayleigh_quotient_and_membership(self, n):
        # the stacked certify tail: each member of a stack gets the bits of its own call
        points = [params(1, 1, g, n=n) for g in BATCH_G]
        h2 = np.array([bond_operator(q, "coupling") for q in points])
        specs = ring_spectrum(h2, n)
        vecs = np.array([spec.ground_vectors[:, 0] for spec in specs])
        states = explicit_ground_state(params(1, 1, np.array(BATCH_G), n=n)).amplitudes
        energies = rayleigh_quotient(h2, vecs)
        residuals, overlaps = ground_membership(h2, states, specs)
        assert energies.shape == residuals.shape == overlaps.shape == (len(BATCH_G),)
        for k, (h, spec) in enumerate(zip(h2, specs)):
            assert _same_bits(energies[k].item(), rayleigh_quotient(h, vecs[k])), k
            one = ground_membership(h, states[k], spec)
            assert _same_bits((residuals[k].item(), overlaps[k].item()), one), k
        cvecs = vecs + 1j * vecs[::-1]  # and complex vectors, long double in the quotient
        assert all(_same_bits(q.item(), rayleigh_quotient(h, v))
                   for q, h, v in zip(rayleigh_quotient(h2, cvecs), h2, cvecs))

    def test_certify_blocks_of_g(self, monkeypatch):
        # one g per block gives the same certificates as one block of all g
        p = params(1, -1, np.array(BATCH_G), n=6)
        whole = certify(p)
        monkeypatch.setattr(ed, "BLOCK_ENTRIES", 1)
        assert all(_same_bits(dataclasses.astuple(a), dataclasses.astuple(b))
                   for a, b in zip(certify(p), whole))

    @pytest.mark.parametrize("field", ["eigenvalues", "ground_vectors"])
    def test_nan_fails_only_its_member(self, monkeypatch, field):
        h2 = np.array([bond_operator(params(g=g, n=6), "coupling") for g in BATCH_G])
        clean = ring_spectrum(h2, 6)
        real = np.linalg.eigh

        def eigh(blocks):
            out, k = list(real(blocks)), EIGH_FIELDS[field]
            out[k] = out[k].copy()
            out[k][2] = np.nan  # member 2 of the stack, in every sector
            return tuple(out)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        for m, (spec, ref) in enumerate(zip(ring_spectrum(h2, 6), clean)):
            if m == 2:
                assert np.isnan(spec.eigenvalues[0]) and np.isnan(spec.ground_vectors).all()
            else:
                assert _same_spectrum(spec, ref), m

    def test_failing_member_named_by_g(self, monkeypatch):
        real = ed.bond_operator

        def bond(p, form="projector"):
            h2 = real(p, form)
            h2[1, 0, 1] += 1.0  # member 1 (g = 0.5) of the stack is not symmetric
            return h2

        monkeypatch.setattr(ed, "bond_operator", bond)
        with pytest.raises(ValueError, match=r"not symmetric at batch member 1 \(g=0\.5, n=4\)"):
            certify(params(g=np.array([0.0, 0.5, 1.0]), n=4))

    def test_batched_certify_holds_no_dense_matrix(self):
        # as test_certify_holds_no_dense_matrix, for 41 g: g goes through in blocks
        p = params(n=10, g=np.linspace(-2.0, 2.0, 41))
        certify(params(n=10, g=0.37))  # lazy imports and the cached sector tables
        tracemalloc.start()
        try:
            certs = certify(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(certs) == 41 and min(c.degeneracy for c in certs) == 2
        assert peak < 8 * 2**20


class TestEighOnlyInGroundSectors:
    """ring_spectrum takes every sector's eigenvalues with eigvalsh and solves
    with eigh only the sector blocks of a member that hold a level within its
    ground cut: the bits of the walk that solves every block with eigh."""

    G = BATCH_G + [1e5, -1e5]

    @pytest.mark.parametrize("eps,eta,n", BATCH_CLASSES)
    def test_bits_of_the_all_eigh_walk(self, monkeypatch, eps, eta, n):
        # the ground vectors sit in the real sectors (0, +) and (0, -) for
        # eta = +1, (0, +) and (n/2, -) for eta = -1
        ground = {(0, 1), (0, -1)} if eta == 1 else {(0, 1), (n // 2, -1)}
        for form, j in itertools.product(("coupling", "projector"), (1.0, 0.0)):
            h2 = np.array([bond_operator(params(eps, eta, g, j, n), form) for g in self.G])
            refs = ring_spectrum_all_eigh(h2, n)
            with monkeypatch.context() as m:
                calls = _record_eigensolves(m)
                specs = ring_spectrum(h2, n)
            where = (form, j)
            for g, spec, ref in zip(self.G, specs, refs):
                assert _same_bits(spec.eigenvalues[0], ref.eigenvalues[0]), (where, g)
                assert spec.ground_space_dim == ref.ground_space_dim, (where, g)
                assert _same_bits(spec.ground_vectors, ref.ground_vectors), (where, g)
                scale = np.abs(ref.eigenvalues).max()
                assert np.abs(spec.eigenvalues - ref.eigenvalues).max() <= 1e-12 * scale, (
                    where, g)
            if j == 1.0 and n >= 4:
                solved = _eigh_sectors(calls, n)
                assert sorted(solved) == sorted((k, s, len(self.G)) for k, s in ground), where

    def test_every_counted_level_has_its_vector(self, monkeypatch):
        # eigvalsh puts sector (0, +) lower by 1, so the cut taken on its values
        # leaves out the other ground sector, (0, -): eigh solves (0, +) alone,
        # and each level counted within the cut still gets a ground vector
        h2 = np.array([bond_operator(params(g=g, n=6), "coupling") for g in BATCH_G])
        calls = _record_eigensolves(monkeypatch)
        recorded, shifts = np.linalg.eigvalsh, iter([1.0])  # the first call, sector (0, +)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda blocks: recorded(blocks) - next(shifts, 0.0))
        specs = ring_spectrum(h2, 6)
        assert _eigh_sectors(calls, 6) == [(0, 1, len(BATCH_G))]
        for g, h, spec in zip(BATCH_G, h2, specs):
            v = spec.ground_vectors
            assert spec.ground_space_dim == v.shape[1] >= 1, g
            assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) < 1e-12, g
            # eigenvectors of H at the lowest level, which eigh's values of (0, +) hold
            scale = np.abs(spec.eigenvalues).max()
            assert np.max(np.abs(ring_apply(h, v, 6) - spec.eigenvalues[0] * v)) < 1e-12 * scale, g


class TestRelativeGroundCut:
    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_large_field_keeps_both_ground_vectors(self, eps, eta):
        # at g = 1e4 the two ground eigenvalues (about -2e8) differ by ~6e-8,
        # above an absolute 1e-8 cut but far below a relative one
        cert = certify(params(eps, eta, g=1e4, n=4))
        assert cert.degeneracy == 2
        assert cert.overlap == pytest.approx(1.0, abs=1e-12)
        assert cert.residual < 1e-6
        assert cert.energy == -4 * constant_shift(params(eps, eta, g=1e4, n=4))

    def test_dense_spectrum_cut(self):
        # a gap of 5e-14 of the spectral radius is one ground space, 2e-13 two levels
        for w, dim in (([-1e8, -1e8 + 5e-6, 3.0], 2), ([-1e8, -1e8 + 2e-5, 3.0], 1),
                       ([0.0, 5e-14, 1.0], 2), ([0.0, 2e-13, 1.0], 1)):
            assert dense_spectrum(np.diag(w)).ground_space_dim == dim, w

    @pytest.mark.parametrize("n", range(3, 9))
    def test_two_fold_at_large_field(self, n):
        # the gap stays O(1) while the spectral radius grows as n g^2: a cut
        # relative to |w[0]| (about n g^2 / 2 in the coupling form, 0 in the
        # projector form) took in excited levels or split the ground pair
        g = [1e3, -1e3, 1e4, 1e5]
        for (eps, eta), form in itertools.product(CLASSES, ("coupling", "projector")):
            if eta == -1 and n % 2:
                continue
            h2 = np.array([bond_operator(params(eps, eta, x, n=n), form) for x in g])
            dims = [spec.ground_space_dim for spec in ring_spectrum(h2, n)]
            assert dims == [2] * len(g), (eps, eta, form)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_coupling_weight_zero(self, n):
        # at J = 0 the ground space of an even ring is (n + 1)-fold, of an odd one
        # 2-fold; epsilon = -1 has the same spectrum (see test_matches_dense)
        g = [0.3, 0.37, -2.0, 1.5, 1e3, 1e4, 1e5]
        for eta, form in itertools.product((1, -1), ("coupling", "projector")):
            if eta == -1 and n % 2:
                continue
            h2 = np.array([bond_operator(params(1, eta, x, j=0.0, n=n), form) for x in g])
            dims = [spec.ground_space_dim for spec in ring_spectrum(h2, n)]
            assert dims == [2 if n % 2 else n + 1] * len(g), (eta, form)


class TestDegeneracyScan:
    """Ground-space dimension of the projector form at N = 6, from one
    ring_spectrum of the stacked bond terms over g."""

    @staticmethod
    def _dims(g_values):
        h2 = np.array([bond_operator(params(n=6, g=g)) for g in g_values])
        return [spec.ground_space_dim for spec in ring_spectrum(h2, 6)]

    def test_generic_g_dimension_two(self):
        assert self._dims([-0.5, 0.3, 0.5, 1.5]) == [2] * 4

    def test_g_zero_still_two(self):
        # phi_+ = phi_- at g=0, yet the measured ground space stays 2-dim:
        # a second zero mode replaces the collapsed product combination
        assert self._dims([0.0]) == [2]

    def test_ghz_point(self):
        assert self._dims([1.0]) == [2]


class TestSpinFlipSector:
    @pytest.mark.parametrize("n", [4, 6])
    def test_even_n_symmetric_sector(self, n):
        psi = build_state(mps_matrices(params(g=0.7, n=n)), n)
        flip = op_on_sites(n, {k: SX for k in range(1, n + 1)})
        assert np.linalg.norm(flip @ psi.amplitudes - psi.amplitudes) < 1e-10

    def test_odd_n_measured_eigenvalue(self):
        psi = build_state(mps_matrices(params(g=0.7, n=5)), 5)
        flip = op_on_sites(5, {k: SX for k in range(1, 6)})
        val = np.vdot(psi.amplitudes, flip @ psi.amplitudes).real
        assert abs(abs(val) - 1) < 1e-10  # eigenstate; record the sign
        assert val == pytest.approx(1.0, abs=1e-10)


def test_oracle_energy_across_grid():
    for (eps, eta) in CLASSES:
        for g in (-2.0, 0.3, 1.5):
            for j in (0.0, 2.0):
                p = params(eps, eta, g, j, n=4)
                spec = dense_spectrum(ring_apply(bond_operator(p, "coupling"), np.eye(2**p.n), p.n))
                assert spec.eigenvalues[0] == pytest.approx(
                    -p.n * constant_shift(p), abs=1e-9
                )
