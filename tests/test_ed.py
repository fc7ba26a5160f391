import numpy as np
import pytest

from xyzring import (
    ModelParams,
    assemble_chain_h,
    constant_shift,
    dense_spectrum,
    explicit_ground_state,
    ground_degeneracy_scan,
    ground_membership,
    mps_state,
)
from xyzring.ed import rayleigh_quotient
from xyzring.pauli import SX, op_on_sites

CLASSES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def params(eps=1, eta=1, g=0.5, j=1.0, n=6):
    return ModelParams(epsilon=eps, eta=eta, g=g, j=j, n=n)


class TestDenseSpectrum:
    def test_projector_form_ground_energy_zero(self):
        h = assemble_chain_h(params(), form="projector")
        spec = dense_spectrum(h)
        assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)

    def test_coupling_form_ground_energy(self):
        h = assemble_chain_h(params(), form="coupling")
        spec = dense_spectrum(h)
        assert spec.eigenvalues[0] == pytest.approx(-9.75, abs=1e-10)

    def test_zero_matrix(self):
        spec = dense_spectrum(np.zeros((16, 16)))
        assert spec.ground_space_dim == 16
        assert np.allclose(spec.eigenvalues, 0)

    def test_sorted_and_orthonormal(self):
        spec = dense_spectrum(assemble_chain_h(params(g=0.3), form="projector"))
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
        gram = spec.ground_vectors.conj().T @ spec.ground_vectors
        assert np.max(np.abs(gram - np.eye(spec.ground_space_dim))) < 1e-10

    def test_real_input_stays_real(self):
        spec = dense_spectrum(assemble_chain_h(params(g=0.3), form="coupling"))
        assert spec.eigenvalues.dtype == np.float64
        assert spec.ground_vectors.dtype == np.float64

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            dense_spectrum(m)

    @pytest.mark.parametrize("row,col", [(599, 3), (300, 512), (3, 599)])
    def test_rejects_non_hermitian_in_any_block(self, row, col):
        # the check compares blocks of BLOCK_ROWS rows with their columns
        m = np.zeros((600, 600))
        m[row, col] = 1.0
        with pytest.raises(ValueError):
            dense_spectrum(m)

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
        h = assemble_chain_h(p, form="projector")
        res, ov = ground_membership(h, explicit_ground_state(p))
        assert res < 1e-10
        assert ov > 1 - 1e-10

    def test_random_vector_far_from_ground_space(self):
        p = params(g=0.7)
        h = assemble_chain_h(p, form="coupling")
        rng = np.random.default_rng(11)
        v = rng.normal(size=2**p.n) + 1j * rng.normal(size=2**p.n)
        v /= np.linalg.norm(v)
        _, ov = ground_membership(h, v)
        assert ov < 0.9

    def test_eigenvector_self_consistency(self):
        h = assemble_chain_h(params(g=0.3), form="coupling")
        spec = dense_spectrum(h)
        _, ov = ground_membership(h, spec.ground_vectors[:, 0])
        assert ov == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_precomputed_spectrum_of_shifted_form(self, eps, eta):
        # the coupling form is the projector form shifted by -n*c0, so its
        # spectrum gives the same membership as recomputing from h_proj
        p = params(eps, eta, g=0.7)
        h_proj = assemble_chain_h(p, form="projector")
        spec = dense_spectrum(assemble_chain_h(p, form="coupling"))
        psi = explicit_ground_state(p)
        res, ov = ground_membership(h_proj, psi, spec)
        res_ref, ov_ref = ground_membership(h_proj, psi)
        assert res == res_ref
        assert ov == pytest.approx(ov_ref, abs=1e-14)

    def test_rejects_unnormalized(self):
        h = np.eye(4)
        with pytest.raises(ValueError):
            ground_membership(h, np.ones(4))


class TestRayleighQuotient:
    def test_ground_vector_gives_expected_energy(self):
        p = params(eta=-1, g=0.3, j=0.5)
        h = assemble_chain_h(p, form="coupling")
        spec = dense_spectrum(h)
        energy = rayleigh_quotient(h, spec.ground_vectors[:, 0])
        assert energy == pytest.approx(-p.n * constant_shift(p), abs=1e-13)

    def test_unnormalized_complex_vector(self):
        h = np.array([[2.0, 1j], [-1j, 2.0]])
        assert rayleigh_quotient(h, np.array([1.0, 1j]) * 3) == pytest.approx(1.0)


class TestDegeneracyScan:
    def test_generic_g_dimension_two(self):
        scan = ground_degeneracy_scan(params(n=6), [-0.5, 0.3, 0.5, 1.5])
        assert all(dim == 2 for _, dim in scan)

    def test_g_zero_still_two(self):
        # phi_+ = phi_- at g=0, yet the measured ground space stays 2-dim:
        # a second zero mode replaces the collapsed product combination
        (_, dim0), = ground_degeneracy_scan(params(n=6), [0.0])
        assert dim0 == 2

    def test_ghz_point(self):
        (_, dim1), = ground_degeneracy_scan(params(n=6), [1.0])
        assert dim1 == 2


class TestSpinFlipSector:
    @pytest.mark.parametrize("n", [4, 6])
    def test_even_n_symmetric_sector(self, n):
        psi = mps_state(params(g=0.7, n=n))
        flip = op_on_sites(n, {k: SX for k in range(1, n + 1)})
        assert np.linalg.norm(flip @ psi.amplitudes - psi.amplitudes) < 1e-10

    def test_odd_n_measured_eigenvalue(self):
        psi = mps_state(params(g=0.7, n=5))
        flip = op_on_sites(5, {k: SX for k in range(1, 6)})
        val = np.vdot(psi.amplitudes, flip @ psi.amplitudes).real
        assert abs(abs(val) - 1) < 1e-10  # eigenstate; record the sign
        assert val == pytest.approx(1.0, abs=1e-10)


def test_oracle_energy_across_grid():
    for (eps, eta) in CLASSES:
        for g in (-2.0, 0.3, 1.5):
            for j in (0.0, 2.0):
                p = params(eps, eta, g, j, n=4)
                spec = dense_spectrum(assemble_chain_h(p, form="coupling"))
                assert spec.eigenvalues[0] == pytest.approx(
                    -p.n * constant_shift(p), abs=1e-9
                )
