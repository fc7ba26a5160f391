import itertools

import numpy as np
import pytest

from dense_ref import op_on_sites
from xyzring import (
    ModelParams,
    constant_shift,
    couplings_from_params,
    e_vectors,
    explicit_ground_state,
    general_mps_matrices,
    local_h,
    mps_matrices,
    null_space_k2,
    pauli_decompose,
    pauli_reconstruct,
    ring_apply,
)
from xyzring.parent import bond_operator
from xyzring.pauli import PAULI, SX, SY, SZ

CLASSES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
G_GRID = list(np.linspace(-2, 2, 11))

PSI_P = np.array([0, 1, 1, 0]) / np.sqrt(2)
PSI_M = np.array([0, 1, -1, 0]) / np.sqrt(2)
PHI_P = np.array([1, 0, 0, 1]) / np.sqrt(2)
PHI_M = np.array([1, 0, 0, -1]) / np.sqrt(2)


def params(eps=1, eta=1, g=0.5, j=1.0, n=4):
    return ModelParams(epsilon=eps, eta=eta, g=g, j=j, n=n)


class TestNullSpace:
    def test_determinant_formula_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a, b, c, d = rng.normal(size=4)
            t = general_mps_matrices(a, b, c, d)
            det = np.linalg.det(null_space_k2(t.a0, t.a1).m).real
            formula = 16 * b * b * c * c * (a - d) ** 2 * (a + d) ** 2
            assert det == pytest.approx(formula, rel=1e-10, abs=0)

    def test_determinant_integer_point(self):
        t = general_mps_matrices(1, 2, 3, 4)
        det = np.linalg.det(null_space_k2(t.a0, t.a1).m).real
        assert det == pytest.approx(16 * 4 * 9 * 9 * 25, rel=1e-12, abs=0)  # 129600

    def test_kernel_dim_at_least_two_for_a_eq_d(self):
        t = general_mps_matrices(1, 1, 1, 1)
        assert null_space_k2(t.a0, t.a1).kernel_dim >= 2

    def test_kernel_vectors_annihilate(self):
        t = mps_matrices(params(g=0.5))
        prob = null_space_k2(t.a0, t.a1)
        mats = (t.a0.astype(complex), t.a1.astype(complex))
        for c in prob.kernel.T:
            comb = sum(
                c[2 * j1 + j2] * mats[j1] @ mats[j2]
                for j1, j2 in itertools.product(range(2), repeat=2)
            )
            assert np.linalg.norm(comb) < 1e-12

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("g", G_GRID)
    def test_kernel_projector_matches_e_span(self, eps, eta, g):
        p = params(eps, eta, g)
        t = mps_matrices(p)
        prob = null_space_k2(t.a0, t.a1)
        e1, e2 = e_vectors(p)
        basis = np.linalg.qr(np.column_stack([e1, e2]))[0]
        proj_e = basis @ basis.conj().T
        proj_k = prob.kernel @ prob.kernel.conj().T
        if prob.kernel_dim == 2:
            assert np.max(np.abs(proj_e - proj_k)) < 1e-10
        else:
            # degenerate point: e-span must still lie inside the kernel
            assert prob.kernel_dim > 2
            assert np.max(np.abs(proj_k @ proj_e - proj_e)) < 1e-10


class TestEVectors:
    def test_eta_plus(self):
        e1, _ = e_vectors(params(eta=1))
        assert np.allclose(e1, 2 * PSI_M)

    def test_eta_minus(self):
        e1, _ = e_vectors(params(eta=-1))
        assert np.allclose(e1, 2 * PHI_M)

    def test_e2_at_g_one(self):
        _, e2 = e_vectors(params(g=1.0))
        assert np.allclose(e2, 2 * PSI_P)

    def test_general_form(self):
        p = params(eps=-1, eta=-1, g=0.3)
        e1, e2 = e_vectors(p)
        assert np.allclose(e1, (1 + p.eta) * PSI_M + (1 - p.eta) * PHI_M)
        assert np.allclose(e2, (1 + p.g) * PSI_P - p.epsilon * (1 - p.g) * PHI_P)


class TestLocalH:
    def test_annihilates_product_pair(self):
        p = params(g=0.7, j=1.3)
        h = local_h(p)
        sg = np.sqrt(0.7)
        phi_p = np.array([1 + sg, 1 - sg])
        vec = np.kron(phi_p, phi_p)
        assert np.linalg.norm(h @ vec) < 1e-12
        phi_m = np.array([1 - sg, 1 + sg])
        assert np.linalg.norm(h @ np.kron(phi_m, phi_m)) < 1e-12

    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_spin_flip_symmetric(self, eps, eta):
        h = local_h(params(eps, eta, g=0.4, j=0.8))
        xx = np.kron(SX, SX)
        assert np.allclose(xx @ h @ xx, h)

    def test_eigenvalues_at_g_one(self):
        # e1 and e2 are orthogonal there, so the spectrum is {4J, |e2|^2, 0, 0}
        h = local_h(params(g=1.0, j=1.0))
        ev = np.sort(np.linalg.eigvalsh(h))
        assert ev == pytest.approx([0, 0, 4, 4], abs=1e-12)

    def test_positive_semidefinite(self):
        for (eps, eta), g in itertools.product(CLASSES, [-1.5, 0.2, 1.7]):
            ev = np.linalg.eigvalsh(local_h(params(eps, eta, g, j=0.5)))
            assert ev[0] > -1e-12


class TestPauliDecompose:
    def test_worked_point(self):
        coeffs = pauli_decompose(local_h(params(g=0.5, j=1.0)))
        assert coeffs["xx"] == pytest.approx(-0.375, abs=1e-12)
        assert coeffs["yy"] == pytest.approx(-0.5, abs=1e-12)
        assert coeffs["zz"] == pytest.approx(-1.5, abs=1e-12)
        assert coeffs["1x"] == pytest.approx(-0.375, abs=1e-12)
        assert coeffs["x1"] == pytest.approx(-0.375, abs=1e-12)
        assert coeffs["11"] == pytest.approx(1.625, abs=1e-12)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("g", [-2.0, -0.5, 0.3, 0.7, 1.0, 1.5])
    @pytest.mark.parametrize("j", [0.0, 0.5, 2.0])
    def test_recovers_coupling_surface(self, eps, eta, g, j):
        p = params(eps, eta, g, j)
        coeffs = pauli_decompose(local_h(p))
        c = couplings_from_params(p)
        assert coeffs["xx"] == pytest.approx(c.jx, abs=1e-12)
        assert coeffs["yy"] == pytest.approx(c.jy, abs=1e-12)
        assert coeffs["zz"] == pytest.approx(c.jz, abs=1e-12)
        assert coeffs["1x"] == pytest.approx(c.b / 2, abs=1e-12)
        assert coeffs["x1"] == pytest.approx(c.b / 2, abs=1e-12)
        assert coeffs["11"] == pytest.approx(constant_shift(p), abs=1e-12)
        off = {k: v for k, v in coeffs.items()
               if k not in ("xx", "yy", "zz", "1x", "x1", "11")}
        assert max(abs(v) for v in off.values()) < 1e-12

    def test_zero_matrix(self):
        coeffs = pauli_decompose(np.zeros((4, 4)))
        assert all(v == 0 for v in coeffs.values())

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            pauli_decompose(m)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = a + a.conj().T
            assert np.max(np.abs(pauli_reconstruct(pauli_decompose(h)) - h)) < 1e-12


class TestAssembleChain:
    """The dense ring Hamiltonian: ring_apply of bond_operator to the identity."""

    @pytest.mark.parametrize("eps,eta", CLASSES)
    @pytest.mark.parametrize("g", [-0.5, 0.3, 1.0])
    def test_projector_annihilates_mps_state(self, eps, eta, g):
        p = params(eps, eta, g, j=1.0, n=6)
        h = ring_apply(bond_operator(p, "projector"), np.eye(2**p.n), p.n)
        psi = explicit_ground_state(p).amplitudes
        assert np.linalg.norm(h @ psi) < 1e-10

    def test_coupling_form_ground_energy(self):
        p = params(g=0.5, j=1.0, n=6)
        h = ring_apply(bond_operator(p, "coupling"), np.eye(2**p.n), p.n)
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(-9.75, abs=1e-10)

    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_forms_differ_by_constant(self, eps, eta):
        p = params(eps, eta, g=0.7, j=0.5, n=5)
        hp = ring_apply(bond_operator(p, "projector"), np.eye(2**p.n), p.n)
        he = ring_apply(bond_operator(p, "coupling"), np.eye(2**p.n), p.n)
        c0 = constant_shift(p)
        assert np.max(np.abs(he - hp + p.n * c0 * np.eye(2**p.n))) < 1e-10

    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_bond_terms_differ_by_constant(self, eps, eta):
        # the field is split over both sites, so the identity holds per bond
        for g, j in itertools.product([-2.0, -1.0, -0.5, 0.0, 0.37, 1.0, 1.5], [0.0, 0.4, 1.0]):
            p = params(eps, eta, g, j)
            gap = bond_operator(p, "coupling") - bond_operator(p, "projector")
            assert np.max(np.abs(gap + constant_shift(p) * np.eye(4))) <= 1e-14

    def test_annihilates_product_terms_individually(self):
        # both product states and their combinations are zero modes (eta=1)
        p = params(g=0.6, j=1.0, n=4)
        h = ring_apply(bond_operator(p, "projector"), np.eye(2**p.n), p.n)
        sg = np.sqrt(0.6)
        for phi in (np.array([1 + sg, 1 - sg]), np.array([1 - sg, 1 + sg])):
            vec = np.array([1.0])
            for _ in range(4):
                vec = np.kron(vec, phi)
            vec = vec / np.linalg.norm(vec)
            assert np.linalg.norm(h @ vec) < 1e-10

    def test_sigma_z_conjugation_flips_epsilon(self):
        n = 4
        p_plus = params(eps=1, g=0.8, j=1.0, n=n)
        p_minus = params(eps=-1, g=0.8, j=1.0, n=n)
        u = op_on_sites(n, {k: SZ for k in range(1, n + 1)})
        h_plus = ring_apply(bond_operator(p_plus, "coupling"), np.eye(2**n), n)
        h_minus = ring_apply(bond_operator(p_minus, "coupling"), np.eye(2**n), n)
        assert np.max(np.abs(u @ h_plus @ u - h_minus)) < 1e-12

    @pytest.mark.parametrize("n", [4, 6])
    def test_staggered_rotation_flips_eta(self, n):
        # R_x(theta) = exp(-i theta sx / 2)
        def rx(theta):
            return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * SX

        u2 = np.kron(rx(np.pi / 2), rx(-np.pi / 2))
        u = np.array([[1.0 + 0j]])
        for _ in range(n // 2):
            u = np.kron(u, u2)
        h2_1 = bond_operator(params(eta=1, g=0.7, j=1.0, n=n), "coupling")
        h2_m = bond_operator(params(eta=-1, g=0.7, j=1.0, n=n), "coupling")
        h1, hm = ring_apply(h2_1, np.eye(2**n), n), ring_apply(h2_m, np.eye(2**n), n)
        assert np.max(np.abs(u @ h1 @ u.conj().T - hm)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_projector_form_matches_kron_reference(self, eps, eta, n):
        # independent reference: every Pauli term of local_h embedded on
        # bond (l, l+1) with op_on_sites, bond n wrapping to (n, 1)
        p = params(eps, eta, g=0.7, j=0.6, n=n)
        ref = np.zeros((2**n, 2**n), dtype=complex)
        for label, c in pauli_decompose(local_h(p)).items():
            for l in range(1, n + 1):
                ref += c * op_on_sites(n, {l: PAULI[label[0]], l % n + 1: PAULI[label[1]]})
        h = ring_apply(bond_operator(p, "projector"), np.eye(2**n), n)
        assert np.max(np.abs(h - ref)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("eps,eta", CLASSES)
    def test_coupling_form_matches_kron_reference(self, eps, eta, n):
        p = params(eps, eta, g=-0.4, j=1.3, n=n)
        c = couplings_from_params(p)
        ref = np.zeros((2**n, 2**n), dtype=complex)
        for l in range(1, n + 1):
            m = l % n + 1
            ref += c.jx * op_on_sites(n, {l: SX, m: SX})
            ref += c.jy * op_on_sites(n, {l: SY, m: SY})
            ref += c.jz * op_on_sites(n, {l: SZ, m: SZ})
            ref += c.b * op_on_sites(n, {l: SX})
        h = ring_apply(bond_operator(p, "coupling"), np.eye(2**n), n)
        assert np.max(np.abs(h - ref)) < 1e-12

    @pytest.mark.parametrize("form", ["projector", "coupling"])
    def test_real_float64(self, form):
        h = ring_apply(bond_operator(params(eta=-1, g=0.3, n=6), form), np.eye(2**6), 6)
        assert h.dtype == np.float64

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            bond_operator(params(), "bogus")
