import itertools

import numpy as np
import pytest

from xyzring import (
    ModelParams,
    MpsTensors,
    SymmetryReport,
    check_symmetries,
    correlations_eta_minus,
    couplings_from_params,
    explicit_ground_state,
    general_mps_matrices,
    mps_matrices,
    pair_density,
    ring_points,
)
from xyzring.model import no_state_error

CLASSES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
G_GRID = [-2.0, -0.5, 0.0, 0.3, 0.7, 1.0, 1.5]


@pytest.mark.parametrize(
    "eps,eta,g,j,expected",
    [
        (1, 1, 1.0, 0.0, (1.0, 1.0, -1.0, 0.0)),
        (1, 1, 0.0, 0.0, (0.5, 0.0, 0.0, -1.0)),
        (-1, -1, 2.0, 1.0, (1.5, 3.0, -1.0, -3.0)),
    ],
)
def test_coupling_surface_points(eps, eta, g, j, expected):
    c = couplings_from_params(ModelParams(epsilon=eps, eta=eta, g=g, j=j, n=4))
    assert (c.jx, c.jy, c.jz, c.b) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("eps,eta", CLASSES)
@pytest.mark.parametrize("g", G_GRID)
@pytest.mark.parametrize("j", [0.0, 0.5, 2.0])
def test_coupling_invariants(eps, eta, g, j):
    c = couplings_from_params(ModelParams(epsilon=eps, eta=eta, g=g, j=j, n=4))
    assert c.jy + c.jz == pytest.approx(-2 * eta * j, abs=1e-14)
    assert c.jy - c.jz == pytest.approx(2 * g, abs=1e-14)


def test_couplings_linear_in_j_quadratic_in_g():
    base = couplings_from_params(ModelParams(g=0.4, j=0.0, n=4))
    bumped = couplings_from_params(ModelParams(g=0.4, j=3.0, n=4))
    assert bumped.jx - base.jx == pytest.approx(-3.0)
    assert bumped.jy - base.jy == pytest.approx(-3.0)
    # quadratic in g: second difference of jx at fixed j is constant
    f = lambda g: couplings_from_params(ModelParams(g=g, j=1.0, n=4)).jx
    d2 = f(1.0) - 2 * f(0.0) + f(-1.0)
    assert d2 == pytest.approx(1.0)


def test_param_validation():
    with pytest.raises(ValueError):
        ModelParams(epsilon=2, n=4)
    with pytest.raises(ValueError):
        ModelParams(eta=0, n=4)
    with pytest.raises(ValueError):
        ModelParams(j=-0.1, n=4)
    with pytest.raises(ValueError):
        ModelParams(n=2)


@pytest.mark.parametrize(
    "eta,g,eps,a0,a1",
    [
        (1, 1.0, 1, [[1, 1], [1, 1]], [[1, -1], [-1, 1]]),
        (-1, 0.0, 1, [[1, 0], [1, -1]], [[1, 0], [-1, -1]]),
    ],
)
def test_fixed_gauge_tensors(eta, g, eps, a0, a1):
    t = mps_matrices(ModelParams(epsilon=eps, eta=eta, g=g, n=4))
    assert np.array_equal(t.a0, np.array(a0, dtype=float))
    assert np.array_equal(t.a1, np.array(a1, dtype=float))


@pytest.mark.parametrize("eps,eta", CLASSES)
@pytest.mark.parametrize("g", G_GRID)
def test_spin_flip_conjugation_forced(eps, eta, g):
    t = mps_matrices(ModelParams(epsilon=eps, eta=eta, g=g, n=4))
    sz = np.diag([1.0, -1.0])
    assert np.allclose(sz @ t.a0 @ sz, eps * t.a1)
    assert np.allclose(sz @ t.a1 @ sz, eps * t.a0)


@pytest.mark.parametrize("eps,eta", CLASSES)
@pytest.mark.parametrize("g", [-2.0, -0.5, 0.3, 1.5, 1e-11, -3.7e-5, 4.1e6, -1e12, 1e12])
def test_symmetry_report_all_pass(eps, eta, g):
    # every entry agrees to 1e-12 absolute, from tiny to huge |g|
    rep = check_symmetries(mps_matrices(ModelParams(epsilon=eps, eta=eta, g=g, n=4)), eps)
    assert rep.spin_flip
    assert rep.parity is True
    assert rep.time_reversal


def test_symmetry_errors_of_1e6_fail():
    # an absolute 1e-12 per entry: np.allclose's default rtol=1e-5 let both through
    t = mps_matrices(ModelParams(g=1.5))
    rep = check_symmetries(MpsTensors(a0=t.a0, a1=t.a1 * (1 + 1e-6)), 1)
    assert not rep.spin_flip and rep.parity is True  # a scaled A1 keeps its parity
    a0 = t.a0.copy()
    a0[0, 1] += 1e-6
    rep = check_symmetries(MpsTensors(a0=a0, a1=t.a1), 1)
    assert not rep.spin_flip and rep.parity is False
    assert check_symmetries(t, 1) == SymmetryReport(True, True, True)


def test_parity_not_applicable_at_g_zero():
    rep = check_symmetries(mps_matrices(ModelParams(g=0.0, n=4)), 1)
    assert rep.spin_flip
    assert rep.parity is None


def test_parity_not_applicable_when_b_zero():
    t = general_mps_matrices(1.0, 0.0, 1.0, 1.0)
    rep = check_symmetries(t, 1)
    assert rep.parity is None


@pytest.mark.parametrize("n_list", [[4, 6], [3, 4, 5], [5], [7, 3]])
def test_ring_points_order(n_list):
    # itertools.product order, with eta = -1 left out on odd rings only
    g_values = [0.3, -2.0, 1.0]
    expected = [
        ModelParams(epsilon=eps, eta=eta, g=g, j=0.5, n=n)
        for (eps, eta), g, n in itertools.product(CLASSES, g_values, n_list)
        if not (eta == -1 and n % 2)
    ]
    assert ring_points(g_values, n_list, 0.5) == expected


def test_no_state_on_odd_ring_one_message():
    # eta = -1 on an odd ring is refused with one message by every oracle that
    # builds or contracts its state, and left out of ring_points
    want = str(no_state_error(-1, 5))
    p = ModelParams(eta=-1, g=0.3, n=5)
    for refuse in (lambda: pair_density(p, 1, 2), lambda: explicit_ground_state(p),
                   lambda: correlations_eta_minus(0.3, 5, 2)):
        with pytest.raises(ValueError) as info:
            refuse()
        assert str(info.value) == want == "eta=-1 ground state needs even n"
    assert all(no_state_error(eta, n) is None for eta, n in [(1, 5), (1, 4), (-1, 4)])
