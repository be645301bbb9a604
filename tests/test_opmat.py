"""Truncated operator matrices: structure, algebra closure, truncation
bookkeeping, and the finite-difference cross-check.

Independent structure oracles (verified against 40-digit quadrature):

    <n| sin(kx) |n+1> = sqrt((n+1)(n+2 nu)) / (2 sqrt((n+nu)(n+nu+1)))
    <n| P |n+1>       = -i (hbar k^2 / 2) (2(n+nu) + 1) <n| sin(kx) |n+1>

and the level-by-level defect of the undeformed commutator function,

    ([b, b+] - (1 + 2 sqrt(H/eps)))_nn = nu(nu-1) / ((n+nu)(n+nu-1)),

whose n = 0 value is identically 1 for every nu >= 1.
"""

import functools
import math

import numpy as np
import pytest

from ptdeform.algebra import ModelParams, alpha, energy, f_of, f_of_uncorrected
from ptdeform.opmat import (
    OperatorMatrix,
    QuadratureOrderError,
    adjointness_residual,
    bplus_second_form,
    build_grid_hamiltonian,
    build_P,
    build_su11,
    build_X,
    casimir_matrices,
    check_extended_algebra,
    check_identity_12,
    commutator,
    diag_operator,
    energy_diag,
    extended_algebra_residuals,
    grid_spectrum,
    identity,
    operator_set,
    su11_ordering_residual,
    su11_residuals,
)
from ptdeform.specfun import gauss_legendre
from ptdeform.wavefun import build_eigenfunction, psi_deriv_value, psi_value

N = 30
MARGIN = 4
NU_SET = [1.0, 1.5, 2.0, 3.7]


@functools.lru_cache(maxsize=None)
def operators(nu: float, n_basis: int = N):
    """params, rule, X, P, H, b, b+ at basis size n_basis (cached: every test shares them)."""
    params = ModelParams(nu=nu)
    rule = gauss_legendre(2 * n_basis + 60, *params.box)
    return (params, rule, *operator_set(params, n_basis, rule))


# ---------------------------------------------------------------------------
# OperatorMatrix bookkeeping


def test_operator_matrix_shape_validation():
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((3, 4)), 3)
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((3, 3)), 4)


def test_trusted_block_margins():
    op = OperatorMatrix(np.arange(16.0).reshape(4, 4), 4, trust_margin=1)
    assert op.trusted().shape == (3, 3)
    assert op.trusted(2).shape == (2, 2)  # explicit margin can only grow
    assert op.trusted(0).shape == (3, 3)
    with pytest.raises(ValueError):
        op.trusted(4)


def test_product_margin_rule():
    # product margin = max of margins + narrower bandwidth; bandwidths add
    a = OperatorMatrix(np.eye(6), 6, trust_margin=1, bandwidth=2)
    b = OperatorMatrix(np.eye(6), 6, trust_margin=0, bandwidth=1)
    ab = a @ b
    assert ab.trust_margin == 2
    assert ab.bandwidth == 3
    for s in (a + b, a - b):
        assert s.trust_margin == 1
        assert s.bandwidth == 2
    # the same rule holds when a factor is diagonal and takes the scaling path
    d = OperatorMatrix(np.diag(np.arange(1.0, 7.0)), 6, trust_margin=2, bandwidth=0)
    for prod in (d @ b, b @ d):
        assert (prod.trust_margin, prod.bandwidth) == (2, 1)
    assert ((d @ d).trust_margin, (d @ d).bandwidth) == (2, 0)
    # a matrix built without a bandwidth couples everything
    full = OperatorMatrix(np.ones((6, 6)), 6)
    assert full.bandwidth == 5
    assert ((full @ b).trust_margin, (full @ b).bandwidth) == (1, 5)


def test_bandwidth_capped_at_size():
    op = OperatorMatrix(np.eye(3), 3, bandwidth=17)
    assert op.bandwidth == 2


@pytest.mark.parametrize("n_basis", [30, 120])
@pytest.mark.parametrize(
    "left, right",
    [("H", "X"), ("H", "P"), ("H", "b"), ("X", "H"), ("P", "H"), ("b", "H"), ("H", "H")],
)
def test_products_with_a_diagonal_factor_match_dense(left, right, n_basis):
    _, _, x_op, p_op, h_op, b_op, _ = operators(3.7, n_basis)
    ops = {"X": x_op, "P": p_op, "H": h_op, "b": b_op}
    a, b = ops[left], ops[right]
    assert np.array_equal((a @ b).data, a.data @ b.data)


def test_dense_matrix_declared_diagonal_multiplies_densely():
    _, _, x_op, p_op, _, _, _ = operators(3.7)
    mislabeled = OperatorMatrix(x_op.data, N, bandwidth=0)
    assert np.array_equal((mislabeled @ p_op).data, x_op.data @ p_op.data)
    assert np.array_equal((p_op @ mislabeled).data, p_op.data @ x_op.data)


def test_adjoint_and_scalar_ops():
    m = np.array([[1.0, 2.0j], [0.0, 1.0]])
    op = OperatorMatrix(m, 2)
    np.testing.assert_allclose(op.adjoint().data, m.conj().T)
    np.testing.assert_allclose((2.0 * op).data, 2.0 * m)
    np.testing.assert_allclose((-op).data, -m)
    np.testing.assert_allclose((op - op).data, np.zeros((2, 2)))


def test_mismatched_sizes_rejected():
    a = OperatorMatrix(np.eye(3), 3)
    b = OperatorMatrix(np.eye(4), 4)
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        _ = a @ b


def test_diag_helpers():
    d = diag_operator([1.0, 2.0, 3.0], 3)
    assert d.bandwidth == 0
    np.testing.assert_allclose(np.diag(d.data).real, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        diag_operator([1.0, 2.0], 3)
    p = ModelParams(nu=2.0)
    e = energy_diag(p, 3, lambda pp, en: 2.0 * en)
    np.testing.assert_allclose(np.diag(e.data).real, [8.0, 18.0, 32.0])
    one = identity(3)
    np.testing.assert_allclose(one.data, np.eye(3))
    assert one.bandwidth == 0


# ---------------------------------------------------------------------------
# X, P, H construction


def test_quadrature_floor_enforced():
    params = ModelParams(nu=2.0)
    a, b = params.box
    short = gauss_legendre(2 * N + 2, a, b)
    with pytest.raises(QuadratureOrderError):
        build_X(params, N, short)
    with pytest.raises(ValueError):
        build_X(params, 1, gauss_legendre(80, a, b))


def test_rule_interval_must_match_box():
    params = ModelParams(nu=2.0)
    with pytest.raises(ValueError):
        build_X(params, N, gauss_legendre(2 * N + 60, -1.0, 1.0))


@pytest.mark.parametrize("nu", [1.0, 3.7])
@pytest.mark.parametrize("n_basis", [30, 120])
def test_x_and_p_are_the_per_state_quadrature(n_basis, nu):
    # reference: one psi_value / psi_deriv_value evaluation per state
    params = ModelParams(nu=nu)
    rule = gauss_legendre(2 * n_basis + 60, *params.box)
    efs = [build_eigenfunction(params, n) for n in range(n_basis)]
    psi = np.array([psi_value(ef, rule.nodes) for ef in efs])
    dpsi = np.array([psi_deriv_value(ef, rule.nodes) for ef in efs])
    s = np.sin(params.k * rule.nodes)
    c = np.cos(params.k * rule.nodes)
    hbar, k = params.hbar, params.k
    x_ref = (psi * (rule.weights * s)) @ psi.T
    pvals = -1j * hbar * k * c * dpsi + 0.5j * hbar * k**2 * s * psi
    p_ref = (psi * rule.weights) @ pvals.T
    assert np.array_equal(build_X(params, n_basis, rule).data, x_ref.astype(complex))
    assert np.array_equal(build_P(params, n_basis, rule).data, p_ref)


@pytest.mark.parametrize("nu", NU_SET)
def test_x_matrix_closed_form(nu):
    _, _, x_op, _, _, _, _ = operators(nu)
    n = np.arange(N - 1)
    closed = np.sqrt((n + 1) * (n + 2 * nu)) / (2.0 * np.sqrt((n + nu) * (n + nu + 1)))
    band = np.diag(closed, 1) + np.diag(closed, -1)
    assert float(np.max(np.abs(x_op.data - band))) < 1e-10
    assert x_op.hermiticity_residual() < 1e-10


@pytest.mark.parametrize("nu", NU_SET)
def test_p_matrix_closed_form(nu):
    params, _, x_op, p_op, _, _, _ = operators(nu)
    n = np.arange(N - 1)
    x_band = np.sqrt((n + 1) * (n + 2 * nu)) / (2.0 * np.sqrt((n + nu) * (n + nu + 1)))
    p_band = -1j * (params.hbar * params.k**2 / 2.0) * (2.0 * (n + nu) + 1.0) * x_band
    closed = np.diag(p_band, 1) + np.diag(p_band.conj(), -1)
    assert float(np.max(np.abs(p_op.data - closed))) < 1e-10
    assert p_op.hermiticity_residual() < 1e-10


def test_x01_reference_value():
    _, _, x_op, _, _, _, _ = operators(2.0)
    assert x_op.data[0, 1].real == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-12)


def test_h_is_the_spectrum():
    params, _, _, _, h_op, _, _ = operators(1.5)
    np.testing.assert_allclose(
        np.diag(h_op.data).real, [energy(params, n) for n in range(N)], rtol=1e-15
    )
    assert h_op.bandwidth == 0


# ---------------------------------------------------------------------------
# canonical commutators


@pytest.mark.parametrize("nu", NU_SET)
def test_x_p_commutator(nu):
    params, _, x_op, p_op, _, _, _ = operators(nu)
    one = identity(N)
    rhs = (1j * params.hbar * params.k**2) * (one - x_op @ x_op)
    assert (commutator(x_op, p_op) - rhs).max_abs(MARGIN) < 1e-9


@pytest.mark.parametrize("nu", NU_SET)
def test_h_x_commutator(nu):
    params, _, x_op, p_op, h_op, _, _ = operators(nu)
    rhs = (-1j * params.hbar / params.mass) * p_op
    assert (commutator(h_op, x_op) - rhs).max_abs(MARGIN) < 1e-9


@pytest.mark.parametrize("nu", NU_SET)
def test_h_p_commutator(nu):
    params, _, x_op, p_op, h_op, _, _ = operators(nu)
    eps = params.epsilon
    rhs = (1j * params.hbar * params.k**2) * (
        2.0 * (x_op @ h_op) - 0.5 * eps * x_op
        - (1j * params.hbar / params.mass) * p_op
    )
    assert (commutator(h_op, p_op) - rhs).max_abs(MARGIN) < 1e-8


# ---------------------------------------------------------------------------
# ladder operators


@pytest.mark.parametrize("nu", NU_SET)
def test_b_is_strictly_lowering(nu):
    params, _, _, _, _, b_op, _ = operators(nu)
    block = b_op.trusted(MARGIN)
    keep = N - MARGIN
    for n in range(1, min(25, keep - 1) + 1):
        assert abs(block[n - 1, n] - alpha(params, n)) < 1e-8
    mask = np.ones_like(block, dtype=bool)
    idx = np.arange(1, keep)
    mask[idx - 1, idx] = False
    assert float(np.max(np.abs(block[mask]))) < 1e-9
    assert float(np.max(np.abs(block[:, 0]))) < 1e-9  # b kills the ground state


@pytest.mark.parametrize("nu", NU_SET)
def test_bplus_second_form_agrees_with_adjoint(nu):
    params, _, x_op, p_op, h_op, _, bplus_op = operators(nu)
    other = bplus_second_form(params, x_op, p_op, h_op)
    assert (other - bplus_op).max_abs(MARGIN) < 1e-8


@pytest.mark.parametrize("nu", NU_SET)
def test_h_b_grading_commutators(nu):
    params, _, _, _, h_op, b_op, bplus_op = operators(nu)
    from ptdeform.algebra import g_of

    g_diag = energy_diag(params, N, g_of)
    assert (commutator(h_op, b_op) + b_op @ g_diag).max_abs(MARGIN) < 1e-8
    assert (commutator(h_op, bplus_op) - g_diag @ bplus_op).max_abs(MARGIN) < 1e-8


@pytest.mark.parametrize("nu", NU_SET)
def test_corrected_commutator_closes(nu):
    params, _, _, _, _, b_op, bplus_op = operators(nu)
    f_diag = energy_diag(params, N, f_of)
    assert (commutator(b_op, bplus_op) + f_diag).max_abs(MARGIN) < 1e-8


@pytest.mark.parametrize("nu", NU_SET)
def test_uncorrected_commutator_defect_profile(nu):
    # The defect of the undeformed f is largest at the bottom of the
    # tower, where it equals 1 for every nu -- including nu = 1, whose
    # ground level never loses the deformation.
    params, _, _, _, _, b_op, bplus_op = operators(nu)
    f_diag = energy_diag(params, N, f_of_uncorrected)
    resid = commutator(b_op, bplus_op) + f_diag
    diag = np.real(np.diag(resid.trusted(MARGIN)))
    levels = np.arange(1, diag.size)
    predicted = np.concatenate(
        [[1.0], params.strength() / ((levels + nu) * (levels + nu - 1.0))]
    )
    assert float(np.max(np.abs(diag - predicted))) < 1e-8
    assert resid.max_abs(MARGIN) == pytest.approx(1.0, abs=1e-6)
    if nu > 1.0:
        assert resid.max_abs(MARGIN) >= (nu - 1.0) / (nu + 1.0) * (1.0 - 1e-6)


@pytest.mark.parametrize("nu", NU_SET)
def test_strength_operator_identity(nu):
    params, _, x_op, p_op, h_op, _, _ = operators(nu)
    assert check_identity_12(params, x_op, p_op, h_op, MARGIN) < 1e-8


# ---------------------------------------------------------------------------
# Casimir, extended algebra, su(1,1)


@pytest.mark.parametrize("nu", NU_SET)
def test_casimir_is_constant(nu):
    params, _, _, _, _, b_op, bplus_op = operators(nu)
    c1, c2 = casimir_matrices(params, b_op, bplus_op)
    target = -params.strength() * identity(N)
    assert (c1 - target).max_abs(MARGIN) < 1e-8
    assert (c2 - target).max_abs(MARGIN) < 1e-8
    assert (c1 - c2).max_abs(MARGIN) < 1e-8
    assert c1.hermiticity_residual(MARGIN) < 1e-10


@pytest.mark.parametrize("nu", NU_SET)
def test_extended_algebra(nu):
    params, _, _, _, h_op, b_op, bplus_op = operators(nu)
    residuals = extended_algebra_residuals(params, b_op, bplus_op, h_op, MARGIN)
    assert set(residuals) == {
        "extended_commutes_h",
        "extended_commutes_b",
        "extended_commutes_bplus",
        "extended_bilinear",
    }
    assert max(residuals.values()) < 1e-8
    assert check_extended_algebra(params, b_op, bplus_op, h_op, MARGIN) == max(residuals.values())


@pytest.mark.parametrize("nu", NU_SET)
def test_su11_defining_relations(nu):
    params, _, _, _, h_op, b_op, bplus_op = operators(nu)
    j0, jp, jm = build_su11(params, b_op, bplus_op, h_op)
    residuals = su11_residuals(params, j0, jp, jm, MARGIN)
    assert max(residuals.values()) < 1e-8
    assert su11_ordering_residual(params, bplus_op, MARGIN) < 1e-8


def test_su11_jplus_reference_entry():
    params, _, _, _, h_op, b_op, bplus_op = operators(2.0)
    _, jp, _ = build_su11(params, b_op, bplus_op, h_op)
    assert jp.data[1, 0].real == pytest.approx(2.0, abs=1e-9)  # sqrt((0+1)(0+4))


# ---------------------------------------------------------------------------
# quadrature adjointness


@pytest.mark.parametrize("nu", [1.5, 3.7])
def test_ladder_forms_are_adjoint_under_quadrature(nu):
    params, rule, *_ = operators(nu)
    efs = [build_eigenfunction(params, n) for n in range(21)]
    assert adjointness_residual(params, efs, rule) < 1e-10


def test_adjointness_requires_states():
    params, rule, *_ = operators(1.5)
    with pytest.raises(ValueError):
        adjointness_residual(params, [], rule)


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_grid_validation():
    p = ModelParams(nu=2.0)
    with pytest.raises(ValueError):
        build_grid_hamiltonian(p, 100)
    with pytest.raises(ValueError):
        grid_spectrum(p, 300, 0)
    with pytest.raises(ValueError):
        grid_spectrum(p, 300, 500)


def test_grid_structure():
    p = ModelParams(nu=2.0)
    g = build_grid_hamiltonian(p, 500)
    assert g.x.shape == (500,)
    assert g.diag.shape == (500,)
    assert g.offdiag.shape == (499,)
    # kinetic scale hbar^2/(m h^2) on the diagonal, -1/2 of it off-diagonal
    h = math.pi / 501
    kinetic = p.hbar**2 / (p.mass * h**2)
    assert g.offdiag[0] == pytest.approx(-0.5 * kinetic, rel=1e-12)
    assert g.diag[249] == pytest.approx(kinetic + p.v0 / math.cos(g.x[249]) ** 2, rel=1e-12)


@pytest.mark.parametrize("nu", NU_SET)
def test_grid_spectrum_matches_closed_form(nu):
    p = ModelParams(nu=nu)
    exact = np.array([energy(p, n) for n in range(6)])
    grid = grid_spectrum(p, 2000, 6)
    assert np.max(np.abs(grid - exact) / exact) < 1e-4


def test_grid_second_order_convergence():
    p = ModelParams(nu=1.5)
    exact = np.array([energy(p, n) for n in range(6)])
    err_coarse = np.abs(grid_spectrum(p, 2000, 6) - exact)
    err_fine = np.abs(grid_spectrum(p, 4000, 6) - exact)
    ratios = err_coarse / err_fine
    assert np.all(ratios > 3.6) and np.all(ratios < 4.4)
