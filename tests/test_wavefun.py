"""Bound-state wavefunctions: normalization, both closed forms, ladder
construction and pointwise ladder action.

Reference values below were computed independently with mpmath at 40
significant digits (three-term recurrence for the polynomial factor,
gamma-function normalization, tanh-sinh quadrature for the integrals):

    nu = 2, k = 1:       N_0 = sqrt(8/(3 pi)) = 0.9213177319235612780
    nu = 1.5, n = 3:     psi(0.9)  = 0.58964492275518091407
    nu = 2,   n = 1:     psi(-0.44) = -0.78684957832428751883
    nu = 3.7, n = 12:    psi(0.31) = 0.04182449876895413779
    nu = 3.7, n = 0:     psi(1.2)  = 0.024767725501975738429
    nu = 2:   <psi_0|sin(kx)|psi_1> = 1/sqrt(6)
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ptdeform.algebra import ModelParams, alpha, energy
from ptdeform.specfun import gauss_legendre, gegenbauer_row
from ptdeform.wavefun import (
    _ladder_step_basis,
    basis_table,
    build_eigenfunction,
    chebyshev_points,
    gram_matrix,
    lowering_apply,
    norm0,
    norm_n,
    overlap,
    psi_deriv_value,
    psi_second_deriv_value,
    psi_value,
    psi_value_legendre,
    raising_apply,
    square_well_state,
)

NU_SET = [1.0, 1.5, 2.0, 3.7]


def rule_for(params, n_basis=30):
    a, b = params.box
    return gauss_legendre(2 * n_basis + 60, a, b)


# ---------------------------------------------------------------------------
# normalization constants


def test_norm0_reference():
    p = ModelParams(nu=2.0)
    assert norm0(p) == pytest.approx(math.sqrt(8.0 / (3.0 * math.pi)), rel=1e-14)
    assert norm0(p) == pytest.approx(0.9213177319235612780, rel=1e-14)


def test_norm_ratio_reference():
    p = ModelParams(nu=2.0)
    assert norm_n(p, 0) == pytest.approx(norm0(p), rel=1e-14)
    assert norm_n(p, 1) / norm0(p) == pytest.approx(math.sqrt(3.0 / 8.0), rel=1e-13)
    with pytest.raises(ValueError):
        norm_n(p, -1)


def test_norm_scales_with_k():
    # N_n carries sqrt(k); doubling k multiplies every norm by sqrt(2).
    a = ModelParams(nu=1.5, k=1.0)
    b = ModelParams(nu=1.5, k=2.0)
    for n in (0, 4):
        assert norm_n(b, n) / norm_n(a, n) == pytest.approx(math.sqrt(2.0), rel=1e-13)


def test_norm_survives_large_indices():
    # log-space evaluation: no overflow at large n and nu.
    p = ModelParams(nu=18.0)
    value = norm_n(p, 140)
    assert math.isfinite(value) and value > 0.0


# ---------------------------------------------------------------------------
# construction


def test_build_closed_form_low_levels():
    p = ModelParams(nu=2.0)
    assert build_eigenfunction(p, 0).basis_coeffs == (norm_n(p, 0),)
    assert build_eigenfunction(p, 1).basis_coeffs == (0.0, norm_n(p, 1))


def test_build_validation():
    p = ModelParams(nu=2.0)
    with pytest.raises(ValueError):
        build_eigenfunction(p, -1)
    with pytest.raises(ValueError):
        build_eigenfunction(p, 2, method="guess")


@pytest.mark.parametrize("nu", NU_SET)
def test_ladder_construction_matches_closed_form(nu):
    p = ModelParams(nu=nu)
    for n in range(26):
        cb = np.asarray(build_eigenfunction(p, n, "closed_form").basis_coeffs)
        lb = np.asarray(build_eigenfunction(p, n, "ladder").basis_coeffs)
        assert np.max(np.abs(lb - cb)) / float(np.max(np.abs(cb))) < 1e-9


@pytest.mark.parametrize("nu", NU_SET)
def test_polynomial_invariants(nu):
    # phi_n = N_n C_n^(nu): a single positive basis coefficient, and psi_n
    # has the parity of n, exactly.
    p = ModelParams(nu=nu)
    x = chebyshev_points(p, 41)
    for n in range(21):
        ef = build_eigenfunction(p, n)
        assert ef.basis_coeffs == (0.0,) * n + (norm_n(p, n),)
        assert norm_n(p, n) > 0.0
        assert np.array_equal(psi_value(ef, -x), (-1) ** n * psi_value(ef, x))


@pytest.mark.parametrize("nu", NU_SET)
def test_ladder_step_basis_matches_pointwise(nu):
    # [(X^2 - 1) d/dX + (j + 2 nu) X] sum_i d_i C_i^(nu), evaluated pointwise
    # with d/dX C_i^(nu) = 2 nu C_{i-1}^(nu+1), against the stepped coefficients.
    rng = np.random.default_rng(11)
    X = np.linspace(-0.95, 0.95, 23)
    for j in (0, 1, 6, 15):
        d = rng.standard_normal(j + 1)
        f = d @ gegenbauer_row(j, nu, X)
        df = np.zeros_like(X)
        if j >= 1:
            df = (2.0 * nu * d[1:]) @ gegenbauer_row(j - 1, nu + 1.0, X)
        terms = ((X * X - 1.0) * df, (j + 2.0 * nu) * X * f)
        stepped = _ladder_step_basis(d, j, nu)
        assert stepped.shape == (j + 2,)
        got = stepped @ gegenbauer_row(j + 1, nu, X)
        scale = float(np.max(np.abs(terms[0]) + np.abs(terms[1])))
        assert np.max(np.abs(got - (terms[0] + terms[1]))) / scale < 1e-12


# ---------------------------------------------------------------------------
# pointwise values


def test_psi_reference_values():
    cases = [
        (1.5, 3, 0.9, 0.58964492275518091407),
        (2.0, 1, -0.44, -0.78684957832428751883),
        (3.7, 12, 0.31, 0.04182449876895413779),
        (3.7, 0, 1.2, 0.024767725501975738429),
    ]
    for nu, n, x, ref in cases:
        ef = build_eigenfunction(ModelParams(nu=nu), n)
        assert psi_value(ef, x) == pytest.approx(ref, rel=1e-12)


def test_psi_outside_box_raises():
    ef = build_eigenfunction(ModelParams(nu=2.0), 0)
    with pytest.raises(ValueError):
        psi_value(ef, math.pi / 2)
    with pytest.raises(ValueError):
        psi_value(ef, -2.0)


def test_psi_vanishes_at_walls():
    # nu = 1 decays slowest (linearly in the wall distance): at 1e-9 from
    # the wall, |psi_7| ~ sqrt(2/pi) * 8 * (pi/2) * 1e-9 ~ 1.0e-8.
    for nu in NU_SET:
        p = ModelParams(nu=nu)
        edge = math.pi / 2 * (1.0 - 1e-9)
        for n in (0, 7):
            ef = build_eigenfunction(p, n)
            assert abs(psi_value(ef, edge)) < 2e-8
            assert abs(psi_value(ef, -edge)) < 2e-8


def test_psi_scalar_vs_array():
    ef = build_eigenfunction(ModelParams(nu=1.5), 2)
    xs = np.array([-0.3, 0.0, 0.4])
    vals = psi_value(ef, xs)
    assert vals.shape == (3,)
    assert psi_value(ef, 0.4) == pytest.approx(vals[2])
    assert isinstance(psi_value(ef, 0.4), float)


@pytest.mark.parametrize("nu", [1.5, 2.0, 3.7])
def test_legendre_route_agrees(nu):
    p = ModelParams(nu=nu)
    points = chebyshev_points(p, 100)
    for n in range(11):
        ef = build_eigenfunction(p, n)
        a = psi_value(ef, points)
        b = psi_value_legendre(p, n, points)
        assert float(np.max(np.abs(a - b))) < 1e-9


def test_legendre_route_validation():
    with pytest.raises(ValueError):
        psi_value_legendre(ModelParams(nu=2.0), -1, 0.0)


@pytest.mark.parametrize("nu", [1.0, 1.294678, 3.7, 50.0])
@pytest.mark.parametrize("n_basis", [1, 2, 30, 120])
def test_basis_table_is_the_per_state_stack(n_basis, nu):
    # n_basis = 1 leaves the nu+1 derivative row empty; psi_0' must still match
    p = ModelParams(nu=nu)
    nodes = rule_for(p, n_basis).nodes
    psi, dpsi = basis_table(p, n_basis, nodes)
    efs = [build_eigenfunction(p, n) for n in range(n_basis)]
    assert np.array_equal(psi, np.array([psi_value(ef, nodes) for ef in efs]))
    assert np.array_equal(dpsi, np.array([psi_deriv_value(ef, nodes) for ef in efs]))


def test_basis_table_validation():
    p = ModelParams(nu=2.0)
    with pytest.raises(ValueError):
        basis_table(p, 0, np.array([0.1]))
    with pytest.raises(ValueError):
        basis_table(p, 3, np.array([0.1, math.pi / 2]))


@pytest.mark.parametrize("nu", NU_SET)
def test_derivatives_by_richardson(nu):
    # central differences of psi confirm psi' and psi''
    p = ModelParams(nu=nu)
    ef = build_eigenfunction(p, 6)
    h = 1e-5
    for x in (-1.1, -0.2, 0.35, 1.3):
        d_num = (psi_value(ef, x + h) - psi_value(ef, x - h)) / (2 * h)
        assert psi_deriv_value(ef, x) == pytest.approx(d_num, rel=1e-7, abs=1e-7)
        d2_num = (psi_value(ef, x + h) - 2 * psi_value(ef, x) + psi_value(ef, x - h)) / h**2
        assert psi_second_deriv_value(ef, x) == pytest.approx(d2_num, rel=1e-5, abs=1e-4)


@pytest.mark.parametrize("nu", NU_SET)
def test_schrodinger_pointwise(nu):
    p = ModelParams(nu=nu)
    points = chebyshev_points(p, 100)
    for n in range(11):
        ef = build_eigenfunction(p, n)
        psi = psi_value(ef, points)
        h_psi = (
            -p.hbar**2 / (2.0 * p.mass) * psi_second_deriv_value(ef, points)
            + p.v0 / np.cos(p.k * points) ** 2 * psi
        )
        e_n = energy(p, n)
        resid = float(np.max(np.abs(h_psi - e_n * psi)))
        assert resid <= 1e-6 * abs(e_n) * float(np.max(np.abs(psi)))


# ---------------------------------------------------------------------------
# ladder action in position space


@pytest.mark.parametrize("nu", NU_SET)
def test_lowering_produces_alpha_times_lower_state(nu):
    p = ModelParams(nu=nu)
    points = chebyshev_points(p, 60)
    for n in range(1, 9):
        ef = build_eigenfunction(p, n)
        below = build_eigenfunction(p, n - 1)
        got = lowering_apply(ef, points)
        want = alpha(p, n) * psi_value(below, points)
        assert float(np.max(np.abs(got - want))) < 1e-9


@pytest.mark.parametrize("nu", NU_SET)
def test_raising_produces_alpha_times_upper_state(nu):
    p = ModelParams(nu=nu)
    points = chebyshev_points(p, 60)
    for n in range(0, 8):
        ef = build_eigenfunction(p, n)
        above = build_eigenfunction(p, n + 1)
        got = raising_apply(ef, points)
        want = alpha(p, n + 1) * psi_value(above, points)
        assert float(np.max(np.abs(got - want))) < 1e-9


def test_ground_state_annihilated():
    for nu in NU_SET:
        p = ModelParams(nu=nu)
        points = chebyshev_points(p, 100)
        ef = build_eigenfunction(p, 0)
        assert float(np.max(np.abs(lowering_apply(ef, points)))) < 1e-10


# ---------------------------------------------------------------------------
# inner products


@pytest.mark.parametrize("nu", NU_SET)
def test_gram_is_identity(nu):
    p = ModelParams(nu=nu)
    efs = [build_eigenfunction(p, n) for n in range(21)]
    g = gram_matrix(efs, rule_for(p))
    assert float(np.max(np.abs(g - np.eye(21)))) < 1e-9


def test_overlap_values_and_rescaling():
    p = ModelParams(nu=2.0)
    rule = rule_for(p)
    e0 = build_eigenfunction(p, 0)
    e2 = build_eigenfunction(p, 2)
    assert overlap(e0, e0, rule) == pytest.approx(1.0, abs=1e-12)
    assert overlap(e0, e2, rule) == pytest.approx(0.0, abs=1e-12)
    doubled = replace(e0, basis_coeffs=tuple(2.0 * d for d in e0.basis_coeffs))
    assert overlap(doubled, doubled, rule) == pytest.approx(4.0, abs=1e-11)
    x = 0.37
    assert psi_value(doubled, x) == pytest.approx(2.0 * psi_value(e0, x), rel=1e-13)


def test_overlap_rejects_mismatched_states():
    rule = rule_for(ModelParams(nu=2.0))
    a = build_eigenfunction(ModelParams(nu=2.0), 0)
    b = build_eigenfunction(ModelParams(nu=1.5), 0)
    with pytest.raises(ValueError):
        overlap(a, b, rule)


def test_overlap_rejects_wrong_interval():
    p = ModelParams(nu=2.0)
    bad_rule = gauss_legendre(80, -1.0, 1.0)
    e0 = build_eigenfunction(p, 0)
    with pytest.raises(ValueError):
        overlap(e0, e0, bad_rule)


def test_gram_requires_states():
    with pytest.raises(ValueError):
        gram_matrix([], rule_for(ModelParams(nu=2.0)))


# ---------------------------------------------------------------------------
# sample points and the square-well branch


def test_chebyshev_points_contract():
    p = ModelParams(nu=2.0)
    pts = chebyshev_points(p, 101)
    assert pts.shape == (101,)
    assert np.all(np.diff(pts) > 0)
    half = math.pi / 2
    assert np.all(np.abs(pts) <= half - 1e-3)
    assert 0.0 in pts  # odd count includes the midpoint
    with pytest.raises(ValueError):
        chebyshev_points(p, 0)
    with pytest.raises(ValueError):
        chebyshev_points(p, 5, margin=half)


def test_chebyshev_margin_scales_with_k():
    p = ModelParams(nu=2.0, k=4.0)
    pts = chebyshev_points(p, 50)
    assert np.all(np.abs(pts) <= math.pi / 8 - 1e-3 / 4.0 + 1e-15)


def test_square_well_states_match_tower():
    p = ModelParams(nu=1.0)
    points = chebyshev_points(p, 100)
    for n in range(11):
        ef = build_eigenfunction(p, n)
        diff = psi_value(ef, points) - square_well_state(p, n, points)
        assert float(np.max(np.abs(diff))) < 1e-9


def test_square_well_sign_pattern():
    # sigma_n = +1, +1, -1, -1, +1, +1, ... at a probe point near the wall
    p = ModelParams(nu=1.0)
    assert square_well_state(p, 0, 0.0) > 0  # cos(0) > 0
    assert square_well_state(p, 1, 0.5) > 0  # sin(2 * 0.5) > 0
    assert square_well_state(p, 2, 0.0) < 0
    assert square_well_state(p, 3, 0.3) < 0  # sin(1.2) > 0, sigma = -1
    assert square_well_state(p, 4, 0.0) > 0


def test_square_well_requires_nu_one():
    with pytest.raises(ValueError):
        square_well_state(ModelParams(nu=2.0), 0, 0.0)
    with pytest.raises(ValueError):
        square_well_state(ModelParams(nu=1.0), -1, 0.0)
