"""Bound-state wavefunctions: normalization, both closed forms, ladder
construction, the basis and ladder tables, and pointwise ladder action.

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

import mpmath
import numpy as np
import pytest

from ptdeform.algebra import ModelParams, alpha, energy
from ptdeform.specfun import gauss_legendre, gegenbauer_row
from ptdeform.wavefun import (
    _ladder_step_basis,
    basis_table,
    build_eigenfunction,
    chebyshev_points,
    closed_form_states,
    gram_matrix,
    ladder_climb,
    norm0,
    norm_n,
    norm_tower,
    psi_form_tables,
    psi_second_deriv_value,
    psi_value,
    psi_value_legendre,
    sample_tables,
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


def test_one_ladder_climb_yields_every_level():
    # verify reads one climb for all 26 levels; each equals the ladder
    # route of build_eigenfunction, coefficient for coefficient
    p = ModelParams(nu=3.7)
    climbed = list(ladder_climb(p, 25))
    assert len(climbed) == 26
    for n, basis in enumerate(climbed):
        assert tuple(basis) == build_eigenfunction(p, n, "ladder").basis_coeffs


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


@pytest.mark.parametrize("k", [1.0, 2.1])
@pytest.mark.parametrize("nu", [1.0, 1.294678, 3.7, 12.25, 49.9, 150.0, 300.0])
def test_legendre_route_matches_mpmath(nu, k):
    # the Ferrers function of mpmath at 30 digits, on the model's own
    # doubles; x != 0 because legenp's series does not converge at s = 0
    p = ModelParams(hbar=1.3, mass=0.7, k=k, nu=nu)
    xs = np.array([-0.62, 0.17, 0.9]) * (0.5 * math.pi / k)
    nu_mp, k_mp = mpmath.mpf(nu), mpmath.mpf(k)
    with mpmath.workdps(30):
        for n in (0, 3, 10, 25):
            got = psi_value_legendre(p, n, xs)
            for x, value in zip(xs, got):
                kx = k_mp * mpmath.mpf(x)
                ref = float(
                    mpmath.sqrt(k_mp * (n + nu_mp) * mpmath.gamma(n + 2 * nu_mp) / mpmath.factorial(n))
                    * mpmath.sqrt(mpmath.cos(kx))
                    * mpmath.legenp(n + nu_mp - 0.5, 0.5 - nu_mp, mpmath.sin(kx), type=2)
                )
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (n, x)


def test_legendre_route_validation():
    with pytest.raises(ValueError):
        psi_value_legendre(ModelParams(nu=2.0), -1, 0.0)
    with pytest.raises(ValueError):
        psi_form_tables(ModelParams(nu=2.0), 0, np.zeros(3))


@pytest.mark.parametrize("samples", [21, 100])
@pytest.mark.parametrize("nu", [1.0, 2.0, 3.7, 49.9, 150.0])
def test_form_tables_are_the_per_state_values(nu, samples):
    # value for value and in the sign of a zero: an odd count holds x = 0,
    # where C_n(0) is -0.0 for n = 3 mod 4, and at nu = 150 cos^nu
    # underflows to zero near the walls
    p = ModelParams(hbar=1.3, mass=0.7, k=2.1, nu=nu)
    points = chebyshev_points(p, samples)
    geg, leg = psi_form_tables(p, 31, points)
    for n in range(31):
        for table, ref in ((geg, psi_value(build_eigenfunction(p, n), points)),
                           (leg, psi_value_legendre(p, n, points))):
            assert np.array_equal(table[n], ref)
            assert np.array_equal(np.signbit(table[n]), np.signbit(ref))


@pytest.mark.parametrize("nu", [1.0, 1.294678, 3.7, 50.0])
@pytest.mark.parametrize("n_basis", [1, 2, 30, 120])
def test_basis_table_is_the_per_state_stack(n_basis, nu):
    # the psi rows are the arithmetic of psi_value; the psi' rows are checked
    # against mpmath and against differences of psi below
    p = ModelParams(nu=nu)
    nodes = rule_for(p, n_basis).nodes
    psi, _ = basis_table(p, n_basis, nodes)
    assert np.array_equal(psi, np.array([psi_value(build_eigenfunction(p, n), nodes)
                                         for n in range(n_basis)]))


@pytest.mark.parametrize("nu", [1.0, 1.294678, 3.7, 49.9])
@pytest.mark.parametrize("n_basis", [1, 8, 30, 120])
def test_ladder_table_is_the_per_state_stack(n_basis, nu):
    # the psi rows of `sample_tables`, at the quadrature nodes and at an odd
    # Chebyshev set, which holds x = 0; np.array_equal takes -0.0 == 0.0,
    # and there the table gives -0.0 for the levels n = 3 mod 4 where
    # psi_value gives 0.0.  The lowering and raising rows are checked
    # against the ladder identities below.
    p = ModelParams(nu=nu)
    efs = [build_eigenfunction(p, n) for n in range(n_basis)]
    for nodes in (rule_for(p, n_basis).nodes, chebyshev_points(p, 33)):
        psi = sample_tables(p, n_basis, nodes).psi
        assert np.array_equal(psi, np.array([psi_value(ef, nodes) for ef in efs]))


# Relative error allowed of a table entry at level n: 32 U (n + 2 nu).  The
# rounding of cos^nu grows with nu and that of the Gegenbauer recurrence with
# n; the largest measured error is 6.7 U (n + 2 nu), at nu = 150.
U = 2.0**-52


def rel_bound(n, nu):
    return 32.0 * U * (n + 2.0 * nu)


def norm_mp(k, nu, n):
    """N_n from its Gamma form, in mpmath."""
    return mpmath.sqrt(
        k * mpmath.gamma(nu + 1) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu + 0.5))
        * mpmath.factorial(n) * (n + nu) * mpmath.gamma(2 * nu) / (nu * mpmath.gamma(n + 2 * nu))
    )


@pytest.mark.parametrize("k", [1.0, 2.1])
@pytest.mark.parametrize("nu", [1.0, 1.294678, 3.7, 12.25, 49.9, 150.0])
def test_basis_table_matches_mpmath(nu, k):
    # psi_n = N_n cos^nu(kx) C_n^(nu)(sin kx) and its derivative by mpmath.diff,
    # at 30 digits on the model's own doubles; x != 0, where the
    # hypergeometric series of mpmath.gegenbauer cannot reach a relative
    # accuracy on the zero of an odd level.  A table of n + 1 levels puts
    # level n in its last row, and n = 0 leaves the nu+1 row empty.
    p = ModelParams(hbar=1.3, mass=0.7, k=k, nu=nu)
    xs = np.array([-0.62, -0.3, 0.17, 0.9]) * (0.5 * math.pi / k)
    nu_mp, k_mp = mpmath.mpf(nu), mpmath.mpf(k)
    with mpmath.workdps(30):
        for n in (0, 3, 10, 25):
            psi, dpsi = basis_table(p, n + 1, xs)
            norm = norm_mp(k_mp, nu_mp, n)

            def state(x):
                kx = k_mp * x
                return norm * mpmath.cos(kx) ** nu_mp * mpmath.gegenbauer(n, nu_mp, mpmath.sin(kx))

            for x, value, deriv in zip(xs, psi[n], dpsi[n]):
                x_mp = mpmath.mpf(x)
                for got, ref in ((value, state(x_mp)), (deriv, mpmath.diff(state, x_mp))):
                    ref = float(ref)
                    assert abs(got - ref) <= rel_bound(n, nu) * max(1.0, abs(ref)), (n, x)


@pytest.mark.parametrize("k", [1.0, 2.1])
@pytest.mark.parametrize("nu", [1.0, 1.294678, 3.7, 49.9, 150.0, 300.0, 2000.0])
def test_norms_meet_the_algebraic_ratio(nu, k):
    # Adjointness of the ladder pair in the unnormalized basis cos^nu C_n^(nu)
    # fixes N_n^2 / N_{n-1}^2 = n (n + nu) / ((n + nu - 1)(n + 2 nu - 1)), which
    # the tower multiplies out from N_0: the ratio holds to a few ulp at every
    # level (measured 4.7 u, u = 2^-53), and N_n meets its Gamma form within
    # 4 u (n + 2 nu), the log-gammas of N_0 (measured 1.9).  alpha_n meets its
    # closed form; all against 30 digits.
    u = 2.0**-53
    p = ModelParams(k=k, nu=nu)
    nu_mp, k_mp = mpmath.mpf(nu), mpmath.mpf(k)
    norms = norm_tower(p, 61)
    assert [norm_n(p, n) for n in range(61)] == list(norms)
    with mpmath.workdps(30):
        for n in range(61):
            ref = norm_mp(k_mp, nu_mp, n)
            assert abs(norms[n] - ref) <= 4.0 * u * (n + 2.0 * nu) * ref, n
            if n == 0:
                continue
            ratio = n * (n + nu_mp) / ((n + nu_mp - 1) * (n + 2 * nu_mp - 1))
            assert abs((norms[n] / norms[n - 1]) ** 2 - ratio) <= 12.0 * u * ratio, n
            a = mpmath.sqrt(n * (n + nu_mp) * (n + 2 * nu_mp - 1) / (n + nu_mp - 1))
            assert abs(alpha(p, n) - a) <= 4.0 * U * a, n


def test_basis_table_validation():
    p = ModelParams(nu=2.0)
    with pytest.raises(ValueError):
        basis_table(p, 0, np.array([0.1]))
    with pytest.raises(ValueError):
        basis_table(p, 3, np.array([0.1, math.pi / 2]))


@pytest.mark.parametrize("nu", NU_SET)
def test_derivatives_by_richardson(nu):
    # central differences of psi confirm the table's psi' and the per-state psi''
    p = ModelParams(nu=nu)
    ef = build_eigenfunction(p, 6)
    h = 1e-5
    xs = np.array([-1.1, -0.2, 0.35, 1.3])
    _, dpsi = basis_table(p, 7, xs)
    for x, deriv in zip(xs, dpsi[6]):
        d_num = (psi_value(ef, x + h) - psi_value(ef, x - h)) / (2 * h)
        assert deriv == pytest.approx(d_num, rel=1e-7, abs=1e-7)
        d2_num = (psi_value(ef, x + h) - 2 * psi_value(ef, x) + psi_value(ef, x - h)) / h**2
        assert psi_second_deriv_value(ef, x) == pytest.approx(d2_num, rel=1e-5, abs=1e-4)


@pytest.mark.parametrize("nu", [*NU_SET, 1.294678, 49.9])
@pytest.mark.parametrize("count", [100, 101])
def test_second_derivative_table_is_the_per_state_value(nu, count):
    # one stacked fill of three families gives psi'' of every state, value
    # for value; 101 points hold x = 0, where the sign of a zero may differ
    p = ModelParams(nu=nu)
    points = chebyshev_points(p, count)
    table = sample_tables(p, 11, points).d2psi
    assert table.shape == (11, count)
    for n, row in enumerate(table):
        ref = psi_second_deriv_value(build_eigenfunction(p, n), points)
        assert np.array_equal(row + 0.0, ref + 0.0)  # -0.0 + 0.0 is 0.0
    with pytest.raises(ValueError):
        sample_tables(p, 0, points)


@pytest.mark.parametrize("nu", [1.0, 1.294678, 3.7, 49.9, 150.0])
@pytest.mark.parametrize("count", [100, 101])
def test_sample_tables_are_the_separate_tables(nu, count):
    # the one fill gives, entry by entry, the psi rows of the basis table,
    # the ladder forms written on them, and the Legendre rows of
    # psi_form_tables
    p = ModelParams(hbar=1.3, mass=0.7, k=2.1, nu=nu)
    points = chebyshev_points(p, count)
    got = sample_tables(p, 11, points)
    psi, dpsi = basis_table(p, 11, points)
    s, c = np.sin(p.k * points), np.cos(p.k * points)
    m = (np.arange(11) + nu)[:, None]
    assert np.array_equal(got.psi, psi)
    assert np.array_equal(got.lower, (1.0 / p.k) * c * dpsi + m * s * psi)
    assert np.array_equal(got.upper, (m + 1.0) / m * (-(1.0 / p.k) * c * dpsi + m * s * psi))
    assert np.array_equal(got.legendre, psi_form_tables(p, 11, points)[1])


@pytest.mark.parametrize("nu", [1.0, 1.294678, 3.7, 49.9])
def test_closed_form_states_are_build_eigenfunction(nu):
    p = ModelParams(nu=nu)
    states = closed_form_states(p, 26)
    assert [ef.basis_coeffs for ef in states] == [
        build_eigenfunction(p, n).basis_coeffs for n in range(26)]


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
# ladder action in position space, on the rows of one sample_tables

LADDER_NUS = [*NU_SET, 49.9]


def ladder_rows(nu):
    """psi, lower, upper of levels 0 .. 26 at 60 Chebyshev points, and
    alpha_n as a column."""
    p = ModelParams(nu=nu)
    psi, lower, upper = sample_tables(p, 27, chebyshev_points(p, 60))[:3]
    return psi, lower, upper, np.array([alpha(p, n) for n in range(27)])[:, None]


def assert_rows_close(got, want):
    # 1e-12 of the largest entry; measured at most 6.4e-14 of it, at nu = 49.9
    assert float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want)))


@pytest.mark.parametrize("nu", LADDER_NUS)
def test_lowering_produces_alpha_times_lower_state(nu):
    psi, lower, _, a = ladder_rows(nu)
    assert_rows_close(lower[1:26], a[1:26] * psi[:25])


@pytest.mark.parametrize("nu", LADDER_NUS)
def test_raising_produces_alpha_times_upper_state(nu):
    psi, _, upper, a = ladder_rows(nu)
    assert_rows_close(upper[:26], a[1:27] * psi[1:27])


def test_ground_state_annihilated():
    # the two terms of the n = 0 row are each about nu |psi_0|
    for nu in LADDER_NUS:
        psi, lower, _, _ = ladder_rows(nu)
        assert float(np.max(np.abs(lower[0]))) <= 1e-14 * nu * float(np.max(np.abs(psi[0])))


# ---------------------------------------------------------------------------
# inner products


@pytest.mark.parametrize("nu", NU_SET)
def test_gram_is_identity(nu):
    p = ModelParams(nu=nu)
    efs = [build_eigenfunction(p, n) for n in range(21)]
    g = gram_matrix(efs, rule_for(p))
    assert float(np.max(np.abs(g - np.eye(21)))) < 1e-9


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
