"""Closed-form algebra layer: spectrum, deforming functions, ladder
coefficients, Casimir scalar.

Hand-derived reference values at nu = 2 (eps = 1):
    E_n = (n + 2)^2,  alpha_1 = sqrt(6),  alpha_2 = sqrt(40/3),
    alpha_3 = sqrt(45/2),  -f(E_0) = 6,  h(E_0) = -8,  C = -2.
At nu = 1 the tower is the infinite square well with alpha_n = n + 1,
so the commutator diagonal alpha_{n+1}^2 - alpha_n^2 = 2n + 3 matches
1 + 2 sqrt(E_n/eps) everywhere except the bottom entry, where the
deformation contributes its resolved 0/0 value of exactly 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptdeform.algebra import (
    ModelParams,
    alpha,
    alpha_by_recursion,
    casimir_eigenvalue,
    energy,
    f_of,
    f_of_uncorrected,
    g_of,
    h_of,
    nu_from_v0,
    su11_matrix_elements,
)

NU2 = ModelParams(nu=2.0)
NU1 = ModelParams(nu=1.0)

nus = st.floats(min_value=1.0, max_value=25.0, allow_nan=False)
levels = st.integers(min_value=0, max_value=60)


# ---------------------------------------------------------------------------
# parameters and spectrum


def test_default_energy_scale_is_unity():
    p = ModelParams()
    assert p.epsilon == 1.0
    assert p.box == (-math.pi / 2, math.pi / 2)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(nu=0.99)
    with pytest.raises(ValueError):
        ModelParams(hbar=0.0)
    with pytest.raises(ValueError):
        ModelParams(mass=-1.0)
    with pytest.raises(ValueError):
        ModelParams(k=0.0)
    for field in ("hbar", "mass", "k", "nu"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=field):
                ModelParams(**{field: bad})
    # finite constants whose energy scale leaves double range
    for units in ({"hbar": 1e200}, {"k": 1e200}, {"mass": 1e-320}, {"hbar": 1e-200}):
        with pytest.raises(ValueError, match="epsilon"):
            ModelParams(**units)
        with pytest.raises(ValueError, match="epsilon"):
            ModelParams.from_v0(2.0, **units)


def test_strength_and_v0():
    assert NU2.v0 == 2.0
    assert NU2.strength() == 2.0
    assert NU1.v0 == 0.0
    assert NU1.strength() == 0.0


def test_nu_from_v0_known_point():
    assert nu_from_v0(2.0, 1.0) == 2.0
    assert nu_from_v0(0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        nu_from_v0(-0.5, 1.0)
    with pytest.raises(ValueError):
        nu_from_v0(1.0, 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="v0"):
            nu_from_v0(bad, 1.0)


def test_from_v0_roundtrip():
    p = ModelParams.from_v0(2.0)
    assert p.nu == 2.0
    assert p.v0 == pytest.approx(2.0)


@given(nus)
@settings(max_examples=200)
def test_v0_nu_inverse_property(nu):
    p = ModelParams(nu=nu)
    assert nu_from_v0(p.v0, p.epsilon) == pytest.approx(nu, rel=1e-12)


def test_energy_closed_form():
    assert energy(NU2, 0) == 4.0
    assert energy(NU2, 3) == 25.0
    assert energy(NU1, 0) == 1.0
    with pytest.raises(ValueError):
        energy(NU2, -1)


def test_scaled_units_spectrum():
    # hbar = 2, m = 1, k = 3 gives eps = 18; energies scale accordingly.
    p = ModelParams(hbar=2.0, mass=1.0, k=3.0, nu=1.5)
    assert p.epsilon == pytest.approx(18.0)
    assert energy(p, 2) == pytest.approx(18.0 * 3.5**2)


# ---------------------------------------------------------------------------
# deforming functions


def test_g_shifts_down_one_level():
    assert g_of(NU2, energy(NU2, 0)) == pytest.approx(3.0)
    for n in range(1, 30):
        e = energy(NU2, n)
        assert e - g_of(NU2, e) == pytest.approx(energy(NU2, n - 1), rel=1e-13)


@given(nus, levels)
@settings(max_examples=300)
def test_g_grading_property(nu, n):
    p = ModelParams(nu=nu)
    e = energy(p, n + 1)
    assert e - g_of(p, e) == pytest.approx(energy(p, n), rel=1e-11)


def test_f_reference_point():
    assert f_of(NU2, 4.0) == pytest.approx(-6.0)
    assert f_of_uncorrected(NU2, 4.0) == pytest.approx(-5.0)


def test_f_pole_raises_away_from_square_well():
    # s = 1 is a genuine pole of f when the strength is nonzero.
    with pytest.raises(ZeroDivisionError):
        f_of(NU2, NU2.epsilon)
    with pytest.raises(ValueError):
        f_of(NU2, 0.0)


def test_f_square_well_branch():
    # Above the ground level f loses its extra term entirely; at the
    # ground energy the 0/0 resolves to 1, giving -f = 4 instead of 3.
    for n in range(1, 20):
        e = energy(NU1, n)
        assert f_of(NU1, e) == f_of_uncorrected(NU1, e)
    assert f_of(NU1, energy(NU1, 0)) == pytest.approx(-4.0)
    assert f_of_uncorrected(NU1, energy(NU1, 0)) == pytest.approx(-3.0)


@pytest.mark.parametrize("params", [NU1, NU2, ModelParams(nu=1.294678), ModelParams(nu=49.9),
                                    ModelParams(hbar=1.3, mass=0.7, k=2.1, nu=3.7)],
                         ids=["1.0", "2.0", "1.294678", "49.9", "units"])
def test_level_functions_take_a_float_or_an_array(params):
    # one array of levels gives, entry by entry and bit for bit, what one
    # float per level gives, and a float gives a Python float; at nu = 1
    # the ground level of f keeps its resolved 0/0 of 1
    levels = np.arange(480)
    energies = energy(params, levels)
    assert np.array_equal(energies, [energy(params, int(n)) for n in levels])
    for fn in (g_of, f_of, f_of_uncorrected, h_of):
        values = fn(params, energies)
        scalars = [fn(params, float(e)) for e in energies]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(values, scalars)
    assert type(energy(params, 3)) is float
    if params.nu == 1.0:
        assert f_of(params, energies)[0] == -4.0


def test_level_functions_reject_an_array_at_a_pole_or_off_the_spectrum():
    with pytest.raises(ZeroDivisionError):
        f_of(NU2, np.array([4.0, NU2.epsilon]))
    with pytest.raises(ValueError):
        h_of(NU2, np.array([4.0, 0.0]))
    with pytest.raises(ValueError):
        energy(NU2, np.array([0, -1]))


def test_h_reference_point_and_difference_equation():
    assert h_of(NU2, 4.0) == pytest.approx(-8.0)
    for n in range(1, 30):
        e, e_prev = energy(NU2, n), energy(NU2, n - 1)
        assert h_of(NU2, e) - h_of(NU2, e_prev) == pytest.approx(f_of(NU2, e), rel=1e-12)


@given(st.floats(min_value=1.0 + 1e-6, max_value=25.0), st.integers(min_value=1, max_value=60))
@settings(max_examples=300)
def test_h_difference_equation_property(nu, n):
    p = ModelParams(nu=nu)
    e, e_prev = energy(p, n), energy(p, n - 1)
    assert h_of(p, e) - h_of(p, e_prev) == pytest.approx(f_of(p, e), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# ladder coefficients


def test_alpha_reference_values():
    assert alpha(NU2, 0) == 0.0
    assert alpha(NU2, 1) == pytest.approx(math.sqrt(6.0))
    assert alpha(NU2, 2) == pytest.approx(math.sqrt(40.0 / 3.0))
    assert alpha(NU2, 3) == pytest.approx(math.sqrt(45.0 / 2.0))
    with pytest.raises(ValueError):
        alpha(NU2, -1)


def test_alpha_square_well_is_n_plus_one():
    for n in range(1, 40):
        assert alpha(NU1, n) == pytest.approx(n + 1.0, rel=1e-14)
    assert alpha(NU1, 0) == 0.0


@pytest.mark.parametrize("nu", [1.0, 1.001, 1.5, 2.0, 3.7, 12.25])
def test_alpha_recursion_agrees_with_closed_form(nu):
    p = ModelParams(nu=nu)
    rec = alpha_by_recursion(p, 50)
    for n in range(51):
        c = alpha(p, n)
        assert rec[n] == pytest.approx(c, rel=1e-12, abs=1e-12)


@given(nus)
@settings(max_examples=150)
def test_alpha_recursion_property(nu):
    p = ModelParams(nu=nu)
    rec = alpha_by_recursion(p, 12)
    for n in range(13):
        assert rec[n] == pytest.approx(alpha(p, n), rel=1e-11, abs=1e-11)


def test_alpha_recursion_validation():
    with pytest.raises(ValueError):
        alpha_by_recursion(NU2, -1)


def test_commutator_diagonal_from_alpha():
    # alpha_{n+1}^2 - alpha_n^2 must equal -f(E_n) level by level; at the
    # square well this pins the bottom entry at 4 = 3 + 1.
    for p in (NU1, NU2, ModelParams(nu=3.7)):
        for n in range(25):
            lhs = alpha(p, n + 1) ** 2 - alpha(p, n) ** 2
            assert lhs == pytest.approx(-f_of(p, energy(p, n)), rel=1e-12)
    assert alpha(NU1, 1) ** 2 == pytest.approx(4.0)


def test_uncorrected_commutator_defect_is_one_at_bottom():
    # Dropping the deformation term leaves a defect of exactly
    # strength/((n+nu)(n+nu-1)): equal to 1 at n = 0 for every nu >= 1,
    # and (nu-1)/(nu+1) at n = 1.
    for nu in (1.0, 1.01, 1.5, 2.0, 3.7):
        p = ModelParams(nu=nu)
        defect0 = alpha(p, 1) ** 2 - alpha(p, 0) ** 2 + f_of_uncorrected(p, energy(p, 0))
        assert defect0 == pytest.approx(1.0, rel=1e-12)
        defect1 = alpha(p, 2) ** 2 - alpha(p, 1) ** 2 + f_of_uncorrected(p, energy(p, 1))
        assert defect1 == pytest.approx((nu - 1.0) / (nu + 1.0), abs=1e-12)


# ---------------------------------------------------------------------------
# Casimir and su(1,1) elements


def test_casimir_eigenvalue():
    assert casimir_eigenvalue(NU2) == -2.0
    assert casimir_eigenvalue(NU1) == 0.0


@given(nus, st.integers(min_value=0, max_value=40))
@settings(max_examples=300)
def test_casimir_scalar_both_orderings(nu, n):
    p = ModelParams(nu=nu)
    e = energy(p, n)
    c = casimir_eigenvalue(p)
    first = alpha(p, n + 1) ** 2 + h_of(p, e)
    second = alpha(p, n) ** 2 + h_of(p, e) - f_of(p, e)
    assert first == pytest.approx(c, rel=1e-10, abs=1e-9)
    assert second == pytest.approx(c, rel=1e-10, abs=1e-9)


def test_su11_elements_reference():
    j0, jp = su11_matrix_elements(NU2, 0)
    assert j0 == 2.0
    assert jp == pytest.approx(2.0)  # sqrt((0+1)(0+4))
    j0, jp = su11_matrix_elements(NU2, 1)
    assert j0 == 3.0
    assert jp == pytest.approx(math.sqrt(10.0))
    with pytest.raises(ValueError):
        su11_matrix_elements(NU2, -1)


@given(nus, st.integers(min_value=0, max_value=50))
@settings(max_examples=300)
def test_su11_elements_closed_form(nu, n):
    p = ModelParams(nu=nu)
    j0, jp = su11_matrix_elements(p, n)
    assert j0 == n + nu
    assert jp == pytest.approx(math.sqrt((n + 1.0) * (n + 2.0 * nu)), rel=1e-12)


@given(nus, st.integers(min_value=1, max_value=50))
@settings(max_examples=200)
def test_su11_ladder_closure(nu, n):
    # J+ elements satisfy the su(1,1) closure |jp_{n-1}|^2 - |jp_n|^2 = -2 j0_n.
    p = ModelParams(nu=nu)
    _, jp_prev = su11_matrix_elements(p, n - 1)
    j0, jp = su11_matrix_elements(p, n)
    assert jp_prev**2 - jp**2 == pytest.approx(-2.0 * j0, rel=1e-12, abs=1e-9)


@given(nus, st.integers(min_value=0, max_value=50))
@settings(max_examples=200)
def test_su11_casimir_from_elements(nu, n):
    # j- j+ at level n minus j0(j0+1) is the constant -nu(nu-1).
    p = ModelParams(nu=nu)
    j0, jp = su11_matrix_elements(p, n)
    assert jp**2 - j0 * (j0 + 1.0) == pytest.approx(-p.strength(), rel=1e-11, abs=1e-9)
