"""Numerics primitives against independent references: math.lgamma /
mpmath for log-gamma and Legendre functions, scipy.special and
numpy.polynomial for Gegenbauer values and Gauss-Legendre rules."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_gegenbauer

from ptdeform.specfun import (
    QuadratureRule,
    assoc_legendre,
    gauss_legendre,
    gegenbauer_row,
    log_gamma,
    _legendre_rule,
)

NU_GRID = [0.6, 1.0, 1.5, 2.0, 3.7]


# ---------------------------------------------------------------------------
# QuadratureRule


def test_quadrature_rule_validates_shapes():
    with pytest.raises(ValueError):
        QuadratureRule(np.zeros(3), np.zeros(4), (0.0, 1.0))
    with pytest.raises(ValueError):
        QuadratureRule(np.zeros((2, 2)), np.zeros((2, 2)), (0.0, 1.0))


def test_quadrature_rule_integrate_accepts_callable_and_samples():
    rule = gauss_legendre(12, 0.0, 2.0)
    from_callable = rule.integrate(lambda t: t**3)
    from_samples = rule.integrate(rule.nodes**3)
    assert from_callable == pytest.approx(4.0, abs=1e-13)
    assert from_samples == from_callable


# ---------------------------------------------------------------------------
# log_gamma


@given(st.floats(min_value=1e-3, max_value=170.0))
@settings(max_examples=200)
def test_log_gamma_matches_lgamma(z):
    assert log_gamma(z) == pytest.approx(math.lgamma(z), rel=1e-13, abs=1e-13)


def test_log_gamma_reflection_region():
    # z < 1/2 exercises the reflection formula explicitly.
    for z in (0.01, 0.125, 0.3, 0.49):
        assert log_gamma(z) == pytest.approx(math.lgamma(z), rel=1e-12)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


# ---------------------------------------------------------------------------
# Gegenbauer values and coefficients


@pytest.mark.parametrize("nu", NU_GRID)
def test_gegenbauer_row_matches_scipy(nu):
    x = np.linspace(-0.999, 0.999, 41)
    rows = gegenbauer_row(40, nu, x)
    assert rows.shape == (41, 41)
    for n in range(41):
        ref = eval_gegenbauer(n, nu, x)
        scale = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(rows[n] - ref) / scale) < 1e-12


def test_gegenbauer_row_scalar_and_shape():
    row = gegenbauer_row(3, 1.5, 0.25)
    assert row.shape == (4,)
    assert row[0] == 1.0
    assert row[1] == pytest.approx(2 * 1.5 * 0.25)


def test_gegenbauer_row_validation():
    with pytest.raises(ValueError):
        gegenbauer_row(-1, 1.5, 0.0)
    with pytest.raises(ValueError):
        gegenbauer_row(3, 0.0, 0.0)


# ---------------------------------------------------------------------------
# associated Legendre


def test_assoc_legendre_matches_mpmath():
    mpmath.mp.dps = 30
    for n, nu in [(0, 0.8), (3, 0.8), (1, 1.5), (5, 2.0), (8, 3.7)]:
        lam, mu = n + nu - 0.5, 0.5 - nu
        for x in (-0.62, 0.17, 0.9):
            ref = float(mpmath.legenp(lam, mu, x))
            assert assoc_legendre(lam, mu, x) == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_assoc_legendre_broadcasts():
    x = np.array([-0.5, 0.0, 0.5])
    vals = assoc_legendre(3.0, -1.0, x)  # n = 2 member of the nu = 3/2 family
    assert vals.shape == (3,)


def test_assoc_legendre_domain_errors():
    with pytest.raises(ValueError):
        assoc_legendre(2.5, -1.0, 1.0)  # |x| must be < 1
    with pytest.raises(ValueError):
        assoc_legendre(2.5, 0.5, 0.3)  # order outside the supported family
    with pytest.raises(ValueError):
        assoc_legendre(1.7, -1.2, 0.3)  # lam + mu not an integer


# ---------------------------------------------------------------------------
# Gauss-Legendre


@pytest.mark.parametrize("q", [5, 20, 64, 120, 180])
def test_gauss_legendre_matches_numpy(q):
    rule = gauss_legendre(q, -1.0, 1.0)
    nodes, weights = leggauss(q)
    np.testing.assert_allclose(rule.nodes, nodes, atol=1e-14)
    np.testing.assert_allclose(rule.weights, weights, atol=1e-14)


def test_gauss_legendre_node_symmetry_and_weight_sum():
    rule = gauss_legendre(33, -1.0, 1.0)
    np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=0.0)
    assert rule.nodes[16] == 0.0  # odd rule contains the midpoint exactly
    assert rule.weights.sum() == pytest.approx(2.0, abs=1e-14)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=59))
@settings(max_examples=60, deadline=None)
def test_gauss_legendre_integrates_monomials_exactly(q, j):
    # A q-point rule is exact through degree 2q - 1.
    if j > 2 * q - 1:
        j = j % (2 * q)
    rule = gauss_legendre(q, -1.0, 1.0)
    exact = 0.0 if j % 2 else 2.0 / (j + 1)
    assert rule.integrate(lambda t: t**j) == pytest.approx(exact, abs=5e-14)


def test_gauss_legendre_cached_rule_is_shared_read_only():
    # each rule owns fresh arrays; the cached rule on [-1, 1] they are mapped
    # from is read-only and equal to an uncached computation
    first = gauss_legendre(40, -1.0, 1.0)
    first.nodes[:] = 0.0
    second = gauss_legendre(40, -1.0, 1.0)
    z, w = _legendre_rule(40)
    assert not (z.flags.writeable or w.flags.writeable)
    fresh_z, fresh_w = _legendre_rule.__wrapped__(40)
    assert np.array_equal(z, fresh_z) and np.array_equal(w, fresh_w)
    assert np.array_equal(second.nodes, z) and np.array_equal(second.weights, w)


def test_gauss_legendre_mapped_interval():
    # \int_{-pi/2}^{pi/2} cos^4 = 3 pi / 8
    rule = gauss_legendre(40, -math.pi / 2, math.pi / 2)
    assert rule.integrate(lambda t: np.cos(t) ** 4) == pytest.approx(3 * math.pi / 8, abs=1e-13)
    assert rule.interval == (-math.pi / 2, math.pi / 2)


def test_gauss_legendre_validation():
    with pytest.raises(ValueError):
        gauss_legendre(0, -1.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(5, 1.0, 1.0)

