"""Numerics primitives against independent references: scipy.special and
numpy.polynomial for Gegenbauer values and Gauss-Legendre rules, mpmath
for Gauss-Legendre rules of high order, and scipy.linalg for the
tridiagonal eigenvalues."""

import ctypes
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_gegenbauer

from ptdeform import specfun
from ptdeform.specfun import (
    QuadratureRule,
    gauss_legendre,
    gegenbauer_fill,
    gegenbauer_row,
    tridiagonal_lowest,
    _legendre_rule,
    _legendre_start,
)

NU_GRID = [0.6, 1.0, 1.5, 2.0, 3.7]


# ---------------------------------------------------------------------------
# QuadratureRule


def test_quadrature_rule_validates_shapes():
    with pytest.raises(ValueError):
        QuadratureRule(np.zeros(3), np.zeros(4), (0.0, 1.0))
    with pytest.raises(ValueError):
        QuadratureRule(np.zeros((2, 2)), np.zeros((2, 2)), (0.0, 1.0))


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


def _one_family(n_max, nu, x):
    """C_0^(nu) .. C_{n_max}^(nu) by the recurrence written out level by
    level, one family at a time, in the arithmetic `gegenbauer_fill` keeps."""
    rows = [np.ones_like(x), 2.0 * nu * x]
    for n in range(2, n_max + 1):
        rows.append(((2.0 * (n + nu - 1.0)) * x * rows[-1] - (n + 2.0 * nu - 2.0) * rows[-2]) / n)
    return np.array(rows[:n_max + 1])


@pytest.mark.parametrize("nu", [1.0, 1.294678, 3.7, 49.9])
@pytest.mark.parametrize("count", [32, 33, 65])
def test_stacked_families_are_the_single_family_rows(nu, count):
    # family j of the stack, index nu + j one level behind family j - 1, is
    # the one-family tower bit for bit
    x = np.linspace(-0.999, 0.999, 41)
    whole = np.empty((count, 3, x.size))
    gegenbauer_fill(whole, nu, x, np.empty((3, x.size)))
    index = nu
    for j in range(3):
        single = gegenbauer_row(count - 1 - j, index, x)
        assert np.array_equal(single, _one_family(count - 1 - j, index, x))
        assert np.array_equal(whole[j:, j], single)
        assert not whole[:j, j].any()  # levels below 0
        index += 1.0
    for short in (1, 2):  # fewer rows than families
        part = np.empty((short, 3, x.size))
        gegenbauer_fill(part, nu, x, np.empty((3, x.size)))
        assert np.array_equal(part, whole[:short])


# ---------------------------------------------------------------------------
# Gauss-Legendre


@pytest.mark.parametrize("q", list(range(1, 61)) + [64, 120, 180])
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
    assert float(rule.weights @ rule.nodes**j) == pytest.approx(exact, abs=5e-14)


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
    assert float(rule.weights @ np.cos(rule.nodes) ** 4) == pytest.approx(3 * math.pi / 8, abs=1e-13)
    assert rule.interval == (-math.pi / 2, math.pi / 2)


def _mpmath_node_and_weight(q: int, x0: float):
    """The root of P_q next to ``x0`` and its weight 2 / ((1 - x^2) P_q'^2),
    by Newton's method in 40-digit arithmetic.  A root x < 0 is found as
    -(the root next to -x0), where mpmath evaluates P_q much faster."""
    sign = -1 if x0 < 0 else 1
    with mpmath.workdps(40):
        x = mpmath.mpf(abs(x0))
        for _ in range(3):  # from a double start, 3 steps exceed 40 digits
            p = mpmath.legendre(q, x)
            x -= p * (1 - x * x) / (q * (mpmath.legendre(q - 1, x) - x * p))
        dp = q * (mpmath.legendre(q - 1, x) - x * mpmath.legendre(q, x)) / (1 - x * x)
        return sign * x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("q", [76, 120, 1020, 1069])
def test_gauss_legendre_matches_mpmath(q):
    # The 4 outermost nodes at each wall and 6 interior ones.  Near the wall
    # a weight is ill-conditioned in its node, d(ln w)/dx = 2x / (1 - x^2),
    # so the recurrence's rounding moves it by about eps / (1 - x^2).  The
    # two outermost weights must lie within 5e-11, the others within 1e-13
    # plus twice that amount.
    z, w = _legendre_rule(q)
    interior = [int(i) for i in np.linspace(4, q - 5, 6)]
    for i in [0, 1, 2, 3, q - 4, q - 3, q - 2, q - 1] + interior:
        x, weight = _mpmath_node_and_weight(q, z[i])
        assert abs(z[i] - float(x)) < 2.3e-16, (q, i)
        rel = float(abs((w[i] - weight) / weight))
        if min(i, q - 1 - i) < 2:
            assert rel < 5e-11, (q, i, rel)
        else:
            assert rel < 1e-13 + 2 * np.finfo(float).eps / (1.0 - z[i] ** 2), (q, i, rel)


def test_gauss_legendre_discrete_orthogonality():
    # sum_k w_k P_m(z_k) P_n(z_k) = delta_mn 2 / (2n + 1) for all m, n < q
    q = 1020
    z, w = _legendre_rule(q)
    rows = np.empty((q, q))
    rows[0], rows[1] = 1.0, z
    for n in range(2, q):
        rows[n] = ((2 * n - 1) * z * rows[n - 1] - (n - 1) * rows[n - 2]) / n
    gram = (rows * w) @ rows.T
    gram[np.diag_indices(q)] -= 2.0 / (2.0 * np.arange(q) + 1.0)
    assert np.max(np.abs(gram)) < 1e-14


@pytest.mark.parametrize("q", [76, 77, 120, 481, 1020, 1021, 1069, 4096])
def test_legendre_start_is_close_enough_for_one_newton_pass(q):
    # a start this close converges in the one Newton pass that sets the
    # cost of a rule
    z, _ = _legendre_rule(q)
    start = _legendre_start(q)
    assert start.shape == ((q + 1) // 2,)
    assert np.max(np.abs(start - z[q // 2:])) < 1e-9


def test_gauss_legendre_rule_is_mirrored_exactly():
    for q in range(1, 201):
        z, w = _legendre_rule(q)
        assert np.array_equal(z, -z[::-1]), q
        assert np.array_equal(w, w[::-1]), q
        assert np.all(np.diff(z) > 0.0), q
        if q % 2:
            assert z[q // 2] == 0.0, q


def test_gauss_legendre_validation():
    with pytest.raises(ValueError):
        gauss_legendre(0, -1.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(5, 1.0, 1.0)



# ---------------------------------------------------------------------------
# lowest eigenvalues of a symmetric tridiagonal matrix


def _lowest_by_scipy(d, e, count):
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, count - 1))


@pytest.mark.parametrize("n", [1, 2, 7, 200, 999])
def test_tridiagonal_lowest_matches_eigh_tridiagonal(n):
    # the same LAPACK call, dstebz with range 'I', order 'E' and abstol 0,
    # so the same bits
    rng = np.random.default_rng(n)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    for count in sorted({1, min(3, n), n}):
        lowest = tridiagonal_lowest(d, e, count)
        assert lowest.shape == (count,)
        assert np.array_equal(lowest, _lowest_by_scipy(d, e, count))


def test_tridiagonal_lowest_falls_back_to_scipy(monkeypatch):
    # where numpy ships no LAPACKE dstebz the call goes through scipy.linalg,
    # with the same bits
    import scipy.linalg

    rng = np.random.default_rng(3)
    d, e = rng.standard_normal(300), rng.standard_normal(299)
    direct = tridiagonal_lowest(d, e, 6)
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["select_range"])
        return eigh_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(specfun, "_lapacke_dstebz", lambda: None)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
    assert np.array_equal(tridiagonal_lowest(d, e, 6), direct)
    assert calls == [(0, 5)]


def test_tridiagonal_lowest_raises_on_lapack_failure(monkeypatch):
    monkeypatch.setattr(specfun, "_lapacke_dstebz", lambda: lambda *args: 2)
    with pytest.raises(np.linalg.LinAlgError, match="info = 2"):
        tridiagonal_lowest(np.ones(3), np.ones(2), 1)


def test_tridiagonal_lowest_validation():
    with pytest.raises(ValueError):
        tridiagonal_lowest(np.ones(3), np.ones(3), 1)
    with pytest.raises(ValueError):
        tridiagonal_lowest(np.ones((2, 2)), np.ones(1), 1)
    with pytest.raises(ValueError):
        tridiagonal_lowest(np.ones(3), np.ones(2), 0)
    with pytest.raises(ValueError):
        tridiagonal_lowest(np.ones(3), np.ones(2), 4)


def test_lapacke_binding_checks_its_arrays():
    # the declared signature stops a wrong array before it reaches LAPACK
    stebz = specfun._lapacke_dstebz()
    if stebz is None:
        pytest.skip("numpy ships no LAPACKE dstebz here")
    n = 3
    d, e, w = np.ones(n), np.ones(n - 1), np.empty(n)
    m, nsplit, iblock, isplit = (np.zeros(size, dtype=np.int64) for size in (1, 1, n, n))
    assert stebz(b"I", b"E", n, 0.0, 0.0, 1, n, 0.0, d, e, m, nsplit, w, iblock, isplit) == 0
    assert m[0] == n and np.array_equal(w, _lowest_by_scipy(d, e, n))
    with pytest.raises(ctypes.ArgumentError, match="TypeError"):
        stebz(b"I", b"E", n, 0.0, 0.0, 1, n, 0.0, d.astype(np.float32), e, m, nsplit, w,
              iblock, isplit)
    with pytest.raises(ctypes.ArgumentError, match="TypeError"):
        stebz(b"I", b"E", n, 0.0, 0.0, 1, n, 0.0, d, e, m.astype(np.int32), nsplit, w,
              iblock, isplit)
    w.flags.writeable = False
    with pytest.raises(ctypes.ArgumentError, match="TypeError"):
        stebz(b"I", b"E", n, 0.0, 0.0, 1, n, 0.0, d, e, m, nsplit, w, iblock, isplit)
