"""Special-function and quadrature primitives.

Everything in this module is pure numerics with no model parameters:
Gegenbauer polynomial values by three-term recurrence, with families of
consecutive index advanced together in one stacked pass, Gauss-Legendre
rules with Newton-refined nodes, and the lowest eigenvalues of a symmetric
tridiagonal matrix by LAPACK's bisection.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "gegenbauer_row",
    "gegenbauer_fill",
    "gauss_legendre",
    "tridiagonal_lowest",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a fixed quadrature rule on ``interval``."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "interval", (float(self.interval[0]), float(self.interval[1])))

    @property
    def order(self) -> int:
        return self.nodes.size


def gegenbauer_row(n_max: int, nu: float, x):
    """Values ``[C_0^(nu)(x), ..., C_{n_max}^(nu)(x)]`` at ``x``: the
    one-family case of `gegenbauer_fill`.  ``x`` may be a scalar or an
    array; the leading axis of the result indexes the polynomial order.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if nu <= 0.0:
        raise ValueError(f"gegenbauer_row requires nu > 0, got {nu}")
    xa = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + xa.shape)
    flat = xa.reshape(-1)
    gegenbauer_fill(out.reshape(n_max + 1, 1, flat.size), nu, flat, np.empty((1, flat.size)))
    return out


def gegenbauer_fill(rows: np.ndarray, nu: float, x: np.ndarray, scratch: np.ndarray) -> None:
    """Fill ``rows[i, j]`` with C_{i-j}^(nu_j)(x) in place: a stack of
    Gegenbauer families, family j of index nu_j = nu + j (added 1.0 at a
    time) and one level behind family j - 1, which is how the derivatives
    d/dX C_n^(nu) = 2 nu C_{n-1}^(nu+1) line up.  Each family follows the
    three-term recurrence

        m C_m = 2 (m + nu_j - 1) x C_{m-1} - (m + 2 nu_j - 2) C_{m-2},

    evaluated as ((2 (m + nu_j - 1) x) C_{m-1} - (m + 2 nu_j - 2) C_{m-2}) / m,
    all families of a row in one step.  Family j starts at row j from
    C_0 = 1 and C_1 = 2 nu_j x, with C_m = 0 above it (m < 0).  ``x`` is
    1-d, ``rows`` has shape (count, families, len(x)), and ``scratch`` is
    one more row of shape (families, len(x)).
    """
    count, families = rows.shape[:2]
    index = [nu]
    for _ in range(1, families):
        index.append(index[-1] + 1.0)
    levels = np.arange(count)[:, None] - np.arange(families)
    lam = np.array(index)
    grow = (2.0 * (levels + lam - 1.0))[:, :, None]
    keep = (levels + 2.0 * lam - 2.0)[:, :, None]
    divide = levels[:, :, None].astype(float)
    steps = zip(rows[2:], rows[1:], rows, grow[2:], keep[2:], divide[2:], itertools.repeat(scratch))
    for j, nu_j in enumerate(index):
        rows[:j, j] = 0.0
        rows[j:j + 1, j] = 1.0
        if j + 1 < count:
            np.multiply(2.0 * nu_j, x, out=rows[j + 1, j])
    # rows 2 .. families: only the first i - 1 families have reached level 2
    ramp = [[a[:k] for a in step] for k, step in zip(range(1, families), steps)]
    for row, prev, prev2, a, b, m, tmp in itertools.chain(ramp, steps):
        np.multiply(a, x, out=row)
        row *= prev
        np.multiply(b, prev2, out=tmp)
        row -= tmp
        row /= m


def gauss_legendre(q: int, a: float, b: float) -> QuadratureRule:
    """q-point Gauss-Legendre rule on ``(a, b)``.

    Only the (q + 1) // 2 nonnegative nodes are computed.  The others are
    their exact mirror images, the weights are exactly symmetric, and an odd
    rule keeps its midpoint at exactly 0, so parity cancellations are exact.

    Each node starts from an asymptotic formula (Hale & Townsend, SIAM J.
    Sci. Comput. 35 (2013) A652, section 3): Gatteschi's, from the zeros of
    J_0, for the max(10, q // 20) nodes nearest the wall, and Tricomi's
    elsewhere; the switch lies near where their errors cross.  The start is
    within 4e-10 of the root for q >= 76, so one Newton step, that is one
    pass of the Legendre recurrence, is enough for every q >= 58 (smaller
    rules take two).  Iteration stops once the step's predicted error
    |z / (1 - z^2)| dz^2, from P'' = 2 z P' / (1 - z^2) at a root, is below
    1e-17.  The weights 2 / ((1 - z^2) P'^2) come from the same pass, with
    P' carried from the old node to the new one to first order.

    The rule on [-1, 1] is computed once per order and mapped onto
    ``(a, b)`` on every call.
    """
    if q < 1:
        raise ValueError(f"quadrature order must be >= 1, got {q}")
    if not a < b:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
    z, w = _legendre_rule(q)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return QuadratureRule(nodes=mid + half * z, weights=half * w, interval=(a, b))


# The first zeros of the Bessel function J_0, from mpmath.besseljzero(0, k).
_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
             14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
             27.493479132040253, 30.634606468431976)


def _legendre_start(q: int) -> np.ndarray:
    """Starting values, increasing, for the (q + 1) // 2 nonnegative roots
    of P_q; the midpoint of an odd rule is exactly 0."""
    h = (q + 1) // 2
    k = np.arange(h, 0, -1, dtype=float)
    # Tricomi: x_k ~ [1 - (q-1)/(8q^3) - (39 - 28/sin^2 phi)/(384q^4)] cos phi
    phi = (k - 0.25) * np.pi / (q + 0.5)
    z = (1.0 - (q - 1.0) / (8.0 * q**3)
         - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * q**4)) * np.cos(phi)
    # Gatteschi near the wall, theta_k ~ (j_k / v) [1 - (j_k^2 / 2 - 1) / (180 v^4)],
    # with j_k tabulated or, beyond the table, from McMahon's expansion
    m = min(h, max(10, q // 20))
    beta = (k[h - m:] - 0.25) * np.pi
    e = 8.0 * beta
    j = beta + 1 / e - 124 / (3 * e**3) + 120928 / (15 * e**5) - 401743168 / (105 * e**7)
    tabulated = min(m, len(_J0_ZEROS))
    j[m - tabulated:] = _J0_ZEROS[tabulated - 1::-1]
    v = np.sqrt((q + 0.5) ** 2 + 1.0 / 12.0)
    z[h - m:] = np.cos(j / v * (1.0 - (0.5 * j * j - 1.0) / (180.0 * v**4)))
    if q % 2:
        z[0] = 0.0
    return z


@functools.lru_cache(maxsize=64)
def _legendre_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted nodes and weights of the q-point rule on [-1, 1], read-only
    because every caller shares them."""
    z = _legendre_start(q)
    p0, p1, p2 = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    for _ in range(100):
        # P_{j-2}, P_{j-1} -> P_j in place: j P_j = (2j - 1) z P_{j-1} - (j - 1) P_{j-2}
        p0.fill(1.0)
        p1[:] = z
        for j in range(2, q + 1):
            np.multiply(z, p1, out=p2)
            p2 *= (2.0 * j - 1.0) / j
            p0 *= (j - 1.0) / j
            p2 -= p0
            p0, p1, p2 = p1, p2, p0
        one_minus = 1.0 - z * z
        dp = q * (p0 - z * p1) / one_minus
        dz = p1 / dp
        dp *= 1.0 - 2.0 * z * dz / one_minus  # P_q' at z - dz, by P'' = 2 z P' / (1 - z^2)
        z -= dz
        # Newton's error after the step is about |P'' / (2 P')| dz^2
        if np.max(np.abs(z / one_minus) * dz * dz) < 1e-17:
            break
    else:
        raise RuntimeError("Legendre node refinement did not converge")
    w = 2.0 / ((1.0 - z * z) * dp * dp)

    # mirror the nonnegative half; an odd rule's midpoint is not repeated
    z = np.concatenate((-z[q % 2:][::-1], z))
    w = np.concatenate((w[q % 2:][::-1], w))
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


def tridiagonal_lowest(diag, offdiag, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues, increasing, of the symmetric
    tridiagonal matrix with diagonal ``diag`` and off-diagonal ``offdiag``.

    One call of LAPACK's bisection dstebz with range 'I', order 'E' and
    abstol 0, the call `scipy.linalg.eigh_tridiagonal` makes for
    ``select="i"``.  It runs from the OpenBLAS that numpy already loads,
    through its C entry point; only where numpy ships no such library
    (Accelerate, MKL, Windows builds) does it go through scipy, whose
    import costs more than the bisection.  Raises
    `numpy.linalg.LinAlgError` when LAPACK reports failure.
    """
    d = np.ascontiguousarray(diag, dtype=np.float64)
    e = np.ascontiguousarray(offdiag, dtype=np.float64)
    n = d.size
    if d.ndim != 1 or e.shape != (n - 1,):
        raise ValueError(f"need n diagonal and n-1 off-diagonal entries, got {d.shape} and "
                         f"{e.shape}")
    if not 1 <= count <= n:
        raise ValueError(f"count must lie in [1, {n}], got {count}")
    stebz = _lapacke_dstebz()
    if stebz is None:
        from scipy.linalg import eigh_tridiagonal

        return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, count - 1))
    found, nsplit = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    w = np.empty(n)
    iblock, isplit = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    info = stebz(b"I", b"E", n, 0.0, 0.0, 1, count, 0.0, d, e, found, nsplit, w, iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dstebz failed with info = {info}")
    return w[:found[0]]


@functools.cache
def _lapacke_dstebz():
    """``scipy_LAPACKE_dstebz64_`` of numpy's bundled OpenBLAS (64-bit
    integers), with its full signature declared, or None where numpy ships
    no such library or symbol.  The array arguments are checked by dtype,
    rank and flags, so a wrong array raises `ctypes.ArgumentError` instead
    of reaching LAPACK.  LAPACKE_dstebz takes no matrix-layout argument."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        fn = getattr(ctypes.CDLL(path), "scipy_LAPACKE_dstebz64_", None)
        if fn is None:
            continue
        i64, f64 = ctypes.c_int64, ctypes.c_double
        given = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
        out_f64, out_i64 = (np.ctypeslib.ndpointer(t, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
                            for t in (np.float64, np.int64))
        # range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock, isplit
        fn.argtypes = [ctypes.c_char, ctypes.c_char, i64, f64, f64, i64, i64, f64,
                       given, given, out_i64, out_i64, out_f64, out_i64, out_i64]
        fn.restype = i64
        return fn
    return None
