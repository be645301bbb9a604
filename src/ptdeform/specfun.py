"""Special-function and quadrature primitives.

Everything in this module is pure numerics with no model parameters:
log-gamma, Gegenbauer polynomial values by three-term recurrence,
associated Legendre functions of real degree and order through their
Gegenbauer connection, and Gauss-Legendre rules with Newton-refined
nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "log_gamma",
    "gegenbauer_row",
    "assoc_legendre",
    "gauss_legendre",
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

    def integrate(self, f) -> float:
        """Integrate a callable, or dot the weights into an array of samples."""
        values = f(self.nodes) if callable(f) else np.asarray(f, dtype=float)
        return float(self.weights @ values)


# Lanczos approximation, g = 7 with 9 coefficients.  Relative accuracy is
# a few ulp throughout the right half-plane, far below the 1e-13 budget
# of the normalization constants built from it.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-06,
    1.5056327351493116e-07,
)


def log_gamma(z: float) -> float:
    """Natural log of the gamma function for real ``z > 0``."""
    z = float(z)
    if z <= 0.0:
        raise ValueError(f"log_gamma requires z > 0, got {z}")
    if z < 0.5:
        # reflection keeps the Lanczos series on its well-conditioned range
        return math.log(math.pi / math.sin(math.pi * z)) - log_gamma(1.0 - z)
    z -= 1.0
    series = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t + math.log(series)


def gegenbauer_row(n_max: int, nu: float, x):
    """Values ``[C_0^(nu)(x), ..., C_{n_max}^(nu)(x)]`` at ``x``.

    Uses the three-term recurrence

        n C_n = 2 (n + nu - 1) x C_{n-1} - (n + 2 nu - 2) C_{n-2}

    with C_0 = 1 and C_1 = 2 nu x.  ``x`` may be a scalar or an array;
    the leading axis of the result indexes the polynomial order.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if nu <= 0.0:
        raise ValueError(f"gegenbauer_row requires nu > 0, got {nu}")
    xa = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + xa.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 2.0 * nu * xa
    for n in range(2, n_max + 1):
        out[n] = (2.0 * (n + nu - 1.0) * xa * out[n - 1] - (n + 2.0 * nu - 2.0) * out[n - 2]) / n
    return out


def assoc_legendre(lam: float, mu: float, x):
    """Associated Legendre ``P^mu_lam(x)`` on the Gegenbauer-connected family.

    Supports the degree/order combinations lam = n + nu - 1/2,
    mu = 1/2 - nu with integer n >= 0 and nu > 1/2, for |x| < 1, via

        P^(1/2-nu)_(n+nu-1/2)(x) =
            Gamma(2 nu) n! / (2^(nu-1/2) Gamma(nu+1/2) Gamma(n+2 nu))
            * (1 - x^2)^(nu/2 - 1/4) * C_n^(nu)(x)

    with the constant evaluated in log space.
    """
    nu = 0.5 - mu
    if nu <= 0.5:
        raise ValueError(f"order mu must satisfy mu < 0 (nu = 1/2 - mu > 1/2), got mu = {mu}")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) >= 1.0):
        raise ValueError("assoc_legendre requires |x| < 1")
    n_real = lam + mu
    n = round(n_real)
    if n < 0 or abs(n_real - n) > 1e-9:
        raise ValueError(
            f"degree/order pair (lam={lam}, mu={mu}) is outside the integer-indexed family"
        )
    log_c = (
        log_gamma(2.0 * nu)
        + log_gamma(n + 1.0)
        - (nu - 0.5) * math.log(2.0)
        - log_gamma(nu + 0.5)
        - log_gamma(n + 2.0 * nu)
    )
    cn = gegenbauer_row(n, nu, xa)[n]
    val = math.exp(log_c) * (1.0 - xa * xa) ** (0.5 * nu - 0.25) * cn
    return val if xa.shape else float(val)


def gauss_legendre(q: int, a: float, b: float) -> QuadratureRule:
    """q-point Gauss-Legendre rule on ``(a, b)``.

    Nodes are Newton-refined roots of the Legendre polynomial P_q,
    iterated until the update falls below 1e-15, then symmetrized about
    the midpoint so parity cancellations are exact.  The rule on [-1, 1]
    is computed once per order and mapped onto ``(a, b)`` on every call.
    """
    if q < 1:
        raise ValueError(f"quadrature order must be >= 1, got {q}")
    if not a < b:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
    z, w = _legendre_rule(q)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return QuadratureRule(nodes=mid + half * z, weights=half * w, interval=(a, b))


@functools.lru_cache(maxsize=64)
def _legendre_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted nodes and weights of the q-point rule on [-1, 1], read-only
    because every caller shares them."""
    z = np.cos(np.pi * (np.arange(q) + 0.75) / (q + 0.5))
    dp = np.ones_like(z)
    for _ in range(100):
        p0 = np.ones_like(z)
        p1 = np.zeros_like(z)
        for j in range(1, q + 1):
            p0, p1 = ((2.0 * j - 1.0) * z * p0 - (j - 1.0) * p1) / j, p0
        dp = q * (z * p0 - p1) / (z * z - 1.0)
        dz = p0 / dp
        z = z - dz
        if np.max(np.abs(dz)) < 1e-15:
            break
    else:
        raise RuntimeError("Legendre node refinement did not converge")

    # one clean recomputation of the derivative at the converged nodes
    p0 = np.ones_like(z)
    p1 = np.zeros_like(z)
    for j in range(1, q + 1):
        p0, p1 = ((2.0 * j - 1.0) * z * p0 - (j - 1.0) * p1) / j, p0
    dp = q * (z * p0 - p1) / (z * z - 1.0)
    w = 2.0 / ((1.0 - z * z) * dp * dp)

    z = 0.5 * (z - z[::-1])
    w = 0.5 * (w + w[::-1])
    order = np.argsort(z)
    z, w = z[order], w[order]
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w

