"""Normalized bound-state wavefunctions of the trigonometric
Poschl-Teller well.

Each state factors as psi_n(x) = cos^nu(kx) * phi_n(sin kx) with phi_n a
degree-n polynomial, stored as its coefficients on the Gegenbauer family
C_j^(nu).  Two independent constructions are provided: the closed form
phi_n = N_n C_n^(nu), and repeated application of the raising step to
the constant ground-state factor.  A third route evaluates the same state
through its associated Legendre representation.  Derivatives follow from
d/dX C_j^(nu) = 2 nu C_{j-1}^(nu+1), so pointwise residuals of
differential identities probe only floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ModelParams, alpha
from .specfun import QuadratureRule, assoc_legendre, gegenbauer_row, log_gamma

__all__ = [
    "Eigenfunction",
    "norm0",
    "norm_n",
    "build_eigenfunction",
    "psi_value",
    "psi_deriv_value",
    "basis_table",
    "psi_second_deriv_value",
    "psi_value_legendre",
    "lowering_apply",
    "raising_apply",
    "overlap",
    "gram_matrix",
    "chebyshev_points",
    "square_well_state",
]


@dataclass(frozen=True)
class Eigenfunction:
    """Level ``n`` bound state, its polynomial factor phi_n given by
    ``basis_coeffs`` on the Gegenbauer family C_0^(nu) ... C_n^(nu) of the
    model's own index; the coefficients already carry the norm ``N_n``.
    """

    n: int
    params: ModelParams
    basis_coeffs: tuple[float, ...]


def norm0(params: ModelParams) -> float:
    """Ground-state normalization N_0 = sqrt(k Gamma(nu+1) / (sqrt(pi) Gamma(nu+1/2)))."""
    nu = params.nu
    log_sq = math.log(params.k) + log_gamma(nu + 1.0) - 0.5 * math.log(math.pi) - log_gamma(nu + 0.5)
    return math.exp(0.5 * log_sq)


def norm_n(params: ModelParams, n: int) -> float:
    """Normalization of the level-n polynomial factor,

        N_n = N_0 sqrt( n! (n + nu) Gamma(2 nu) / (nu Gamma(n + 2 nu)) ),

    evaluated in log space so large n and nu do not overflow.
    """
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    nu = params.nu
    log_sq = (
        log_gamma(n + 1.0)
        + math.log(n + nu)
        + log_gamma(2.0 * nu)
        - math.log(nu)
        - log_gamma(n + 2.0 * nu)
    )
    return norm0(params) * math.exp(0.5 * log_sq)


def _ladder_step_basis(d: np.ndarray, j: int, nu: float) -> np.ndarray:
    """The raising step (X^2 - 1) d/dX + (j + 2 nu) X on a Gegenbauer-basis
    coefficient vector, using

        [(X^2-1) d/dX + c X] C_i = (c + i)(i+1)/(2(i+nu)) C_{i+1}
                                   + (i + 2 nu - 1)(j - i)/(2(i+nu)) C_{i-1}

    for c = j + 2 nu; the C_{i-1} term vanishes on the dominant i = j
    component, which is what keeps this route stable.
    """
    out = np.zeros(d.size + 1)
    for i, di in enumerate(d):
        if di == 0.0:
            continue
        out[i + 1] += di * (j + 2.0 * nu + i) * (i + 1.0) / (2.0 * (i + nu))
        if i >= 1:
            out[i - 1] += di * (i + 2.0 * nu - 1.0) * (j - i) / (2.0 * (i + nu))
    return out


def build_eigenfunction(params: ModelParams, n: int, method: str = "closed_form") -> Eigenfunction:
    """Construct psi_n, either from the closed Gegenbauer form or by
    climbing from the ground state with the raising step.

    Both routes produce the same Gegenbauer coefficients up to rounding;
    the ladder route divides out alpha_{j+1} at each step, so it is only
    as accurate as the closed-form ladder coefficients it consumes.
    """
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    nu = params.nu
    if method == "closed_form":
        basis = np.zeros(n + 1)
        basis[n] = norm_n(params, n)
    elif method == "ladder":
        basis = np.array([norm0(params)])
        for j in range(n):
            scale = (j + nu + 1.0) / ((j + nu) * alpha(params, j + 1))
            basis = scale * _ladder_step_basis(basis, j, nu)
    else:
        raise ValueError(f"unknown construction method {method!r}")
    return Eigenfunction(n=n, params=params, basis_coeffs=tuple(basis))


def _trig(params: ModelParams, x):
    """sin(kx), cos(kx) with a strict interior-domain check."""
    xa = np.asarray(x, dtype=float)
    half = 0.5 * math.pi / params.k
    if np.any(np.abs(xa) >= half):
        raise ValueError(f"position outside the open box (-{half}, {half})")
    return np.sin(params.k * xa), np.cos(params.k * xa)


def _shape(value, x):
    return value if np.asarray(x).shape else float(value)


def _phi_at(ef: Eigenfunction, s, deriv: int = 0):
    """phi, phi' or phi'' at s = sin(kx) from the Gegenbauer-basis
    representation, using d/dX C_j^(nu) = 2 nu C_{j-1}^(nu+1)."""
    d = np.asarray(ef.basis_coeffs)
    nu = ef.params.nu
    prefactor = 1.0
    for _ in range(deriv):
        prefactor *= 2.0 * nu
        nu += 1.0
    d = d[deriv:] * prefactor
    if d.size == 0:
        return np.zeros(np.shape(s))
    rows = gegenbauer_row(d.size - 1, nu, s)
    return np.tensordot(d, rows, axes=1)


def psi_value(ef: Eigenfunction, x):
    """psi_n(x) = cos^nu(kx) phi_n(sin kx) for x strictly inside the box."""
    s, c = _trig(ef.params, x)
    return _shape(c**ef.params.nu * _phi_at(ef, s), x)


def psi_deriv_value(ef: Eigenfunction, x):
    """First derivative, via the chain rule in X = sin(kx):

    psi' = k cos^(nu-1)(kx) [ (1 - X^2) phi'(X) - nu X phi(X) ].
    """
    p = ef.params
    s, c = _trig(p, x)
    bracket = (1.0 - s * s) * _phi_at(ef, s, 1) - p.nu * s * _phi_at(ef, s)
    return _shape(p.k * c ** (p.nu - 1.0) * bracket, x)


def basis_table(params: ModelParams, n_basis: int, nodes) -> tuple[np.ndarray, np.ndarray]:
    """psi_n and psi_n' for n = 0 .. n_basis-1 at the 1-d array ``nodes``,
    one row per level.

    The whole closed-form tower in two recurrence passes, one Gegenbauer
    row of index nu for the values and one of index nu+1 for the
    derivatives, each scaled by the vector of N_n: O(n_basis * len(nodes))
    in place of one recurrence per state.  The arithmetic is the same, in
    the same order, as `psi_value` and `psi_deriv_value` on the states of
    `build_eigenfunction`, so the rows agree with those to the bit.
    """
    if n_basis < 1:
        raise ValueError(f"basis size must be >= 1, got {n_basis}")
    nu = params.nu
    s, c = _trig(params, nodes)
    norms = np.array([norm_n(params, n) for n in range(n_basis)])
    phi = norms[:, None] * gegenbauer_row(n_basis - 1, nu, s)
    dphi = np.zeros_like(phi)
    if n_basis >= 2:
        dphi[1:] = (norms[1:] * (2.0 * nu))[:, None] * gegenbauer_row(n_basis - 2, nu + 1.0, s)
    psi = c**nu * phi
    dpsi = params.k * c ** (nu - 1.0) * ((1.0 - s * s) * dphi - nu * s * phi)
    return psi, dpsi


def psi_second_deriv_value(ef: Eigenfunction, x):
    """Second derivative, psi'' = k^2 cos^(nu-2)(kx) B(sin kx) with

    B = nu(nu-1) X^2 phi - nu (1-X^2) phi - (2nu+1) X (1-X^2) phi'
        + (1-X^2)^2 phi''.
    """
    p = ef.params
    nu = p.nu
    s, c = _trig(p, x)
    phi = _phi_at(ef, s)
    dphi = _phi_at(ef, s, 1)
    d2phi = _phi_at(ef, s, 2)
    w = 1.0 - s * s
    bracket = nu * (nu - 1.0) * s * s * phi - nu * w * phi - (2.0 * nu + 1.0) * s * w * dphi + w * w * d2phi
    return _shape(p.k**2 * c ** (nu - 2.0) * bracket, x)


def psi_value_legendre(params: ModelParams, n: int, x):
    """The same bound state through its associated Legendre form,

    psi_n(x) = sqrt( k (n + nu) Gamma(n + 2 nu) / n! )
               * cos^(1/2)(kx) * P^(1/2-nu)_(n+nu-1/2)(sin kx).
    """
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    nu = params.nu
    s, c = _trig(params, x)
    log_pref = 0.5 * (
        math.log(params.k) + math.log(n + nu) + log_gamma(n + 2.0 * nu) - log_gamma(n + 1.0)
    )
    val = math.exp(log_pref) * np.sqrt(c) * assoc_legendre(n + nu - 0.5, 0.5 - nu, s)
    return _shape(val, x)


def lowering_apply(ef: Eigenfunction, x):
    """Action of the lowering side of the ladder pair on psi_n,

        (1/k) cos(kx) psi_n' + (n + nu) sin(kx) psi_n,

    which equals alpha_n psi_{n-1} (identically zero for n = 0).
    """
    p = ef.params
    s, _ = _trig(p, x)
    val = (1.0 / p.k) * np.cos(p.k * np.asarray(x, dtype=float)) * psi_deriv_value(ef, x) + (
        ef.n + p.nu
    ) * s * psi_value(ef, x)
    return _shape(val, x)


def raising_apply(ef: Eigenfunction, x):
    """Action of the raising side of the ladder pair on psi_n,

        (n + nu + 1)/(n + nu) [ -(1/k) cos(kx) psi_n' + (n + nu) sin(kx) psi_n ],

    which equals alpha_{n+1} psi_{n+1}.
    """
    p = ef.params
    s, _ = _trig(p, x)
    core = -(1.0 / p.k) * np.cos(p.k * np.asarray(x, dtype=float)) * psi_deriv_value(ef, x) + (
        ef.n + p.nu
    ) * s * psi_value(ef, x)
    val = (ef.n + p.nu + 1.0) / (ef.n + p.nu) * core
    return _shape(val, x)


def overlap(ef_a: Eigenfunction, ef_b: Eigenfunction, rule: QuadratureRule) -> float:
    """Quadrature inner product <psi_a | psi_b> over the box."""
    if ef_a.params != ef_b.params:
        raise ValueError("overlap requires both states to share model parameters")
    a, b = ef_a.params.box
    if not (math.isclose(rule.interval[0], a, rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(rule.interval[1], b, rel_tol=1e-9, abs_tol=1e-12)):
        raise ValueError(f"quadrature interval {rule.interval} does not match the box ({a}, {b})")
    return float(rule.weights @ (psi_value(ef_a, rule.nodes) * psi_value(ef_b, rule.nodes)))


def gram_matrix(efs: list[Eigenfunction], rule: QuadratureRule) -> np.ndarray:
    """Matrix of pairwise overlaps; the identity when the states are the
    orthonormal tower."""
    if not efs:
        raise ValueError("gram_matrix needs at least one state")
    psi = np.array([psi_value(ef, rule.nodes) for ef in efs])
    return (psi * rule.weights) @ psi.T


def chebyshev_points(params: ModelParams, count: int, margin: float | None = None) -> np.ndarray:
    """Chebyshev-distributed interior sample points, excluding a margin
    at the walls (default width 1e-3 / k).  Odd counts include x = 0."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if margin is None:
        margin = 1e-3 / params.k
    half = 0.5 * math.pi / params.k
    if not 0.0 <= margin < half:
        raise ValueError(f"margin must lie in [0, {half}), got {margin}")
    theta = np.pi * (2.0 * np.arange(count) + 1.0) / (2.0 * count)
    points = (half - margin) * np.cos(theta)
    points[np.abs(points) < 1e-14 * half] = 0.0  # cos(pi/2) rounds to ~6e-17
    return np.sort(points)


def square_well_state(params: ModelParams, n: int, x):
    """Infinite-square-well eigenstate in the phase convention of the
    ladder construction (valid only on the nu = 1 branch):

        sigma_n sqrt(2k/pi) * { cos((n+1) k x)  n even
                              { sin((n+1) k x)  n odd

    with sigma_n = +1 for n mod 4 in {0, 1} and -1 otherwise.
    """
    if params.nu != 1.0:
        raise ValueError("square_well_state is the nu = 1 reference form")
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    _trig(params, x)
    xa = np.asarray(x, dtype=float)
    sigma = 1.0 if n % 4 in (0, 1) else -1.0
    amp = math.sqrt(2.0 * params.k / math.pi)
    arg = (n + 1.0) * params.k * xa
    val = sigma * amp * (np.cos(arg) if n % 2 == 0 else np.sin(arg))
    return _shape(val, x)
