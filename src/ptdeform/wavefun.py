"""Normalized bound-state wavefunctions of the trigonometric
Poschl-Teller well.

Each state factors as psi_n(x) = cos^nu(kx) * phi_n(sin kx) with phi_n a
degree-n polynomial, stored as its coefficients on the Gegenbauer family
C_j^(nu).  Two independent constructions are provided: the closed form
phi_n = N_n C_n^(nu), and repeated application of the raising step to
the constant ground-state factor.  A third route evaluates the same state
through its associated Legendre representation, the Ferrers function
written through its Gegenbauer connection with one log-space constant.
Derivatives follow from d/dX C_j^(nu) = 2 nu C_{j-1}^(nu+1), so pointwise
residuals of differential identities probe only floating-point rounding.
`basis_blocks` streams the lowest levels in 32-row blocks as weighted
rows u phi_n and e phi_n', for two columns u and e the caller picks,
advancing the normalized recurrences of both families in one stacked
pass; no unnormalized C_n is formed, so a quadrature layer that passes
the root of its weights reads bounded rows at any nu.  `basis_table`
evaluates psi and psi' as whole row tables from one fill of the
unnormalized C^(nu) and C^(nu+1), the reference the tests hold the
stream to.  `sample_tables` evaluates psi, the ladder actions
b psi_n = alpha_n psi_{n-1} and b+ psi_n = alpha_{n+1} psi_{n+1}, psi'' and
the Legendre form of many states at sample points from one stacked fill of
C^(nu), C^(nu+1) and C^(nu+2); `psi_form_tables` evaluates both closed
forms from one Gegenbauer row table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import ModelParams, alpha
from .specfun import QuadratureRule, gegenbauer_fill, gegenbauer_row

__all__ = [
    "Eigenfunction",
    "norm0",
    "norm_tower",
    "norm_n",
    "ladder_climb",
    "build_eigenfunction",
    "closed_form_states",
    "psi_value",
    "BLOCK_ROWS",
    "basis_blocks",
    "basis_table",
    "SampleTables",
    "sample_tables",
    "psi_second_deriv_value",
    "psi_value_legendre",
    "psi_form_tables",
    "gram_matrix",
    "chebyshev_points",
    "square_well_state",
]


@dataclass(frozen=True)
class Eigenfunction:
    """A bound state, its polynomial factor phi_n given by ``basis_coeffs``
    on the Gegenbauer family C_0^(nu) ... C_n^(nu) of the model's own index;
    the coefficients already carry the norm ``N_n``.
    """

    params: ModelParams
    basis_coeffs: tuple[float, ...]


def norm0(params: ModelParams) -> float:
    """Ground-state normalization N_0 = sqrt(k Gamma(nu+1) / (sqrt(pi) Gamma(nu+1/2)))."""
    nu = params.nu
    log_sq = (math.log(params.k) + math.lgamma(nu + 1.0) - 0.5 * math.log(math.pi)
              - math.lgamma(nu + 0.5))
    return math.exp(0.5 * log_sq)


def norm_tower(params: ModelParams, n_basis: int) -> np.ndarray:
    """N_0 ... N_{n_basis-1}: N_0 from its Gamma form, then the ratios
    N_n / N_{n-1} of `_norm_steps`, multiplied out in order from N_0.  Each
    step rounds a few ulp; the Gamma form of N_n is the tests' reference."""
    if n_basis < 1:
        raise ValueError(f"basis size must be >= 1, got {n_basis}")
    return np.cumprod(np.concatenate(([norm0(params)], _norm_steps(params.nu, n_basis))))


def _norm_steps(nu: float, n_basis: int) -> np.ndarray:
    """r_n = N_n / N_{n-1} for n = 1 .. n_basis-1, from the ratio
    N_n^2 / N_{n-1}^2 = n (n + nu) / ((n + nu - 1)(n + 2 nu - 1)) that
    adjointness of the ladder pair fixes."""
    n = np.arange(1.0, n_basis)
    return np.sqrt(n * (n + nu) / ((n + nu - 1.0) * (n + 2.0 * nu - 1.0)))


def norm_n(params: ModelParams, n: int) -> float:
    """N_n, entry n of `norm_tower`."""
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    return float(norm_tower(params, n + 1)[n])


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


def ladder_climb(params: ModelParams, n_top: int):
    """The Gegenbauer coefficients of psi_0, psi_1, ..., psi_{n_top}, each
    yielded as the climb from the ground state reaches it: the raising step
    from level j, divided by alpha_{j+1}, gives level j+1.  One climb serves
    every level on the way; `build_eigenfunction`'s ladder route reads it."""
    nu = params.nu
    basis = np.array([norm0(params)])
    yield basis
    for j in range(n_top):
        scale = (j + nu + 1.0) / ((j + nu) * alpha(params, j + 1))
        basis = scale * _ladder_step_basis(basis, j, nu)
        yield basis


def build_eigenfunction(params: ModelParams, n: int, method: str = "closed_form") -> Eigenfunction:
    """Construct psi_n, either from the closed Gegenbauer form or by
    climbing from the ground state with the raising step.

    Both routes produce the same Gegenbauer coefficients up to rounding;
    the ladder route divides out alpha_{j+1} at each step, so it is only
    as accurate as the closed-form ladder coefficients it consumes.
    """
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    if method == "closed_form":
        basis = np.zeros(n + 1)
        basis[n] = norm_n(params, n)
    elif method == "ladder":
        for basis in ladder_climb(params, n):
            pass
    else:
        raise ValueError(f"unknown construction method {method!r}")
    return Eigenfunction(params=params, basis_coeffs=tuple(basis))


def closed_form_states(params: ModelParams, count: int) -> list[Eigenfunction]:
    """psi_0 ... psi_{count-1} by the closed form, their norms read from one
    `norm_tower`: the states of `build_eigenfunction`, coefficient for
    coefficient, without a tower per state."""
    states = []
    for n, norm in enumerate(norm_tower(params, count)):
        basis = np.zeros(n + 1)
        basis[n] = norm
        states.append(Eigenfunction(params=params, basis_coeffs=tuple(basis)))
    return states


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


# Rows of the tower that `basis_blocks` builds per block.
BLOCK_ROWS = 32


def basis_blocks(params: ModelParams, n_basis: int, s: np.ndarray, root: np.ndarray,
                 edge: np.ndarray):
    """The weighted rows U_n = u phi_n and D_n = e phi_n' of the states
    psi_n = cos^nu(kx) phi_n(X), phi_n = N_n C_n^(nu), for n = 0 ..
    n_basis-1 at X = s = sin(kx), with u = ``root`` and e = ``edge`` two
    columns the caller picks, constant along the levels.  They are yielded
    in blocks of `BLOCK_ROWS` levels as ``(lo, hi, rows)``, ``rows[:, 0]``
    holding U and ``rows[:, 1]`` holding D of the levels max(lo-1, 0) ..
    min(hi, n_basis-1): the block's own levels lo .. hi-1 and one level on
    either side, the window a three-term reduction of the block reads.

    Both families follow three-term recurrences of their own, on the
    normalized rows, with r_n = N_n / N_{n-1} the steps of `norm_tower`:

        U_n = A_n X U_{n-1} - B_n U_{n-2},
            A_n = r_n 2 (n + nu - 1) / n,  B_n = r_n r_{n-1} (n + 2 nu - 2) / n,
        D_n = A'_n X D_{n-1} - B'_n D_{n-2}   (n >= 2),
            A'_n = r_n 2 (n + nu - 1) / (n - 1),  B'_n = r_n r_{n-1} (n + 2 nu - 1) / (n - 1),

    from U_0 = N_0 u, U_1 = 2 nu N_1 X u, D_0 = 0 and D_1 = 2 nu N_1 e: the
    Gegenbauer recurrences of index nu and nu+1, as phi_n' = 2 nu N_n
    C_{n-1}^(nu+1), with the norms and the columns carried in the rows.  No
    unnormalized C_n is formed, so where u is the root of a quadrature
    weight times cos^nu(kx) the rows are entries of a nearly orthogonal
    matrix and stay bounded at any nu and N.  Each level is two multiplies
    and one subtract on both families at once, A_n X formed once per block.

    Each block resumes the recurrences from the last two rows of the
    previous one, so the tower costs O(n_basis * len(s)) and the stream
    holds O(BLOCK_ROWS * len(s)).  The yielded rows are overwritten by the
    next block and must not be written by the consumer: the recurrence
    resumes from them.
    """
    if n_basis < 1:
        raise ValueError(f"basis size must be >= 1, got {n_basis}")
    nu = params.nu
    ratio = np.concatenate(([1.0], _norm_steps(nu, n_basis)))[:, None]  # r_n at row n
    # A and B of the levels n >= 2, for U in column 0 and for D in column 1
    n = np.arange(2.0, n_basis)[:, None]
    divide = n - np.array([0.0, 1.0])
    grow, keep = np.zeros((n_basis, 2)), np.zeros((n_basis, 2, 1))
    grow[2:] = ratio[2:] * (2.0 * (n + nu - 1.0)) / divide
    keep[2:, :, 0] = ratio[2:] * ratio[1:-1] * (n + 2.0 * nu - np.array([2.0, 1.0])) / divide
    count = min(BLOCK_ROWS + 2, n_basis)
    rows = np.empty((count, 2, s.size))
    grown = np.empty_like(rows)  # A_n X of each row and family
    scratch = np.empty((2, s.size))
    norm = norm0(params)
    np.multiply(root, norm, out=rows[0, 0])
    rows[0, 1] = 0.0
    if n_basis > 1:
        lead = 2.0 * nu * (norm * ratio[1, 0])  # 2 nu N_1
        np.multiply(lead * s, root, out=rows[1, 0])
        np.multiply(edge, lead, out=rows[1, 1])
    size = 0
    for lo in range(0, n_basis, BLOCK_ROWS):
        if lo:  # carry levels lo-1 and lo, the last two rows of the previous block
            rows[:2] = rows[size - 2:size]
        hi = min(lo + BLOCK_ROWS, n_basis)
        first = max(lo - 1, 0)
        size = min(hi + 1, n_basis) - first
        np.multiply(grow[first + 2:first + size, :, None], s, out=grown[2:size])
        for row, prev, prev2, a, b in zip(rows[2:size], rows[1:size], rows[:size],
                                          grown[2:size], keep[first + 2:first + size]):
            np.multiply(a, prev, out=row)
            np.multiply(b, prev2, out=scratch)
            row -= scratch
        yield lo, hi, rows[:size]


def _psi_rows(params: ModelParams, s, c, phi: np.ndarray,
              dphi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi = cos^nu(kx) phi and

        psi' = k cos^(nu-1)(kx) [ (1 - X^2) phi'(X) - nu X phi(X) ],   X = sin(kx),

    from rows of phi and phi' at s = sin(kx), c = cos(kx); psi' is built in
    the storage of ``dphi``, and ``phi`` is overwritten.  The psi rows are
    the arithmetic of `psi_value` on the states of `build_eigenfunction`, in
    the same order, so they equal it entry by entry; the sign of a zero may
    differ (at x = 0 the levels n = 3 mod 4 give -0.0 here and 0.0 there).
    """
    nu = params.nu
    psi = c**nu * phi
    dphi *= 1.0 - s * s
    phi *= nu * s
    dphi -= phi
    dphi *= params.k * c ** (nu - 1.0)
    return psi, dphi


def basis_table(params: ModelParams, n_basis: int, nodes) -> tuple[np.ndarray, np.ndarray]:
    """psi_n and psi_n' for n = 0 .. n_basis-1 at the 1-d array ``nodes``,
    one row per level, from one `gegenbauer_fill` of C^(nu) and C^(nu+1)
    over the whole table, times the norms of `norm_tower`, and then
    `_psi_rows`: the unnormalized Gegenbauer route, kept apart from the
    normalized recurrence of `basis_blocks` as the tests' whole-table
    reference for it."""
    nu = params.nu
    norms = norm_tower(params, n_basis)
    s, c = _trig(params, nodes)
    gegen = np.empty((n_basis, 2, s.size))  # C_n^(nu) and C_{n-1}^(nu+1) of row n
    gegenbauer_fill(gegen, nu, s, np.empty((2, s.size)))
    # row 0 of C^(nu+1) is C_{-1} = 0: phi_0' = 0
    phi = np.einsum("ij,i->ij", gegen[:, 0], norms)
    dphi = np.einsum("ij,i->ij", gegen[:, 1], norms * (2.0 * nu))
    return _psi_rows(params, s, c, phi, dphi)


class SampleTables(NamedTuple):
    """Rows n = 0 .. n_levels-1 of the states at a set of sample points,
    from `sample_tables`."""

    psi: np.ndarray  # psi_n, Gegenbauer form
    lower: np.ndarray  # b psi_n = alpha_n psi_{n-1}
    upper: np.ndarray  # b+ psi_n = alpha_{n+1} psi_{n+1}
    d2psi: np.ndarray  # psi_n''
    legendre: np.ndarray  # psi_n, Legendre form


def sample_tables(params: ModelParams, n_levels: int, x) -> SampleTables:
    """psi_n, its ladder actions, psi_n'' and its Legendre form for n = 0 ..
    n_levels-1 at the 1-d array ``x``, one row per level, all from one
    stacked `gegenbauer_fill` of C^(nu), C^(nu+1) and C^(nu+2).

    The ladder actions are the differential forms of b and b+ in position
    space,

        lower_n = (1/k) cos(kx) psi_n' + (n + nu) sin(kx) psi_n
                = alpha_n psi_{n-1}   (zero for n = 0),
        upper_n = (n + nu + 1)/(n + nu) [ -(1/k) cos(kx) psi_n' + (n + nu) sin(kx) psi_n ]
                = alpha_{n+1} psi_{n+1},

    which hold up to rounding.  Row n of family j is N_n times the prefactor
    (2 nu)(2 nu + 2)... of `_phi_at`, built in its order, so psi and psi''
    are the arithmetic of `psi_value` and `psi_second_deriv_value` on the
    closed-form states and equal them entry by entry, apart from the sign
    of a zero; the Legendre rows are those of `psi_form_tables`.
    """
    if n_levels < 1:
        raise ValueError(f"number of levels must be >= 1, got {n_levels}")
    nu, k = params.nu, params.k
    s, c = _trig(params, x)
    rows = np.empty((n_levels, 3, s.size))  # C_n^(nu), C_{n-1}^(nu+1), C_{n-2}^(nu+2)
    gegenbauer_fill(rows, nu, s, np.empty((3, s.size)))
    legendre = _legendre_rows(params, n_levels, s, c, rows[:, 0])
    prefactors, index = [1.0], nu
    for _ in range(2):
        prefactors.append(prefactors[-1] * (2.0 * index))
        index += 1.0
    rows *= norm_tower(params, n_levels)[:, None, None] * np.array(prefactors)[:, None]
    d2psi = _second_deriv(params, s, c, rows[:, 0], rows[:, 1], rows[:, 2])
    psi, dpsi = _psi_rows(params, s, c, rows[:, 0], rows[:, 1])
    m = (np.arange(n_levels) + nu)[:, None]
    deriv, value = (1.0 / k) * c * dpsi, m * s * psi
    return SampleTables(psi, deriv + value, (m + 1.0) / m * (value - deriv), d2psi, legendre)


def psi_second_deriv_value(ef: Eigenfunction, x):
    """Second derivative, psi'' = k^2 cos^(nu-2)(kx) B(sin kx) with

    B = nu(nu-1) X^2 phi - nu (1-X^2) phi - (2nu+1) X (1-X^2) phi'
        + (1-X^2)^2 phi''.
    """
    s, c = _trig(ef.params, x)
    return _shape(_second_deriv(ef.params, s, c, *(_phi_at(ef, s, d) for d in range(3))), x)


def _second_deriv(params: ModelParams, s, c, phi, dphi, d2phi):
    """psi'' = k^2 c^(nu-2) B from phi, phi' and phi'' at X = s."""
    nu = params.nu
    w = 1.0 - s * s
    bracket = nu * (nu - 1.0) * s * s * phi - nu * w * phi - (2.0 * nu + 1.0) * s * w * dphi + w * w * d2phi
    return params.k**2 * c ** (nu - 2.0) * bracket


def _legendre_log_const(params: ModelParams, n: int) -> float:
    """log of the constant of the Legendre form of psi_n: the norm
    sqrt(k (n + nu) Gamma(n + 2 nu) / n!) times the Gegenbauer connection
    Gamma(2 nu) n! / (2^(nu-1/2) Gamma(nu+1/2) Gamma(n+2 nu))."""
    nu = params.nu
    return (
        0.5 * (math.log(params.k) + math.log(n + nu)
               + math.lgamma(n + 1.0) - math.lgamma(n + 2.0 * nu))
        + math.lgamma(2.0 * nu)
        - math.lgamma(nu + 0.5)
        - (nu - 0.5) * math.log(2.0)
    )


def psi_value_legendre(params: ModelParams, n: int, x):
    """The same bound state through its associated Legendre form,

    psi_n(x) = sqrt( k (n + nu) Gamma(n + 2 nu) / n! )
               * cos^(1/2)(kx) * P^(1/2-nu)_(n+nu-1/2)(sin kx),

    P through its Gegenbauer connection, Gamma(2 nu) n! (1 - X^2)^(nu/2 - 1/4)
    C_n^(nu)(X) / (2^(nu-1/2) Gamma(nu+1/2) Gamma(n+2 nu)), with both
    constants in one log.
    """
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    nu = params.nu
    s, c = _trig(params, x)
    cn = gegenbauer_row(n, nu, s)[n]
    val = (math.exp(_legendre_log_const(params, n)) * np.sqrt(c)
           * (1.0 - s * s) ** (0.5 * nu - 0.25) * cn)
    return _shape(val, x)


def psi_form_tables(params: ModelParams, n_levels: int, x) -> tuple[np.ndarray, np.ndarray]:
    """psi_n for n = 0 .. n_levels-1 at the 1-d array ``x``, one row per
    level, in its Gegenbauer form and in its Legendre form, both from one
    Gegenbauer row table: O(n_levels * len(x)) in place of one recurrence
    per level and form.  The rows equal `psi_value` of the closed-form
    states and `psi_value_legendre`, value for value and in the sign of a
    zero: the Gegenbauer rows are the arithmetic of those functions, and the
    polynomial factor N_n C_n^(nu) has its -0.0 mapped to 0.0, as the sum
    over basis coefficients in `psi_value` maps it.
    """
    if n_levels < 1:
        raise ValueError(f"number of levels must be >= 1, got {n_levels}")
    s, c = _trig(params, x)
    rows = gegenbauer_row(n_levels - 1, params.nu, s)
    phi = norm_tower(params, n_levels)[:, None] * rows
    phi += 0.0  # -0.0 + 0.0 is 0.0
    return c**params.nu * phi, _legendre_rows(params, n_levels, s, c, rows)


def _legendre_rows(params: ModelParams, n_levels: int, s, c, rows: np.ndarray) -> np.ndarray:
    """The Legendre form of psi_0 .. psi_{n_levels-1} at s = sin(kx),
    c = cos(kx), from the rows C_n^(nu)(s): the arithmetic of
    `psi_value_legendre`."""
    consts = np.array([math.exp(_legendre_log_const(params, n)) for n in range(n_levels)])
    legendre = consts[:, None] * np.sqrt(c)
    legendre *= (1.0 - s * s) ** (0.5 * params.nu - 0.25)
    legendre *= rows
    return legendre


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
