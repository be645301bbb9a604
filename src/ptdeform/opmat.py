"""Operator matrices in the truncated bound-state basis, plus the
finite-difference grid oracle.

Matrix elements of X = sin(kx) and the deformed momentum P are computed
by Gauss-Legendre quadrature against the exact eigenfunctions; H and all
functions of H are diagonal.  Every operator of the algebra is banded:
X, P and b couple |n> only to |n +- 1>.  `OperatorMatrix` therefore stores
an operator as its diagonals out to its ``bandwidth``, so a product costs
O(N w1 w2) and a sum or a norm O(N w).  `quadrature_XP` returns the full
N x N quadrature arrays of X and P from one basis table; `operator_set`,
the one builder of the X/P/H/b/b+ set, keeps their tridiagonal band and
the dense arrays beside it.  The structure checks of
`structure_residuals` read the dense arrays, so whatever quadrature puts
off the band is measured before it is dropped.

Because the basis is truncated at ``basis_size``, entries near the edge
of a product matrix are contaminated by the missing tail of the sum.
`OperatorMatrix` tracks a conservative ``trust_margin`` (rows/columns to
exclude) through sums, products and adjoints, using the ``bandwidth`` of
each factor; residual norms are always taken on the trusted block only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (
    ModelParams,
    alpha,
    energy,
    f_of,
    h_of,
)
from .specfun import QuadratureRule
from .wavefun import basis_table, ladder_table

__all__ = [
    "QuadratureOrderError",
    "OperatorMatrix",
    "GridOperator",
    "identity",
    "diag_operator",
    "energy_diag",
    "TRUST_MARGIN",
    "MAX_QUADRATURE_ORDER",
    "quadrature_floor",
    "quadrature_XP",
    "build_X",
    "build_P",
    "build_H",
    "assemble_b",
    "OperatorSet",
    "operator_set",
    "structure_residuals",
    "bplus_second_form",
    "commutator",
    "check_identity_12",
    "casimir_matrices",
    "extended_algebra_residuals",
    "build_su11",
    "su11_residuals",
    "su11_ordering_residual",
    "wavefunction_residuals",
    "build_grid_hamiltonian",
    "grid_spectrum",
]


# Trailing rows/columns of the tower that every operator residual leaves
# out at least: a residual drops the larger of this and the margin its
# product tracks; reports echo it as "trust_margin".
TRUST_MARGIN = 4

# The largest quadrature order a run may ask for: building the Legendre
# rule costs O(Q^2) (0.4 s at Q = 4000, 1.2 s at Q = 8000 on one Xeon core),
# and no configuration of the battery needs more than about 1100.
MAX_QUADRATURE_ORDER = 4096


class QuadratureOrderError(ValueError):
    """The quadrature rule is too short for the requested basis size."""


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Complex operator on the truncated tower |0> ... |N-1>, stored as its
    diagonals.

    ``diagonals[p]`` holds the entries <i|A|i+p> for every offset
    |p| <= ``bandwidth``, indexed by min(i, i+p) as in `np.diagonal`;
    entries farther from the diagonal are zero.  Offsets missing from the
    mapping inside the band are filled with zeros.  ``trust_margin``
    counts trailing rows/columns whose entries may be corrupted by basis
    truncation; the bandwidth also grows the margin of products.
    """

    diagonals: dict[int, np.ndarray]
    basis_size: int
    trust_margin: int = 0

    def __post_init__(self) -> None:
        n = self.basis_size
        width = max(map(abs, self.diagonals), default=0)
        if width >= n:
            raise ValueError(f"offset {width} does not fit a {n} x {n} matrix")
        diagonals = {}
        for p in range(-width, width + 1):
            v = self.diagonals.get(p)
            v = np.zeros(n - abs(p), dtype=complex) if v is None else np.asarray(v, dtype=complex)
            if v.shape != (n - abs(p),):
                raise ValueError(f"diagonal {p} needs {n - abs(p)} entries, got shape {v.shape}")
            diagonals[p] = v
        object.__setattr__(self, "diagonals", diagonals)

    @classmethod
    def from_dense(cls, data, basis_size: int, trust_margin: int = 0,
                   bandwidth: int | None = None) -> "OperatorMatrix":
        """The diagonals of an N x N matrix out to ``bandwidth`` (default:
        all of them); entries beyond it are dropped."""
        d = np.asarray(data, dtype=complex)
        n = basis_size
        if d.shape != (n, n):
            raise ValueError(f"expected a {n} x {n} matrix, got shape {d.shape}")
        width = n - 1 if bandwidth is None else min(bandwidth, n - 1)
        return cls({p: d.diagonal(p).copy() for p in range(-width, width + 1)}, n, trust_margin)

    @property
    def bandwidth(self) -> int:
        """How far the operator couples |n> to |n +- bandwidth>."""
        return len(self.diagonals) // 2

    def _with(self, diagonals: dict[int, np.ndarray]) -> "OperatorMatrix":
        return OperatorMatrix(diagonals, self.basis_size, self.trust_margin)

    def adjoint(self) -> "OperatorMatrix":
        return self._with({p: self.diagonals[-p].conj() for p in self.diagonals})

    def _keep(self, margin: int | None) -> int:
        eff = self.trust_margin if margin is None else max(self.trust_margin, margin)
        keep = self.basis_size - eff
        if keep < 1:
            raise ValueError(f"margin {eff} leaves no trusted block at N = {self.basis_size}")
        return keep

    def _trusted_diagonals(self, margin: int | None) -> dict[int, np.ndarray]:
        """The entries inside the trusted block of every diagonal that reaches it."""
        keep = self._keep(margin)
        return {p: v[:keep - abs(p)] for p, v in self.diagonals.items() if abs(p) < keep}

    def diagonal(self, offset: int = 0, margin: int | None = None) -> np.ndarray:
        """Entries <i|A|i+offset> inside the trusted block."""
        return self.diagonals[offset][:self._keep(margin) - abs(offset)]

    def trusted(self, margin: int | None = None) -> np.ndarray:
        """The block guaranteed free of truncation effects, as a dense array."""
        keep = self._keep(margin)
        block = np.zeros((keep, keep), dtype=complex)
        flat = block.reshape(-1)
        for p, v in self._trusted_diagonals(margin).items():
            # diagonal p starts at (max(0, -p), max(0, p)) and steps keep + 1 in the flat block
            flat[max(0, p) + max(0, -p) * keep::keep + 1][:v.size] = v
        return block

    def max_abs(self, margin: int | None = None) -> float:
        return max(float(np.max(np.abs(v))) for v in self._trusted_diagonals(margin).values())

    def hermiticity_residual(self, margin: int | None = None) -> float:
        # diagonal -p of A - A^H is minus the conjugate of diagonal p
        diags = self._trusted_diagonals(margin)
        return max(float(np.max(np.abs(v - diags[-p].conj()))) for p, v in diags.items() if p >= 0)

    def _require_same_basis(self, other: "OperatorMatrix") -> None:
        if self.basis_size != other.basis_size:
            raise ValueError("operands act on different basis sizes")

    def _elementwise(self, other: "OperatorMatrix", ufunc) -> "OperatorMatrix":
        self._require_same_basis(other)
        # a diagonal outside one operand's band is zero there
        width = max(self.bandwidth, other.bandwidth)
        return OperatorMatrix(
            {p: ufunc(self.diagonals.get(p, 0.0), other.diagonals.get(p, 0.0))
             for p in range(-width, width + 1)},
            self.basis_size,
            max(self.trust_margin, other.trust_margin),
        )

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._elementwise(other, np.add)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._elementwise(other, np.subtract)

    def __neg__(self) -> "OperatorMatrix":
        return self._with({p: -v for p, v in self.diagonals.items()})

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return self._with({p: v * scalar for p, v in self.diagonals.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_basis(other)
        n = self.basis_size
        width = min(self.bandwidth + other.bandwidth, n - 1)
        out = {s: np.zeros(n - abs(s), dtype=complex) for s in range(-width, width + 1)}
        # <i|AB|i+p+q> collects <i|A|i+p><i+p|B|i+p+q> over the rows i for
        # which all three entries exist; each diagonal is indexed from its
        # first row, max(0, -offset).
        for p, a in self.diagonals.items():
            for q, b in other.diagonals.items():
                s = p + q
                lo, hi = max(0, -p, -s), min(n, n - p, n - s)
                if lo < hi:
                    ra, rb, rs = max(0, -p), max(0, -q) - p, max(0, -s)
                    out[s][lo - rs:hi - rs] += a[lo - ra:hi - ra] * b[lo - rb:hi - rb]
        # Truncation corrupts the product only where the summed-over index
        # can reach the edge through either factor's band, so the margin
        # grows by the narrower bandwidth.
        margin = max(self.trust_margin, other.trust_margin) + min(self.bandwidth, other.bandwidth)
        return OperatorMatrix(out, n, margin)


def identity(n_basis: int) -> OperatorMatrix:
    return OperatorMatrix({0: np.ones(n_basis)}, n_basis)


def diag_operator(values, n_basis: int) -> OperatorMatrix:
    return OperatorMatrix({0: values}, n_basis)


def energy_diag(params: ModelParams, n_basis: int, fn) -> OperatorMatrix:
    """diag(fn(E_0), ..., fn(E_{N-1})); spectral calculus for functions of H."""
    return diag_operator([fn(params, energy(params, n)) for n in range(n_basis)], n_basis)


def _row_blocks(table: np.ndarray, size: int = 32):
    """Slices of ``size`` rows that cover ``table``."""
    return (slice(i, i + size) for i in range(0, table.shape[0], size))


def quadrature_floor(params: ModelParams, n_basis: int) -> int | float:
    """The lowest quadrature order the X/P matrices of the lowest ``n_basis``
    states accept, ceil(2N + 2 nu + 10); infinite where 2 nu overflows."""
    floor = 2 * n_basis + 2 * params.nu + 10
    return math.ceil(floor) if math.isfinite(floor) else floor


def _check_rule(params: ModelParams, n_basis: int, rule: QuadratureRule) -> None:
    if n_basis < 2:
        raise ValueError(f"basis size must be >= 2, got {n_basis}")
    needed = quadrature_floor(params, n_basis)
    if rule.order < needed:
        raise QuadratureOrderError(
            f"quadrature order {rule.order} is below the required {needed} for N = {n_basis}"
        )
    a, b = params.box
    if not (math.isclose(rule.interval[0], a, rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(rule.interval[1], b, rel_tol=1e-9, abs_tol=1e-12)):
        raise ValueError(f"quadrature interval {rule.interval} does not match the box ({a}, {b})")


def quadrature_XP(params: ModelParams, n_basis: int,
                  rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """The N x N quadrature matrices of X = sin(kx) and of the deformed
    momentum P = k [cos(kx) p + (i hbar k / 2) sin(kx)], every entry kept,
    from one basis table at the nodes of ``rule``.

    X is real and symmetric, tridiagonal with zero diagonal up to
    quadrature error.  P applies p = -i hbar d/dx literally to the exact
    closed-form derivative of each state, so quadrature is the only error
    source.  Raises `QuadratureOrderError` if P fails Hermiticity at 1e-8
    relative to its scale hbar k^2, which signals an inadequate rule.

    The complex table of P psi is filled a block of rows at a time, psi'
    is dropped once it is used, and psi is weighted in place after X is
    formed, so at most two complex and one real table are alive at once.
    """
    _check_rule(params, n_basis, rule)
    psi, dpsi = basis_table(params, n_basis, rule.nodes)
    s = np.sin(params.k * rule.nodes)
    c = np.cos(params.k * rule.nodes)
    hbar, k = params.hbar, params.k
    # pvals = -i hbar k c dpsi + (i/2) hbar k^2 s psi, row block by row block
    deriv_factor = -1j * hbar * k * c
    value_factor = 0.5j * hbar * k**2 * s
    pvals = np.empty(psi.shape, dtype=complex)
    for rows in _row_blocks(psi):
        np.multiply(deriv_factor, dpsi[rows], out=pvals[rows])
        pvals[rows] += value_factor * psi[rows]
    del dpsi
    x = (psi * (rule.weights * s)) @ psi.T
    psi *= rule.weights
    weighted = psi.astype(complex)
    del psi
    p = weighted @ pvals.T
    del weighted, pvals
    resid = float(np.max(np.abs(p - p.conj().T)))
    scale = hbar * k**2
    if resid > 1e-8 * scale:
        raise QuadratureOrderError(
            f"momentum matrix fails Hermiticity at {resid:.3e} ({resid / scale:.3e} of "
            f"hbar k^2); increase the quadrature order"
        )
    return x, p


def build_X(params: ModelParams, n_basis: int, rule: QuadratureRule) -> OperatorMatrix:
    """The tridiagonal band of the quadrature X of `quadrature_XP`."""
    return OperatorMatrix.from_dense(quadrature_XP(params, n_basis, rule)[0], n_basis, bandwidth=1)


def build_P(params: ModelParams, n_basis: int, rule: QuadratureRule) -> OperatorMatrix:
    """The tridiagonal band of the quadrature P of `quadrature_XP`."""
    return OperatorMatrix.from_dense(quadrature_XP(params, n_basis, rule)[1], n_basis, bandwidth=1)


def build_H(params: ModelParams, n_basis: int) -> OperatorMatrix:
    """Hamiltonian, diagonal on its own bound tower: H|n> = eps (n+nu)^2 |n>."""
    return diag_operator([energy(params, n) for n in range(n_basis)], n_basis)


def _sqrt_eh(params: ModelParams, n_basis: int) -> np.ndarray:
    return np.array([math.sqrt(params.epsilon * energy(params, n)) for n in range(n_basis)])


def assemble_b(params: ModelParams, X: OperatorMatrix, P: OperatorMatrix,
               H: OperatorMatrix) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Lowering operator b = (1/2 eps) [ X (eps + 2 sqrt(eps H)) + (i hbar / m) P ]
    and its adjoint."""
    eps = params.epsilon
    n_basis = X.basis_size
    d1 = diag_operator(eps + 2.0 * _sqrt_eh(params, n_basis), n_basis)
    b = (X @ d1 + (1j * params.hbar / params.mass) * P) * (0.5 / eps)
    return b, b.adjoint()


class OperatorSet(NamedTuple):
    """X, P, H and the ladder pair on one truncated tower, with the dense
    quadrature X and P whose tridiagonal bands they hold."""

    X: OperatorMatrix
    P: OperatorMatrix
    H: OperatorMatrix
    b: OperatorMatrix
    bplus: OperatorMatrix
    x_dense: np.ndarray
    p_dense: np.ndarray


def operator_set(params: ModelParams, n_basis: int, rule: QuadratureRule) -> OperatorSet:
    """X and P by quadrature with ``rule``, cut to their tridiagonal band, H
    from the spectrum, and b, b+ from those three; the dense X and P are
    kept for the checks of what lies off the band."""
    x_dense, p_dense = quadrature_XP(params, n_basis, rule)
    x_op = OperatorMatrix.from_dense(x_dense, n_basis, bandwidth=1)
    p_op = OperatorMatrix.from_dense(p_dense, n_basis, bandwidth=1)
    h_op = build_H(params, n_basis)
    b_op, bplus_op = assemble_b(params, x_op, p_op, h_op)
    return OperatorSet(x_op, p_op, h_op, b_op, bplus_op, x_dense, p_dense)


def structure_residuals(params: ModelParams, x_dense: np.ndarray, p_dense: np.ndarray,
                        margin: int) -> dict[str, float]:
    """Hermiticity and band structure of the dense quadrature X and P, and of
    the full-width b they make, on the trusted block of ``margin``.

    Every entry counts, so these see whatever quadrature leaves off the
    band that the algebra keeps.  b is formed elementwise, in the order of
    `assemble_b`: (X d1 + (i hbar / m) P) (1 / 2 eps), d1 = eps + 2 sqrt(eps H).
    """
    keep = x_dense.shape[0] - margin
    if keep < 1:
        raise ValueError(f"margin {margin} leaves no trusted block at N = {x_dense.shape[0]}")
    xt = x_dense[:keep, :keep]
    pt = p_dense[:keep, :keep]
    out = {"x_hermitian": float(np.max(np.abs(xt - xt.T)))}
    idx = np.arange(keep)
    off_band = np.abs(xt)
    diagonal = float(np.max(off_band[idx, idx]))
    off_band[idx, idx] = 0.0
    off_band[idx[:-1], idx[1:]] = 0.0
    off_band[idx[1:], idx[:-1]] = 0.0
    out["x_structure"] = max(diagonal, float(np.max(off_band)))
    del off_band
    out["p_hermitian"] = float(np.max(np.abs(pt - pt.conj().T)))

    eps = params.epsilon
    d1 = eps + 2.0 * _sqrt_eh(params, keep)
    b = (1j * params.hbar / params.mass) * pt
    b += xt * d1
    b *= 0.5 / eps
    out["b_annihilates_ground"] = float(np.max(np.abs(b[:, 0])))
    out["b_ladder_diagonal_alpha"] = float(max(abs(b[n - 1, n] - alpha(params, n))
                                               for n in range(1, min(25, keep - 1) + 1)))
    off_ladder = np.abs(b)
    del b
    off_ladder[idx[:-1], idx[1:]] = 0.0
    out["b_off_ladder"] = float(np.max(off_ladder))
    return out


def bplus_second_form(params: ModelParams, X: OperatorMatrix, P: OperatorMatrix,
                      H: OperatorMatrix) -> OperatorMatrix:
    """The raising operator in its explicitly ordered form,

        b+ = -(1/2 eps) [ X (eps - 2 sqrt(eps H)) + (i hbar / m) P ]
             (eps + sqrt(eps H)) / sqrt(eps H),

    which must agree with adjoint(b) on the trusted block.
    """
    eps = params.epsilon
    n_basis = X.basis_size
    se = _sqrt_eh(params, n_basis)
    d2 = diag_operator(eps - 2.0 * se, n_basis)
    right = diag_operator((eps + se) / se, n_basis)
    core = (X @ d2 + (1j * params.hbar / params.mass) * P) * (-0.5 / eps)
    return core @ right


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    return a @ b - b @ a


def check_identity_12(params: ModelParams, X: OperatorMatrix, P: OperatorMatrix,
                      H: OperatorMatrix, margin: int = TRUST_MARGIN) -> float:
    """Residual of the operator form of the well strength,

        nu(nu-1) 1 = (1/4 eps^2) [ 2(eps^2 + 2 eps H) + X^2 (eps^2 - 4 eps H)
                                   + 4 (i hbar/m) eps X P - (hbar^2/m^2) P^2 ].
    """
    eps = params.epsilon
    hbar, mass = params.hbar, params.mass
    n_basis = X.basis_size
    one = identity(n_basis)
    expr = (
        2.0 * eps**2 * one
        + 4.0 * eps * H
        + (X @ X) @ (eps**2 * one - 4.0 * eps * H)
        + (4j * hbar * eps / mass) * (X @ P)
        - (hbar**2 / mass**2) * (P @ P)
    ) * (0.25 / eps**2)
    return (params.strength() * one - expr).max_abs(margin)


def casimir_matrices(params: ModelParams, b: OperatorMatrix,
                     bplus: OperatorMatrix) -> tuple[OperatorMatrix, OperatorMatrix]:
    """The Casimir invariant in both orderings,

        C = b b+ + h(H)   and   C = b+ b + h(H) - f(H),

    each equal to -nu(nu-1) times the identity on the bound tower.
    """
    n_basis = b.basis_size
    hd = energy_diag(params, n_basis, h_of)
    fd = energy_diag(params, n_basis, f_of)
    c1 = b @ bplus + hd
    c2 = bplus @ b + hd - fd
    return c1, c2


def extended_algebra_residuals(params: ModelParams, b: OperatorMatrix, bplus: OperatorMatrix,
                               H: OperatorMatrix, margin: int = TRUST_MARGIN) -> dict[str, float]:
    """Residuals of the extended-algebra relations: C commutes with H, b
    and b+, and the bilinear closure

        sqrt(H/eps) b b+ - (sqrt(H/eps) - 1) b+ b
            = C + sqrt(H/eps) (1 + 3 sqrt(H/eps)).
    """
    n_basis = b.basis_size
    c1, _ = casimir_matrices(params, b, bplus)
    ratios = np.array([n + params.nu for n in range(n_basis)])
    s = diag_operator(ratios, n_basis)
    rhs_diag = diag_operator(ratios * (1.0 + 3.0 * ratios), n_basis)
    bilinear = s @ (b @ bplus) - (s - identity(n_basis)) @ (bplus @ b) - c1 - rhs_diag
    return {
        "extended_commutes_h": commutator(c1, H).max_abs(margin),
        "extended_commutes_b": commutator(c1, b).max_abs(margin),
        "extended_commutes_bplus": commutator(c1, bplus).max_abs(margin),
        "extended_bilinear": bilinear.max_abs(margin),
    }


def build_su11(params: ModelParams, b: OperatorMatrix, bplus: OperatorMatrix,
               H: OperatorMatrix) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Undeformed su(1,1) generators on the bound tower:

        J0 = sqrt(H/eps),  J+ = b+ sqrt(J0 / (J0 + 1)),  J- = adjoint(J+).
    """
    n_basis = b.basis_size
    ratios = np.array([n + params.nu for n in range(n_basis)])
    j0 = diag_operator(ratios, n_basis)
    d = diag_operator(np.sqrt(ratios / (ratios + 1.0)), n_basis)
    jp = bplus @ d
    jm = jp.adjoint()
    return j0, jp, jm


def su11_residuals(params: ModelParams, j0: OperatorMatrix, jp: OperatorMatrix,
                   jm: OperatorMatrix, margin: int = TRUST_MARGIN) -> dict[str, float]:
    """Residuals of [J0, J+-] = +-J+-, [J+, J-] = -2 J0, and the su(1,1)
    Casimir J- J+ - J0 (J0 + 1) = -nu(nu-1)."""
    n_basis = j0.basis_size
    one = identity(n_basis)
    return {
        "su11_j0_jplus": (commutator(j0, jp) - jp).max_abs(margin),
        "su11_j0_jminus": (commutator(j0, jm) + jm).max_abs(margin),
        "su11_jplus_jminus": (commutator(jp, jm) + 2.0 * j0).max_abs(margin),
        "su11_casimir": (jm @ jp - j0 @ j0 - j0 + params.strength() * one).max_abs(margin),
    }


def su11_ordering_residual(params: ModelParams, bplus: OperatorMatrix,
                           margin: int = TRUST_MARGIN) -> float:
    """J+ written with the square-root factor on either side of b+ must
    give the same matrix: b+ sqrt(J0/(J0+1)) = sqrt((J0-1)/J0) b+."""
    n_basis = bplus.basis_size
    ratios = np.array([n + params.nu for n in range(n_basis)])
    right = diag_operator(np.sqrt(ratios / (ratios + 1.0)), n_basis)
    left = diag_operator(np.sqrt((ratios - 1.0).clip(min=0.0) / ratios), n_basis)
    return (bplus @ right - left @ bplus).max_abs(margin)


def wavefunction_residuals(params: ModelParams, n_states: int,
                           rule: QuadratureRule) -> dict[str, float]:
    """Quadrature checks of the lowest ``n_states`` levels, read from one
    `ladder_table` at the nodes of ``rule``: the Gram defect
    max |<psi_m|psi_n> - delta_mn|, and the adjointness defect
    max |<psi_m|b psi_n> - <b+ psi_m|psi_n>| of the differential ladder
    forms.  Both vanish up to rounding and quadrature error."""
    psi, lower, upper = ladder_table(params, n_states, rule.nodes)
    weighted = psi * rule.weights
    return {
        "gram_identity": float(np.max(np.abs(weighted @ psi.T - np.eye(n_states)))),
        "adjointness_quadrature": float(np.max(np.abs(
            weighted @ lower.T - (upper * rule.weights) @ psi.T))),
    }


@dataclass(frozen=True)
class GridOperator:
    """Symmetric tridiagonal finite-difference Hamiltonian on a uniform
    Dirichlet grid of interior points."""

    x: np.ndarray
    diag: np.ndarray
    offdiag: np.ndarray


def build_grid_hamiltonian(params: ModelParams, m_points: int) -> GridOperator:
    """Three-point Laplacian plus potential on m_points interior nodes."""
    if m_points < 200:
        raise ValueError(f"grid needs at least 200 interior points, got {m_points}")
    a, b = params.box
    h = (b - a) / (m_points + 1)
    x = a + h * np.arange(1, m_points + 1)
    potential = params.v0 / np.cos(params.k * x) ** 2
    kinetic = params.hbar**2 / (params.mass * h**2)
    diag = kinetic + potential
    offdiag = np.full(m_points - 1, -0.5 * kinetic)
    return GridOperator(x=x, diag=diag, offdiag=offdiag)


def grid_spectrum(params: ModelParams, m_points: int, n_levels: int) -> np.ndarray:
    """Lowest n_levels eigenvalues of the grid Hamiltonian, increasing."""
    # imported here: scipy.linalg adds about 0.3 s and 27 MB to start-up,
    # and only the grid oracle needs it
    from scipy.linalg import eigh_tridiagonal

    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    if n_levels > m_points:
        raise ValueError("cannot ask for more levels than grid points")
    grid = build_grid_hamiltonian(params, m_points)
    # in units of eps the entries depend on nu and the grid size only, not
    # on hbar, m and k, so LAPACK's bisection never sees their squares overflow
    eps = params.epsilon
    vals = eigh_tridiagonal(
        grid.diag / eps, grid.offdiag / eps, eigvals_only=True, select="i",
        select_range=(0, n_levels - 1),
    )
    return np.asarray(vals) * eps
