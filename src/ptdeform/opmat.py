"""Operator matrices in the truncated bound-state basis, plus the
finite-difference grid oracle.

Matrix elements of X = sin(kx) and the deformed momentum P are computed
by Gauss-Legendre quadrature against the exact eigenfunctions; H and all
functions of H are diagonal.  Because the basis is truncated at
``basis_size``, entries near the edge of a product matrix are
contaminated by the missing tail of the sum.  `OperatorMatrix` tracks a
conservative ``trust_margin`` (rows/columns to exclude) through sums,
products and adjoints, using the coupling ``bandwidth`` of each factor;
residual norms are always taken on the trusted block only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
from .wavefun import (
    Eigenfunction,
    basis_table,
    lowering_apply,
    psi_value,
    raising_apply,
)

__all__ = [
    "QuadratureOrderError",
    "OperatorMatrix",
    "GridOperator",
    "identity",
    "diag_operator",
    "energy_diag",
    "build_X",
    "build_P",
    "build_H",
    "assemble_b",
    "OperatorSet",
    "operator_set",
    "bplus_second_form",
    "commutator",
    "check_identity_12",
    "casimir_matrices",
    "extended_algebra_residuals",
    "check_extended_algebra",
    "build_su11",
    "su11_residuals",
    "su11_ordering_residual",
    "adjointness_residual",
    "build_grid_hamiltonian",
    "grid_spectrum",
]


class QuadratureOrderError(ValueError):
    """The quadrature rule is too short for the requested basis size."""


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex operator on the truncated tower |0> ... |N-1>.

    ``trust_margin`` counts trailing rows/columns whose entries may be
    corrupted by basis truncation; ``bandwidth`` is how far the operator
    couples |n> to |n +- bandwidth|, used to grow the margin of products.
    A bandwidth left unset is the full width N - 1.
    """

    data: np.ndarray
    basis_size: int
    trust_margin: int = 0
    bandwidth: int | None = None

    def __post_init__(self) -> None:
        d = np.asarray(self.data, dtype=complex)
        n = self.basis_size
        if d.shape != (n, n):
            raise ValueError(f"expected a {n} x {n} matrix, got shape {d.shape}")
        object.__setattr__(self, "data", d)
        width = n - 1 if self.bandwidth is None else min(self.bandwidth, n - 1)
        object.__setattr__(self, "bandwidth", width)

    def _is_diagonal(self) -> bool:
        """Declared diagonal and exactly zero off the diagonal."""
        return (self.bandwidth == 0
                and np.count_nonzero(self.data) == np.count_nonzero(self.data.diagonal()))

    def adjoint(self) -> "OperatorMatrix":
        return replace(self, data=self.data.conj().T)

    def trusted(self, margin: int | None = None) -> np.ndarray:
        """The block guaranteed free of truncation effects."""
        eff = self.trust_margin if margin is None else max(self.trust_margin, margin)
        keep = self.basis_size - eff
        if keep < 1:
            raise ValueError(f"margin {eff} leaves no trusted block at N = {self.basis_size}")
        return self.data[:keep, :keep]

    def max_abs(self, margin: int | None = None) -> float:
        return float(np.max(np.abs(self.trusted(margin))))

    def frobenius(self, margin: int | None = None) -> float:
        return float(np.linalg.norm(self.trusted(margin)))

    def hermiticity_residual(self, margin: int | None = None) -> float:
        block = self.trusted(margin)
        return float(np.max(np.abs(block - block.conj().T)))

    def _require_same_basis(self, other: "OperatorMatrix") -> None:
        if self.basis_size != other.basis_size:
            raise ValueError("operands act on different basis sizes")

    def _elementwise(self, other: "OperatorMatrix", ufunc) -> "OperatorMatrix":
        self._require_same_basis(other)
        return OperatorMatrix(
            data=ufunc(self.data, other.data),
            basis_size=self.basis_size,
            trust_margin=max(self.trust_margin, other.trust_margin),
            bandwidth=max(self.bandwidth, other.bandwidth),
        )

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._elementwise(other, np.add)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._elementwise(other, np.subtract)

    def __neg__(self) -> "OperatorMatrix":
        return replace(self, data=-self.data)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return replace(self, data=self.data * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_basis(other)
        # A diagonal factor scales rows or columns in O(N^2).  Each entry of
        # the dense product is then one nonzero term plus exact zeros, so for
        # real diagonals and finite data the result is the same to the bit.
        if self._is_diagonal():
            data = self.data.diagonal()[:, None] * other.data
        elif other._is_diagonal():
            data = self.data * other.data.diagonal()
        else:
            data = self.data @ other.data
        # Truncation corrupts the product only where the summed-over index
        # can reach the edge through either factor's band, so the margin
        # grows by the narrower bandwidth.
        margin = max(self.trust_margin, other.trust_margin) + min(self.bandwidth, other.bandwidth)
        return OperatorMatrix(
            data=data,
            basis_size=self.basis_size,
            trust_margin=margin,
            bandwidth=self.bandwidth + other.bandwidth,
        )


def identity(n_basis: int) -> OperatorMatrix:
    return OperatorMatrix(np.eye(n_basis, dtype=complex), n_basis, bandwidth=0)


def diag_operator(values, n_basis: int) -> OperatorMatrix:
    v = np.asarray(values, dtype=complex)
    if v.shape != (n_basis,):
        raise ValueError(f"need {n_basis} diagonal values, got shape {v.shape}")
    return OperatorMatrix(np.diag(v), n_basis, trust_margin=0, bandwidth=0)


def energy_diag(params: ModelParams, n_basis: int, fn) -> OperatorMatrix:
    """diag(fn(E_0), ..., fn(E_{N-1})); spectral calculus for functions of H."""
    return diag_operator([fn(params, energy(params, n)) for n in range(n_basis)], n_basis)


def _check_rule(params: ModelParams, n_basis: int, rule: QuadratureRule) -> None:
    if n_basis < 2:
        raise ValueError(f"basis size must be >= 2, got {n_basis}")
    needed = math.ceil(2 * n_basis + 2 * params.nu + 10)
    if rule.order < needed:
        raise QuadratureOrderError(
            f"quadrature order {rule.order} is below the required {needed} for N = {n_basis}"
        )
    a, b = params.box
    if not (math.isclose(rule.interval[0], a, rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(rule.interval[1], b, rel_tol=1e-9, abs_tol=1e-12)):
        raise ValueError(f"quadrature interval {rule.interval} does not match the box ({a}, {b})")


def build_X(params: ModelParams, n_basis: int, rule: QuadratureRule) -> OperatorMatrix:
    """Matrix of X = sin(kx); real, symmetric, tridiagonal with zero diagonal."""
    _check_rule(params, n_basis, rule)
    psi, _ = basis_table(params, n_basis, rule.nodes)
    s = np.sin(params.k * rule.nodes)
    data = (psi * (rule.weights * s)) @ psi.T
    return OperatorMatrix(data.astype(complex), n_basis, trust_margin=0, bandwidth=1)


def build_P(params: ModelParams, n_basis: int, rule: QuadratureRule) -> OperatorMatrix:
    """Matrix of the deformed momentum P = k [cos(kx) p + (i hbar k / 2) sin(kx)].

    Applied literally with p = -i hbar d/dx and the exact closed-form
    derivative of each state, so quadrature is the only error source.
    Raises `QuadratureOrderError` if the resulting matrix fails
    Hermiticity at 1e-8, which signals an inadequate rule.
    """
    _check_rule(params, n_basis, rule)
    psi, dpsi = basis_table(params, n_basis, rule.nodes)
    s = np.sin(params.k * rule.nodes)
    c = np.cos(params.k * rule.nodes)
    hbar, k = params.hbar, params.k
    pvals = -1j * hbar * k * c * dpsi + 0.5j * hbar * k**2 * s * psi
    data = (psi * rule.weights) @ pvals.T
    op = OperatorMatrix(data, n_basis, trust_margin=0, bandwidth=1)
    resid = op.hermiticity_residual()
    if resid > 1e-8:
        raise QuadratureOrderError(
            f"momentum matrix fails Hermiticity at {resid:.3e}; increase the quadrature order"
        )
    return op


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
    """X, P, H and the ladder pair on one truncated tower."""

    X: OperatorMatrix
    P: OperatorMatrix
    H: OperatorMatrix
    b: OperatorMatrix
    bplus: OperatorMatrix


def operator_set(params: ModelParams, n_basis: int, rule: QuadratureRule) -> OperatorSet:
    """Build X and P by quadrature with ``rule``, H from the spectrum, and
    b, b+ from those three."""
    x_op = build_X(params, n_basis, rule)
    p_op = build_P(params, n_basis, rule)
    h_op = build_H(params, n_basis)
    b_op, bplus_op = assemble_b(params, x_op, p_op, h_op)
    return OperatorSet(x_op, p_op, h_op, b_op, bplus_op)


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
                      H: OperatorMatrix, margin: int = 4) -> float:
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
                               H: OperatorMatrix, margin: int = 4) -> dict[str, float]:
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


def check_extended_algebra(params: ModelParams, b: OperatorMatrix, bplus: OperatorMatrix,
                           H: OperatorMatrix, margin: int = 4) -> float:
    return max(extended_algebra_residuals(params, b, bplus, H, margin).values())


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
                   jm: OperatorMatrix, margin: int = 4) -> dict[str, float]:
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


def su11_ordering_residual(params: ModelParams, bplus: OperatorMatrix, margin: int = 4) -> float:
    """J+ written with the square-root factor on either side of b+ must
    give the same matrix: b+ sqrt(J0/(J0+1)) = sqrt((J0-1)/J0) b+."""
    n_basis = bplus.basis_size
    ratios = np.array([n + params.nu for n in range(n_basis)])
    right = diag_operator(np.sqrt(ratios / (ratios + 1.0)), n_basis)
    left = diag_operator(np.sqrt((ratios - 1.0).clip(min=0.0) / ratios), n_basis)
    return (bplus @ right - left @ bplus).max_abs(margin)


def adjointness_residual(params: ModelParams, efs: list[Eigenfunction],
                         rule: QuadratureRule) -> float:
    """max over (m, n) of |<psi_m | b psi_n> - <b+ psi_m | psi_n>| with both
    sides computed by quadrature from the differential ladder forms."""
    if not efs:
        raise ValueError("adjointness_residual needs at least one state")
    psi = np.array([psi_value(ef, rule.nodes) for ef in efs])
    lower = np.array([lowering_apply(ef, rule.nodes) for ef in efs])
    upper = np.array([raising_apply(ef, rule.nodes) for ef in efs])
    lhs = (psi * rule.weights) @ lower.T
    rhs = (upper * rule.weights) @ psi.T
    return float(np.max(np.abs(lhs - rhs)))


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
    vals = eigh_tridiagonal(
        grid.diag, grid.offdiag, eigvals_only=True, select="i", select_range=(0, n_levels - 1)
    )
    return np.asarray(vals)
