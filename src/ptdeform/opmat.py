"""Operator matrices in the truncated bound-state basis, plus the
finite-difference grid oracle.

Matrix elements of X = sin(kx) and the deformed momentum P are computed
by Gauss-Legendre quadrature against the exact eigenfunctions; H and all
functions of H are diagonal.  Every operator of the algebra is banded:
X, P and b couple |n> only to |n +- 1>.  `OperatorMatrix` therefore stores
an operator as one band array of its 2w+1 diagonals, w its ``bandwidth``,
so a product costs O(N w1 w2) and a sum or a norm O(N w).  `quadrature_XP`
forms only the two off-diagonals of X and P, and for each column the
three-term defect that measures what quadrature puts off the band, in one
O(N Q / 2) pass over the nonnegative half of a mirrored rule whose rows
carry the root of the weight: no N x Q table and no N x N array is
formed.  `operator_set`, the one builder of the X/P/H/b/b+ set, keeps
the defects beside the bands for the structure checks of
`structure_residuals`.  `wavefunction_checks` reads the Gram and
adjointness defects of the lowest 21 states from one block of the same
root-weighted rows on the same folded half.

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
from .specfun import QuadratureRule, tridiagonal_lowest
from .wavefun import BLOCK_ROWS, basis_blocks

__all__ = [
    "QuadratureOrderError",
    "OperatorMatrix",
    "GridOperator",
    "identity",
    "diag_operator",
    "energy_diag",
    "TRUST_MARGIN",
    "MAX_QUADRATURE_ORDER",
    "WAVEFUNCTION_STATES",
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
    "wavefunction_checks",
    "build_grid_hamiltonian",
    "grid_spectrum",
]


# Trailing rows/columns of the tower that every operator residual leaves
# out at least: a residual drops the larger of this and the margin its
# product tracks; reports echo it as "trust_margin".
TRUST_MARGIN = 4

# The largest quadrature order a run may ask for: building the Legendre
# rule costs O(Q^2) (20 ms at Q = 4000, 70 ms at Q = 8000 on one Xeon core),
# and no configuration of the battery needs more than about 1100.
MAX_QUADRATURE_ORDER = 4096


class QuadratureOrderError(ValueError):
    """The quadrature rule is too short for the requested basis size."""


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Complex operator on the truncated tower |0> ... |N-1>, stored as one
    band of shape (2w+1, N), w the ``bandwidth``: row w+p holds <i|A|i+p>
    at column i, and the entries whose column i+p lies outside the tower
    are 0.  ``trust_margin`` counts trailing rows/columns whose entries may
    be corrupted by basis truncation; the bandwidth also grows the margin
    of products.
    """

    band: np.ndarray
    trust_margin: int = 0

    def __post_init__(self) -> None:
        band = np.asarray(self.band, dtype=complex)
        if band.ndim != 2 or band.shape[0] % 2 == 0 or band.shape[0] >= 2 * band.shape[1]:
            raise ValueError(f"a band needs an odd row count 2w+1 <= 2N-1, got shape {band.shape}")
        object.__setattr__(self, "band", band)

    @classmethod
    def from_dense(cls, data, basis_size: int, trust_margin: int = 0,
                   bandwidth: int | None = None) -> "OperatorMatrix":
        """The band of an N x N matrix out to ``bandwidth`` (default: all of
        it); entries beyond it are dropped."""
        d = np.asarray(data, dtype=complex)
        n = basis_size
        if d.shape != (n, n):
            raise ValueError(f"expected a {n} x {n} matrix, got shape {d.shape}")
        width = n - 1 if bandwidth is None else min(bandwidth, n - 1)
        band = np.zeros((2 * width + 1, n), dtype=complex)
        for p in range(-width, width + 1):
            band[width + p, max(0, -p):n - max(0, p)] = d.diagonal(p)
        return cls(band, trust_margin)

    @property
    def basis_size(self) -> int:
        return self.band.shape[1]

    @property
    def bandwidth(self) -> int:
        """How far the operator couples |n> to |n +- bandwidth>."""
        return self.band.shape[0] // 2

    def adjoint(self) -> "OperatorMatrix":
        # <i|A^H|i+p> is the conjugate of <i+p|A|i>, row w-p at column i+p
        n, w = self.basis_size, self.bandwidth
        out = np.zeros_like(self.band)
        for p in range(-w, w + 1):
            out[w + p, max(0, -p):n - max(0, p)] = self.band[w - p, max(0, p):n - max(0, -p)].conj()
        return OperatorMatrix(out, self.trust_margin)

    def _keep(self, margin: int | None) -> int:
        eff = self.trust_margin if margin is None else max(self.trust_margin, margin)
        keep = self.basis_size - eff
        if keep < 1:
            raise ValueError(f"margin {eff} leaves no trusted block at N = {self.basis_size}")
        return keep

    def diagonal(self, offset: int = 0, margin: int | None = None) -> np.ndarray:
        """Entries <i|A|i+offset> inside the trusted block, indexed by
        min(i, i+offset) as in `np.diagonal`."""
        w = self.bandwidth
        if abs(offset) > w:
            raise ValueError(f"offset {offset} lies outside the band of width {w}")
        row = self.band[w + offset, :self._keep(margin)]
        return row[-offset:] if offset < 0 else row[:max(row.size - offset, 0)]

    def trusted(self, margin: int | None = None) -> np.ndarray:
        """The block guaranteed free of truncation effects, as a dense array."""
        keep = self._keep(margin)
        w = self.bandwidth
        rows = np.broadcast_to(np.arange(keep), (2 * w + 1, keep))
        cols = rows + np.arange(-w, w + 1)[:, None]
        inside = (cols >= 0) & (cols < keep)
        block = np.zeros((keep, keep), dtype=complex)
        block[rows[inside], cols[inside]] = self.band[:, :keep][inside]
        return block

    def max_abs(self, margin: int | None = None) -> float:
        keep = self._keep(margin)
        w = self.bandwidth
        reach = min(w, keep - 1)  # the offsets that meet the trusted block
        mag = np.abs(self.band[w - reach:w + reach + 1, :keep])
        # row p > 0 leaves the block at column keep - p; the columns i < -p
        # of row p < 0 lie outside the tower and hold 0
        for p in range(1, reach + 1):
            mag[reach + p, keep - p:] = 0.0
        return float(np.max(mag))

    def hermiticity_residual(self, margin: int | None = None) -> float:
        return (self - self.adjoint()).max_abs(margin)

    def _require_same_basis(self, other: "OperatorMatrix") -> None:
        if self.basis_size != other.basis_size:
            raise ValueError("operands act on different basis sizes")

    def _combine(self, other: "OperatorMatrix", ufunc) -> "OperatorMatrix":
        self._require_same_basis(other)
        # a row that one operand lacks is 0 there: widen it with zero rows
        width = max(self.bandwidth, other.bandwidth)
        bands = []
        for op in (self, other):
            band, w = op.band, op.bandwidth
            if w < width:
                band = np.zeros((2 * width + 1, op.basis_size), dtype=complex)
                band[width - w:width + w + 1] = op.band
            bands.append(band)
        return OperatorMatrix(ufunc(*bands), max(self.trust_margin, other.trust_margin))

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.add)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.subtract)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(-self.band, self.trust_margin)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.band * scalar, self.trust_margin)

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_basis(other)
        n, wa, wb = self.basis_size, self.bandwidth, other.bandwidth
        a, b = self.band, other.band
        out = np.zeros((2 * (wa + wb) + 1, n), dtype=complex)
        # <i|AB|i+p+q> collects <i|A|i+p><i+p|B|i+p+q>, in ascending p, over
        # the columns i with i+p in the tower; where i+p+q leaves it, B is 0
        for p in range(-wa, wa + 1):
            lo, hi = max(0, -p), min(n, n - p)
            out[p + wa:p + wa + 2 * wb + 1, lo:hi] += a[p + wa, lo:hi] * b[:, lo + p:hi + p]
        cut = max(wa + wb - (n - 1), 0)  # the offsets beyond N-1 hold 0
        # Truncation corrupts the product only where the summed-over index
        # can reach the edge through either factor's band, so the margin
        # grows by the narrower bandwidth.
        margin = max(self.trust_margin, other.trust_margin) + min(wa, wb)
        return OperatorMatrix(out[cut:out.shape[0] - cut], margin)


def identity(n_basis: int) -> OperatorMatrix:
    return OperatorMatrix(np.ones((1, n_basis), dtype=complex))


def diag_operator(values, n_basis: int) -> OperatorMatrix:
    # a ValueError unless ``values`` holds n_basis entries
    return OperatorMatrix(np.asarray(values, dtype=complex).reshape(1, n_basis))


def energy_diag(params: ModelParams, n_basis: int, fn) -> OperatorMatrix:
    """diag(fn(E_0), ..., fn(E_{N-1})); spectral calculus for functions of H.
    ``fn`` is a level function of `algebra`, applied to the whole spectrum."""
    return diag_operator(fn(params, energy(params, np.arange(n_basis))), n_basis)


# The levels whose Gram and adjointness defects `wavefunction_checks` reads
# by quadrature, at every N: the rule of a basis of N states integrates at
# least this many.
WAVEFUNCTION_STATES = 21


def quadrature_floor(params: ModelParams, n_basis: int) -> int | float:
    """The lowest quadrature order the X/P matrices of the lowest ``n_basis``
    states and the `WAVEFUNCTION_STATES` states of the wavefunction checks
    accept, ceil(2 max(N, 21) + 2 nu + 10); infinite where 2 nu overflows."""
    floor = 2 * max(n_basis, WAVEFUNCTION_STATES) + 2 * params.nu + 10
    return math.ceil(floor) if math.isfinite(floor) else floor


def _check_rule(params: ModelParams, n_basis: int, rule: QuadratureRule) -> None:
    if n_basis < 2:
        raise ValueError(f"basis size must be >= 2, got {n_basis}")
    needed = quadrature_floor(params, n_basis)
    if rule.order < needed:
        raise QuadratureOrderError(
            f"quadrature order {rule.order} is below the required {needed} for N = {n_basis} "
            f"(ceil(2 max(N, {WAVEFUNCTION_STATES}) + 2nu + 10))"
        )
    a, b = params.box
    if not (math.isclose(rule.interval[0], a, rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(rule.interval[1], b, rel_tol=1e-9, abs_tol=1e-12)):
        raise ValueError(f"quadrature interval {rule.interval} does not match the box ({a}, {b})")
    if not (np.array_equal(rule.nodes[::-1], -rule.nodes)
            and np.array_equal(rule.weights[::-1], rule.weights)):
        raise ValueError("quadrature rule is not its own mirror image about x = 0: the X and P "
                         "layer sums over the nonnegative half of the rule by parity")


def _folded_rule(rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """The (Q+1)//2 nonnegative nodes of a mirrored rule and their folded
    weights: 2 w_q, except the midpoint of an odd rule, which is its own
    mirror image and keeps w_q.  A sum of an even function over them is
    its sum over the whole rule."""
    half = rule.order // 2
    weights = 2.0 * rule.weights[half:]
    if rule.order % 2:
        weights[0] = rule.weights[half]
    return rule.nodes[half:], weights


def _root_weighted_columns(params: ModelParams, rule: QuadratureRule
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """At the nodes of the folded half of ``rule``: X = sin(kx), the root
    weight u = sqrt(w) cos^nu(kx) that turns the polynomial factors phi_n
    into the rows sqrt(w) psi_n, and u (1 - X^2), the factor of phi_n' in
    the derivative forms: the columns of `basis_blocks`."""
    nodes, weights = _folded_rule(rule)
    s = np.sin(params.k * nodes)
    root = np.sqrt(weights) * np.cos(params.k * nodes) ** params.nu
    return s, root, root * (1.0 - s * s)


def _tridiagonal_block(rows: np.ndarray, image: np.ndarray, lo: int, hi: int,
                       band: np.ndarray, defect: np.ndarray, scratch: np.ndarray) -> None:
    """Columns lo .. hi-1 of the off-diagonals of the real odd operator T,
    T_mn = sum_q w_q psi_m T psi_n, and the three-term defect of each of
    them up to column N-2,

        ||T psi_n - T_{n-1,n} psi_{n-1} - T_{n+1,n} psi_{n+1}||_Q,
        ||f||_Q^2 = sum_q w_q f_q^2,

    written into the (3, N) ``band`` (T_{n,n+1} at band[2, n], T_{n+1,n} at
    band[0, n+1]) and ``defect``.  The rows carry the root of the weight,
    ``rows`` holding sqrt(w_q) psi_m and ``image`` sqrt(w_q) T psi_n at the
    nodes of the folded half of a mirrored rule (see `quadrature_XP`), so an
    entry is a plain dot product of two rows and a defect the root of a
    row's sum of squares.  The diagonal T_nn is exactly 0 by parity, so it
    is neither formed nor subtracted.

    ``rows`` holds the levels max(lo-1, 0) .. top, top = min(hi, N-1), the
    window of a `basis_blocks` block, and ``image`` the images of the
    levels lo .. top; T_{lo-1,lo} must already be in ``band``.  ``scratch``
    holds two arrays of at least (top - lo) rows of len(nodes).

    T_{n,n+1} and T_{n+1,n} are separate sums, so their difference measures
    Hermiticity.  The defect vanishes exactly when T psi_n lies in the span
    of psi_{n-1}, psi_{n+1}; column N-1 has none, as psi_N is not in the
    table.
    """
    upper, lower = band[2, :-1], band[0, 1:]  # both indexed by n
    top = min(hi, lower.size)  # the rows that couple to a next row
    count = top - lo
    own = rows[lo - max(lo - 1, 0):]  # levels lo .. top
    upper[lo:top] = np.einsum("ij,ij->i", own[:count], image[1:])
    lower[lo:top] = np.einsum("ij,ij->i", own[1:], image[:count])
    # each row times its coefficient; einsum needs no buffer for the
    # broadcast, where np.multiply takes a 64 KB one
    resid, term = scratch[0, :count], scratch[1, :count]
    np.einsum("ij,i->ij", own[1:], lower[lo:top], out=resid)
    np.subtract(image[:count], resid, out=resid)
    first = max(lo, 1)  # psi_{-1} does not exist
    np.einsum("ij,i->ij", rows[:top - first], upper[first - 1:top - 1], out=term[first - lo:])
    resid[first - lo:] -= term[first - lo:]
    defect[lo:top] = np.sqrt(np.einsum("ij,ij->i", resid, resid))


def quadrature_XP(params: ModelParams, n_basis: int, rule: QuadratureRule
                  ) -> tuple[OperatorMatrix, OperatorMatrix, np.ndarray, np.ndarray]:
    """The tridiagonal bands of X = sin(kx) and of the deformed momentum
    P = k [cos(kx) p + (i hbar k / 2) sin(kx)] by quadrature with ``rule``,
    and the three-term defect of each column n <= N-2 of either, from one
    stream of `basis_blocks` (see `_tridiagonal_block`).

    Both operators are tridiagonal on the exact tower, so the defects
    measure what quadrature puts off the band; no off-band entry is formed.
    P applies p = -i hbar d/dx literally to the exact closed-form
    derivative of each state.  In this real basis P = i R with R real; with
    psi_n = c^nu phi_n(X), c = cos(kx), X = sin(kx),

        R psi = hbar k [ (k/2) X psi - c psi' ]
              = hbar k^2 c^nu [ (nu + 1/2) X phi - (1 - X^2) phi' ],

    phi' from the nu+1 family of the stream.  The stream's rows carry the
    root of the folded weight, u_q = sqrt(w_q) c_q^nu, and the edge factor
    e = hbar k^2 u (1 - X^2), as U_n = u phi_n and D_n = e phi_n'; the X
    images are X U and the R images hbar k^2 (nu + 1/2) X U - D, formed
    once per block, and each band entry and defect is a plain reduction of
    them.

    psi_n has parity (-1)^n, and X and R are odd, so both couple only
    levels of opposite parity: the diagonals are exactly 0, and the
    off-diagonal and defect integrands are even.  ``rule`` must therefore
    be its own mirror image about x = 0 (a `ValueError` otherwise), and
    the stream runs on its (Q+1)//2 nonnegative nodes with the weights
    folded onto them, 2 w_q, except the midpoint of an odd rule, which
    keeps w_q.  Each block is reduced as it arrives, so no N x Q table is
    formed: the scratch is a few blocks of (32 + 2) x (Q+1)//2, and the
    cost is O(N Q / 2).  Raises `QuadratureOrderError` when the
    Hermiticity defect of the P band or a P defect exceeds 1e-8 hbar k^2,
    the scale of P, which signals an inadequate rule.
    """
    _check_rule(params, n_basis, rule)
    s, root, root_edge = _root_weighted_columns(params, rule)
    scale = params.hbar * params.k**2
    # R u phi = scale (nu + 1/2) X u phi - scale u (1 - X^2) phi'
    value_factor = (scale * (params.nu + 0.5)) * s
    # real bands; the diagonal row and the entries outside the tower stay 0
    x_band, r_band = np.zeros((3, n_basis)), np.zeros((3, n_basis))
    x_defect, p_defect = np.empty(n_basis - 1), np.empty(n_basis - 1)
    # the images of a block's own levels, and the scratch of its reductions
    x_images, r_images = np.empty((2, min(BLOCK_ROWS + 1, n_basis), s.size))
    scratch = np.empty((2, min(BLOCK_ROWS, n_basis - 1), s.size))
    for lo, hi, block in basis_blocks(params, n_basis, s, root, scale * root_edge):
        own = block[lo - max(lo - 1, 0):]  # the levels lo .. top of the window
        x_image, r_image = x_images[:len(own)], r_images[:len(own)]
        np.multiply(own[:, 0], s, out=x_image)
        np.multiply(own[:, 0], value_factor, out=r_image)
        r_image -= own[:, 1]
        rows = block[:, 0]
        _tridiagonal_block(rows, r_image, lo, hi, r_band, p_defect, scratch)
        _tridiagonal_block(rows, x_image, lo, hi, x_band, x_defect, scratch)
    p_op = OperatorMatrix(1j * r_band)
    resid = max(p_op.hermiticity_residual(), float(np.max(p_defect)))
    if resid > 1e-8 * scale:
        raise QuadratureOrderError(
            f"momentum matrix fails Hermiticity at {resid:.3e} ({resid / scale:.3e} of "
            f"hbar k^2); increase the quadrature order"
        )
    return OperatorMatrix(x_band), p_op, x_defect, p_defect


def build_X(params: ModelParams, n_basis: int, rule: QuadratureRule) -> OperatorMatrix:
    """The tridiagonal band of the quadrature X of `quadrature_XP`."""
    return quadrature_XP(params, n_basis, rule)[0]


def build_P(params: ModelParams, n_basis: int, rule: QuadratureRule) -> OperatorMatrix:
    """The tridiagonal band of the quadrature P of `quadrature_XP`."""
    return quadrature_XP(params, n_basis, rule)[1]


def build_H(params: ModelParams, n_basis: int) -> OperatorMatrix:
    """Hamiltonian, diagonal on its own bound tower: H|n> = eps (n+nu)^2 |n>."""
    return diag_operator(energy(params, np.arange(n_basis)), n_basis)


def _levels(params: ModelParams, n_basis: int) -> np.ndarray:
    """s_n = n + nu = sqrt(E_n / eps) for n = 0 .. n_basis-1."""
    return np.arange(n_basis) + params.nu


def _sqrt_eh(params: ModelParams, n_basis: int) -> np.ndarray:
    return np.sqrt(params.epsilon * energy(params, np.arange(n_basis)))


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
    """X, P, H and the ladder pair on one truncated tower, with the
    three-term defects of the quadrature X and P that `quadrature_XP`
    returns beside their bands."""

    X: OperatorMatrix
    P: OperatorMatrix
    H: OperatorMatrix
    b: OperatorMatrix
    bplus: OperatorMatrix
    x_defect: np.ndarray
    p_defect: np.ndarray


def operator_set(params: ModelParams, n_basis: int, rule: QuadratureRule) -> OperatorSet:
    """The tridiagonal bands of X and P by quadrature with ``rule``, H from
    the spectrum, and b, b+ from those three; the defects of X and P are
    kept for the checks of what quadrature puts off the band."""
    x_op, p_op, x_defect, p_defect = quadrature_XP(params, n_basis, rule)
    h_op = build_H(params, n_basis)
    b_op, bplus_op = assemble_b(params, x_op, p_op, h_op)
    return OperatorSet(x_op, p_op, h_op, b_op, bplus_op, x_defect, p_defect)


def structure_residuals(params: ModelParams, ops: OperatorSet, margin: int) -> dict[str, float]:
    """Hermiticity and band structure of the quadrature X and P, and of the
    b they make, on the trusted block of ``margin``.

    Band entries count as they are.  The diagonals of X, P and b are 0 by
    construction (see `quadrature_XP`), so no relation reads them.  What
    quadrature puts off the band is measured by the three-term defects of
    the columns n of the trusted block: ``x_structure`` and ``p_hermitian``
    take the largest defect of X and of P, and ``b_annihilates_ground`` and
    ``b_off_ladder`` bound the off-band part of column n of
    b = (X d1 + (i hbar / m) P) / (2 eps), d1 = eps + 2 sqrt(eps H), by

        (defect^X_n d1_n + (hbar / m) defect^P_n) / (2 eps).

    A defect is the norm of the whole off-band part of a column, not a
    bound on each entry of it: where the rule's Gram matrix is not the
    identity, one entry of the dense quadrature matrix can exceed the
    defect of its column.
    """
    n_basis = ops.X.basis_size
    keep = n_basis - margin
    if not 1 <= keep < n_basis:
        raise ValueError(f"margin {margin} leaves no trusted block with defects at N = {n_basis}")
    x_defect, p_defect = ops.x_defect[:keep], ops.p_defect[:keep]
    eps = params.epsilon
    d1 = eps + 2.0 * _sqrt_eh(params, keep)
    b_off_band = (x_defect * d1 + (params.hbar / params.mass) * p_defect) * (0.5 / eps)
    b_sub = np.abs(ops.b.diagonal(-1, margin))  # <n+1|b|n>
    b_ladder = ops.b.diagonal(1, margin)  # <n-1|b|n> at index n-1
    return {
        "x_hermitian": ops.X.hermiticity_residual(margin),
        "x_structure": float(np.max(x_defect)),
        "p_hermitian": max(ops.P.hermiticity_residual(margin), float(np.max(p_defect))),
        "b_annihilates_ground": float(max(np.max(b_sub[:1], initial=0.0), b_off_band[0])),
        "b_ladder_diagonal_alpha": float(max(abs(b_ladder[n - 1] - alpha(params, n))
                                             for n in range(1, min(25, keep - 1) + 1))),
        "b_off_ladder": float(max(np.max(b_sub, initial=0.0), np.max(b_off_band))),
    }


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


def extended_algebra_residuals(params: ModelParams, c1: OperatorMatrix, b: OperatorMatrix,
                               bplus: OperatorMatrix, H: OperatorMatrix,
                               margin: int = TRUST_MARGIN) -> dict[str, float]:
    """Residuals of the extended-algebra relations for the Casimir
    C = b b+ + h(H), given as the ``c1`` of `casimir_matrices`: C commutes
    with H, b and b+, and the bilinear closure

        sqrt(H/eps) b b+ - (sqrt(H/eps) - 1) b+ b
            = C + sqrt(H/eps) (1 + 3 sqrt(H/eps)).
    """
    n_basis = b.basis_size
    ratios = _levels(params, n_basis)
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
    ratios = _levels(params, n_basis)
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
    ratios = _levels(params, n_basis)
    right = diag_operator(np.sqrt(ratios / (ratios + 1.0)), n_basis)
    left = diag_operator(np.sqrt((ratios - 1.0).clip(min=0.0) / ratios), n_basis)
    return (bplus @ right - left @ bplus).max_abs(margin)


def wavefunction_checks(params: ModelParams, rule: QuadratureRule) -> dict[str, float]:
    """The Gram defect max |<psi_m|psi_n> - delta_mn| and the adjointness
    defect max |<psi_m|b psi_n> - <b+ psi_m|psi_n>| of the lowest
    `WAVEFUNCTION_STATES` levels by quadrature with ``rule``, with b and b+
    the differential ladder forms of `wavefun.sample_tables`.  Both vanish
    up to rounding and quadrature error.

    One `basis_blocks` block on the folded half of the rule gives the
    root-weighted rows u phi_n of `quadrature_XP`, u = sqrt(w) cos^nu(kx),
    and the edge rows u (1 - X^2) phi_n'.  With c = cos(kx) and X = sin(kx)
    the ladder forms read

        b psi_n  = c^nu [(1 - X^2) phi_n' + n X phi_n],
        b+ psi_n = (n+nu+1)/(n+nu) c^nu [(n + 2 nu) X phi_n - (1 - X^2) phi_n'],

    so each overlap is a sum of overlaps of the rows u phi, X u phi and
    u (1 - X^2) phi'.  psi_n has parity (-1)^n and both ladder forms
    (-1)^(n+1), so only the overlaps between levels of equal parity (Gram)
    or of opposite parity (adjointness) are even and summed on the half;
    the others are exactly 0.
    """
    n_states = WAVEFUNCTION_STATES
    _check_rule(params, n_states, rule)
    s, root, root_edge = _root_weighted_columns(params, rule)
    # the block holds every level
    _, _, block = next(basis_blocks(params, n_states, s, root, root_edge))
    psi, edge = block[:, 0], block[:, 1]
    x_psi = np.einsum("ij,j->ij", psi, s)
    n = np.arange(n_states, dtype=float)
    raising = (n + params.nu + 1.0) / (n + params.nu)
    gram = adjoint = 0.0
    for parity in (0, 1):
        same, other = slice(parity, None, 2), slice(1 - parity, None, 2)
        overlap = psi[same] @ psi[same].T
        overlap[np.diag_indices_from(overlap)] -= 1.0
        gram = max(gram, float(np.max(np.abs(overlap))))
        # <psi_m|b psi_n> and <b+ psi_m|psi_n> for m of this parity, n of the other
        lowered = psi[same] @ edge[other].T + (psi[same] @ x_psi[other].T) * n[other]
        raised = ((n[same, None] + 2.0 * params.nu) * (x_psi[same] @ psi[other].T)
                  - edge[same] @ psi[other].T) * raising[same, None]
        adjoint = max(adjoint, float(np.max(np.abs(lowered - raised))))
    return {"gram_identity": gram, "adjointness_quadrature": adjoint}


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
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    if n_levels > m_points:
        raise ValueError("cannot ask for more levels than grid points")
    grid = build_grid_hamiltonian(params, m_points)
    # in units of eps the entries depend on nu and the grid size only, not
    # on hbar, m and k, so LAPACK's bisection never sees their squares overflow
    eps = params.epsilon
    # dstebz from the OpenBLAS numpy has loaded: reaching it through
    # scipy.linalg doubled the start-up of verify and spectrum
    return tridiagonal_lowest(grid.diag / eps, grid.offdiag / eps, n_levels) * eps
