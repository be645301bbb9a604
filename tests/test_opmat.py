"""Truncated operator matrices: structure, algebra closure, truncation
bookkeeping, and the finite-difference cross-check.

Independent structure oracles (verified against 40-digit quadrature):

    <n| sin(kx) |n+1> = sqrt((n+1)(n+2 nu)) / (2 sqrt((n+nu)(n+nu+1)))
    <n| P |n+1>       = -i (hbar k^2 / 2) (2(n+nu) + 1) <n| sin(kx) |n+1>

and the level-by-level defect of the undeformed commutator function,

    ([b, b+] - (1 + 2 sqrt(H/eps)))_nn = nu(nu-1) / ((n+nu)(n+nu-1)),

whose n = 0 value is identically 1 for every nu >= 1.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ptdeform import cli, opmat, specfun, wavefun
from ptdeform.algebra import ModelParams, alpha, energy, f_of, f_of_uncorrected
from ptdeform.cli import RunConfig, run_verification
from ptdeform.opmat import (
    OperatorMatrix,
    OperatorSet,
    QuadratureOrderError,
    assemble_b,
    bplus_second_form,
    build_grid_hamiltonian,
    build_P,
    build_su11,
    build_X,
    casimir_matrices,
    check_identity_12,
    commutator,
    diag_operator,
    energy_diag,
    extended_algebra_residuals,
    grid_spectrum,
    identity,
    operator_set,
    quadrature_XP,
    structure_residuals,
    su11_ordering_residual,
    su11_residuals,
    wavefunction_checks,
)
from ptdeform.specfun import QuadratureRule, gauss_legendre, gegenbauer_row
from ptdeform.wavefun import (
    basis_table,
    build_eigenfunction,
    gram_matrix,
    psi_value,
    sample_tables,
)

N = 30
MARGIN = 4
NU_SET = [1.0, 1.5, 2.0, 3.7]


@functools.lru_cache(maxsize=None)
def operators(nu: float, n_basis: int = N):
    """params, rule, X, P, H, b, b+ at basis size n_basis (cached: every test shares them)."""
    params = ModelParams(nu=nu)
    rule = gauss_legendre(2 * n_basis + 60, *params.box)
    ops = operator_set(params, n_basis, rule)
    return params, rule, ops.X, ops.P, ops.H, ops.b, ops.bplus


# ---------------------------------------------------------------------------
# OperatorMatrix bookkeeping


def test_operator_matrix_shape_validation():
    with pytest.raises(ValueError):
        OperatorMatrix.from_dense(np.zeros((3, 4)), 3)
    with pytest.raises(ValueError):
        OperatorMatrix.from_dense(np.zeros((3, 3)), 4)
    with pytest.raises(ValueError):
        OperatorMatrix(np.ones((2, 3)))  # an even row count has no diagonal row
    with pytest.raises(ValueError):
        OperatorMatrix(np.ones((7, 3)))  # 2w+1 > 2N-1: no offset 3 in a 3 x 3 matrix
    with pytest.raises(ValueError):
        OperatorMatrix(np.ones(3))  # one row is not a band


def test_missing_diagonals_inside_the_band_are_zero():
    band = np.zeros((5, 3))
    band[4, 0] = 1.0  # <0|A|2>
    op = OperatorMatrix(band)
    assert (op.basis_size, op.bandwidth) == (3, 2)
    assert np.array_equal(op.trusted(), [[0, 0, 1], [0, 0, 0], [0, 0, 0]])


def test_trusted_block_margins():
    op = OperatorMatrix.from_dense(np.arange(16.0).reshape(4, 4), 4, trust_margin=1)
    assert op.trusted().shape == (3, 3)
    assert np.array_equal(op.trusted(), np.arange(16.0).reshape(4, 4)[:3, :3])
    assert op.trusted(2).shape == (2, 2)  # explicit margin can only grow
    assert op.trusted(0).shape == (3, 3)
    assert np.array_equal(op.diagonal(1), [1.0, 6.0])
    assert np.array_equal(op.diagonal(-1, 2), [4.0])
    with pytest.raises(ValueError):
        op.trusted(4)


def test_diagonal_outside_the_band_is_rejected():
    # band row w + offset would wrap to another diagonal at offset < -w
    op = OperatorMatrix.from_dense(np.arange(25.0).reshape(5, 5), 5, bandwidth=2)
    for offset in (-3, 3):
        with pytest.raises(ValueError, match=f"offset {offset} "):
            op.diagonal(offset)
    assert np.array_equal(op.diagonal(-2), [10.0, 16.0, 22.0])


def test_product_margin_rule():
    # product margin = max of margins + narrower bandwidth; bandwidths add
    a = OperatorMatrix.from_dense(np.eye(6), 6, trust_margin=1, bandwidth=2)
    b = OperatorMatrix.from_dense(np.eye(6), 6, trust_margin=0, bandwidth=1)
    ab = a @ b
    assert ab.trust_margin == 2
    assert ab.bandwidth == 3
    for s in (a + b, a - b):
        assert s.trust_margin == 1
        assert s.bandwidth == 2
    # the same rule holds when a factor is diagonal
    d = OperatorMatrix.from_dense(np.diag(np.arange(1.0, 7.0)), 6, trust_margin=2, bandwidth=0)
    for prod in (d @ b, b @ d):
        assert (prod.trust_margin, prod.bandwidth) == (2, 1)
    assert ((d @ d).trust_margin, (d @ d).bandwidth) == (2, 0)
    # a matrix built without a bandwidth couples everything
    full = OperatorMatrix.from_dense(np.ones((6, 6)), 6)
    assert full.bandwidth == 5
    assert ((full @ b).trust_margin, (full @ b).bandwidth) == (1, 5)


def test_bandwidth_capped_at_size():
    op = OperatorMatrix.from_dense(np.eye(3), 3, bandwidth=17)
    assert op.bandwidth == 2


def _dense(op: OperatorMatrix) -> np.ndarray:
    """Every entry of ``op``, its truncation margin ignored."""
    n, w = op.basis_size, op.bandwidth
    return sum(np.diag(op.band[w + p, max(0, -p):n - max(0, p)], p) for p in range(-w, w + 1))


def _outside_tower(op: OperatorMatrix) -> np.ndarray:
    """The band entries whose column i+p lies outside the tower."""
    cols = np.arange(op.basis_size) + np.arange(-op.bandwidth, op.bandwidth + 1)[:, None]
    return op.band[(cols < 0) | (cols >= op.basis_size)]


def _integer_band(rng, n_basis: int, width: int) -> OperatorMatrix:
    """A band operator with small Gaussian-integer entries, all exactly representable."""
    values = rng.integers(-9, 10, size=(2, n_basis, n_basis))
    return OperatorMatrix.from_dense(values[0] + 1j * values[1], n_basis, bandwidth=width)


WIDTHS = [0, 1, 2, 3, None]  # None: the full width N - 1


@pytest.mark.parametrize("n_basis", [1, 2, 7, 30])
@pytest.mark.parametrize("left", WIDTHS)
@pytest.mark.parametrize("right", WIDTHS)
def test_band_algebra_is_exact_on_integers(n_basis, left, right):
    # every product and sum of small integers is exact in floating point, so
    # the band arithmetic must reproduce the dense result to the bit
    rng = np.random.default_rng([n_basis, 9 if left is None else left, 9 if right is None else right])
    a = _integer_band(rng, n_basis, left)
    b = _integer_band(rng, n_basis, right)
    da, db = _dense(a), _dense(b)
    results = {"@": (a @ b, da @ db), "+": (a + b, da + db), "-": (a - b, da - db),
               "3*": (3 * a, 3 * da), "neg": (-a, -da), "adjoint": (a.adjoint(), da.conj().T)}
    for name, (op, dense) in results.items():
        assert np.array_equal(_dense(op), dense), name
        assert np.all(_outside_tower(op) == 0.0), name
    assert np.array_equal(a.trusted(), da)
    assert a.max_abs() == np.max(np.abs(da))
    assert a.hermiticity_residual() == np.max(np.abs(da - da.conj().T))
    # on a trusted block smaller than the tower, as the dense block [:N-m, :N-m]
    for m in (1, 2):
        if n_basis - m >= 1:
            block = da[:n_basis - m, :n_basis - m]
            assert a.max_abs(m) == np.max(np.abs(block))
            assert a.hermiticity_residual(m) == np.max(np.abs(block - block.conj().T))
    assert (a @ b).bandwidth == min(a.bandwidth + b.bandwidth, n_basis - 1)


@pytest.mark.parametrize("triple", [(1e16, 1.0, -1e16), (1.0, 1e16, -1e16)])
def test_products_accumulate_in_ascending_offset(triple):
    # A tridiagonal with (A[i,i-1], A[i,i], A[i,i+1]) = triple, B all ones:
    # every product is exact, so an entry of A @ B shows only the order in
    # which its terms A[i,i+p] are summed.  It is ascending p, the order the
    # bit identity of the residual sweep rests on.
    n_basis = 6
    band = np.zeros((3, n_basis))
    band[0, 1:], band[1], band[2, :-1] = triple
    product = OperatorMatrix(band) @ OperatorMatrix.from_dense(np.ones((n_basis, n_basis)), n_basis)

    def ascending(terms):
        total = 0.0
        for term in terms:
            total += term
        return total

    rows = [[t for p, t in zip((-1, 0, 1), triple) if 0 <= i + p < n_basis] for i in range(n_basis)]
    got = product.diagonal(0)
    assert np.array_equal(got, [ascending(terms) for terms in rows[:got.size]])
    # the terms of an inner row tell some other order apart
    assert any(ascending(order) != ascending(rows[1]) for order in itertools.permutations(rows[1]))


def test_band_algebra_never_goes_dense():
    # at N = 2000 a dense complex N x N array takes 64 MB
    n_basis = 2000
    ramp = np.arange(1.0, n_basis)
    band = np.zeros((3, n_basis))
    band[2, :-1] = ramp
    b = OperatorMatrix(band)
    bplus = b.adjoint()
    h = diag_operator(np.arange(n_basis) ** 2.0, n_basis)
    one = identity(n_basis)
    tracemalloc.start()
    try:
        product = b @ bplus
        resid = (commutator(b, bplus) + h - one).adjoint().max_abs(4) + product.max_abs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert math.isfinite(resid) and resid > 0.0


@pytest.mark.parametrize("n_basis", [30, 120])
@pytest.mark.parametrize(
    "left, right",
    [("H", "X"), ("H", "P"), ("H", "b"), ("X", "H"), ("P", "H"), ("b", "H"), ("H", "H")],
)
def test_products_with_a_diagonal_factor_match_dense(left, right, n_basis):
    # one nonzero term per entry: the band product rounds as the dense one
    _, _, x_op, p_op, h_op, b_op, _ = operators(3.7, n_basis)
    ops = {"X": x_op, "P": p_op, "H": h_op, "b": b_op}
    a, b = ops[left], ops[right]
    assert np.array_equal((a @ b).trusted(), a.trusted() @ b.trusted())


def test_adjoint_and_scalar_ops():
    m = np.array([[1.0, 2.0j], [0.0, 1.0]])
    op = OperatorMatrix.from_dense(m, 2)
    np.testing.assert_allclose(op.adjoint().trusted(), m.conj().T)
    np.testing.assert_allclose((2.0 * op).trusted(), 2.0 * m)
    np.testing.assert_allclose((-op).trusted(), -m)
    np.testing.assert_allclose((op - op).trusted(), np.zeros((2, 2)))


def test_mismatched_sizes_rejected():
    a = identity(3)
    b = identity(4)
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        _ = a @ b


def test_diag_helpers():
    d = diag_operator([1.0, 2.0, 3.0], 3)
    assert d.bandwidth == 0
    np.testing.assert_allclose(d.diagonal().real, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        diag_operator([1.0, 2.0], 3)
    p = ModelParams(nu=2.0)
    e = energy_diag(p, 3, lambda pp, en: 2.0 * en)
    np.testing.assert_allclose(e.diagonal().real, [8.0, 18.0, 32.0])
    one = identity(3)
    np.testing.assert_allclose(one.trusted(), np.eye(3))
    assert one.bandwidth == 0


# ---------------------------------------------------------------------------
# X, P, H construction


def test_quadrature_floor_enforced():
    params = ModelParams(nu=2.0)
    a, b = params.box
    short = gauss_legendre(2 * N + 2, a, b)
    with pytest.raises(QuadratureOrderError):
        build_X(params, N, short)
    with pytest.raises(ValueError):
        build_X(params, 1, gauss_legendre(80, a, b))


@pytest.mark.parametrize("entry_point", [operator_set, quadrature_XP, build_X])
def test_quadrature_floor_rejects_a_rule_when_two_nu_overflows(entry_point):
    # 2 nu + 2N + 10 is infinite at nu = 1e308: the floor error, not an
    # OverflowError from the integer floor
    params = ModelParams(nu=1e308)
    assert opmat.quadrature_floor(params, N) == math.inf
    with pytest.raises(QuadratureOrderError, match="below the required inf"):
        entry_point(params, N, gauss_legendre(120, *params.box))


def test_rule_interval_must_match_box():
    params = ModelParams(nu=2.0)
    with pytest.raises(ValueError):
        build_X(params, N, gauss_legendre(2 * N + 60, -1.0, 1.0))


def _position_images(params, psi, dpsi, nodes):
    """sin(kx) psi and R psi = (P/i) psi = hbar k [(k/2) sin(kx) psi - cos(kx) psi'],
    row by row, in position space: the reference of the tests that bound
    the bands of `quadrature_XP` by the rounding of sums."""
    s = np.sin(params.k * nodes)
    c = np.cos(params.k * nodes)
    hbar, k = params.hbar, params.k
    return s * psi, (-hbar * k * c) * dpsi + (0.5 * hbar * k**2 * s) * psi


def _images(params, rows, edge_rows, nodes):
    """The X images X U and the R images hbar k^2 (nu + 1/2) X U - D of the
    root-weighted rows U = u phi and the edge rows D = hbar k^2 u (1 - X^2) phi'
    at the columns X = sin(kx) of ``nodes``, in the arithmetic of
    `quadrature_XP`."""
    s = np.sin(params.k * nodes)
    scale = params.hbar * params.k**2
    r_image = rows * ((scale * (params.nu + 0.5)) * s)
    r_image -= edge_rows
    return rows * s, r_image


def _root(params, nodes, weights):
    """u = sqrt(w) cos^nu(kx), the column factor of the rows of `quadrature_XP`."""
    return np.sqrt(weights) * np.cos(params.k * nodes) ** params.nu


def _rule(params, n_basis):
    """The default order raised to the floor: max(2 max(N, 21) + 60, floor)."""
    order = max(2 * max(n_basis, opmat.WAVEFUNCTION_STATES) + 60,
                opmat.quadrature_floor(params, n_basis))
    return gauss_legendre(order, *params.box)


def _gamma(order):
    """gamma_(Q+1) = (Q+1) u / (1 - (Q+1) u), u = 2^-53: the relative
    rounding bound of a sum of Q+1 terms (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1)."""
    terms = (order + 1) * 2.0**-53
    return terms / (1.0 - terms)


@pytest.mark.parametrize("nu", [1.0, 3.7])
@pytest.mark.parametrize("n_basis", [30, 120])
def test_x_and_p_are_the_per_state_quadrature(n_basis, nu):
    # reference: psi by one psi_value evaluation per state, psi' from the
    # basis table (checked against mpmath in test_wavefun), and the dense
    # quadrature products formed here; each band entry is one sum over the
    # nodes, so it meets the dense entry within the rounding bound of two
    # Q-term sums, 2 gamma_(Q+1) sum_q |w_q psi_m(q) (T psi_n)(q)|
    params = ModelParams(nu=nu)
    rule = gauss_legendre(2 * n_basis + 60, *params.box)
    psi = np.array([psi_value(build_eigenfunction(params, n), rule.nodes) for n in range(n_basis)])
    _, dpsi = basis_table(params, n_basis, rule.nodes)
    x_op, p_op, _, _ = quadrature_XP(params, n_basis, rule)
    gamma = 2 * (rule.order + 1) * 2.0**-53
    x_image, r_image = _position_images(params, psi, dpsi, rule.nodes)
    # X is real, and P is i times a real matrix
    for band, image in ((x_op, x_image), (-1j * p_op, r_image)):
        ref = (psi * rule.weights) @ image.T
        size = np.abs(psi * rule.weights) @ np.abs(image).T
        assert band.bandwidth == 1
        for off in (-1, 0, 1):
            v = band.diagonal(off)
            assert np.all(v.imag == 0.0)
            assert np.all(np.abs(v.real - np.diagonal(ref, off)) <= gamma * np.diagonal(size, off))
    # the set holds the same bands, as build_X and build_P do
    ops = operator_set(params, n_basis, rule)
    for built, ref in ((ops.X, x_op), (build_X(params, n_basis, rule), x_op),
                       (ops.P, p_op), (build_P(params, n_basis, rule), p_op)):
        assert built.bandwidth == 1
        assert np.array_equal(built.band, ref.band)


def _dense_off_band(params, n_basis, rule, keep):
    """The largest |entry| off the tridiagonal band on the trusted block of
    the dense quadrature X and P/i, formed here from one basis table, each
    with the largest sum of the magnitudes of the terms of such an entry."""
    psi, dpsi = basis_table(params, n_basis, rule.nodes)
    rows, cols = np.indices((keep, keep))
    off_band = np.abs(rows - cols) > 1
    wpsi = psi * rule.weights
    return tuple((float(np.max(np.abs((wpsi @ image.T)[:keep, :keep][off_band]))),
                  float(np.max((np.abs(wpsi) @ np.abs(image).T)[:keep, :keep][off_band])))
                 for image in _position_images(params, psi, dpsi, rule.nodes))


@pytest.mark.parametrize("nu", [1.0, 1.2, 3.7, 49.9])
@pytest.mark.parametrize("n_basis", [30, 120, 480])
def test_defects_dominate_the_dense_off_band_content(n_basis, nu):
    # A defect is the norm of a column's whole off-band part, which bounds
    # each entry of it only where the rule's Gram matrix is the identity;
    # taken over the trusted block, the largest defect still bounds the
    # largest off-band entry of the dense quadrature, up to the rounding of
    # that entry's Q-term sum and of the defect's own, 2 gamma_(Q+1) of the
    # sum of the magnitudes of the entry's terms.  Where the content is
    # above rounding (nu = 1.2, and nu = 49.9 at N = 30) the defect bounds
    # it by 1.5-10x; where both are at rounding level, they are equal to
    # within it (at N = 120, nu = 1 the defect of X reads 4.4e-15 against
    # an entry of 4.9e-15)
    params = ModelParams(nu=nu)
    rule = _rule(params, n_basis)
    keep = n_basis - MARGIN
    ops = operator_set(params, n_basis, rule)
    gamma = 2 * _gamma(rule.order)
    (x_off, x_terms), (p_off, p_terms) = _dense_off_band(params, n_basis, rule, keep)
    assert float(np.max(ops.x_defect[:keep])) >= x_off - gamma * x_terms
    assert float(np.max(ops.p_defect[:keep])) >= p_off - gamma * p_terms


def _whole_table_gegenbauer(n_max, nu, x):
    """C_0^(nu) .. C_{n_max}^(nu) at x as one (n_max+1) x Q table, in the
    arithmetic of the recurrence: ((2 (n + nu - 1) x) C_{n-1} - (n + 2 nu - 2) C_{n-2}) / n."""
    out = np.empty((n_max + 1, x.size))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 2.0 * nu * x
    for n in range(2, n_max + 1):
        out[n] = (2.0 * (n + nu - 1.0) * x * out[n - 1] - (n + 2.0 * nu - 2.0) * out[n - 2]) / n
    return out


def _gegenbauer_table_basis(params, n_basis, nodes):
    """phi and phi' as two N x Q tables of N_n C_n^(nu) and 2 nu N_n
    C_{n-1}^(nu+1), each family in one recurrence pass: the arithmetic of
    `basis_table`."""
    nu = params.nu
    s = np.sin(params.k * nodes)
    norms = wavefun.norm_tower(params, n_basis)
    phi = _whole_table_gegenbauer(n_basis - 1, nu, s)
    phi *= norms[:, None]
    dphi = np.zeros_like(phi)
    if n_basis >= 2:
        dphi[1:] = _whole_table_gegenbauer(n_basis - 2, nu + 1.0, s)
        dphi[1:] *= (norms[1:] * (2.0 * nu))[:, None]
    return phi, dphi


def _whole_table_basis(params, n_basis, s, root, edge):
    """U = u phi and D = e phi' as two N x Q tables at the columns X = s,
    u = ``root``, e = ``edge``, each family in one pass of its normalized
    recurrence over the whole table, level by level: the whole-table route,
    in the arithmetic of `basis_blocks`,

        U_n = [r_n 2 (n + nu - 1) / n] X U_{n-1} - [r_n r_{n-1} (n + 2 nu - 2) / n] U_{n-2},
        D_n = [r_n 2 (n + nu - 1) / (n - 1)] X D_{n-1}
              - [r_n r_{n-1} (n + 2 nu - 1) / (n - 1)] D_{n-2},

    r_n = N_n / N_{n-1}, from U_0 = N_0 u, U_1 = 2 nu N_1 X u, D_0 = 0 and
    D_1 = 2 nu N_1 e."""
    nu = params.nu
    n = np.arange(1.0, n_basis)
    ratio = np.concatenate(([1.0], np.sqrt(n * (n + nu) / ((n + nu - 1.0) * (n + 2.0 * nu - 1.0)))))
    norm = wavefun.norm0(params)
    rows, edge_rows = np.empty((n_basis, s.size)), np.empty((n_basis, s.size))
    rows[0], edge_rows[0] = root * norm, 0.0
    if n_basis >= 2:
        lead = 2.0 * nu * (norm * ratio[1])
        rows[1], edge_rows[1] = (lead * s) * root, edge * lead
    for m in range(2, n_basis):
        step, pair = ratio[m] * (2.0 * (m + nu - 1.0)), ratio[m] * ratio[m - 1]
        rows[m] = ((step / m) * s) * rows[m - 1] - (pair * (m + 2.0 * nu - 2.0) / m) * rows[m - 2]
        edge_rows[m] = (((step / (m - 1)) * s) * edge_rows[m - 1]
                        - (pair * (m + 2.0 * nu - 1.0) / (m - 1)) * edge_rows[m - 2])
    return rows, edge_rows


def _stream_columns(params, rule):
    """X, u and e = hbar k^2 u (1 - X^2) at the nonnegative nodes of
    ``rule``, u = sqrt(w) cos^nu(kx) with the folded weights of
    `opmat._folded_rule`: the columns `quadrature_XP` streams with."""
    nodes, weights = opmat._folded_rule(rule)
    s = np.sin(params.k * nodes)
    root = _root(params, nodes, weights)
    return s, root, (params.hbar * params.k**2) * (root * (1.0 - s * s))


def _stacked_stream(params, n_basis, s, root, edge):
    """The own levels of every block of `basis_blocks`, stacked into N x Q
    tables of U and D."""
    rows, edge_rows = np.empty((n_basis, s.size)), np.empty((n_basis, s.size))
    for lo, hi, block in wavefun.basis_blocks(params, n_basis, s, root, edge):
        first = max(lo - 1, 0)  # the level of the block's row 0
        own = block[lo - first:hi - first]
        rows[lo:hi], edge_rows[lo:hi] = own[:, 0], own[:, 1]
    return rows, edge_rows


def _three_term_remainder(rows, image, lower, upper, lo, top):
    """T psi_n - T_{n+1,n} psi_{n+1} - T_{n-1,n} psi_{n-1} for n = lo ..
    top-1 at every column of the whole tables, in the arithmetic of
    `_tridiagonal_block`."""
    resid = image[lo:top] - lower[lo:top, None] * rows[lo + 1:top + 1]
    first = max(lo, 1)
    resid[first - lo:] -= upper[first - 1:top - 1, None] * rows[first - 1:top - 1]
    return resid


def _whole_table_band(rows, image):
    """The (3, N) real band and the defects of `_tridiagonal_block`, read
    from whole N x Q tables of root-weighted rows and their images in the
    same 32-row blocks; the diagonal is 0."""
    n = rows.shape[0]
    upper, lower = np.empty(n - 1), np.empty(n - 1)
    defect = np.empty(n - 1)
    for lo in range(0, n, 32):
        top = min(lo + 32, n - 1)
        upper[lo:top] = np.einsum("ij,ij->i", rows[lo:top], image[lo + 1:top + 1])
        lower[lo:top] = np.einsum("ij,ij->i", rows[lo + 1:top + 1], image[lo:top])
        resid = _three_term_remainder(rows, image, lower, upper, lo, top)
        defect[lo:top] = np.sqrt(np.einsum("ij,ij->i", resid, resid))
    band = np.zeros((3, n))
    band[0, 1:], band[2, :-1] = lower, upper
    return band, defect


STREAM_SIZES = [8, 31, 32, 33, 34, 64, 65, 97, 480]


@pytest.mark.parametrize(
    "n_basis, params",
    [(n, ModelParams(nu=nu)) for n in STREAM_SIZES for nu in (1.0, 1.294678, 3.7, 49.9)]
    + [(65, ModelParams(nu=3.7, hbar=1.3, mass=0.7, k=2.1))],
    ids=[f"{n}-{nu}" for n in STREAM_SIZES for nu in (1.0, 1.294678, 3.7, 49.9)] + ["65-units"],
)
def test_streamed_quadrature_is_the_whole_table_route(n_basis, params):
    # the block stream against whole N x Q tables, bit for bit, across the
    # block edges: each window of `basis_blocks` holds the table rows
    # max(lo-1, 0) .. min(hi, N-1) of the normalized recurrences run level
    # by level over whole tables, on the columns of the nonnegative nodes
    # weighted by the root of the folded weights of `opmat._folded_rule`,
    # and the bands and defects of `quadrature_XP` are those of the whole
    # tables (each column of a table depends on its own node alone; the
    # fold itself is checked against whole-rule sums in
    # `test_folded_bands_are_the_whole_rule_sums`).  `basis_table`, the
    # unnormalized Gegenbauer route, is its whole-rule tables of psi and
    # psi', formed from N_n C_n^(nu) and 2 nu N_n C_{n-1}^(nu+1).
    rule = _rule(params, n_basis)
    phi, dphi = _gegenbauer_table_basis(params, n_basis, rule.nodes)
    s, c = np.sin(params.k * rule.nodes), np.cos(params.k * rule.nodes)
    nu = params.nu
    psi = c**nu * phi
    dpsi = dphi * (1.0 - s * s)
    dpsi -= phi * (nu * s)
    dpsi *= params.k * c ** (nu - 1.0)
    stacked = basis_table(params, n_basis, rule.nodes)
    assert np.array_equal(stacked[0], psi) and np.array_equal(stacked[1], dpsi)
    half = slice(rule.order // 2, None)
    assert np.array_equal(rule.nodes[half], opmat._folded_rule(rule)[0])
    s, root, edge = _stream_columns(params, rule)
    rows, edge_rows = _whole_table_basis(params, n_basis, s, root, edge)
    for lo, hi, block in wavefun.basis_blocks(params, n_basis, s, root, edge):
        window = slice(max(lo - 1, 0), min(hi, n_basis - 1) + 1)
        assert np.array_equal(block[:, 0], rows[window])
        assert np.array_equal(block[:, 1], edge_rows[window])
    x_image, r_image = _images(params, rows, edge_rows, rule.nodes[half])
    x_band, x_defect = _whole_table_band(rows, x_image)
    r_band, p_defect = _whole_table_band(rows, r_image)
    x_op, p_op, got_x_defect, got_p_defect = quadrature_XP(params, n_basis, rule)
    assert np.array_equal(x_op.band, x_band)
    assert np.array_equal(p_op.band, 1j * r_band)
    assert np.array_equal(got_x_defect, x_defect)
    assert np.array_equal(got_p_defect, p_defect)


@pytest.mark.parametrize("nu", [1.0, 1.294678, 3.7, 49.9])
@pytest.mark.parametrize("n_basis", [8, 33, 60])
def test_stream_rows_are_the_gegenbauer_route(n_basis, nu):
    # the weighted rows divided by their columns, U_n / u and D_n / e,
    # against N_n C_n^(nu) and 2 nu N_n C_{n-1}^(nu+1) from `norm_n` (N_0 in
    # its Gamma form) and `gegenbauer_row`, the unnormalized recurrence.
    # Either route rounds at most 8 times a level, relative to the terms of
    # its step (the step's coefficient, its products and its difference,
    # and a step of the norm tower), and next to the wall, where a row takes
    # its largest value, the recurrence carries a rounding of level j into
    # level n with a weight of at most n - j + 1.  Summed over the levels
    # that is 8 u (n+1)^2 of the row's largest value, u = 2^-53 (measured at
    # most 7.2 u (n+1), at nu = 1).
    params = ModelParams(nu=nu, hbar=1.3, k=2.1)
    s, root, edge = _stream_columns(params, _rule(params, n_basis))
    rows, edge_rows = _stacked_stream(params, n_basis, s, root, edge)
    values = gegenbauer_row(n_basis - 1, nu, s)
    derivs = gegenbauer_row(n_basis - 2, nu + 1.0, s)
    assert not np.any(edge_rows[0])  # phi_0' = 0
    for n in range(n_basis):
        bound = 8 * 2.0**-53 * (n + 1) ** 2
        norm = wavefun.norm_n(params, n)
        refs = [(rows[n] / root, norm * values[n])]
        if n:
            refs.append((edge_rows[n] / edge, (2.0 * nu * norm) * derivs[n - 1]))
        for got, ref in refs:
            assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref)), n


@pytest.mark.parametrize("nu", [3.7, 300.0])
def test_stream_rows_are_bounded(nu):
    # sqrt(w_q) psi_n(x_q) on the folded rule are entries of a nearly
    # orthogonal matrix, so they stay within 1 at any nu; at nu = 300 the
    # unnormalized C_479^(300)(1) = Gamma(1079) / (479! Gamma(600)) is e^737,
    # beyond the largest double
    params = ModelParams(nu=nu)
    s, root, edge = _stream_columns(params, _rule(params, 480))
    rows, edge_rows = _stacked_stream(params, 480, s, root, edge)
    assert np.all(np.isfinite(edge_rows))
    assert float(np.max(np.abs(rows))) <= 1.0 + 1e-12


PARITY_ORDERS = [169, 1020, 1021]
PARITY_NUS = [1.0, 1.294678, 3.7, 49.9]


@pytest.mark.parametrize("nu", PARITY_NUS)
@pytest.mark.parametrize("order", PARITY_ORDERS)
def test_streamed_basis_rows_are_mirrored(order, nu):
    # U_n(-X) = (-1)^n U_n(X) and D_n(-X) = (-1)^(n+1) D_n(X), exactly, on
    # the whole rule: sin of mirrored nodes is exactly odd, the root weight
    # sqrt(w) cos^nu(kx) exactly even, and every step of the stream keeps
    # the parity
    params = ModelParams(nu=nu)
    rule = gauss_legendre(order, *params.box)
    s = np.sin(params.k * rule.nodes)
    root = _root(params, rule.nodes, rule.weights)
    for lo, _, block in wavefun.basis_blocks(params, 480, s, root, root * (1.0 - s * s)):
        first = max(lo - 1, 0)
        sign = (-1.0) ** np.arange(first, first + len(block))[:, None]
        assert np.array_equal(block[:, 0, ::-1], sign * block[:, 0])
        assert np.array_equal(block[:, 1, ::-1], -sign * block[:, 1])


@pytest.mark.parametrize("nu", PARITY_NUS)
@pytest.mark.parametrize("order", PARITY_ORDERS)
def test_folded_bands_are_the_whole_rule_sums(order, nu):
    # the off-diagonals and defects of `quadrature_XP`, summed over the
    # folded half, against sums over every node of the rule with its own
    # weight, formed here from `basis_table` in position space, entry by
    # entry; the diagonal is exactly 0.  The two routes share no
    # arithmetic: the stream runs the normalized recurrences on
    # root-weighted rows, `basis_table` the unnormalized Gegenbauer one.
    # Each off-diagonal entry is a sum of Q terms in either route, so the
    # two agree within 2 gamma_(Q+1) of the sum of the magnitudes of the
    # terms (Higham, section 3.1); the rows' own recurrence rounding reads
    # at most 86 u of that sum, u = 2^-53.  A defect is the norm of a
    # three-term remainder whose terms cancel to rounding, so the two
    # arithmetics differ in it by up to its size; it is bounded instead by
    # gamma_(Q+1) times the norm of the magnitudes of the terms, the
    # rounding of the Q-term sum of squares in either route (measured at
    # most 11 u).  N is the largest basis size up to 480 whose floor the
    # rule meets.
    params = ModelParams(nu=nu)
    n_basis = min(480, (order - 10 - math.ceil(2 * nu)) // 2)
    rule = gauss_legendre(order, *params.box)
    psi, dpsi = basis_table(params, n_basis, rule.nodes)
    x_op, p_op, x_defect, p_defect = quadrature_XP(params, n_basis, rule)
    wpsi = psi * rule.weights
    for op, image, defect in zip((x_op, -1j * p_op),
                                 _position_images(params, psi, dpsi, rule.nodes),
                                 (x_defect, p_defect)):
        assert np.all(op.band.imag == 0.0)
        assert np.all(op.diagonal(0) == 0.0)
        lower, upper = op.diagonal(-1).real, op.diagonal(1).real
        whole_upper = np.einsum("ij,ij->i", wpsi[:-1], image[1:])
        whole_lower = np.einsum("ij,ij->i", wpsi[1:], image[:-1])
        upper_terms = np.einsum("ij,ij->i", np.abs(wpsi[:-1]), np.abs(image[1:]))
        lower_terms = np.einsum("ij,ij->i", np.abs(wpsi[1:]), np.abs(image[:-1]))
        for got, whole, terms in ((upper, whole_upper, upper_terms),
                                  (lower, whole_lower, lower_terms)):
            assert np.all(np.abs(got - whole) <= 2 * _gamma(order) * terms)
        resid = _three_term_remainder(psi, image, lower, upper, 0, n_basis - 1)
        terms = _three_term_remainder(np.abs(psi), np.abs(image), -np.abs(lower),
                                      -np.abs(upper), 0, n_basis - 1)
        whole_defect = np.sqrt((resid * resid) @ rule.weights)
        terms_norm = np.sqrt((terms * terms) @ rule.weights)
        assert np.all(np.abs(defect - whole_defect) <= _gamma(order) * terms_norm)


def test_a_rule_that_is_not_its_mirror_image_is_rejected():
    # the fold needs mirrored nodes and symmetric weights; a skew of the
    # weights by an odd function, or a shift of the nodes, breaks either
    params = ModelParams(nu=2.0)
    rule = gauss_legendre(2 * N + 60, *params.box)
    odd = np.sin(params.k * rule.nodes)
    for skewed in (QuadratureRule(rule.nodes, rule.weights * (1.0 + 1e-6 * odd), rule.interval),
                   QuadratureRule(rule.nodes + 1e-12, rule.weights, rule.interval)):
        with pytest.raises(ValueError, match="mirror image"):
            quadrature_XP(params, N, skewed)


def test_quadrature_builders_hold_few_tables():
    # A table is one real N x Q array of the basis; a block buffer is one
    # (32 + 2) x Q window of `basis_blocks` on the whole rule.
    # `quadrature_XP` reduces each block as it arrives, on the (Q+1)//2
    # nonnegative nodes, so its peak is a fixed number of block buffers at
    # every N (measured 4.6 at N = 240 and 4.2 at N = 1500) and a small
    # share of a table (0.10 at N = 1500).  One more N x Q array, 7.1 block
    # buffers at N = 240, does not fit under these bounds.
    params = ModelParams(nu=3.7)
    for n_basis in (240, 1500):
        rule = gauss_legendre(2 * n_basis + 60, *params.box)
        table = n_basis * rule.nodes.size * 8
        block = (32 + 2) * rule.nodes.size * 8
        tracemalloc.start()
        try:
            quadrature_XP(params, n_basis, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * block
        if n_basis == 1500:
            assert peak < 0.5 * table


def _count_basis_tables(monkeypatch) -> list[tuple[int, int]]:
    """The basis size and the number of points of every `basis_blocks`
    stream started through opmat's or wavefun's name for it, from here on:
    `quadrature_XP` reduces one, and `wavefunction_checks` reads one block."""
    calls = []
    original = wavefun.basis_blocks

    def counted(params, n_basis, s, root, edge):
        calls.append((n_basis, len(s)))
        return original(params, n_basis, s, root, edge)

    for module in (opmat, wavefun):
        monkeypatch.setattr(module, "basis_blocks", counted)
    return calls


def _count_fills(monkeypatch) -> list[int]:
    """The number of points of every `gegenbauer_fill`, through specfun's
    or wavefun's name for it, from here on."""
    calls = []
    original = specfun.gegenbauer_fill

    def counted(rows, nu, x, scratch):
        calls.append(len(x))
        return original(rows, nu, x, scratch)

    for module in (specfun, wavefun):
        monkeypatch.setattr(module, "gegenbauer_fill", counted)
    return calls


def test_one_operator_set_evaluates_the_basis_once(monkeypatch):
    # on the nonnegative half of the rule, the midpoint of an odd one included
    calls = _count_basis_tables(monkeypatch)
    params = ModelParams(nu=3.7)
    for order in (2 * N + 60, 2 * N + 61):
        calls.clear()
        operator_set(params, N, gauss_legendre(order, *params.box))
        assert calls == [(N, (order + 1) // 2)]


def test_one_verify_evaluates_one_basis_table_per_point_set(monkeypatch):
    # on the nonnegative nodes, one stream of N levels for X and P and one
    # block of the 21 states of the wavefunction checks, neither of them a
    # Gegenbauer fill; one fill serves the 11 states sampled at the 100
    # Chebyshev points
    calls = _count_basis_tables(monkeypatch)
    fills = _count_fills(monkeypatch)
    for n_basis in (N, 8):
        calls.clear()
        fills.clear()
        config = RunConfig(nu=2.0, basis_size=n_basis)
        run_verification(config)
        half = (config.effective_quadrature_order + 1) // 2
        assert calls == [(n_basis, half), (opmat.WAVEFUNCTION_STATES, half)]
        assert fills == [100]


def test_ladder_and_scan_limit_compute_no_wavefunction_checks(monkeypatch):
    # only verify reads the Gram and adjointness defects, so only verify
    # pays for them
    calls = []
    original = opmat.wavefunction_checks

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (opmat, cli):
        monkeypatch.setattr(module, "wavefunction_checks", counted)
    cli.cmd_ladder(RunConfig(nu=3.7), 25)
    cli.cmd_scan_limit(RunConfig(nu=1.0), [1.0, 1.5, 3.7])
    assert calls == []
    run_verification(RunConfig(nu=3.7))
    assert len(calls) == 1


def test_one_verify_builds_the_casimir_pair_once(monkeypatch):
    # the Casimir relations and the extended algebra read the same c1
    calls = []
    original = opmat.casimir_matrices

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (opmat, cli):
        monkeypatch.setattr(module, "casimir_matrices", counted)
    run_verification(RunConfig(nu=2.0))
    assert len(calls) == 1


def _closed_x(nu, n_basis):
    """X_{n+1,n} = X_{n,n+1} = (1/2) sqrt((n+1)(n+2nu) / ((n+nu)(n+nu+1)))."""
    n = np.arange(n_basis - 1)
    return 0.5 * np.sqrt((n + 1) * (n + 2 * nu) / ((n + nu) * (n + nu + 1)))


@pytest.mark.parametrize("nu", NU_SET)
def test_x_matrix_closed_form(nu):
    # the band entry by entry, and the defect of every column (n <= N-2)
    # for what lies off the band
    params, rule, *_ = operators(nu)
    x_op, _, x_defect, _ = quadrature_XP(params, N, rule)
    closed = _closed_x(nu, N)
    assert float(np.max(np.abs(x_op.diagonal(0)))) < 1e-10
    assert float(np.max(np.abs(x_op.diagonal(1) - closed))) < 1e-10
    assert float(np.max(np.abs(x_op.diagonal(-1) - closed))) < 1e-10
    assert float(np.max(x_defect)) < 1e-10
    assert x_op.hermiticity_residual() < 1e-10


@pytest.mark.parametrize("nu", NU_SET)
def test_p_matrix_closed_form(nu):
    # <n|P|n+1> = -i (hbar k^2 / 2) (2(n+nu) + 1) X_{n,n+1}, and the defect
    # of every column (n <= N-2) for what lies off the band
    params, rule, *_ = operators(nu)
    _, p_op, _, p_defect = quadrature_XP(params, N, rule)
    n = np.arange(N - 1)
    p_band = -1j * (params.hbar * params.k**2 / 2.0) * (2.0 * (n + nu) + 1.0) * _closed_x(nu, N)
    assert float(np.max(np.abs(p_op.diagonal(0)))) < 1e-10
    assert float(np.max(np.abs(p_op.diagonal(1) - p_band))) < 1e-10
    assert float(np.max(np.abs(p_op.diagonal(-1) - p_band.conj()))) < 1e-10
    assert float(np.max(p_defect)) < 1e-10
    assert p_op.hermiticity_residual() < 1e-10


@pytest.mark.parametrize("params", [ModelParams(nu=nu) for nu in (1.0, 2.0, 3.7, 49.9)]
                         + [ModelParams(nu=3.7, hbar=1.3, mass=0.7, k=2.1)],
                         ids=["1.0", "2.0", "3.7", "49.9", "units"])
@pytest.mark.parametrize("n_basis", [30, 480])
def test_xp_closed_form(n_basis, params):
    # the quadrature bands against the paper's closed forms,
    #   X_{n+1,n} = (1/2) sqrt((n+1)(n+2nu) / ((n+nu)(n+nu+1))),
    #   (i hbar / m) P = 2 eps b - X diag(eps (1 + 2(n+nu))),
    # with b the exact lowering operator, <n-1|b|n> = alpha_n; relative to
    # the largest entry (measured at most 1.0e-13 for X, 2.8e-14 for P)
    nu, eps = params.nu, params.epsilon
    x_op, p_op, _, _ = quadrature_XP(params, n_basis, _rule(params, n_basis))
    x_closed = _closed_x(nu, n_basis)
    d1 = eps * (1.0 + 2.0 * (np.arange(n_basis) + nu))
    alphas = np.array([alpha(params, n) for n in range(1, n_basis)])
    ihm_p = {off: (1j * params.hbar / params.mass) * p_op.diagonal(off) for off in (-1, 0, 1)}
    p_closed = {1: 2.0 * eps * alphas - x_closed * d1[1:], 0: 0.0, -1: -x_closed * d1[:-1]}
    x_err = max(float(np.max(np.abs(x_op.diagonal(off) - (0.0 if off == 0 else x_closed))))
                for off in (-1, 0, 1))
    p_err = max(float(np.max(np.abs(ihm_p[off] - p_closed[off]))) for off in (-1, 0, 1))
    assert x_err < 1e-12 * float(np.max(x_closed))
    assert p_err < 1e-12 * float(np.max(np.abs(p_closed[1])))


@pytest.mark.parametrize("k", [1.0, 1000.0])
def test_p_hermiticity_check_is_relative_to_its_scale(k):
    # P scales like hbar k^2; rounding alone stays far below 1e-8 of that at
    # any k, while a skewed rule breaks the integration by parts at any k
    params = ModelParams(nu=2.0, k=k)
    rule = gauss_legendre(2 * N + 60, *params.box)
    quadrature_XP(params, N, rule)
    skewed = QuadratureRule(rule.nodes, rule.weights * (1.0 + 1e-6 * np.cos(k * rule.nodes)),
                            rule.interval)
    with pytest.raises(QuadratureOrderError, match="Hermiticity"):
        quadrature_XP(params, N, skewed)


LEAK = 1e-9


def _leaky(kernel, which, leak=LEAK):
    """``kernel`` with ``leak`` psi_5 added to the image of psi_0 in its
    ``which``-th call on the first block: 0 is P/i, 1 is X."""
    calls = []

    def leaky_kernel(rows, image, lo, hi, band, defect, scratch):
        if lo == 0:
            if len(calls) == which:
                image = image.copy()
                image[0] += leak * rows[5]
            calls.append(which)
        return kernel(rows, image, lo, hi, band, defect, scratch)
    return leaky_kernel


@pytest.mark.parametrize(
    "which, relations",
    [(1, ("x_structure", "b_off_ladder")),
     (0, ("b_off_ladder", "p_hermitian"))],
    ids=["X", "P"],
)
def test_off_band_quadrature_content_is_reported(monkeypatch, which, relations):
    # the algebra keeps only the tridiagonal band of X and P; content that
    # quadrature would put off the band shows in the defects, so the
    # structure relations still report it
    clean = {r.name: r.residual for r in run_verification(RunConfig(nu=2.0)).relations}
    monkeypatch.setattr(opmat, "_tridiagonal_block", _leaky(opmat._tridiagonal_block, which))
    leaked = {r.name: r.residual for r in run_verification(RunConfig(nu=2.0)).relations}
    for name in relations:
        assert clean[name] < 1e-3 * LEAK
        assert leaked[name] > 0.9 * LEAK


def test_off_band_p_content_above_its_scale_raises(monkeypatch):
    # the Hermiticity guard of the P band reads the P defects too
    monkeypatch.setattr(opmat, "_tridiagonal_block", _leaky(opmat._tridiagonal_block, 0, 1e-6))
    params = ModelParams(nu=2.0)
    with pytest.raises(QuadratureOrderError, match="Hermiticity"):
        quadrature_XP(params, N, gauss_legendre(2 * N + 60, *params.box))


BIT_SIZES = [8, 30, 120]
BIT_NUS = [1.0, 1.294678, 3.7, 49.9]


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("nu", BIT_NUS)
@pytest.mark.parametrize("n_basis", BIT_SIZES)
def test_structure_residuals_match_the_full_width_operators(n_basis, nu, perturbed):
    # reference: the bands at full width through `trusted`, and the
    # off-band part of each column n of b bounded from the defects,
    # (defect^X_n d1_n + (hbar/m) defect^P_n) / (2 eps); the diagonals,
    # which no relation reads, are exactly 0
    params = ModelParams(nu=nu)
    ops = operator_set(params, n_basis, _rule(params, n_basis))
    if perturbed:  # content off Hermiticity and off the ladder in every off-diagonal entry
        rng = np.random.default_rng(n_basis)

        def noise():
            band = np.zeros((3, n_basis))
            band[0, 1:], band[2, :-1] = 1e-6 * rng.standard_normal((2, n_basis - 1))
            return OperatorMatrix(band)

        x_op, p_op = ops.X + noise(), ops.P + noise() + 1j * noise()
        ops = OperatorSet(x_op, p_op, ops.H, *assemble_b(params, x_op, p_op, ops.H),
                          ops.x_defect + 1e-6 * rng.random(n_basis - 1),
                          ops.p_defect + 1e-6 * rng.random(n_basis - 1))
    margin = 4
    keep = n_basis - margin
    xt, pt, bt = (op.trusted(margin) for op in (ops.X, ops.P, ops.b))
    assert not any(np.any(np.diag(table)) for table in (xt, pt, bt))
    x_defect, p_defect = ops.x_defect[:keep], ops.p_defect[:keep]
    eps = params.epsilon
    d1 = eps + 2.0 * np.sqrt([eps * energy(params, n) for n in range(keep)])
    b_off_band = (x_defect * d1 + (params.hbar / params.mass) * p_defect) * (0.5 / eps)
    ladder = np.ones_like(bt, dtype=bool)
    ladder[np.arange(keep - 1), np.arange(1, keep)] = False
    expected = {
        "x_hermitian": float(np.max(np.abs(xt - xt.T))),
        "x_structure": float(np.max(x_defect)),
        "p_hermitian": max(float(np.max(np.abs(pt - pt.conj().T))), float(np.max(p_defect))),
        "b_annihilates_ground": max(float(np.max(np.abs(bt[:, 0]))), float(b_off_band[0])),
        "b_ladder_diagonal_alpha": float(max(abs(bt[n - 1, n] - alpha(params, n))
                                             for n in range(1, min(25, keep - 1) + 1))),
        "b_off_ladder": max(float(np.max(np.abs(bt[ladder]))), float(np.max(b_off_band))),
    }
    assert structure_residuals(params, ops, margin) == expected


def _whole_rule_wavefunction_defects(params, rule):
    """The Gram and adjointness matrices of the 21 states of the wavefunction
    checks, summed over every node of ``rule`` from `sample_tables`, and
    the sums of the magnitudes of their terms, taken before the
    cancellations inside each ladder form."""
    nodes, w = rule.nodes, rule.weights
    n_states = opmat.WAVEFUNCTION_STATES
    rows = sample_tables(params, n_states, nodes)
    psi, dpsi = basis_table(params, n_states, nodes)
    s, c = np.sin(params.k * nodes), np.cos(params.k * nodes)
    m = (np.arange(n_states) + params.nu)[:, None]
    pieces = np.abs(c * dpsi) / params.k + np.abs(m * s * psi)
    gram = (psi * w) @ psi.T - np.eye(n_states)
    adjoint = (psi * w) @ rows.lower.T - (rows.upper * w) @ psi.T
    gram_terms = np.abs(psi * w) @ np.abs(psi).T
    adjoint_terms = (np.abs(psi * w) @ pieces.T
                     + ((m + 1.0) / m * pieces * w) @ np.abs(psi).T)
    return gram, adjoint, gram_terms, adjoint_terms


@pytest.mark.parametrize("nu", BIT_NUS)
@pytest.mark.parametrize("n_basis", BIT_SIZES)
def test_wavefunction_residuals_match_the_per_state_route(n_basis, nu):
    # the Gram defect of the stream's 21 states against `gram_matrix` of
    # the per-state values on the whole rule, within gamma_(Q+1) of the sum
    # of the magnitudes of its terms: the stream sums over the folded half
    # of the rule, and that sum cannot equal the whole rule's bit for bit
    params = ModelParams(nu=nu)
    rule = _rule(params, n_basis)
    efs = [build_eigenfunction(params, n) for n in range(opmat.WAVEFUNCTION_STATES)]
    got = wavefunction_checks(params, rule)
    assert sorted(got) == ["adjointness_quadrature", "gram_identity"]
    ref = float(np.max(np.abs(gram_matrix(efs, rule) - np.eye(len(efs)))))
    terms = _whole_rule_wavefunction_defects(params, rule)[2]
    assert abs(got["gram_identity"] - ref) <= _gamma(rule.order) * float(np.max(terms))


@pytest.mark.parametrize("nu", [1.0, 1.294678, 3.7, 24.0, 49.9])
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("n_basis", [8, 20, 30, 480])
def test_stream_wavefunction_checks_are_the_whole_rule_sums(n_basis, parity, nu):
    # both defects from one block of root-weighted rows on the folded half
    # of the rule, against the whole rule's sums formed here: within
    # gamma_(Q+1) of the sum of the magnitudes of their terms, the terms of
    # each ladder form taken before its cancellations.  The default order
    # is even; one more gives an odd rule, whose midpoint keeps its weight.
    params = ModelParams(nu=nu)
    order = _rule(params, n_basis).order
    rule = gauss_legendre(order + (order % 2 != (parity == "odd")), *params.box)
    assert rule.order % 2 == (parity == "odd")
    got = wavefunction_checks(params, rule)
    gram, adjoint, gram_terms, adjoint_terms = _whole_rule_wavefunction_defects(params, rule)
    gamma = _gamma(rule.order)
    for name, whole, terms in (("gram_identity", gram, gram_terms),
                               ("adjointness_quadrature", adjoint, adjoint_terms)):
        assert abs(got[name] - float(np.max(np.abs(whole)))) <= gamma * float(np.max(terms))


def test_structure_residuals_need_a_trusted_block():
    # the defect of column N-1 needs psi_N, so the margin is at least 1
    params, rule, *_ = operators(2.0)
    ops = operator_set(params, N, rule)
    for margin in (0, N):
        with pytest.raises(ValueError):
            structure_residuals(params, ops, margin)


def test_x01_reference_value():
    _, _, x_op, _, _, _, _ = operators(2.0)
    assert x_op.diagonal(1)[0].real == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-12)


def test_h_is_the_spectrum():
    params, _, _, _, h_op, _, _ = operators(1.5)
    np.testing.assert_allclose(
        h_op.diagonal().real, [energy(params, n) for n in range(N)], rtol=1e-15
    )
    assert h_op.bandwidth == 0


# ---------------------------------------------------------------------------
# canonical commutators


@pytest.mark.parametrize("nu", NU_SET)
def test_x_p_commutator(nu):
    params, _, x_op, p_op, _, _, _ = operators(nu)
    one = identity(N)
    rhs = (1j * params.hbar * params.k**2) * (one - x_op @ x_op)
    assert (commutator(x_op, p_op) - rhs).max_abs(MARGIN) < 1e-9


@pytest.mark.parametrize("nu", NU_SET)
def test_h_x_commutator(nu):
    params, _, x_op, p_op, h_op, _, _ = operators(nu)
    rhs = (-1j * params.hbar / params.mass) * p_op
    assert (commutator(h_op, x_op) - rhs).max_abs(MARGIN) < 1e-9


@pytest.mark.parametrize("nu", NU_SET)
def test_h_p_commutator(nu):
    params, _, x_op, p_op, h_op, _, _ = operators(nu)
    eps = params.epsilon
    rhs = (1j * params.hbar * params.k**2) * (
        2.0 * (x_op @ h_op) - 0.5 * eps * x_op
        - (1j * params.hbar / params.mass) * p_op
    )
    assert (commutator(h_op, p_op) - rhs).max_abs(MARGIN) < 1e-8


# ---------------------------------------------------------------------------
# ladder operators


@pytest.mark.parametrize("nu", NU_SET)
def test_b_is_strictly_lowering(nu):
    params, _, _, _, _, b_op, _ = operators(nu)
    block = b_op.trusted(MARGIN)
    keep = N - MARGIN
    for n in range(1, min(25, keep - 1) + 1):
        assert abs(block[n - 1, n] - alpha(params, n)) < 1e-8
    mask = np.ones_like(block, dtype=bool)
    idx = np.arange(1, keep)
    mask[idx - 1, idx] = False
    assert float(np.max(np.abs(block[mask]))) < 1e-9
    assert float(np.max(np.abs(block[:, 0]))) < 1e-9  # b kills the ground state


@pytest.mark.parametrize("nu", NU_SET)
def test_bplus_second_form_agrees_with_adjoint(nu):
    params, _, x_op, p_op, h_op, _, bplus_op = operators(nu)
    other = bplus_second_form(params, x_op, p_op, h_op)
    assert (other - bplus_op).max_abs(MARGIN) < 1e-8


@pytest.mark.parametrize("nu", NU_SET)
def test_h_b_grading_commutators(nu):
    params, _, _, _, h_op, b_op, bplus_op = operators(nu)
    from ptdeform.algebra import g_of

    g_diag = energy_diag(params, N, g_of)
    assert (commutator(h_op, b_op) + b_op @ g_diag).max_abs(MARGIN) < 1e-8
    assert (commutator(h_op, bplus_op) - g_diag @ bplus_op).max_abs(MARGIN) < 1e-8


@pytest.mark.parametrize("nu", NU_SET)
def test_corrected_commutator_closes(nu):
    params, _, _, _, _, b_op, bplus_op = operators(nu)
    f_diag = energy_diag(params, N, f_of)
    assert (commutator(b_op, bplus_op) + f_diag).max_abs(MARGIN) < 1e-8


@pytest.mark.parametrize("nu", NU_SET)
def test_uncorrected_commutator_defect_profile(nu):
    # The defect of the undeformed f is largest at the bottom of the
    # tower, where it equals 1 for every nu -- including nu = 1, whose
    # ground level never loses the deformation.
    params, _, _, _, _, b_op, bplus_op = operators(nu)
    f_diag = energy_diag(params, N, f_of_uncorrected)
    resid = commutator(b_op, bplus_op) + f_diag
    diag = np.real(np.diag(resid.trusted(MARGIN)))
    levels = np.arange(1, diag.size)
    predicted = np.concatenate(
        [[1.0], params.strength() / ((levels + nu) * (levels + nu - 1.0))]
    )
    assert float(np.max(np.abs(diag - predicted))) < 1e-8
    assert resid.max_abs(MARGIN) == pytest.approx(1.0, abs=1e-6)
    if nu > 1.0:
        assert resid.max_abs(MARGIN) >= (nu - 1.0) / (nu + 1.0) * (1.0 - 1e-6)


@pytest.mark.parametrize("nu", NU_SET)
def test_strength_operator_identity(nu):
    params, _, x_op, p_op, h_op, _, _ = operators(nu)
    assert check_identity_12(params, x_op, p_op, h_op, MARGIN) < 1e-8


# ---------------------------------------------------------------------------
# Casimir, extended algebra, su(1,1)


@pytest.mark.parametrize("nu", NU_SET)
def test_casimir_is_constant(nu):
    params, _, _, _, _, b_op, bplus_op = operators(nu)
    c1, c2 = casimir_matrices(params, b_op, bplus_op)
    target = -params.strength() * identity(N)
    assert (c1 - target).max_abs(MARGIN) < 1e-8
    assert (c2 - target).max_abs(MARGIN) < 1e-8
    assert (c1 - c2).max_abs(MARGIN) < 1e-8
    assert c1.hermiticity_residual(MARGIN) < 1e-10


@pytest.mark.parametrize("nu", NU_SET)
def test_extended_algebra(nu):
    params, _, _, _, h_op, b_op, bplus_op = operators(nu)
    c1, _ = casimir_matrices(params, b_op, bplus_op)
    residuals = extended_algebra_residuals(params, c1, b_op, bplus_op, h_op, MARGIN)
    assert set(residuals) == {
        "extended_commutes_h",
        "extended_commutes_b",
        "extended_commutes_bplus",
        "extended_bilinear",
    }
    assert max(residuals.values()) < 1e-8


@pytest.mark.parametrize("nu", NU_SET)
def test_su11_defining_relations(nu):
    params, _, _, _, h_op, b_op, bplus_op = operators(nu)
    j0, jp, jm = build_su11(params, b_op, bplus_op, h_op)
    residuals = su11_residuals(params, j0, jp, jm, MARGIN)
    assert max(residuals.values()) < 1e-8
    assert su11_ordering_residual(params, bplus_op, MARGIN) < 1e-8


def test_su11_jplus_reference_entry():
    params, _, _, _, h_op, b_op, bplus_op = operators(2.0)
    _, jp, _ = build_su11(params, b_op, bplus_op, h_op)
    assert jp.diagonal(-1)[0].real == pytest.approx(2.0, abs=1e-9)  # sqrt((0+1)(0+4))


# ---------------------------------------------------------------------------
# quadrature adjointness


@pytest.mark.parametrize("nu", [1.5, 3.7])
def test_ladder_forms_are_adjoint_under_quadrature(nu):
    # the bound of "adjointness_quadrature" in the verify battery
    params, rule, *_ = operators(nu)
    assert wavefunction_checks(params, rule)["adjointness_quadrature"] < 1e-10


def test_adjointness_requires_states():
    # the checks read 21 states, so they need a rule that integrates them,
    # whatever the basis size the rule was chosen for
    params = ModelParams(nu=1.5)
    short = gauss_legendre(2 * 8 + 2 * 2 + 10, *params.box)
    with pytest.raises(QuadratureOrderError):
        wavefunction_checks(params, short)


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_grid_validation():
    p = ModelParams(nu=2.0)
    with pytest.raises(ValueError):
        build_grid_hamiltonian(p, 100)
    with pytest.raises(ValueError):
        grid_spectrum(p, 300, 0)
    with pytest.raises(ValueError):
        grid_spectrum(p, 300, 500)


def test_grid_structure():
    p = ModelParams(nu=2.0)
    g = build_grid_hamiltonian(p, 500)
    assert g.x.shape == (500,)
    assert g.diag.shape == (500,)
    assert g.offdiag.shape == (499,)
    # kinetic scale hbar^2/(m h^2) on the diagonal, -1/2 of it off-diagonal
    h = math.pi / 501
    kinetic = p.hbar**2 / (p.mass * h**2)
    assert g.offdiag[0] == pytest.approx(-0.5 * kinetic, rel=1e-12)
    assert g.diag[249] == pytest.approx(kinetic + p.v0 / math.cos(g.x[249]) ** 2, rel=1e-12)


@pytest.mark.parametrize("nu", NU_SET)
def test_grid_spectrum_matches_closed_form(nu):
    p = ModelParams(nu=nu)
    exact = np.array([energy(p, n) for n in range(6)])
    grid = grid_spectrum(p, 2000, 6)
    assert np.max(np.abs(grid - exact) / exact) < 1e-4


@pytest.mark.parametrize("nu", [1.0, 1.294678, 1.5, 3.7, 25.0, 49.9])
def test_grid_spectrum_is_solved_in_units_of_eps(nu):
    from scipy.linalg import eigh_tridiagonal

    # at eps = 1 the scaling is exact: the eigenvalues of the grid as built
    p = ModelParams(nu=nu)
    assert p.epsilon == 1.0
    for m_points in (2000, 4000):
        g = build_grid_hamiltonian(p, m_points)
        direct = eigh_tridiagonal(g.diag, g.offdiag, eigvals_only=True, select="i",
                                  select_range=(0, 5))
        assert np.array_equal(grid_spectrum(p, m_points, 6), direct)
    # in units of eps the spectrum does not depend on hbar, even where the
    # grid's entries are ~1e156
    big = ModelParams(nu=nu, hbar=1e75)
    np.testing.assert_allclose(grid_spectrum(big, 4000, 6) / big.epsilon, direct, rtol=1e-12)


GRID_NUS = [*np.linspace(1.0, 50.0, 97).tolist(), 1.294678, 150.0, 300.0, 2000.0]
GRID_UNITS = [{"hbar": 1.3, "mass": 0.7, "k": 2.1}, {"k": 1000.0}, {"hbar": 1e40}]
GRID_SHAPES = [(m, levels) for m in (200, 999, 2000, 4000) for levels in (3, 6, 51)]
# every strength at unit units, each at the next grid shape in turn, and
# four shapes at six strengths in each set of non-unit units
GRID_CASES = [({}, nu, *GRID_SHAPES[i % len(GRID_SHAPES)]) for i, nu in enumerate(GRID_NUS)]
GRID_CASES += [(units, nu, m, levels) for units in GRID_UNITS
               for nu in (1.0, 1.294678, 3.7, 49.9, 300.0, 2000.0)
               for m, levels in ((200, 51), (999, 3), (2000, 6), (4000, 6))]


def _grid_spectrum_by_scipy(params, m_points, n_levels):
    """The grid spectrum through `scipy.linalg.eigh_tridiagonal`, in units of eps."""
    from scipy.linalg import eigh_tridiagonal

    g = build_grid_hamiltonian(params, m_points)
    eps = params.epsilon
    return eigh_tridiagonal(g.diag / eps, g.offdiag / eps, eigvals_only=True, select="i",
                            select_range=(0, n_levels - 1)) * eps


@pytest.mark.parametrize("route", ["lapacke", "fallback"])
def test_grid_spectrum_matches_eigh_tridiagonal_bit_for_bit(monkeypatch, route):
    # numpy's own LAPACKE dstebz and scipy's are the same bisection; where
    # numpy ships none, the fallback is scipy's call itself
    cases = GRID_CASES
    if route == "fallback":
        monkeypatch.setattr(specfun, "_lapacke_dstebz", lambda: None)
        cases = GRID_CASES[::7]
    for units, nu, m_points, n_levels in cases:
        params = ModelParams(nu=nu, **units)
        assert np.array_equal(grid_spectrum(params, m_points, n_levels),
                              _grid_spectrum_by_scipy(params, m_points, n_levels)), \
            (units, nu, m_points, n_levels)


def test_grid_second_order_convergence():
    p = ModelParams(nu=1.5)
    exact = np.array([energy(p, n) for n in range(6)])
    err_coarse = np.abs(grid_spectrum(p, 2000, 6) - exact)
    err_fine = np.abs(grid_spectrum(p, 4000, 6) - exact)
    ratios = err_coarse / err_fine
    assert np.all(ratios > 3.6) and np.all(ratios < 4.4)
