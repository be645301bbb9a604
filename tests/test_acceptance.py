"""End-to-end acceptance gate: ten checks, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line;
without ``-s`` pytest shows the line only for failing checks.

Two checks assert an idealized degeneracy claim about the square-well
point nu = 1 -- that dropping the strength correction from f leaves no
commutator residual there.  The operators themselves disagree: the
bottom-of-tower entry of [b, b+] + f_uncorrected(H) is exactly 1 for
every nu >= 1, including nu = 1 (the b-matrix realizes alpha_1 = 2, so
[b, b+]_00 = 4 while the uncorrected -f gives 3).  Those two checks are
kept asserting the idealized claim and fail deliberately; everything
they say about nu > 1, and the pointwise square-well reduction of the
wavefunctions, is verified and green.
"""

import functools

import numpy as np
import pytest

from ptdeform.algebra import (
    ModelParams,
    alpha,
    alpha_by_recursion,
    energy,
    f_of,
)
from ptdeform.cli import RunConfig, run_verification
from ptdeform.opmat import (
    assemble_b,
    build_grid_hamiltonian,  # noqa: F401  (re-exported surface sanity)
    build_H,
    build_P,
    build_su11,
    build_X,
    casimir_matrices,
    check_identity_12,
    commutator,
    energy_diag,
    extended_algebra_residuals,
    grid_spectrum,
    identity,
    su11_residuals,
)
from ptdeform.specfun import gauss_legendre
from ptdeform.wavefun import (
    build_eigenfunction,
    chebyshev_points,
    gram_matrix,
    psi_second_deriv_value,
    psi_value,
    psi_value_legendre,
    square_well_state,
)

NU_SET = [1.0, 1.5, 2.0, 3.7]
N = 30
MARGIN = 4


@functools.lru_cache(maxsize=None)
def operator_set(nu: float):
    params = ModelParams(nu=nu)
    a, b = params.box
    rule = gauss_legendre(2 * N + 60, a, b)
    x_op = build_X(params, N, rule)
    p_op = build_P(params, N, rule)
    h_op = build_H(params, N)
    b_op, bplus_op = assemble_b(params, x_op, p_op, h_op)
    return params, rule, x_op, p_op, h_op, b_op, bplus_op


def report(title: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"{status}: {title}")
    assert not failures, "; ".join(failures)


def test_spectrum_matches_grid_oracle():
    failures = []
    for nu in NU_SET:
        params = ModelParams(nu=nu)
        exact = np.array([energy(params, n) for n in range(6)])
        coarse = grid_spectrum(params, 2000, 6)
        rel = float(np.max(np.abs(coarse - exact) / exact))
        if rel >= 1e-4:
            failures.append(f"nu={nu}: grid mismatch {rel:.3e} >= 1e-4")
        ratios = np.abs(coarse - exact) / np.abs(grid_spectrum(params, 4000, 6) - exact)
        if not (np.all(ratios > 3.6) and np.all(ratios < 4.4)):
            failures.append(
                f"nu={nu}: doubling ratio [{ratios.min():.3f}, {ratios.max():.3f}]"
                " outside 4 +- 10%"
            )
    report("closed-form spectrum matches the second-order grid oracle", failures)


def test_corrected_commutator_closes():
    failures = []
    for nu in NU_SET:
        params, _, _, _, _, b_op, bplus_op = operator_set(nu)
        f_diag = energy_diag(params, N, f_of)
        resid = (commutator(b_op, bplus_op) + f_diag).max_abs(MARGIN)
        if resid >= 1e-8:
            failures.append(f"nu={nu}: corrected residual {resid:.3e} >= 1e-8")
        from ptdeform.algebra import f_of_uncorrected

        unc = commutator(b_op, bplus_op) + energy_diag(params, N, f_of_uncorrected)
        n0 = float(np.real(unc.trusted(MARGIN)[0, 0]))
        if nu > 1.0:
            if abs(n0 - 1.0) >= 1e-6:
                failures.append(f"nu={nu}: uncorrected n=0 diagonal {n0!r} != 1")
        else:
            # idealized claim: no residual at the square-well point
            full = unc.max_abs(MARGIN)
            if full >= 1e-8:
                failures.append(
                    f"nu=1: uncorrected residual {full:.6f} >= 1e-8"
                    " (bottom-of-tower defect is exactly 1)"
                )
    report("deformed commutator [b, b+] = -f(H) closes on the trusted block", failures)


def test_ladder_coefficients_consistent():
    failures = []
    for nu in NU_SET:
        params, _, _, _, _, b_op, _ = operator_set(nu)
        recur = alpha_by_recursion(params, 50)
        worst = 0.0
        for n in range(1, 51):
            closed = alpha(params, n)
            worst = max(worst, abs(closed - recur[n]) / closed)
        if worst >= 1e-12:
            failures.append(f"nu={nu}: closed vs recursion {worst:.3e} >= 1e-12")
        block = b_op.trusted(MARGIN)
        sub = max(
            abs(float(block[n - 1, n].real) - alpha(params, n)) for n in range(1, 26)
        )
        if sub >= 1e-8:
            failures.append(f"nu={nu}: b-matrix subdiagonal off by {sub:.3e}")
    report("ladder coefficients agree across closed form, recursion, matrix", failures)


def test_casimir_constant():
    failures = []
    for nu in NU_SET:
        params, _, _, _, _, b_op, bplus_op = operator_set(nu)
        target = -params.strength() * identity(N)
        for form, label in zip(casimir_matrices(params, b_op, bplus_op), ("bb+", "b+b")):
            resid = (form - target).max_abs(MARGIN)
            if resid >= 1e-8:
                failures.append(f"nu={nu}: {label} form residual {resid:.3e}")
    report("Casimir operator is the constant -nu(nu-1) in both forms", failures)


def test_wavefunction_orthonormality_and_forms():
    failures = []
    for nu in NU_SET:
        params, rule, *_ = operator_set(nu)
        efs = [build_eigenfunction(params, n) for n in range(21)]
        gram = gram_matrix(efs, rule)
        g_resid = float(np.max(np.abs(gram - np.eye(21))))
        if g_resid >= 1e-9:
            failures.append(f"nu={nu}: Gram deviates {g_resid:.3e} >= 1e-9")
        for n in range(21):
            ladder = build_eigenfunction(params, n, method="ladder")
            closed = np.asarray(efs[n].basis_coeffs)
            built = np.asarray(ladder.basis_coeffs)
            c_resid = float(np.max(np.abs(built - closed))) / float(np.max(np.abs(closed)))
            if c_resid >= 1e-9:
                failures.append(f"nu={nu}, n={n}: ladder coefficients off {c_resid:.3e}")
        points = chebyshev_points(params, 100)
        for n in range(11):
            diff = psi_value(efs[n], points) - psi_value_legendre(params, n, points)
            p_resid = float(np.max(np.abs(diff)))
            if p_resid >= 1e-9:
                failures.append(f"nu={nu}, n={n}: the two closed forms differ {p_resid:.3e}")
    report("eigenfunctions are orthonormal and both closed forms agree", failures)


def test_operator_strength_identity():
    failures = []
    for nu in NU_SET:
        params, _, x_op, p_op, h_op, _, _ = operator_set(nu)
        resid = check_identity_12(params, x_op, p_op, h_op, MARGIN)
        if resid >= 1e-8:
            failures.append(f"nu={nu}: residual {resid:.3e} >= 1e-8")
    report("strength operator identity holds on the trusted block", failures)


def test_su11_reduction():
    failures = []
    for nu in NU_SET:
        params, _, _, _, h_op, b_op, bplus_op = operator_set(nu)
        j0, jp, jm = build_su11(params, b_op, bplus_op, h_op)
        residuals = su11_residuals(params, j0, jp, jm, MARGIN)
        for name, value in residuals.items():
            if value >= 1e-8:
                failures.append(f"nu={nu}: {name} residual {value:.3e} >= 1e-8")
    report("rescaled ladder operators satisfy su(1,1) with the right Casimir", failures)


def test_extended_algebra():
    failures = []
    for nu in NU_SET:
        params, _, _, _, h_op, b_op, bplus_op = operator_set(nu)
        c1, _ = casimir_matrices(params, b_op, bplus_op)
        residuals = extended_algebra_residuals(params, c1, b_op, bplus_op, h_op, MARGIN)
        for name, value in residuals.items():
            if value >= 1e-8:
                failures.append(f"nu={nu}: {name} residual {value:.3e} >= 1e-8")
    report("extended algebra with the central element closes", failures)


def test_square_well_limit():
    failures = []
    # idealized claim: the whole battery passes at nu = 1 without the
    # strength correction in f
    rep = run_verification(RunConfig(nu=1.0, use_uncorrected_f=True))
    if not rep.overall_pass:
        bad = ", ".join(
            f"{r.name}={r.residual:.6f}" for r in rep.relations if not r.passed
        )
        failures.append(f"uncorrected battery at nu=1 fails: {bad}")
    params = ModelParams(nu=1.0)
    points = chebyshev_points(params, 100)
    for n in range(11):
        ef = build_eigenfunction(params, n)
        diff = psi_value(ef, points) - square_well_state(params, n, points)
        resid = float(np.max(np.abs(diff)))
        if resid >= 1e-9:
            failures.append(f"n={n}: square-well reduction off {resid:.3e}")
    report("square-well point: uncorrected battery and wavefunction reduction", failures)


def test_schrodinger_residual():
    failures = []
    for nu in NU_SET:
        params = ModelParams(nu=nu)
        points = chebyshev_points(params, 100)
        v = params.v0 / np.cos(params.k * points) ** 2
        for n in range(11):
            ef = build_eigenfunction(params, n)
            psi = psi_value(ef, points)
            h_psi = -params.hbar**2 / (2.0 * params.mass) * psi_second_deriv_value(
                ef, points
            ) + v * psi
            e_n = energy(params, n)
            resid = float(np.max(np.abs(h_psi - e_n * psi)))
            bound = 1e-6 * abs(e_n) * float(np.max(np.abs(psi)))
            if resid >= bound:
                failures.append(f"nu={nu}, n={n}: residual {resid:.3e} >= {bound:.3e}")
    report("closed-form eigenfunctions satisfy the eigenvalue equation", failures)
