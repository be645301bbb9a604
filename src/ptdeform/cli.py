"""Command-line driver: verification battery and tabulation commands.

Subcommands
-----------
verify         run the full relation battery and emit a machine-readable report
spectrum       closed-form spectrum against the finite-difference grid oracle
wavefunctions  Gegenbauer vs Legendre state values on interior sample points
ladder         ladder coefficients and the ladder diagonal of the matrix b
scan-limit     defect of the uncorrected commutator function as nu approaches 1

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
Reports are deterministic for a fixed configuration, apart from the
timestamp and wall-time fields.
"""

from __future__ import annotations

import argparse
import contextvars
import csv
import io
import json
import math
import platform
import sys
import threading
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .algebra import (
    ModelParams,
    alpha,
    alpha_by_recursion,
    casimir_eigenvalue,
    energy,
    f_of,
    f_of_uncorrected,
    g_of,
    h_of,
    su11_matrix_elements,
)
from .opmat import (
    MAX_QUADRATURE_ORDER,
    TRUST_MARGIN,
    WAVEFUNCTION_STATES,
    bplus_second_form,
    build_X,  # noqa: F401  (perfbench/tests/test_spans.py patches it in this namespace)
    build_su11,
    casimir_matrices,
    check_identity_12,
    commutator,
    default_quadrature_order,
    energy_diag,
    extended_algebra_residuals,
    grid_spectrum,
    identity,
    operator_set,
    quadrature_floor,
    structure_residuals,
    su11_ordering_residual,
    su11_residuals,
    wavefunction_checks,
)
from .specfun import gauss_legendre
from .wavefun import (
    chebyshev_points,
    closed_form_states,
    ladder_climb,
    psi_form_tables,
    sample_tables,
    square_well_state,
)

SCHEMA_VERSION = 1

# Base tolerances for every named relation; --tolerance-scale multiplies
# all of them uniformly.
TOLERANCES: dict[str, float] = {
    "alpha_closed_vs_recursion": 1e-12,
    "g_grading": 1e-12,
    "corrected_f_scalar": 1e-11,
    "h_difference_equation": 1e-11,
    "casimir_scalar": 1e-11,
    "extended_scalar": 1e-11,
    "su11_scalar_closure": 1e-12,
    "su11_scalar_casimir": 1e-12,
    "x_hermitian": 1e-10,
    "x_structure": 1e-10,
    "p_hermitian": 1e-10,
    "commutator_x_p": 1e-9,
    "commutator_h_x": 1e-9,
    "commutator_h_p": 1e-8,
    "b_annihilates_ground": 1e-8,
    "b_ladder_diagonal_alpha": 1e-8,
    "b_off_ladder": 1e-8,
    "bplus_second_form": 1e-8,
    "commutator_h_b": 1e-8,
    "commutator_h_bplus": 1e-8,
    "corrected_f_commutator": 1e-8,
    "operator_identity_strength": 1e-8,
    "casimir_bbplus": 1e-8,
    "casimir_bplusb": 1e-8,
    "casimir_forms_agree": 1e-8,
    "casimir_hermitian": 1e-10,
    "extended_commutes_h": 1e-8,
    "extended_commutes_b": 1e-8,
    "extended_commutes_bplus": 1e-8,
    "extended_bilinear": 1e-8,
    "su11_j0_jplus": 1e-8,
    "su11_j0_jminus": 1e-8,
    "su11_jplus_jminus": 1e-8,
    "su11_casimir": 1e-8,
    "su11_orderings_agree": 1e-8,
    "ladder_vs_closed_form": 1e-9,
    "gram_identity": 1e-9,
    "adjointness_quadrature": 1e-10,
    "ground_state_annihilation": 1e-10,
    "legendre_form_pointwise": 1e-9,
    "schrodinger_residual": 1e-6,
    "square_well_reduction": 1e-9,
    "spectrum_grid_match": 1e-4,
}


# The memory a command may plan for, checked before anything is allocated.
# A number that a table command keeps costs about 300 bytes (a Python float,
# its list slot, its JSON text and key; tracemalloc measures 270-290), and a
# grid point about 200 (the grid vectors and the LAPACK workspace; 174).
MEMORY_BUDGET_BYTES = 2**30


def _check_memory(flags: str, numbers: int, bytes_each: int) -> None:
    need = numbers * bytes_each
    if need > MEMORY_BUDGET_BYTES:
        raise ValueError(f"{flags} would need about {need // 2**20} MB, above the budget of "
                         f"{MEMORY_BUDGET_BYTES // 2**20} MB")


def _check_order(params: ModelParams, basis_size: int, order: int | float, flag: str) -> None:
    """The checks every command makes at each strength it runs, the one named
    by ``flag``, at the quadrature order ``order``: the floor within the cap,
    the order within the cap, the order at or above the floor, and the units
    in range."""
    cap = MAX_QUADRATURE_ORDER
    floor = quadrature_floor(params, basis_size)
    if floor > cap:
        raise ValueError(
            f"nu = {params.nu:.6g} at N = {basis_size} puts the quadrature floor "
            f"ceil(2 max(N, {WAVEFUNCTION_STATES}) + 2nu + 10) above the maximum {cap}; lower "
            f"{flag} or --basis-size"
        )
    if order > cap:
        raise ValueError(f"quadrature order {order} is above the maximum {cap}; "
                         f"lower --quadrature-order or --basis-size")
    if order < floor:
        raise ValueError(f"quadrature order {order} is below the minimum {floor} that "
                         f"{flag} needs at N = {basis_size}")
    # b and the Casimir relations take sqrt(eps H) and eps^2; both stay in
    # double range when eps E_n = eps^2 (n + nu)^2 does for every level
    eps, top = params.epsilon, basis_size - 1
    low, high = (eps * energy(params, n) for n in (0, top))
    if not (low > 0.0 and math.isfinite(high)):
        raise ValueError(
            f"--hbar, --mass and --k put eps * E_n out of numerical range at "
            f"nu = {params.nu:.6g} (eps = {eps:.3g}, eps * E_0 = {low:.3g}, "
            f"eps * E_{top} = {high:.3g})"
        )


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by all subcommands."""

    nu: float | None = None
    v0: float | None = None
    hbar: float = 1.0
    mass: float = 0.5
    k: float = 1.0
    basis_size: int = 30
    quadrature_order: int | None = None
    grid_points: int = 2000
    output_format: str = "json"
    out_path: str | None = None
    use_uncorrected_f: bool = False
    tolerance_scale: float = 1.0

    def __post_init__(self) -> None:
        if (self.nu is None) == (self.v0 is None):
            raise ValueError("exactly one of nu and v0 must be given")
        for name in ("nu", "v0", "hbar", "mass", "k"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"--{name} must be a finite number, got {value}")
        if self.basis_size < 8:
            raise ValueError(f"basis size must be >= 8, got {self.basis_size}")
        if self.grid_points < 200:
            raise ValueError(f"grid points must be >= 200, got {self.grid_points}")
        _check_memory("--grid-points", self.grid_points, 200)
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if not 0.0 < self.tolerance_scale < math.inf:
            raise ValueError("--tolerance-scale must be positive and finite")
        params = self.params()  # validates the nu / v0 ranges
        _check_order(params, self.basis_size, self.effective_quadrature_order, "--nu/--v0")

    def params(self) -> ModelParams:
        if self.nu is not None:
            return ModelParams(hbar=self.hbar, mass=self.mass, k=self.k, nu=self.nu)
        return ModelParams.from_v0(self.v0, hbar=self.hbar, mass=self.mass, k=self.k)

    @property
    def effective_quadrature_order(self) -> int:
        if self.quadrature_order is not None:
            return self.quadrature_order
        return default_quadrature_order(self.params(), self.basis_size)

    def quadrature(self, params: ModelParams):
        a, b = params.box
        return gauss_legendre(self.effective_quadrature_order, a, b)

    def tolerance(self, name: str) -> float:
        # the table's own float at the default scale: a kept report holds
        # one float per relation fewer
        base = TOLERANCES[name]
        return base if self.tolerance_scale == 1.0 else base * self.tolerance_scale

    def model_echo(self, params: ModelParams) -> dict:
        return {
            "hbar": params.hbar,
            "mass": params.mass,
            "k": params.k,
            "nu": params.nu,
            "v0": params.v0,
            "epsilon": params.epsilon,
            "basis_size": self.basis_size,
            "quadrature_order": self.effective_quadrature_order,
            "grid_points": self.grid_points,
            "trust_margin": TRUST_MARGIN,
            "use_uncorrected_f": self.use_uncorrected_f,
            "tolerance_scale": self.tolerance_scale,
        }


@dataclass(frozen=True)
class RelationResult:
    name: str
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    model: dict
    relations: tuple[RelationResult, ...]
    overall_pass: bool
    versions: dict
    timestamp: str
    wall_time_s: float
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": "verify",
            "model": dict(self.model),
            "relations": [
                {
                    "name": r.name,
                    "residual": r.residual,
                    "tolerance": r.tolerance,
                    "pass": r.passed,
                }
                for r in self.relations
            ],
            "overall_pass": self.overall_pass,
            "versions": dict(self.versions),
            "timestamp": self.timestamp,
            "wall_time_s": self.wall_time_s,
        }


def _versions() -> dict:
    # scipy's version only where something has loaded it (the grid oracle's
    # fallback where numpy ships no dstebz): importing it for its version
    # alone would cost every fresh verify about 17 ms
    scipy = sys.modules.get("scipy")
    return {
        "ptdeform": __version__,
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", None),
        "python": platform.python_version(),
    }


def _rel(diff: float, scale: float) -> float:
    return abs(diff) / max(1.0, abs(scale))


class _Background:
    """``fn(*args)`` on a thread of its own, started at once.  The thread
    runs in a copy of the starting thread's context: numpy's error state is
    a context variable, so an overflow there raises as it would here.
    `result` joins it and returns fn's value or raises fn's exception
    unchanged; `join` only waits."""

    def __init__(self, fn, *args) -> None:
        self._outcome: tuple = (None, None)
        self._thread = threading.Thread(target=contextvars.copy_context().run,
                                        args=(self._run, fn, args))
        self._thread.start()

    def _run(self, fn, args) -> None:
        try:
            self._outcome = (fn(*args), None)
        except BaseException as exc:  # handed to the caller by result()
            self._outcome = (None, exc)

    def join(self) -> None:
        self._thread.join()

    def result(self):
        self.join()
        value, error = self._outcome
        if error is not None:
            raise error
        return value


def run_verification(config: RunConfig) -> VerificationReport:
    """Evaluate every relation in the battery and collect the report."""
    t0 = time.perf_counter()
    params = config.params()
    # The grid oracle uses nothing the other layers compute, and LAPACK's
    # bisection runs outside the GIL, so it runs on a second thread beside
    # them; it never outlives the call, whatever the other layers raise.
    grid = _Background(grid_spectrum, params, config.grid_points, 6)
    try:
        return _verification(config, params, grid, t0)
    finally:
        grid.join()


def _verification(config: RunConfig, params: ModelParams, grid: _Background,
                  t0: float) -> VerificationReport:
    """`run_verification` once the grid oracle runs: every other layer, then
    the oracle's levels from ``grid``, then the report."""
    n_basis = config.basis_size
    margin = TRUST_MARGIN
    rule = config.quadrature(params)
    nu = params.nu
    eps = params.epsilon
    checks: list[tuple[str, float]] = []

    # --- scalar layer ---------------------------------------------------
    # Each level function is evaluated once, on the vector of levels; the
    # relations read its values as lists of floats, each in its own arithmetic.
    n_scan = 50
    energies = energy(params, np.arange(n_scan + 1))
    e, f, g, h = (values.tolist() for values in (
        energies, f_of(params, energies), g_of(params, energies), h_of(params, energies)))
    closed = [alpha(params, n) for n in range(n_scan + 1)]
    recur = alpha_by_recursion(params, n_scan)
    jp = [su11_matrix_elements(params, n)[1] for n in range(n_scan + 1)]
    cas = casimir_eigenvalue(params)
    steps, levels = range(n_scan), range(1, n_scan + 1)  # n -> n+1 and n-1 -> n
    checks += [
        ("alpha_closed_vs_recursion", max(_rel(c - r, c) for c, r in zip(closed, recur))),
        ("g_grading", max(_rel(e[n] - g[n] - e[n - 1], e[n]) for n in levels)),
        ("corrected_f_scalar",
         max(_rel(closed[n + 1] ** 2 - closed[n] ** 2 + f[n], f[n]) for n in steps)),
        ("h_difference_equation", max(_rel(h[n] - h[n - 1] - f[n], f[n]) for n in levels)),
        ("casimir_scalar",
         max(_rel(closed[n + 1] ** 2 + h[n] - cas, closed[n + 1] ** 2) for n in steps)),
        ("extended_scalar", max(
            _rel((n + nu) * closed[n + 1] ** 2 - (n + nu - 1.0) * closed[n] ** 2
                 - (cas + (n + nu) * (1.0 + 3.0 * (n + nu))),
                 (n + nu) * closed[n + 1] ** 2)
            for n in steps)),
        ("su11_scalar_closure",
         max(_rel(jp[n - 1] ** 2 - jp[n] ** 2 + 2.0 * (n + nu), (n + nu) ** 2) for n in levels)),
        ("su11_scalar_casimir", max(
            _rel(jp[n] ** 2 - (n + nu) * (n + nu + 1.0) + params.strength(), (n + nu) ** 2)
            for n in range(n_scan + 1))),
    ]

    # --- operator layer ---------------------------------------------------
    # The algebra runs on the tridiagonal band of X, P and b; the structure
    # relations read the three-term defects of X and P beside the band, so
    # content off the band still shows.
    ops = operator_set(params, n_basis, rule)
    x_op, p_op, h_op, b_op, bplus_op = ops[:5]
    one = identity(n_basis)
    structure = structure_residuals(params, ops, margin)
    checks.extend((name, structure.pop(name))
                  for name in ("x_hermitian", "x_structure", "p_hermitian"))

    ihbar_k2 = 1j * params.hbar * params.k**2
    ihbar_m = 1j * params.hbar / params.mass
    rhs_hp = ihbar_k2 * (2.0 * (x_op @ h_op) - 0.5 * eps * x_op - ihbar_m * p_op)
    g_diag = energy_diag(params, n_basis, g_of)
    f_diag = energy_diag(params, n_basis, f_of_uncorrected if config.use_uncorrected_f else f_of)
    checks += [
        ("commutator_x_p",
         (commutator(x_op, p_op) - ihbar_k2 * (one - x_op @ x_op)).max_abs(margin)),
        ("commutator_h_x", (commutator(h_op, x_op) + ihbar_m * p_op).max_abs(margin)),
        ("commutator_h_p", (commutator(h_op, p_op) - rhs_hp).max_abs(margin)),
        *structure.items(),  # the b_* relations
        ("bplus_second_form",
         (bplus_second_form(params, x_op, p_op, h_op) - bplus_op).max_abs(margin)),
        ("commutator_h_b", (commutator(h_op, b_op) + (b_op @ g_diag)).max_abs(margin)),
        ("commutator_h_bplus", (commutator(h_op, bplus_op) - (g_diag @ bplus_op)).max_abs(margin)),
        ("corrected_f_commutator", (commutator(b_op, bplus_op) + f_diag).max_abs(margin)),
        ("operator_identity_strength", check_identity_12(params, x_op, p_op, h_op, margin)),
    ]

    c1, c2 = casimir_matrices(params, b_op, bplus_op)
    cas_target = cas * one
    checks.append(("casimir_bbplus", (c1 - cas_target).max_abs(margin)))
    checks.append(("casimir_bplusb", (c2 - cas_target).max_abs(margin)))
    checks.append(("casimir_forms_agree", (c1 - c2).max_abs(margin)))
    checks.append(("casimir_hermitian", c1.hermiticity_residual(margin)))

    checks.extend(extended_algebra_residuals(params, c1, b_op, bplus_op, h_op, margin).items())

    j0_op, jp_op, jm_op = build_su11(params, b_op, bplus_op, h_op)
    checks.extend(su11_residuals(params, j0_op, jp_op, jm_op, margin).items())
    checks.append(("su11_orderings_agree", su11_ordering_residual(params, bplus_op, margin)))

    # --- wavefunction layer ---------------------------------------------
    # The closed-form states, their norms from one tower, serve the ladder check.
    n_ladder = min(25, n_basis - 1)
    efs = closed_form_states(params, n_ladder + 1)
    ladder_resid = 0.0
    for n, ladder in enumerate(ladder_climb(params, n_ladder)):
        coeffs = np.asarray(efs[n].basis_coeffs)
        scale = float(np.max(np.abs(coeffs)))
        ladder_resid = max(ladder_resid, float(np.max(np.abs(ladder - coeffs))) / scale)
    checks.append(("ladder_vs_closed_form", ladder_resid))
    checks.extend(wavefunction_checks(params, rule).items())

    # psi, the lowering action, psi'' and the Legendre form of the sampled
    # states, from one table fill
    points = chebyshev_points(params, 100)
    sampled = sample_tables(params, 11, points)
    psi = sampled.psi
    checks.append(("ground_state_annihilation", float(np.max(np.abs(sampled.lower[0])))))
    checks.append(("legendre_form_pointwise", float(np.max(np.abs(psi - sampled.legendre)))))

    potential = params.v0 / np.cos(params.k * points) ** 2
    schro = 0.0
    for n in range(11):
        h_psi = -params.hbar**2 / (2.0 * params.mass) * sampled.d2psi[n] + potential * psi[n]
        schro = max(schro, float(np.max(np.abs(h_psi - e[n] * psi[n])))
                    / (abs(e[n]) * float(np.max(np.abs(psi[n])))))
    checks.append(("schrodinger_residual", schro))

    if nu == 1.0:
        sw_resid = max(
            float(np.max(np.abs(psi[n] - square_well_state(params, n, points))))
            for n in range(11)
        )
        checks.append(("square_well_reduction", sw_resid))

    # --- independent grid oracle, from its thread --------------------------
    levels = grid.result()
    checks.append((
        "spectrum_grid_match",
        max(abs(levels[n] - e[n]) / e[n] for n in range(6)),
    ))

    relations = []
    for name, resid in checks:
        tol = config.tolerance(name)
        relations.append(RelationResult(name=name, residual=float(resid), tolerance=tol,
                                        passed=bool(resid <= tol)))
    return VerificationReport(
        model=config.model_echo(params),
        relations=tuple(relations),
        overall_pass=all(r.passed for r in relations),
        versions=_versions(),
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        wall_time_s=time.perf_counter() - t0,
    )


# --------------------------------------------------------------------------
# table commands


def cmd_spectrum(config: RunConfig, n_max: int) -> dict:
    params = config.params()
    grid = grid_spectrum(params, config.grid_points, n_max + 1)
    rows = []
    for n in range(n_max + 1):
        e_closed = energy(params, n)
        rows.append([n, e_closed, float(grid[n]), abs(float(grid[n]) - e_closed) / e_closed])
    return _table_payload(
        "spectrum", config, params,
        columns=["n", "energy_closed", "energy_grid", "rel_diff"],
        rows=rows,
    )


def cmd_wavefunctions(config: RunConfig, n_max: int, samples: int) -> dict:
    params = config.params()
    points = chebyshev_points(params, samples)
    geg, leg = psi_form_tables(params, n_max + 1, points)
    columns = ["x"]
    for n in range(n_max + 1):
        columns += [f"psi{n}_gegenbauer", f"psi{n}_legendre", f"psi{n}_diff"]
    # per sample: psi_n in both forms and their difference, level by level
    cells = np.stack([geg, leg, geg - leg], axis=1).reshape(3 * (n_max + 1), samples).T
    rows = [[float(x), *row] for x, row in zip(points, cells.tolist())]
    return _table_payload("wavefunctions", config, params, columns=columns, rows=rows)


def cmd_ladder(config: RunConfig, n_max: int) -> dict:
    params = config.params()
    b_op = operator_set(params, config.basis_size, config.quadrature(params)).b
    b_ladder = b_op.diagonal(1, TRUST_MARGIN)  # <n-1|b|n> on the trusted block
    recur = alpha_by_recursion(params, n_max)
    rows = []
    for n in range(n_max + 1):
        a_closed = alpha(params, n)
        b_entry = float(b_ladder[n - 1].real) if 1 <= n <= b_ladder.size else None
        # one list per row: the payload keeps every row, and extending a
        # shorter list over-allocates it
        rows.append([n, a_closed, recur[n], abs(a_closed - recur[n]),
                     b_entry, None if b_entry is None else abs(b_entry - a_closed)])
    return _table_payload(
        "ladder", config, params,
        columns=["n", "alpha_closed", "alpha_recursion", "alpha_diff",
                 "b_ladder_diagonal", "b_vs_alpha"],
        rows=rows,
    )


def cmd_scan_limit(config: RunConfig, nu_values: list[float]) -> dict:
    base = config.params()
    rows = []
    for nu in nu_values:
        params = ModelParams(hbar=base.hbar, mass=base.mass, k=base.k, nu=nu)
        ops = operator_set(params, config.basis_size, config.quadrature(params))
        f_diag = energy_diag(params, config.basis_size, f_of_uncorrected)
        resid = commutator(ops.b, ops.bplus) + f_diag
        diag = np.real(resid.diagonal(0, TRUST_MARGIN))
        strength = nu * (nu - 1.0)
        rows.append([
            nu,
            resid.max_abs(TRUST_MARGIN),
            float(diag[0]),
            float(diag[1]),
            float(np.mean(np.abs(diag))),
            strength / ((1.0 + nu) * nu),
        ])
    return _table_payload(
        "scan-limit", config, base,
        columns=["nu", "max_abs_residual", "diag_residual_n0", "diag_residual_n1",
                 "mean_abs_diag_residual", "predicted_n1_term"],
        rows=rows,
    )


def _table_payload(command: str, config: RunConfig, params: ModelParams,
                   columns: list[str], rows: list[list]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "model": config.model_echo(params),
        "columns": columns,
        "rows": rows,
    }


# --------------------------------------------------------------------------
# serialization


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def payload_to_json(payload: dict) -> str:
    if "columns" in payload:
        body = dict(payload)
        body["rows"] = [dict(zip(payload["columns"], row)) for row in payload["rows"]]
        del body["columns"]
        return json.dumps(body, indent=2) + "\n"
    return json.dumps(payload, indent=2) + "\n"


def payload_to_csv(payload: dict) -> str:
    buf = io.StringIO()
    buf.write(f"# command={payload['command']}\n")
    buf.write(f"# schema_version={payload['schema_version']}\n")
    for key, value in payload["model"].items():
        buf.write(f"# {key}={_format_cell(value)}\n")
    for key, value in payload.get("versions", {}).items():
        buf.write(f"# version_{key}={value}\n")
    if "overall_pass" in payload:
        buf.write(f"# overall_pass={_format_cell(payload['overall_pass'])}\n")
        buf.write(f"# timestamp={payload['timestamp']}\n")
        buf.write(f"# wall_time_s={_format_cell(payload['wall_time_s'])}\n")
    writer = csv.writer(buf, lineterminator="\n")
    if "columns" in payload:
        writer.writerow(payload["columns"])
        for row in payload["rows"]:
            writer.writerow([_format_cell(v) for v in row])
    else:
        writer.writerow(["name", "residual", "tolerance", "pass"])
        for r in payload["relations"]:
            writer.writerow([
                r["name"],
                _format_cell(r["residual"]),
                _format_cell(r["tolerance"]),
                _format_cell(r["pass"]),
            ])
    return buf.getvalue()


def render_payload(payload: dict, output_format: str) -> str:
    return payload_to_json(payload) if output_format == "json" else payload_to_csv(payload)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# --------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this contract wants 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_model_flags(parser: argparse.ArgumentParser, require_strength: bool) -> None:
    if require_strength:
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument("--nu", type=float, help="well-strength index (nu >= 1)")
        group.add_argument("--v0", type=float, help="well depth; converted to nu internally")
    parser.add_argument("--hbar", type=float, default=1.0)
    parser.add_argument("--mass", type=float, default=0.5)
    parser.add_argument("--k", type=float, default=1.0)
    parser.add_argument("--basis-size", type=int, default=30)
    parser.add_argument("--quadrature-order", type=int, default=None,
                        help=f"Gauss-Legendre order, from the floor "
                             f"ceil(2*max(basis_size, {WAVEFUNCTION_STATES}) + 2*nu + 10) to "
                             f"{MAX_QUADRATURE_ORDER} (default: the larger of the floor and "
                             f"2*max(basis_size, {WAVEFUNCTION_STATES}) + 60)")
    parser.add_argument("--grid-points", type=int, default=2000)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--use-uncorrected-f", action="store_true",
                        help="drop the strength correction from f in the commutator relation")
    parser.add_argument("--tolerance-scale", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ptdeform", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_verify = sub.add_parser("verify", help="run the full relation battery")
    _add_model_flags(p_verify, require_strength=True)

    p_spectrum = sub.add_parser("spectrum", help="closed-form vs grid spectrum")
    _add_model_flags(p_spectrum, require_strength=True)
    p_spectrum.add_argument("--n-max", type=int, default=5)

    p_wave = sub.add_parser("wavefunctions", help="both closed forms on sample points")
    _add_model_flags(p_wave, require_strength=True)
    p_wave.add_argument("--n-max", type=int, default=5)
    p_wave.add_argument("--samples", type=int, default=100)

    p_ladder = sub.add_parser("ladder", help="ladder coefficients and the matrix b")
    _add_model_flags(p_ladder, require_strength=True)
    p_ladder.add_argument("--n-max", type=int, default=25)

    p_scan = sub.add_parser("scan-limit", help="uncorrected-commutator defect across nu")
    _add_model_flags(p_scan, require_strength=False)
    p_scan.add_argument("--nu-list", default="1,1.01,1.1,1.5,2,3.7",
                        help="comma-separated nu values (each >= 1)")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # scan-limit has no --nu/--v0 because it sweeps its own strengths; its
    # config is anchored at nu = 1, and main checks --quadrature-order
    # against each of them
    return RunConfig(
        nu=getattr(args, "nu", 1.0),
        v0=getattr(args, "v0", None),
        hbar=args.hbar,
        mass=args.mass,
        k=args.k,
        basis_size=args.basis_size,
        quadrature_order=None if args.subcommand == "scan-limit" else args.quadrature_order,
        grid_points=args.grid_points,
        output_format=args.format,
        out_path=args.out,
        use_uncorrected_f=args.use_uncorrected_f,
        tolerance_scale=args.tolerance_scale,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises for --help (0) and, via _Parser.error, usage (1)
        return int(exc.code or 0)

    # A non-finite intermediate raises FloatingPointError (an ArithmeticError)
    # at its first operation instead of printing a numpy warning; underflow
    # to zero is harmless and stays silent.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.subcommand == "scan-limit":
                nu_values = [float(s) for s in str(args.nu_list).split(",") if s.strip()]
                if not nu_values or not all(1.0 <= nu < math.inf for nu in nu_values):
                    raise ValueError("--nu-list needs comma-separated finite values, each >= 1")
            n_max = getattr(args, "n_max", 0)
            if n_max < 0:
                raise ValueError(f"--n-max must be >= 0, got {n_max}")
            samples = getattr(args, "samples", 1)
            if samples < 1:
                raise ValueError(f"--samples must be >= 1, got {samples}")
            # the cells of each table
            if args.subcommand == "wavefunctions":
                _check_memory("--n-max and --samples", samples * (3 * n_max + 4), 300)
            elif args.subcommand in ("spectrum", "ladder"):
                columns = 4 if args.subcommand == "spectrum" else 6
                _check_memory("--n-max", (n_max + 1) * columns, 300)
            if args.subcommand == "spectrum" and n_max >= args.grid_points:
                raise ValueError(f"--n-max {n_max} asks for {n_max + 1} levels, more than the "
                                 f"{args.grid_points} points of --grid-points")
            config = _config_from_args(args)
            if args.subcommand == "scan-limit":
                # every row at one order, --quadrature-order or the largest
                # default, checked at each strength, the largest floor first
                base = config.params()
                order = args.quadrature_order
                if order is None:
                    order = max(default_quadrature_order(replace(base, nu=nu), config.basis_size)
                                for nu in nu_values)
                for nu in sorted(nu_values, reverse=True):
                    _check_order(replace(base, nu=nu), config.basis_size, order, "--nu-list")
                config = replace(config, quadrature_order=order)

            if args.subcommand == "verify":
                report = run_verification(config)
                text = render_payload(report.to_dict(), config.output_format)
                _write_output(text, config.out_path)
                return 0 if report.overall_pass else 2
            if args.subcommand == "spectrum":
                payload = cmd_spectrum(config, n_max)
            elif args.subcommand == "wavefunctions":
                payload = cmd_wavefunctions(config, n_max, samples)
            elif args.subcommand == "ladder":
                payload = cmd_ladder(config, n_max)
            else:
                payload = cmd_scan_limit(config, nu_values)
            _write_output(render_payload(payload, config.output_format), config.out_path)
            return 0
    except ValueError as exc:  # includes QuadratureOrderError
        print(f"ptdeform: error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # finite input whose intermediate values leave double range
        print(f"ptdeform: error: input out of numerical range ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ptdeform: i/o error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
