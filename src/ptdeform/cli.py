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
import csv
import io
import json
import math
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
import scipy

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
    adjointness_residual,
    bplus_second_form,
    build_X,  # noqa: F401  (perfbench/tests/test_spans.py patches it in this namespace)
    build_su11,
    casimir_matrices,
    check_identity_12,
    commutator,
    energy_diag,
    extended_algebra_residuals,
    grid_spectrum,
    identity,
    operator_set,
    su11_ordering_residual,
    su11_residuals,
)
from .specfun import gauss_legendre
from .wavefun import (
    build_eigenfunction,
    chebyshev_points,
    gram_matrix,
    lowering_apply,
    psi_second_deriv_value,
    psi_value,
    psi_value_legendre,
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
    trust_margin: int = 4

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
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if not 0.0 < self.tolerance_scale < math.inf:
            raise ValueError("--tolerance-scale must be positive and finite")
        if self.trust_margin < 0 or self.trust_margin >= self.basis_size - 1:
            raise ValueError("trust margin must leave a nonempty trusted block")
        params = self.params()  # validates nu / v0 ranges
        if self.quadrature_order is not None:
            needed = math.ceil(2 * self.basis_size + 2 * params.nu + 10)
            if self.quadrature_order < needed:
                raise ValueError(
                    f"quadrature order {self.quadrature_order} is below the minimum {needed}"
                )

    def params(self) -> ModelParams:
        if self.nu is not None:
            return ModelParams(hbar=self.hbar, mass=self.mass, k=self.k, nu=self.nu)
        return ModelParams.from_v0(self.v0, hbar=self.hbar, mass=self.mass, k=self.k)

    @property
    def effective_quadrature_order(self) -> int:
        return self.quadrature_order if self.quadrature_order is not None else 2 * self.basis_size + 60

    def quadrature(self, params: ModelParams):
        a, b = params.box
        return gauss_legendre(self.effective_quadrature_order, a, b)

    def tolerance(self, name: str) -> float:
        return TOLERANCES[name] * self.tolerance_scale

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
            "trust_margin": self.trust_margin,
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

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        return cls(
            model=dict(d["model"]),
            relations=tuple(
                RelationResult(
                    name=r["name"],
                    residual=r["residual"],
                    tolerance=r["tolerance"],
                    passed=r["pass"],
                )
                for r in d["relations"]
            ),
            overall_pass=d["overall_pass"],
            versions=dict(d["versions"]),
            timestamp=d["timestamp"],
            wall_time_s=d["wall_time_s"],
            schema_version=d["schema_version"],
        )


def _versions() -> dict:
    return {
        "ptdeform": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _rel(diff: float, scale: float) -> float:
    return abs(diff) / max(1.0, abs(scale))


def run_verification(config: RunConfig) -> VerificationReport:
    """Evaluate every relation in the battery and collect the report."""
    t0 = time.perf_counter()
    params = config.params()
    n_basis = config.basis_size
    margin = config.trust_margin
    rule = config.quadrature(params)
    nu = params.nu
    eps = params.epsilon
    checks: list[tuple[str, float]] = []

    # --- scalar layer ---------------------------------------------------
    n_scan = 50
    closed = [alpha(params, n) for n in range(n_scan + 1)]
    recur = alpha_by_recursion(params, n_scan)
    checks.append((
        "alpha_closed_vs_recursion",
        max(_rel(c - r, c) for c, r in zip(closed, recur)),
    ))
    checks.append((
        "g_grading",
        max(
            _rel(energy(params, n) - g_of(params, energy(params, n)) - energy(params, n - 1),
                 energy(params, n))
            for n in range(1, n_scan + 1)
        ),
    ))
    checks.append((
        "corrected_f_scalar",
        max(
            _rel(closed[n + 1] ** 2 - closed[n] ** 2 + f_of(params, energy(params, n)),
                 f_of(params, energy(params, n)))
            for n in range(n_scan)
        ),
    ))
    checks.append((
        "h_difference_equation",
        max(
            _rel(h_of(params, energy(params, n)) - h_of(params, energy(params, n - 1))
                 - f_of(params, energy(params, n)),
                 f_of(params, energy(params, n)))
            for n in range(1, n_scan + 1)
        ),
    ))
    cas = casimir_eigenvalue(params)
    checks.append((
        "casimir_scalar",
        max(
            _rel(closed[n + 1] ** 2 + h_of(params, energy(params, n)) - cas, closed[n + 1] ** 2)
            for n in range(n_scan)
        ),
    ))
    checks.append((
        "extended_scalar",
        max(
            _rel((n + nu) * closed[n + 1] ** 2 - (n + nu - 1.0) * closed[n] ** 2
                 - (cas + (n + nu) * (1.0 + 3.0 * (n + nu))),
                 (n + nu) * closed[n + 1] ** 2)
            for n in range(n_scan)
        ),
    ))
    jp = [su11_matrix_elements(params, n)[1] for n in range(n_scan + 1)]
    checks.append((
        "su11_scalar_closure",
        max(
            _rel(jp[n - 1] ** 2 - jp[n] ** 2 + 2.0 * (n + nu), (n + nu) ** 2)
            for n in range(1, n_scan + 1)
        ),
    ))
    checks.append((
        "su11_scalar_casimir",
        max(
            _rel(jp[n] ** 2 - (n + nu) * (n + nu + 1.0) + params.strength(), (n + nu) ** 2)
            for n in range(n_scan + 1)
        ),
    ))

    # --- operator layer ---------------------------------------------------
    x_op, p_op, h_op, b_op, bplus_op = operator_set(params, n_basis, rule)
    one = identity(n_basis)

    checks.append(("x_hermitian", x_op.hermiticity_residual(margin)))
    xt = x_op.trusted(margin)
    off_band = np.abs(np.triu(xt, 2)) + np.abs(np.tril(xt, -2))
    checks.append((
        "x_structure",
        max(
            float(np.max(np.abs(np.diag(xt)))),
            float(np.max(off_band)),
            float(np.max(np.abs(xt.imag))),
        ),
    ))
    checks.append(("p_hermitian", p_op.hermiticity_residual(margin)))

    ihbar_k2 = 1j * params.hbar * params.k**2
    checks.append((
        "commutator_x_p",
        (commutator(x_op, p_op) - ihbar_k2 * (one - x_op @ x_op)).max_abs(margin),
    ))
    checks.append((
        "commutator_h_x",
        (commutator(h_op, x_op) + (1j * params.hbar / params.mass) * p_op).max_abs(margin),
    ))
    rhs_hp = ihbar_k2 * (
        2.0 * (x_op @ h_op) - 0.5 * eps * x_op - (1j * params.hbar / params.mass) * p_op
    )
    checks.append(("commutator_h_p", (commutator(h_op, p_op) - rhs_hp).max_abs(margin)))

    keep = n_basis - margin
    b_block = b_op.trusted(margin)
    checks.append(("b_annihilates_ground", float(np.max(np.abs(b_block[:, 0])))))
    ladder_limit = min(25, keep - 1)
    checks.append((
        "b_ladder_diagonal_alpha",
        max(abs(b_block[n - 1, n] - alpha(params, n)) for n in range(1, ladder_limit + 1)),
    ))
    mask = np.ones_like(b_block, dtype=bool)
    idx = np.arange(1, keep)
    mask[idx - 1, idx] = False
    checks.append(("b_off_ladder", float(np.max(np.abs(b_block[mask])))))

    checks.append((
        "bplus_second_form",
        (bplus_second_form(params, x_op, p_op, h_op) - bplus_op).max_abs(margin),
    ))
    g_diag = energy_diag(params, n_basis, g_of)
    checks.append((
        "commutator_h_b",
        (commutator(h_op, b_op) + (b_op @ g_diag)).max_abs(margin),
    ))
    checks.append((
        "commutator_h_bplus",
        (commutator(h_op, bplus_op) - (g_diag @ bplus_op)).max_abs(margin),
    ))

    f_fn = f_of_uncorrected if config.use_uncorrected_f else f_of
    f_diag = energy_diag(params, n_basis, f_fn)
    checks.append((
        "corrected_f_commutator",
        (commutator(b_op, bplus_op) + f_diag).max_abs(margin),
    ))

    checks.append((
        "operator_identity_strength",
        check_identity_12(params, x_op, p_op, h_op, margin),
    ))

    c1, c2 = casimir_matrices(params, b_op, bplus_op)
    cas_target = cas * one
    checks.append(("casimir_bbplus", (c1 - cas_target).max_abs(margin)))
    checks.append(("casimir_bplusb", (c2 - cas_target).max_abs(margin)))
    checks.append(("casimir_forms_agree", (c1 - c2).max_abs(margin)))
    checks.append(("casimir_hermitian", c1.hermiticity_residual(margin)))

    checks.extend(extended_algebra_residuals(params, b_op, bplus_op, h_op, margin).items())

    j0_op, jp_op, jm_op = build_su11(params, b_op, bplus_op, h_op)
    checks.extend(su11_residuals(params, j0_op, jp_op, jm_op, margin).items())
    checks.append(("su11_orderings_agree", su11_ordering_residual(params, bplus_op, margin)))

    # --- wavefunction layer ---------------------------------------------
    n_states = 21
    efs = [build_eigenfunction(params, n) for n in range(n_states)]
    ladder_resid = 0.0
    for n in range(min(25, n_basis - 1) + 1):
        closed = np.asarray(build_eigenfunction(params, n, "closed_form").basis_coeffs)
        ladder = np.asarray(build_eigenfunction(params, n, "ladder").basis_coeffs)
        scale = float(np.max(np.abs(closed)))
        ladder_resid = max(ladder_resid, float(np.max(np.abs(ladder - closed))) / scale)
    checks.append(("ladder_vs_closed_form", ladder_resid))

    gram = gram_matrix(efs, rule)
    checks.append(("gram_identity", float(np.max(np.abs(gram - np.eye(n_states))))))
    checks.append(("adjointness_quadrature", adjointness_residual(params, efs, rule)))

    points = chebyshev_points(params, 100)
    checks.append((
        "ground_state_annihilation",
        float(np.max(np.abs(lowering_apply(efs[0], points)))),
    ))
    leg_resid = max(
        float(np.max(np.abs(psi_value(efs[n], points) - psi_value_legendre(params, n, points))))
        for n in range(min(11, n_states))
    )
    checks.append(("legendre_form_pointwise", leg_resid))

    schro = 0.0
    for n in range(11):
        ef = efs[n]
        e_n = energy(params, n)
        psi = psi_value(ef, points)
        h_psi = (
            -params.hbar**2 / (2.0 * params.mass) * psi_second_deriv_value(ef, points)
            + params.v0 / np.cos(params.k * points) ** 2 * psi
        )
        schro = max(schro, float(np.max(np.abs(h_psi - e_n * psi))) / (abs(e_n) * float(np.max(np.abs(psi)))))
    checks.append(("schrodinger_residual", schro))

    if nu == 1.0:
        sw_resid = max(
            float(np.max(np.abs(psi_value(efs[n], points) - square_well_state(params, n, points))))
            for n in range(11)
        )
        checks.append(("square_well_reduction", sw_resid))

    # --- independent grid oracle ------------------------------------------
    grid = grid_spectrum(params, config.grid_points, 6)
    checks.append((
        "spectrum_grid_match",
        max(abs(grid[n] - energy(params, n)) / energy(params, n) for n in range(6)),
    ))

    relations = tuple(
        RelationResult(
            name=name,
            residual=float(resid),
            tolerance=config.tolerance(name),
            passed=bool(resid <= config.tolerance(name)),
        )
        for name, resid in checks
    )
    return VerificationReport(
        model=config.model_echo(params),
        relations=relations,
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
    efs = [build_eigenfunction(params, n) for n in range(n_max + 1)]
    columns = ["x"]
    for n in range(n_max + 1):
        columns += [f"psi{n}_gegenbauer", f"psi{n}_legendre", f"psi{n}_diff"]
    rows = []
    geg = [psi_value(ef, points) for ef in efs]
    leg = [psi_value_legendre(params, n, points) for n in range(n_max + 1)]
    for i, x in enumerate(points):
        row = [float(x)]
        for n in range(n_max + 1):
            row += [float(geg[n][i]), float(leg[n][i]), float(geg[n][i] - leg[n][i])]
        rows.append(row)
    return _table_payload("wavefunctions", config, params, columns=columns, rows=rows)


def cmd_ladder(config: RunConfig, n_max: int) -> dict:
    params = config.params()
    b_op = operator_set(params, config.basis_size, config.quadrature(params)).b
    keep = config.basis_size - config.trust_margin
    recur = alpha_by_recursion(params, n_max)
    rows = []
    for n in range(n_max + 1):
        a_closed = alpha(params, n)
        row = [n, a_closed, recur[n], abs(a_closed - recur[n])]
        if 1 <= n <= keep - 1:
            b_entry = float(b_op.data[n - 1, n].real)
            row += [b_entry, abs(b_entry - a_closed)]
        else:
            row += [None, None]
        rows.append(row)
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
        diag = np.real(np.diag(resid.trusted(config.trust_margin)))
        strength = nu * (nu - 1.0)
        rows.append([
            nu,
            resid.max_abs(config.trust_margin),
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
                        help="Gauss-Legendre order (default 2*basis_size + 60)")
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
    # config is anchored at nu = 1
    return RunConfig(
        nu=getattr(args, "nu", 1.0),
        v0=getattr(args, "v0", None),
        hbar=args.hbar,
        mass=args.mass,
        k=args.k,
        basis_size=args.basis_size,
        quadrature_order=args.quadrature_order,
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
            config = _config_from_args(args)

            if args.subcommand == "verify":
                report = run_verification(config)
                text = render_payload(report.to_dict(), config.output_format)
                _write_output(text, config.out_path)
                return 0 if report.overall_pass else 2
            if args.subcommand == "spectrum":
                payload = cmd_spectrum(config, n_max)
            elif args.subcommand == "wavefunctions":
                payload = cmd_wavefunctions(config, n_max, args.samples)
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
