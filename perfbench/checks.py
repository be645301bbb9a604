"""The benchmark's own check of each operation's output.

The expected values come from the closed forms, computed here, and the
tolerances are this file's, not the program's TOLERANCES table.  Every
operation runs with hbar = 1, mass = 1/2 and k = 1, so eps = hbar^2 k^2 / 2m = 1.
"""

from __future__ import annotations

import math

EPS = 1.0
# The grid oracle is second order; at its default 2000 points the level
# error is ~1e-5 relative.
GRID_REL_TOL = 1e-4
# Quadrature-built b and the two wavefunction forms agree to ~1e-13.
MATRIX_REL_TOL = 1e-9
# The bottom-of-tower defect of the uncorrected commutator is exactly 1;
# the quadrature leaves it ~1e-11 away.
DEFECT_TOL = 1e-9


def alpha(n: int, nu: float) -> float:
    """Ladder coefficient alpha_n = sqrt(n (n+nu) (n+2nu-1) / (n+nu-1))."""
    return 0.0 if n == 0 else math.sqrt(n * (n + nu) * (n + 2 * nu - 1) / (n + nu - 1))


def _rows(payload: dict) -> list[dict]:
    """Table rows as dicts, from either the in-process payload or the CLI's JSON."""
    rows = payload["rows"]
    if rows and isinstance(rows[0], list):
        return [dict(zip(payload["columns"], row)) for row in rows]
    return rows


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _check_verify(nu: float, exit_code: int, payload: dict) -> str | None:
    relations = payload["relations"]
    expected = 43 if nu == 1.0 else 42
    if len(relations) != expected:
        return f"verify at nu={nu} reported {len(relations)} relations, expected {expected}"
    if len({r["name"] for r in relations}) != expected:
        return "verify reported a relation twice"
    overall = all(r["pass"] for r in relations)
    if payload["overall_pass"] != overall or exit_code != (0 if overall else 2):
        return "verify's overall verdict or exit code disagrees with its relations"
    return None


def _check_ladder(nu: float, payload: dict) -> str | None:
    rows = _rows(payload)
    compared = 0
    for row in rows:
        a = alpha(row["n"], nu)
        if abs(row["alpha_closed"] - a) > 1e-12 * max(1.0, a):
            return f"ladder alpha_closed at n={row['n']} is {row['alpha_closed']}, expected {a}"
        if row["b_ladder_diagonal"] is not None:
            compared += 1
            if abs(row["b_ladder_diagonal"] - a) > MATRIX_REL_TOL * max(1.0, a):
                return f"ladder b diagonal at n={row['n']} is {row['b_ladder_diagonal']}, alpha is {a}"
    return None if compared else "ladder compared no b diagonal entry"


def _check_scan(nu_values: list[float], payload: dict) -> str | None:
    rows = _rows(payload)
    if [row["nu"] for row in rows] != nu_values:
        return f"scan-limit rows are for nu={[row['nu'] for row in rows]}, expected {nu_values}"
    for row in rows:
        if abs(row["diag_residual_n0"] - 1.0) > DEFECT_TOL:
            return f"scan-limit bottom-of-tower defect at nu={row['nu']} is {row['diag_residual_n0']}, expected 1"
    return None


def _check_spectrum(nu: float, n_max: int, payload: dict) -> str | None:
    rows = _rows(payload)
    if [row["n"] for row in rows] != list(range(n_max + 1)):
        return "spectrum rows do not cover n = 0..n_max"
    for row in rows:
        e = EPS * (row["n"] + nu) ** 2
        if abs(row["energy_closed"] - e) > 1e-12 * e or abs(row["energy_grid"] - e) > GRID_REL_TOL * e:
            return f"spectrum level {row['n']}: closed {row['energy_closed']}, grid {row['energy_grid']}, expected {e}"
    return None


def _check_wavefunctions(n_max: int, samples: int, payload: dict) -> str | None:
    rows = _rows(payload)
    if len(rows) != samples:
        return f"wavefunctions gave {len(rows)} sample rows, expected {samples}"
    for row in rows:
        for n in range(n_max + 1):
            g, leg = row[f"psi{n}_gegenbauer"], row[f"psi{n}_legendre"]
            if abs(g - leg) > MATRIX_REL_TOL * max(1.0, abs(leg)):
                return f"wavefunction forms of psi{n} disagree at x={row['x']}"
    return None


def check(op: dict, exit_code: int, payload: dict) -> str | None:
    """Return None when the output is right, else the reason it is not."""
    kind = op["kind"]
    if kind == "verify":
        return _check_verify(op["nu"], exit_code, payload)
    if kind == "point":
        return (_check_scan([op["nu"]], payload["scan"])
                or _check_ladder(op["nu"], payload["ladder"]))
    argv = op["argv"]
    command = argv[0]
    if payload.get("command") != command:
        return f"output is for command {payload.get('command')!r}, expected {command!r}"
    if command == "verify":
        return _check_verify(float(_flag(argv, "--nu", "")), exit_code, payload)
    if command == "ladder":
        return _check_ladder(float(_flag(argv, "--nu", "")), payload)
    if command == "scan-limit":
        nus = [float(s) for s in _flag(argv, "--nu-list", "1,1.01,1.1,1.5,2,3.7").split(",")]
        return _check_scan(nus, payload)
    if command == "spectrum":
        return _check_spectrum(float(_flag(argv, "--nu", "")), int(_flag(argv, "--n-max", "5")), payload)
    if command == "wavefunctions":
        return _check_wavefunctions(int(_flag(argv, "--n-max", "5")),
                                    int(_flag(argv, "--samples", "100")), payload)
    return f"no check for command {command!r}"
