"""Print every residual and verdict of `ptdeform verify` over a fixed sweep.

    python3 tools/residual_sweep.py SRC_DIR > sweep.txt

SRC_DIR is the ``src`` directory of the checkout to run (the one that holds
``ptdeform/``).  Each line reads ``N nu flags name residual pass``, with the
residual as ``float.hex``, in the order of the report's relations.  Run it
on two checkouts and ``diff`` the outputs: an empty diff means every
residual is bit-identical and every verdict and the relation order are
unchanged; ``tools/sweep_diff.py`` tabulates a non-empty one.  A
configuration whose run raises prints one ``ERROR`` line.

The sweep covers N = 30 at 14 strengths up to nu = 300, N = 60, 120 and
480 at 3 to 5 each, the uncorrected f at N = 30, the small and odd basis
sizes 8-11, 26 and 27, the sizes 32, 33 and 65 on either side of the
32-row blocks of the basis stream at nu = 1, 3.7 and 49.9, N = 1500 at
nu = 3.7 and 25.3, and one set of non-unit units.  Every configuration
runs at the program's default order raised to its floor,
max(2M + 60, ceil(2M + 2 nu + 10)) with M = max(N, 21), the 21 states of
the wavefunction checks.  That order is even everywhere except at N = 30,
nu = 49.3 (169), N = 480, nu = 25.3 (1021) and N = 1500, nu = 25.3
(3061), which put the midpoint node of an odd rule, the one node the
quadrature layer's parity fold does not double, into the sweep up to its
largest size.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

UNITS = {"hbar": 1.3, "mass": 0.7, "k": 2.1}


def configs():
    """(N, nu, flags, RunConfig keyword arguments) of every sweep entry."""
    grid = [(30, nu) for nu in (1.0, 1.294678, 1.5, 1.733328, 1.890277, 2.0, 3.7, 10.0, 25.0,
                                30.0, 49.3, 49.9, 150.0, 300.0)]
    grid += [(60, nu) for nu in (1.0, 17.3, 49.0)]
    grid += [(120, nu) for nu in (1.0, 3.7, 25.0)]
    grid += [(480, nu) for nu in (1.0, 3.7, 25.0, 25.3, 49.9)]
    grid += [(n, nu) for n in (8, 9, 10, 11, 26, 27) for nu in (1.0, 1.294678, 3.7, 49.9)]
    grid += [(n, nu) for n in (32, 33, 65) for nu in (1.0, 3.7, 49.9)]
    grid += [(1500, nu) for nu in (3.7, 25.3)]
    for n, nu in grid:
        yield n, nu, "-", {}
    for nu in (1.0, 1.5, 2.0, 3.7, 10.0, 25.0):
        yield 30, nu, "uncorrected", {"use_uncorrected_f": True}
    units = ",".join(f"{key}={value}" for key, value in UNITS.items())
    for nu in (1.0, 3.7, 49.9):
        yield 30, nu, units, dict(UNITS)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/residual_sweep.py SRC_DIR", file=sys.stderr)
        return 1
    sys.path.insert(0, str(Path(argv[1]).resolve()))
    import numpy as np
    from ptdeform.cli import RunConfig, run_verification

    for n, nu, flags, extra in configs():
        levels = max(n, 21)
        order = max(2 * levels + 60, math.ceil(2 * levels + 2 * nu + 10))
        head = f"{n} {nu!r} {flags}"
        try:
            # the floating-point state of `ptdeform.cli.main`
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                report = run_verification(
                    RunConfig(nu=nu, basis_size=n, quadrature_order=order, **extra))
        except Exception as exc:  # noqa: BLE001  (reported, so a diff shows it)
            print(f"{head} ERROR {type(exc).__name__}: {exc}")
            continue
        for r in report.relations:
            print(f"{head} {r.name} {float.hex(r.residual)} {r.passed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
