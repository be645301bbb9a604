"""Print the verdicts of `ptdeform verify` at evenly spaced strengths.

    python3 tools/verdict_scan.py SRC_DIR N NU_LO NU_HI COUNT > scan.txt

SRC_DIR is the ``src`` directory of the checkout to run (the one that holds
``ptdeform/``).  The scan runs one verify at basis size N, with the default
quadrature order and units, at each of COUNT strengths spaced evenly over
[NU_LO, NU_HI], both ends included.  Each line reads ``nu count failing``:
the strength as ``repr``, the number of relations reported, and the failing
relations joined by commas (``-`` when all pass).  A strength whose run
raises prints ``nu ERROR`` and the message.  Run it on two checkouts and
``diff`` the outputs to see which verdicts move; N = 30, NU_LO = 1,
NU_HI = 25 is the range of ``python -m ptdeform verify`` at its defaults.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 6:
        print("usage: python3 tools/verdict_scan.py SRC_DIR N NU_LO NU_HI COUNT", file=sys.stderr)
        return 1
    sys.path.insert(0, str(Path(argv[1]).resolve()))
    import numpy as np
    from ptdeform.cli import RunConfig, run_verification

    n_basis, count = int(argv[2]), int(argv[5])
    for nu in np.linspace(float(argv[3]), float(argv[4]), count).tolist():
        try:
            # the floating-point state of `ptdeform.cli.main`
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                report = run_verification(RunConfig(nu=nu, basis_size=n_basis))
        except Exception as exc:  # noqa: BLE001  (reported, so a diff shows it)
            print(f"{nu!r} ERROR {type(exc).__name__}: {exc}")
            continue
        failing = [r.name for r in report.relations if not r.passed]
        print(f"{nu!r} {len(report.relations)} {','.join(failing) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
