"""Print the output of every table command of `ptdeform` over a fixed list.

    python3 tools/command_outputs.py SRC_DIR > outputs.txt

SRC_DIR is the ``src`` directory of the checkout to run (the one that holds
``ptdeform/``).  Each command line of ``COMMANDS`` runs through
``ptdeform.cli.main`` in-process; the tool prints ``# argv exit=N`` and then
the command's stdout.  Run it on two checkouts and ``diff`` the outputs: an
empty diff means `ladder`, `scan-limit`, `spectrum` and `wavefunctions`
print the same bytes.  ``tools/residual_sweep.py`` does the same for
`verify`, whose report carries a timestamp and a wall time.

The list holds each table command at default and non-unit settings, in
JSON and CSV, up to nu = 49.9 at its floor order, plus two `wavefunctions`
runs where the sign of a printed zero can change: an odd ``--samples``,
which holds x = 0, and nu = 150, where psi underflows to zero near the
walls.  The `spectrum` runs cover the range of the grid's eigenvalue
solver: 51 levels (``--n-max 50``), non-unit units, ``--hbar 1e40``, and
the smallest grid, ``--grid-points 200``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

UNITS = ["--hbar", "1.3", "--mass", "0.7", "--k", "2.1"]

COMMANDS = [
    ["ladder", "--nu", "2"],
    ["ladder", "--nu", "3.7", "--format", "csv"],
    ["ladder", "--nu", "2", "--basis-size", "8"],
    ["ladder", "--nu", "49.9", "--basis-size", "60", "--quadrature-order", "230"],
    ["ladder", "--nu", "3.7", *UNITS],
    ["scan-limit"],
    ["scan-limit", "--nu-list", "1,1.5,2,3.7,10,25", "--format", "csv"],
    ["spectrum", "--nu", "2"],
    ["spectrum", "--nu", "1.294678", "--format", "csv"],
    ["spectrum", "--nu", "49.9", "--grid-points", "4000"],
    ["spectrum", "--nu", "3.7", "--n-max", "50"],
    ["spectrum", "--nu", "1.294678", *UNITS],
    ["spectrum", "--nu", "2", "--hbar", "1e40", "--format", "csv"],
    ["spectrum", "--nu", "25", "--grid-points", "200"],
    ["wavefunctions", "--nu", "2"],
    ["wavefunctions", "--nu", "49.9", "--n-max", "12", "--samples", "33", "--format", "csv"],
    ["wavefunctions", "--nu", "3.7", "--n-max", "12", "--samples", "33", "--format", "csv"],
    ["wavefunctions", "--nu", "2", "--samples", "21", "--format", "csv"],
    ["wavefunctions", "--nu", "150", "--format", "csv"],
]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/command_outputs.py SRC_DIR", file=sys.stderr)
        return 1
    sys.path.insert(0, str(Path(argv[1]).resolve()))
    from ptdeform.cli import main as ptdeform_main

    for args in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ptdeform_main(list(args))
        print(f"# {' '.join(args)} exit={code}")
        sys.stdout.write(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
