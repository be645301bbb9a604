"""Traced call counts of one default-size `verify`, and clean removal of the wrappers.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import ptdeform.cli as cli  # noqa: E402
from ptdeform import opmat, specfun, wavefun  # noqa: E402

from spans import Tracer  # noqa: E402


def _verify_n30():
    return cli.run_verification(cli.RunConfig(nu=2.0))


def test_call_counts_of_one_verify():
    tracer = Tracer()
    tracer.install()
    try:
        report = tracer.call(_verify_n30)
    finally:
        tracer.uninstall()
    assert len(report.relations) == 42
    s = tracer.summary()
    calls = s["calls"]
    assert s["ops"] == 1
    assert calls["opmat.build_basis"] == 3  # build_X, build_P and the 21-state tower
    assert calls["opmat.build_X"] == calls["opmat.build_P"] == 1
    assert calls["cli.run_verification"] == 1
    assert calls["specfun.gauss_legendre"] == 1
    assert calls["opmat.grid_spectrum"] == 1
    # 30 + 30 + 21 closed-form states plus 26 ladder-route states, each looked up
    # through wavefun's and opmat's own imports
    assert calls["wavefun.build_eigenfunction"] == 30 + 30 + 21 + 2 * 26
    # every psi_value evaluates one Gegenbauer row, looked up in wavefun
    assert calls["specfun.gegenbauer_row"] >= calls["wavefun.psi_value"] > 0
    assert calls["opmat.matmul"] > 0
    assert s["work"]["opmat.matmul"] == calls["opmat.matmul"] * 8 * 30**3
    assert s["self_s"]["specfun"] > 0 and s["self_s"]["wavefun"] > 0


def test_uninstall_restores_every_lookup_site():
    originals = (specfun.gegenbauer_row, wavefun.gegenbauer_row, opmat.build_X, cli.build_X,
                 opmat.OperatorMatrix.__matmul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert wavefun.gegenbauer_row is not originals[1]
        assert cli.build_X is not originals[3]
    finally:
        tracer.uninstall()
    assert (specfun.gegenbauer_row, wavefun.gegenbauer_row, opmat.build_X, cli.build_X,
            opmat.OperatorMatrix.__matmul__) == originals
