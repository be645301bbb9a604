"""Command-line driver: configuration validation, the relation battery,
report serialization, and process exit codes.

Exit-code contract: 0 verified / 1 usage or model error / 2 a relation
failed / 3 output could not be written.
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptdeform
from ptdeform import cli, opmat, specfun, wavefun
from ptdeform.algebra import ModelParams
from ptdeform.cli import (
    MEMORY_BUDGET_BYTES,
    SCHEMA_VERSION,
    TOLERANCES,
    RunConfig,
    cmd_ladder,
    cmd_scan_limit,
    cmd_spectrum,
    cmd_wavefunctions,
    main,
    payload_to_csv,
    payload_to_json,
    render_payload,
    run_verification,
)
from ptdeform.opmat import MAX_QUADRATURE_ORDER, default_quadrature_order, quadrature_floor


@pytest.fixture(scope="module")
def report_nu2():
    return run_verification(RunConfig(nu=2.0))


@pytest.fixture(scope="module")
def report_nu1():
    return run_verification(RunConfig(nu=1.0))


@pytest.fixture(scope="module")
def report_nu1_uncorrected():
    return run_verification(RunConfig(nu=1.0, use_uncorrected_f=True))


# ---------------------------------------------------------------------------
# RunConfig


def test_exactly_one_strength_parameter():
    with pytest.raises(ValueError):
        RunConfig(nu=2.0, v0=2.0)
    with pytest.raises(ValueError):
        RunConfig()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"nu": 2.0, "basis_size": 7},
        {"nu": 2.0, "grid_points": 199},
        {"nu": 2.0, "output_format": "xml"},
        {"nu": 2.0, "tolerance_scale": 0.0},
        {"nu": 2.0, "tolerance_scale": -1.0},
        {"nu": 0.5},
        {"v0": -1.0},
        {"nu": 2.0, "quadrature_order": 50},
        {"nu": math.inf},
        {"nu": math.nan},
        {"v0": math.inf},
        {"nu": 2.0, "hbar": math.nan},
        {"nu": 2.0, "mass": math.inf},
        {"nu": 2.0, "k": math.inf},
        {"nu": 2.0, "tolerance_scale": math.nan},
        {"nu": 2.0, "tolerance_scale": math.inf},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_quadrature_floor_is_inclusive():
    floor = math.ceil(2 * 30 + 2 * 2.0 + 10)
    assert quadrature_floor(ModelParams(nu=2.0), 30) == floor
    cfg = RunConfig(nu=2.0, quadrature_order=floor)
    assert cfg.effective_quadrature_order == floor
    with pytest.raises(ValueError, match=f"below the minimum {floor}"):
        RunConfig(nu=2.0, quadrature_order=floor - 1)


def test_quadrature_floor_counts_the_wavefunction_states():
    # verify reads 21 states on the rule at every N, so below N = 21 the
    # floor and the default order take 21 in place of N; nothing moves at
    # N >= 21
    params = ModelParams(nu=24.0)
    assert quadrature_floor(params, 8) == quadrature_floor(params, 21) == 2 * 21 + 48 + 10
    assert quadrature_floor(params, 30) == 2 * 30 + 48 + 10
    assert RunConfig(nu=24.0, basis_size=8).effective_quadrature_order == 2 * 21 + 60
    with pytest.raises(ValueError, match="below the minimum 100"):
        RunConfig(nu=24.0, basis_size=8, quadrature_order=99)


@pytest.mark.parametrize("nu", ["20", "24"])
def test_main_checks_the_wavefunction_states_at_small_n(nu, capsys):
    # at the old floor, 2N + 2nu + 10 = 74 at N = 8, adjointness_quadrature
    # read 111 times its bound at nu = 20, and gram_identity failed too at 24
    assert main(["verify", "--nu", nu, "--basis-size", "8"]) == 0
    relations = {r["name"]: r for r in json.loads(capsys.readouterr().out)["relations"]}
    assert relations["gram_identity"]["pass"] and relations["adjointness_quadrature"]["pass"]


def test_config_caps_the_effective_quadrature_order():
    # validation only: no rule is built at the cap
    cap = MAX_QUADRATURE_ORDER
    assert RunConfig(nu=2.0, quadrature_order=cap).effective_quadrature_order == cap
    with pytest.raises(ValueError, match="--quadrature-order or --basis-size"):
        RunConfig(nu=2.0, quadrature_order=cap + 1)
    # the default order 2N + 60 reaches the cap through the basis size
    top = (cap - 60) // 2
    assert RunConfig(nu=2.0, basis_size=top).effective_quadrature_order <= cap
    with pytest.raises(ValueError, match="--quadrature-order or --basis-size"):
        RunConfig(nu=2.0, basis_size=top + 1)


def test_default_quadrature_tracks_basis():
    assert RunConfig(nu=2.0).effective_quadrature_order == 2 * 30 + 60
    assert RunConfig(nu=2.0, basis_size=40).effective_quadrature_order == 140


def test_config_from_depth():
    cfg = RunConfig(v0=2.0)
    assert cfg.params().nu == pytest.approx(2.0, rel=1e-15)


def test_tolerance_scaling():
    cfg = RunConfig(nu=2.0, tolerance_scale=10.0)
    assert cfg.tolerance("gram_identity") == pytest.approx(1e-8)
    with pytest.raises(KeyError):
        cfg.tolerance("no_such_relation")


def test_tolerance_table_sane():
    assert len(TOLERANCES) == 43
    assert all(0.0 < t <= 1e-4 for t in TOLERANCES.values())
    assert TOLERANCES["corrected_f_commutator"] == 1e-8
    assert TOLERANCES["gram_identity"] == 1e-9
    assert TOLERANCES["spectrum_grid_match"] == 1e-4


# ---------------------------------------------------------------------------
# relation battery


def test_battery_passes_generic(report_nu2):
    assert report_nu2.overall_pass
    assert len(report_nu2.relations) == 42
    names = [r.name for r in report_nu2.relations]
    assert len(set(names)) == len(names)
    assert set(names) == set(TOLERANCES) - {"square_well_reduction"}
    for r in report_nu2.relations:
        assert r.passed and r.residual < r.tolerance, r.name


def test_battery_passes_square_well(report_nu1):
    assert report_nu1.overall_pass
    assert len(report_nu1.relations) == 43
    assert {r.name for r in report_nu1.relations} == set(TOLERANCES)


def test_uncorrected_f_fails_only_the_commutator(report_nu1_uncorrected):
    # dropping the strength correction leaves a unit-size hole at the
    # bottom of the tower even in the square-well model
    assert not report_nu1_uncorrected.overall_pass
    failed = [r for r in report_nu1_uncorrected.relations if not r.passed]
    assert [r.name for r in failed] == ["corrected_f_commutator"]
    assert failed[0].residual == pytest.approx(1.0, abs=1e-6)


def test_uncorrected_f_fails_generic():
    report = run_verification(RunConfig(nu=2.0, use_uncorrected_f=True))
    failed = [r for r in report.relations if not r.passed]
    assert [r.name for r in failed] == ["corrected_f_commutator"]
    assert failed[0].residual == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("nu", [1.0, 3.7, 25.0, 49.9])
def test_the_paper_relations_hold_at_n480(nu):
    # [b, b+] + f(H), the two Casimir forms and J+ J- sum products of the
    # norms over the tower; with N_n a few ulp per level from the algebraic
    # ratio they read about 3e-9 against 1e-8 at N = 480
    n = 480
    report = run_verification(RunConfig(nu=nu, basis_size=n))
    assert report.model["quadrature_order"] == default_quadrature_order(ModelParams(nu=nu), n)
    relations = {r.name: r for r in report.relations}
    for name in ("corrected_f_commutator", "casimir_forms_agree", "su11_jplus_jminus"):
        assert relations[name].passed, (name, relations[name].residual)


def test_verify_reads_no_per_state_values(monkeypatch):
    # the pointwise relations read one sample_tables at the sample points;
    # psi_value and gram_matrix stay for `wavefunctions` and as the tested
    # reference of the tables
    def refuse(*args, **kwargs):
        raise AssertionError("per-state evaluation on the verify path")

    for module in (wavefun, opmat, cli):
        for name in ("psi_value", "gram_matrix"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert run_verification(RunConfig(nu=1.0)).overall_pass


def test_sampled_state_relations_do_not_depend_on_the_basis_size():
    # the 11 sampled states are built whatever N is, down to N = 8
    names = ("ground_state_annihilation", "legendre_form_pointwise", "schrodinger_residual",
             "square_well_reduction")

    def sampled(n_basis):
        report = run_verification(RunConfig(nu=1.0, basis_size=n_basis))
        return {r.name: r.residual for r in report.relations if r.name in names}

    small = sampled(8)
    assert small == sampled(30) and len(small) == len(names)


def test_battery_is_deterministic(report_nu2):
    again = run_verification(RunConfig(nu=2.0))
    assert [r.residual for r in again.relations] == [r.residual for r in report_nu2.relations]


def test_report_roundtrip(report_nu2):
    d = report_nu2.to_dict()
    assert json.loads(payload_to_json(d)) == d
    assert [(r["name"], r["residual"], r["tolerance"], r["pass"]) for r in d["relations"]] == [
        (r.name, r.residual, r.tolerance, r.passed) for r in report_nu2.relations
    ]


def test_report_shape(report_nu2):
    d = report_nu2.to_dict()
    assert d["schema_version"] == SCHEMA_VERSION
    assert d["command"] == "verify"
    assert set(d["versions"]) == {"ptdeform", "numpy", "scipy", "python"}
    assert d["model"]["nu"] == 2.0
    assert d["model"]["v0"] == 2.0
    assert d["model"]["basis_size"] == 30
    for r in d["relations"]:
        assert set(r) == {"name", "residual", "tolerance", "pass"}
    assert d["wall_time_s"] >= 0.0
    assert "T" in d["timestamp"]


# ---------------------------------------------------------------------------
# table subcommands


def test_spectrum_payload():
    payload = cmd_spectrum(RunConfig(nu=1.5), n_max=5)
    assert payload["columns"] == ["n", "energy_closed", "energy_grid", "rel_diff"]
    assert len(payload["rows"]) == 6
    assert all(row[3] < 1e-4 for row in payload["rows"])
    assert payload["rows"][0][1] == pytest.approx(2.25)


def test_wavefunctions_payload():
    payload = cmd_wavefunctions(RunConfig(nu=2.0), n_max=3, samples=50)
    assert len(payload["rows"]) == 50
    assert payload["columns"][0] == "x"
    assert payload["columns"][1:4] == ["psi0_gegenbauer", "psi0_legendre", "psi0_diff"]
    diff_cols = [i for i, c in enumerate(payload["columns"]) if c.endswith("_diff")]
    for row in payload["rows"]:
        for i in diff_cols:
            assert abs(row[i]) < 1e-9


def test_ladder_payload_marks_untrusted_rows():
    payload = cmd_ladder(RunConfig(nu=2.0), n_max=27)
    rows = {row[0]: row for row in payload["rows"]}
    assert rows[0][4] is None and rows[0][5] is None  # no b entry feeds level 0
    keep = 30 - 4
    assert rows[keep - 1][4] is not None
    assert rows[keep][4] is None  # beyond the trusted block
    for n in range(28):
        assert rows[n][3] < 1e-12
        if rows[n][5] is not None:
            assert rows[n][5] < 1e-8


def test_scan_limit_payload():
    payload = cmd_scan_limit(RunConfig(nu=1.0), [1.0, 1.01, 1.1, 1.5, 2.0, 3.7])
    assert payload["columns"][0] == "nu"
    n0 = [row[1] for row in payload["rows"]]
    # the bottom-of-tower defect stays at 1 no matter how close nu is to 1
    assert all(v == pytest.approx(1.0, abs=1e-6) for v in n0)
    for row in payload["rows"]:
        nu, _, d0, d1, mean_abs, predicted = row
        assert d0 == pytest.approx(1.0, abs=1e-6)
        assert d1 == pytest.approx(predicted, abs=1e-8)
        assert predicted == pytest.approx((nu - 1.0) / (nu + 1.0), rel=1e-12)
        assert 0.0 <= mean_abs <= 1.0
    predictions = [row[5] for row in payload["rows"]]
    assert predictions[0] == 0.0
    assert predictions == sorted(predictions)  # shrinks monotonically toward nu = 1


# ---------------------------------------------------------------------------
# serialization


def test_json_rows_become_objects():
    payload = cmd_spectrum(RunConfig(nu=1.5), n_max=2)
    doc = json.loads(payload_to_json(payload))
    assert "columns" not in doc
    assert doc["rows"][0]["n"] == 0
    assert doc["rows"][0]["energy_closed"] == pytest.approx(2.25)


def test_json_floats_roundtrip(report_nu2):
    doc = json.loads(payload_to_json(report_nu2.to_dict()))
    residuals = {r["name"]: r["residual"] for r in doc["relations"]}
    for r in report_nu2.relations:
        assert residuals[r.name] == r.residual  # %.17g-free: json keeps full floats


def test_csv_layout(report_nu1_uncorrected):
    text = payload_to_csv(report_nu1_uncorrected.to_dict())
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "# command=verify"
    assert lines[1] == f"# schema_version={SCHEMA_VERSION}"
    assert any(line == "# overall_pass=false" for line in lines)
    assert any(line.startswith("# version_numpy=") for line in lines)
    assert any(line == "# use_uncorrected_f=true" for line in lines)
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "name,residual,tolerance,pass"
    reader = csv.DictReader(io.StringIO("\n".join(data)))
    parsed = {row["name"]: row for row in reader}
    assert parsed["corrected_f_commutator"]["pass"] == "false"
    # %.17g preserves the double exactly
    assert float(parsed["corrected_f_commutator"]["residual"]) == pytest.approx(1.0, abs=1e-6)
    assert float(parsed["gram_identity"]["tolerance"]) == 1e-9


def test_csv_blank_cell_for_missing_entries():
    payload = cmd_ladder(RunConfig(nu=2.0), n_max=2)
    text = payload_to_csv(payload)
    data = [line for line in text.splitlines() if not line.startswith("#")]
    first = next(csv.reader([data[1]]))
    assert first[0] == "0" and first[4] == "" and first[5] == ""


def test_render_payload_dispatch():
    payload = cmd_spectrum(RunConfig(nu=1.5), n_max=1)
    assert render_payload(payload, "json").startswith("{")
    assert render_payload(payload, "csv").startswith("# command=spectrum")


# ---------------------------------------------------------------------------
# process-level behavior


def test_main_verify_ok(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--nu", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["overall_pass"] is True
    assert len(doc["relations"]) == 42


def test_main_verify_uncorrected_flags_failure(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--nu", "2", "--use-uncorrected-f", "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    failed = [r["name"] for r in doc["relations"] if not r["pass"]]
    assert failed == ["corrected_f_commutator"]


def test_main_square_well_uncorrected_still_fails(tmp_path):
    # the bottom-of-tower defect keeps the residual at 1 even at nu = 1
    out = tmp_path / "report.json"
    assert main(["verify", "--nu", "1", "--use-uncorrected-f", "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    failed = {r["name"]: r["residual"] for r in doc["relations"] if not r["pass"]}
    assert set(failed) == {"corrected_f_commutator"}
    assert failed["corrected_f_commutator"] == pytest.approx(1.0, abs=1e-6)


def test_main_tolerance_scale_can_mask(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--nu", "2", "--use-uncorrected-f",
        "--tolerance-scale", "1e9", "--out", str(out),
    ])
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["verify"],
        ["verify", "--nu", "2", "--v0", "4"],
        ["verify", "--nu", "0.5"],
        ["verify", "--v0", "-3"],
        ["verify", "--nu", "2", "--format", "xml"],
        ["verify", "--nu", "2", "--quadrature-order", "12"],
        ["verify", "--nu", "2", "--basis-size", "4"],
        ["scan-limit", "--nu-list", "0.5,2"],
        ["scan-limit", "--nu-list", "abc"],
        ["scan-limit", "--nu-list", ""],
        ["no-such-command"],
    ],
)
def test_main_usage_errors(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--nu", "inf"], "--nu"),
        (["verify", "--nu", "nan"], "--nu"),
        (["verify", "--v0", "inf"], "--v0"),
        (["verify", "--nu", "2", "--hbar", "nan"], "--hbar"),
        (["verify", "--nu", "2", "--mass", "nan"], "--mass"),
        (["verify", "--nu", "2", "--k", "inf"], "--k"),
        (["verify", "--nu", "2", "--tolerance-scale", "nan"], "--tolerance-scale"),
        (["scan-limit", "--nu-list", "2,nan"], "--nu-list"),
        (["scan-limit", "--nu-list", "inf"], "--nu-list"),
        # finite flags whose energy scale overflows or underflows
        (["verify", "--nu", "2", "--hbar", "1e200"], "epsilon"),
        (["verify", "--nu", "2", "--k", "1e200"], "epsilon"),
        (["verify", "--v0", "2", "--hbar", "1e200"], "epsilon"),
        (["verify", "--nu", "2", "--hbar", "1e-200"], "epsilon"),
        (["spectrum", "--nu", "2", "--hbar", "1e170"], "epsilon"),
    ],
)
def test_main_rejects_non_finite_input(argv, flag, capsys):
    # an exception escaping main would be the traceback the user sees
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert flag in err and "finite" in err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["wavefunctions", "--nu", "2", "--n-max", "-1"], "--n-max"),
        (["spectrum", "--nu", "2", "--n-max", "-1"], "--n-max"),
        (["ladder", "--nu", "2", "--n-max", "-1"], "--n-max"),
        # finite input that overflows deeper in: caught in main, no traceback
        (["verify", "--nu", "2", "--mass", "1e-300"], "out of numerical range"),
        # a strength whose quadrature floor is above the cap: rejected by RunConfig
        (["wavefunctions", "--nu", "1e10", "--n-max", "0", "--samples", "1"],
         "lower --nu/--v0 or --basis-size"),
        # finite units whose eps E_n leaves double range: rejected by RunConfig,
        # naming the unit flags
        (["verify", "--nu", "2", "--hbar", "1e150"], "--hbar, --mass and --k"),
        (["ladder", "--nu", "2", "--hbar", "1e150"], "--hbar, --mass and --k"),
        (["scan-limit", "--hbar", "1e150"], "--hbar, --mass and --k"),
        (["verify", "--nu", "2", "--k", "1e77"], "--hbar, --mass and --k"),
        (["wavefunctions", "--nu", "2", "--k", "1e-160"], "--hbar, --mass and --k"),
        (["verify", "--nu", "2", "--hbar", "1e-100"], "--hbar, --mass and --k"),  # underflows to 0
        # quadrature orders outside [floor, cap], rejected before a rule is built
        (["ladder", "--nu", "2", "--quadrature-order", "100000000"],
         "--quadrature-order or --basis-size"),
        # the default order 2N + 60 above the cap, the floor 4052 below it
        (["verify", "--nu", "2", "--basis-size", "2019"], "--quadrature-order or --basis-size"),
        # an explicit order below the floor; the default order is the floor
        (["verify", "--nu", "50", "--quadrature-order", "169"], "below the minimum 170"),
        # more strengths whose quadrature floor is above the cap, for every
        # command: rejected by RunConfig, or per --nu-list value in main
        (["verify", "--nu", "2", "--basis-size", "100000"], "lower --nu/--v0 or --basis-size"),
        (["ladder", "--nu", "3000"], "lower --nu/--v0 or --basis-size"),
        (["ladder", "--nu", "3000", "--quadrature-order", "6070"],
         "lower --nu/--v0 or --basis-size"),
        (["spectrum", "--v0", "1e12"], "lower --nu/--v0 or --basis-size"),
        (["scan-limit", "--nu-list", "1,3000"], "lower --nu-list or --basis-size"),
        (["wavefunctions", "--nu", "2", "--samples", "0"], "--samples must be >= 1"),
        # every --nu-list value against its floor and the unit range, not only
        # the nu = 1 anchor of the config: the largest floor is named
        (["scan-limit", "--nu-list", "1,3", "--quadrature-order", "70"],
         "below the minimum 76 that --nu-list needs"),
        (["scan-limit", "--nu-list", "1,3", "--quadrature-order", "72"],
         "below the minimum 76 that --nu-list needs"),
        (["scan-limit", "--nu-list", "1,50", "--quadrature-order", "169"],
         "below the minimum 170 that --nu-list needs"),
        (["scan-limit", "--hbar", "1e76", "--nu-list", "1,2000", "--quadrature-order", "4070"],
         "--hbar, --mass and --k"),
        # sizes whose tables or grid pass the memory budget, rejected before
        # anything is allocated
        (["wavefunctions", "--nu", "2", "--samples", "1000000000"], "--n-max and --samples"),
        (["wavefunctions", "--nu", "2", "--n-max", "100000", "--samples", "100"],
         "--n-max and --samples"),
        (["ladder", "--nu", "2", "--n-max", "1000000000"], "--n-max would need"),
        (["spectrum", "--nu", "2", "--n-max", "1000000000"], "--n-max would need"),
        (["verify", "--nu", "2", "--grid-points", "1000000000"], "--grid-points would need"),
        # more levels than grid points, named by both flags before the grid is built
        (["spectrum", "--nu", "2", "--n-max", "5000"], "--n-max 5000 asks for 5001 levels"),
        (["spectrum", "--nu", "2", "--n-max", "300", "--grid-points", "300"], "--grid-points"),
    ],
)
def test_main_rejects_out_of_range_input(argv, needle, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    # one error line and nothing before it, no numpy warning in particular
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("ptdeform: error:")
    assert needle in err[0] and captured.out == ""


@pytest.mark.parametrize(
    "argv, order",
    [
        (["verify", "--nu", "50"], 170),
        (["ladder", "--nu", "40"], 150),
        (["scan-limit", "--nu-list", "1,50"], 170),
        # every row at the one order echoed, the largest default of the list
        (["scan-limit", "--nu-list", "50,1,30"], 170),
        (["scan-limit", "--nu-list", "1,50", "--quadrature-order", "171"], 171),
    ],
)
def test_main_runs_at_the_floor_above_nu_25_by_default(argv, order, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["model"]["quadrature_order"] == order
    if argv[0] == "verify":
        assert payload["overall_pass"] and len(payload["relations"]) == 42


def test_main_names_the_cap_where_no_order_holds_p_hermitian(capsys):
    # the floor 4010 is within the cap, but the P band misses Hermiticity
    # there (2.8e-4 of hbar k^2) and at every order up to the cap
    assert main(["verify", "--nu", "1000", "--basis-size", "1000"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("ptdeform: error: momentum matrix")
    assert "order 4010" in err[0] and "maximum 4096" in err[0]
    assert "lower nu or basis size" in err[0] and captured.out == ""


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(0.0, math.log(1e4)).map(math.exp),
       basis_size=st.integers(8, 3000),
       quadrature_order=st.none() | st.integers(0, 2 * MAX_QUADRATURE_ORDER))
def test_config_order_is_within_floor_and_cap_or_names_a_flag(nu, basis_size,
                                                              quadrature_order):
    # validation only: no rule is built
    try:
        config = RunConfig(nu=nu, basis_size=basis_size, quadrature_order=quadrature_order)
    except ValueError as exc:
        assert re.search(r"--(nu/--v0|basis-size|quadrature-order)\b", str(exc)), exc
        return
    order = config.effective_quadrature_order
    params = ModelParams(nu=nu)
    assert quadrature_floor(params, basis_size) <= order <= MAX_QUADRATURE_ORDER
    if quadrature_order is None:
        assert order == default_quadrature_order(params, basis_size)


def test_main_reports_arithmetic_errors_in_one_line(monkeypatch, capsys):
    # finite input whose intermediate values leave double range past the
    # config's checks
    def overflow(*args):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "cmd_spectrum", overflow)
    assert main(["spectrum", "--nu", "2"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("ptdeform: error: input out of numerical range")
    assert captured.out == ""


def test_config_bounds_the_strength_by_the_quadrature_cap():
    # validation only: the one range of nu is quadrature_floor <= MAX_QUADRATURE_ORDER
    top = (MAX_QUADRATURE_ORDER - 2 * 30 - 10) / 2
    assert quadrature_floor(ModelParams(nu=top), 30) == MAX_QUADRATURE_ORDER
    assert RunConfig(nu=top).params().nu == top
    for kwargs in ({"nu": top + 0.5}, {"nu": 1e16}, {"nu": 1.7e308}, {"v0": 1e12},
                   {"nu": top, "basis_size": 31}):
        with pytest.raises(ValueError, match="lower --nu/--v0 or --basis-size"):
            RunConfig(**kwargs)


def test_memory_budget_bounds_the_sizes():
    # validation only: the largest sizes the budget admits construct or
    # validate, one more is rejected; nothing is run at either size
    top = MEMORY_BUDGET_BYTES // 200
    assert RunConfig(nu=2.0, grid_points=top).grid_points == top
    with pytest.raises(ValueError, match="--grid-points would need"):
        RunConfig(nu=2.0, grid_points=top + 1)
    cli._check_memory("--n-max", MEMORY_BUDGET_BYTES // 300, 300)
    with pytest.raises(ValueError, match="--n-max would need"):
        cli._check_memory("--n-max", MEMORY_BUDGET_BYTES // 300 + 1, 300)


def test_main_sizes_wavefunctions_by_its_table(capsys):
    # the cap counts the cells of the table the command keeps, O(n_max *
    # samples): 3001 levels at one sample run
    assert main(["wavefunctions", "--nu", "2", "--n-max", "3000", "--samples", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out)["rows"]
    assert len(rows) == 1 and len(rows[0]) == 1 + 3 * 3001


def test_main_runs_the_legendre_form_at_large_nu(capsys):
    # the Legendre form keeps its normalization in one log, so it runs past
    # nu = 146.8, where exp of either half of that log overflows
    assert main(["wavefunctions", "--nu", "150"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out)["rows"]
    assert max(abs(row[f"psi{n}_diff"]) for row in rows for n in range(6)) < 1e-9
    # every relation passes at nu = 150, the absolute bounds picked at nu = 2 too
    assert main(["verify", "--nu", "150", "--quadrature-order", "370"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    relations = {r["name"]: r for r in json.loads(captured.out)["relations"]}
    assert relations["legendre_form_pointwise"]["pass"]


@pytest.mark.parametrize("basis_size, order", [(480, 1570), (600, 1810)])
def test_main_verify_runs_where_the_unnormalized_basis_overflows(basis_size, order, capsys):
    # C_N^(300)(1) = Gamma(N + 600) / (N! Gamma(600)) is about e^737 at
    # N = 479 and e^827 at N = 599, beyond the largest double; the quadrature
    # layer recurs on the root-weighted normalized rows, which stay within
    # 1, so the run ends with a verdict and finite residuals at the floor
    # order, not with an overflow from inside a layer
    argv = ["verify", "--nu", "300", "--basis-size", str(basis_size),
            "--quadrature-order", str(order)]
    assert main(argv) in (0, 2)
    captured = capsys.readouterr()
    assert captured.err == ""
    relations = json.loads(captured.out)["relations"]
    assert len(relations) == len(TOLERANCES) - 1  # no square-well reduction off nu = 1
    assert all(math.isfinite(r["residual"]) for r in relations)


def test_config_rejects_units_out_of_range_at_the_top_of_the_tower():
    # eps E_n = eps^2 (n + nu)^2 grows with the basis size
    RunConfig(nu=2.0, hbar=1e76, basis_size=8)
    with pytest.raises(ValueError, match="--hbar, --mass and --k"):
        RunConfig(nu=2.0, hbar=1e76, basis_size=200)


def _python_with_src(code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter that imports this ptdeform."""
    src = str(Path(ptdeform.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy is imported only where it is used: the grid oracle where numpy
    # ships no LAPACKE dstebz
    code = ("import sys, ptdeform.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _python_with_src(code) == "[]"


def test_verify_and_spectrum_leave_scipy_linalg_unloaded():
    # the grid oracle calls dstebz in the OpenBLAS numpy has loaded; importing
    # scipy.linalg for it doubled the start-up of both commands
    if specfun._lapacke_dstebz() is None:
        pytest.skip("numpy ships no LAPACKE dstebz here; the grid runs through scipy.linalg")
    code = "\n".join([
        "import contextlib, io, sys",
        "from ptdeform.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [main(['verify', '--nu', '2']),",
        "             main(['spectrum', '--nu', '1.5', '--n-max', '5'])]",
        "print(codes, 'scipy.linalg' in sys.modules)",
    ])
    assert _python_with_src(code) == "[0, 0] False"


def test_main_reports_a_lapack_failure_in_one_line(monkeypatch, capsys):
    # a nonzero info from dstebz is a LinAlgError, a ValueError: exit 1
    monkeypatch.setattr(specfun, "_lapacke_dstebz", lambda: lambda *args: 1)
    assert main(["spectrum", "--nu", "2"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("ptdeform: error:")
    assert "dstebz" in err[0] and captured.out == ""


def test_verify_loads_no_scipy_and_reports_its_version_as_null():
    # the version echo reads a scipy something else loaded; importing it for
    # its version alone would cost every fresh verify about 17 ms
    if specfun._lapacke_dstebz() is None:
        pytest.skip("numpy ships no LAPACKE dstebz here; the grid runs through scipy.linalg")
    code = "\n".join([
        "import contextlib, io, json, sys",
        "from ptdeform.cli import main",
        "out = io.StringIO()",
        "with contextlib.redirect_stdout(out):",
        "    code = main(['verify', '--nu', '2'])",
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "print(code, loaded, json.loads(out.getvalue())['versions']['scipy'])",
    ])
    assert _python_with_src(code) == "0 [] None"


def test_verify_reports_a_lapack_failure_of_its_grid_thread_in_one_line(monkeypatch, capsys):
    # the grid oracle runs on a thread of its own; its LinAlgError reaches
    # the caller unchanged, so verify exits 1 as spectrum does
    monkeypatch.setattr(specfun, "_lapacke_dstebz", lambda: lambda *args: 1)
    assert main(["verify", "--nu", "2"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("ptdeform: error:")
    assert "dstebz" in err[0] and captured.out == ""


def test_grid_thread_keeps_the_callers_numpy_error_state(monkeypatch, capsys):
    # numpy's error state is a context variable: the thread runs in a copy of
    # main's context, so an overflow there raises and exits 1, not a warning
    def overflowing(params, m_points, n_levels):
        return np.full(n_levels, np.float64(1e308)) * 10.0

    monkeypatch.setattr(cli, "grid_spectrum", overflowing)
    assert main(["verify", "--nu", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ptdeform: error: input out of numerical range")
    assert captured.out == ""


def test_grid_thread_never_outlives_verify(monkeypatch):
    before = threading.active_count()
    run_verification(RunConfig(nu=2.0))
    assert threading.active_count() == before

    # the quadrature layer raises while the grid thread is still running
    grid_started, seen = threading.Event(), []
    real_grid = cli.grid_spectrum

    def slow_grid(*args):
        grid_started.set()
        time.sleep(0.2)
        return real_grid(*args)

    def failing_operator_set(*args):
        grid_started.wait(timeout=10.0)
        seen.append(threading.active_count())
        raise RuntimeError("quadrature layer failed")

    monkeypatch.setattr(cli, "grid_spectrum", slow_grid)
    monkeypatch.setattr(cli, "operator_set", failing_operator_set)
    with pytest.raises(RuntimeError, match="quadrature layer failed"):
        run_verification(RunConfig(nu=2.0))
    assert seen == [before + 1]
    assert threading.active_count() == before


def test_main_momentum_hermiticity_check_scales_with_units(capsys):
    # P scales like hbar k^2: at k = 1000 its quadrature matrix is Hermitian
    # to 2.6e-8 absolute, 2.6e-14 relative, which is no quadrature failure
    code = main(["verify", "--nu", "2", "--k", "1000"])
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert "quadrature order" not in captured.err
    assert json.loads(captured.out)["model"]["k"] == 1000.0


def test_main_grid_oracle_runs_at_large_units(capsys):
    # at hbar = 1e75 the grid's entries are ~1e156, and LAPACK's bisection
    # failed on them ("stebz did not converge"); in units of eps they are
    # the same as at hbar = 1
    assert main(["spectrum", "--nu", "2", "--hbar", "1e75"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert max(row["rel_diff"] for row in rows) < 1e-4
    # verify reaches its verdict; absolute bounds picked at hbar = 1 fail here
    assert main(["verify", "--nu", "2", "--hbar", "1e75"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    grid = {r["name"]: r for r in json.loads(captured.out)["relations"]}["spectrum_grid_match"]
    assert grid["pass"]


def test_main_unwritable_output():
    assert main(["verify", "--nu", "2", "--out", "/no/such/dir/report.json"]) == 3


def test_main_scan_limit_needs_no_strength(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["scan-limit", "--format", "csv", "--nu-list", "1,2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# command=scan-limit"
    data = [line for line in lines if not line.startswith("#")]
    assert data[0].split(",")[0] == "nu"
    assert len(data) == 3


def test_main_writes_stdout_by_default(capsys):
    assert main(["spectrum", "--nu", "1.5", "--n-max", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "spectrum"
    assert len(doc["rows"]) == 3
