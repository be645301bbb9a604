"""Command-line driver: configuration validation, the relation battery,
report serialization, and process exit codes.

Exit-code contract: 0 verified / 1 usage or model error / 2 a relation
failed / 3 output could not be written.
"""

import csv
import io
import json
import math

import pytest

from ptdeform.cli import (
    SCHEMA_VERSION,
    TOLERANCES,
    RunConfig,
    VerificationReport,
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
        {"nu": 2.0, "trust_margin": -1},
        {"nu": 2.0, "trust_margin": 29},
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
    cfg = RunConfig(nu=2.0, quadrature_order=floor)
    assert cfg.effective_quadrature_order == floor


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


def test_battery_is_deterministic(report_nu2):
    again = run_verification(RunConfig(nu=2.0))
    assert [r.residual for r in again.relations] == [r.residual for r in report_nu2.relations]


def test_report_roundtrip(report_nu2):
    d = report_nu2.to_dict()
    back = VerificationReport.from_dict(json.loads(json.dumps(d)))
    assert back.relations == report_nu2.relations
    assert back.overall_pass == report_nu2.overall_pass
    assert back.model == report_nu2.model


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
        (["wavefunctions", "--nu", "1e10", "--n-max", "0", "--samples", "1"],
         "out of numerical range"),
    ],
)
def test_main_rejects_out_of_range_input(argv, needle, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    # one error line and nothing before it, no numpy warning in particular
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("ptdeform: error:")
    assert needle in err[0] and captured.out == ""


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
