"""Command-line frontend: parsing, CSV output, exit codes."""

import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import numpy as np

from casimir_impedance import cli, finite_temperature, zero_temperature
from casimir_impedance import (
    ALUMINUM,
    Formalism,
    ImpedanceKind,
    ImpedanceModel,
    energy_pp0,
    energy_ppT,
    force_pp0,
    force_ppT,
    ideal_closed_forms,
    ideal_energy_T,
)
from casimir_impedance.cli import RunSpec, SpecError, parse_config, parse_grid, parse_length


def _rows(text):
    """Numeric CSV rows as lists of floats."""
    return [
        [float(v) for v in line.split(",")]
        for line in text.splitlines()
        if line and not line.startswith("#")
    ]


def _header(text):
    return [line for line in text.splitlines() if line.startswith("#")]


def _run(spec):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.run(spec)
    return status, buf.getvalue()


def test_parse_length_suffixes():
    assert parse_length("100nm") == pytest.approx(1e-7, rel=1e-15, abs=0)
    assert parse_length("1.5um") == pytest.approx(1.5e-6, rel=1e-15, abs=0)
    assert parse_length("2mm") == pytest.approx(2e-3, rel=1e-15, abs=0)
    assert parse_length("1e-6") == 1e-6
    assert parse_length(2.5e-7) == 2.5e-7


def test_parse_length_errors_name_the_key():
    with pytest.raises(SpecError, match="a: cannot parse"):
        parse_length("abc")
    with pytest.raises(SpecError, match="R: length must be positive"):
        parse_length("-1um", "R")


def test_parse_grid():
    lo, hi, count, log = parse_grid("100nm:10um:20:log")
    assert lo == pytest.approx(1e-7, rel=1e-15, abs=0)
    assert hi == pytest.approx(1e-5, rel=1e-15, abs=0)
    assert (count, log) == (20, True)
    lo, hi, count, log = parse_grid("1e-7:1e-6:5")
    assert (lo, hi, count, log) == (1e-7, 1e-6, 5, False)


def test_parse_grid_errors(tmp_path, capsys):
    with pytest.raises(SpecError, match="MIN:MAX:COUNT"):
        parse_grid("1:2")
    with pytest.raises(SpecError, match="count must be an integer"):
        parse_grid("1um:2um:x")
    with pytest.raises(SpecError, match="log"):
        parse_grid("1um:2um:5:quadratic")
    with pytest.raises(SpecError, match="min must be below max"):
        parse_grid("2um:1um:5")
    with pytest.raises(SpecError, match="at least 2"):
        parse_grid("1um:2um:1")
    # A grid is text only: a JSON list is not a second spelling of it.
    cfg = tmp_path / "run.json"
    cfg.write_text('{"command": "scan", "model": "ideal", "grid": ["1um", "2um", 3]}')
    assert cli.main(["scan", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: grid: expected MIN:MAX:COUNT[:log|lin]")


@pytest.mark.parametrize(
    ("config", "flags", "message"),
    [
        ('{"command": ', [], "error: config: invalid JSON (Expecting value: line 1 column 13"),
        ("command=point\nmodel\n", [], "error: config: line 2 is not key=value: 'model'\n"),
        ("command=point\nT=abc\n", [], "error: T: could not convert string to float: 'abc'\n"),
        (
            "model=ideal\na=1um\n",
            ["--material", "no-such-metal"],
            "error: material: 'no-such-metal' is neither a preset (Al) nor a file\n",
        ),
    ],
    ids=["invalid-json", "not-key-value", "T-not-a-number", "unknown-material"],
)
def test_bad_input_exits_1_with_a_message_naming_it(config, flags, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert cli.main(["point", "--config", str(cfg), *flags]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(message)


def test_parse_config_key_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment\n"
        "command=point\n"
        "model=plasma-exact\n"
        "material=Al\n"
        "a=1um\n"
        "T=300\n"
    )
    spec = parse_config(cfg)
    assert spec.command == "point"
    assert spec.a == pytest.approx(1e-6, rel=1e-15, abs=0)
    assert spec.T == 300.0


def test_parse_config_json(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"command": "point", "model": "ideal", "a": "250nm"}')
    spec = parse_config(cfg)
    assert spec.model == "ideal"
    assert spec.a == pytest.approx(2.5e-7, rel=1e-15, abs=0)


def test_parse_config_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command=point\nmodel=ideal\na=1um\nwat=3\n")
    with pytest.raises(SpecError, match="wat: unknown configuration key"):
        parse_config(cfg)


def test_parse_config_requires_command(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a=1um\n")
    with pytest.raises(SpecError, match="command: required"):
        parse_config(cfg)


def test_flags_override_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command=point\nmodel=ideal\na=1um\n")
    spec = parse_config(cfg, {"a": "2um", "material": None})
    assert spec.a == pytest.approx(2e-6, rel=1e-15, abs=0)


def test_validation_messages():
    with pytest.raises(SpecError, match="command: must be one of"):
        parse_config(None, {"command": "pont"})
    with pytest.raises(SpecError, match="model: unknown impedance kind"):
        parse_config(None, {"command": "point", "model": "drude", "a": "1um"})
    with pytest.raises(SpecError, match="formalism: unknown"):
        parse_config(
            None,
            {"command": "point", "model": "ideal", "formalism": "fresnel", "a": "1um"},
        )
    with pytest.raises(SpecError, match="material: required"):
        parse_config(None, {"command": "point", "a": "1um"})
    with pytest.raises(SpecError, match="a: required"):
        parse_config(None, {"command": "point", "model": "ideal"})
    with pytest.raises(SpecError, match="grid: required"):
        parse_config(None, {"command": "scan", "model": "ideal"})
    with pytest.raises(SpecError, match="non-negative"):
        parse_config(None, {"command": "point", "model": "ideal", "a": "1um", "T": "-2"})
    with pytest.raises(SpecError, match="thermal-ratio requires T > 0"):
        parse_config(None, {"command": "thermal-ratio", "material": "Al", "a": "1um"})
    with pytest.raises(SpecError, match="rel_tol"):
        parse_config(
            None,
            {"command": "point", "model": "ideal", "a": "1um", "rel_tol": "2"},
        )


def test_coefficients_needs_no_material():
    spec = parse_config(None, {"command": "coefficients"})
    assert spec.material is None


@pytest.mark.parametrize(
    "text, spec",
    [
        (
            "command=point\nmodel=ideal\na=1e-07\nT=300.0\nR=0.0001\n",
            RunSpec(command="point", model="ideal", a=1e-7, T=300.0, R=1e-4),
        ),
        (
            "command=scan\nmaterial=Al\nmodel=plasma-exact\nformalism=lifshitz\n"
            "grid=1e-07:1e-05:17:log\nrel_tol=1e-07\n",
            RunSpec(
                command="scan",
                material="Al",
                model="plasma-exact",
                formalism="lifshitz",
                grid=(1e-7, 1e-5, 17, True),
                rel_tol=1e-7,
            ),
        ),
        (
            "command=figure1\nmaterial=Al\ngrid=1.5e-07:5e-06:60:lin\n",
            RunSpec(command="figure1", material="Al", grid=(1.5e-7, 5e-6, 60, False)),
        ),
        (
            "command=thermal-ratio\nmaterial=Al\na=0.001\nT=1.0\n",
            RunSpec(command="thermal-ratio", material="Al", a=1e-3, T=1.0),
        ),
    ],
)
def test_parse_config_key_value_specs(tmp_path, text, spec):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert parse_config(path) == spec


def test_point_ideal_values():
    spec = RunSpec(command="point", model="ideal", a=1e-6, R=1e-4)
    status, text = _run(spec)
    assert status == 0
    assert "# columns = a_m,T_K,kind,value,abs_error,converged" in _header(text)
    rows = _rows(text)
    assert len(rows) == 3
    e0, f0 = ideal_closed_forms(1e-6)
    assert rows[0][2] == 0.0 and rows[0][3] == pytest.approx(e0, rel=1e-8, abs=0)
    assert rows[1][2] == 1.0 and rows[1][3] == pytest.approx(f0, rel=1e-8, abs=0)
    assert rows[2][2] == 2.0
    assert rows[2][3] == pytest.approx(2.0 * math.pi * 1e-4 * rows[0][3], rel=1e-9, abs=0)
    assert all(row[5] == 1.0 for row in rows)


def test_point_thermal_ideal():
    spec = RunSpec(command="point", model="ideal", a=1e-6, T=300.0)
    status, text = _run(spec)
    rows = _rows(text)
    assert rows[0][1] == 300.0
    assert rows[0][3] == pytest.approx(ideal_energy_T(1e-6, 300.0), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    ("T", "module", "engine"),
    [
        ("0", zero_temperature, "integrate_xi_y"),
        ("300", finite_temperature, "_matsubara_correction"),
    ],
)
def test_point_sphere_row_maps_the_energy_row(T, module, engine, monkeypatch, capsys):
    # The sphere row is 2 pi R times the energy row above it, not a third
    # plate computation: one reduction for energy and force together, the
    # wedge at T = 0 and the Matsubara sums at T > 0.
    calls = []
    original = getattr(module, engine)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, engine, counted)
    argv = ["point", "--material", "Al", "--a", "1um", "--R", "100um", "--T", T]
    assert cli.main(argv) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(calls) == 1
    assert [row[2] for row in rows] == [0.0, 1.0, 2.0]
    assert rows[2][3] == 2.0 * math.pi * parse_length("100um", "R") * rows[0][3]


def test_thermal_ratio_output():
    spec = RunSpec(
        command="thermal-ratio", material="Al", model="normal-skin", a=1e-3, T=1.0
    )
    status, text = _run(spec)
    assert status == 0
    (row,) = _rows(text)
    a_m, T_K, T_eff, e_ratio, f_ratio, err, conv = row
    assert (a_m, T_K, conv) == (1e-3, 1.0, 1.0)
    assert T_eff == pytest.approx(1.1449, rel=1e-3, abs=0)
    assert e_ratio == pytest.approx(0.9999169, abs=2e-6)
    assert f_ratio == pytest.approx(0.9997448, abs=2e-6)


def _deviation(observable, kind, a):
    """(Q_L - Q_imp) / Q_L from the two public plate observables."""
    ref, direct = (
        observable(a, ImpedanceModel(kind, formalism), ALUMINUM).value
        for formalism in (Formalism.LIFSHITZ, Formalism.IMPEDANCE)
    )
    return (ref - direct) / ref


def test_cli_deviations_and_ratios_equal_the_library():
    # The CLI writes the numbers of the public observables: .16e
    # round-trips a double.
    grid = (5e-7, 2e-6, 2, True)
    exact, approx = ImpedanceKind.PLASMA_EXACT, ImpedanceKind.PLASMA_APPROX
    _, text = _run(RunSpec(command="figure1", material="Al", grid=grid))
    for a, d_exact, *_ in _rows(text):
        assert d_exact == _deviation(force_pp0, exact, a)
    _, text = _run(RunSpec(command="figure2", material="Al", grid=grid))
    for a, d_exact, d_approx, *_ in _rows(text):
        assert d_exact == _deviation(energy_pp0, exact, a)
        assert d_approx == _deviation(energy_pp0, approx, a)
    ideal = ImpedanceModel(ImpedanceKind.IDEAL_METAL)
    for model, a, T in (("plasma-exact", 1e-6, 300.0), ("normal-skin", 1e-3, 1.0)):
        spec = RunSpec(command="thermal-ratio", material="Al", model=model, a=a, T=T)
        _, text = _run(spec)
        ((_, _, _, e_ratio, f_ratio, _, _),) = _rows(text)
        model = ImpedanceModel(ImpedanceKind(model))
        assert e_ratio == energy_ppT(a, T, model, ALUMINUM).value / ideal_energy_T(a, T)
        assert f_ratio == (
            force_ppT(a, T, model, ALUMINUM).value / force_ppT(a, T, ideal).value
        )


def test_coefficients_table():
    status, text = _run(RunSpec(command="coefficients"))
    assert status == 0
    rows = _rows(text)
    assert [row[0] for row in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert rows[3][1] == pytest.approx(-87.131601, rel=1e-6, abs=0)
    assert rows[3][2] == pytest.approx(-94.651299, rel=1e-6, abs=0)
    assert rows[3][3] == pytest.approx(-22.498445, rel=1e-6, abs=0)
    assert rows[1][1] == rows[1][2] == rows[1][3] == pytest.approx(-16.0 / 3.0, rel=1e-6, abs=0)


def test_figure1_curves_and_determinism():
    spec = RunSpec(
        command="figure1", material="Al", grid=(5e-7, 5e-6, 3, True), rel_tol=1e-7
    )
    status, text = _run(spec)
    assert status == 0
    rows = _rows(text)
    assert [row[0] for row in rows] == sorted(row[0] for row in rows)
    # both deviation curves decay toward large separations
    assert abs(rows[-1][1]) < abs(rows[0][1])
    assert abs(rows[-1][2]) < abs(rows[0][2])
    status2, text2 = _run(spec)
    assert text2 == text


def test_scan_run_twice_byte_identical():
    spec = RunSpec(
        command="scan", model="ideal", grid=(1e-7, 1e-6, 4, True), rel_tol=1e-7
    )
    _, first = _run(spec)
    _, second = _run(spec)
    assert first == second
    rows = _rows(first)
    assert len(rows) == 4
    e0, f0 = ideal_closed_forms(1e-7)
    assert rows[0][1] == pytest.approx(e0, rel=1e-6, abs=0)
    assert rows[0][4] == pytest.approx(f0, rel=1e-6, abs=0)


def test_thermal_scan_rows_equal_the_library_on_a_linear_grid(capsys):
    argv = ["scan", "--material", "Al", "--T", "40", "--grid", "300nm:3um:3:lin"]
    assert cli.main(argv) == 0
    rows = _rows(capsys.readouterr().out)
    model = ImpedanceModel(ImpedanceKind.PLASMA_EXACT)
    expected = []
    # "300nm" parses to 300 * 1e-9, one ulp above 3e-7.
    for a in np.linspace(parse_length("300nm"), parse_length("3um"), 3).tolist():
        row = [a]
        for observable in (energy_ppT, force_ppT):
            ob = observable(a, 40.0, model, ALUMINUM)
            row += [ob.value, ob.quadrature.abs_error_estimate, float(ob.quadrature.converged)]
        expected.append(row)
    assert rows == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["figure1", "--material", "Al", "--grid", "200nm:1um:2", "--T", "5"],
        ["figure2", "--material", "Al", "--grid", "200nm:1um:2", "--T", "300"],
        ["coefficients", "--T", "5"],
    ],
)
def test_zero_temperature_commands_reject_a_temperature(argv, capsys):
    # Their rows are T = 0 values; a header reading T_K = 300.0 misstated them.
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: T: {argv[0]} is computed at T = 0 only, got ")
    assert cli.main(["coefficients", "--T", "0"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--a", "1mm", "--T", "1"],
        ["thermal-ratio", "--a", "1mm", "--T", "1"],
        ["scan", "--grid", "1mm:2mm:2", "--T", "1"],
    ],
)
def test_normal_skin_lifshitz_needs_zero_temperature(argv, capsys):
    # The l = 0 Matsubara term needs the zero-frequency reflection, which
    # this pair leaves undefined; it used to end in a traceback.
    flags = ["--material", "Al", "--model", "normal-skin", "--formalism", "lifshitz"]
    assert cli.main(argv + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: formalism: the zero-frequency reflection of a dissipative")
    assert "Traceback" not in err
    assert cli.main(["point", "--a", "1mm", *flags]) == 0


_AL_FILE = "omega_p_rad_s=1.9e16\ngamma_rad_s=9.6e13\n"


@pytest.mark.parametrize(
    "text",
    [
        "omega_p_rad_s=1.9e16\ngamma_rad_s=abc\n",
        _AL_FILE + "colour=grey\n",
        _AL_FILE + "gamma_rad_s=9.6e13\n",
        "omega_p_rad_s=1.9e16\n",
        "omega_p_rad_s=1.9e16\ngamma_rad_s=1.9e16\n",
    ],
    ids=["bad-float", "unknown-key", "duplicate-key", "missing-key", "gamma-above-omega_p"],
)
def test_main_reports_a_malformed_material_file(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert cli.main(["point", "--material", str(path), "--a", "1um"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: material: ") and "Traceback" not in err


def test_material_file_matches_the_preset(tmp_path, capsys):
    path = tmp_path / "al.txt"
    path.write_text(_AL_FILE + "name=Al\n")
    outputs = []
    for material in (str(path), "Al"):
        assert cli.main(["point", "--material", material, "--a", "1um"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_nonconverged_rows_exit_2(monkeypatch):
    stub = SimpleNamespace(
        value=-1.0,
        quadrature=SimpleNamespace(abs_error_estimate=1.0, converged=False),
    )
    plates = cli._plates

    def force_stubbed(*args):
        energy, _ = plates(*args)
        return [energy, stub]

    monkeypatch.setattr(cli, "_plates", force_stubbed)
    spec = RunSpec(command="point", model="ideal", a=1e-6)
    status, text = _run(spec)
    assert status == 2
    rows = _rows(text)
    assert rows[1][5] == 0.0


@pytest.mark.parametrize("command", ["figure1", "figure2", "scan"])
def test_nonconverged_grid_rows_exit_2(monkeypatch, command):
    grid = (1e-6, 2e-6, 3, True)
    middle = cli._grid_points(grid)[1]

    def stub(a, T, requests, *args):
        return [
            SimpleNamespace(
                value=-1.0,
                quadrature=SimpleNamespace(abs_error_estimate=1e-12, converged=a != middle),
            )
            for _ in requests
        ]

    monkeypatch.setattr(cli, "_plates", stub)
    monkeypatch.setattr(zero_temperature, "_plates", stub)
    spec = RunSpec(command=command, material="Al", grid=grid)
    status, text = _run(spec)
    assert status == 2
    columns, _ = cli._COMMANDS[command]
    flags = [i for i, name in enumerate(columns) if name.endswith("converged")]
    rows = _rows(text)
    assert [[row[i] for i in flags] for row in rows] == [
        [1.0] * len(flags), [0.0] * len(flags), [1.0] * len(flags)
    ]


@pytest.mark.parametrize("command", ["figure1", "figure2", "scan"])
def test_grid_observables_carry_python_floats(monkeypatch, command):
    # The grid's separations are Python floats, so every Observable of a
    # grid command carries Python floats, not numpy scalars.
    seen = []

    plates = zero_temperature._plates

    def recorded(*args):
        seen.extend(plates(*args))
        return seen[-len(args[2]):]

    monkeypatch.setattr(cli, "_plates", recorded)
    monkeypatch.setattr(zero_temperature, "_plates", recorded)
    spec = RunSpec(command=command, material="Al", grid=(1e-6, 2e-6, 2, True), rel_tol=1e-6)
    status, _ = _run(spec)
    assert status == 0 and seen
    for ob in seen:
        fields = (
            ob.geometry.separation,
            ob.value,
            ob.quadrature.value,
            ob.quadrature.abs_error_estimate,
        )
        assert [type(v) for v in fields] == [float] * 4


def test_grid_warnings_collapse_into_one_stderr_line(capsys):
    # delta_0/a exceeds 0.1 at the two smallest of five separations.
    spec = RunSpec(
        command="figure1", material="Al", grid=(1e-7, 3e-7, 5, True), rel_tol=1e-6
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, text = _run(spec)
    assert status == 0 and len(_rows(text)) == 5
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("warning: figure1: delta_0/a = ")
    assert line.endswith("(2 warnings like this)")
    _, again = _run(spec)
    assert again == text


def test_point_warning_is_one_stderr_line(capsys):
    # The proximity warning names the CLI's own line, so point summarizes
    # its warnings as the grid commands do.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = cli.main(["point", "--material", "Al", "--a", "1um", "--R", "10um"])
    assert status == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: point: separation/sphere_radius = 0.1 exceeds 0.01; the "
        "sphere-plate mapping has an error of this order (1 warning like this)"
    ]


def test_main_reports_spec_errors(capsys):
    status = cli.main(["point", "--model", "ideal"])
    assert status == 1
    assert "error: a:" in capsys.readouterr().err


def test_main_rejects_a_figure1_grid_outside_the_series_domain(capsys):
    # Aluminum's delta_0 = 15.8 nm puts 30 nm at delta_0/a = 0.526, past the
    # series domain bound 0.3; from 53 nm on the grid is accepted.
    status = cli.main(["figure1", "--material", "Al", "--grid", "30nm:5um:25"])
    assert status == 1
    err = capsys.readouterr().err
    assert "error: grid:" in err and "0.526" in err and "Traceback" not in err
    assert parse_config(None, {"command": "figure1", "material": "Al", "grid": "53nm:5um:3"})


@pytest.mark.parametrize("command", ["figure1", "figure2"])
def test_figures_require_a_material(command):
    # Both figures compare plasma models, whatever --model says.
    with pytest.raises(SpecError, match=f"material: required for command '{command}'"):
        parse_config(None, {"command": command, "model": "ideal", "grid": "100nm:1um:3"})


@pytest.mark.parametrize("command", ["point", "thermal-ratio"])
def test_main_rejects_an_infinite_temperature(command, capsys):
    status = cli.main([command, "--material", "Al", "--a", "1um", "--T", "inf"])
    assert status == 1
    assert "error: T: temperature must be non-negative and finite" in capsys.readouterr().err


def test_main_writes_output_file(tmp_path):
    out = tmp_path / "point.csv"
    status = cli.main(
        ["point", "--model", "ideal", "--a", "1um", "--out", str(out)]
    )
    assert status == 0
    text = out.read_text()
    assert text.startswith("# tool = casimir-impedance")
    assert len(_rows(text)) == 2


def test_main_merges_config_and_flags(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("model=ideal\na=1um\n")
    status = cli.main(["point", "--config", str(cfg), "--a", "2um"])
    assert status == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0][0] == pytest.approx(2e-6, rel=1e-15, abs=0)


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_main_reports_an_unreadable_config(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b"command=point\n\xff\xfe\n")
    assert cli.main(["point", "--model", "ideal", "--a", "1um", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "Traceback" not in err


# ------------------------------------------------- main()'s per-process step

_SCAN = ["scan", "--material", "Al", "--grid", "100nm:1um:3:log"]


@pytest.fixture
def fresh_process_step():
    """main()'s once-per-process step as a new process finds it."""
    cli._process_parser.cache_clear()
    yield
    cli._process_parser.cache_clear()


def _counting_loader(loads, calls):
    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def load():
        loads.append(None)
        return SimpleNamespace(mallopt=mallopt)

    return load


def _main_csv(argv, path):
    status = cli.main([*argv, "--out", str(path)])
    return status, path.read_bytes()


def test_main_sets_the_allocator_policy_once_and_run_never(
    fresh_process_step, monkeypatch, tmp_path
):
    loads, calls = [], []
    monkeypatch.setattr(cli, "_libc", _counting_loader(loads, calls))
    assert _run(RunSpec(command="scan", model="ideal", grid=(1e-7, 1e-6, 3, True)))[0] == 0
    assert loads == []
    for k in range(3):
        assert _main_csv(_SCAN, tmp_path / f"{k}.csv")[0] == 0
    assert len(loads) == 1
    assert calls == [(-1, 64 << 20), (-3, 4 << 20)]


def _oserror_loader():
    raise OSError("no C library")


@pytest.mark.parametrize(
    "loader", [_oserror_loader, SimpleNamespace], ids=["raises OSError", "no mallopt"]
)
def test_main_without_mallopt_writes_the_same_csv(
    fresh_process_step, monkeypatch, tmp_path, loader
):
    expected = _main_csv(_SCAN, tmp_path / "with.csv")
    cli._process_parser.cache_clear()
    monkeypatch.setattr(cli, "_libc", loader)
    assert _main_csv(_SCAN, tmp_path / "without.csv") == expected


def test_main_calls_in_one_process_write_identical_csvs(fresh_process_step, tmp_path):
    first = _main_csv(_SCAN, tmp_path / "first.csv")
    assert first[0] == 0
    assert _main_csv(_SCAN, tmp_path / "second.csv") == first


def test_module_entry_point_writes_the_bytes_of_main(tmp_path):
    argv = [*_SCAN, "--T", "300"]
    expected = _main_csv(argv, tmp_path / "in_process.csv")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "module.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "casimir_impedance", *argv, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert (proc.returncode, out.read_bytes()) == expected, proc.stderr


def test_console_script_targets_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"casimir": "casimir_impedance.cli:main"}


@pytest.mark.parametrize("command", ["figure1", "figure2", "scan", "point"])
def test_each_zero_temperature_row_is_one_wedge(command, monkeypatch):
    # Hardware-independent cost guard: every observable and formalism of a
    # T = 0 row comes from one wedge call (figure1, scan and point took 2
    # calls a row, figure2 4), and each keeps the points of its own call.
    results = []
    wedge = zero_temperature.integrate_xi_y

    def counted(*args, **kwargs):
        results.append(wedge(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(zero_temperature, "integrate_xi_y", counted)
    grid = parse_grid("100nm:2um:3:log")
    if command == "point":
        spec, points = RunSpec(command=command, material="Al", a=1e-6), [1e-6]
    else:
        spec, points = RunSpec(command=command, material="Al", grid=grid), cli._grid_points(grid)
    status, _ = _run(spec)
    assert status == 0
    assert len(results) == len(points)
    monkeypatch.undo()
    exact, approx = ImpedanceKind.PLASMA_EXACT, ImpedanceKind.PLASMA_APPROX
    lif, imp = Formalism.LIFSHITZ, Formalism.IMPEDANCE
    ops = {
        "figure1": [(force_pp0, exact, lif), (force_pp0, exact, imp)],
        "figure2": [(energy_pp0, kind, f) for kind in (exact, approx) for f in (lif, imp)],
        "scan": [(energy_pp0, exact, imp), (force_pp0, exact, imp)],
    }
    for a, res in zip(points, results):
        lone = [
            op(a, ImpedanceModel(kind, f), ALUMINUM).quadrature.evaluations
            for op, kind, f in ops.get(command, ops["scan"])
        ]
        assert [r.evaluations for r in res] == lone


def test_main_validates_and_loads_the_material_once(tmp_path, monkeypatch):
    # figure1 checks its grid against the material's delta_0; the material
    # file is still read once, and the spec checked once, per command.
    path = tmp_path / "al.txt"
    path.write_text(_AL_FILE + "name=Al\n")
    calls = []
    for name in ("_validate", "_resolve_material", "load_material"):

        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    out = str(tmp_path / "figure1.csv")
    argv = ["figure1", "--material", str(path), "--grid", "100nm:1um:2", "--out", out]
    assert cli.main(argv) == 0
    assert sorted(calls) == ["_resolve_material", "_validate", "load_material"]
    # run() still checks a spec from a library caller.
    with pytest.raises(SpecError, match="command: must be one of"):
        cli.run(RunSpec(command="pont"))


def test_thermal_point_rows_equal_the_library(capsys):
    # At T > 0 the row's two Matsubara sums are one reduction; each is bit
    # for bit the library's own call.
    assert cli.main(["point", "--material", "Al", "--a", "300nm", "--T", "300"]) == 0
    rows = _rows(capsys.readouterr().out)
    model = ImpedanceModel(ImpedanceKind.PLASMA_EXACT)
    for row, op in zip(rows, (energy_ppT, force_ppT)):
        ob = op(parse_length("300nm"), 300.0, model, ALUMINUM)
        q = ob.quadrature
        assert row[3:] == [ob.value, q.abs_error_estimate, float(q.converged)]
