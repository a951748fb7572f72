import importlib.util
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from microgt import bearing as br
from microgt import cli, config, cycle, gas, turbo
from microgt import combustor as cb
from microgt.config import ConfigError, DEFAULT_CONFIG, default_config, validate


def test_default_config_is_valid():
    config = default_config()
    design = config.cycle_design
    assert design.air_mass_flow == pytest.approx(0.36e-3)
    assert design.pressure_ratio == 4.0
    assert design.fuel_mass_flow == pytest.approx(17.0 / 3600.0 * 1e-3, rel=1e-6)


def test_validate_single_violation_names_field_and_bound():
    text = DEFAULT_CONFIG.replace("eta_compressor = 0.65", "eta_compressor = 1.5")
    with pytest.raises(ConfigError) as info:
        validate(text)
    assert len(info.value.errors) == 1
    assert "eta_compressor" in info.value.errors[0]
    assert "(0, 1]" in info.value.errors[0]


def test_validate_accumulates_all_violations():
    text = (DEFAULT_CONFIG
            .replace("eta_compressor = 0.65", "eta_compressor = 1.5")
            .replace("pressure_ratio = 4.0", "pressure_ratio = 0.2"))
    with pytest.raises(ConfigError) as info:
        validate(text)
    joined = "\n".join(info.value.errors)
    assert len(info.value.errors) == 2
    assert "eta_compressor" in joined and "pressure_ratio" in joined


def test_validate_rejects_unknown_key():
    text = DEFAULT_CONFIG + "\n[cycle]\nflux_capacitor = 1.21\n"
    with pytest.raises(ConfigError) as info:
        validate(text)
    assert any("unknown key 'flux_capacitor'" in e for e in info.value.errors)


def test_validate_rejects_duplicate_key():
    text = DEFAULT_CONFIG + "\n[cycle]\npressure_ratio = 9.0\n"
    first = DEFAULT_CONFIG.splitlines().index("pressure_ratio = 4.0") + 1
    last = len(text.splitlines())
    with pytest.raises(ConfigError) as info:
        validate(text)
    assert info.value.errors == [f"line {last}: duplicate key 'pressure_ratio' "
                                 f"in section [cycle] (first on line {first})"]


def test_validate_reports_parse_error_with_line_number():
    lines = DEFAULT_CONFIG.splitlines()
    lines[7] = "this is not a key value pair"
    with pytest.raises(ConfigError) as info:
        validate("\n".join(lines))
    assert any("line 8" in e for e in info.value.errors)


def _with(key, value):
    """DEFAULT_CONFIG with the line of key, in whichever section, set to value."""
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", DEFAULT_CONFIG, flags=re.M)
    assert count == 1
    return text


@pytest.mark.parametrize("section, key, value, other", [
    ("bearing", "outer_radius_m", 1.0e-3, "inner_radius_m"),
    ("combustor", "annulus_outer_radius_m", 5.0e-3, "annulus_inner_radius_m"),
    ("turbine", "outer_diameter_m", 4.4e-3, "inner_diameter_m"),
])
def test_order_rule_is_one_violation_naming_both_keys(tmp_path, capsys, section, key,
                                                      value, other):
    # each value equals the other key's default, so the order is violated
    cfg = tmp_path / "cfg"
    cfg.write_text(_with(key, value))
    assert cli.main(["validate", str(cfg)]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1
    assert all(name in errors[0] for name in (f"[{section}]", key, other))
    with pytest.raises(ConfigError) as info:
        default_config().with_value(section, key, value)
    assert info.value.errors == [errors[0].removeprefix("invalid: ")]


@pytest.mark.parametrize("key, value", [
    ("outer_diameter_m", "1e200"),  # r_tip ** 2 overflows
    ("blade_height_m", "1.7e308"),  # the mass is finite, its weight inf
], ids=["overflow", "inf"])
def test_validate_rejects_rotor_weight_beyond_float_range(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg"
    cfg.write_text(_with(key, value))
    assert cli.main(["validate", str(cfg)]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1
    assert all(name in errors[0] for name in ("[turbine]", "outer_diameter_m",
                                               "blade_height_m"))


@pytest.mark.parametrize("n_r, n_theta, code", [
    (129, 768, 0), (257, 384, 0), (513, 192, 0),
    (1000000, 96, 1), (65, 1000000, 1), (317, 317, 1),
])
def test_validate_bounds_grid_node_count(tmp_path, capsys, n_r, n_theta, code):
    # validation only: a solve on the rejected grids would not fit in memory
    text = re.sub(r"^grid_radial_nodes = .*$", f"grid_radial_nodes = {n_r}",
                  _with("grid_angular_nodes", n_theta), flags=re.M)
    cfg = tmp_path / "cfg"
    cfg.write_text(text)
    assert cli.main(["validate", str(cfg)]) == code
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == code
    assert all(name in line for line in errors
               for name in ("[bearing]", "grid_radial_nodes", "grid_angular_nodes"))


@pytest.mark.parametrize("points, code", [
    (config.MAX_POINTS, 0), (config.MAX_POINTS + 1, 1), (1000000000000, 1),
])
def test_validate_bounds_rpm_point_count(tmp_path, capsys, points, code):
    # validation only: the operating line of 1e12 points would not fit on disk
    cfg = tmp_path / "cfg"
    cfg.write_text(_with("rpm_points", points))
    assert cli.main(["validate", str(cfg)]) == code
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == code
    assert all("[turbine] rpm_points" in line for line in errors)


def test_validate_accepts_angular_nodes_off_multiples_of_four(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text(_with("grid_angular_nodes", 98))
    assert cli.main(["validate", str(cfg)]) == 0


def test_cli_validate_exit_codes(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text(DEFAULT_CONFIG)
    assert cli.main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(DEFAULT_CONFIG.replace("eta_turbine = 0.75", "eta_turbine = 7.5"))
    assert cli.main(["validate", str(bad)]) == 1


def test_run_cycle_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "cycle", "--out", str(out)]) == 0
    stations = (out / "stations.csv").read_text().splitlines()
    assert stations[0] == "station,T_K,p_Pa,mdot_kg_s"
    assert len(stations) == 5  # header + four stations
    printed = capsys.readouterr().out
    assert "net power" in printed and "39.0 W" in printed
    summary = (out / "summary.txt").read_text()
    assert "net power" in summary


def test_run_bearing_zero_rpm_zero_load(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text(DEFAULT_CONFIG.replace("rpm = 15000.0\nambient_pressure_pa",
                                          "rpm = 0.0\nambient_pressure_pa"))
    out = tmp_path / "out"
    assert cli.main(["run", "bearing", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "loadmap.csv").read_text().splitlines()
    load = float(rows[1].split(",")[2])
    assert load == 0.0


def test_run_all_cross_summary(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "all", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "phi = 0.45" in summary or "phi = 0.4498" in summary
    assert "zero-incidence" in summary
    assert "equilibrium clearances" in summary
    assert "warning:" not in summary  # the defaults stay in the verified range
    for name in ("stations.csv", "performance.csv", "combustor.csv",
                 "operating_line.csv", "field.csv", "loadmap.csv"):
        assert (out / name).exists()


def test_run_bearing_solves_each_film_once(tmp_path, monkeypatch):
    """The nominal film's load comes from the field solve, so no (face, film,
    grid) is solved twice, and loadmap.csv matches a fresh solve of it."""
    calls = []
    solve = br.solve_reynolds

    def counted(*args):
        calls.append(args[:4])  # (face, film, n_r, n_theta), not the factor holder
        return solve(*args)

    monkeypatch.setattr(br, "solve_reynolds", counted)
    out = tmp_path / "out"
    assert cli.main(["run", "bearing", "--out", str(out)]) == 0
    monkeypatch.undo()
    config = default_config()
    top, film = config.bearing_face("top"), config.film_state
    assert calls.count((top, film, 65, 96)) == 1
    assert len(set(calls)) == len(calls)
    row = [film.nominal_clearance, film.rpm, br.solve_load(top, film, 65, 96),
           br.axial_stiffness(top, film, 65, 96)]
    assert (out / "loadmap.csv").read_text() == cli._csv(
        ["clearance_m", "rpm", "load_N", "stiffness_N_per_m"], [row])


def test_run_all_factorisations(tmp_path, monkeypatch):
    """Neighbouring solves share their Jacobian factors: the default run all
    factors 16 times for its 51 Reynolds solves (55 when every Newton step
    factored)."""
    factored = []
    factor = br.splu

    def counted(*args, **kwargs):
        factored.append(args)
        return factor(*args, **kwargs)

    monkeypatch.setattr(br, "splu", counted)
    assert cli.main(["run", "all", "--out", str(tmp_path / "out")]) == 0
    assert len(factored) <= 16


def test_run_bearing_warns_outside_verified_lambda(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(DEFAULT_CONFIG.replace("nominal_clearance_m = 5e-06",
                                          "nominal_clearance_m = 5e-07"))
    out = tmp_path / "out"
    assert cli.main(["run", "bearing", "--config", str(cfg), "--out", str(out)]) == 0
    warning = ("warning: bearing: compressibility number 33.3 at 0.50 um "
               "clearance is above 30, outside the verified range")
    assert (out / "summary.txt").read_text().splitlines()[-1] == warning
    assert capsys.readouterr().err.splitlines() == [warning]


def test_run_bearing_warns_on_under_resolved_stripes(tmp_path, capsys):
    # 60 grooves of width fraction 0.5 leave each stripe under one angular
    # cell on the 65x96 config grid and on the 33x64 equilibrium grid
    cfg = tmp_path / "cfg"
    cfg.write_text(DEFAULT_CONFIG.replace("groove_count = 12", "groove_count = 60"))
    out = tmp_path / "out"
    assert cli.main(["run", "bearing", "--config", str(cfg), "--out", str(out)]) == 0
    warnings = [
        "warning: bearing: the narrowest groove or land stripe spans 0.80 angular "
        "cells at n_theta = 96 (65x96 grid), so the groove-edge treatment falls "
        "back to first order",
        "warning: bearing: the narrowest groove or land stripe spans 0.53 angular "
        "cells at n_theta = 64 (33x64 grid), so the groove-edge treatment falls "
        "back to first order",
    ]
    assert (out / "summary.txt").read_text().splitlines()[-2:] == warnings
    assert capsys.readouterr().err.splitlines() == warnings


def test_run_all_deterministic(tmp_path):
    out_1 = tmp_path / "a"
    out_2 = tmp_path / "b"
    assert cli.main(["run", "all", "--out", str(out_1)]) == 0
    assert cli.main(["run", "all", "--out", str(out_2)]) == 0
    for name in ("stations.csv", "performance.csv", "combustor.csv",
                 "operating_line.csv", "field.csv", "loadmap.csv"):
        assert (out_1 / name).read_bytes() == (out_2 / name).read_bytes()


def test_run_sweep_combustor(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", "combustor", "--out", str(out),
                     "--sweep", "air_mass_flow_kg_s=0.05e-3:0.15e-3:3"])
    assert code == 0
    rows = (out / "combustor.csv").read_text().splitlines()
    assert len(rows) == 4
    flows = [float(r.split(",")[1]) for r in rows[1:]]
    assert flows == pytest.approx([0.05, 0.10, 0.15])


def test_run_cycle_without_net_power_leaves_sfc_empty(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text(_with("fuel_mass_flow_kg_s", "0"))
    out = tmp_path / "out"
    assert cli.main(["run", "cycle", "--config", str(cfg), "--out", str(out)]) == 0
    header, row = (out / "performance.csv").read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["net_power_W"]) < 0.0
    assert values["sfc_kg_per_J"] == ""


def test_run_combustor_fuel_free_point_leaves_chemical_time_empty(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "combustor", "--out", str(out),
                     "--sweep", "equivalence_ratio=0:0.8:3"]) == 0
    header, *rows = (out / "combustor.csv").read_text().splitlines()
    columns = header.split(",")
    fuel_free, *burning = [dict(zip(columns, r.split(","))) for r in rows]
    assert fuel_free["chemical_time_s"] == ""
    assert float(fuel_free["damkohler"]) == 0.0 and fuel_free["stable"] == "0"
    assert all(float(r["chemical_time_s"]) > 0.0 for r in burning)


def test_run_rejects_bad_sweep(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "combustor", "--out", str(out),
                     "--sweep", "nonsense"]) == 1
    assert cli.main(["run", "combustor", "--out", str(out),
                     "--sweep", "bogus_key=1:2:3"]) == 1


@pytest.mark.parametrize("subcommand, spec", [
    ("turbine", "rpm=1:2:1.5"), ("turbine", "rpm=a:2:3"), ("turbine", "rpm=1:2"),
    ("turbine", "rpm=1:2:3:4"), ("turbine", "=1:2:3"), ("turbine", "bogus=1:2:3"),
    ("turbine", "rpm=1:2:0"), ("turbine", f"rpm=1:2:{config.MAX_POINTS + 1}"),
    ("turbine", "rpm=1:2:1000000000000"), ("all", "rpm=1:2:3"),
])
def test_run_rejects_invalid_sweep_before_any_stage(tmp_path, capsys, monkeypatch,
                                                    subcommand, spec):
    ran = []
    for stage in cli.STAGES:
        monkeypatch.setitem(cli.STAGES, stage, lambda *args, stage=stage: ran.append(stage))
    out = tmp_path / "out"
    assert cli.main(["run", subcommand, "--out", str(out), "--sweep", spec]) == 1
    printed = capsys.readouterr()
    assert printed.err.startswith("invalid:") and "--sweep" in printed.err
    assert printed.out == "" and ran == []
    assert not out.exists()


def test_run_sweep_ends_on_stop(tmp_path):
    # 0.1 + 7 * (0.9 / 7) rounds to one ulp above 1, outside equivalence_ratio's [0, 1]
    out = tmp_path / "out"
    assert cli.main(["run", "combustor", "--out", str(out),
                     "--sweep", "equivalence_ratio=0.1:1:8"]) == 0
    rows = (out / "combustor.csv").read_text().splitlines()
    assert len(rows) == 9 and rows[-1].split(",")[0] == "1"


def test_sweep_points_between_ends_near_the_float_limit():
    key, values, configs = cli._parse_sweep("rpm=-1e308:1e308:3", "bearing",
                                            default_config())
    assert key == "rpm" and values == [-1e308, 0.0, 1e308]
    assert [c.film_state.rpm for c in configs] == values


def test_run_sweep_of_one_point_runs_start(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "combustor", "--out", str(out),
                     "--sweep", "equivalence_ratio=0.6:0.9:1"]) == 0
    header, *rows = (out / "combustor.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows] == ["0.6"]


def test_run_cycle_sweep_rows_are_cycle_runs(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "cycle", "--out", str(out),
                     "--sweep", "pressure_ratio=3:5:3"]) == 0
    design = default_config().cycle_design
    rows = []
    for ratio in (3.0, 4.0, 5.0):
        perf, _ = cycle.run_cycle(replace(design, pressure_ratio=ratio))
        rows.append([ratio, perf.net_power, perf.turbine_inlet_temperature,
                     perf.thermal_efficiency])
    assert (out / "cycle_sweep.csv").read_text() == cli._csv(
        ["pressure_ratio", "net_power_W", "TIT_K", "thermal_efficiency"], rows)


def test_run_turbine_sweep_is_the_operating_line_of_its_range(tmp_path):
    swept, line = tmp_path / "swept", tmp_path / "line"
    assert cli.main(["run", "turbine", "--out", str(swept),
                     "--sweep", "rpm=10000:20000:3"]) == 0
    cfg = tmp_path / "cfg"
    cfg.write_text(DEFAULT_CONFIG.replace("rpm_min = 5000.0", "rpm_min = 10000.0")
                   .replace("rpm_max = 30000.0", "rpm_max = 20000.0")
                   .replace("rpm_points = 11", "rpm_points = 3"))
    assert cli.main(["run", "turbine", "--config", str(cfg), "--out", str(line)]) == 0
    text = (swept / "operating_line.csv").read_text()
    assert [r.split(",")[0] for r in text.splitlines()[1:]] == ["10000", "15000", "20000"]
    assert text == (line / "operating_line.csv").read_text()


def test_run_bearing_sweep_solves_each_film(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text(DEFAULT_CONFIG.replace("grid_radial_nodes = 65", "grid_radial_nodes = 33")
                   .replace("grid_angular_nodes = 96", "grid_angular_nodes = 64"))
    out = tmp_path / "out"
    assert cli.main(["run", "bearing", "--config", str(cfg), "--out", str(out),
                     "--sweep", "nominal_clearance_m=5e-6:7e-6:3"]) == 0
    top, film = default_config().bearing_face("top"), default_config().film_state
    _, *rows = (out / "loadmap.csv").read_text().splitlines()
    assert len(rows) == 3
    for row, clearance in zip(rows, (5e-6, 6e-6, 7e-6)):
        f = replace(film, nominal_clearance=clearance)
        expected = [clearance, film.rpm, br.solve_load(top, f, 33, 64),
                    br.axial_stiffness(top, f, 33, 64)]
        assert [float(v) for v in row.split(",")] == pytest.approx(
            expected, rel=1e-8, abs=0.0)


def test_run_rejects_unreadable_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "cycle", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_run_write_failure_removes_written_files(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.txt").mkdir(parents=True)  # written last, after the CSVs
    assert cli.main(["run", "cycle", "--out", str(out)]) == 2
    assert "cannot write outputs" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["summary.txt"]


def test_run_unwritable_output(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "nested"  # cannot create a directory under a file
    assert cli.main(["run", "cycle", "--out", str(out)]) == 2


def test_defaults_subcommand(capsys):
    assert cli.main(["defaults"]) == 0
    printed = capsys.readouterr().out
    assert printed == DEFAULT_CONFIG


@pytest.mark.parametrize("subcommand, old, new, name", [
    ("cycle", "air_mass_flow_kg_s = 0.00036\n", "air_mass_flow_kg_s = inf\n",
     "[cycle] air_mass_flow_kg_s"),
    ("bearing", "rpm = 15000.0\nambient_pressure_pa", "rpm = nan\nambient_pressure_pa",
     "[bearing] rpm"),
])
def test_run_rejects_non_finite_config_value(tmp_path, capsys, subcommand, old, new, name):
    assert old in DEFAULT_CONFIG
    cfg = tmp_path / "cfg"
    cfg.write_text(DEFAULT_CONFIG.replace(old, new))
    out = tmp_path / "out"
    assert cli.main(["run", subcommand, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert name in err and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, sweep, name", [
    ("combustor", "equivalence_ratio=nan:0.5:3", "[combustor] equivalence_ratio"),
    ("cycle", "pressure_ratio=0.5:1.0:2", "[cycle] pressure_ratio"),
    ("bearing", "nominal_clearance_m=0:5e-6:2", "[bearing] nominal_clearance_m"),
])
def test_run_rejects_out_of_bound_sweep_value(tmp_path, capsys, subcommand, sweep, name):
    out = tmp_path / "out"
    assert cli.main(["run", subcommand, "--out", str(out), "--sweep", sweep]) == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


# in-bounds values whose arithmetic fails: an exponential overflow, three
# divisions by an underflowed zero, a singular Reynolds Jacobian and two
# turbine flows whose power overflows to inf and nan; numpy warns of the
# overflows on the way.  The error line starts with the failed stage.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key, value, start", [
    pytest.param(key, value, start, id=f"{key}-{value}") for key, value, start in [
        ("chem_activation_j_per_mol", "1e9", "combustor: "),
        ("chem_phi_exponent", "1e300", "combustor: "),
        ("blade_height_m", "1e-320", "turbine: "),
        ("mass_flow_kg_s", "1e300", "turbine: operating_line.csv: power_W not finite\n"),
        ("mass_flow_kg_s", "1e305",
         "turbine: operating_line.csv: specific_work_J_kg not finite\n"),
        ("nominal_clearance_m", "1e-300", "bearing: "),
        ("top_groove_depth_m", "1e300", "bearing: "),
    ]])
def test_run_reports_arithmetic_failure_with_exit_2(tmp_path, capsys, key, value, start):
    cfg = tmp_path / "cfg"
    cfg.write_text(_with(key, value))
    out = tmp_path / "out"
    assert cli.main(["run", "all", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {start}")
    assert not out.exists()


def test_run_all_rejects_sweep(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "all", "--out", str(out),
                     "--sweep", "bogus_key=1:2:3"]) == 1
    err = capsys.readouterr().err
    assert all(name in err for name in ("cycle", "combustor", "turbine", "bearing"))
    assert not out.exists()


@pytest.mark.parametrize("path", ["config", "sweep"])
def test_run_rejects_sub_ambient_combustor_exit(tmp_path, capsys, path):
    # pressure_ratio 1.05 with sigma_combustor 0.92 leaves the combustor
    # exit below ambient pressure
    out = tmp_path / "out"
    if path == "config":
        cfg = tmp_path / "cfg"
        cfg.write_text(DEFAULT_CONFIG.replace("pressure_ratio = 4.0", "pressure_ratio = 1.05"))
        args = ["--config", str(cfg)]
    else:
        args = ["--sweep", "pressure_ratio=1.0:1.05:2"]
    assert cli.main(["run", "cycle", "--out", str(out)] + args) == 1
    assert "[cycle] pressure_ratio" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", [0.92, 0.7, 1.0])
def test_sub_ambient_check_matches_cycle_expand(sigma):
    # validation accepts exactly the ratios whose combustor exit the turbine
    # can expand to ambient, the equality edge and rounding included
    config = default_config().with_value("cycle", "sigma_combustor", sigma)
    edge = 1.0 / sigma
    ratios = [edge]
    for _ in range(3):
        ratios = [math.nextafter(ratios[0], 0.0)] + ratios + [math.nextafter(ratios[-1], 2.0)]
    for ratio in (r for r in ratios if r >= 1.0):
        try:
            design = config.with_value("cycle", "pressure_ratio", ratio).cycle_design
            accepted = True
        except ConfigError:
            design = replace(config.cycle_design, pressure_ratio=ratio)
            accepted = False
        try:
            cycle.run_cycle(design)
            expands = True
        except ValueError as exc:
            assert "exceeds inlet pressure" in str(exc)
            expands = False
        assert accepted == expands, ratio


def test_run_prints_residual_history_on_solver_error(tmp_path, capsys, monkeypatch):
    def failing_solve(*args, **kwargs):
        raise br.SolverError("line search stalled at iteration 1", [1.0, 0.5])

    monkeypatch.setattr(br, "solve_reynolds", failing_solve)
    assert cli.main(["run", "bearing", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "line search stalled" in err
    assert "residual history: 1.000e+00 5.000e-01" in err


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    """bench/spans.py wraps microgt functions by name, so a renamed one would
    fail only the traced benchmark run; this installs the tracer here too."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.install(tracer, gas, br, cb, cycle, turbo, config, cli)
    finally:
        assert tracer.uninstall() == []
    assert default_config().property_model is gas  # the model bench passes to run_cycle
