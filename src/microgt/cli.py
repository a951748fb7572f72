"""Command-line front end: validate configs, run module analyses, emit CSVs.

Exit codes: 0 success; 1 invalid input, the config or any command-line
input (a `--sweep` included), found before any stage runs; 2 solver or I/O
failure.
All floats are written with a fixed %.9g format so reruns of the same
config are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import bearing as br
from . import combustor as cb
from . import cycle as cyc
from . import gas, turbo
from .config import DEFAULT_CONFIG, MAX_POINTS, ScenarioConfig, validate
from .params import SolverError

# Keys each subcommand can sweep, from its own config section; the swept
# key becomes the first column of the sweep table.
SWEEP_KEYS = {
    "cycle": ("air_mass_flow_kg_s", "pressure_ratio", "fuel_mass_flow_kg_s",
              "eta_compressor", "eta_turbine", "eta_combustor",
              "sigma_combustor", "eta_mechanical"),
    "combustor": ("air_mass_flow_kg_s", "equivalence_ratio", "chamber_height_m"),
    "turbine": ("rpm",),
    "bearing": ("nominal_clearance_m", "rpm"),
}


@dataclass
class ReportBundle:
    tables: dict  # filename -> (header, rows); a row is a sequence of values
    summary: list  # lines
    warnings: list


def _fmt(value) -> str:
    if value is None:  # a quantity the point does not define
        return ""
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _invalid(exc: ValueError) -> int:
    """Report invalid input (every ConfigError violation) and return exit 1."""
    for err in getattr(exc, "errors", [str(exc)]):
        print(f"invalid: {err}", file=sys.stderr)
    return 1


def _failed(stage: str, exc: Exception) -> int:
    """Report the failure of a stage, with its residual history if any, and
    return exit 2."""
    print(f"error: {stage}: {exc}", file=sys.stderr)
    history = getattr(exc, "residual_history", None)
    if history:
        print("residual history: " + " ".join("%.3e" % r for r in history),
              file=sys.stderr)
    return 2


def _parse_sweep(spec: str, subcommand: str, config: ScenarioConfig):
    """--sweep key=start:stop:n -> (key, values, one checked config per value).

    ValueError names --sweep for `all`, a malformed spec, a key the stage
    cannot sweep or a count outside [1, MAX_POINTS]; a value out of its
    bound raises with_value's ConfigError, naming [section] key.
    """
    if subcommand == "all":
        raise ValueError(f"--sweep needs a single subcommand: {', '.join(STAGES)}")
    key, _, rng = spec.partition("=")
    key = key.strip()
    try:
        start, stop, count = rng.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:  # a wrong number of parts included
        raise ValueError(f"--sweep must look like key=start:stop:n with an "
                         f"integer n, got {spec!r}") from None
    if key not in SWEEP_KEYS[subcommand]:
        raise ValueError(f"--sweep key '{key}' is not a {subcommand} key; "
                         f"options: {', '.join(SWEEP_KEYS[subcommand])}")
    if not 1 <= count <= MAX_POINTS:
        raise ValueError(f"--sweep point count must lie in [1, {MAX_POINTS}], got {count}")
    values = _points(start, stop, count)
    return key, values, [config.with_value(subcommand, key, v) for v in values]


def _points(start, stop, count):
    """count evenly spaced values from start to stop itself; [start] for
    count 1.  Interpolated, so finite ends never overflow."""
    if count == 1:
        return [start]
    fractions = [i / (count - 1) for i in range(count - 1)]
    return [start * (1 - t) + stop * t for t in fractions] + [stop]


def run_cycle(config: ScenarioConfig, bundle: ReportBundle, sweep=None):
    design = config.cycle_design
    props = config.property_model
    perf, stations = cyc.run_cycle(design, props)
    bundle.tables["stations.csv"] = (
        ["station", "T_K", "p_Pa", "mdot_kg_s"],
        [[s.label, s.state.temperature, s.state.pressure, s.mass_flow]
         for s in stations],
    )
    bundle.tables["performance.csv"] = (
        ["net_power_W", "compressor_power_W", "turbine_power_W", "TIT_K",
         "thermal_efficiency", "sfc_kg_per_J"],
        [[perf.net_power, perf.compressor_power, perf.turbine_power,
          perf.turbine_inlet_temperature, perf.thermal_efficiency,
          perf.specific_fuel_consumption]],
    )
    target = config.raw["cycle"]["target_net_power_w"]
    phi = gas.equivalence_ratio(design.fuel_mass_flow, design.air_mass_flow)
    bundle.summary += [
        f"cycle: net power {perf.net_power:.3f} W (design target {target:.1f} W)",
        f"cycle: compressor {perf.compressor_power:.3f} W, turbine {perf.turbine_power:.3f} W",
        f"cycle: turbine inlet temperature {perf.turbine_inlet_temperature:.1f} K",
        f"cycle: thermal efficiency {perf.thermal_efficiency:.4f}",
        f"cycle: design equivalence ratio {phi:.4f}",
    ]
    if sweep:
        key, values, configs = sweep
        rows = []
        for value, swept in zip(values, configs):
            p, _ = cyc.run_cycle(swept.cycle_design, props)
            rows.append([value, p.net_power, p.turbine_inlet_temperature,
                         p.thermal_efficiency])
        bundle.tables["cycle_sweep.csv"] = (
            [key, "net_power_W", "TIT_K", "thermal_efficiency"], rows)


def run_combustor(config: ScenarioConfig, bundle: ReportBundle, sweep=None):
    geometry = config.combustor_geometry
    base = config.combustor_operating_point
    chemistry = config.chemistry
    rows = []
    for c in sweep[2] if sweep else [config]:
        g, op = c.combustor_geometry, c.combustor_operating_point
        result = cb.stability(g, op, chemistry)
        rows.append([
            op.equivalence_ratio, op.air_mass_flow * 1e3, g.chamber_height * 1e3,
            result.residence_time, result.chemical_time, result.damkohler,
            1 if result.stable else 0, result.exit_temperature,
            result.wall_temperature,
        ])
    bundle.tables["combustor.csv"] = (
        ["phi", "mdot_g_s", "chamber_height_mm", "residence_time_s",
         "chemical_time_s", "damkohler", "stable", "exit_T_K", "wall_T_K"],
        rows,
    )
    last = cb.stability(geometry, base, chemistry) if sweep else result
    bundle.summary += [
        f"combustor: Da {last.damkohler:.3f} -> "
        f"{'stable' if last.stable else 'blow-out'}",
        f"combustor: exit temperature {last.exit_temperature:.1f} K, "
        f"wall {last.wall_temperature:.1f} K",
    ]


def run_turbine(config: ScenarioConfig, bundle: ReportBundle, sweep=None):
    geom = config.rotor_geometry
    stator = config.stator_geometry
    t = config.raw["turbine"]
    state = gas.GasState(gas.AIR, t["drive_temperature_k"], t["drive_pressure_pa"])
    mdot = t["mass_flow_kg_s"]
    area_in = turbo.rotor_inlet_area(geom)
    area_out = turbo.rotor_exit_area(geom)
    fraction = t["etch_nonuniformity_fraction"]

    rpms = sweep[1] if sweep else _points(t["rpm_min"], t["rpm_max"], t["rpm_points"])
    rows = []
    for rpm in rpms:
        tri_in = turbo.velocity_triangle(geom.tip_radius, rpm, mdot, state,
                                         area_in, stator.exit_flow_angle)
        tri_out = turbo.velocity_triangle(geom.hub_radius, rpm, mdot, state,
                                          area_out, 0.0)
        inc = turbo.incidence(tri_in, geom.inlet_blade_angle)
        work = turbo.euler_specific_work(tri_in, tri_out)
        load, _ = turbo.imbalance_load(geom, fraction, rpm)
        rows.append([rpm, tri_in.blade_speed, inc, work, mdot * work, load])
    bundle.tables["operating_line.csv"] = (
        ["rpm", "U_tip", "incidence_deg", "specific_work_J_kg", "power_W",
         "imbalance_load_N"],
        rows,
    )
    rpm_zero = turbo.design_rpm_for_zero_incidence(
        geom.tip_radius, mdot, state, area_in, stator.exit_flow_angle,
        geom.inlet_blade_angle)
    bundle.summary += [
        f"turbine: tip speed at {t['rpm']:.0f} rpm = "
        f"{turbo.blade_speed(geom.tip_radius, t['rpm']):.3f} m/s",
        f"turbine: zero-incidence speed {rpm_zero:.0f} rpm",
        f"turbine: rotor mass {geom.rotor_mass * 1e6:.1f} mg",
    ]


def run_bearing(config: ScenarioConfig, bundle: ReportBundle, sweep=None):
    b = config.raw["bearing"]
    film = config.film_state
    top = config.bearing_face("top")
    bottom = config.bearing_face("bottom")
    n_r, n_theta = b["grid_radial_nodes"], b["grid_angular_nodes"]
    films = [c.film_state for c in (sweep[2] if sweep else [config])]

    # the load-map and stiffness solves refine against the field solve's factor
    factor = br.JacobianFactor()
    field = br.solve_reynolds(top, film, n_r, n_theta, factor)
    bundle.tables["field.csv"] = (["r_m", "theta_rad", "p_Pa"], list(zip(
        np.repeat(field.radii, n_theta).tolist(), field.angles.ravel().tolist(),
        field.pressures.ravel().tolist())))

    def check_regime(face, f):
        lam = abs(br.compressibility_number(face, f))
        if lam > br.MAX_VERIFIED_LAMBDA:
            bundle.warnings.append(
                f"bearing: compressibility number {lam:.1f} at "
                f"{f.nominal_clearance * 1e6:.2f} um clearance is above "
                f"{br.MAX_VERIFIED_LAMBDA:g}, outside the verified range")

    # both faces take their groove pattern from the same [bearing] keys
    for rows, cols in dict.fromkeys([(n_r, n_theta), br.EQUILIBRIUM_GRID]):
        cells = br.stripe_cells(top, cols)
        if cells < br.MIN_STRIPE_CELLS:
            bundle.warnings.append(
                f"bearing: the narrowest groove or land stripe spans {cells:.2f} "
                f"angular cells at n_theta = {cols} ({rows}x{cols} grid), so the "
                f"groove-edge treatment falls back to first order")
    check_regime(top, film)
    load_rows = []
    for f in films:
        if f == film:  # solved above for field.csv
            load = br.load_capacity(field)
        else:
            check_regime(top, f)
            load = br.solve_load(top, f, n_r, n_theta, factor)
        stiff = br.axial_stiffness(top, f, n_r, n_theta, factor=factor)
        load_rows.append([f.nominal_clearance, f.rpm, load, stiff])
    del factor  # free the held LU before the equilibrium makes its own
    bundle.tables["loadmap.csv"] = (
        ["clearance_m", "rpm", "load_N", "stiffness_N_per_m"], load_rows)

    bundle.summary.append(
        f"bearing: top load {load_rows[0][2]:.4e} N at "
        f"{film.nominal_clearance * 1e6:.1f} um clearance")
    try:
        equilibrium = br.axial_equilibrium(
            top, bottom, b["total_axial_gap_m"], config.external_axial_load, film)
    except br.NoEquilibriumError as exc:
        bundle.summary.append(f"bearing: axial equilibrium clearances not found ({exc})")
        return
    check_regime(top, replace(film, nominal_clearance=equilibrium.top_clearance))
    check_regime(bottom, replace(film, nominal_clearance=equilibrium.bottom_clearance))
    bundle.summary.append(
        f"bearing: axial equilibrium clearances top {equilibrium.top_clearance * 1e6:.2f} um / "
        f"bottom {equilibrium.bottom_clearance * 1e6:.2f} um "
        f"(converged={equilibrium.converged})")


# Stage name -> runner, in the order `run all` runs them.
STAGES = {"cycle": run_cycle, "combustor": run_combustor,
          "turbine": run_turbine, "bearing": run_bearing}


def run(subcommand: str, config: ScenarioConfig, out_dir: Path, sweep=None) -> int:
    """Execute one subcommand, with the (key, values, configs) of a checked
    sweep if any; writes files only after every solve succeeded and every
    table it made is finite."""
    bundle = ReportBundle(tables={}, summary=[], warnings=[])
    for stage in STAGES if subcommand == "all" else [subcommand]:
        made = len(bundle.tables)
        try:
            STAGES[stage](config, bundle, sweep)
            for name, (header, rows) in list(bundle.tables.items())[made:]:
                for column, values in zip(header, zip(*rows)):
                    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                        raise ArithmeticError(f"{name}: {column} not finite")
        except (SolverError, ValueError, ArithmeticError) as exc:
            return _failed(stage, exc)  # gas.RichMixtureError is a ValueError

    if subcommand == "all":
        design = config.cycle_design
        phi = gas.equivalence_ratio(design.fuel_mass_flow, design.air_mass_flow)
        bundle.summary.append(
            f"cross-check: cycle flows give combustor phi = {phi:.4f}")

    lines = ([f"config_hash: {config.config_hash}"] + bundle.summary
             + [f"warning: {w}" for w in bundle.warnings])
    files = {name: _csv(header, rows) for name, (header, rows) in sorted(bundle.tables.items())}
    files["summary.txt"] = "\n".join(lines) + "\n"
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text)
            written.append(out_dir / name)
    except OSError as exc:
        for path in written:
            path.unlink(missing_ok=True)
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2

    for line in bundle.summary:
        print(line)
    for warning in bundle.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="microgt",
        description="Reduced-order micro gas turbine analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a scenario config")
    p_val.add_argument("config", type=Path)
    p_val.set_defaults(sweep=None)

    p_run = sub.add_parser("run", help="run an analysis module")
    p_run.add_argument("subcommand", choices=[*STAGES, "all"])
    p_run.add_argument("--config", type=Path, default=None,
                       help="scenario config path (defaults to the shipped defaults)")
    p_run.add_argument("--out", type=Path, required=True)
    p_run.add_argument("--sweep", type=str, default=None,
                       metavar="key=start:stop:n")

    sub.add_parser("defaults", help="print the default config")

    args = parser.parse_args(argv)

    if args.command == "defaults":
        print(DEFAULT_CONFIG, end="")
        return 0

    try:
        text = DEFAULT_CONFIG if args.config is None else args.config.read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        config = validate(text)
        sweep = _parse_sweep(args.sweep, args.subcommand, config) if args.sweep else None
    except ValueError as exc:  # ConfigError included
        return _invalid(exc)
    if args.command == "validate":
        print("ok")
        return 0
    return run(args.subcommand, config, args.out, sweep)


if __name__ == "__main__":
    sys.exit(main())
