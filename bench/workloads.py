"""The benchmark's workloads: input generators, item runners and the
correctness gate.

Every workload is a closed loop with one caller: an item runs only after the
previous one has returned, because a designer waits for each result.  A run
is a sequence of studies; a study is a fixed number of items drawn from
``numpy.random.default_rng([seed, study_index])``, so the same seed gives the
same inputs and no two studies share inputs.  Inputs are drawn by stratified
(Latin hypercube) sampling, so that each study covers its whole regime and
the cost of a study varies little from seed to seed.

Each item is checked outside its timed region.  Invariants hold for every
seed; for study 0 of the default seed the outputs are also compared with the
reference outputs stored in ``reference/<workload>.json`` (loads within 1e-9
relative, clearances within 1e-10 m), not byte for byte, so that a later
algorithm change can pass.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import io
import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Item:
    kind: str
    inputs: dict  # JSON-able numbers that define the item
    args: tuple = field(default=(), repr=False)  # objects the runner calls with


def strata(rng, n):
    """n draws in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def uniform(rng, n, lo, hi):
    return lo + (hi - lo) * strata(rng, n)


def log_uniform(rng, n, lo, hi):
    return lo * (hi / lo) ** strata(rng, n)


def csv_tolerance(ref):
    """1e-9 relative plus one unit in the 9th significant digit of %.9g."""
    if ref == 0.0:
        return 0.0
    return 1e-9 * abs(ref) + 10.0 ** (math.floor(math.log10(abs(ref))) - 8)


def close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Workload:
    """Base class; subclasses define study(), run(), outputs() and check()."""

    name = ""
    kernel = "sparse"  # calibration kernel that does this workload's kind of work
    exact_keys = frozenset()
    # per-layer counters that the traced run must see non-zero / zero
    exercised = ()
    idle = ()

    def __init__(self, mg, workdir: Path):
        self.mg = mg  # namespace of the microgt modules
        self.workdir = workdir

    def prepare(self):
        """Set-up work done before the first timed item."""

    def study(self, seed, index):
        """The items of one study."""
        raise NotImplementedError

    def run(self, item):
        """The timed call into microgt; returns its raw result."""
        raise NotImplementedError

    def outputs(self, item, raw):
        """(values checked against the reference, extra data for check())."""
        raise NotImplementedError

    def check(self, item, values, extra):
        """Invariant violations of one item, as messages."""
        raise NotImplementedError

    def close(self):
        """Undo what the constructor or prepare() installed."""

    def tolerance(self, key, ref):
        return 0.0 if key in self.exact_keys else 1e-9 * abs(ref)

    def reference(self):
        path = REFERENCE_DIR / f"{self.name}.json"
        return json.loads(path.read_text())["items"]

    def compare(self, item, values, ref):
        """Differences from one stored reference item, as messages."""
        if item.kind != ref["kind"] or item.inputs != ref["inputs"]:
            return [f"inputs differ from the reference: {item.inputs} vs {ref['inputs']}"]
        if set(values) != set(ref["values"]):
            return [f"output keys differ from the reference: "
                    f"{sorted(set(values) ^ set(ref['values']))}"]
        return [f"{key} = {values[key]!r}, reference {r!r}"
                for key, r in ref["values"].items()
                if not abs(values[key] - r) <= self.tolerance(key, r)]


# -- engine_run_all --------------------------------------------------------

# Perturbations of the default scenario, +/-10% around the point that the
# acceptance suite validates (criteria 03, 04, 08): an axial equilibrium
# exists and the combustor holds a flame over the whole box.
ENGINE_RANGES = {
    ("bearing", "nominal_clearance_m"): (4.5e-6, 5.5e-6),
    ("bearing", "rpm"): (13500.0, 16500.0),
    ("bearing", "total_axial_gap_m"): (36.0e-6, 44.0e-6),
    ("bearing", "top_groove_depth_m"): (13.5e-6, 16.5e-6),
    ("bearing", "bottom_groove_depth_m"): (32.4e-6, 39.6e-6),
    ("combustor", "equivalence_ratio"): (0.7, 0.9),
    ("combustor", "air_mass_flow_kg_s"): (0.12e-3, 0.18e-3),
    ("cycle", "pressure_ratio"): (3.6, 4.4),
}
# One scenario is one study: a designer's `microgt run all`.  With about six
# studies in a run, the median study time is steadier than with pairs.
ENGINE_STUDY = 1


def scenario_text(default_text, overrides):
    """The default config with the (section, key) values in overrides."""
    lines = []
    section = None
    for line in default_text.splitlines():
        content = line.split("#", 1)[0].strip()
        if content.startswith("["):
            section = content[1:-1]
        elif "=" in content:
            key = content.split("=", 1)[0].strip()
            if (section, key) in overrides:
                line = f"{key} = {overrides[(section, key)]!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class EngineRunAll(Workload):
    """Seeded scenario configs, each run through ``microgt run all``.

    Why: this is the path users take.  About 85% of its time is the ~48
    coarse solves of axial_equilibrium on neighbouring clearances plus the
    repeated nominal-film solve, so fewer solves, warm starts and Brent's
    method must show here.  It is the only workload that exercises config
    parsing and the CLI's CSV emission.
    """

    name = "engine_run_all"
    exact_keys = frozenset({"combustor.stable", "equilibrium.converged",
                            "field.rows"})
    exercised = ("bearing.solve_reynolds.calls", "bearing.axial_stiffness.calls",
                 "bearing.axial_equilibrium.calls", "combustor.stability.calls",
                 "gas.enthalpy_mass.calls", "gas.sensible_enthalpy_mass.calls",
                 "gas.cp_mass.calls", "cycle.run_cycle.calls", "turbo.calls",
                 "config.validate.calls", "config.validate.setup_calls",
                 "cli.csv_bytes")
    idle = ("combustor.blowout_mass_flow.calls",)

    def __init__(self, mg, workdir):
        super().__init__(mg, workdir)
        # The CLI writes no equilibrium at full precision, so a result tap
        # keeps the last AxialEquilibrium and its arguments for the gate.
        # It adds one Python call to a multi-second function.
        self.captured = None
        self._original = mg.bearing.axial_equilibrium
        signature = inspect.signature(self._original)

        @functools.wraps(self._original)
        def tap(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            result = self._original(*args, **kwargs)
            self.captured = (bound.arguments, result)
            return result

        self._tap = tap
        mg.bearing.axial_equilibrium = tap

    def close(self):
        if self.mg.bearing.axial_equilibrium is self._tap:
            self.mg.bearing.axial_equilibrium = self._original

    def study(self, seed, index):
        rng = np.random.default_rng([seed, index])
        draws = {key: uniform(rng, ENGINE_STUDY, lo, hi)
                 for key, (lo, hi) in ENGINE_RANGES.items()}
        items = []
        for k in range(ENGINE_STUDY):
            overrides = {key: float(values[k]) for key, values in draws.items()}
            text = scenario_text(self.mg.config.DEFAULT_CONFIG, overrides)
            scenario = self.mg.config.validate(text)
            path = self.workdir / f"scenario-{index}-{k}.cfg"
            path.write_text(text)
            out = self.workdir / f"out-{index}-{k}"
            inputs = {f"{s}.{key}": v for (s, key), v in overrides.items()}
            eta_mech = scenario.raw["cycle"]["eta_mechanical"]
            items.append(Item("scenario", inputs, (path, out, eta_mech)))
        return items

    def run(self, item):
        path, out, _ = item.args
        self.captured = None
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.mg.cli.main(["run", "all", "--config", str(path),
                                     "--out", str(out)])
        return code, self.captured

    def outputs(self, item, raw):
        code, captured = raw
        _, out, _ = item.args
        try:
            if code != 0:
                raise RuntimeError(f"microgt run all exited {code}")
            values = {}
            header, rows = read_csv(out / "performance.csv")
            values.update({f"performance.{h}": float(v) for h, v in zip(header, rows[0])})
            for row in read_csv(out / "stations.csv")[1]:
                values[f"stations.{row[0]}.T_K"] = float(row[1])
                values[f"stations.{row[0]}.p_Pa"] = float(row[2])
            header, rows = read_csv(out / "combustor.csv")
            values.update({f"combustor.{h}": float(v) for h, v in zip(header, rows[0])})
            header, rows = read_csv(out / "operating_line.csv")
            for i, row in enumerate(rows):
                values.update({f"operating_line.{i}.{h}": float(v)
                               for h, v in zip(header, row)})
            header, rows = read_csv(out / "loadmap.csv")
            values.update({f"loadmap.{h}": float(v) for h, v in zip(header, rows[0])})
            pressures = np.array([float(row[2]) for row in read_csv(out / "field.csv")[1]])
            values["field.rows"] = float(pressures.size)
            values["field.p_max_Pa"] = float(pressures.max())
            values["field.p_min_Pa"] = float(pressures.min())
            values["field.p_mean_Pa"] = float(pressures.mean())
            if captured is None:
                raise RuntimeError("run all made no axial_equilibrium call")
            arguments, eq = captured
            for attr in ("top_clearance", "bottom_clearance", "top_load",
                         "bottom_load", "net_load"):
                values[f"equilibrium.{attr}"] = float(getattr(eq, attr))
            values["equilibrium.converged"] = float(eq.converged)
            values["equilibrium.external_load"] = float(arguments["external_load"])
            values["equilibrium.load_tolerance"] = float(arguments["load_tolerance"])
            csv_bytes = sum(p.stat().st_size for p in out.glob("*.csv"))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return values, {"csv_bytes": csv_bytes}

    def check(self, item, v, extra):
        _, _, eta_mech = item.args
        problems = []
        w_t, w_c = v["performance.turbine_power_W"], v["performance.compressor_power_W"]
        # the CSV holds 9 significant digits, so closure holds to about 1e-8
        closure = abs(v["performance.net_power_W"] - (eta_mech * w_t - w_c))
        if closure > 1e-8 * (abs(w_t) + abs(w_c)):
            problems.append("cycle energy closure: net != eta_mech * turbine - compressor")
        if v["equilibrium.converged"] and (
                abs(v["equilibrium.net_load"] - v["equilibrium.external_load"])
                > v["equilibrium.load_tolerance"]):
            problems.append("converged equilibrium with |net_load - external_load| > tolerance")
        top, bottom = v["equilibrium.top_load"], v["equilibrium.bottom_load"]
        if abs(v["equilibrium.net_load"] - (top - bottom)) > 1e-12 * (abs(top) + abs(bottom)):
            problems.append("equilibrium net_load != top_load - bottom_load")
        if not v["loadmap.load_N"] > 0.0 or not v["loadmap.stiffness_N_per_m"] > 0.0:
            problems.append("pump-in face load or stiffness not positive")
        return problems

    def tolerance(self, key, ref):
        if key in self.exact_keys:
            return 0.0
        if key.startswith("equilibrium."):
            return 1e-10 if key.endswith("_clearance") else 1e-9 * abs(ref)
        return csv_tolerance(ref)


# -- bearing_grid_sweep ----------------------------------------------------

# Items per study on each grid; 33x64 shows Python overhead and 129x192 the
# fill-in of the sparse factorisation.  About 40% of the points converge in
# one Newton step and cost half as much as the rest, so the median item must
# sit well inside one cost cluster: here it is a two-step 65x96 solve.  With
# 4/5/2 items it sat between the clusters and item_rel_p50 spread by 25%
# between seeds.
GRID_MIX = ((33, 64, 1), (65, 96, 7), (129, 192, 3))
LAMBDA_RANGE = (0.1, 30.0)
CLEARANCE_RANGE = (1.0e-6, 10.0e-6)  # m
RPM_RANGE = (5.0e3, 2.0e5)
SPIRAL_ANGLE_RANGE = (12.0, 30.0)  # deg


class BearingGridSweep(Workload):
    """Independent (clearance, rpm, pump direction, spiral angle) points.

    Why: no two items share inputs, so memoisation and warm starts should
    show nothing here (predict no change).  Jacobian construction and the
    sparse factorisation do nearly all the work, which is where an
    assembled Jacobian must show.  Lambda is stratified over 0.1..30 in each
    grid group, so every study sees the same spread of Newton step counts.
    """

    name = "bearing_grid_sweep"
    exercised = ("bearing.solve_reynolds.calls", "bearing.load_capacity.self_s",
                 "config.validate.setup_calls")
    idle = ("combustor.stability.calls", "gas.enthalpy_mass.calls",
            "bearing.axial_equilibrium.calls")

    def prepare(self):
        scenario = self.mg.config.validate(self.mg.config.DEFAULT_CONFIG)
        self.base_bearing = scenario.bearing_face("top")
        self.base_film = scenario.film_state

    def study(self, seed, index):
        rng = np.random.default_rng([seed, index])
        bearing_mod = self.mg.bearing
        film = self.base_film
        r_out = self.base_bearing.outer_radius
        # Lambda = 6 mu omega r_out^2 / (p_a c^2) = lam_per_omega * omega / c^2
        lam_per_omega = 6.0 * film.viscosity * r_out ** 2 / film.ambient_pressure
        items = []
        for n_r, n_theta, count in GRID_MIX:
            lams = log_uniform(rng, count, *LAMBDA_RANGE)
            u_c = strata(rng, count)
            angles = uniform(rng, count, *SPIRAL_ANGLE_RANGE)
            pumps = rng.permutation(np.arange(count) % 2)
            for lam, u, angle, pump in zip(lams, u_c, angles, pumps):
                # clearance range for which the rpm stays inside RPM_RANGE
                omega_lo, omega_hi = (2.0 * math.pi * r / 60.0 for r in RPM_RANGE)
                c_lo = max(CLEARANCE_RANGE[0], math.sqrt(lam_per_omega * omega_lo / lam))
                c_hi = min(CLEARANCE_RANGE[1], math.sqrt(lam_per_omega * omega_hi / lam))
                clearance = c_lo * (c_hi / c_lo) ** u
                rpm = lam * clearance ** 2 / lam_per_omega * 60.0 / (2.0 * math.pi)
                direction = "pump-out" if pump else "pump-in"
                bearing = replace(self.base_bearing, spiral_angle=float(angle),
                                  pump_direction=direction)
                state = bearing_mod.FilmState(float(clearance), float(rpm),
                                              film.ambient_pressure, film.viscosity)
                inputs = {"n_r": n_r, "n_theta": n_theta,
                          "clearance_m": float(clearance), "rpm": float(rpm),
                          "pump_out": int(pump), "spiral_angle_deg": float(angle)}
                items.append(Item("point", inputs, (bearing, state, n_r, n_theta)))
        return items

    def run(self, item):
        bearing, state, n_r, n_theta = item.args
        pressure_field = self.mg.bearing.solve_reynolds(bearing, state, n_r, n_theta)
        return pressure_field, self.mg.bearing.load_capacity(pressure_field)

    def outputs(self, item, raw):
        pressure_field, load = raw
        p = pressure_field.pressures
        return {"load_N": float(load), "p_max_Pa": float(p.max()),
                "p_min_Pa": float(p.min())}, {"pressures": p,
                                               "ambient": pressure_field.ambient_pressure}

    def check(self, item, v, extra):
        problems = []
        p, ambient = extra["pressures"], extra["ambient"]
        if not np.all(np.isfinite(p)) or not np.all(p > 0.0):
            problems.append("pressure field not finite and positive")
        if np.any(p[0] != ambient) or np.any(p[-1] != ambient):
            problems.append("boundary rows not at ambient pressure")
        pump_out = item.inputs["pump_out"]
        if (v["load_N"] > 0.0) == bool(pump_out):
            problems.append("load sign does not follow the pump direction")
        return problems


# -- thermo_sweep ----------------------------------------------------------

# Items per study.  The 16 cycle and turbine points are far cheaper than a
# stability point and the 2 blow-out scans far dearer, so the median item of
# a study is a stability point.
THERMO_MIX = {"stability": 24, "blowout": 2, "cycle": 8, "turbine": 8}
STABILITY_RANGES = {"phi": (0.5, 0.95), "air_mass_flow_kg_s": (0.05e-3, 0.2e-3),
                    "chamber_height_m": (0.6e-3, 1.2e-3)}
BLOWOUT_RANGES = {"phi": (0.75, 0.95), "chamber_height_m": (0.9e-3, 1.2e-3)}
CYCLE_RANGES = {"pressure_ratio": (3.5, 4.5), "air_mass_flow_kg_s": (0.32e-3, 0.40e-3),
                "fuel_mass_flow_kg_s": (15.0e-3 / 3600.0, 19.0e-3 / 3600.0)}
TURBINE_RANGES = {"rpm": (5.0e3, 30.0e3), "mass_flow_kg_s": (0.30e-3, 0.42e-3),
                  "drive_temperature_k": (290.0, 320.0)}


def draw(rng, count, ranges):
    columns = {key: uniform(rng, count, lo, hi) for key, (lo, hi) in ranges.items()}
    return [{key: float(col[k]) for key, col in columns.items()} for k in range(count)]


class ThermoSweep(Workload):
    """Combustor stability map, blow-out scans, cycle and turbine points.

    Why: gas property calls and the bisection and fixed-point loops do most
    of the work, so a single root finder or gas-property caching must show
    here.  It does no bearing work, so bearing changes must leave it
    unchanged.
    """

    name = "thermo_sweep"
    kernel = "python"
    exact_keys = frozenset({"stable", "found", "mdot_kg_s"})
    exercised = ("combustor.stability.calls", "combustor.blowout_mass_flow.calls",
                 "gas.enthalpy_mass.calls", "gas.sensible_enthalpy_mass.calls",
                 "gas.cp_mass.calls", "cycle.run_cycle.calls", "turbo.calls",
                 "config.validate.setup_calls")
    idle = ("bearing.solve_reynolds.calls",)

    def prepare(self):
        scenario = self.mg.config.validate(self.mg.config.DEFAULT_CONFIG)
        self.geometry = scenario.combustor_geometry
        self.operating_point = scenario.combustor_operating_point
        self.chemistry = scenario.chemistry
        self.design = scenario.cycle_design
        self.props = scenario.property_model
        self.rotor = scenario.rotor_geometry
        self.stator = scenario.stator_geometry
        self.turbine = scenario.raw["turbine"]
        # flow areas are per rotor, not per point, as in `microgt run turbine`
        self.area_in = self.mg.turbo.rotor_inlet_area(self.rotor)
        self.area_out = self.mg.turbo.rotor_exit_area(self.rotor)

    def study(self, seed, index):
        rng = np.random.default_rng([seed, index])
        mg = self.mg
        items = []
        for p in draw(rng, THERMO_MIX["stability"], STABILITY_RANGES):
            geometry = replace(self.geometry, chamber_height=p["chamber_height_m"])
            op = replace(self.operating_point, air_mass_flow=p["air_mass_flow_kg_s"],
                         equivalence_ratio=p["phi"])
            items.append(Item("stability", p, (geometry, op)))
        for p in draw(rng, THERMO_MIX["blowout"], BLOWOUT_RANGES):
            geometry = replace(self.geometry, chamber_height=p["chamber_height_m"])
            items.append(Item("blowout", p, (geometry, p["phi"])))
        for p in draw(rng, THERMO_MIX["cycle"], CYCLE_RANGES):
            design = replace(self.design, pressure_ratio=p["pressure_ratio"],
                             air_mass_flow=p["air_mass_flow_kg_s"],
                             fuel_mass_flow=p["fuel_mass_flow_kg_s"])
            items.append(Item("cycle", p, (design,)))
        for p in draw(rng, THERMO_MIX["turbine"], TURBINE_RANGES):
            state = mg.gas.GasState(mg.gas.AIR, p["drive_temperature_k"],
                                    self.turbine["drive_pressure_pa"])
            items.append(Item("turbine", p, (p["rpm"], p["mass_flow_kg_s"], state)))
        return items

    def run(self, item):
        mg = self.mg
        if item.kind == "stability":
            geometry, op = item.args
            return mg.combustor.stability(geometry, op, self.chemistry)
        if item.kind == "blowout":
            geometry, phi = item.args
            return mg.combustor.blowout_mass_flow(geometry, phi, self.chemistry)
        if item.kind == "cycle":
            return mg.cycle.run_cycle(item.args[0], self.props)
        # one turbine operating-line point, as `microgt run turbine` makes it
        rpm, mdot, state = item.args
        turbo, geom = mg.turbo, self.rotor
        tri_in = turbo.velocity_triangle(geom.tip_radius, rpm, mdot, state,
                                         self.area_in, self.stator.exit_flow_angle)
        tri_out = turbo.velocity_triangle(geom.hub_radius, rpm, mdot, state,
                                          self.area_out, 0.0)
        inc = turbo.incidence(tri_in, geom.inlet_blade_angle)
        work = turbo.euler_specific_work(tri_in, tri_out)
        load, _ = turbo.imbalance_load(geom, self.turbine["etch_nonuniformity_fraction"], rpm)
        return tri_in, tri_out, inc, work, load

    def outputs(self, item, raw):
        if item.kind == "stability":
            return {"residence_time_s": raw.residence_time,
                    "chemical_time_s": raw.chemical_time, "damkohler": raw.damkohler,
                    "stable": float(raw.stable), "exit_T_K": raw.exit_temperature,
                    "wall_T_K": raw.wall_temperature}, raw
        if item.kind == "blowout":
            return {"found": float(raw is not None),
                    "mdot_kg_s": 0.0 if raw is None else float(raw)}, raw
        if item.kind == "cycle":
            perf, stations = raw
            return {"net_power_W": perf.net_power, "compressor_power_W": perf.compressor_power,
                    "turbine_power_W": perf.turbine_power,
                    "TIT_K": perf.turbine_inlet_temperature,
                    "thermal_efficiency": perf.thermal_efficiency}, raw
        tri_in, tri_out, inc, work, load = raw
        return {"U_tip": tri_in.blade_speed, "incidence_deg": inc,
                "specific_work_J_kg": work, "imbalance_load_N": load}, raw

    def check(self, item, v, raw):
        problems = []
        if item.kind == "stability":
            geometry, op = item.args
            if not close(v["damkohler"], v["residence_time_s"] / v["chemical_time_s"], 1e-12):
                problems.append("Da != residence time / chemical time")
            if bool(v["stable"]) != (v["damkohler"] >= self.chemistry.da_critical):
                problems.append("stability flag disagrees with Da")
            if v["stable"] and not v["exit_T_K"] > op.inlet_temperature:
                problems.append("burning point not hotter than its inlet")
            if not v["stable"] and v["exit_T_K"] != op.inlet_temperature:
                problems.append("blown-out point does not report the inlet temperature")
        elif item.kind == "blowout":
            if raw is not None and raw not in self.mg.combustor.BLOWOUT_SCAN_FLOWS:
                problems.append("blow-out flow is not on the scan grid")
        elif item.kind == "cycle":
            design = item.args[0]
            expected = design.eta_mechanical * v["turbine_power_W"] - v["compressor_power_W"]
            if not close(v["net_power_W"], expected, 1e-12):
                problems.append("cycle energy closure: net != eta_mech * turbine - compressor")
        else:
            tri_in, tri_out, _, work, load = raw
            expected = (tri_in.blade_speed * tri_in.tangential
                        - tri_out.blade_speed * tri_out.tangential)
            if not close(work, expected, 1e-12):
                problems.append("Euler work != U_in Ctheta_in - U_out Ctheta_out")
            if not load >= 0.0:
                problems.append("negative imbalance load")
        return problems

    def tolerance(self, key, ref):
        if key in self.exact_keys:
            return 0.0
        return 1e-9 * abs(ref) + (1e-9 if key == "incidence_deg" else 0.0)


WORKLOADS = {w.name: w for w in (EngineRunAll, BearingGridSweep, ThermoSweep)}
