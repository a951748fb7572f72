"""Scenario configuration: a flat, sectioned key=value text format.

The format is deliberately trivial: `[section]` headers, `key = value`
pairs, `#` comments, all keys carrying SI unit suffixes.  validate()
returns either a fully-typed ScenarioConfig or the complete list of
violations, never just the first one.

Each key is declared once: as a param() field of the dataclass that
consumes it, or below as a Param for the run settings no dataclass holds.
The schema, the bounds and DEFAULT_CONFIG all derive from those
declarations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import combustor as cb
from . import cycle as cyc
from . import bearing as br
from . import gas, turbo
from .gas import AIR, ConstantCpGas, GasState
from .params import Param, declared

# Most points a run generates: [turbine] rpm_points and the count n of a
# `--sweep key=start:stop:n`.  An operating-line point is one row of
# operating_line.csv, about 70 B written in about 20 us.  A sweep point is
# one checked config (10,000 take 0.9 s and 23 MB) and one run of its stage:
# 10,000 points take 1 s for turbine, 2 s for cycle, 5 s for combustor and
# some 20 minutes for bearing, at about 0.13 s for its three solves on the
# config grid (one 2-core Xeon).  Without the cap a count of 1e12 would ask
# for terabytes and days of work.
MAX_POINTS = 10_000

# Section -> its keys in file order: a dataclass stands for its param()
# fields, a Param for a run setting that no dataclass holds.
SECTIONS = {
    "properties": (
        Param("mode", "polynomial", "polynomial | constant_cp"),
        ConstantCpGas,
    ),
    "ambient": (
        Param("temperature_k", cyc.CycleDesignPoint.ambient.temperature, "(0, inf)"),
        Param("pressure_pa", cyc.CycleDesignPoint.ambient.pressure, "(0, inf)"),
    ),
    "cycle": (
        cyc.CycleDesignPoint,
        Param("target_net_power_w", 39.0, "(0, inf)"),
    ),
    "combustor": (cb.CombustorGeometry, cb.CombustorOperatingPoint),
    "calibration": (cb.ChemicalTimeModel,),
    "turbine": (
        turbo.RotorGeometry,
        turbo.StatorGeometry,
        Param("rpm", 15000.0, "[0, inf)"),
        Param("rpm_min", 5000.0, "[0, inf)"),
        Param("rpm_max", 30000.0, "(0, inf)"),
        Param("rpm_points", 11, f"[2, {MAX_POINTS}]"),
        Param("etch_nonuniformity_fraction", 0.05, "[0, 1)"),
        Param("mass_flow_kg_s", 0.36e-3, "(0, inf)"),
        Param("drive_temperature_k", 300.0, "(0, inf)"),
        Param("drive_pressure_pa", 101325.0, "(0, inf)"),
    ),
    "bearing": (
        br.SpiralGrooveBearing,
        Param("top_groove_depth_m", 15.0e-6, "[0, inf)"),
        Param("bottom_groove_depth_m", 36.0e-6, "[0, inf)"),
        Param("total_axial_gap_m", 40.0e-6, "(0, inf)"),
        br.FilmState,
        Param("grid_radial_nodes", 65, f"[{br.MIN_RADIAL_NODES}, inf)"),
        Param("grid_angular_nodes", 96, f"[{br.MIN_ANGULAR_NODES}, inf)"),
        Param("external_axial_load_n", "auto",
              auto="rotor weight from the turbine section"),
    ),
}



def _params(source):
    """The config Params a SECTIONS entry stands for."""
    if isinstance(source, Param):
        return [source]
    return [p for _, p in declared(source) if p.key]


# section -> key -> Param
_SCHEMA = {section: {p.key: p for source in sources for p in _params(source)}
           for section, sources in SECTIONS.items()}


def _render() -> str:
    lines = ["# microgt scenario configuration (SI units, unit suffix in every key)"]
    for section, schema in _SCHEMA.items():
        lines += ["", f"[{section}]"]
        for p in schema.values():
            comment = f"   # {p.comment}" if p.comment else ""
            lines.append(f"{p.key} = {p.default}{comment}")
    return "\n".join(lines) + "\n"


DEFAULT_CONFIG = _render()


class ConfigError(ValueError):
    """Raised by validate() with the full violation list attached."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


# Largest bearing grid, in nodes.  The finest grids of the convergence
# study (129x768, 257x384, 513x192) fit; one 257x384 solve peaks near 350 MB.
MAX_GRID_NODES = 100_000


def _cross_field_errors(values) -> list:
    """Violations of the rules that span records or run settings; each record
    checks its own."""
    errors = []
    # mirrors run_cycle: the turbine expands (p_a * pressure_ratio) *
    # sigma_combustor back to p_a, which cycle.expand rejects when it is less
    p_amb = values["ambient"]["pressure_pa"]
    cycle = values["cycle"]
    if p_amb * cycle["pressure_ratio"] * cycle["sigma_combustor"] < p_amb:
        errors.append("[cycle] pressure_ratio * sigma_combustor must be >= 1: "
                      "the combustor exit would sit below ambient pressure")
    turb = values["turbine"]
    if turb["rpm_max"] < turb["rpm_min"]:
        errors.append("[turbine] rpm_max must be >= rpm_min")
    b = values["bearing"]
    if b["grid_radial_nodes"] * b["grid_angular_nodes"] > MAX_GRID_NODES:
        errors.append(f"[bearing] grid_radial_nodes * grid_angular_nodes must be "
                      f"<= {MAX_GRID_NODES}: the field and its Jacobian must fit in memory")
    return errors


@dataclass(frozen=True)
class ScenarioConfig:
    """Typed view of a parsed configuration: its values and the records
    built from them once, by _scenario."""

    raw: dict  # section -> key -> parsed value
    config_hash: str
    property_model: object  # the gas module, or a ConstantCpGas
    cycle_design: cyc.CycleDesignPoint
    combustor_geometry: cb.CombustorGeometry
    combustor_operating_point: cb.CombustorOperatingPoint
    chemistry: cb.ChemicalTimeModel
    rotor_geometry: turbo.RotorGeometry
    stator_geometry: turbo.StatorGeometry
    film_state: br.FilmState
    faces: dict  # "top" / "bottom" -> SpiralGrooveBearing
    external_axial_load: float  # N

    def bearing_face(self, which: str) -> br.SpiralGrooveBearing:
        return self.faces[which]

    def with_value(self, section: str, key: str, value) -> ScenarioConfig:
        """A copy with one value replaced; ConfigError names the key if the
        value is out of bounds."""
        problem = _SCHEMA[section][key].problem(value)
        if problem:
            raise ConfigError([f"[{section}] {key} = {value}: {problem}"])
        return _scenario({**self.raw, section: {**self.raw[section], key: value}},
                         self.config_hash)


def _scenario(values, config_hash: str) -> ScenarioConfig:
    """The ScenarioConfig of in-bounds values, each record built once.

    ConfigError lists each record's ValueError once, as a violation of its
    section, followed by the violations of the rules that span records.
    """
    errors = []

    def build(cls, section: str, **extra):
        """cls made from the section's values of its param() fields."""
        try:
            return cls(**{name: values[section][p.key] for name, p in declared(cls) if p.key},
                       **extra)
        except ValueError as exc:
            if f"[{section}] {exc}" not in errors:  # both faces share their keys
                errors.append(f"[{section}] {exc}")
            return None

    a, b = values["ambient"], values["bearing"]
    records = dict(
        property_model=(build(ConstantCpGas, "properties")
                        if values["properties"]["mode"] == "constant_cp" else gas),
        cycle_design=build(cyc.CycleDesignPoint, "cycle",
                           ambient=GasState(AIR, a["temperature_k"], a["pressure_pa"])),
        combustor_geometry=build(cb.CombustorGeometry, "combustor"),
        combustor_operating_point=build(cb.CombustorOperatingPoint, "combustor"),
        chemistry=build(cb.ChemicalTimeModel, "calibration"),
        rotor_geometry=build(turbo.RotorGeometry, "turbine"),
        stator_geometry=build(turbo.StatorGeometry, "turbine"),
        film_state=build(br.FilmState, "bearing"),
        faces={which: build(br.SpiralGrooveBearing, "bearing",
                            groove_depth=b[f"{which}_groove_depth_m"], pump_direction=pump)
               for which, pump in (("top", "pump-in"), ("bottom", "pump-out"))},
    )
    errors += _cross_field_errors(values)
    if errors:
        raise ConfigError(errors)
    load = b["external_axial_load_n"]
    if load == "auto":
        load = records["rotor_geometry"].rotor_mass * turbo.GRAVITY
    return ScenarioConfig(raw=values, config_hash=config_hash,
                          external_axial_load=load, **records)


def validate(config_text: str):
    """Parse and check a config; returns ScenarioConfig or raises ConfigError
    carrying the complete list of violations."""
    errors = []
    values = {section: {} for section in _SCHEMA}
    first_line = {}  # (section, key) -> line number of its first setting
    section = None
    for lineno, raw_line in enumerate(config_text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any known section")
            continue
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _SCHEMA[section]:
            errors.append(f"line {lineno}: unknown key '{key}' in section [{section}]")
            continue
        first = first_line.setdefault((section, key), lineno)
        if first != lineno:
            errors.append(f"line {lineno}: duplicate key '{key}' in section "
                          f"[{section}] (first on line {first})")
            continue
        try:
            values[section][key] = _SCHEMA[section][key].parse(text)
        except ValueError as exc:
            errors.append(f"line {lineno}: [{section}] {key} = {text!r}: {exc}")
            values[section][key] = None

    for section, schema in _SCHEMA.items():
        for key in schema:
            if key not in values[section]:
                errors.append(f"missing key '{key}' in section [{section}]")

    if errors:
        raise ConfigError(errors)
    return _scenario(values, hashlib.sha256(config_text.encode("utf-8")).hexdigest()[:16])


def default_config() -> ScenarioConfig:
    return validate(DEFAULT_CONFIG)
