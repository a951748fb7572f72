import math

import pytest
from hypothesis import given, settings, strategies as st

from microgt import combustor as cb
from microgt import cycle as cyc
from microgt import gas
from microgt.config import DEFAULT_CONFIG, SECTIONS, ConfigError, validate
from microgt.params import ConvergenceError, Param, bracketed_root, declared


def _declarations():
    """(section, key, Param, owning dataclass or None, field name or None)."""
    for section, sources in SECTIONS.items():
        for source in sources:
            if isinstance(source, Param):
                yield section, source.key, source, None, None
            else:
                for name, p in declared(source):
                    yield section, p.key, p, source, name


def _outside(p: Param):
    """Values just outside each finite end of p's interval."""
    if p.choices or not p.bound:
        return []
    lo, hi, lo_closed, hi_closed = p.interval
    if p.kind == "int":
        step = lambda x, d: x + d  # noqa: E731
    else:
        step = lambda x, d: math.nextafter(x, d * math.inf)  # noqa: E731
    values = []
    if math.isfinite(lo):
        values.append(step(lo, -1) if lo_closed else lo)
    if math.isfinite(hi):
        values.append(step(hi, 1) if hi_closed else hi)
    return values


def _with_value(text, section, key, value):
    lines, current = [], None
    for line in text.splitlines():
        content = line.split("#", 1)[0].strip()
        if content.startswith("["):
            current = content[1:-1]
        elif current == section and content.split("=", 1)[0].strip() == key:
            line = f"{key} = {value!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


OUT_OF_BOUNDS = [
    pytest.param(section, key, p, cls, name, value,
                 id=f"{cls.__name__ if cls else section}.{name or key}={value!r}")
    for section, key, p, cls, name in _declarations()
    for value in _outside(p)
]


def test_every_key_is_declared_once():
    keys = [(section, key) for section, key, *_ in _declarations() if key]
    assert len(keys) == len(set(keys))
    assert len(OUT_OF_BOUNDS) > 40


@pytest.mark.parametrize("section, key, p, cls, name, value", OUT_OF_BOUNDS)
def test_value_outside_bound_is_rejected(section, key, p, cls, name, value):
    if key is not None:
        with pytest.raises(ConfigError) as info:
            validate(_with_value(DEFAULT_CONFIG, section, key, value))
        assert any(f"[{section}] {key} =" in e and p.bound in e
                   for e in info.value.errors), info.value.errors
    if cls is not None:
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})


def test_default_config_equals_field_defaults():
    raw = validate(DEFAULT_CONFIG).raw
    for section, key, p, cls, name in _declarations():
        if key is None:
            continue
        assert raw[section][key] == p.default, (section, key)
        if cls is not None:
            assert getattr(cls(), name) == raw[section][key], (section, key)


def test_default_fuel_flow_is_the_shipped_text():
    assert validate(DEFAULT_CONFIG).raw["cycle"]["fuel_mass_flow_kg_s"] == 4.7222222e-6
    assert "rpm = 15000.0\nambient_pressure_pa" in DEFAULT_CONFIG


def test_default_config_comments_render_from_the_kind():
    assert "mode = polynomial   # polynomial | constant_cp" in DEFAULT_CONFIG
    assert "external_axial_load_n = auto   # auto = rotor weight" in DEFAULT_CONFIG


def test_non_finite_values_are_rejected_for_every_numeric_key():
    text = _with_value(DEFAULT_CONFIG, "bearing", "rpm", math.nan)
    text = _with_value(text, "cycle", "air_mass_flow_kg_s", math.inf)
    text = _with_value(text, "turbine", "rpm_points", -math.inf)
    with pytest.raises(ConfigError) as info:
        validate(text)
    assert len(info.value.errors) == 3
    assert all("must be finite" in e for e in info.value.errors)


def test_bracketed_root_finds_a_root_superlinearly():
    calls = []

    def f(x):
        calls.append(x)
        return x ** 3 - 2.0

    root = bracketed_root(f, 0.0, 2.0, "cube root")
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
    assert len(calls) < 30  # bisection needs ~45 halvings for this width


def test_bracketed_root_rejects_an_unbracketed_interval():
    with pytest.raises(ConvergenceError, match="no root"):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0, "test")


def test_bracketed_root_rejects_a_non_finite_end():
    with pytest.raises(ConvergenceError, match="not finite"):
        bracketed_root(lambda x: math.nan if x < 0.0 else x - 1.0, -1.0, 2.0, "test")


def test_exit_temperature_outside_bracket_raises_instead_of_clamping():
    # A 200 K sink and a large exterior loss put the exit-temperature root
    # below 250 K, where an exit temperature used to be clamped without a word.
    geometry = cb.CombustorGeometry(wall_thermal_conductance=10.0)
    op = cb.CombustorOperatingPoint(0.15e-3, 0.8)
    with pytest.raises(ConvergenceError, match="combustor exit temperature"):
        cb.stability(geometry, op, ambient_temperature=200.0)


@settings(deadline=None, max_examples=60)
@given(phi=st.floats(1e-3, 0.99), fraction=st.floats(1e-3, 1.0),
       inlet=st.floats(250.0, 1000.0))
def test_flame_temperature_rises_strictly_with_phi(phi, fraction, inlet):
    richer = phi + (1.0 - phi) * fraction
    assert (cb.adiabatic_flame_temperature(phi, inlet)
            < cb.adiabatic_flame_temperature(richer, inlet))


@settings(deadline=None, max_examples=60)
@given(pressure_ratio=st.floats(1.0, 8.0), air=st.floats(0.1e-3, 1.0e-3),
       phi=st.floats(0.0, 0.8), eta_c=st.floats(0.3, 1.0), eta_t=st.floats(0.3, 1.0),
       eta_b=st.floats(0.3, 1.0), eta_m=st.floats(0.3, 1.0))
def test_cycle_energy_closure(pressure_ratio, air, phi, eta_c, eta_t, eta_b, eta_m):
    design = cyc.CycleDesignPoint(
        air_mass_flow=air, pressure_ratio=pressure_ratio,
        fuel_mass_flow=air * phi * gas.fuel_air_mass_ratio(1.0),
        eta_compressor=eta_c, eta_turbine=eta_t, eta_combustor=eta_b,
        eta_mechanical=eta_m)
    if pressure_ratio * design.sigma_combustor < 1.0:
        # the turbine cannot expand a sub-ambient combustor exit to ambient
        with pytest.raises(ValueError, match="exceeds inlet pressure"):
            cyc.run_cycle(design)
        return
    perf, stations = cyc.run_cycle(design)
    assert perf.net_power == pytest.approx(
        eta_m * perf.turbine_power - perf.compressor_power, rel=1e-12, abs=1e-12)
    assert all(math.isfinite(s.state.temperature) for s in stations)
    # heat release outweighs the cold fuel, down to rounding at phi -> 0
    assert perf.turbine_inlet_temperature >= stations[1].state.temperature * (1.0 - 1e-12)
