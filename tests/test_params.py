import contextlib
import dataclasses
import io
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from microgt import bearing as br
from microgt import cli
from microgt import combustor as cb
from microgt import cycle as cyc
from microgt import gas, params, turbo
from microgt.config import DEFAULT_CONFIG, SECTIONS, ConfigError, default_config, validate
from microgt.params import Param, Record, SolverError, bracketed_root, declared


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
            line = f"{key} = {value if isinstance(value, str) else repr(value)}"
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


def test_every_dataclass_with_declared_fields_is_a_record():
    records = {obj for module in (br, cb, cyc, gas, turbo) for obj in vars(module).values()
               if dataclasses.is_dataclass(obj) and isinstance(obj, type) and declared(obj)}
    assert len(records) == 10
    assert all(issubclass(cls, Record) for cls in records)


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

    root = bracketed_root(f, 0.0, 2.0, f(0.0), f(2.0), "cube root")
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
    assert root.hex() == "0x1.428a2f98d728bp+0"  # as when it evaluated f(lo), f(hi)
    assert len(calls) < 30  # bisection needs ~45 halvings for this width


def first_three_points(f, lo, hi):
    """The first three points bracketed_root evaluates on [lo, hi]."""
    calls = []

    def recorded(x):
        calls.append(x)
        return f(x)
    bracketed_root(recorded, lo, hi, f(lo), f(hi), "test")
    return calls[:3]


def test_bracketed_root_scales_an_end_kept_twice_by_the_residual_ratio():
    """x^3 - 2 on [0, 2]: the first two steps both replace lo, so the third
    secant runs to (2, 6 m) with m = 1 - f(x2) / f(x1) (Anderson-Bjorck),
    not to (2, 3) as halving would."""
    def f(x):
        return x ** 3 - 2.0

    x1, x2, x3 = first_three_points(f, 0.0, 2.0)
    assert f(x1) < 0.0 and f(x2) < 0.0
    f_hi = 6.0 * (1.0 - f(x2) / f(x1))
    assert x3 == (x2 * f_hi - 2.0 * f(x2)) / (f_hi - f(x2))


def test_bracketed_root_halves_an_end_kept_twice_when_the_ratio_is_not_positive():
    """f falls on [0, 1.9) and is 10 (x - 1.95) above it: the second step
    replaces lo with a larger residual than the first left, so m <= 0 and
    the kept end's residual 0.5 is halved instead."""
    def f(x):
        return -1.0 - x if x < 1.9 else 10.0 * (x - 1.95)

    x1, x2, x3 = first_three_points(f, 0.0, 2.0)
    assert f(x2) < f(x1) < 0.0
    assert x3 == (x2 * 0.25 - 2.0 * f(x2)) / (0.25 - f(x2))


def test_bracketed_root_rejects_an_unbracketed_interval():
    with pytest.raises(SolverError, match="no root"):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0, "test")


@pytest.mark.parametrize("f_lo, f_hi, root", [(0.0, 1.0, -1.0), (-1.0, 0.0, 2.0)])
def test_bracketed_root_returns_an_end_whose_residual_is_zero(f_lo, f_hi, root):
    assert bracketed_root(lambda x: pytest.fail("f called"), -1.0, 2.0, f_lo, f_hi,
                          "test") == root


def test_bracketed_root_reports_its_step_cap(monkeypatch):
    monkeypatch.setattr(params, "ROOT_MAX_STEPS", 1)
    with pytest.raises(SolverError, match="cube root: no convergence in 1 steps"):
        bracketed_root(lambda x: x ** 3 - 2.0, 0.0, 2.0, -2.0, 6.0, "cube root")


def test_bracketed_root_rejects_a_non_finite_end():
    with pytest.raises(SolverError, match="not finite"):
        bracketed_root(lambda x: math.nan if x < 0.0 else x - 1.0, -1.0, 2.0,
                       math.nan, 1.0, "test")


def test_bracketed_root_lets_an_exception_of_f_through_at_once():
    """axial_equilibrium stops the steps from inside f: f is not called
    again, and its exception reaches the caller unchanged."""
    class Stop(Exception):
        pass

    stop = Stop("enough")
    calls = []

    def f(x):
        calls.append(x)
        if len(calls) == 2:
            raise stop
        return x ** 3 - 2.0

    with pytest.raises(Stop) as raised:
        bracketed_root(f, 0.0, 2.0, -2.0, 6.0, "cube root")
    assert raised.value is stop and raised.value.__cause__ is None
    assert len(calls) == 2


def test_exit_temperature_outside_bracket_raises_instead_of_clamping():
    # A stoichiometric flame from a 1500 K inlet burns above the 3400 K end of
    # the exit-temperature bracket; it must raise, not clamp to the bound.
    op = cb.CombustorOperatingPoint(1e-5, 1.0, 1500.0)
    with pytest.raises(SolverError, match="combustor exit temperature"):
        cb.stability(cb.CombustorGeometry(), op)


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


# Sections whose keys the contract test draws, each with the stage that
# reads it.  Bearing keys have a test of their own: one bearing run costs
# seconds.
CONTRACT_STAGES = {"ambient": "cycle", "properties": "cycle", "cycle": "cycle",
                   "combustor": "combustor", "calibration": "combustor",
                   "turbine": "turbine"}
CONTRACT_KEYS = [(section, key, p) for section, key, p, *_ in _declarations()
                 if key and section in CONTRACT_STAGES]
DEFAULT_SCENARIO = default_config()


def _drawn_value(p: Param):
    """A value of p: an end of its bound (inf included), 'auto' where p
    allows it, or a value inside: uniform when both ends are finite, else
    log-uniform over 1e-15 to 1e15 in its distance from the lower end, or
    in its magnitude, of either sign, when that end is -inf.  Integers reach
    1000 above their lower end."""
    if p.choices:
        return st.sampled_from(p.choices)
    lo, hi, _, _ = p.interval
    if p.kind == "int":
        inside = st.floats(0.0, 3.0).map(lambda x: int(lo) + int(10.0 ** x))
    elif not math.isfinite(lo):
        inside = st.builds(lambda sign, x: sign * 10.0 ** x,
                           st.sampled_from([-1.0, 1.0]), st.floats(-15.0, 15.0))
    elif math.isfinite(hi):
        inside = st.floats(lo, hi)
    else:
        inside = st.floats(-15.0, 15.0).map(lambda x: lo + 10.0 ** x)
    return st.one_of(st.sampled_from([lo, hi] + (["auto"] if p.auto else [])), inside)


def _csv_floats(out: Path):
    for path in out.glob("*.csv"):
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(","):
                try:
                    yield path.name, float(cell)
                except ValueError:  # a label or an empty cell
                    continue


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_every_drawn_input_is_rejected_or_solved_or_reported(data):
    """The input contract: exit 1 naming the key, exit 0 with finite CSVs,
    or exit 2 naming the stage, and never an escaped exception."""
    section, key, p = data.draw(st.sampled_from(CONTRACT_KEYS), label="key")
    value = data.draw(_drawn_value(p), label="value")
    stage = CONTRACT_STAGES[section]
    try:
        DEFAULT_SCENARIO.with_value(section, key, value)
        rejected = False
    except ConfigError:
        rejected = True
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg", Path(tmp) / "out"
        cfg.write_text(_with_value(DEFAULT_CONFIG, section, key, value))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", stage, "--config", str(cfg), "--out", str(out)])
        err = err.getvalue()
        event(f"exit {code}")
        assert (code == 1) == rejected, err
        if code == 1:
            assert f"[{section}]" in err and key in err, err
        elif code == 0:
            bad = [(name, v) for name, v in _csv_floats(out) if not math.isfinite(v)]
            assert not bad, bad
        else:
            assert code == 2 and err.startswith(f"error: {stage}:"), (code, err)
            assert not out.exists()


# Every [bearing] key but the grid, which the bearing contract test fixes
# at the 33x64 of the axial equilibrium.
BEARING_KEYS = [(key, p) for section, key, p, *_ in _declarations()
                if section == "bearing" and key
                and key not in ("grid_radial_nodes", "grid_angular_nodes")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_every_drawn_bearing_input_is_rejected_or_solved_or_reported(data):
    """The input contract of the bearing keys, on one 33x64 solve per face:
    a ConfigError naming the key, a load, or a SolverError or
    ArithmeticError.  `run bearing` exits 2 on the last two and on a load
    that is not finite."""
    key, p = data.draw(st.sampled_from(BEARING_KEYS), label="key")
    value = data.draw(_drawn_value(p), label="value")
    try:
        scenario = DEFAULT_SCENARIO.with_value("bearing", key, value)
    except ConfigError as exc:
        event("rejected")
        assert all("[bearing]" in e for e in exc.errors) and key in str(exc), exc.errors
        return
    for face in ("top", "bottom"):
        try:
            field = br.solve_reynolds(scenario.bearing_face(face), scenario.film_state, 33, 64)
            load = br.load_capacity(field)
        except (SolverError, ArithmeticError) as exc:
            event(type(exc).__name__)
            continue
        event("finite load" if math.isfinite(load) else "load not finite")
        assert isinstance(load, float)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key, value", [("nominal_clearance_m", 1e-300),
                                        ("outer_radius_m", 1e300)])
def test_run_bearing_reports_arithmetic_failure_with_exit_2(tmp_path, capsys, key, value):
    cfg, out = tmp_path / "cfg", tmp_path / "out"
    cfg.write_text(_with_value(DEFAULT_CONFIG, "bearing", key, value))
    assert cli.main(["run", "bearing", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: bearing: ")
    assert not out.exists()


PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_leaves_later_tests_reported(tmp_path):
    """Under the repository's pytest settings a failing @given test is
    reported like any other failure, and the tests after it still run."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    settings_file = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(settings_file), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1]
