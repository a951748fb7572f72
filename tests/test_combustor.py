import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from microgt import combustor as cb
from microgt import gas
from microgt.combustor import (ChemicalTimeModel, CombustorGeometry,
                               CombustorOperatingPoint)
from microgt.params import ROOT_RTOL, SolverError

GEOM_12 = CombustorGeometry()  # 1.2 mm chamber
GEOM_06 = CombustorGeometry(chamber_height=0.6e-3)
GEOM_10 = CombustorGeometry(chamber_height=1.0e-3)


def numeric_flame_temperature(phi, t_in):
    """Independent oracle: numerically integrated cp + root bracketing."""
    mix = gas.unburned_mixture(phi)
    prod = gas.burned_composition(phi)

    def h_total(comp, t):
        ts = np.linspace(gas.T_REFERENCE, t, 3000)
        cps = np.array([gas.cp_mass(comp, x) for x in ts])
        return np.trapezoid(cps, ts) + comp.formation_enthalpy

    target = h_total(mix, t_in)
    return brentq(lambda t: h_total(prod, t) - target, t_in + 1.0, 3300.0,
                  xtol=1e-6)


def test_stoichiometric_ratio():
    f = gas.fuel_air_mass_ratio(1.0)
    assert f == pytest.approx(0.0292, abs=1e-3)
    # oracle: ~8 kg O2 per kg H2 over the air O2 mass fraction 0.2314
    assert f == pytest.approx(0.2314 / 8.0, abs=1e-3)


def test_equivalence_ratio_round_trip():
    f = gas.fuel_air_mass_ratio(1.0)
    assert gas.equivalence_ratio(f * 0.2e-3, 0.2e-3) == pytest.approx(1.0, rel=1e-12)
    assert gas.equivalence_ratio(0.0, 0.2e-3) == 0.0
    assert gas.equivalence_ratio(2.0 * f * 0.2e-3, 0.2e-3) == pytest.approx(2.0, rel=1e-12)


def test_equivalence_ratio_design_point():
    phi = gas.equivalence_ratio(17.0 / 3600.0 * 1e-3, 0.36e-3)
    assert phi == pytest.approx(0.45, abs=0.02)


def test_flame_temperature_no_fuel():
    assert cb.adiabatic_flame_temperature(0.0, 431.0) == 431.0


def test_flame_temperature_stoichiometric():
    t = cb.adiabatic_flame_temperature(1.0, 300.0)
    assert 2400.0 <= t <= 2600.0
    assert abs(t - numeric_flame_temperature(1.0, 300.0)) < 60.0


def test_flame_temperature_lean():
    t = cb.adiabatic_flame_temperature(0.8, 300.0)
    assert 2100.0 <= t <= 2300.0
    assert abs(t - numeric_flame_temperature(0.8, 300.0)) < 60.0


def test_flame_temperature_rejects_rich():
    with pytest.raises(gas.RichMixtureError):
        cb.adiabatic_flame_temperature(1.1, 300.0)


def test_flame_above_the_table_has_no_root():
    """A flame above T_PRODUCTS_MAX, phi = 1 from a 1500 K inlet, is above
    the whole table and raises, naming the table's ends."""
    with pytest.raises(SolverError, match=r"adiabatic flame temperature: no root in \[250, 3400\]"):
        cb.adiabatic_flame_temperature(1.0, 1500.0)


@settings(deadline=None, max_examples=300)
@given(phi=st.floats(0.0, 1.0),
       temperature=st.floats(gas.T_MIN, cb.T_PRODUCTS_MAX) | st.sampled_from(cb.PRODUCTS_TABLE))
def test_products_temperature_brackets_a_sign_change(phi, temperature):
    """For a target anywhere across the table, the table nodes included,
    h(T) - target changes sign within +-ROOT_RTOL * T of the returned T,
    with h evaluated here and not read from the held table."""
    products = cb._products(phi)
    composition = products.composition
    target = gas.enthalpy_mass(composition, temperature)
    t = cb._products_temperature(products, target, "test")
    reach = ROOT_RTOL * t
    below = gas.enthalpy_mass(composition, max(t - reach, gas.T_MIN)) - target
    above = gas.enthalpy_mass(composition, min(t + reach, cb.T_PRODUCTS_MAX)) - target
    assert below <= 0.0 <= above


def test_preheat_zero_length_channel():
    geom = CombustorGeometry(recirculation_channel_length=0.0)
    op = CombustorOperatingPoint(0.15e-3, 0.6)
    t_pre, heat = cb.recuperator_preheat(geom, op, 900.0)
    assert t_pre == op.inlet_temperature
    assert heat == 0.0


def test_preheat_long_channel_saturates():
    geom = CombustorGeometry(recirculation_channel_length=1.0)
    op = CombustorOperatingPoint(0.15e-3, 0.6)
    t_pre, _ = cb.recuperator_preheat(geom, op, 900.0)
    assert t_pre == pytest.approx(900.0, rel=0.01)


def test_preheat_monotone_in_length():
    op = CombustorOperatingPoint(0.15e-3, 0.6)
    lengths = (0.01, 0.02, 0.04, 0.08, 0.16)
    temps = []
    for length in lengths:
        geom = CombustorGeometry(recirculation_channel_length=length)
        temps.append(cb.recuperator_preheat(geom, op, 900.0)[0])
        # oracle: closed-form effectiveness from the same NTU expression
        mix = gas.unburned_mixture(0.6)
        t_film = 0.5 * (900.0 + 300.0)
        k_film = gas.cp_mass(mix, t_film) * cb.viscosity(t_film) / cb.PRANDTL
        ntu = (cb.NU_CHANNEL * k_film * geom.recirculation_channel_width * length
               / (0.5 * geom.recirculation_hydraulic_diameter
                  * op.total_mass_flow * gas.cp_mass(mix, t_film)))
        expected = 300.0 + (1.0 - math.exp(-ntu)) * 600.0
        assert temps[-1] == pytest.approx(expected, rel=1e-9)
    assert all(b > a for a, b in zip(temps, temps[1:]))


def test_thermal_solve_shares_one_recuperator(monkeypatch):
    """Each wall update evaluates cp twice, the mixture at the film
    temperature inside _recuperator and the products at the exit
    temperature, and the converged preheat is recuperator_preheat's, also
    for a hot inlet whose wall settles below it (405.68 K under 600 K)."""
    points = [(GEOM_12, CombustorOperatingPoint(0.10e-3, 0.8)),
              (GEOM_06, CombustorOperatingPoint(0.15e-3, 0.6)),
              (GEOM_10, CombustorOperatingPoint(0.05e-3, 0.9, 350.0)),
              (GEOM_12, CombustorOperatingPoint(4e-5, 0.7, 600.0))]
    for geom, op in points:
        _, t_wall, t_pre = cb._solve_thermal(geom, op)
        assert cb.stability(geom, op).stable
        assert cb.recuperator_preheat(geom, op, t_wall)[0] == t_pre

    counts = {"cp_mass": 0, "_recuperator": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(gas, "cp_mass")
    counted(cb, "_recuperator")
    cb._solve_thermal(*points[0])
    assert counts["_recuperator"] > 1
    assert counts["cp_mass"] == 2 * counts["_recuperator"]


def test_default_point_roots_on_the_enthalpy_table(monkeypatch):
    """From a cold products cache the default point makes at most 110
    enthalpy_mass calls: 15 for the held table and about 5 for each of its
    products-temperature roots, each taken on one table cell."""
    calls = []
    original = gas.enthalpy_mass

    def counted(*args):
        calls.append(args[1])
        return original(*args)
    monkeypatch.setattr(gas, "enthalpy_mass", counted)
    cb._products.cache_clear()
    assert cb.stability(GEOM_12, CombustorOperatingPoint()).stable
    assert calls[:len(cb.PRODUCTS_TABLE)] == list(cb.PRODUCTS_TABLE)
    assert len(calls) <= 110


def test_preheat_requires_wall_at_or_above_inlet():
    op = CombustorOperatingPoint(0.15e-3, 0.6)
    with pytest.raises(ValueError):
        cb.recuperator_preheat(GEOM_12, op, 200.0)


def test_residence_time_scalings():
    op = CombustorOperatingPoint(0.15e-3, 0.6)
    tau_1 = cb.residence_time(GEOM_06, op, 1600.0)
    tau_2 = cb.residence_time(CombustorGeometry(chamber_height=1.2e-3), op, 1600.0)
    assert tau_2 == pytest.approx(2.0 * tau_1, rel=1e-12)
    op2 = CombustorOperatingPoint(0.30e-3, 0.6)
    assert cb.residence_time(GEOM_06, op2, 1600.0) == pytest.approx(0.5 * tau_1, rel=1e-12)
    with pytest.raises(ValueError, match="flame_temperature must be positive"):
        cb.residence_time(GEOM_06, op, 0.0)


def test_residence_time_hand_formula():
    op = CombustorOperatingPoint(0.15e-3, 0.6)
    geom = GEOM_10
    volume = math.pi * (8.0e-3 ** 2 - 5.0e-3 ** 2) * 1.0e-3
    mdot = 0.15e-3 * (1.0 + 0.6 * gas.fuel_air_mass_ratio(1.0))
    rho = 101325.0 * gas.burned_composition(0.6).molar_mass / (
        gas.R_UNIVERSAL * 1600.0)
    assert cb.residence_time(geom, op, 1600.0) == pytest.approx(
        volume * rho / mdot, rel=1e-9)


def test_chemical_time_monotone_in_phi_and_temperature():
    taus = [cb.chemical_time(phi, 101325.0, 700.0) for phi in
            (0.4, 0.55, 0.7, 0.85, 1.0)]
    assert all(b < a for a, b in zip(taus, taus[1:]))
    taus_t = [cb.chemical_time(0.8, 101325.0, t) for t in
              (400.0, 500.0, 600.0, 700.0, 800.0)]
    assert all(b < a for a, b in zip(taus_t, taus_t[1:]))


def test_chemical_time_zero_phi_never_stable():
    assert cb.chemical_time(0.0, 101325.0, 700.0) == math.inf
    with pytest.raises(ValueError, match="phi must be non-negative"):
        cb.chemical_time(-0.1, 101325.0, 700.0)
    op = CombustorOperatingPoint(0.15e-3, 0.0)
    result = cb.stability(GEOM_12, op)
    assert not result.stable
    assert result.damkohler == 0.0


def test_stability_fig3_classifications():
    stable_a = cb.stability(GEOM_06, CombustorOperatingPoint(0.15e-3, 0.6))
    stable_b = cb.stability(GEOM_10, CombustorOperatingPoint(0.15e-3, 0.6))
    unstable_c = cb.stability(GEOM_06, CombustorOperatingPoint(0.15e-3, 0.5))
    assert stable_a.stable
    assert stable_b.stable
    assert not unstable_c.stable
    assert stable_b.damkohler > stable_a.damkohler
    # exit temperature placeholders for blow-out: non-reacting mixed value
    assert unstable_c.exit_temperature == 300.0


def test_stability_result_identity():
    result = cb.stability(GEOM_12, CombustorOperatingPoint(0.10e-3, 0.8))
    assert result.damkohler == result.residence_time / result.chemical_time
    assert result.stable == (result.damkohler >= cb.DEFAULT_CHEMISTRY.da_critical)
    assert result.exit_temperature >= 300.0


def test_stability_monotone_in_phi():
    verdicts = [cb.stability(GEOM_06, CombustorOperatingPoint(0.15e-3, phi)).stable
                for phi in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
    # once stable, stays stable at richer mixtures
    first = verdicts.index(True)
    assert all(verdicts[first:])


def test_stability_monotone_in_height():
    op = CombustorOperatingPoint(0.15e-3, 0.6)
    heights = (0.6e-3, 0.8e-3, 1.0e-3, 1.2e-3)
    das = [cb.stability(CombustorGeometry(chamber_height=h), op).damkohler
           for h in heights]
    assert all(b > a for a, b in zip(das, das[1:]))
    stable = [cb.stability(CombustorGeometry(chamber_height=h), op).stable
              for h in heights]
    first = stable.index(True)
    assert all(stable[first:])


def test_da_critical_invariance():
    op = CombustorOperatingPoint(0.15e-3, 0.6)
    base = cb.stability(GEOM_06, op)
    scaled = ChemicalTimeModel(prefactor=cb.DEFAULT_CHEMISTRY.prefactor * 7.0,
                               da_critical=cb.DEFAULT_CHEMISTRY.da_critical / 7.0)
    rescaled = cb.stability(GEOM_06, op, scaled)
    assert rescaled.stable == base.stable
    for phi in (0.45, 0.5, 0.55):
        op_x = CombustorOperatingPoint(0.15e-3, phi)
        assert (cb.stability(GEOM_06, op_x, scaled).stable
                == cb.stability(GEOM_06, op_x).stable)


def test_blowout_threshold_in_band():
    mdot_min = cb.blowout_mass_flow(GEOM_12, 0.8)
    assert mdot_min is not None
    assert 0.03e-3 <= mdot_min <= 0.05e-3
    # a 10 um chamber blows out at every scan flow
    assert cb.blowout_mass_flow(CombustorGeometry(chamber_height=1.0e-5), 0.8) is None


def test_exit_band_fig6():
    for mdot in (0.05e-3, 0.10e-3, 0.15e-3):
        result = cb.stability(GEOM_12, CombustorOperatingPoint(mdot, 0.8))
        assert result.stable
        assert 1400.0 <= result.exit_temperature <= 1600.0


def test_exit_temperature_adiabatic_when_lossless():
    geom = CombustorGeometry(wall_thermal_conductance=0.0)
    op = CombustorOperatingPoint(0.10e-3, 0.8)
    result = cb.stability(geom, op)
    assert result.exit_temperature == pytest.approx(
        cb.adiabatic_flame_temperature(0.8, 300.0), rel=1e-7)


def test_exit_temperature_increases_with_flow():
    temps = [cb.stability(GEOM_12, CombustorOperatingPoint(m, 0.8)).exit_temperature
             for m in (0.05e-3, 0.075e-3, 0.10e-3, 0.125e-3, 0.15e-3)]
    assert all(b > a for a, b in zip(temps, temps[1:]))


def test_exit_temperature_unstable_flag():
    result = cb.stability(GEOM_12, CombustorOperatingPoint(0.02e-3, 0.8))
    assert not result.stable
    assert result.exit_temperature == 300.0


def test_energy_closure():
    # heat released = sensible enthalpy rise + exterior wall loss
    for mdot, phi in ((0.05e-3, 0.8), (0.15e-3, 0.8), (0.15e-3, 0.6)):
        op = CombustorOperatingPoint(mdot, phi)
        result = cb.stability(GEOM_12, op)
        assert result.stable
        mix = gas.unburned_mixture(phi)
        prod = gas.burned_composition(phi)
        mtot = op.total_mass_flow
        released = mtot * (gas.enthalpy_mass(mix, 300.0) - gas.enthalpy_mass(prod, 300.0))
        rise = mtot * (gas.sensible_enthalpy_mass(prod, result.exit_temperature)
                       - gas.sensible_enthalpy_mass(prod, 300.0))
        loss = GEOM_12.wall_thermal_conductance * (result.wall_temperature - 300.0)
        assert rise + loss == pytest.approx(released, rel=1e-6)


def test_hot_inlet_point_with_large_wall_loss_is_solved():
    # A wall at the 442 K inlet temperature loses more than the flame
    # releases, so no exit temperature lies on the tables there; the chamber
    # still burns with a cooler wall and is classified, here as blow-out.
    result = cb.stability(CombustorGeometry(wall_thermal_conductance=1.0),
                          CombustorOperatingPoint(4e-5, 0.68, 442.0))
    assert result.damkohler == pytest.approx(0.165, abs=1e-3)
    assert not result.stable
    assert result.exit_temperature == 442.0


def test_hot_inlet_grid_solves_both_balances():
    # For 39 of these 54 points a wall at the inlet temperature loses more
    # than the flame releases.  Each burning state found must close the gas
    # balance and be a fixed point of the wall balance.
    for g, mdot, phi, t_in in itertools.product(
            (0.56, 1.0, 2.0), (1e-5, 4e-5, 1e-4), (0.3, 0.7), (350.0, 442.0, 600.0)):
        geom = CombustorGeometry(wall_thermal_conductance=g)
        op = CombustorOperatingPoint(mdot, phi, t_in)
        result = cb.stability(geom, op)
        assert math.isfinite(result.damkohler) and result.damkohler > 0.0
        t_exit, t_wall, t_pre = cb._solve_thermal(geom, op)
        mix = gas.unburned_mixture(phi)
        prod = gas.burned_composition(phi)
        mtot = op.total_mass_flow
        gain = mtot * (gas.enthalpy_mass(prod, t_exit) - gas.enthalpy_mass(mix, t_in))
        assert gain == pytest.approx(-g * (t_wall - cb.AMBIENT_TEMPERATURE), rel=1e-9)
        eps, capacity = cb._recuperator(geom, mix, mtot, t_in, t_wall)
        g_int = cb.INTERIOR_EFFECTIVENESS * mtot * gas.cp_mass(prod, t_exit)
        assert g_int * (t_exit - t_wall) == pytest.approx(
            g * (t_wall - cb.AMBIENT_TEMPERATURE) + capacity * eps * (t_wall - t_in), rel=1e-6)
        assert t_pre == pytest.approx(t_in + eps * (t_wall - t_in), rel=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        CombustorGeometry(annulus_inner_radius=9.0e-3)
    with pytest.raises(ValueError):
        CombustorGeometry(chamber_height=0.0)
    with pytest.raises(ValueError):
        CombustorOperatingPoint(0.15e-3, 1.2)
    with pytest.raises(ValueError):
        CombustorOperatingPoint(-1e-3, 0.5)
