from dataclasses import replace

import pytest

from microgt import cycle, gas
from microgt.cycle import CycleDesignPoint
from microgt.gas import AIR, ConstantCpGas, GasState

TEXTBOOK = ConstantCpGas(1005.0, 1.4)
AMBIENT = GasState(AIR, 300.0, 101325.0)
LHV = CycleDesignPoint().fuel_lhv


def test_compress_identity_at_unit_ratio():
    state, work = cycle.compress(AMBIENT, 1.0, 0.65, TEXTBOOK)
    assert state == AMBIENT
    assert work == 0.0


def test_compress_hand_oracle():
    # w = cp T0 (4^(0.4/1.4) - 1)/0.65 = 225.43 kJ/kg, exit T = 524.3 K
    state, work = cycle.compress(AMBIENT, 4.0, 0.65, TEXTBOOK)
    assert work == pytest.approx(225.43e3, rel=1e-3)
    assert state.temperature == pytest.approx(524.3, abs=0.5)
    assert state.pressure == pytest.approx(405300.0)
    assert 0.36e-3 * work == pytest.approx(81.1, abs=0.2)


def test_compress_rejects_bad_eta():
    with pytest.raises(ValueError):
        cycle.compress(AMBIENT, 4.0, 0.0)


def test_combust_no_fuel_is_pressure_drop_only():
    inlet = GasState(AIR, 522.0, 405300.0)
    out = cycle.combust(inlet, 0.36e-3, 0.0, 0.74, 0.92, LHV, 300.0)
    assert out.temperature == inlet.temperature
    assert out.pressure == pytest.approx(0.92 * 405300.0)
    assert dict(out.composition.mole_fractions) == dict(AIR.mole_fractions)


def test_combust_without_air():
    inlet = GasState(AIR, 522.0, 405300.0)
    with pytest.raises(ValueError, match="fuel >= 0 and air > 0"):
        cycle.combust(inlet, 0.0, 1e-6, 0.74, 0.92, LHV, 300.0)
    out = cycle.combust(inlet, 0.0, 0.0, 0.74, 0.92, LHV, 300.0)
    assert out.temperature == inlet.temperature
    assert out.pressure == 0.92 * 405300.0


def test_combust_constant_cp_closed_form():
    # eta = 1, fuel at inlet temperature: dT = mf LHV / ((ma+mf) cp)
    inlet = GasState(AIR, 500.0, 200000.0)
    ma, mf, lhv = 0.4e-3, 4.0e-6, 120.0e6
    out = cycle.combust(inlet, ma, mf, 1.0, 1.0, fuel_lhv=lhv,
                        fuel_temperature=500.0, props=TEXTBOOK)
    expected = 500.0 + mf * lhv / ((ma + mf) * 1005.0)
    assert out.temperature == pytest.approx(expected, rel=1e-8)


def test_combust_design_point_regression():
    # frozen from the independent single-equation enthalpy balance solved
    # with numerically integrated polynomial cp (trapezoid + brentq)
    inlet = GasState(AIR, 522.46, 405300.0)
    out = cycle.combust(inlet, 0.36e-3, 17.0 / 3600.0 * 1e-3, 0.74, 0.92, LHV,
                        fuel_temperature=300.0)
    assert out.temperature == pytest.approx(1409.7236, abs=0.05)
    assert 1350.0 <= out.temperature <= 1650.0


def test_combust_rejects_rich():
    inlet = GasState(AIR, 500.0, 200000.0)
    with pytest.raises(gas.RichMixtureError):
        cycle.combust(inlet, 1.0e-4, 1.0e-5, 0.74, 0.92, LHV, 300.0)


def test_expand_identity_at_equal_pressure():
    inlet = GasState(gas.burned_composition(0.5), 1400.0, 101325.0)
    state, work = cycle.expand(inlet, 101325.0, 0.75)
    assert state == inlet
    assert work == 0.0


def test_expand_hand_oracle_constant_cp():
    props = ConstantCpGas(1150.0, 1.33)
    inlet = GasState(gas.burned_composition(0.45), 1409.7, 372876.0)
    state, work = cycle.expand(inlet, 101325.0, 0.75, props)
    ratio = (101325.0 / 372876.0) ** (0.33 / 1.33)
    hand = 1150.0 * 1409.7 * (1.0 - ratio) * 0.75
    assert work == pytest.approx(hand, rel=0.05)
    power = (0.36e-3 + 4.7222e-6) * work
    assert power == pytest.approx((0.36e-3 + 4.7222e-6) * hand, rel=0.05)


def test_expand_isentropic_round_trip():
    inlet = GasState(gas.burned_composition(0.45), 1400.0, 405300.0)
    mid, _ = cycle.expand(inlet, 101325.0, 1.0)
    back, _ = cycle.compress(mid, 405300.0 / 101325.0, 1.0)
    assert back.temperature == pytest.approx(inlet.temperature, rel=1e-3)


def test_expand_rejects_pressure_rise():
    inlet = GasState(AIR, 500.0, 101325.0)
    with pytest.raises(ValueError):
        cycle.expand(inlet, 202650.0, 0.75)


def test_run_cycle_design_point_bracket():
    perf, stations = cycle.run_cycle(CycleDesignPoint())
    assert 30.0 <= perf.net_power <= 55.0
    assert [s.label for s in stations] == ["inlet", "compressor-exit",
                                           "combustor-exit", "turbine-exit"]


def test_run_cycle_mass_continuity():
    design = CycleDesignPoint()
    _, stations = cycle.run_cycle(design)
    assert stations[0].mass_flow == design.air_mass_flow
    assert stations[2].mass_flow == design.air_mass_flow + design.fuel_mass_flow
    assert stations[3].mass_flow == stations[2].mass_flow


def test_run_cycle_without_fuel_loses_power():
    perf, _ = cycle.run_cycle(replace(CycleDesignPoint(), fuel_mass_flow=0.0))
    assert perf.net_power < 0.0


def test_run_cycle_degenerate_is_exactly_zero():
    design = replace(CycleDesignPoint(), pressure_ratio=1.0,
                     fuel_mass_flow=0.0, sigma_combustor=1.0)
    perf, _ = cycle.run_cycle(design)
    assert perf.net_power == 0.0


def test_net_power_identity():
    design = replace(CycleDesignPoint(), eta_mechanical=0.9)
    perf, _ = cycle.run_cycle(design)
    assert perf.net_power == perf.turbine_power * 0.9 - perf.compressor_power


def test_energy_audit_combustor():
    design = CycleDesignPoint()
    _, stations = cycle.run_cycle(design)
    t2 = stations[1].state.temperature
    t3 = stations[2].state.temperature
    comp3 = stations[2].state.composition
    released = design.eta_combustor * design.fuel_mass_flow * design.fuel_lhv
    rise = (stations[2].mass_flow * gas.sensible_enthalpy_mass(comp3, t3)
            - design.air_mass_flow * gas.sensible_enthalpy_mass(AIR, t2)
            - design.fuel_mass_flow * gas.sensible_enthalpy_mass(gas.PURE_H2, 300.0))
    assert rise == pytest.approx(released, rel=1e-6)


def test_net_power_monotone_in_component_efficiencies():
    base = CycleDesignPoint()
    nets_t = [cycle.run_cycle(replace(base, eta_turbine=e))[0].net_power
              for e in (0.55, 0.65, 0.75, 0.85, 0.95)]
    assert all(b >= a for a, b in zip(nets_t, nets_t[1:]))
    # higher compressor efficiency = lower compressor work = more net power
    works, nets_c = [], []
    for e in (0.45, 0.55, 0.65, 0.75, 0.85):
        perf, _ = cycle.run_cycle(replace(base, eta_compressor=e))
        works.append(perf.compressor_power)
        nets_c.append(perf.net_power)
    assert all(b <= a for a, b in zip(works, works[1:]))
    assert all(b >= a for a, b in zip(nets_c, nets_c[1:]))


def test_irreversibility_temperature_ordering():
    # eta < 1 leaves the exit warmer than the isentropic end state
    state_real, _ = cycle.compress(AMBIENT, 4.0, 0.65)
    state_ideal, _ = cycle.compress(AMBIENT, 4.0, 1.0)
    assert state_real.temperature > state_ideal.temperature
    hot = GasState(gas.burned_composition(0.45), 1400.0, 405300.0)
    exit_real, _ = cycle.expand(hot, 101325.0, 0.75)
    exit_ideal, _ = cycle.expand(hot, 101325.0, 1.0)
    assert exit_real.temperature > exit_ideal.temperature


def test_fit_eta_mechanical_hits_target():
    design = CycleDesignPoint()
    eta = cycle.fit_eta_mechanical(design, 39.0)
    perf, _ = cycle.run_cycle(replace(design, eta_mechanical=eta))
    assert perf.net_power == pytest.approx(39.0, rel=1e-9)
    assert 0.0 < eta <= 1.0


@pytest.mark.parametrize("design, target, message", [
    # no pressure rise and no combustor loss: the turbine expands nothing
    (CycleDesignPoint(pressure_ratio=1.0, sigma_combustor=1.0), 39.0, "turbine power"),
    (CycleDesignPoint(), 1.0e3, "falls outside"),
], ids=["no-turbine-power", "target-out-of-reach"])
def test_fit_eta_mechanical_rejects_what_no_fraction_meets(design, target, message):
    with pytest.raises(ValueError, match=message):
        cycle.fit_eta_mechanical(design, target)


def test_design_point_validation():
    with pytest.raises(ValueError):
        CycleDesignPoint(eta_compressor=1.5)
    with pytest.raises(ValueError):
        CycleDesignPoint(pressure_ratio=0.5)
    with pytest.raises(ValueError):
        CycleDesignPoint(air_mass_flow=0.0)
