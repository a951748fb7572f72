"""Brayton-cycle station solver for the micro engine design point.

Chains compression, constant-pressure heat addition and expansion back to
ambient, with adiabatic component efficiencies, a combustor efficiency and
pressure-recovery coefficient, and an optional mechanical-loss knob on the
turbine shaft.  Works with either property model of microgt.gas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import gas
from .gas import AIR, GasState
from .params import Record, bracketed_root, param


@dataclass(frozen=True)
class CycleDesignPoint(Record):
    """Engine design parameters; defaults are the micro-engine targets."""

    ambient: GasState = GasState(AIR, 300.0, 101325.0)
    air_mass_flow: float = param("air_mass_flow_kg_s", 0.36e-3, "(0, inf)")
    pressure_ratio: float = param("pressure_ratio", 4.0, "[1, inf)")
    # 17 g/h of H2, to the eight digits the shipped config has always had
    fuel_mass_flow: float = param("fuel_mass_flow_kg_s", 4.7222222e-6, "[0, inf)")
    eta_compressor: float = param("eta_compressor", 0.65, "(0, 1]")
    eta_turbine: float = param("eta_turbine", 0.75, "(0, 1]")
    eta_combustor: float = param("eta_combustor", 0.74, "(0, 1]")
    sigma_combustor: float = param("sigma_combustor", 0.92, "(0, 1]")
    eta_mechanical: float = param("eta_mechanical", 1.0, "(0, 1]")
    fuel_lhv: float = param("fuel_lhv_j_per_kg", 120.0e6, "(0, inf)")  # J/kg


@dataclass(frozen=True)
class StationState:
    label: str
    state: GasState
    mass_flow: float  # kg/s


@dataclass(frozen=True)
class CyclePerformance:
    net_power: float  # W
    compressor_power: float  # W
    turbine_power: float  # W
    turbine_inlet_temperature: float  # K
    thermal_efficiency: float
    specific_fuel_consumption: float | None  # kg/J; None without net power


def _isentropic_temperature(t_in, p_ratio, composition, props):
    """Exit temperature of an isentropic pressure change by factor p_ratio.

    Uses T2s = T1 * ratio^((g-1)/g) with gamma iterated at the mean of the
    endpoint temperatures, which reduces exactly to the textbook relation in
    constant-cp mode.
    """
    t2s = t_in
    for _ in range(30):
        g = props.gamma(composition, 0.5 * (t_in + t2s))
        t_new = t_in * p_ratio ** ((g - 1.0) / g)
        if abs(t_new - t2s) < 1e-12 * t_in:
            t2s = t_new
            break
        t2s = t_new
    return t2s


def compress(inlet: GasState, pressure_ratio: float, eta_compressor: float,
             props=gas):
    """Adiabatic compression. Returns (exit GasState, specific work J/kg)."""
    if eta_compressor <= 0.0:
        raise ValueError(f"eta_compressor must be positive, got {eta_compressor}")
    if pressure_ratio < 1.0:
        raise ValueError(f"pressure_ratio must be >= 1, got {pressure_ratio}")
    if pressure_ratio == 1.0:
        return inlet, 0.0
    t2s = _isentropic_temperature(inlet.temperature, pressure_ratio,
                                  inlet.composition, props)
    t2 = inlet.temperature + (t2s - inlet.temperature) / eta_compressor
    work = (props.sensible_enthalpy_mass(inlet.composition, t2)
            - props.sensible_enthalpy_mass(inlet.composition, inlet.temperature))
    exit_state = GasState(inlet.composition, t2, inlet.pressure * pressure_ratio)
    return exit_state, work


def expand(inlet: GasState, exit_pressure: float, eta_turbine: float,
           props=gas):
    """Adiabatic expansion to exit_pressure. Returns (exit GasState, work J/kg)."""
    if eta_turbine <= 0.0:
        raise ValueError(f"eta_turbine must be positive, got {eta_turbine}")
    if exit_pressure > inlet.pressure:
        raise ValueError(
            f"exit pressure {exit_pressure} exceeds inlet pressure {inlet.pressure}"
        )
    if exit_pressure == inlet.pressure:
        return inlet, 0.0
    t4s = _isentropic_temperature(inlet.temperature, exit_pressure / inlet.pressure,
                                  inlet.composition, props)
    t4 = inlet.temperature - eta_turbine * (inlet.temperature - t4s)
    work = (props.sensible_enthalpy_mass(inlet.composition, inlet.temperature)
            - props.sensible_enthalpy_mass(inlet.composition, t4))
    exit_state = GasState(inlet.composition, t4, exit_pressure)
    return exit_state, work


def combust(inlet: GasState, air_mass_flow: float, fuel_mass_flow: float,
            eta_combustor: float, sigma_combustor: float,
            fuel_lhv: float, fuel_temperature: float, props=gas):
    """Constant-pressure (times sigma) heat addition by complete H2 combustion.

    The exit temperature solves the steady energy balance

        mdot_out * h(T_exit) = mdot_a * h_air(T_in) + mdot_f * h_H2(T_fuel)
                               + eta_b * mdot_f * LHV

    on sensible enthalpies, by a bracketed root solve on [250 K, 3000 K].
    Fuel enters at fuel_temperature, fully premixed.  Without fuel the inlet
    state passes through at the exit pressure; fuel without air raises
    ValueError.
    """
    p_exit = inlet.pressure * sigma_combustor
    if fuel_mass_flow == 0.0:
        return GasState(inlet.composition, inlet.temperature, p_exit)

    phi = gas.equivalence_ratio(fuel_mass_flow, air_mass_flow)
    products = gas.burned_composition(phi)  # RichMixtureError above phi = 1
    mdot_out = air_mass_flow + fuel_mass_flow
    h_in_flux = (air_mass_flow * props.sensible_enthalpy_mass(inlet.composition, inlet.temperature)
                 + fuel_mass_flow * props.sensible_enthalpy_mass(gas.PURE_H2, fuel_temperature)
                 + eta_combustor * fuel_mass_flow * fuel_lhv)
    target = h_in_flux / mdot_out

    def residual(t):
        return props.sensible_enthalpy_mass(products, t) - target

    t_exit = bracketed_root(residual, gas.T_MIN, 3000.0,
                            "combustor exit temperature")
    return GasState(products, t_exit, p_exit)


def run_cycle(design: CycleDesignPoint, props=gas):
    """Run inlet -> compressor -> combustor -> turbine back to ambient pressure.

    Returns (CyclePerformance, list of StationState).
    """
    ambient = design.ambient
    station_inlet = StationState("inlet", ambient, design.air_mass_flow)

    comp_exit, w_comp = compress(ambient, design.pressure_ratio,
                                 design.eta_compressor, props)
    station_comp = StationState("compressor-exit", comp_exit, design.air_mass_flow)

    comb_exit = combust(comp_exit, design.air_mass_flow, design.fuel_mass_flow,
                        design.eta_combustor, design.sigma_combustor,
                        fuel_lhv=design.fuel_lhv,
                        fuel_temperature=ambient.temperature, props=props)
    mdot_hot = design.air_mass_flow + design.fuel_mass_flow
    station_comb = StationState("combustor-exit", comb_exit, mdot_hot)

    turb_exit, w_turb = expand(comb_exit, ambient.pressure, design.eta_turbine, props)
    station_turb = StationState("turbine-exit", turb_exit, mdot_hot)

    compressor_power = design.air_mass_flow * w_comp
    turbine_power = mdot_hot * w_turb
    net_power = turbine_power * design.eta_mechanical - compressor_power
    fuel_power = design.fuel_mass_flow * design.fuel_lhv
    thermal_efficiency = net_power / fuel_power if fuel_power > 0.0 else 0.0
    sfc = design.fuel_mass_flow / net_power if net_power > 0.0 else None

    performance = CyclePerformance(
        net_power=net_power,
        compressor_power=compressor_power,
        turbine_power=turbine_power,
        turbine_inlet_temperature=comb_exit.temperature,
        thermal_efficiency=thermal_efficiency,
        specific_fuel_consumption=sfc,
    )
    stations = [station_inlet, station_comp, station_comb, station_turb]
    return performance, stations


def fit_eta_mechanical(design: CycleDesignPoint, target_net_power: float) -> float:
    """Mechanical-loss fraction that makes the cycle hit target_net_power.

    Net power is linear in eta_mechanical, so the fit is closed-form:
    eta = (target + P_comp) / P_turb.
    """
    perf, _ = run_cycle(replace(design, eta_mechanical=1.0))
    if perf.turbine_power <= 0.0:
        raise ValueError("turbine power is non-positive; cannot calibrate")
    eta = (target_net_power + perf.compressor_power) / perf.turbine_power
    if not 0.0 < eta <= 1.0:
        raise ValueError(
            f"required eta_mechanical {eta:.3f} falls outside (0, 1]"
        )
    return eta
