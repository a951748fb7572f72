"""Reduced-order model of the annular micro combustor.

The chamber is treated as a well-stirred reactor wrapped by a recuperative
recirculation channel.  One lumped wall node couples three heat paths:

  * jet-mixing contact between burned gas and the wall,
    Q_int = kappa * mdot * cp * (T_exit - T_wall);
  * recuperative preheat of the incoming mixture in a flat channel,
    effectiveness from NTU with a constant laminar Nusselt number;
  * exterior loss to ambient through a lumped conductance G,
    Q_loss = G * (T_wall - T_ambient).

Blow-out is classified by a Damkohler number: residence time of the chamber
at the flame temperature over an Arrhenius chemical time referenced to the
preheated-mixture temperature.  The chemical-time constants and the wall
conductance are calibration parameters; the shipped defaults were frozen
from the grid-search procedure in tests/calibration_fixture.py.

No dissociation, no spatial resolution, ideal-gas mixtures throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gas
from .params import Record, SolverError, bracketed_root, param

# Transport surrogate: power-law viscosity with constant Prandtl number.
PRANDTL = 0.70
VISCOSITY_EXPONENT = 0.7
NU_CHANNEL = 7.54  # laminar parallel-plate value, used for the recuperator
INTERIOR_EFFECTIVENESS = 0.90  # fraction of capacity flux equilibrating with the wall
AMBIENT_TEMPERATURE = 300.0  # K, heat-loss sink
T_PRODUCTS_MAX = 3400.0  # K, upper end of every products-temperature root

# Scan grid used to locate the lean-blowout mass flow, kg/s.
BLOWOUT_SCAN_FLOWS = tuple(0.01e-3 + 0.0025e-3 * i for i in range(77))


@dataclass(frozen=True)
class CombustorGeometry(Record):
    """Annular chamber plus hairpin recirculation channel dimensions.

    The annulus radii, channel dimensions and the lumped wall conductance are
    not reported for the hardware; the defaults are toolkit assumptions sized
    to fit the 21.5 mm die and are overridable in the scenario config.
    """

    chamber_height: float = param("chamber_height_m", 1.2e-3, "(0, inf)")
    annulus_outer_radius: float = param("annulus_outer_radius_m", 8.0e-3, "(0, inf)")
    annulus_inner_radius: float = param("annulus_inner_radius_m", 5.0e-3, "(0, inf)")
    # unfolded hairpin length
    recirculation_channel_length: float = param(
        "recirculation_channel_length_m", 0.05, "[0, inf)")
    recirculation_hydraulic_diameter: float = param(
        "recirculation_hydraulic_diameter_m", 0.8e-3, "(0, inf)")
    # flat-channel span
    recirculation_channel_width: float = param(
        "recirculation_channel_width_m", 15.0e-3, "(0, inf)")
    # lumped exterior loss, W/K
    wall_thermal_conductance: float = param("wall_conductance_w_per_k", 0.56, "[0, inf)")

    def __post_init__(self):
        super().__post_init__()
        if not self.annulus_outer_radius > self.annulus_inner_radius:
            raise ValueError("annulus_outer_radius_m must exceed annulus_inner_radius_m")

    @property
    def chamber_volume(self) -> float:
        """Annular chamber volume, m^3."""
        return math.pi * (self.annulus_outer_radius ** 2
                          - self.annulus_inner_radius ** 2) * self.chamber_height


@dataclass(frozen=True)
class CombustorOperatingPoint(Record):
    air_mass_flow: float = param("air_mass_flow_kg_s", 0.15e-3, "(0, inf)")
    equivalence_ratio: float = param("equivalence_ratio", 0.8, "[0, 1]")
    inlet_temperature: float = param("inlet_temperature_k", 300.0, "(0, inf)")
    inlet_pressure: float = param("inlet_pressure_pa", 101325.0, "(0, inf)")

    @property
    def fuel_mass_flow(self) -> float:
        return self.air_mass_flow * gas.fuel_air_mass_ratio(self.equivalence_ratio)

    @property
    def total_mass_flow(self) -> float:
        return self.air_mass_flow + self.fuel_mass_flow


@dataclass(frozen=True)
class ChemicalTimeModel(Record):
    """Arrhenius chemical-time correlation constants.

    The defaults are the frozen calibration of tests/calibration_fixture.py.
    """

    prefactor: float = param("chem_prefactor_s", 4.8290e-10, "(0, inf)")
    activation_energy: float = param("chem_activation_j_per_mol", 45.0e3, "(0, inf)")
    phi_exponent: float = param("chem_phi_exponent", 1.0, "(0, inf)")
    pressure_exponent: float = param("chem_pressure_exponent", 1.0, "[0, inf)")
    da_critical: float = param("damkohler_critical", 1.0, "(0, inf)")


DEFAULT_CHEMISTRY = ChemicalTimeModel()


@dataclass(frozen=True)
class StabilityResult:
    residence_time: float  # s
    chemical_time: float | None  # s; None for a fuel-free stream
    damkohler: float
    stable: bool
    exit_temperature: float  # K
    wall_temperature: float  # K


def viscosity(t: float) -> float:
    """Power-law gas viscosity, Pa s."""
    return gas.AIR_VISCOSITY * (t / 300.0) ** VISCOSITY_EXPONENT


def _products_temperature(products, target: float, what: str) -> float:
    """Temperature at which the products' total enthalpy is target (J/kg),
    bracketed by [gas.T_MIN, T_PRODUCTS_MAX]; SolverError names `what`."""
    return bracketed_root(lambda t: gas.enthalpy_mass(products, t) - target,
                          gas.T_MIN, T_PRODUCTS_MAX, what)


def adiabatic_flame_temperature(phi: float, inlet_temperature: float) -> float:
    """Complete-combustion flame temperature of a premixed H2-air stream.

    Solves h(products, T) = h(mixture, T_in) on total enthalpies, with the
    root bracketed by [gas.T_MIN, T_PRODUCTS_MAX].
    Without dissociation the result runs above equilibrium values near
    stoichiometric (by roughly 100 K at phi = 1).
    """
    mixture = gas.unburned_mixture(phi)  # ValueError below phi = 0
    products = gas.burned_composition(phi)  # RichMixtureError above 1
    if phi == 0.0:
        return inlet_temperature
    return _products_temperature(products, gas.enthalpy_mass(mixture, inlet_temperature),
                                 "adiabatic flame temperature")


def _recuperator(geometry: CombustorGeometry, mixture, mdot: float,
                 t_in: float, t_wall: float):
    """Effectiveness eps = 1 - exp(-NTU) of the mixture stream against an
    isothermal wall, and its capacity rate mdot cp (W/K), with cp and the
    film conductivity at the film temperature (t_in + t_wall) / 2."""
    # Flat channel of width W and gap D_h/2: NTU = Nu k W L / (b mdot cp).
    t_film = 0.5 * (t_wall + t_in)
    cp_mix = gas.cp_mass(mixture, t_film)
    k_film = cp_mix * viscosity(t_film) / PRANDTL
    gap = 0.5 * geometry.recirculation_hydraulic_diameter
    area_term = geometry.recirculation_channel_width * geometry.recirculation_channel_length
    ntu = NU_CHANNEL * k_film * area_term / (gap * mdot * cp_mix)
    return 1.0 - math.exp(-ntu), mdot * cp_mix


def recuperator_preheat(geometry: CombustorGeometry, op: CombustorOperatingPoint,
                        wall_temperature: float):
    """Preheated mixture temperature and the heat drawn from the wall.

    Returns (T_preheat K, heat W); see _recuperator.  The wall may sit below
    a hot inlet, as the burning walls of _solve_thermal do, in which case the
    mixture is cooled; it may not sit below both the inlet and the sink.
    """
    t_in = op.inlet_temperature
    floor = min(t_in, AMBIENT_TEMPERATURE)
    if wall_temperature < floor:
        raise ValueError(f"wall temperature {wall_temperature:.2f} K is below "
                         f"min(inlet, ambient) = {floor:.2f} K")
    eps, capacity = _recuperator(geometry, gas.unburned_mixture(op.equivalence_ratio),
                                 op.total_mass_flow, t_in, wall_temperature)
    t_pre = t_in + eps * (wall_temperature - t_in)
    return t_pre, capacity * (t_pre - t_in)


def residence_time(geometry: CombustorGeometry, op: CombustorOperatingPoint,
                   flame_temperature: float) -> float:
    """Chamber volume over the volumetric throughput at flame conditions."""
    if flame_temperature <= 0.0:
        raise ValueError("flame_temperature must be positive")
    products = gas.burned_composition(op.equivalence_ratio)
    rho = (op.inlet_pressure * products.molar_mass
           / (gas.R_UNIVERSAL * flame_temperature))
    return geometry.chamber_volume * rho / op.total_mass_flow


def chemical_time(phi: float, pressure: float, preheat_temperature: float,
                  chemistry: ChemicalTimeModel = DEFAULT_CHEMISTRY) -> float:
    """Arrhenius chemical time A exp(Ea/RT) / (phi^n (p/p0)^m), seconds.

    phi = 0 returns math.inf: a fuel-free stream can never hold a flame.
    """
    if phi == 0.0:
        return math.inf
    if phi < 0.0:
        raise ValueError(f"phi must be non-negative, got {phi}")
    arrhenius = math.exp(chemistry.activation_energy
                         / (gas.R_UNIVERSAL * preheat_temperature))
    scale = phi ** chemistry.phi_exponent * (pressure / 101325.0) ** chemistry.pressure_exponent
    return chemistry.prefactor * arrhenius / scale


def _solve_thermal(geometry: CombustorGeometry, op: CombustorOperatingPoint):
    """Coupled exit/wall temperatures assuming a burning chamber.

    Gas balance:   mdot [h_tot(products, T_exit) - h_tot(mixture, T_in)]
                   = -G (T_wall - T_amb)
    Wall balance:  kappa mdot cp_prod (T_exit - T_wall)
                   = G (T_wall - T_amb) + mdot cp_mix eps (T_wall - T_in)

    Returns (T_exit, T_wall, T_preheat).  The recuperator term is internal
    heat recirculation and cancels from the gas balance.
    """
    phi = op.equivalence_ratio
    mdot = op.total_mass_flow
    mixture = gas.unburned_mixture(phi)
    products = gas.burned_composition(phi)
    h_in = gas.enthalpy_mass(mixture, op.inlet_temperature)
    g_loss = geometry.wall_thermal_conductance
    t_in = op.inlet_temperature

    def exit_target(t_w):
        return h_in - g_loss * (t_w - AMBIENT_TEMPERATURE) / mdot

    def wall_update(t_w):
        t_e = _products_temperature(products, exit_target(t_w), "combustor exit temperature")
        eps, capacity = _recuperator(geometry, mixture, mdot, t_in, t_w)
        g_int = INTERIOR_EFFECTIVENESS * mdot * gas.cp_mass(products, t_e)
        k_rec = capacity * eps
        return ((g_int * t_e + g_loss * AMBIENT_TEMPERATURE + k_rec * t_in)
                / (g_int + g_loss + k_rec)), t_e, eps

    # A wall at a hot inlet's temperature can lose more than the flame releases,
    # leaving no exit temperature on the tables; such a chamber still burns,
    # with a wall below the inlet, so its iteration starts at the sink.
    t_w = max(t_in, AMBIENT_TEMPERATURE)
    if t_in > AMBIENT_TEMPERATURE and exit_target(t_in) < gas.enthalpy_mass(products, gas.T_MIN):
        t_w = AMBIENT_TEMPERATURE
    for _ in range(400):
        t_w_new, t_e, eps = wall_update(t_w)
        if abs(t_w_new - t_w) < 1e-9 * max(t_w, 1.0):
            t_w = t_w_new
            break
        t_w = 0.5 * (t_w + t_w_new)
    else:
        raise SolverError(
            f"wall balance did not converge (last wall update {t_w_new - t_w:.3e} K)"
        )
    _, t_e, eps = wall_update(t_w)
    t_pre = t_in + eps * (t_w - t_in)
    return t_e, t_w, t_pre


def stability(geometry: CombustorGeometry, op: CombustorOperatingPoint,
              chemistry: ChemicalTimeModel = DEFAULT_CHEMISTRY) -> StabilityResult:
    """Blow-out classification of one operating point.

    Evaluates the burning-chamber thermal state, the recuperator preheat, the
    flame temperature, and the residence and chemical times; the point is
    stable when Da = residence/chemical >= da_critical.  Unstable points
    report the non-reacting mixed temperature (inlet mixture temperature)
    and an ambient wall; a fuel-free point has no chemical time and Da = 0.
    """
    phi = op.equivalence_ratio
    if phi == 0.0:
        return StabilityResult(
            residence_time=residence_time(geometry, op, op.inlet_temperature),
            chemical_time=None, damkohler=0.0, stable=False,
            exit_temperature=op.inlet_temperature, wall_temperature=AMBIENT_TEMPERATURE,
        )
    t_exit, t_wall, t_pre = _solve_thermal(geometry, op)
    t_flame = adiabatic_flame_temperature(phi, t_pre)
    tau_res = residence_time(geometry, op, t_flame)
    tau_chem = chemical_time(phi, op.inlet_pressure, t_pre, chemistry)
    da = tau_res / tau_chem
    stable = da >= chemistry.da_critical
    if stable:
        return StabilityResult(tau_res, tau_chem, da, True, t_exit, t_wall)
    return StabilityResult(tau_res, tau_chem, da, False,
                           op.inlet_temperature, AMBIENT_TEMPERATURE)


def blowout_mass_flow(geometry: CombustorGeometry, phi: float,
                      chemistry: ChemicalTimeModel = DEFAULT_CHEMISTRY):
    """Smallest stable air mass flow on the scan grid, kg/s (None if all blow out)."""
    for mdot in BLOWOUT_SCAN_FLOWS:
        op = CombustorOperatingPoint(mdot, phi)
        if stability(geometry, op, chemistry).stable:
            return mdot
    return None
