"""Thermodynamic properties of air, hydrogen and lean H2-air combustion products.

Molar heat capacities come from embedded seven-coefficient polynomial fits
(GRI-Mech 3.0 thermodynamic data compilation), two coefficient sets per
species with a changeover at 1000 K.  Sensible enthalpy is the analytic
integral of cp, referenced to 298.15 K; formation enthalpy is carried
separately so that elements in their reference state contribute zero.

Two property models share one call signature, cp_mass, sensible_enthalpy_mass
and gamma of (composition, t):

  this module     temperature-dependent cp from the embedded tables (default)
  ConstantCpGas   user-fixed cp and gamma, for textbook constant-property runs

A GasComposition holds flat per-species coefficient tables, one per fit
range, built once with the composition.  A property call makes one range
check and one loop over the species, so its result depends on the
composition's species order; tests/test_gas.py pins it bit for bit to the
per-species SpeciesThermo sums in that order.  unburned_mixture and
burned_composition build a new composition on each call; the combustor
holds the pair of its last phi.

All functions are pure and all value types are immutable, so they are safe
to call concurrently.  Ideal-gas behaviour is assumed throughout; see
docs/property_data.md for the coefficient listing and validity ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .params import Record, param

R_UNIVERSAL = 8.314462618  # J/(mol K)
T_REFERENCE = 298.15  # K, sensible-enthalpy datum
AIR_VISCOSITY = 1.85e-5  # Pa s at 300 K

# Dry air by mole, water vapour ignored.
AIR_MOLE_FRACTIONS = {"N2": 0.7808, "O2": 0.2095, "Ar": 0.0097}


class UnknownSpeciesError(KeyError):
    """Species identifier not present in the embedded property table."""


class TemperatureRangeError(ValueError):
    """Temperature outside the declared validity range of a species fit."""


class RichMixtureError(ValueError):
    """Equivalence ratio above 1; the complete-combustion model is lean-only."""


# GRI-Mech 3.0 seven-coefficient fits (a1..a5 of the cp polynomial).  The
# nominal low-range floor is extended to 250 K; the fits remain smooth and
# positive there.  High ranges are capped at 3500 K for uniformity.
T_MIN = 250.0  # K, floor of the tables and lower end of every temperature bracket
T_JOINT = 1000.0  # K, changeover from the low to the high fit
T_MAX = 3500.0  # K, ceiling of the tables


def _range_error(t: float, name: str) -> TemperatureRangeError:
    return TemperatureRangeError(
        f"T = {t:.2f} K outside the [{T_MIN:.0f}, {T_MAX:.0f}] K validity range of species '{name}'"
    )


def _integral(coeffs, t):
    # indefinite integral of cp/R from the integral coefficients
    # (a1, a2/2, a3/3, a4/4, a5) of one range
    a1, b2, b3, b4, a5 = coeffs
    return t * (a1 + t * (b2 + t * (b3 + t * (b4 + t * a5 / 5))))


@dataclass(frozen=True)
class SpeciesThermo:
    """Polynomial cp fit and formation data for one species.

    low holds the coefficients (a1..a5) on [T_MIN, T_JOINT], high those on
    (T_JOINT, T_MAX]; cp/R = a1 + a2*T + a3*T^2 + a4*T^3 + a5*T^4.
    h_formation is the standard enthalpy of formation at 298.15 K in J/mol.
    """

    name: str
    molar_mass: float  # kg/mol
    low: tuple[float, ...]
    high: tuple[float, ...]
    h_formation: float  # J/mol
    # per range, low then high: the coefficients of the integral of cp/R and
    # the constant of the sensible enthalpy
    _integrals: tuple = field(init=False, compare=False, repr=False)
    _h_offsets: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        integrals = tuple((a1, a2 / 2, a3 / 3, a4 / 4, a5)
                          for a1, a2, a3, a4, a5 in (self.low, self.high))
        # Integration constants making the sensible enthalpy zero at
        # T_REFERENCE, in the low range, and continuous across the joint.
        low, high = integrals
        ref = _integral(low, T_REFERENCE)
        offsets = (-ref, _integral(low, T_JOINT) - _integral(high, T_JOINT) - ref)
        object.__setattr__(self, "_integrals", integrals)
        object.__setattr__(self, "_h_offsets", offsets)

    def _range_index(self, t: float) -> int:
        if T_MIN <= t <= T_MAX:  # False for nan
            return 0 if t <= T_JOINT else 1
        raise _range_error(t, self.name)

    def cp_molar(self, t: float) -> float:
        """Molar heat capacity, J/(mol K)."""
        a1, a2, a3, a4, a5 = self.high if self._range_index(t) else self.low
        return R_UNIVERSAL * (a1 + t * (a2 + t * (a3 + t * (a4 + t * a5))))

    def sensible_enthalpy_molar(self, t: float) -> float:
        """Sensible enthalpy relative to 298.15 K, J/mol."""
        idx = self._range_index(t)
        return R_UNIVERSAL * (_integral(self._integrals[idx], t) + self._h_offsets[idx])


SPECIES: Mapping[str, SpeciesThermo] = MappingProxyType({
    "N2": SpeciesThermo(
        name="N2",
        molar_mass=28.0134e-3,
        low=(3.298677e+00, 1.4082404e-03, -3.963222e-06, 5.641515e-09, -2.444854e-12),
        high=(2.92664e+00, 1.4879768e-03, -5.68476e-07, 1.0097038e-10, -6.753351e-15),
        h_formation=0.0,
    ),
    "O2": SpeciesThermo(
        name="O2",
        molar_mass=31.9988e-3,
        low=(3.78245636e+00, -2.99673416e-03, 9.84730201e-06, -9.68129509e-09, 3.24372837e-12),
        high=(3.28253784e+00, 1.48308754e-03, -7.57966669e-07, 2.09470555e-10, -2.16717794e-14),
        h_formation=0.0,
    ),
    "Ar": SpeciesThermo(
        name="Ar",
        molar_mass=39.948e-3,
        low=(2.5, 0.0, 0.0, 0.0, 0.0),
        high=(2.5, 0.0, 0.0, 0.0, 0.0),
        h_formation=0.0,
    ),
    "H2": SpeciesThermo(
        name="H2",
        molar_mass=2.01588e-3,
        low=(2.34433112e+00, 7.98052075e-03, -1.94781510e-05, 2.01572094e-08, -7.37611761e-12),
        high=(3.33727920e+00, -4.94024731e-05, 4.99456778e-07, -1.79566394e-10, 2.00255376e-14),
        h_formation=0.0,
    ),
    "H2O": SpeciesThermo(
        name="H2O",
        molar_mass=18.01528e-3,
        low=(4.19864056e+00, -2.03643410e-03, 6.52040211e-06, -5.48797062e-09, 1.77197817e-12),
        high=(3.03399249e+00, 2.17691804e-03, -1.64072518e-07, -9.70419870e-11, 1.68200992e-14),
        h_formation=-241.826e3,  # J/mol, H2O vapour
    ),
})


def species(name: str) -> SpeciesThermo:
    try:
        return SPECIES[name]
    except KeyError:
        raise UnknownSpeciesError(f"unknown species '{name}'; table holds {sorted(SPECIES)}") from None


@dataclass(frozen=True)
class GasComposition:
    """Mole fractions of a gas mixture; fractions must sum to 1 within 1e-9.

    Building one looks up each species once and computes the two constants
    of the mixture: the mole-fraction weighted molar mass (kg/mol) and the
    standard formation enthalpy (J/kg).  It also lays out, for each fit
    range (low, high), one flat tuple per species in mole-fraction order:
    cp_terms hold (x, a1, a2, a3, a4, a5), enthalpy_terms hold
    (x, a1, a2/2, a3/3, a4/4, a5, offset).  None of these take part in
    equality or repr.
    """

    mole_fractions: Mapping[str, float]
    cp_terms: tuple = field(init=False, compare=False, repr=False)
    enthalpy_terms: tuple = field(init=False, compare=False, repr=False)
    molar_mass: float = field(init=False, compare=False, repr=False)  # kg/mol
    formation_enthalpy: float = field(init=False, compare=False, repr=False)  # J/kg

    def __post_init__(self):
        fracs = dict(self.mole_fractions)
        for name, x in fracs.items():
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"mole fraction of '{name}' is {x}, outside [0, 1]")
        total = sum(fracs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mole fractions sum to {total!r}, expected 1 within 1e-9")
        pairs = tuple((x, species(name)) for name, x in fracs.items())
        molar_mass = sum(x * sp.molar_mass for x, sp in pairs)
        object.__setattr__(self, "mole_fractions", MappingProxyType(fracs))
        object.__setattr__(self, "cp_terms", (tuple([(x, *sp.low) for x, sp in pairs]),
                                              tuple([(x, *sp.high) for x, sp in pairs])))
        object.__setattr__(self, "enthalpy_terms", tuple([
            tuple([(x, *sp._integrals[idx], sp._h_offsets[idx]) for x, sp in pairs])
            for idx in (0, 1)]))
        object.__setattr__(self, "molar_mass", molar_mass)
        object.__setattr__(self, "formation_enthalpy",
                           sum(x * sp.h_formation for x, sp in pairs) / molar_mass)


AIR = GasComposition(AIR_MOLE_FRACTIONS)
PURE_H2 = GasComposition({"H2": 1.0})


@dataclass(frozen=True)
class GasState(Record):
    """Composition plus static temperature (K) and pressure (Pa)."""

    composition: GasComposition
    temperature: float = param(None, bound="(0, inf)")  # K
    pressure: float = param(None, bound="(0, inf)")  # Pa


def specific_gas_constant(composition: GasComposition) -> float:
    """R / mixture molar mass, J/(kg K)."""
    return R_UNIVERSAL / composition.molar_mass


def density(state: GasState) -> float:
    """Ideal-gas density, kg/m^3."""
    return state.pressure / (specific_gas_constant(state.composition) * state.temperature)


def cp_molar(composition: GasComposition, t: float) -> float:
    """Mole-fraction weighted molar cp, J/(mol K)."""
    if not T_MIN <= t <= T_MAX:  # True for nan
        raise _range_error(t, next(iter(composition.mole_fractions)))
    # SpeciesThermo.cp_molar's operations, summed from 0 in species order,
    # so the result equals the per-species sum bit for bit
    cp = 0
    low, high = composition.cp_terms
    for x, a1, a2, a3, a4, a5 in (high if t > T_JOINT else low):
        cp += x * (R_UNIVERSAL * (a1 + t * (a2 + t * (a3 + t * (a4 + t * a5)))))
    return cp


def cp_mass(composition: GasComposition, t: float) -> float:
    """Mixture heat capacity on a mass basis, J/(kg K)."""
    return cp_molar(composition, t) / composition.molar_mass


def sensible_enthalpy_mass(composition: GasComposition, t: float) -> float:
    """Sensible enthalpy relative to 298.15 K, J/kg."""
    if not T_MIN <= t <= T_MAX:  # True for nan
        raise _range_error(t, next(iter(composition.mole_fractions)))
    # as in cp_molar, with SpeciesThermo.sensible_enthalpy_molar's operations
    h = 0
    low, high = composition.enthalpy_terms
    for x, a1, b2, b3, b4, a5, offset in (high if t > T_JOINT else low):
        h += x * (R_UNIVERSAL * (t * (a1 + t * (b2 + t * (b3 + t * (b4 + t * a5 / 5))))
                                 + offset))
    return h / composition.molar_mass


def enthalpy_mass(composition: GasComposition, t: float) -> float:
    """Total enthalpy: sensible part relative to 298.15 K plus formation, J/kg."""
    return sensible_enthalpy_mass(composition, t) + composition.formation_enthalpy


def gamma(composition: GasComposition, t: float) -> float:
    """Ratio of specific heats cp / (cp - R_specific)."""
    cp = cp_mass(composition, t)
    return cp / (cp - specific_gas_constant(composition))


def burned_composition(phi: float) -> GasComposition:
    """Products of complete combustion of H2 in dry air at equivalence ratio phi.

    Lean or stoichiometric only (0 <= phi <= 1): all fuel burns to H2O,
    O2 is depleted in proportion, N2 and Ar pass through inert.
    """
    if phi < 0.0:
        raise ValueError(f"equivalence ratio must be non-negative, got {phi}")
    if phi > 1.0:
        raise RichMixtureError(
            f"phi = {phi} is rich; complete-combustion products are undefined above 1"
        )
    x_o2 = AIR_MOLE_FRACTIONS["O2"]
    # Per mole of air: 2*phi*x_o2 moles H2 burn, consuming phi*x_o2 moles O2
    # and forming 2*phi*x_o2 moles H2O.
    n = {
        "N2": AIR_MOLE_FRACTIONS["N2"],
        "O2": x_o2 * (1.0 - phi),
        "Ar": AIR_MOLE_FRACTIONS["Ar"],
        "H2O": 2.0 * phi * x_o2,
    }
    total = sum(n.values())
    return GasComposition({name: v / total for name, v in n.items()})


def fuel_air_mass_ratio(phi: float) -> float:
    """Fuel/air mass ratio of an H2-air mixture at equivalence ratio phi."""
    x_o2 = AIR_MOLE_FRACTIONS["O2"]
    return 2.0 * phi * x_o2 * species("H2").molar_mass / AIR.molar_mass


def equivalence_ratio(fuel_mass_flow: float, air_mass_flow: float) -> float:
    """Actual fuel/air mass ratio over the stoichiometric one."""
    if fuel_mass_flow < 0.0 or air_mass_flow <= 0.0:
        raise ValueError("flows must satisfy fuel >= 0 and air > 0")
    return (fuel_mass_flow / air_mass_flow) / fuel_air_mass_ratio(1.0)


def unburned_mixture(phi: float) -> GasComposition:
    """Premixed H2-air composition at equivalence ratio phi (before reaction)."""
    if phi < 0.0:
        raise ValueError(f"equivalence ratio must be non-negative, got {phi}")
    x_o2 = AIR_MOLE_FRACTIONS["O2"]
    n_h2 = 2.0 * phi * x_o2
    total = 1.0 + n_h2
    fracs = {name: x / total for name, x in AIR_MOLE_FRACTIONS.items()}
    fracs["H2"] = n_h2 / total
    return GasComposition(fracs)


@dataclass(frozen=True)
class ConstantCpGas(Record):
    """Constant-property model: user-fixed cp (J/kg K) and gamma.

    The implied gas constant is cp * (gamma - 1) / gamma, so isentropic
    relations and enthalpy differences reduce to the textbook closed forms.
    Composition arguments are accepted for interface compatibility but do
    not affect the result.
    """

    cp: float = param("constant_cp_j_per_kg_k", 1005.0, "(0, inf)")
    gamma_value: float = param("constant_gamma", 1.4, "(1, 5/3]")

    def cp_mass(self, composition, t):
        return self.cp

    def sensible_enthalpy_mass(self, composition, t):
        return self.cp * (t - T_REFERENCE)

    def gamma(self, composition, t):
        return self.gamma_value
