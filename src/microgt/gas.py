"""Thermodynamic properties of air, hydrogen and lean H2-air combustion products.

Molar heat capacities come from embedded seven-coefficient polynomial fits
(GRI-Mech 3.0 thermodynamic data compilation), two coefficient sets per
species with a changeover at 1000 K.  Sensible enthalpy is the analytic
integral of cp, referenced to 298.15 K; formation enthalpy is carried
separately so that elements in their reference state contribute zero.

Two property models share one call signature:

  PolynomialGas   temperature-dependent cp from the embedded tables (default)
  ConstantCpGas   user-fixed cp and gamma, for textbook constant-property runs

All functions are pure and all value types are immutable, so they are safe
to call concurrently.  Ideal-gas behaviour is assumed throughout; see
docs/property_data.md for the coefficient listing and validity ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .params import check, param

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


@dataclass(frozen=True)
class SpeciesThermo:
    """Polynomial cp fit and formation data for one species.

    cp_coeffs holds a (t_min, t_max, (a1..a5)) tuple for each of the two
    validity ranges, low then high, meeting at a joint that takes the low
    fit; cp/R = a1 + a2*T + a3*T^2 + a4*T^3 + a5*T^4 on each range.
    h_formation is the standard enthalpy of formation at 298.15 K in J/mol.
    """

    name: str
    molar_mass: float  # kg/mol
    cp_coeffs: tuple[tuple[float, float, tuple[float, ...]], ...]
    h_formation: float  # J/mol
    _h_offsets: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        # Integration constants making the sensible enthalpy zero at
        # T_REFERENCE, in the low range, and continuous across the joint.
        (_, joint, low), (_, _, high) = self.cp_coeffs
        ref = self._cp_integral(low, T_REFERENCE)
        offsets = (-ref, self._cp_integral(low, joint) - self._cp_integral(high, joint) - ref)
        object.__setattr__(self, "_h_offsets", offsets)

    @staticmethod
    def _cp_integral(coeffs, t):
        # indefinite integral of cp/R
        a1, a2, a3, a4, a5 = coeffs
        return t * (a1 + t * (a2 / 2 + t * (a3 / 3 + t * (a4 / 4 + t * a5 / 5))))

    def _range_index(self, t: float) -> int:
        (lo, joint, _), (_, hi, _) = self.cp_coeffs
        if lo <= t <= hi:  # False for nan
            return 0 if t <= joint else 1
        raise TemperatureRangeError(
            f"T = {t:.2f} K outside the [{lo:.0f}, {hi:.0f}] K validity range of species '{self.name}'"
        )

    def cp_molar(self, t: float) -> float:
        """Molar heat capacity, J/(mol K)."""
        coeffs = self.cp_coeffs[self._range_index(t)][2]
        a1, a2, a3, a4, a5 = coeffs
        return R_UNIVERSAL * (a1 + t * (a2 + t * (a3 + t * (a4 + t * a5))))

    def sensible_enthalpy_molar(self, t: float) -> float:
        """Sensible enthalpy relative to 298.15 K, J/mol."""
        idx = self._range_index(t)
        return R_UNIVERSAL * (self._cp_integral(self.cp_coeffs[idx][2], t) + self._h_offsets[idx])


# GRI-Mech 3.0 seven-coefficient fits (a1..a5 of the cp polynomial).  The
# nominal low-range floor is extended to 250 K; the fits remain smooth and
# positive there.  High ranges are capped at 3500 K for uniformity.
_LOW, _MID, _HIGH = 250.0, 1000.0, 3500.0
T_MIN = _LOW  # K, floor of the tables and lower end of every temperature bracket

SPECIES: Mapping[str, SpeciesThermo] = MappingProxyType({
    "N2": SpeciesThermo(
        name="N2",
        molar_mass=28.0134e-3,
        cp_coeffs=(
            (_LOW, _MID, (3.298677e+00, 1.4082404e-03, -3.963222e-06, 5.641515e-09, -2.444854e-12)),
            (_MID, _HIGH, (2.92664e+00, 1.4879768e-03, -5.68476e-07, 1.0097038e-10, -6.753351e-15)),
        ),
        h_formation=0.0,
    ),
    "O2": SpeciesThermo(
        name="O2",
        molar_mass=31.9988e-3,
        cp_coeffs=(
            (_LOW, _MID, (3.78245636e+00, -2.99673416e-03, 9.84730201e-06, -9.68129509e-09, 3.24372837e-12)),
            (_MID, _HIGH, (3.28253784e+00, 1.48308754e-03, -7.57966669e-07, 2.09470555e-10, -2.16717794e-14)),
        ),
        h_formation=0.0,
    ),
    "Ar": SpeciesThermo(
        name="Ar",
        molar_mass=39.948e-3,
        cp_coeffs=(
            (_LOW, _MID, (2.5, 0.0, 0.0, 0.0, 0.0)),
            (_MID, _HIGH, (2.5, 0.0, 0.0, 0.0, 0.0)),
        ),
        h_formation=0.0,
    ),
    "H2": SpeciesThermo(
        name="H2",
        molar_mass=2.01588e-3,
        cp_coeffs=(
            (_LOW, _MID, (2.34433112e+00, 7.98052075e-03, -1.94781510e-05, 2.01572094e-08, -7.37611761e-12)),
            (_MID, _HIGH, (3.33727920e+00, -4.94024731e-05, 4.99456778e-07, -1.79566394e-10, 2.00255376e-14)),
        ),
        h_formation=0.0,
    ),
    "H2O": SpeciesThermo(
        name="H2O",
        molar_mass=18.01528e-3,
        cp_coeffs=(
            (_LOW, _MID, (4.19864056e+00, -2.03643410e-03, 6.52040211e-06, -5.48797062e-09, 1.77197817e-12)),
            (_MID, _HIGH, (3.03399249e+00, 2.17691804e-03, -1.64072518e-07, -9.70419870e-11, 1.68200992e-14)),
        ),
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
    """Mole fractions of a gas mixture; fractions must sum to 1 within 1e-9."""

    mole_fractions: Mapping[str, float]

    def __post_init__(self):
        fracs = dict(self.mole_fractions)
        for name, x in fracs.items():
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"mole fraction of '{name}' is {x}, outside [0, 1]")
        total = sum(fracs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mole fractions sum to {total!r}, expected 1 within 1e-9")
        object.__setattr__(self, "mole_fractions", MappingProxyType(fracs))

    def items(self):
        return self.mole_fractions.items()


AIR = GasComposition(AIR_MOLE_FRACTIONS)
PURE_H2 = GasComposition({"H2": 1.0})


@dataclass(frozen=True)
class GasState:
    """Composition plus static temperature (K) and pressure (Pa)."""

    composition: GasComposition
    temperature: float = param(None, bound="(0, inf)")  # K
    pressure: float = param(None, bound="(0, inf)")  # Pa

    def __post_init__(self):
        check(self)


def mixture_molar_mass(composition: GasComposition) -> float:
    """Mole-fraction weighted molar mass, kg/mol."""
    return sum(x * species(name).molar_mass for name, x in composition.items())


def specific_gas_constant(composition: GasComposition) -> float:
    """R / mixture molar mass, J/(kg K)."""
    return R_UNIVERSAL / mixture_molar_mass(composition)


def density(state: GasState) -> float:
    """Ideal-gas density, kg/m^3."""
    return state.pressure / (specific_gas_constant(state.composition) * state.temperature)


def cp_molar(composition: GasComposition, t: float) -> float:
    """Mole-fraction weighted molar cp, J/(mol K)."""
    return sum(x * species(name).cp_molar(t) for name, x in composition.items())


def cp_mass(composition: GasComposition, t: float) -> float:
    """Mixture heat capacity on a mass basis, J/(kg K)."""
    return cp_molar(composition, t) / mixture_molar_mass(composition)


def sensible_enthalpy_mass(composition: GasComposition, t: float) -> float:
    """Sensible enthalpy relative to 298.15 K, J/kg."""
    h = sum(x * species(name).sensible_enthalpy_molar(t) for name, x in composition.items())
    return h / mixture_molar_mass(composition)


def formation_enthalpy_mass(composition: GasComposition) -> float:
    """Mixture standard formation enthalpy, J/kg."""
    h = sum(x * species(name).h_formation for name, x in composition.items())
    return h / mixture_molar_mass(composition)


def enthalpy_mass(composition: GasComposition, t: float) -> float:
    """Total enthalpy: sensible part relative to 298.15 K plus formation, J/kg."""
    return sensible_enthalpy_mass(composition, t) + formation_enthalpy_mass(composition)


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
    m_air = mixture_molar_mass(AIR)
    return 2.0 * phi * x_o2 * species("H2").molar_mass / m_air


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


class PolynomialGas:
    """Default property model: embedded polynomial tables."""

    def cp_mass(self, composition, t):
        return cp_mass(composition, t)

    def sensible_enthalpy_mass(self, composition, t):
        return sensible_enthalpy_mass(composition, t)

    def gamma(self, composition, t):
        return gamma(composition, t)


@dataclass(frozen=True)
class ConstantCpGas:
    """Constant-property model: user-fixed cp (J/kg K) and gamma.

    The implied gas constant is cp * (gamma - 1) / gamma, so isentropic
    relations and enthalpy differences reduce to the textbook closed forms.
    Composition arguments are accepted for interface compatibility but do
    not affect the result.
    """

    cp: float = param("constant_cp_j_per_kg_k", 1005.0, "(0, inf)")
    gamma_value: float = param("constant_gamma", 1.4, "(1, 5/3]")

    def __post_init__(self):
        check(self)

    def cp_mass(self, composition, t):
        return self.cp

    def sensible_enthalpy_mass(self, composition, t):
        return self.cp * (t - T_REFERENCE)

    def gamma(self, composition, t):
        return self.gamma_value


POLYNOMIAL = PolynomialGas()
