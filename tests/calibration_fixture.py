"""Calibration procedure for the combustor surrogate constants.

Two stages, run once and frozen into the default config:

  1. wall conductance G: coarse grid search centering the three measured
     exit temperatures (phi 0.8, chamber 1.2 mm, 0.05/0.10/0.15 g/s) on the
     1400..1600 K band;
  2. chemical-time constants (Ea, n): grid search minimizing blow-out
     misclassification over the reference stability cases, with the
     prefactor A pinned for each candidate by a threshold fit that places
     the lean-blowout boundary at 0.045 g/s (phi 0.8, 1.2 mm chamber).

The frozen results are the declared defaults of microgt.combustor
(ChemicalTimeModel and CombustorGeometry.wall_thermal_conductance), from
which the default scenario config is rendered.
"""

import math

from microgt import combustor as cb
from microgt import gas
from microgt.combustor import (ChemicalTimeModel, CombustorGeometry,
                               CombustorOperatingPoint)

BAND_FLOWS = (0.05e-3, 0.10e-3, 0.15e-3)
BAND_PHI = 0.8
BAND_HEIGHT = 1.2e-3

# (phi, air flow kg/s, chamber height m, expected stable)
CLASSIFICATION_CASES = (
    (0.6, 0.15e-3, 0.6e-3, True),
    (0.6, 0.15e-3, 1.0e-3, True),
    (0.5, 0.15e-3, 0.6e-3, False),
    (BAND_PHI, 0.05e-3, BAND_HEIGHT, True),
    (BAND_PHI, 0.10e-3, BAND_HEIGHT, True),
    (BAND_PHI, 0.15e-3, BAND_HEIGHT, True),
    (BAND_PHI, 0.03e-3, BAND_HEIGHT, False),
)

THRESHOLD_FLOW = 0.045e-3  # target lean-blowout boundary, kg/s


def band_exit_temperatures(conductance):
    geometry = CombustorGeometry(chamber_height=BAND_HEIGHT,
                                 wall_thermal_conductance=conductance)
    temps = []
    for mdot in BAND_FLOWS:
        op = CombustorOperatingPoint(mdot, BAND_PHI)
        t_exit, _, _ = cb._solve_thermal(geometry, op)
        temps.append(t_exit)
    return temps


def fit_wall_conductance(candidates=None):
    """Grid search: maximize the distance of the three exit temperatures
    from the 1400..1600 K band edges; ties broken by band centering."""
    if candidates is None:
        candidates = [0.30 + 0.02 * i for i in range(16)]
    best = None
    for conductance in candidates:
        temps = band_exit_temperatures(conductance)
        margin = min(min(t - 1400.0 for t in temps),
                     min(1600.0 - t for t in temps))
        if margin < 0.0:
            continue
        objective = sum((t - 1500.0) ** 2 for t in temps)
        key = (margin, -objective)
        if best is None or key > best[0]:
            best = (key, conductance, temps)
    if best is None:
        return None
    return best[1], best[2]


def threshold_fit_prefactor(activation_energy, phi_exponent,
                            geometry=None):
    """Prefactor making Da = da_critical exactly at the threshold flow."""
    if geometry is None:
        geometry = CombustorGeometry(chamber_height=BAND_HEIGHT)
    op = CombustorOperatingPoint(THRESHOLD_FLOW, BAND_PHI)
    t_exit, t_wall, t_pre = cb._solve_thermal(geometry, op)
    t_flame = cb.adiabatic_flame_temperature(BAND_PHI, t_pre)
    tau_res = cb.residence_time(geometry, op, t_flame)
    arrhenius = math.exp(activation_energy / (gas.R_UNIVERSAL * t_pre))
    return tau_res * BAND_PHI ** phi_exponent / arrhenius


def misclassifications(chemistry):
    count = 0
    for phi, mdot, height, want_stable in CLASSIFICATION_CASES:
        geometry = CombustorGeometry(chamber_height=height)
        op = CombustorOperatingPoint(mdot, phi)
        if cb.stability(geometry, op, chemistry).stable != want_stable:
            count += 1
    return count


def search_chemistry(activation_energies, phi_exponents):
    """Grid search over (Ea, n) with A pinned by the threshold fit."""
    results = []
    for ea in activation_energies:
        for n in phi_exponents:
            prefactor = threshold_fit_prefactor(ea, n)
            chemistry = ChemicalTimeModel(prefactor=prefactor,
                                          activation_energy=ea,
                                          phi_exponent=n)
            results.append((misclassifications(chemistry), ea, n, prefactor))
    results.sort(key=lambda r: r[0])
    return results
