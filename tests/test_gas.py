import math

import pytest
from hypothesis import given, settings, strategies as st

from microgt import gas
from microgt.gas import (AIR, ConstantCpGas, GasComposition, GasState,
                         RichMixtureError, TemperatureRangeError,
                         UnknownSpeciesError)


def test_cp_air_room_temperature():
    # evaluated from the published seven-coefficient fits by hand: 1003.33
    cp = gas.cp_mass(AIR, 300.0)
    assert cp == pytest.approx(1003.3302, rel=1e-4)
    assert cp == pytest.approx(1005.0, rel=0.01)


def test_cp_air_hot():
    cp = gas.cp_mass(AIR, 1500.0)
    assert cp == pytest.approx(1209.7786, rel=1e-4)
    assert cp == pytest.approx(1211.0, rel=0.02)


def test_constant_cp_mode_returns_configured_constant():
    model = ConstantCpGas(1150.0, 1.33)
    assert model.cp_mass(GasComposition({"H2": 1.0}), 431.7) == 1150.0
    assert model.gamma(AIR, 2000.0) == 1.33


def test_enthalpy_reference_temperature_is_formation_only():
    for comp in (AIR, gas.burned_composition(0.7)):
        assert gas.sensible_enthalpy_mass(comp, gas.T_REFERENCE) == pytest.approx(0.0, abs=1e-9)
        assert gas.enthalpy_mass(comp, gas.T_REFERENCE) == pytest.approx(
            comp.formation_enthalpy)


def test_air_enthalpy_rise_300_to_600():
    dh = gas.sensible_enthalpy_mass(AIR, 600.0) - gas.sensible_enthalpy_mass(AIR, 300.0)
    assert dh == pytest.approx(309.0e3, rel=0.02)


def test_h2_formation_enthalpy_is_zero():
    assert gas.species("H2").h_formation == 0.0


def test_gamma_air():
    assert gas.gamma(AIR, 300.0) == pytest.approx(1.400, rel=0.005)


def test_gamma_monatomic():
    argon = GasComposition({"Ar": 1.0})
    for t in (300.0, 700.0, 2000.0):
        assert gas.gamma(argon, t) == pytest.approx(5.0 / 3.0, abs=1e-3)


def test_gamma_burned_products():
    g = gas.gamma(gas.burned_composition(0.45), 1500.0)
    assert 1.28 < g < 1.36


def test_burned_composition_matches_atom_balance():
    phi = 0.45
    # brute-force balance: per mole of air, 2 phi x_O2 moles H2 burn
    x_o2 = 0.2095
    n_h2o = 2.0 * phi * x_o2
    n = {"N2": 0.7808, "O2": x_o2 * (1.0 - phi), "Ar": 0.0097, "H2O": n_h2o}
    total = sum(n.values())
    got = gas.burned_composition(phi).mole_fractions
    for name, moles in n.items():
        assert got[name] == pytest.approx(moles / total, abs=1e-9)


def test_burned_composition_trivial_ends():
    air = gas.burned_composition(0.0).mole_fractions
    assert air["O2"] == pytest.approx(0.2095, abs=1e-12)
    assert "H2O" not in air or air["H2O"] == 0.0
    stoich = gas.burned_composition(1.0).mole_fractions
    assert stoich["O2"] == pytest.approx(0.0, abs=1e-15)


def test_burned_composition_rejects_rich():
    with pytest.raises(RichMixtureError):
        gas.burned_composition(1.2)


@pytest.mark.parametrize("composition", [gas.burned_composition, gas.unburned_mixture])
def test_compositions_reject_a_negative_equivalence_ratio(composition):
    with pytest.raises(ValueError, match="must be non-negative"):
        composition(-0.1)


def test_element_conservation_across_burn():
    # total elemental H, O, N moles identical before and after, per mole air
    x_o2, x_n2, x_ar = 0.2095, 0.7808, 0.0097
    for phi in (0.0, 0.2, 0.45, 0.8, 1.0):
        n_h2 = 2.0 * phi * x_o2
        before = {"H": 2.0 * n_h2, "O": 2.0 * x_o2, "N": 2.0 * x_n2, "Ar": x_ar}
        prod = gas.burned_composition(phi).mole_fractions
        total = (1.0 + phi * x_o2)  # moles of product per mole air
        after = {
            "H": 2.0 * prod.get("H2O", 0.0) * total,
            "O": (2.0 * prod["O2"] + prod.get("H2O", 0.0)) * total,
            "N": 2.0 * prod["N2"] * total,
            "Ar": prod["Ar"] * total,
        }
        for element in before:
            assert after[element] == pytest.approx(before[element], abs=1e-12)


def test_enthalpy_derivative_matches_cp():
    dt = 0.01
    for comp in (AIR, gas.burned_composition(0.6)):
        for t in [320.0 + 300.0 * i for i in range(10)]:
            dh = (gas.sensible_enthalpy_mass(comp, t + dt)
                  - gas.sensible_enthalpy_mass(comp, t - dt)) / (2.0 * dt)
            assert dh == pytest.approx(gas.cp_mass(comp, t), rel=1e-3)


def test_mixing_linearity():
    a = GasComposition({"N2": 1.0})
    b = GasComposition({"H2O": 1.0})
    blend = GasComposition({"N2": 0.5, "H2O": 0.5})
    t = 900.0
    cp_expected = (0.5 * gas.cp_molar(a, t) + 0.5 * gas.cp_molar(b, t)) / (
        0.5 * a.molar_mass + 0.5 * b.molar_mass)
    assert gas.cp_mass(blend, t) == pytest.approx(cp_expected, rel=1e-12)


def test_out_of_range_temperature_names_species():
    with pytest.raises(TemperatureRangeError, match="N2"):
        gas.cp_mass(GasComposition({"N2": 1.0}), 5000.0)
    with pytest.raises(TemperatureRangeError, match="N2"):
        gas.species("N2").cp_molar(5000.0)


@pytest.mark.parametrize("t", [249.9, 3500.1, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("prop", [gas.cp_molar, gas.cp_mass, gas.sensible_enthalpy_mass,
                                  gas.enthalpy_mass, gas.gamma])
def test_every_property_rejects_temperatures_off_the_tables(prop, t):
    # one check per call, naming the composition's first species; nan too
    with pytest.raises(TemperatureRangeError, match="N2"):
        prop(AIR, t)


def test_unknown_species_lookup_error():
    with pytest.raises(UnknownSpeciesError):
        gas.cp_mass(GasComposition({"CH4": 1.0}), 300.0)


def test_range_joint_continuity():
    # both coefficient sets agree at the 1000 K changeover within 0.5%
    for name in gas.SPECIES:
        sp = gas.species(name)
        lo = sum(c * 1000.0 ** i for i, c in enumerate(sp.low))
        hi = sum(c * 1000.0 ** i for i, c in enumerate(sp.high))
        assert hi == pytest.approx(lo, rel=0.005)


def test_cp_positive_across_range():
    for name in gas.SPECIES:
        sp = gas.species(name)
        for t in [250.0 + 130.0 * i for i in range(26)]:
            assert sp.cp_molar(t) > 0.0


def test_composition_validation():
    with pytest.raises(ValueError):
        GasComposition({"N2": 0.5, "O2": 0.6})
    with pytest.raises(ValueError):
        GasComposition({"N2": 1.2, "O2": -0.2})
    with pytest.raises(ValueError):
        GasState(AIR, -10.0, 101325.0)
    with pytest.raises(ValueError):
        GasState(AIR, 300.0, 0.0)


def test_density_ideal_gas():
    rho = gas.density(GasState(AIR, 300.0, 101325.0))
    m_air = 0.7808 * 28.0134e-3 + 0.2095 * 31.9988e-3 + 0.0097 * 39.948e-3
    assert rho == pytest.approx(101325.0 * m_air / (8.314462618 * 300.0), rel=1e-9)


def _per_call_reference(comp, t):
    """molar mass, formation enthalpy, cp, sensible and total enthalpy and
    gamma as sums over the species looked up by name on every call."""
    def mix(value):
        return sum(x * value(gas.species(name)) for name, x in comp.mole_fractions.items())
    m = mix(lambda sp: sp.molar_mass)
    h_f = mix(lambda sp: sp.h_formation) / m
    cp = mix(lambda sp: sp.cp_molar(t)) / m
    h_s = mix(lambda sp: sp.sensible_enthalpy_molar(t)) / m
    return m, h_f, cp, h_s, h_s + h_f, cp / (cp - gas.R_UNIVERSAL / m)


def _blend(weights):
    total = sum(weights.values())
    return GasComposition({name: w / total for name, w in weights.items()})


compositions = st.one_of(
    st.sampled_from([AIR, gas.PURE_H2]),
    st.floats(0.0, 1.0).map(gas.burned_composition),
    st.floats(0.0, 1.0).map(gas.unburned_mixture),
    st.dictionaries(st.sampled_from(sorted(gas.SPECIES)), st.floats(1e-3, 1.0),
                    min_size=1).map(_blend),
)


@settings(deadline=None, max_examples=300)
@given(compositions, st.one_of(
    st.sampled_from([gas.T_MIN, gas.T_JOINT, math.nextafter(gas.T_JOINT, math.inf), gas.T_MAX]),
    st.floats(250.0, 3500.0)))
def test_properties_equal_per_call_species_sums(comp, t):
    got = (comp.molar_mass, comp.formation_enthalpy, gas.cp_mass(comp, t),
           gas.sensible_enthalpy_mass(comp, t), gas.enthalpy_mass(comp, t),
           gas.gamma(comp, t))
    assert got == _per_call_reference(comp, t)


def test_enthalpy_makes_no_species_lookup(monkeypatch):
    lookups = []
    lookup = gas.species
    monkeypatch.setattr(gas, "species", lambda name: lookups.append(name) or lookup(name))
    for i in range(100):
        gas.enthalpy_mass(AIR, 300.0 + i)
    assert lookups == []
