"""The per-phi record of the combustor changes no bit of any answer.

combustor._products builds the mixture and the products of each
equivalence ratio, and the products' enthalpies at the temperatures of
combustor.PRODUCTS_TABLE, once per phi.  The values below are float.hex
pins of the same calls, each rooted by the Anderson-Bjorck steps of
params.bracketed_root on the table cell that holds its target; each must
come out the same from a cold cache and from a warm one.  run_cycle does
not reach the cache (cycle.combust builds its products itself) and is
pinned all the same.
"""

from dataclasses import replace

import pytest

from microgt import combustor as cb
from microgt import cycle, gas
from microgt.params import bracketed_root

GEOM = cb.CombustorGeometry()
GEOM_06 = replace(GEOM, chamber_height=0.6e-3)
OP = cb.CombustorOperatingPoint


def cold_and_warm(compute):
    """compute() after clearing the cache, then again with it filled."""
    cb._products.cache_clear()
    return compute(), compute()


# (geometry, operating point): stable, residence, chemical time, Da, exit T, wall T
STABILITY_PINS = [
    (GEOM, OP(), True,
     ("0x1.0026e2b9b3ce3p-13", "0x1.2463dc719f109p-17", "0x1.c08b394e7b7dbp+3",
      "0x1.885d6209779cap+10", "0x1.20568fffbd955p+9")),
    (GEOM, OP(0.10e-3, 0.8), True,
     ("0x1.88f4d5c5db32ap-13", "0x1.018abc159cdedp-15", "0x1.869a8cee7aa31p+2",
      "0x1.78c992c2cf2c1p+10", "0x1.f5bbd227c6eaap+8")),
    (GEOM_06, OP(0.15e-3, 0.6), True,
     ("0x1.3fb738e5d1271p-14", "0x1.553ce398d8497p-15", "0x1.dfb52fee3aa19p+0",
      "0x1.499dbc83fc826p+10", "0x1.fdf6be9ab8e92p+8")),
    # hot inlet: the wall settles below the inlet
    (GEOM, OP(4e-5, 0.7, 600.0), True,
     ("0x1.176651df16dbep-11", "0x1.c22bce22d8e73p-12", "0x1.3dc61f9f64a92p+0",
      "0x1.4c8eabc53c608p+10", "0x1.95adc8259f06bp+8")),
    (GEOM_06, OP(1.0e-3, 0.5), False,
     ("0x1.a50726d7fcaaep-17", "0x1.d64e3c7946defp-17", "0x1.ca5a8a4115783p-1",
      "0x1.2c00000000000p+8", "0x1.2c00000000000p+8")),
]


@pytest.mark.parametrize("geom, op, stable, pins", STABILITY_PINS)
def test_stability_keeps_its_bits(geom, op, stable, pins):
    for r in cold_and_warm(lambda: cb.stability(geom, op)):
        assert r.stable == stable
        assert tuple(x.hex() for x in (r.residence_time, r.chemical_time, r.damkohler,
                                       r.exit_temperature, r.wall_temperature)) == pins


@pytest.mark.parametrize("phi, pin", [(0.8, "0x1.8e757928e0c9ep-15"),
                                      (0.9, "0x1.3a92a30553262p-15")])
def test_blowout_mass_flow_keeps_its_bits(phi, pin):
    for mdot in cold_and_warm(lambda: cb.blowout_mass_flow(GEOM, phi)):
        assert mdot.hex() == pin


@pytest.mark.parametrize("phi, t_in, pin", [(0.8, 300.0, "0x1.143efc76571c2p+11"),
                                            (0.5, 700.0, "0x1.f0f52baa9f013p+10"),
                                            (1.0, 300.0, "0x1.3b483303422f3p+11"),
                                            (0.3, 1200.0, "0x1.f4a72d8069bf5p+10")])
def test_adiabatic_flame_temperature_keeps_its_bits(phi, t_in, pin):
    for t in cold_and_warm(lambda: cb.adiabatic_flame_temperature(phi, t_in)):
        assert t.hex() == pin


DESIGN = cycle.CycleDesignPoint()


@pytest.mark.parametrize("design, pins", [
    (DESIGN, ("0x1.ade2d75d4b31ap+5", "0x1.45f4a58c5ae53p+6", "0x1.0e73089d803f0p+7",
              "0x1.606e50ecd757dp+10", "0x1.846a2c1ea1537p-4")),
    (replace(DESIGN, pressure_ratio=3.5, fuel_mass_flow=5.0e-6),
     ("0x1.ae5ebe286792ap+5", "0x1.207e72dbc001ep+6", "0x1.f7add1eff3cb3p+6",
      "0x1.664f30c3f8e94p+10", "0x1.6f3fc7d08efedp-4")),
])
def test_run_cycle_keeps_its_bits(design, pins):
    for perf, _ in cold_and_warm(lambda: cycle.run_cycle(design)):
        assert tuple(x.hex() for x in (perf.net_power, perf.compressor_power,
                                       perf.turbine_power, perf.turbine_inlet_temperature,
                                       perf.thermal_efficiency)) == pins


@pytest.mark.parametrize("target, pin", [(-2.0e6, "0x1.b8e4fc14d6c87p+9"),
                                         (-1.0e6, "0x1.89818df7a5edap+10"),
                                         (0.0, "0x1.140f3560e7a83p+11")])
def test_held_bracket_enthalpies_give_the_evaluated_root(target, pin):
    """The held enthalpies are the products' enthalpies at the table's
    temperatures, so the endpoint residuals of the table cell that holds
    target equal f(lo) and f(hi) there, and the root is the one
    bracketed_root finds when it evaluates that cell's ends itself (the
    pin)."""
    products = cb._products(0.8)
    composition = products.composition

    def f(t):
        return gas.enthalpy_mass(composition, t) - target

    assert products.enthalpies == tuple(gas.enthalpy_mass(composition, t)
                                        for t in cb.PRODUCTS_TABLE)
    hi = next(i for i, t in enumerate(cb.PRODUCTS_TABLE) if f(t) > 0.0)
    lo_t, hi_t = cb.PRODUCTS_TABLE[hi - 1], cb.PRODUCTS_TABLE[hi]
    assert f(lo_t) < 0.0 < f(hi_t)
    evaluated = bracketed_root(f, lo_t, hi_t, f(lo_t), f(hi_t), "test")
    held = cb._products_temperature(products, target, "test")
    assert evaluated.hex() == held.hex() == pin


def test_caches_hold_the_last_phi_keyed_by_type():
    cb._products.cache_clear()
    for phi in (0.5, 0.6, 0.5):
        cb._products(phi)
    info = cb._products.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 1)
    held = cb._products(0.5)
    hit = cb._products(0.5)
    assert hit.mixture is held.mixture and hit.composition is held.composition
    assert held.mixture == gas.unburned_mixture(0.5)
    # an int and a float phi of equal value are held apart
    as_int, as_float = cb._products(1), cb._products(1.0)
    assert as_int.mixture is not as_float.mixture
    assert as_int.composition is not as_float.composition
    assert as_int == as_float


def test_residence_time_reads_the_held_products():
    cb._products.cache_clear()
    op = OP(0.1e-3, 0.8)
    tau = cb.residence_time(GEOM, op, 1800.0)
    assert cb._products.cache_info().misses == 1
    rho = op.inlet_pressure * gas.burned_composition(0.8).molar_mass / (gas.R_UNIVERSAL * 1800.0)
    assert tau == GEOM.chamber_volume * rho / op.total_mass_flow
