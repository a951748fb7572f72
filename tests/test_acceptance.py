"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import math
import time
from dataclasses import replace

import numpy as np

from microgt import bearing as br
from microgt import cli
from microgt import combustor as cb
from microgt import cycle, gas, turbo
from microgt.combustor import CombustorGeometry, CombustorOperatingPoint
from microgt.config import default_config
from microgt.gas import AIR, GasState


def _report(number, label, ok, detail):
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_design_point_net_power():
    start = time.time()
    design = default_config().cycle_design
    perf, _ = cycle.run_cycle(design)
    in_bracket = 30.0 <= perf.net_power <= 55.0
    eta = cycle.fit_eta_mechanical(design, 39.0)
    calibrated, _ = cycle.run_cycle(replace(design, eta_mechanical=eta))
    on_target = abs(calibrated.net_power - 39.0) / 39.0 <= 0.02
    elapsed = time.time() - start
    _report(1, "design-point net power",
            in_bracket and on_target and elapsed < 1.0,
            f"net {perf.net_power:.2f} W in [30, 55], calibrated "
            f"{calibrated.net_power:.2f} W (eta_mech {eta:.4f}), {elapsed:.2f} s")


def test_criterion_02_design_equivalence_ratio():
    start = time.time()
    design = default_config().cycle_design
    phi = gas.equivalence_ratio(design.fuel_mass_flow, design.air_mass_flow)
    ok = abs(phi - 0.45) <= 0.02
    elapsed = time.time() - start
    _report(2, "design equivalence ratio", ok and elapsed < 1.0,
            f"phi = {phi:.4f} (0.45 +/- 0.02), {elapsed:.2f} s")


def test_criterion_03_stability_map():
    start = time.time()
    geom_06 = CombustorGeometry(chamber_height=0.6e-3)
    geom_10 = CombustorGeometry(chamber_height=1.0e-3)
    geom_12 = CombustorGeometry(chamber_height=1.2e-3)
    a = cb.stability(geom_06, CombustorOperatingPoint(0.15e-3, 0.6)).stable
    b = cb.stability(geom_10, CombustorOperatingPoint(0.15e-3, 0.6)).stable
    c = cb.stability(geom_06, CombustorOperatingPoint(0.15e-3, 0.5)).stable
    mdot_min = cb.blowout_mass_flow(geom_12, 0.8)
    threshold_ok = mdot_min is not None and 0.03e-3 <= mdot_min <= 0.05e-3
    elapsed = time.time() - start
    ok = a and b and (not c) and threshold_ok and elapsed < 5.0
    _report(3, "combustor stability map", ok,
            f"(0.6, 0.6mm)={'stable' if a else 'out'}, "
            f"(0.6, 1.0mm)={'stable' if b else 'out'}, "
            f"(0.5, 0.6mm)={'out' if not c else 'stable'}, "
            f"min stable flow {mdot_min * 1e3 if mdot_min else -1:.4f} g/s, "
            f"{elapsed:.2f} s")


def test_criterion_04_exit_temperature_band():
    start = time.time()
    geom = CombustorGeometry(chamber_height=1.2e-3)
    temps = []
    for mdot in (0.05e-3, 0.10e-3, 0.15e-3):
        result = cb.stability(geom, CombustorOperatingPoint(mdot, 0.8))
        assert result.stable
        temps.append(result.exit_temperature)
    ok = all(1400.0 <= t <= 1600.0 for t in temps)
    elapsed = time.time() - start
    _report(4, "exit-temperature band", ok and elapsed < 5.0,
            f"exits {['%.0f K' % t for t in temps]} in [1400, 1600], "
            f"{elapsed:.2f} s")


def test_criterion_05_flame_temperature_oracle():
    start = time.time()
    from scipy.optimize import brentq

    def oracle(phi):
        mix = gas.unburned_mixture(phi)
        prod = gas.burned_composition(phi)

        def h_total(comp, t):
            ts = np.linspace(gas.T_REFERENCE, t, 2000)
            cps = np.array([gas.cp_mass(comp, x) for x in ts])
            return np.trapezoid(cps, ts) + gas.formation_enthalpy_mass(comp)

        target = h_total(mix, 300.0)
        return brentq(lambda t: h_total(prod, t) - target, 301.0, 3300.0)

    worst = 0.0
    for phi in (0.4, 0.6, 0.8, 1.0):
        diff = abs(cb.adiabatic_flame_temperature(phi, 300.0) - oracle(phi))
        worst = max(worst, diff)
    elapsed = time.time() - start
    _report(5, "flame-temperature oracle", worst < 60.0 and elapsed < 1.0,
            f"worst deviation {worst:.3f} K (< 60 K), {elapsed:.2f} s")


def test_criterion_06_turbine_kinematics():
    start = time.time()
    tip = turbo.blade_speed(4.1e-3, 15000.0)
    tip_ok = abs(tip - 6.44) <= 0.01
    geom = turbo.RotorGeometry()
    state = GasState(AIR, 300.0, 101325.0)
    area = turbo.rotor_inlet_area(geom)
    rpm = turbo.design_rpm_for_zero_incidence(
        geom.tip_radius, 0.36e-3, state, area, 70.0, geom.inlet_blade_angle)
    tri = turbo.velocity_triangle(geom.tip_radius, rpm, 0.36e-3, state, area, 70.0)
    inc_ok = abs(turbo.incidence(tri, geom.inlet_blade_angle)) < 1e-6
    tri_in = turbo.VelocityTriangle(6.44, 10.0, 20.0, 13.56, 63.43, 53.6)
    tri_out = turbo.VelocityTriangle(3.46, 10.0, 0.0, -3.46, 0.0, -19.1)
    euler_ok = (abs(turbo.euler_specific_work(tri_in, tri_out) - 128.8) < 1e-9
                and abs(turbo.euler_specific_work(tri_in, tri_in)) < 1e-12)
    elapsed = time.time() - start
    ok = tip_ok and inc_ok and euler_ok and elapsed < 1.0
    _report(6, "turbine kinematics", ok,
            f"tip speed {tip:.4f} m/s, zero-incidence residual "
            f"{abs(turbo.incidence(tri, geom.inlet_blade_angle)):.2e} deg, "
            f"{elapsed:.2f} s")


def test_criterion_07_bearing_validation_suite():
    start = time.time()
    bearing = br.SpiralGrooveBearing()
    film = br.FilmState()

    field_0 = br.solve_reynolds(bearing, br.FilmState(rpm=0.0), 33, 96)
    null_speed = float(np.max(np.abs(field_0.pressures - 101325.0)))
    field_d = br.solve_reynolds(br.SpiralGrooveBearing(groove_depth=0.0),
                                film, 33, 96)
    null_depth = float(np.max(np.abs(field_d.pressures - 101325.0)))
    nulls_ok = null_speed == 0.0 and null_depth == 0.0

    loads = [br.solve_load(bearing, film, n_r, n_theta)
             for n_r, n_theta in ((33, 96), (65, 192), (129, 384))]
    order = math.log2(abs(loads[0] - loads[1]) / abs(loads[1] - loads[2]))
    order_ok = order >= 1.8

    w_in = loads[1]
    mirrored = br.solve_load(br.SpiralGrooveBearing(pump_direction="pump-out"),
                             br.FilmState(rpm=-15000.0), 65, 192)
    mirror_err = abs(mirrored - w_in) / abs(w_in)
    mirror_ok = mirror_err < 1e-6

    ngt_ok = True
    ngt_detail = []
    for bb, grid in ((br.SpiralGrooveBearing(groove_count=16, spiral_angle=15.0),
                      (65, 128)),
                     (br.SpiralGrooveBearing(groove_count=24), (65, 96))):
        assert br.compressibility_number(bb, film) < 1.0
        numeric = br.solve_load(bb, film, *grid)
        reference = br.narrow_groove_reference(bb, film)
        deviation = abs(numeric - reference) / abs(reference)
        ngt_detail.append(f"N={bb.groove_count}: {deviation * 100:.1f}%")
        ngt_ok = ngt_ok and deviation < 0.15

    elapsed = time.time() - start
    ok = nulls_ok and order_ok and mirror_ok and ngt_ok and elapsed < 120.0
    _report(7, "bearing validation suite", ok,
            f"nulls exact, order {order:.2f}, mirror {mirror_err:.1e}, "
            f"NGT {'; '.join(ngt_detail)}, {elapsed:.1f} s")


def test_criterion_08_axial_equilibrium_exists():
    start = time.time()
    weight = turbo.RotorGeometry().rotor_mass * turbo.GRAVITY
    top = br.SpiralGrooveBearing(groove_depth=15.0e-6, pump_direction="pump-in")
    bottom = br.SpiralGrooveBearing(groove_depth=36.0e-6, pump_direction="pump-out")
    eq = br.axial_equilibrium(top, bottom, 40.0e-6, weight, br.FilmState())
    elapsed = time.time() - start
    ok = (eq.converged and eq.top_clearance > 0.0 and eq.bottom_clearance > 0.0
          and elapsed < 60.0)
    _report(8, "axial equilibrium existence", ok,
            f"clearances {eq.top_clearance * 1e6:.2f} / "
            f"{eq.bottom_clearance * 1e6:.2f} um against {weight * 1e3:.3f} mN, "
            f"{elapsed:.1f} s")


def test_criterion_09_imbalance_oracle():
    start = time.time()
    geom = turbo.RotorGeometry()
    load, _ = turbo.imbalance_load(geom, 0.05, 15000.0)

    n = 3000
    r_edges = np.linspace(geom.hub_radius, geom.tip_radius, n + 1)
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    theta = (np.arange(n) + 0.5) * 2.0 * math.pi / n
    x = r_mid[:, None] * np.cos(theta[None, :])
    height = geom.blade_height * (1.0 + 0.05 * x / (2.0 * geom.tip_radius))
    cell = r_mid[:, None] * np.diff(r_edges)[:, None] * (2.0 * math.pi / n)
    moment = float((turbo.SILICON_DENSITY * turbo.BLADE_FILL_FRACTION
                    * height * cell * x).sum())
    omega = 2.0 * math.pi * 15000.0 / 60.0
    oracle_ok = abs(load - moment * omega ** 2) / (moment * omega ** 2) < 0.01

    load_lo, _ = turbo.imbalance_load(geom, 0.05, 7500.0)
    scaling_err = abs(load / load_lo - 4.0) / 4.0
    elapsed = time.time() - start
    ok = oracle_ok and scaling_err < 1e-6 and elapsed < 10.0
    _report(9, "imbalance oracle", ok,
            f"load {load * 1e3:.4f} mN vs oracle "
            f"{moment * omega ** 2 * 1e3:.4f} mN, omega^2 scaling error "
            f"{scaling_err:.2e}, {elapsed:.1f} s")


def test_criterion_10_determinism(tmp_path):
    out_1 = tmp_path / "first"
    out_2 = tmp_path / "second"
    assert cli.main(["run", "all", "--out", str(out_1)]) == 0
    assert cli.main(["run", "all", "--out", str(out_2)]) == 0
    names = ("stations.csv", "performance.csv", "combustor.csv",
             "operating_line.csv", "field.csv", "loadmap.csv")
    identical = all((out_1 / n).read_bytes() == (out_2 / n).read_bytes()
                    for n in names)
    _report(10, "determinism", identical,
            f"{len(names)} CSV outputs byte-identical across reruns")
