import math

import numpy as np
import pytest

from microgt import cycle, gas, turbo
from microgt.gas import AIR, GasState
from microgt.turbo import RotorGeometry, StatorGeometry

GEOM = RotorGeometry()
COLD = GasState(AIR, 300.0, 101325.0)


def test_blade_speed_zero_rpm():
    assert turbo.blade_speed(4.1e-3, 0.0) == 0.0


def test_blade_speed_tip_and_hub():
    assert turbo.blade_speed(4.1e-3, 15000.0) == pytest.approx(6.44, abs=0.01)
    assert turbo.blade_speed(2.2e-3, 15000.0) == pytest.approx(3.46, abs=0.01)


def test_blade_speed_rejects_negative():
    with pytest.raises(ValueError):
        turbo.blade_speed(-1.0, 100.0)


def test_triangle_identity_and_angles():
    area = turbo.rotor_inlet_area(GEOM)
    tri = turbo.velocity_triangle(GEOM.tip_radius, 15000.0, 0.36e-3, COLD,
                                  area, 70.0)
    assert tri.relative_tangential == tri.tangential - tri.blade_speed
    assert math.tan(math.radians(tri.absolute_angle)) == pytest.approx(
        tri.tangential / tri.meridional, rel=1e-9)
    assert math.tan(math.radians(tri.relative_angle)) == pytest.approx(
        tri.relative_tangential / tri.meridional, rel=1e-9)
    with pytest.raises(ValueError, match="flow_area must be positive"):
        turbo.velocity_triangle(GEOM.tip_radius, 15000.0, 0.36e-3, COLD, 0.0, 70.0)


def test_triangle_meridional_hand_formula():
    area = turbo.rotor_inlet_area(GEOM)
    tri = turbo.velocity_triangle(GEOM.tip_radius, 15000.0, 0.36e-3, COLD,
                                  area, 70.0)
    rho = 101325.0 * AIR.molar_mass / (gas.R_UNIVERSAL * 300.0)
    assert tri.meridional == pytest.approx(0.36e-3 / (rho * area), rel=1e-9)


def test_triangle_pure_radial_inflow():
    area = turbo.rotor_inlet_area(GEOM)
    tri = turbo.velocity_triangle(GEOM.tip_radius, 15000.0, 0.36e-3, COLD,
                                  area, 0.0)
    assert tri.tangential == 0.0
    assert tri.relative_angle == pytest.approx(
        math.degrees(math.atan2(-tri.blade_speed, tri.meridional)), abs=1e-9)


def test_triangle_matched_swirl_is_purely_meridional():
    area = turbo.rotor_inlet_area(GEOM)
    probe = turbo.velocity_triangle(GEOM.tip_radius, 10000.0, 0.36e-3, COLD,
                                    area, 70.0)
    # pick the rpm whose blade speed equals the (rpm-independent) swirl
    rpm = probe.tangential * 60.0 / (2.0 * math.pi * GEOM.tip_radius)
    tri = turbo.velocity_triangle(GEOM.tip_radius, rpm, 0.36e-3, COLD, area, 70.0)
    assert tri.relative_tangential == pytest.approx(0.0, abs=1e-9)
    assert tri.relative_angle == pytest.approx(0.0, abs=1e-9)


def test_incidence_zero_when_matched():
    area = turbo.rotor_inlet_area(GEOM)
    tri = turbo.velocity_triangle(GEOM.tip_radius, 15000.0, 0.36e-3, COLD,
                                  area, 70.0)
    assert turbo.incidence(tri, tri.relative_angle) == 0.0


def test_zero_incidence_round_trip():
    area = turbo.rotor_inlet_area(GEOM)
    rpm = turbo.design_rpm_for_zero_incidence(GEOM.tip_radius, 0.36e-3, COLD,
                                              area, 70.0, GEOM.inlet_blade_angle)
    tri = turbo.velocity_triangle(GEOM.tip_radius, rpm, 0.36e-3, COLD, area, 70.0)
    assert abs(turbo.incidence(tri, GEOM.inlet_blade_angle)) < 1e-6
    # the default blade metal angle puts the match near the 15,000 rpm test
    assert rpm == pytest.approx(15000.0, rel=0.02)


def test_incidence_monotone_in_rpm():
    area = turbo.rotor_inlet_area(GEOM)
    incidences = []
    for rpm in (5000.0, 10000.0, 15000.0, 20000.0, 25000.0):
        tri = turbo.velocity_triangle(GEOM.tip_radius, rpm, 0.36e-3, COLD,
                                      area, 70.0)
        incidences.append(turbo.incidence(tri, GEOM.inlet_blade_angle))
    assert all(b < a for a, b in zip(incidences, incidences[1:]))


def test_euler_work_zero_for_equal_swirl_momentum():
    tri = turbo.VelocityTriangle(5.0, 10.0, 12.0, 7.0, 50.2, 35.0)
    assert turbo.euler_specific_work(tri, tri) == 0.0


def test_euler_work_hand_values():
    tri_in = turbo.VelocityTriangle(6.44, 10.0, 20.0, 13.56, 63.4, 53.6)
    tri_out = turbo.VelocityTriangle(3.46, 10.0, 0.0, -3.46, 0.0, -19.1)
    work = turbo.euler_specific_work(tri_in, tri_out)
    assert work == pytest.approx(128.8, rel=1e-12)
    assert 0.36e-3 * work == pytest.approx(0.046, abs=5e-4)  # shaft power, W


def test_cold_drive_identity():
    power_ratio, rpm_ratio = turbo.cold_drive_derate(COLD, COLD, GEOM, 0.36e-3)
    assert power_ratio == pytest.approx(1.0, rel=1e-12)
    assert rpm_ratio == pytest.approx(1.0, rel=1e-12)


def test_cold_drive_is_derated():
    hot = GasState(gas.burned_composition(0.45), 1200.0, 101325.0)
    power_ratio, rpm_ratio = turbo.cold_drive_derate(hot, COLD, GEOM, 0.36e-3)
    assert power_ratio < 1.0
    assert rpm_ratio < 1.0


def test_cold_drive_rejects_a_blade_angle_equal_to_the_stator_angle():
    # the zero-incidence speed is then 0 rpm
    geom = RotorGeometry(inlet_blade_angle=StatorGeometry().exit_flow_angle)
    with pytest.raises(ValueError, match="degenerate"):
        turbo.cold_drive_derate(COLD, COLD, geom, 0.36e-3)


def test_cold_drive_scales_as_meridional_velocity_squared():
    hot = GasState(gas.burned_composition(0.45), 1200.0, 101325.0)
    power_ratio, rpm_ratio = turbo.cold_drive_derate(hot, COLD, GEOM, 0.36e-3)
    cm_ratio = gas.density(hot) / gas.density(COLD)
    assert power_ratio == pytest.approx(cm_ratio ** 2, rel=0.01)
    assert rpm_ratio == pytest.approx(cm_ratio, rel=0.01)


def test_imbalance_zero_fraction():
    load, offset = turbo.imbalance_load(GEOM, 0.0, 15000.0)
    assert load == 0.0
    assert offset == 0.0


def test_imbalance_omega_squared_scaling():
    load_1, _ = turbo.imbalance_load(GEOM, 0.05, 7500.0)
    load_2, _ = turbo.imbalance_load(GEOM, 0.05, 15000.0)
    assert load_2 / load_1 == pytest.approx(4.0, rel=1e-6)


def test_imbalance_linear_in_fraction():
    load_1, _ = turbo.imbalance_load(GEOM, 0.01, 15000.0)
    load_2, _ = turbo.imbalance_load(GEOM, 0.02, 15000.0)
    assert load_1 / load_2 == pytest.approx(0.5, rel=0.01)


def test_imbalance_against_numerical_integration():
    fraction, rpm = 0.05, 15000.0
    load, offset = turbo.imbalance_load(GEOM, fraction, rpm)
    # brute-force first moment of the tilted blade layer over the annulus
    n = 3000
    r_edges = np.linspace(GEOM.hub_radius, GEOM.tip_radius, n + 1)
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    theta = (np.arange(n) + 0.5) * 2.0 * math.pi / n
    x = r_mid[:, None] * np.cos(theta[None, :])
    height = GEOM.blade_height * (1.0 + fraction * x / (2.0 * GEOM.tip_radius))
    cell_area = r_mid[:, None] * np.diff(r_edges)[:, None] * (2.0 * math.pi / n)
    moment = float((turbo.SILICON_DENSITY * turbo.BLADE_FILL_FRACTION
                    * height * cell_area * x).sum())
    omega = 2.0 * math.pi * rpm / 60.0
    assert load == pytest.approx(moment * omega ** 2, rel=0.01)
    assert offset == pytest.approx(moment / GEOM.rotor_mass, rel=0.01)


def test_imbalance_rejects_bad_fraction():
    with pytest.raises(ValueError):
        turbo.imbalance_load(GEOM, 1.0, 15000.0)


def test_rotor_mass_default():
    # disk + 30% filled blade annulus of silicon
    disk = math.pi * 4.1e-3 ** 2 * 0.4e-3
    blades = 0.3 * math.pi * (4.1e-3 ** 2 - 2.2e-3 ** 2) * 0.4e-3
    assert GEOM.rotor_mass == pytest.approx(2330.0 * (disk + blades), rel=1e-9)


def test_euler_work_consistent_with_cycle_enthalpy_drop():
    # documented cross-check point: hot products through the rotor at the
    # lab speed with zero exit swirl; the stage pressure ratio implied by
    # the Euler work must reproduce the same enthalpy drop in the cycle
    # module with eta = 1.
    hot = GasState(gas.burned_composition(0.45), 1200.0, 202650.0)
    area = turbo.rotor_inlet_area(GEOM)
    tri = turbo.velocity_triangle(GEOM.tip_radius, 15000.0, 0.36e-3, hot,
                                  area, 70.0)
    work = tri.blade_speed * tri.tangential  # zero exit swirl
    cp = gas.cp_mass(hot.composition, hot.temperature)
    g = gas.gamma(hot.composition, hot.temperature)
    dt = work / cp
    p_exit = hot.pressure * (1.0 - dt / hot.temperature) ** (g / (g - 1.0))
    _, dh = cycle.expand(hot, p_exit, 1.0)
    assert dh == pytest.approx(work, rel=0.02)


def test_geometry_validation():
    with pytest.raises(ValueError):
        RotorGeometry(inner_diameter=9.0e-3)
    with pytest.raises(ValueError):
        StatorGeometry(exit_flow_angle=89.5)
