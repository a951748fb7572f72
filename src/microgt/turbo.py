"""Meanline radial-turbine analysis: velocity triangles, Euler work,
incidence matching, cold-drive derating and DRIE-imbalance load.

Angle convention: degrees from the radial (meridional) direction, positive
in the rotation sense, so tan(angle) = tangential / meridional component.
Blade metal angles and the stator exit angle are not reported for the
hardware; the defaults are toolkit choices exposed in the scenario config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gas
from .gas import GasState
from .params import Record, param

SILICON_DENSITY = 2330.0  # kg/m^3
BLOCKAGE_FACTOR = 0.9  # flow-area fraction left open by blade thickness
BLADE_FILL_FRACTION = 0.3  # solid fraction of the bladed annulus
GRAVITY = 9.80665  # m/s^2


@dataclass(frozen=True)
class RotorGeometry(Record):
    outer_diameter: float = param("outer_diameter_m", 8.2e-3, "(0, inf)")
    inner_diameter: float = param("inner_diameter_m", 4.4e-3, "(0, inf)")
    # half of the 0.8 mm wafer
    blade_height: float = param("blade_height_m", 0.4e-3, "(0, inf)")
    # Inlet metal angle, deg from radial, matched to zero incidence for
    # room-temperature drive air at 0.36 g/s near the 15,000 rpm test speed.
    inlet_blade_angle: float = param("inlet_blade_angle_deg", 68.6, "(-90, 90)")

    def __post_init__(self):
        super().__post_init__()
        if not self.outer_diameter > self.inner_diameter:
            raise ValueError("outer_diameter_m must exceed inner_diameter_m")
        try:  # the weight is the bearing's default external axial load
            finite = math.isfinite(self.rotor_mass * GRAVITY)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("outer_diameter_m and blade_height_m give a rotor weight "
                             "beyond float range")

    @property
    def tip_radius(self) -> float:
        return 0.5 * self.outer_diameter

    @property
    def hub_radius(self) -> float:
        return 0.5 * self.inner_diameter

    @property
    def rotor_mass(self) -> float:
        """Disk plus bladed-annulus silicon mass, kg.

        The backing disk spans the full outer diameter at blade height
        thickness (the un-etched half of the wafer); blades occupy
        BLADE_FILL_FRACTION of the annulus between hub and tip.
        """
        r_tip, r_hub = self.tip_radius, self.hub_radius
        disk = math.pi * r_tip ** 2 * self.blade_height
        blades = (BLADE_FILL_FRACTION * math.pi * (r_tip ** 2 - r_hub ** 2)
                  * self.blade_height)
        return SILICON_DENSITY * (disk + blades)


@dataclass(frozen=True)
class StatorGeometry(Record):
    # deg from radial
    exit_flow_angle: float = param("stator_exit_angle_deg", 70.0, "(0, 89)")


@dataclass(frozen=True)
class VelocityTriangle:
    blade_speed: float  # U, m/s
    meridional: float  # Cm, m/s
    tangential: float  # Ctheta, m/s
    relative_tangential: float  # Wtheta = Ctheta - U, m/s
    absolute_angle: float  # deg
    relative_angle: float  # deg


def blade_speed(radius: float, rpm: float) -> float:
    """U = omega * r, m/s."""
    if radius < 0.0 or rpm < 0.0:
        raise ValueError("radius and rpm must be non-negative")
    return 2.0 * math.pi * rpm / 60.0 * radius


def rotor_inlet_area(geometry: RotorGeometry) -> float:
    """Cylindrical through-flow area at the rotor tip, m^2."""
    return (2.0 * math.pi * geometry.tip_radius * geometry.blade_height
            * BLOCKAGE_FACTOR)


def rotor_exit_area(geometry: RotorGeometry) -> float:
    """Cylindrical through-flow area at the rotor hub, m^2."""
    return (2.0 * math.pi * geometry.hub_radius * geometry.blade_height
            * BLOCKAGE_FACTOR)


def velocity_triangle(radius: float, rpm: float, mass_flow: float,
                      gas_state: GasState, flow_area: float,
                      absolute_flow_angle: float) -> VelocityTriangle:
    """Velocity triangle at one radius from continuity and the flow angle."""
    if flow_area <= 0.0:
        raise ValueError("flow_area must be positive")
    rho = gas.density(gas_state)
    c_m = mass_flow / (rho * flow_area)
    c_theta = c_m * math.tan(math.radians(absolute_flow_angle))
    u = blade_speed(radius, rpm)
    w_theta = c_theta - u
    return VelocityTriangle(
        blade_speed=u,
        meridional=c_m,
        tangential=c_theta,
        relative_tangential=w_theta,
        absolute_angle=math.degrees(math.atan2(c_theta, c_m)),
        relative_angle=math.degrees(math.atan2(w_theta, c_m)),
    )


def incidence(triangle: VelocityTriangle, blade_angle: float) -> float:
    """Relative flow angle minus blade metal angle, degrees."""
    return triangle.relative_angle - blade_angle


def design_rpm_for_zero_incidence(radius: float, mass_flow: float,
                                  gas_state: GasState, flow_area: float,
                                  absolute_flow_angle: float,
                                  blade_angle: float) -> float:
    """Rotation speed at which the relative flow matches the blade angle.

    Zero incidence requires U = Cm (tan(alpha) - tan(beta_blade)), which is
    linear in rpm, so the solution is closed-form.
    """
    rho = gas.density(gas_state)
    c_m = mass_flow / (rho * flow_area)
    u = c_m * (math.tan(math.radians(absolute_flow_angle))
               - math.tan(math.radians(blade_angle)))
    return u * 60.0 / (2.0 * math.pi * radius)


def euler_specific_work(inlet: VelocityTriangle, exit: VelocityTriangle) -> float:
    """Euler turbomachinery work U_in Ctheta_in - U_out Ctheta_out, J/kg."""
    return inlet.blade_speed * inlet.tangential - exit.blade_speed * exit.tangential


def cold_drive_derate(hot_state: GasState, cold_state: GasState,
                      geometry: RotorGeometry, mass_flow: float):
    """Power and zero-incidence-rpm ratios for cold versus hot drive gas.

    Both states run the same mass flow through the same geometry, behind the
    default stator, with zero exit swirl; each is operated at its own
    zero-incidence speed.  Because U and Ctheta both scale with
    Cm = mdot / (rho A), the power ratio is the squared meridional-velocity
    ratio and the rpm ratio is the plain one.
    Returns (power_ratio, rpm_ratio), both <= 1 for a colder, denser drive.
    """
    area = rotor_inlet_area(geometry)
    alpha = StatorGeometry().exit_flow_angle
    beta = geometry.inlet_blade_angle

    def operating_point(state):
        rpm = design_rpm_for_zero_incidence(geometry.tip_radius, mass_flow,
                                            state, area, alpha, beta)
        tri = velocity_triangle(geometry.tip_radius, rpm, mass_flow, state,
                                area, alpha)
        return rpm, tri.blade_speed * tri.tangential  # zero exit swirl

    rpm_hot, work_hot = operating_point(hot_state)
    rpm_cold, work_cold = operating_point(cold_state)
    if work_hot == 0.0 or rpm_hot == 0.0:
        raise ValueError(
            "hot-state zero-incidence point is degenerate; the stator exit "
            "angle must exceed the inlet blade angle"
        )
    return work_cold / work_hot, rpm_cold / rpm_hot


def imbalance_load(geometry: RotorGeometry, etch_nonuniformity_fraction: float,
                   rpm: float):
    """Worst-case centrifugal load from DRIE etch-depth non-uniformity.

    The blade-layer height varies linearly across the rotor diameter,
    h(x) = h0 (1 + f x / D), which offsets the mass centroid of the bladed
    annulus.  Returns (load N, centroid offset m); load = m_rotor e omega^2.
    """
    if not 0.0 <= etch_nonuniformity_fraction < 1.0:
        raise ValueError("etch_nonuniformity_fraction must lie in [0, 1)")
    r_tip = geometry.tip_radius
    r_hub = geometry.hub_radius
    # First moment of the tilted blade layer: integral of x * h(x) over the
    # annulus; the symmetric h0 term drops, leaving f h0 / (2 r_tip) * Ix
    # with Ix = pi/4 (r_tip^4 - r_hub^4).
    moment = (SILICON_DENSITY * BLADE_FILL_FRACTION * geometry.blade_height
              * etch_nonuniformity_fraction / (2.0 * r_tip)
              * math.pi / 4.0 * (r_tip ** 4 - r_hub ** 4))
    offset = moment / geometry.rotor_mass
    omega = 2.0 * math.pi * rpm / 60.0
    return moment * omega ** 2, offset
