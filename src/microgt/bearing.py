"""Spiral-groove thrust air bearing: compressible Reynolds solver and
narrow-groove analytic reference.

The steady isothermal compressible Reynolds equation in polar coordinates,

    (1/r) d/dr ( r p h^3 dp/dr ) + (1/r^2) d/dth ( p h^3 dp/dth )
        = 6 mu omega d(p h)/dth,

is solved on spiral-aligned coordinates u = ln(r/r_in), v = th - u/tan(beta),
in which the groove pattern is a one-dimensional stripe field h(v).  With
the substitution q = p^2 the transformed equation reads

    du( D du q ) - s du( D dv q ) - s dv( D du q ) + (1+s^2) dv( D dv q )
        = 2 Lam exp(2u) dv( sqrt(q) h ),     D = h^3,  s = 1/tan(beta),

discretized by a finite-volume scheme that is vertex-centered in u (ambient
Dirichlet rows at both radii) and cell-centered in the periodic v direction.
Groove edges are v = const lines; across each v-face the land/groove
segments compose exactly: Poiseuille conductance in series, sum(L/h^3), and
the Couette drive weighted by sum(L/h^2)/sum(L/h^3) - the flux-conserving
(harmonic) treatment of the step film.  On grids whose angular count is a
multiple of four times the groove count the edges coincide with faces and
the coefficients are exact.  Yet the load converges at first order in
theta (successive-difference ratios 1.92, 1.88, 1.92 from n_theta = 96 to
1536 at n_r = 65) and pre-asymptotically at second order in r; ROADMAP.md
item 6 tracks the first-order term.
The nonlinear system (the Couette term carries sqrt(q)) is solved by damped
Newton iteration.  The sparse Jacobian comes from colored finite differences
(Curtis, Powell and Reid, 1974): rows take five colours and the periodic
columns six (five when n_theta is a multiple of five), in blocks, so 30
colours (or 25) cover the 5 x 5 residual stencil.  The residual is split into
a row-local half (sqrt(q), the v-differences, the v-face path integrals and
Couette sums of each node row) and a cross-row half.  The colours that
perturb the same columns differ only in which rows they perturb, so the
row-local half is evaluated once per column colour, with every interior row
perturbed, and the cross-row half once per colour on a batch of fields that
take the perturbed rows from it and the other rows from the unperturbed
field.  Each entry reads only its own stencil, so every Jacobian value is
bit-identical to one residual call per colour.  The colour masks and the
CSC pattern depend only on the grid and are built once per grid, so each
Newton step only fills the values.  The Jacobian is factored by SuperLU
with minimum-degree ordering on A^T + A in symmetric mode, since the
stencil is structurally symmetric.  A factorisation costs more than a
Jacobian, so factors are reused (Knoll and Keyes, 2004): each Newton step
is solved against its own Jacobian by iterative refinement with a held
factor (Moler, 1967), to 1e-12 of the step, and factors afresh only when
the corrections stop contracting.  A JacobianFactor carries the factor
across the neighbouring clearances of axial_stiffness and
axial_equilibrium.

The narrow-groove (infinite-groove-number) reference evaluates the
classical effective-medium solution in the incompressible limit and serves
as an independent cross-check on the numerical load.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .gas import AIR_VISCOSITY
from .params import Record, SolverError, param

MIN_RADIAL_NODES = 33  # 32 radial intervals
MIN_ANGULAR_NODES = 64
# Largest compressibility number of the verification battery; runs beyond it
# are reported as outside the verified range.
MAX_VERIFIED_LAMBDA = 30.0
# Narrower stripes (see stripe_cells) can put two groove edges on one v-face
# path, where the edge treatment falls back to first order.
MIN_STRIPE_CELLS = 1.0
NEWTON_TOLERANCE = 1.0e-9  # see solve_reynolds
NEWTON_MAX_ITERATIONS = 60
NEWTON_STALL_ITERATIONS = 3  # see solve_reynolds
EQUILIBRIUM_GRID = (33, 64)  # (n_r, n_theta) of every axial_equilibrium solve
# Grid cells per batch of perturbed fields in the colour sweep: 2**15 float64
# cells keep each temporary near 256 KB, in cache.  Larger blocks raised the
# peak memory by megabytes and ran slower.
JACOBIAN_BLOCK_CELLS = 2 ** 15
# Refinement of a Newton step against a held factor (see _newton_step).  A
# correction shrinking tenfold per sweep reaches the tolerance within the
# sweep cap; at 33x64 to 129x192 a sweep costs 1/25 to 1/50 of a factorisation.
REFINE_TOLERANCE = 1.0e-12
REFINE_CONTRACTION = 0.1
REFINE_MAX_SWEEPS = 12


class NoEquilibriumError(SolverError):
    """Axial balance has no root in the clearance interval."""


@dataclass(frozen=True)
class SpiralGrooveBearing(Record):
    """Spiral-groove thrust face geometry.

    Only the groove depths are reported for the hardware (15 um top, 36 um
    bottom); radii, count, angle and width fraction are toolkit defaults
    sized to the rotor hub annulus and overridable in config.
    """

    inner_radius: float = param("inner_radius_m", 1.0e-3, "(0, inf)")
    outer_radius: float = param("outer_radius_m", 2.2e-3, "(0, inf)")
    # set per face from top_groove_depth_m / bottom_groove_depth_m
    groove_depth: float = param(None, 15.0e-6, "[0, inf)")
    groove_count: int = param("groove_count", 12, "[4, inf)")
    # deg from circumferential
    spiral_angle: float = param("spiral_angle_deg", 20.0, "(5, 85)")
    groove_width_fraction: float = param("groove_width_fraction", 0.5, "(0, 1)")
    pump_direction: str = param(None, "pump-in", "pump-in | pump-out")

    def __post_init__(self):
        super().__post_init__()
        if not self.outer_radius > self.inner_radius:
            raise ValueError("outer_radius_m must exceed inner_radius_m")


@dataclass(frozen=True)
class FilmState(Record):
    nominal_clearance: float = param("nominal_clearance_m", 5.0e-6, "(0, inf)")
    # signed: a negative speed reverses the rotation
    rpm: float = param("rpm", 15000.0)
    ambient_pressure: float = param("ambient_pressure_pa", 101325.0, "(0, inf)")
    viscosity: float = param("viscosity_pa_s", AIR_VISCOSITY, "(0, inf)")

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.rpm / 60.0


@dataclass(frozen=True)
class PressureField:
    """Solved pressures on the spiral-aligned node lattice.

    radii has shape (n_r,); angles and pressures have shape (n_r, n_theta).
    Each radial row carries its own angular stations (the lattice is sheared
    along the spirals); every row is 2 pi periodic, and the first and last
    radial rows sit exactly at ambient pressure.
    """

    radii: np.ndarray  # (n_r,) node radii, m
    angles: np.ndarray  # (n_r, n_theta) node angles in [0, 2pi), rad
    pressures: np.ndarray  # (n_r, n_theta) absolute pressures, Pa
    ambient_pressure: float  # Pa


@dataclass(frozen=True)
class AxialEquilibrium:
    top_clearance: float  # m
    bottom_clearance: float  # m
    top_load: float  # N
    bottom_load: float  # N
    net_load: float  # N, top minus bottom
    converged: bool


def signed_spiral_tangent(bearing: SpiralGrooveBearing) -> float:
    """Tangent of the spiral angle, signed by pump direction.

    Pump-in grooves drag gas inward for positive rotation (pressurising the
    interior); the pump-out face is the mirrored pattern.
    """
    k = math.tan(math.radians(bearing.spiral_angle))
    return -k if bearing.pump_direction == "pump-in" else k


def in_groove(bearing: SpiralGrooveBearing, r, theta):
    """Groove membership of points (r, theta); broadcasts over arrays.

    Grooves are bands centered on the logarithmic spiral seed lines
    theta = ln(r/r_in)/tan(beta) + 2 pi m / N.
    """
    k = signed_spiral_tangent(bearing)
    psi = theta - np.log(np.asarray(r) / bearing.inner_radius) / k
    s = np.mod(psi * bearing.groove_count / (2.0 * math.pi)
               + 0.5 * bearing.groove_width_fraction, 1.0)
    return s < bearing.groove_width_fraction


def compressibility_number(bearing: SpiralGrooveBearing, film: FilmState) -> float:
    """Lambda = 6 mu omega r_out^2 / (p_a c^2)."""
    return (6.0 * film.viscosity * film.omega * bearing.outer_radius ** 2
            / (film.ambient_pressure * film.nominal_clearance ** 2))


def stripe_cells(bearing: SpiralGrooveBearing, n_theta: int) -> float:
    """Angular cells of an n_theta grid across the narrowest groove or land
    stripe."""
    a = bearing.groove_width_fraction
    return min(a, 1.0 - a) * n_theta / bearing.groove_count


def _colored_stencil(n_rows: int, n_theta: int):
    """int32 (source, target, colour) of every entry of the 5 x 5 periodic
    residual stencil, as flat cell indices, and each cell's colour; no two
    cells of one colour reach a common residual.

    Rows take five colours; the periodic columns are split into blocks of
    six and then of five cells, coloured by position in the block, so two
    columns of one colour are at least five apart.  Such a split exists for
    every n_theta >= 20, which MIN_ANGULAR_NODES guarantees; it needs 30
    colours, or 25 when n_theta is a multiple of five.
    """
    cell = np.arange(n_rows * n_theta, dtype=np.int32)
    i, j = np.divmod(cell, n_theta)
    six_wide = 6 * (n_theta % 5)  # columns in blocks of six
    col_colours = 6 if six_wide else 5
    colour = (i % 5) * col_colours + np.where(j < six_wide, j % 6, (j - six_wide) % 5)
    d_i, d_j = np.divmod(np.arange(25, dtype=np.int32), 5)
    t_i = i[:, None] + d_i - 2
    keep = (t_i >= 0) & (t_i < n_rows)
    target = t_i * n_theta + (j[:, None] + d_j - 2) % n_theta
    reach = keep.sum(axis=1)
    return (np.repeat(cell, reach), target[keep], np.repeat(colour, reach),
            colour.reshape(n_rows, n_theta))


@functools.lru_cache(maxsize=8)
def _jacobian_pattern(n_rows: int, n_theta: int):
    """Grid-only structure of the colored finite-difference Jacobian, built
    once per grid and read-only: a boolean mask per colour over the full
    node lattice (the boundary rows carry no colour), and the CSC pattern of
    the whole stencil, columns being sources and rows ascending within a
    column, as the flat index of each entry's value in the (colour, cell)
    array of residual differences, its row and the column pointers.
    """
    source, target, entry_colour, colour = _colored_stencil(n_rows, n_theta)
    n_unknown = n_rows * n_theta
    order = np.lexsort((target, source))
    gather = entry_colour[order].astype(np.intp) * n_unknown + target[order]
    indices = target[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(source, minlength=n_unknown))))
    node_colour = np.pad(colour, ((1, 1), (0, 0)), constant_values=-1)
    masks = node_colour == np.arange(int(colour.max()) + 1)[:, None, None]
    for array in (masks, gather, indices, indptr):
        array.flags.writeable = False
    return masks, gather, indices, indptr


class JacobianFactor:
    """The LU factor of the last Reynolds Jacobian factored, at most one.

    One holder passed to the solve_reynolds calls of neighbouring films on
    one grid lets their Newton steps refine against it (see _newton_step).
    """

    def __init__(self):
        self.lu = None  # SuperLU factor, or None
        self.size = 0  # order of the factored Jacobian


def _newton_step(jac, rhs, factor: JacobianFactor):
    """Solve jac @ step = rhs, refining against the held factor when it
    converges, else factoring jac and holding that factor instead.

    Refinement (Moler, 1967) repeats step += LU^-1 (rhs - jac @ step) from
    step = 0 until the correction is below REFINE_TOLERANCE of the step.  It
    gives up, and jac is factored, when a correction fails to shrink by
    REFINE_CONTRACTION or REFINE_MAX_SWEEPS corrections do not reach the
    tolerance; a held factor of another order is never tried.
    """
    if factor.lu is not None and factor.size == rhs.size:
        step = factor.lu.solve(rhs)
        last = np.max(np.abs(step))
        for _ in range(REFINE_MAX_SWEEPS):
            correction = factor.lu.solve(rhs - jac @ step)
            step += correction
            change = np.max(np.abs(correction))
            if change <= REFINE_TOLERANCE * np.max(np.abs(step)):
                return step
            if not change <= REFINE_CONTRACTION * last:  # also stops on nan
                break
            last = change
    factor.lu = None  # free the stale factor before making the next one
    factor.lu = splu(jac, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                     options={"SymmetricMode": True})
    factor.size = rhs.size
    return factor.lu.solve(rhs)


class _Coefficients(NamedTuple):
    """Film and geometry coefficients of the discrete Reynolds residual for
    one bearing, film and grid, in the normalised variables of the module
    docstring; built by _coefficients and read by _row_terms and _cross_rows.
    Column and v-face fields have shape (n_theta,)."""

    du: float  # radial node spacing in u
    dv: float  # angular cell width in v
    s: float  # 1 / signed tangent of the spiral angle
    lam: float  # signed compressibility number at the inner radius
    u_nodes: np.ndarray  # (n_r,)
    v_nodes: np.ndarray  # (n_theta,) cell centres
    e_nodes: np.ndarray  # (n_r,) exp(2u) at the nodes
    e_face: np.ndarray  # (n_r - 1,) exp(2u) at the u-faces (nodal mean)
    e_cell: np.ndarray  # (n_r - 2,) exp(2u) integrated over each interior span
    h_col: np.ndarray  # column film, land 1
    d_col: np.ndarray  # column Poiseuille coefficient h^3
    len_left: np.ndarray  # v-face path lengths on the node j-1 side
    len_right: np.ndarray  # and on the node j side
    s3: np.ndarray  # Poiseuille path sum of L / h^3
    inv_h2_left: np.ndarray  # Couette path terms L / h^2 of each side
    inv_h2_right: np.ndarray
    valid_left: np.ndarray  # within-strip slope validity for the reconstruction
    valid_right: np.ndarray
    kinked: np.ndarray  # the two nodes of the face have different films


def _coefficients(bearing: SpiralGrooveBearing, film: FilmState,
                  n_r: int, n_theta: int) -> _Coefficients:
    """Coefficients of the residual of bearing and film on an n_r x n_theta
    grid."""
    clearance = film.nominal_clearance
    # compressibility_number carries the rotation sign through omega
    lam = (compressibility_number(bearing, film)
           * (bearing.inner_radius / bearing.outer_radius) ** 2)

    u_span = math.log(bearing.outer_radius / bearing.inner_radius)
    du = u_span / (n_r - 1)
    dv = 2.0 * math.pi / n_theta
    u_nodes = np.linspace(0.0, u_span, n_r)
    v_nodes = (np.arange(n_theta) + 0.5) * dv

    h_land = 1.0
    h_groove = (clearance + bearing.groove_depth) / clearance

    # Column film values (strips are v = const bands).
    col_in_groove = in_groove(bearing, bearing.inner_radius, v_nodes)
    h_col = np.where(col_in_groove, h_groove, h_land)

    # v-face path geometry.  Face j sits between columns j-1 and j; the path
    # between the two nodes may contain one groove edge whose position is
    # known analytically.  Each side's film value and length feed the exact
    # series composites; field means over each side come from within-strip
    # linear reconstruction so that the composites stay second-order
    # accurate across the film step.  In stripe units y the edges sit at the
    # integers and at the integers plus a_frac, in ascending order.
    h_left_col = np.roll(h_col, 1)  # film at node j-1 for face j
    h_right_col = h_col
    a_frac = bearing.groove_width_fraction
    scale_y = bearing.groove_count / (2.0 * math.pi)
    v_ends = (np.arange(n_theta + 1) - 0.5) * dv  # face j spans v_ends[j:j+2]
    y_ends = v_ends * scale_y + 0.5 * a_frac
    m = np.arange(math.floor(y_ends[0]), math.floor(y_ends[-1]) + 2, dtype=float)
    y_edges = np.column_stack((m, m + a_frac)).ravel()
    first = np.searchsorted(y_edges, y_ends[:-1], side="right")
    one_edge = np.searchsorted(y_edges, y_ends[1:], side="left") - first == 1
    v_e = (y_edges[first] - 0.5 * a_frac) / scale_y
    # 0 edges: uniform path; >1 edges (under-resolved stripes): keep the
    # midpoint split, which degrades gracefully to first order.
    len_left = np.where(one_edge, v_e - v_ends[:-1], 0.5 * dv)
    len_right = np.where(one_edge, v_ends[1:] - v_e, 0.5 * dv)

    # exp(2u) integrated over each interior row's control span, and nodal /
    # face values (the face value is the arithmetic nodal mean so the
    # uniform-film wedge cancels exactly).
    e_nodes = np.exp(2.0 * u_nodes)
    return _Coefficients(
        du=du, dv=dv, s=1.0 / signed_spiral_tangent(bearing), lam=lam,
        u_nodes=u_nodes, v_nodes=v_nodes, e_nodes=e_nodes,
        e_face=0.5 * (e_nodes[:-1] + e_nodes[1:]),
        e_cell=(np.exp(2.0 * (u_nodes[1:-1] + 0.5 * du))
                - np.exp(2.0 * (u_nodes[1:-1] - 0.5 * du))) / 2.0,
        h_col=h_col, d_col=h_col ** 3, len_left=len_left, len_right=len_right,
        s3=len_left / h_left_col ** 3 + len_right / h_right_col ** 3,
        inv_h2_left=len_left / h_left_col ** 2,
        inv_h2_right=len_right / h_right_col ** 2,
        valid_left=np.roll(col_in_groove, 2) == np.roll(col_in_groove, 1),
        valid_right=np.roll(col_in_groove, -1) == col_in_groove,
        kinked=h_left_col != h_right_col)


def _side_means(co: _Coefficients, field):
    """Per-face means of a node field over the left/right path sides.

    field has shape (..., rows, n_theta); returns (m_left, m_right) of the
    same shape.  Kink-free faces use the linear interpolant between the two
    nodes; kinked faces extrapolate from inside each strip.
    """
    g_b = field
    g_a = np.roll(field, 1, -1)
    slope_l = np.where(co.valid_left, (g_a - np.roll(field, 2, -1)) / co.dv, 0.0)
    slope_r = np.where(co.valid_right, (np.roll(field, -1, -1) - g_b) / co.dv, 0.0)
    m_l_kink = g_a + 0.5 * slope_l * co.len_left
    m_r_kink = g_b - 0.5 * slope_r * co.len_right
    m_l_plain = 0.75 * g_a + 0.25 * g_b
    m_r_plain = 0.25 * g_a + 0.75 * g_b
    m_l = np.where(co.kinked, m_l_kink, m_l_plain)
    m_r = np.where(co.kinked, m_r_kink, m_r_plain)
    return m_l, m_r


def _row_terms(co: _Coefficients, q):
    """Row-local half of the residual at the full field q of shape (...,
    n_r, n_theta): every term of a node row that reads only that row of q.

    Returns (q, sqrt q, the v-difference of q, the path integral of q over
    each v-face and the Couette path sum of sqrt(q) / h^2), each of q's
    shape.
    """
    p_nodes = np.sqrt(q)
    dq_all = q - np.roll(q, 1, -1)
    m_l_q, m_r_q = _side_means(co, q)
    i_q = co.len_left * m_l_q + co.len_right * m_r_q
    m_l_p, m_r_p = _side_means(co, p_nodes)
    sp = co.inv_h2_left * m_l_p + co.inv_h2_right * m_r_p
    return q, p_nodes, dq_all, i_q, sp


def _cross_rows(co: _Coefficients, terms):
    """Cross-row half of the residual: the residual of every interior cell,
    of shape (..., n_r - 2, n_theta), from the row terms of _row_terms.

    v-face fluxes F_B are composed exactly over the land/groove path
    segments.  The u-face flux F_A needs the cross derivative dvQ, whose
    raw estimate is polluted by the pressure kinks at groove edges; it is
    eliminated through the continuous v-flux,
    F_A = D duQ / (2 (1+s^2)) - s/(1+s^2) (F_B + Lam exp(2u) P H).
    """
    q, p_nodes, dq_all, i_q, sp = terms
    du, dv, s, lam = co.du, co.dv, co.s, co.lam
    one_plus_s2 = 1.0 + s * s
    # d/du of the path integral of Q (for the cross term): central at
    # interior rows, one-sided second order at the boundary rows.
    di_q = np.empty_like(i_q)
    di_q[..., 1:-1, :] = (i_q[..., 2:, :] - i_q[..., :-2, :]) / (2.0 * du)
    di_q[..., 0, :] = (-3.0 * i_q[..., 0, :] + 4.0 * i_q[..., 1, :]
                       - i_q[..., 2, :]) / (2.0 * du)
    di_q[..., -1, :] = (3.0 * i_q[..., -1, :] - 4.0 * i_q[..., -2, :]
                        + i_q[..., -3, :]) / (2.0 * du)

    # Pointwise v-face flux F_B at every node row (continuous in v).
    fb_rows = (0.5 * one_plus_s2 * dq_all - 0.5 * s * di_q
               - lam * co.e_nodes[:, None] * sp) / co.s3

    # u-face flux with the cross term eliminated via F_B.
    fb_at_nodes = 0.5 * (fb_rows + np.roll(fb_rows, -1, -1))
    fb_uface = 0.5 * (fb_at_nodes[..., :-1, :] + fb_at_nodes[..., 1:, :])
    p_uface = 0.5 * (p_nodes[..., :-1, :] + p_nodes[..., 1:, :])
    fa = (co.d_col * (q[..., 1:, :] - q[..., :-1, :]) / (2.0 * one_plus_s2 * du)
          - (s / one_plus_s2)
          * (fb_uface + lam * co.e_face[:, None] * p_uface * co.h_col))
    fu_diff = dv * (fa[..., 1:, :] - fa[..., :-1, :])

    # Cell-integrated v-face fluxes for the interior control volumes.
    fv = (du * (0.5 * one_plus_s2 * dq_all[..., 1:-1, :]
                - 0.5 * s * di_q[..., 1:-1, :])
          - lam * co.e_cell[:, None] * sp[..., 1:-1, :]) / co.s3
    fv_diff = np.roll(fv, -1, -1) - fv

    return fu_diff + fv_diff


def _residual(co: _Coefficients, q):
    """Residual of every interior cell at the full field q of shape (...,
    n_r, n_theta)."""
    return _cross_rows(co, _row_terms(co, q))


def _colour_differences(co: _Coefficients, base_terms, base, masks):
    """Residual differences of the colored finite-difference sweep at the
    full field q, whose row terms are base_terms and residual is base: one
    (n_r - 2, n_theta) array per colour of masks, stacked in colour order.

    Colour c = r * n_col + cc perturbs the interior rows of row colour r
    (every fifth row) at the columns of column colour cc.  Row terms read
    only their own row, so the colours sharing cc take the perturbed rows'
    terms from one evaluation with every interior row perturbed at those
    columns and the other rows' terms from base_terms: the row-local half
    of the residual is evaluated once per column colour, and every
    difference is bit-identical to one residual call per colour.
    """
    eps = 1.0e-7
    q = base_terms[0]
    n_r, n_theta = q.shape
    n_col = len(masks) // 5
    col_masks = masks.reshape(5, n_col, n_r, n_theta).any(axis=0)
    # at most `block` perturbed fields per batch of the cross-row stage
    block = max(1, JACOBIAN_BLOCK_CELLS // q.size)
    col_step, row_step = max(1, block // 5), min(5, block)

    def put_rows(terms, sources, r):
        """Copy the rows of row colour r + k of each source term into slot
        k of the matching batch term."""
        for term, source in zip(terms, sources):
            for k in range(len(term)):
                rows = slice(1 + r + k, n_r - 1, 5)
                term[k, :, rows] = source[..., rows, :]

    # one batch of fields per term, holding q's row terms outside the rows
    # that the current colours perturb
    batch = [np.broadcast_to(held, (row_step, col_step) + held.shape).copy()
             for held in base_terms]
    q_eps = q + eps
    delta = np.empty((5, n_col) + base.shape)
    for cc in range(0, n_col, col_step):
        perturbed = _row_terms(co, np.where(col_masks[cc:cc + col_step], q_eps, q))
        n_cc = len(perturbed[0])
        for r in range(0, 5, row_step):
            n_rc = min(row_step, 5 - r)
            terms = [field[:n_rc, :n_cc] for field in batch]
            put_rows(terms, perturbed, r)
            delta[r:r + n_rc, cc:cc + n_cc] = (_cross_rows(co, terms) - base) / eps
            put_rows(terms, base_terms, r)
    return delta


def _jacobian(co: _Coefficients, terms, base):
    """Colored finite-difference Jacobian of the residual at the full field
    q, whose row terms (_row_terms) are terms and residual is base; CSC
    without explicit zeros."""
    n_r, n_theta = terms[0].shape
    masks, gather, indices, indptr = _jacobian_pattern(n_r - 2, n_theta)
    delta = _colour_differences(co, terms, base, masks)
    # eliminate_zeros compacts indices and indptr in place
    jac = csc_matrix((delta.ravel()[gather], indices.copy(), indptr.copy()),
                     shape=(base.size, base.size))
    jac.eliminate_zeros()
    return jac


def solve_reynolds(bearing: SpiralGrooveBearing, film: FilmState,
                   n_r: int, n_theta: int,
                   factor: JacobianFactor | None = None) -> PressureField:
    """Solve the steady compressible Reynolds equation on an n_r x n_theta grid.

    n_r counts radial node rows (including the two ambient boundary rows);
    n_theta counts angular cells.  For exactly face-aligned groove edges use
    an n_theta that is a multiple of four times the groove count.  A damped
    Newton iteration drives every node's residual below NEWTON_TOLERANCE
    relative to the magnitude of that node's flux terms; steps are halved
    while they push the squared pressure below (0.1 ambient)^2 or fail to
    reduce the residual norm.  A solve whose max scaled residual sets no new
    minimum in NEWTON_STALL_ITERATIONS iterations raises SolverError; every
    converging solve sets one at each step.

    Each Newton step solves against its own Jacobian, by refinement with
    the factor held in `factor` or, when that does not converge, by
    factoring the Jacobian afresh (see _newton_step).  A JacobianFactor
    passed in shares factors with other solves on the grid; without one,
    only the Newton steps of this solve share them.
    """
    if n_r < MIN_RADIAL_NODES or n_theta < MIN_ANGULAR_NODES:
        raise ValueError(
            f"grid must be at least {MIN_RADIAL_NODES} x {MIN_ANGULAR_NODES} nodes"
        )
    p_amb = film.ambient_pressure
    co = _coefficients(bearing, film, n_r, n_theta)
    du, dv, s, lam, e_cell, s3 = co.du, co.dv, co.s, co.lam, co.e_cell, co.s3
    one_plus_s2 = 1.0 + s * s

    # Per-node magnitude of the flux terms, the yardstick of convergence.
    couette = (co.inv_h2_left + co.inv_h2_right) / s3
    scale = (2.0 * dv * co.d_col[None, :] / (one_plus_s2 * du)
             + 2.0 * dv * abs(s) / one_plus_s2
             * (1.0 + abs(lam) * e_cell[:, None] / du * co.h_col[None, :])
             + du * one_plus_s2 * (1.0 / s3 + 1.0 / np.roll(s3, -1))[None, :]
             + abs(lam) * e_cell[:, None] * (couette + np.roll(couette, -1))[None, :]
             + 0.5 * abs(s) * dv
             * (1.0 / s3 + 1.0 / np.roll(s3, -1))[None, :])

    if factor is None:
        factor = JacobianFactor()
    q = np.ones((n_r, n_theta))  # the boundary rows stay at ambient
    terms = _row_terms(co, q)
    f = _cross_rows(co, terms)
    history = []
    for iteration in range(NEWTON_MAX_ITERATIONS):
        res = float(np.max(np.abs(f) / scale))
        history.append(res)
        if res < NEWTON_TOLERANCE:
            break
        if iteration - history.index(min(history)) >= NEWTON_STALL_ITERATIONS:
            raise SolverError(f"residual stopped falling at iteration {iteration}", history)
        try:
            step = _newton_step(_jacobian(co, terms, f), -f.ravel(), factor
                                ).reshape(f.shape)
        except RuntimeError as exc:  # SuperLU: the Jacobian is singular
            raise SolverError(f"{exc} at iteration {iteration}", history) from exc
        norm0 = float(np.linalg.norm(f))
        alpha = 1.0
        for _ in range(40):
            trial = q.copy()
            trial[1:-1] += alpha * step
            if np.min(trial[1:-1]) <= 0.01:
                alpha *= 0.5
                continue
            trial_terms = _row_terms(co, trial)
            f_trial = _cross_rows(co, trial_terms)
            if float(np.linalg.norm(f_trial)) <= (1.0 - 1e-4 * alpha) * norm0:
                break
            alpha *= 0.5
        else:
            raise SolverError(
                f"line search stalled at iteration {iteration}", history)
        q, terms, f = trial, trial_terms, f_trial
    else:
        raise SolverError(
            f"Newton did not reach residual {NEWTON_TOLERANCE:g} in "
            f"{NEWTON_MAX_ITERATIONS} iterations (last {history[-1]:.3e})", history)

    pressures = np.sqrt(q) * p_amb
    radii = bearing.inner_radius * np.exp(co.u_nodes)
    angles = np.mod(co.v_nodes[None, :] + co.u_nodes[:, None] / signed_spiral_tangent(bearing),
                    2.0 * math.pi)
    return PressureField(radii=radii, angles=angles, pressures=pressures,
                         ambient_pressure=p_amb)


def load_capacity(field: PressureField) -> float:
    """Integral of gauge pressure over the annulus, N.

    Rectangle rule along each periodic angular row; across rows the area
    element r dr = r_in^2 exp(2u) du is integrated against piecewise-linear
    nodal weights in closed form, so a field with uniform gauge pressure
    integrates to exactly gauge * annulus area.
    """
    gauge = field.pressures - field.ambient_pressure
    row_mean = gauge.mean(axis=1)

    r_in = field.radii[0]
    u = np.log(field.radii / r_in)

    def ramp_up(a, b):
        # integral of exp(2u) (u - a)/(b - a) over [a, b]
        return (math.exp(2.0 * b) * (2.0 * (b - a) - 1.0) + math.exp(2.0 * a)) \
            / (4.0 * (b - a))

    weights = np.zeros_like(u)
    for i in range(u.size - 1):
        a, b = u[i], u[i + 1]
        total = (math.exp(2.0 * b) - math.exp(2.0 * a)) / 2.0
        rise = ramp_up(a, b)
        weights[i + 1] += rise
        weights[i] += total - rise
    return float(2.0 * math.pi * r_in ** 2 * np.dot(weights, row_mean))


def solve_load(bearing: SpiralGrooveBearing, film: FilmState,
               n_r: int, n_theta: int, factor: JacobianFactor | None = None) -> float:
    """Convenience: solve and integrate the load, N."""
    return load_capacity(solve_reynolds(bearing, film, n_r, n_theta, factor))


def narrow_groove_reference(bearing: SpiralGrooveBearing, film: FilmState) -> float:
    """Narrow-groove-theory load in the incompressible limit, N.

    Effective-medium coefficients for the striped film (parallel/series
    conductances and the Couette coupling) give an axisymmetric radial
    pumping flux; the pressure profile follows from uniform net through-flow
    with ambient pressure at both edges.  Positive for pump-in at positive
    rotation, negative for pump-out.
    """
    if bearing.groove_count < 12:
        warnings.warn(
            f"narrow-groove theory assumes many grooves; count = "
            f"{bearing.groove_count} is below 12", stacklevel=2)
    a = bearing.groove_width_fraction
    h1 = film.nominal_clearance
    h2 = film.nominal_clearance + bearing.groove_depth
    k_par = (1.0 - a) * h1 ** 3 + a * h2 ** 3
    k_ser = 1.0 / ((1.0 - a) / h1 ** 3 + a / h2 ** 3)
    h_t = (1.0 - a) * h1 + a * h2
    h_n = k_ser * ((1.0 - a) / h1 ** 2 + a / h2 ** 2)
    beta = math.radians(bearing.spiral_angle)
    sign = 1.0 if bearing.pump_direction == "pump-in" else -1.0
    sin_b, cos_b = math.sin(beta), math.cos(beta)
    coupling = sin_b * cos_b * (h_t - h_n)
    k_rr = k_par * sin_b ** 2 + k_ser * cos_b ** 2

    r_in, r_out = bearing.inner_radius, bearing.outer_radius
    log_ratio = math.log(r_out / r_in)
    j_quad = ((r_out ** 4 - r_in ** 4) / 4.0
              - r_in ** 2 * (r_out ** 2 - r_in ** 2) / 2.0)
    j_log = (r_out ** 2 / 2.0 * log_ratio - (r_out ** 2 - r_in ** 2) / 4.0)
    j_total = j_quad - (r_out ** 2 - r_in ** 2) / log_ratio * j_log
    # j_total < 0 for r_out > r_in, so inward pumping (negative coupling
    # flux) yields a positive load.
    return sign * (-6.0) * math.pi * film.viscosity * film.omega \
        * coupling * j_total / k_rr


def axial_stiffness(bearing: SpiralGrooveBearing, film: FilmState,
                    n_r: int, n_theta: int, relative_step: float = 1.0e-3,
                    factor: JacobianFactor | None = None) -> float:
    """Central-difference stiffness -dW/dc, N/m (positive = restoring).

    The c + dc solve refines against the factor held in `factor` (say, of
    a solve of film itself), and the c - dc solve against the one the
    c + dc solve leaves."""
    dc = relative_step * film.nominal_clearance
    if factor is None:
        factor = JacobianFactor()
    load_hi = solve_load(bearing, replace(film, nominal_clearance=film.nominal_clearance + dc),
                         n_r, n_theta, factor)
    load_lo = solve_load(bearing, replace(film, nominal_clearance=film.nominal_clearance - dc),
                         n_r, n_theta, factor)
    return -(load_hi - load_lo) / (2.0 * dc)


def axial_equilibrium(top: SpiralGrooveBearing, bottom: SpiralGrooveBearing,
                      total_gap: float, external_load: float, film: FilmState,
                      load_tolerance: float = 1.0e-6,
                      scan_points: int = 48) -> AxialEquilibrium:
    """Clearance split where the top/bottom load difference balances an
    external axial load.

    Sign convention: each face's load is the gauge-pressure integral of its
    own film; net_load = top_load - bottom_load is the force the pair exerts
    pressing the rotor toward the bottom face, and equilibrium makes it
    equal the externally applied load (positive pressing the rotor up
    against the pair, e.g. drive-gas lift of magnitude rotor weight).  Both
    faces run film with its clearance replaced by their own.

    Scans c_top for a sign change of the imbalance, then bisects to
    |net_load - external_load| <= load_tolerance.  Every film is solved on
    EQUILIBRIUM_GRID, and each face's solves refine against the factor its
    previous solves left.
    """
    if total_gap <= 0.0:
        raise ValueError("total_gap must be positive")
    factor_top, factor_bot = JacobianFactor(), JacobianFactor()

    def net(c_top):
        w_top = solve_load(top, replace(film, nominal_clearance=c_top),
                           *EQUILIBRIUM_GRID, factor_top)
        w_bot = solve_load(bottom, replace(film, nominal_clearance=total_gap - c_top),
                           *EQUILIBRIUM_GRID, factor_bot)
        return w_top - w_bot, w_top, w_bot

    lo_frac, hi_frac = 0.02, 0.98
    fractions = np.linspace(lo_frac, hi_frac, scan_points)
    values = []
    c_lo = c_hi = None
    for frac in fractions:
        imbalance = net(frac * total_gap)[0] - external_load
        values.append(imbalance)
        if len(values) > 1 and values[-2] * values[-1] <= 0.0:
            c_lo = fractions[len(values) - 2] * total_gap
            c_hi = frac * total_gap
            lo_val = values[-2]
            break
    if c_lo is None:
        raise NoEquilibriumError(
            f"no sign change of the axial imbalance over c_top in "
            f"[{lo_frac * total_gap:.3e}, {hi_frac * total_gap:.3e}] m; "
            f"endpoint imbalances {values[0]:.3e} N and {values[-1]:.3e} N"
        )

    clearance_tolerance = 1.0e-10  # m, pins the split well below load noise
    for _ in range(80):
        c_mid = 0.5 * (c_lo + c_hi)
        net_mid, w_top, w_bot = net(c_mid)
        imbalance = net_mid - external_load
        if abs(imbalance) <= load_tolerance and (c_hi - c_lo) <= clearance_tolerance:
            break
        if lo_val * imbalance <= 0.0:
            c_hi = c_mid
        else:
            c_lo = c_mid
            lo_val = imbalance
    else:
        c_mid = 0.5 * (c_lo + c_hi)
        net_mid, w_top, w_bot = net(c_mid)
        imbalance = net_mid - external_load
    return AxialEquilibrium(
        top_clearance=c_mid, bottom_clearance=total_gap - c_mid,
        top_load=w_top, bottom_load=w_bot, net_load=net_mid,
        converged=abs(imbalance) <= load_tolerance)
