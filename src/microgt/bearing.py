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
(Curtis, Powell and Reid, 1974; Coleman and More, 1983), coloured by the
columns each residual reads: rows i-2 to i+2, and columns t-1 to t+1 plus
t-2 or t+2 only at the kinked faces whose side slope reads them.  Rows take
five colours and the periodic columns a greedy colouring of that reach, 4
on the default face, so 20 colours cover it where the full 5 x 5 box took
30 (25 when n_theta is a multiple of five), never more.  The residual is
split into a row-local half (sqrt(q), the v-differences, the v-face path
integrals and Couette sums of each node row) and a cross-row half.  The
colours that perturb the same columns differ only in which rows they
perturb, so the row-local half is evaluated once per column colour, with
every row perturbed, and the cross-row half once per colour on a
batch of fields that take the perturbed rows from it and the other rows
from the unperturbed field.  Each entry reads only its own reach, so every
Jacobian value is bit-identical to one residual call per box colour, and
the pattern holds the reach only, less the exact zeros each Jacobian drops.
The colour masks and the CSC pattern depend only on the grid and the groove
pattern and are built once per pair, so each Newton step only fills the
values.  The fill-reducing order is built with them: SuperLU's minimum-degree
ordering on A^T + A (Liu, 1985), since the stencil is structurally
symmetric, computed once from the pattern, whose rows and columns are then
laid out in that order.  So each Jacobian is assembled already ordered and
is factored by SuperLU (Demmel et al., 1999) in natural order and symmetric
mode; the Newton step gathers the residual into that order and scatters the
step back.  A factorisation costs more than a Jacobian, so factors are
reused (Knoll and Keyes, 2004): each Newton step is solved against its own
Jacobian by iterative refinement with a held factor (Moler, 1967), to 1e-12
of the step, and factors afresh only when the corrections stop contracting.
A JacobianFactor carries the factor across the neighbouring clearances of
axial_stiffness and axial_equilibrium.  scipy is imported only where a
Jacobian is built or factored, so a process that solves no Reynolds
equation never loads it.

The narrow-groove (infinite-groove-number) reference evaluates the
classical effective-medium solution in the incompressible limit.  It
cross-checks the numerical load and steers axial_equilibrium's scan and,
scaled by each face's 2D/model load ratio, the narrowing steps of its
bisection.  Each step solves one of the bisection's own midpoints strictly
inside the solved bracket, and the bracket's ends alone give the side of
every level, above the 1e-10 m cells and below them.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .gas import AIR_VISCOSITY
from .params import Record, SolverError, bracketed_root, param

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

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.omega):  # |rpm| above about 2.9e307
            raise ValueError(f"rpm = {self.rpm!r}: angular speed beyond float range")

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
    stable: bool  # the imbalance falls across the solved scan cell as c_top rises


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


def _colored_stencil(n_rows: int, n_theta: int, reach_left, reach_right):
    """int32 (source, target, colour) of every entry of the residual's
    reach, as flat cell indices, and each cell's colour; no two cells of one
    colour reach a common residual.

    The residual of cell (i, t) reads q at rows i-2 to i+2 and columns t-1,
    t and t+1, and also column t-2 where reach_left[t] and column t+2 where
    reach_right[t] (_reach); every other read is a branch that np.where
    discards.  Rows take five colours.  The periodic columns are coloured
    greedily in order, each taking the lowest colour that no column sharing
    a reading residual holds.  Where that needs more colours than the full
    5 x 5 box, the columns take the box colouring instead: blocks of six and
    then of five columns, coloured by position in the block, so two columns
    of one colour are at least five apart.  Such a split exists for every
    n_theta >= 20, which MIN_ANGULAR_NODES guarantees, so there are at most
    30 colours, or 25 when n_theta is a multiple of five.
    """
    reads = np.ones((n_theta, 5), dtype=bool)  # column t reads t + offset - 2
    reads[:, 0], reads[:, 4] = reach_left, reach_right
    column = np.arange(n_theta, dtype=np.int32)
    clash = [set() for _ in range(n_theta)]  # columns sharing a reading residual
    for cols in np.where(reads, (column[:, None] + np.arange(-2, 3)) % n_theta,
                         -1).tolist():
        cols = [c for c in cols if c >= 0]
        for c in cols:
            clash[c].update(cols)
    greedy = [-1] * n_theta
    for j in range(n_theta):
        used = {greedy[k] for k in clash[j]}
        greedy[j] = next(c for c in range(len(used) + 1) if c not in used)
    six_wide = 6 * (n_theta % 5)  # columns in blocks of six
    col_colour = np.array(greedy, dtype=np.int32)
    if max(greedy) >= (6 if six_wide else 5):
        col_colour = np.where(column < six_wide, column % 6, (column - six_wide) % 5)
    n_col = int(col_colour.max()) + 1

    cell = np.arange(n_rows * n_theta, dtype=np.int32)
    i, j = np.divmod(cell, n_theta)
    colour = (i % 5) * n_col + col_colour[j]
    d_i, d_j = np.divmod(np.arange(25, dtype=np.int32), 5)
    t_i = i[:, None] + d_i - 2
    t_j = (j[:, None] + d_j - 2) % n_theta
    keep = (t_i >= 0) & (t_i < n_rows) & reads[t_j, 4 - d_j]
    target = t_i * n_theta + t_j
    reach = keep.sum(axis=1)
    return (np.repeat(cell, reach), target[keep], np.repeat(colour, reach),
            colour.reshape(n_rows, n_theta))


@functools.lru_cache(maxsize=8)
def _jacobian_pattern(n_rows: int, n_theta: int, reach_left: bytes, reach_right: bytes):
    """Structure of the colored finite-difference Jacobian of a grid and
    the reach masks of its groove pattern (_reach, as bytes), built once per
    grid and groove pattern and read-only: a boolean mask over the n_theta
    columns per column colour of _colored_stencil, the cell of each
    unknown's position in the minimum-degree order of the reach, and the
    CSC pattern of the reach in that order, columns being sources and rows
    ascending within a column, as the int32 flat index of each entry's
    value in the (colour, cell) array of residual differences, its row and
    the column pointers.

    The order is SuperLU's MMD_AT_PLUS_A column order, with its
    elimination-tree postorder, of the reach in cell order; factored in
    natural order, the reordered Jacobian is eliminated as that ordering
    would eliminate it, without recomputing the ordering.  Minimum degree
    breaks ties by the input numbering, so it must see cell order: given an
    ordered matrix it picks another order, which can fill far more.  The
    order is read off an incomplete factor that drops every off-diagonal
    entry of a matrix on the reach whose diagonal dominates (an all-ones
    matrix is singular), so the ordering is its only sizeable work.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import spilu
    source, target, entry_colour, colour = _colored_stencil(
        n_rows, n_theta, np.frombuffer(reach_left, dtype=bool),
        np.frombuffer(reach_right, dtype=bool))
    n_unknown = n_rows * n_theta
    # a column holds at most 24 entries besides its diagonal
    reach = csc_matrix((np.where(source == target, 25.0, 1.0), (target, source)),
                       shape=(n_unknown, n_unknown))
    position = spilu(reach, drop_tol=np.inf, fill_factor=1, permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.1, options={"SymmetricMode": True}).perm_c
    del reach  # before the sort's temporaries
    cells = np.argsort(position)
    column, row = position[source], position[target]
    order = np.lexsort((row, column))
    # int32 like the stencil: 30 colours x config.MAX_GRID_NODES cells fit
    gather = entry_colour[order] * n_unknown + target[order]
    indices = row[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(column, minlength=n_unknown))))
    masks = colour[0] == np.arange(int(colour[0].max()) + 1)[:, None]
    for array in (masks, cells, gather, indices, indptr):
        array.flags.writeable = False
    return masks, cells, gather, indices, indptr


def splu(jac, **options):
    """scipy.sparse.linalg.splu, imported on its first call: scipy is most
    of a process's start-up time, and only a Reynolds solve needs it."""
    from scipy.sparse.linalg import splu as superlu
    return superlu(jac, **options)


class JacobianFactor:
    """The LU factor of the last Reynolds Jacobian factored, at most one.

    One holder passed to the solve_reynolds calls of neighbouring films on
    one grid lets their Newton steps refine against it (see _newton_step).
    """

    def __init__(self):
        self.lu = None  # SuperLU factor, or None


def _newton_step(jac, rhs, factor: JacobianFactor):
    """Solve jac @ step = rhs, refining against the held factor when it
    converges, else factoring jac and holding that factor instead.

    Refinement (Moler, 1967) repeats step += LU^-1 (rhs - jac @ step) from
    step = 0 until the correction is below REFINE_TOLERANCE of the step.  It
    gives up, and jac is factored, when a correction fails to shrink by
    REFINE_CONTRACTION or REFINE_MAX_SWEEPS corrections do not reach the
    tolerance; a held factor of another order is never tried.
    """
    if factor.lu is not None and factor.lu.shape[0] == rhs.size:
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
    # jac comes in _jacobian_pattern's minimum-degree order
    factor.lu = splu(jac, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                     options={"SymmetricMode": True})
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
    # the first two edges above each face's start y_lo; one_edge if only the
    # first lies inside the face
    y_lo, y_hi = y_ends[:-1], y_ends[1:]
    m = np.floor(y_lo)
    past_a = m + a_frac > y_lo
    e1 = np.where(past_a, m + a_frac, m + 1.0)
    e2 = np.where(past_a, m + 1.0, m + 1.0 + a_frac)
    one_edge = (e1 < y_hi) & (e2 >= y_hi)
    v_e = (e1 - 0.5 * a_frac) / scale_y
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


def _reach(co: _Coefficients):
    """Boolean masks of the residual columns t that read q column t-2 and of
    those that read t+2: face t takes its left slope from column t-2, and
    face t+1 its right slope from column t+2, where the face is kinked and
    the slope stays within one strip (_side_means)."""
    return co.kinked & co.valid_left, np.roll(co.kinked & co.valid_right, -1)


def _colour_differences(co: _Coefficients, base_terms, base, masks):
    """Residual differences of the colored finite-difference sweep at the
    full field q, whose row terms are base_terms and residual is base: one
    (n_r - 2, n_theta) array per colour, stacked in colour order.

    Colour c = r * n_col + cc perturbs the interior rows of row colour r
    (every fifth row) at the columns of column colour cc, masks[cc].  Row
    terms read only their own row, so the colours sharing cc take the
    perturbed rows' terms from one evaluation with every row perturbed at
    those columns, and the other rows' terms from base_terms; the boundary
    rows' perturbed terms are never read.  So the row-local half of the
    residual is evaluated once per column colour, and every difference is
    bit-identical to one residual call per colour.
    """
    eps = 1.0e-7
    q = base_terms[0]
    n_r = len(q)
    n_col = len(masks)
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
        perturbed = _row_terms(co, np.where(masks[cc:cc + col_step, None], q_eps, q))
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
    without explicit zeros, its rows and columns in the minimum-degree order
    of _jacobian_pattern.  Returns it and the flat cell of each position."""
    from scipy.sparse import csc_matrix
    n_r, n_theta = terms[0].shape
    reach_left, reach_right = _reach(co)
    masks, cells, gather, indices, indptr = _jacobian_pattern(
        n_r - 2, n_theta, reach_left.tobytes(), reach_right.tobytes())
    delta = _colour_differences(co, terms, base, masks)
    # eliminate_zeros compacts indices and indptr in place
    jac = csc_matrix((delta.ravel()[gather], indices.copy(), indptr.copy()),
                     shape=(base.size, base.size))
    jac.eliminate_zeros()
    return jac, cells


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
    converging solve sets one at each step.  So does a film whose starting
    residual is not finite, such as one whose compressibility number
    overflows, before any factorisation.

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

    # A film beyond float range overflows the flux scale or the starting
    # residual.  The test after this block raises for it, before any
    # factorisation, so numpy's warnings would only repeat it.  Every later
    # residual is a line-search trial whose norm did not grow (see there).
    with np.errstate(over="ignore", invalid="ignore"):
        # Per-node magnitude of the flux terms, the yardstick of convergence.
        couette = (co.inv_h2_left + co.inv_h2_right) / s3
        scale = (2.0 * dv * co.d_col[None, :] / (one_plus_s2 * du)
                 + 2.0 * dv * abs(s) / one_plus_s2
                 * (1.0 + abs(lam) * e_cell[:, None] / du * co.h_col[None, :])
                 + du * one_plus_s2 * (1.0 / s3 + 1.0 / np.roll(s3, -1))[None, :]
                 + abs(lam) * e_cell[:, None] * (couette + np.roll(couette, -1))[None, :]
                 + 0.5 * abs(s) * dv
                 * (1.0 / s3 + 1.0 / np.roll(s3, -1))[None, :])
        q = np.ones((n_r, n_theta))  # the boundary rows stay at ambient
        terms = _row_terms(co, q)
        f = _cross_rows(co, terms)
    if not (np.isfinite(scale).all() and np.isfinite(f).all()):
        raise SolverError(
            "residual not finite at iteration 0 (compressibility number "
            f"{compressibility_number(bearing, film):.3e})")

    if factor is None:
        factor = JacobianFactor()
    history = []
    for iteration in range(NEWTON_MAX_ITERATIONS):
        res = float(np.max(np.abs(f) / scale))
        history.append(res)
        if res < NEWTON_TOLERANCE:
            break
        if iteration - history.index(min(history)) >= NEWTON_STALL_ITERATIONS:
            raise SolverError(f"residual stopped falling at iteration {iteration}", history)
        try:
            jac, cells = _jacobian(co, terms, f)
            ordered = _newton_step(jac, -f.ravel()[cells], factor)
        except RuntimeError as exc:  # SuperLU: the Jacobian is singular
            raise SolverError(f"{exc} at iteration {iteration}", history) from exc
        step = np.empty(f.shape)
        step.ravel()[cells] = ordered  # each cell's entry of the ordered step
        # A finite residual near the float limit has an inf norm; the stall
        # test, not a numpy warning, reports a solve that then stops falling.
        with np.errstate(over="ignore"):
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
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(f_trial))
            if norm <= (1.0 - 1e-4 * alpha) * norm0:
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
    integrates to exactly gauge * annulus area.  On [a, b], with w = b - a,
    node b weighs (e^2b (2w - 1) + e^2a) / 4w and node a the rest of
    (e^2b - e^2a) / 2.
    """
    gauge = field.pressures - field.ambient_pressure
    row_mean = gauge.mean(axis=1)

    r_in = field.radii[0]
    u = np.log(field.radii / r_in)
    # math.exp, not np.exp: numpy's SIMD exp can differ in the last bit, and
    # the loads are pinned to theirs
    e = np.fromiter(map(math.exp, 2.0 * u), float, u.size)
    w = np.diff(u)
    rise = (e[1:] * (2.0 * w - 1.0) + e[:-1]) / (4.0 * w)
    weights = np.zeros_like(u)
    weights[1:] += rise
    weights[:-1] += (e[1:] - e[:-1]) / 2.0 - rise
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
    return _narrow_groove_load(bearing, film, film.nominal_clearance)


def _narrow_groove_load(bearing: SpiralGrooveBearing, film: FilmState, clearance):
    """narrow_groove_reference at a land clearance (a float or an array)
    in place of film's, without the groove-count warning."""
    a = bearing.groove_width_fraction
    h1 = clearance
    h2 = clearance + bearing.groove_depth
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

    The scan grid is scan_points evenly spaced c_top from 2% to 98% of the
    gap, and a scan cell is two neighbours whose imbalances have a product
    <= 0.  The narrow-groove model (narrow_groove_reference, without its
    groove-count warning) costs microseconds and picks where to look.
    sigma is the sign of its imbalance, W_NGT,top(c) - W_NGT,bot(gap - c)
    - external_load, at the first point, and the seed is the first later
    point where sigma times the model is <= 0 (the second point if none
    is).  If sigma times the solved imbalance is > 0 at the seed, the scan
    walks up to the first point where it is <= 0; otherwise down to the
    first where it is > 0.  If the walk leaves the grid, the cell is the
    first from the low end, every solved point reused, and
    NoEquilibriumError is raised only once every point is solved.  With
    one sign change on the grid the walk ends in the cell that a scan up
    from the low end finds; with several, in the first it meets, perhaps
    not the first from the low end.  Then it halves the scan cell until a
    cell 1e-10 m wide or less (or whose ends are adjacent floats, at c_top
    above about 1e6 m) has a midpoint with |net_load - external_load| <=
    load_tolerance, or 80 times, and returns that midpoint.  It keeps
    [a, b], the solved ends of the root's bracket, from the scan cell's on,
    and takes every level's side from them.  While the cell's midpoint lies
    strictly inside (a, b), a narrowing step solves one point, which
    replaces the end on its side; a point or scan end whose imbalance is
    exactly 0 becomes both ends.  Then the cell keeps the half on b's side:
    the low half if the midpoint is at or above b.  The step roots, with
    bracketed_root, the faces' model loads scaled by their 2D/model
    ratios, interpolated linearly in c_top between a and b so as
    to equal the solved imbalance at both ends (output space mapping,
    Bandler et al., 1994); a face whose ratio is not finite (no model load)
    takes 1, and so adds its model load of 0.  After a step that did not
    halve |imbalance|, or when the corrected model is not finite at a point
    the root evaluates, the target is the midpoint of [a, b] instead.  It
    solves the point nearest the target among the midpoints strictly inside
    (a, b) that halving the bisection's cell toward the target gives, down
    to the first cell 1e-10 m wide or less: in a cell that narrow, the
    midpoint itself.  Each c_top is solved once, so a returned midpoint
    that is a or b costs no further solve.  Assumed: the imbalance
    crosses zero once in the scan cell (2.04% of the gap at 48 scan
    points), so each side is the one a solve would give.  Were there more
    crossings, the answer would still be a solved root in that cell to
    1e-10 m, perhaps not the crossing plain bisection picks.  Every film is
    solved on EQUILIBRIUM_GRID, and each face's solves refine against the
    factor its previous solves left.  stable is whether the imbalance falls
    from the low end of the scan cell to its high end, so that a push
    toward either face meets a restoring force; it takes no solve.
    """
    if total_gap <= 0.0:
        raise ValueError("total_gap must be positive")
    factor_top, factor_bot = JacobianFactor(), JacobianFactor()

    @functools.cache  # each c_top is solved once
    def net(c_top):  # the imbalance at c_top and each face's load
        w_top = solve_load(top, replace(film, nominal_clearance=c_top),
                           *EQUILIBRIUM_GRID, factor_top)
        w_bot = solve_load(bottom, replace(film, nominal_clearance=total_gap - c_top),
                           *EQUILIBRIUM_GRID, factor_bot)
        return w_top - w_bot - external_load, w_top, w_bot

    def model(c_top):
        return np.array([_narrow_groove_load(top, film, c_top),
                         _narrow_groove_load(bottom, film, total_gap - c_top)])

    def corrected(c_top):  # the model through the solved ends a, b, by ratios k
        w = (k[0] + (k[1] - k[0]) * ((c_top - a[0]) / (b[0] - a[0]))) * model(c_top)
        value = w[0] - w[1] - external_load
        if not math.isfinite(value):
            raise FloatingPointError("corrected model not finite")
        return value

    lo_frac, hi_frac = 0.02, 0.98
    c_scan = np.linspace(lo_frac, hi_frac, scan_points) * total_gap

    def scan_value(i):
        return net(c_scan[i])[0]

    with np.errstate(all="ignore"):  # a model that overflows only moves the seed
        loads = model(c_scan)
        guess = loads[0] - loads[1] - external_load
        sigma = np.sign(guess[0])
        crossed = np.flatnonzero(sigma * guess[1:] <= 0.0)
    i = crossed[0] + 1 if crossed.size else min(1, scan_points - 1)
    up = sigma * scan_value(i) > 0.0
    while 0 <= i < scan_points and (sigma * scan_value(i) > 0.0) == up:
        i += 1 if up else -1
    if 0 <= i < scan_points:
        lo, hi = (i - 1, i) if up else (i, i + 1)
    else:
        lo = next((j for j in range(scan_points - 1)
                   if scan_value(j) * scan_value(j + 1) <= 0.0), None)
        if lo is None:
            raise NoEquilibriumError(
                f"no sign change of the axial imbalance over c_top in "
                f"[{lo_frac * total_gap:.3e}, {hi_frac * total_gap:.3e}] m; "
                f"endpoint imbalances {scan_value(0):.3e} N and "
                f"{scan_value(scan_points - 1):.3e} N")
        hi = lo + 1
    c_lo, c_hi = c_scan[lo], c_scan[hi]
    stable = scan_value(hi) < scan_value(lo)

    clearance_tolerance = 1.0e-10  # m, pins the split well below load noise
    a, b = (c_lo, *net(c_lo)), (c_hi, *net(c_hi))  # each (c_top, *net(c_top))
    if 0.0 in (a[1], b[1]):
        a = b = a if a[1] == 0.0 else b
    last, stalled = math.inf, False
    for _ in range(80):
        c_mid = 0.5 * (c_lo + c_hi)
        while a[0] < c_mid < b[0]:
            target = 0.5 * (a[0] + b[0])
            if not stalled:
                with np.errstate(all="ignore"):  # a face with no model load has no ratio
                    k = np.array([a[2:], b[2:]]) / [model(a[0]), model(b[0])]
                    k[~np.isfinite(k)] = 1.0
                    try:
                        target = bracketed_root(corrected, a[0], b[0], a[1], b[1],
                                                "axial equilibrium")
                    except FloatingPointError:
                        pass  # the midpoint target stands
            (x_lo, x_hi), inside = (c_lo, c_hi), []
            while True:  # down the bisection's cells toward target; c_mid alone when finest
                x = 0.5 * (x_lo + x_hi)
                if a[0] < x < b[0]:
                    inside.append(x)
                if x_hi - x_lo <= clearance_tolerance:
                    break
                x_lo, x_hi = (x_lo, x) if target < x else (x, x_hi)
            c = min(inside, key=lambda x: abs(x - target))
            end = (c, *net(c))
            last, stalled = abs(end[1]), abs(end[1]) > 0.5 * last
            if end[1] == 0.0:
                a = b = end
            elif (end[1] > 0.0) == (b[1] > 0.0):
                b = end
            else:
                a = end
        # the finest cells, and cells of two adjacent floats wider than them
        if c_hi - c_lo <= clearance_tolerance or c_mid in (c_lo, c_hi):
            imbalance, w_top, w_bot = net(c_mid)
            if abs(imbalance) <= load_tolerance:
                break
        c_lo, c_hi = (c_lo, c_mid) if c_mid >= b[0] else (c_mid, c_hi)
    return AxialEquilibrium(
        top_clearance=c_mid, bottom_clearance=total_gap - c_mid,
        top_load=w_top, bottom_load=w_bot, net_load=w_top - w_bot,
        converged=abs(imbalance) <= load_tolerance, stable=stable)
