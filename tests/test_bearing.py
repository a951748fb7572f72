import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import Phase, assume, given, settings, strategies as st
from scipy.optimize import brentq
from scipy.sparse import csr_matrix

from microgt import bearing as br
from microgt.bearing import FilmState, PressureField, SpiralGrooveBearing
from microgt.config import default_config
from time_limit import time_limit

BEARING = SpiralGrooveBearing()
FILM = FilmState()


def test_in_groove_bands_centred_on_seed_spirals():
    k = br.signed_spiral_tangent(BEARING)
    r = 1.5e-3
    theta_groove = math.log(r / BEARING.inner_radius) / k  # psi = 0, band center
    theta_land = theta_groove + math.pi / BEARING.groove_count  # half a pitch away
    assert br.in_groove(BEARING, r, theta_groove)
    assert not br.in_groove(BEARING, r, theta_land)


def test_groove_area_fraction_monte_carlo():
    rng = np.random.default_rng(seed=20260808)
    n = 1_000_000
    r = np.sqrt(rng.uniform(BEARING.inner_radius ** 2, BEARING.outer_radius ** 2, n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    fraction = float(np.mean(br.in_groove(BEARING, r, theta)))
    assert fraction == pytest.approx(BEARING.groove_width_fraction, abs=0.005)


def test_zero_speed_null_is_exact():
    field = br.solve_reynolds(BEARING, FilmState(rpm=0.0), 33, 96)
    assert np.max(np.abs(field.pressures - field.ambient_pressure)) == 0.0
    assert br.load_capacity(field) == 0.0


def test_zero_depth_null_is_exact():
    field = br.solve_reynolds(SpiralGrooveBearing(groove_depth=0.0), FILM, 33, 96)
    assert np.max(np.abs(field.pressures - field.ambient_pressure)) == 0.0
    assert br.load_capacity(field) == 0.0


def test_boundary_rows_at_ambient():
    field = br.solve_reynolds(BEARING, FILM, 33, 96)
    assert np.all(field.pressures[0, :] == field.ambient_pressure)
    assert np.all(field.pressures[-1, :] == field.ambient_pressure)
    assert np.all(field.pressures > 0.0)


def test_load_quadrature_constant_gauge():
    n_r, n_theta = 65, 96
    u = np.linspace(0.0, math.log(BEARING.outer_radius / BEARING.inner_radius), n_r)
    radii = BEARING.inner_radius * np.exp(u)
    angles = np.tile((np.arange(n_theta) + 0.5) * 2.0 * math.pi / n_theta, (n_r, 1))
    gauge = 750.0
    field = PressureField(radii, angles, np.full((n_r, n_theta), 101325.0 + gauge),
                          101325.0)
    area = math.pi * (BEARING.outer_radius ** 2 - BEARING.inner_radius ** 2)
    assert br.load_capacity(field) == pytest.approx(gauge * area, rel=1e-14)


def per_interval_load(field):
    """load_capacity as it was before its closed form: one radial interval
    at a time, each node's exp(2u) evaluated twice."""
    row_mean = (field.pressures - field.ambient_pressure).mean(axis=1)
    r_in = field.radii[0]
    u = np.log(field.radii / r_in)

    def ramp_up(a, b):
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


def random_field(n_r, r_in, ratio, seed):
    """Random pressures around ambient on the solver's radial nodes, 8 per row."""
    u = np.linspace(0.0, math.log(ratio), n_r)
    angles = np.tile((np.arange(8) + 0.5) * math.pi / 4.0, (n_r, 1))
    rng = np.random.default_rng(seed)
    return PressureField(r_in * np.exp(u), angles,
                         101325.0 + rng.normal(0.0, 1e3, (n_r, 8)), 101325.0)


@pytest.mark.parametrize("n_r, n_theta", [(33, 64), (65, 96), (129, 192)])
def test_load_matches_the_per_interval_sum_bit_for_bit(n_r, n_theta):
    for clearance, rpm, *_ in REFERENCE_LOADS_33x64:
        for pump in ("pump-in", "pump-out"):
            field = br.solve_reynolds(SpiralGrooveBearing(pump_direction=pump),
                                      FilmState(nominal_clearance=clearance, rpm=rpm),
                                      n_r, n_theta)
            assert br.load_capacity(field).hex() == per_interval_load(field).hex()


@settings(deadline=None, max_examples=200)
@given(n_r=st.integers(33, 513), r_in=st.floats(-15.0, 15.0).map(lambda x: 10.0 ** x),
       ratio=st.floats(-9.0, 15.0).map(lambda x: 1.0 + 10.0 ** x),
       seed=st.integers(0, 2 ** 32 - 1))
def test_load_matches_the_per_interval_sum_on_random_fields(n_r, r_in, ratio, seed):
    """r_in and r_out/r_in - 1 are log-uniform over the positive bounds of
    the radii; ratios nearer 1 put two nodes at one float radius."""
    field = random_field(n_r, r_in, ratio, seed)
    assert br.load_capacity(field).hex() == per_interval_load(field).hex()


@settings(deadline=None, max_examples=50)
@given(n_r=st.integers(33, 513), seed=st.integers(0, 2 ** 32 - 1))
def test_load_integrates_a_piecewise_linear_gauge_exactly(n_r, seed):
    """Against 8-point Gauss-Legendre on each interval of the linear
    interpolant times 2 pi r_in^2 exp(2u), relative to the integral of
    |gauge|; the weights' largest rounding error, a cancellation in each
    interval's rise, measures up to 2.2e-12 of that at 513 rows."""
    r_in, r_out = BEARING.inner_radius, BEARING.outer_radius
    field = random_field(n_r, r_in, r_out / r_in, seed)
    gauge = (field.pressures - field.ambient_pressure).mean(axis=1)
    u = np.log(field.radii / r_in)
    t, tw = np.polynomial.legendre.leggauss(8)
    half = np.diff(u)[:, None] / 2.0
    points = (u[:-1, None] + u[1:, None]) / 2.0 + half * t
    area = 2.0 * math.pi * r_in ** 2 * half * tw * np.exp(2.0 * points)
    exact = np.sum(area * np.interp(points, u, gauge))
    scale = np.sum(area * np.interp(points, u, np.abs(gauge)))
    assert abs(br.load_capacity(field) - exact) <= 1e-11 * scale


def test_pump_in_load_positive_pump_out_negative():
    w_in = br.solve_load(BEARING, FILM, 65, 96)
    w_out = br.solve_load(SpiralGrooveBearing(pump_direction="pump-out"), FILM, 65, 96)
    assert w_in > 0.0
    assert w_out < 0.0


def test_reflection_symmetry():
    w_in = br.solve_load(BEARING, FILM, 65, 96)
    mirrored = br.solve_load(SpiralGrooveBearing(pump_direction="pump-out"),
                             FilmState(rpm=-15000.0), 65, 96)
    assert abs(mirrored - w_in) / abs(w_in) < 1e-6


def test_grid_convergence_and_order():
    loads = [br.solve_load(BEARING, FILM, n_r, n_theta)
             for n_r, n_theta in ((33, 96), (65, 192), (129, 384))]
    assert abs(loads[1] - loads[2]) / abs(loads[2]) < 0.02
    order = math.log2(abs(loads[0] - loads[1]) / abs(loads[1] - loads[2]))
    assert order >= 1.8


def test_narrow_groove_rpm_linearity():
    w_1 = br.narrow_groove_reference(BEARING, FilmState(rpm=1000.0))
    w_2 = br.narrow_groove_reference(BEARING, FilmState(rpm=2000.0))
    assert w_2 / w_1 == pytest.approx(2.0, rel=0.01)
    assert br.narrow_groove_reference(BEARING, FilmState(rpm=0.0)) == 0.0


def test_narrow_groove_mirror_antisymmetry():
    w_in = br.narrow_groove_reference(BEARING, FILM)
    w_out = br.narrow_groove_reference(
        SpiralGrooveBearing(pump_direction="pump-out"), FILM)
    assert w_out == pytest.approx(-w_in, rel=1e-9)


def test_narrow_groove_warns_for_few_grooves():
    with pytest.warns(UserWarning):
        br.narrow_groove_reference(SpiralGrooveBearing(groove_count=8), FILM)


def test_solver_matches_narrow_groove_theory():
    # inside the theory's domain: many grooves, sub-unity compressibility
    cases = [
        (SpiralGrooveBearing(groove_count=16, spiral_angle=15.0), (65, 128)),
        (SpiralGrooveBearing(groove_count=24), (65, 96)),
    ]
    for bearing, grid in cases:
        assert br.compressibility_number(bearing, FILM) < 1.0
        numeric = br.solve_load(bearing, FILM, *grid)
        reference = br.narrow_groove_reference(bearing, FILM)
        assert abs(numeric - reference) / abs(reference) < 0.15


def test_axial_stiffness_positive_and_step_converged():
    k_1 = br.axial_stiffness(BEARING, FILM, 33, 96, relative_step=1e-3)
    k_2 = br.axial_stiffness(BEARING, FILM, 33, 96, relative_step=5e-4)
    assert k_1 > 0.0
    assert abs(k_1 - k_2) / k_1 < 0.01


def test_axial_stiffness_zero_for_ungrooved():
    k = br.axial_stiffness(SpiralGrooveBearing(groove_depth=0.0), FILM, 33, 96)
    assert k == 0.0


def test_equilibrium_symmetric_pair_splits_evenly():
    gap = 12.0e-6
    eq = br.axial_equilibrium(BEARING, BEARING, gap, 0.0, FILM, scan_points=17)
    assert eq.converged
    assert eq.top_clearance == pytest.approx(gap / 2.0, abs=1e-9)
    assert eq.bottom_clearance == pytest.approx(gap / 2.0, abs=1e-9)


def test_equilibrium_shifts_against_added_load():
    top = SpiralGrooveBearing(groove_depth=15.0e-6)
    bottom = SpiralGrooveBearing(groove_depth=36.0e-6, pump_direction="pump-out")
    eq_0 = br.axial_equilibrium(top, bottom, 40.0e-6, 4.0e-4, FILM)
    eq_1 = br.axial_equilibrium(top, bottom, 40.0e-6, 6.0e-4, FILM)
    # a larger load pressing the rotor up must pull the top clearance down,
    # raising the opposing (top) film load
    assert eq_1.top_clearance < eq_0.top_clearance
    assert eq_1.top_load > eq_0.top_load


def test_equilibrium_reports_missing_root():
    top = SpiralGrooveBearing(groove_depth=15.0e-6)
    bottom = SpiralGrooveBearing(groove_depth=36.0e-6, pump_direction="pump-out")
    with pytest.raises(br.NoEquilibriumError):
        br.axial_equilibrium(top, bottom, 40.0e-6, 1.0e6, FILM, scan_points=9)
    with pytest.raises(br.NoEquilibriumError):  # one point brackets nothing
        br.axial_equilibrium(top, bottom, 40.0e-6, 4.0e-4, FILM, scan_points=1)
    with pytest.raises(ValueError, match="total_gap"):
        br.axial_equilibrium(top, bottom, 0.0, 4.0e-4, FILM)


def test_solver_rejects_coarse_grids():
    with pytest.raises(ValueError):
        br.solve_reynolds(BEARING, FILM, 17, 96)
    with pytest.raises(ValueError):
        br.solve_reynolds(BEARING, FILM, 33, 32)


@pytest.mark.parametrize("face", ["top", "bottom"])
def test_newton_gives_up_once_the_residual_stops_falling(face):
    # at this viscosity the max scaled residual rises from the first step on;
    # without the stall rule the top face failed after 16 iterations and the
    # bottom face after 60
    config = default_config()
    film = replace(config.film_state, viscosity=3e9)
    with pytest.raises(br.SolverError, match="residual stopped falling") as info:
        br.solve_reynolds(config.bearing_face(face), film, 33, 64)
    history = info.value.residual_history
    assert len(history) <= 5
    assert min(history) == history[0]


def test_newton_reports_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(br, "NEWTON_MAX_ITERATIONS", 1)
    with pytest.raises(br.SolverError, match="Newton did not reach") as info:
        br.solve_reynolds(BEARING, FILM, 33, 64)
    assert len(info.value.residual_history) == 1


def test_film_near_the_float_limit_fails_without_a_warning():
    """At this viscosity the residual is finite but its norm overflows; the
    solve raises SolverError and numpy warns of nothing (the test settings
    make a warning an error)."""
    film = FilmState(viscosity=1e300)
    with pytest.raises(br.SolverError, match="residual stopped falling"):
        br.solve_reynolds(BEARING, film, 33, 64)


def test_geometry_validation():
    with pytest.raises(ValueError):
        SpiralGrooveBearing(inner_radius=3.0e-3)
    with pytest.raises(ValueError):
        SpiralGrooveBearing(groove_count=2)
    with pytest.raises(ValueError):
        SpiralGrooveBearing(spiral_angle=88.0)
    with pytest.raises(ValueError):
        SpiralGrooveBearing(pump_direction="sideways")
    with pytest.raises(ValueError):
        FilmState(nominal_clearance=0.0)


# Faces whose groove edges make many kinked v-faces: several edges on one
# face path (40 grooves), edges on nodes (16 at 0.25), sub-cell stripes (16
# at 0.23) and a narrow pump-out pattern (7 at 0.3).
KINKED_FACES = {
    "40-grooves": SpiralGrooveBearing(groove_count=40),
    "16-grooves-0.25": SpiralGrooveBearing(groove_count=16, groove_width_fraction=0.25),
    "16-grooves-0.23": SpiralGrooveBearing(groove_count=16, groove_width_fraction=0.23),
    "7-grooves-0.3-pump-out": SpiralGrooveBearing(
        groove_count=7, groove_width_fraction=0.3, pump_direction="pump-out"),
}


def box_colours(n_rows, n_theta):
    """Colour of each cell in the colouring of the full 5 x 5 box: five row
    colours times the periodic columns in blocks of six, then of five,
    coloured by position in the block; 30 colours, or 25 when n_theta is a
    multiple of five."""
    i, j = np.divmod(np.arange(n_rows * n_theta), n_theta)
    six_wide = 6 * (n_theta % 5)
    n_col = 6 if six_wide else 5
    colour = (i % 5) * n_col + np.where(j < six_wide, j % 6, (j - six_wide) % 5)
    return colour.reshape(n_rows, n_theta)


def face_reach(face, n_theta):
    return br._reach(br._coefficients(face, FILM, 33, n_theta))


def test_colored_stencil_matches_loop_reference():
    """The stencil lists each residual's reach, sources in order and targets
    by row and then by column offset; no two cells of one colour reach a
    common residual.  Columns without a reach mask read three columns, and
    reading five everywhere takes the box colouring."""
    assert br.MIN_ANGULAR_NODES >= 20
    cases = [(7, 20, np.zeros(20, bool), np.zeros(20, bool), 25),
             (7, 23, np.zeros(23, bool), np.zeros(23, bool), 25),
             (7, 20, np.ones(20, bool), np.ones(20, bool), 25),
             (7, 23, np.ones(23, bool), np.ones(23, bool), 30)]
    cases += [(31, n_theta, *face_reach(BEARING, n_theta), 20)
              for n_theta in (64, 80, 96, 192)]
    cases += [(11, 64, *face_reach(face, 64), None) for face in KINKED_FACES.values()]
    for n_rows, n_theta, reach_left, reach_right, n_colours in cases:
        source, target, colour, cell_colour = br._colored_stencil(
            n_rows, n_theta, reach_left, reach_right)
        expected = []
        for i in range(n_rows):
            for j in range(n_theta):
                for di in (-2, -1, 0, 1, 2):
                    for dj in (-2, -1, 0, 1, 2):
                        t = (j + dj) % n_theta  # the residual column
                        reads = (abs(dj) < 2 or (dj == 2 and reach_left[t])
                                 or (dj == -2 and reach_right[t]))
                        if 0 <= i + di < n_rows and reads:
                            expected.append((i * n_theta + j, (i + di) * n_theta + t,
                                             cell_colour[i, j]))
        assert list(zip(source.tolist(), target.tolist(), colour.tolist())) == expected
        used = np.unique(cell_colour).tolist()
        assert used == list(range(len(used)))
        assert len(used) == (n_colours or len(used))
        assert len(used) <= box_colours(n_rows, n_theta).max() + 1
        # each residual is reached at most once per colour
        pairs = target.astype(np.int64) * len(used) + colour
        assert np.unique(pairs).size == pairs.size


@settings(deadline=None, max_examples=60)
@given(count=st.integers(4, 60), fraction=st.floats(0.05, 0.95),
       n_theta=st.integers(br.MIN_ANGULAR_NODES, 400))
def test_reach_colouring_never_needs_more_colours_than_the_box(count, fraction,
                                                               n_theta):
    face = SpiralGrooveBearing(groove_count=count, groove_width_fraction=fraction)
    source, target, colour, cell_colour = br._colored_stencil(
        5, n_theta, *face_reach(face, n_theta))
    n_colours = int(cell_colour.max()) + 1
    assert n_colours <= box_colours(5, n_theta).max() + 1
    pairs = target.astype(np.int64) * n_colours + colour
    assert np.unique(pairs).size == pairs.size


def listed_edge_lengths(bearing, n_theta):
    """The v-face path lengths of _coefficients as it found the groove edges
    before: by a search in the list of every edge of the annulus."""
    dv = 2.0 * math.pi / n_theta
    a_frac = bearing.groove_width_fraction
    scale_y = bearing.groove_count / (2.0 * math.pi)
    v_ends = (np.arange(n_theta + 1) - 0.5) * dv
    y_ends = v_ends * scale_y + 0.5 * a_frac
    m = np.arange(math.floor(y_ends[0]), math.floor(y_ends[-1]) + 2, dtype=float)
    y_edges = np.column_stack((m, m + a_frac)).ravel()
    first = np.searchsorted(y_edges, y_ends[:-1], side="right")
    one_edge = np.searchsorted(y_edges, y_ends[1:], side="left") - first == 1
    v_e = (y_edges[first] - 0.5 * a_frac) / scale_y
    return (np.where(one_edge, v_e - v_ends[:-1], 0.5 * dv),
            np.where(one_edge, v_ends[1:] - v_e, 0.5 * dv))


def assert_edge_lengths_match_the_list(face, n_theta):
    co = br._coefficients(face, FILM, 33, n_theta)
    len_left, len_right = listed_edge_lengths(face, n_theta)
    assert co.len_left.tobytes() == len_left.tobytes()
    assert co.len_right.tobytes() == len_right.tobytes()


@pytest.mark.parametrize("face", list(KINKED_FACES))
def test_groove_edges_match_the_listed_edges(face):
    for n_theta in (64, 80, 96, 192, 800):
        assert_edge_lengths_match_the_list(KINKED_FACES[face], n_theta)


@settings(deadline=None, max_examples=200)
@given(count=st.integers(4, 400),
       fraction=st.one_of(st.sampled_from([0.23, 0.25, 0.5]), st.floats(0.01, 0.99)),
       n_theta=st.integers(br.MIN_ANGULAR_NODES, 800), pitch_multiple=st.booleans())
def test_groove_edges_match_the_listed_edges_on_random_faces(count, fraction, n_theta,
                                                             pitch_multiple):
    if pitch_multiple:  # nodes then sit at the same place in every pitch
        n_theta = count * max(1, n_theta // count)
    face = SpiralGrooveBearing(groove_count=count, groove_width_fraction=fraction)
    assert_edge_lengths_match_the_list(face, n_theta)


def assert_edge_lengths_measure_the_groove(face, n_theta):
    """Each v-face path's length in the groove, from the stripe measure
    G(y) = floor(y) a + min(frac(y), a) with y = v N_g / 2 pi + a / 2, equals
    len_left and len_right summed over the sides whose node is in the groove,
    on every path that holds at most one groove edge.  Returns False, having
    checked nothing, where a node sits on an edge (item 10's tie)."""
    a, scale_y = face.groove_width_fraction, face.groove_count / (2.0 * math.pi)
    co = br._coefficients(face, FILM, 33, n_theta)
    y = (np.arange(n_theta + 1) - 0.5) * co.dv * scale_y + 0.5 * a
    if np.any(np.isclose(y % 1.0, [[0.0], [a], [1.0]], rtol=0.0, atol=1e-9)):
        return False
    measure = np.floor(y) * a + np.minimum(y % 1.0, a)
    groove = (co.v_nodes * scale_y + 0.5 * a) % 1.0 < a
    sides = co.len_left * np.roll(groove, 1) + co.len_right * groove
    at_most_one_edge = np.diff(np.floor(y)) + np.diff(np.floor(y - a)) <= 1
    error = np.abs(np.diff(measure) / scale_y - sides)[at_most_one_edge]
    assert np.all(error <= 1e-12 * co.dv)
    return True


@pytest.mark.parametrize("face", list(KINKED_FACES))
def test_groove_edges_measure_the_groove(face):
    checked = [assert_edge_lengths_measure_the_groove(KINKED_FACES[face], n_theta)
               for n_theta in (64, 96)]
    assert checked == [face != "16-grooves-0.25", True]


@settings(deadline=None, max_examples=200)
@given(count=st.integers(4, 400), fraction=st.floats(0.01, 0.99),
       n_theta=st.integers(br.MIN_ANGULAR_NODES, 800))
def test_groove_edges_measure_the_groove_on_random_faces(count, fraction, n_theta):
    face = SpiralGrooveBearing(groove_count=count, groove_width_fraction=fraction)
    assume(assert_edge_lengths_measure_the_groove(face, n_theta))


def test_groove_edges_take_memory_independent_of_the_groove_count():
    """Validation accepts any groove count of 4 or more; the edge search
    looks only at the edges next to each face (listing every edge of the
    annulus peaked at 64 MB at 2e6 grooves)."""
    face = SpiralGrooveBearing(groove_count=2_000_000)
    tracemalloc.start()
    try:
        br._coefficients(face, FILM, 33, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("face", list(KINKED_FACES))
def test_nan_reaches_only_the_residuals_of_the_column_reach(face):
    """A nan at one node spreads through the residual exactly to the cells
    whose reach holds that node: rows within two, and the columns that read
    its column.  Every other read of q is a branch np.where discards."""
    n_r, n_theta = 33, 80
    co = br._coefficients(KINKED_FACES[face], FILM, n_r, n_theta)
    reach_left, reach_right = br._reach(co)
    assert reach_left.any() and reach_right.any()
    row = 15  # of the full lattice
    for j in range(n_theta):
        q = np.ones((n_r, n_theta))
        q[row, j] = np.nan
        with np.errstate(invalid="ignore"):
            spread = np.isnan(br._residual(co, q))
        readers = {(j + d) % n_theta for d in (-1, 0, 1)}
        if reach_left[(j + 2) % n_theta]:
            readers.add((j + 2) % n_theta)
        if reach_right[(j - 2) % n_theta]:
            readers.add((j - 2) % n_theta)
        expected = np.zeros((n_r - 2, n_theta), bool)
        expected[row - 3:row + 2, sorted(readers)] = True
        assert np.array_equal(spread, expected), j


# Loads at 33x64 from the solver that factored with SuperLU's default column
# ordering and partial pivoting: (clearance m, rpm, pump-in load N, pump-out
# load N), at Lambda of about 0.1, 3 and 30.
REFERENCE_LOADS_33x64 = [
    (5.0e-6, 4500.0, 0.0004069371449740163, -0.00040691834718824575),
    (5.0e-6, 135000.0, 0.012213157148867889, -0.012196159853943074),
    (1.5e-6, 121500.0, 0.028278578460010532, -0.02773603297574397),
]


@pytest.mark.parametrize("clearance, rpm, load_in, load_out", REFERENCE_LOADS_33x64)
def test_loads_match_reference_solver(clearance, rpm, load_in, load_out):
    film = FilmState(nominal_clearance=clearance, rpm=rpm)
    for pump, expected in (("pump-in", load_in), ("pump-out", load_out)):
        load = br.solve_load(SpiralGrooveBearing(pump_direction=pump), film, 33, 64)
        assert load == pytest.approx(expected, rel=1e-12, abs=0.0)


# Loads from the solver that made one residual call per colour, with 40
# colours at n_theta = 64 and 128 and 5 * (smallest divisor >= 5) elsewhere:
# (n_r, n_theta, clearance m, rpm, pump-in load N, pump-out load N), at Lambda
# of about 3 and 30.  Each grid takes 20 colours, 65x96 five colours per
# batched residual call and 129x192 one.
REFERENCE_LOADS_BATCHED = [
    (33, 80, 5.0e-6, 135000.0, 0.012031009032490755, -0.012016388420246356),
    (33, 80, 1.5e-6, 121500.0, 0.027565257056352106, -0.02703549354936073),
    (65, 96, 5.0e-6, 135000.0, 0.012376309521396811, -0.012360597146544302),
    (65, 96, 1.5e-6, 121500.0, 0.028176263607416183, -0.02761810145333089),
    (129, 192, 5.0e-6, 135000.0, 0.012189828804544564, -0.012177486595086485),
    (129, 192, 1.5e-6, 121500.0, 0.027670575037227252, -0.027135335371913916),
]


# Loads at 33x64 on the two stripe geometries the default pattern does not
# reach, from the solver that placed groove edges face by face:
# (groove_count, groove_width_fraction, clearance m, rpm, pump-in load N,
# pump-out load N), at Lambda of about 3 and 30.  40 grooves put several
# edges on some face paths; 16 grooves of width fraction 0.25 put edges
# exactly on nodes.
REFERENCE_LOADS_STRIPES = [
    (40, 0.5, 5.0e-6, 135000.0, 0.013926729763725188, -0.013911407394690004),
    (40, 0.5, 1.5e-6, 121500.0, 0.033817385559114746, -0.03366468070958559),
    (16, 0.25, 5.0e-6, 135000.0, 0.01283800715490972, -0.01275497654973503),
    (16, 0.25, 1.5e-6, 121500.0, 0.03470811214064901, -0.03409226209568005),
]


@pytest.mark.parametrize("count, fraction, clearance, rpm, load_in, load_out",
                         REFERENCE_LOADS_STRIPES)
def test_stripe_geometries_keep_loads(count, fraction, clearance, rpm, load_in,
                                      load_out):
    film = FilmState(nominal_clearance=clearance, rpm=rpm)
    for pump, expected in (("pump-in", load_in), ("pump-out", load_out)):
        face = SpiralGrooveBearing(groove_count=count, groove_width_fraction=fraction,
                                   pump_direction=pump)
        assert br.solve_load(face, film, 33, 64) == pytest.approx(
            expected, rel=1e-12, abs=0.0)


@settings(deadline=None, max_examples=20)
@given(clearance=st.floats(1.5e-6, 10.0e-6), rpm=st.floats(1000.0, 120000.0),
       spiral_angle=st.floats(10.0, 80.0), count=st.integers(4, 48),
       fraction=st.floats(0.1, 0.9))
def test_mirrored_face_and_rotation_keep_load(clearance, rpm, spiral_angle, count,
                                              fraction):
    """The pump-out face spun backwards is the mirror image of the pump-in
    face spun forwards, so it carries the same load.

    Mirroring maps the node columns and the groove pattern onto themselves,
    except where a groove edge sits on a node: in_groove puts such a node in
    the groove at one edge and in the land at the other, and the loads then
    differ at the level of the discretisation error (3.4e-4 relative with
    16 grooves of width fraction 0.25), so those grids are not drawn.  The
    two Newton solves stop at different iterates once every residual is
    below NEWTON_TOLERANCE, so the loads agree to about that tolerance (up
    to 1.7e-10 relative over 750 sampled points; 2e-15 when both solves are
    driven to 1e-13), not to rounding.
    """
    # groove-pattern phase of each node column; edges sit at 0 and fraction
    phase = ((np.arange(64) + 0.5) * count / 64 + 0.5 * fraction) % 1.0
    assume(np.min(np.abs(phase[:, None] - np.array([0.0, fraction, 1.0]))) > 1e-9)
    face = SpiralGrooveBearing(groove_count=count, spiral_angle=spiral_angle,
                               groove_width_fraction=fraction)
    w_in = br.solve_load(face, FilmState(clearance, rpm), 33, 64)
    w_out = br.solve_load(replace(face, pump_direction="pump-out"),
                          FilmState(clearance, -rpm), 33, 64)
    assert w_out == pytest.approx(w_in, rel=br.NEWTON_TOLERANCE, abs=0.0)


@pytest.mark.parametrize("n_r, n_theta, clearance, rpm, load_in, load_out",
                         REFERENCE_LOADS_BATCHED)
def test_batched_colour_sweep_keeps_loads(n_r, n_theta, clearance, rpm, load_in,
                                          load_out):
    film = FilmState(nominal_clearance=clearance, rpm=rpm)
    for pump, expected in (("pump-in", load_in), ("pump-out", load_out)):
        load = br.solve_load(SpiralGrooveBearing(pump_direction=pump), film,
                             n_r, n_theta)
        assert load == pytest.approx(expected, rel=1e-12, abs=0.0)


def per_colour_jacobian(co, q, base):
    """Reference colored Jacobian over the full 5 x 5 box: one full residual
    call per box colour, CSR with exact zeros dropped and sorted indices."""
    eps = 1.0e-7
    n_r, n_theta = q.shape
    colour = box_colours(n_r - 2, n_theta)
    node_colour = np.pad(colour, ((1, 1), (0, 0)), constant_values=-1)
    delta = np.stack([
        ((br._residual(co, np.where(node_colour == c, q + eps, q)) - base) / eps).ravel()
        for c in range(int(colour.max()) + 1)])
    cell = np.arange(base.size)
    i, j = np.divmod(cell, n_theta)
    d_i, d_j = np.divmod(np.arange(25), 5)
    t_i = i[:, None] + d_i - 2
    keep = (t_i >= 0) & (t_i < n_r - 2)
    target = (t_i * n_theta + (j[:, None] + d_j - 2) % n_theta)[keep]
    source = np.broadcast_to(cell[:, None], keep.shape)[keep]
    jac = csr_matrix((delta[colour.ravel()[source], target], (target, source)),
                     shape=(base.size, base.size))
    jac.eliminate_zeros()
    jac.sort_indices()
    return jac


JACOBIAN_FACES = {"pump-in": BEARING,
                  "pump-out": SpiralGrooveBearing(pump_direction="pump-out"),
                  **KINKED_FACES}


@pytest.mark.parametrize("face", list(JACOBIAN_FACES))
@pytest.mark.parametrize("n_r, n_theta", [(33, 64), (33, 66), (33, 80), (65, 96),
                                         (129, 192)])
def test_jacobian_matches_one_residual_call_per_colour(n_r, n_theta, face):
    """The reach colouring, with the row-local half of the residual
    evaluated once per column colour, leaves every Jacobian value
    bit-identical to the box colouring's, its rows and columns in the held
    order, at q = 1 and after one Newton step at Lambda 30."""
    film = FilmState(nominal_clearance=1.5e-6, rpm=121500.0)
    co = br._coefficients(JACOBIAN_FACES[face], film, n_r, n_theta)

    def check(q):
        base = br._residual(co, q)
        jac, cells = br._jacobian(co, br._row_terms(co, q), base)
        csr = jac.tocsr()
        csr.sort_indices()
        expected = per_colour_jacobian(co, q, base)[cells][:, cells]
        expected.sort_indices()
        assert np.array_equal(csr.indptr, expected.indptr)
        assert np.array_equal(csr.indices, expected.indices)
        assert np.array_equal(csr.data, expected.data)
        return jac, cells, base

    q = np.ones((n_r, n_theta))
    jac, cells, base = check(q)
    step = np.empty(base.size)
    step[cells] = br._newton_step(jac, -base.ravel()[cells], br.JacobianFactor())
    q[1:-1] += step.reshape(n_r - 2, n_theta)
    assert q.min() > 0.0
    check(q)


@pytest.mark.parametrize("face", ["default", "40-grooves"])
def test_jacobian_is_the_derivative_of_the_residual(face):
    """At a random field, the colored Jacobian, mapped back to cell order,
    matches central differences of the residual in the column of every cell
    of interior rows 1-5, which hold every colour, to 1e-7 of max|J|, and its
    pattern holds every difference above 1e-6 of max|J|."""
    n_r, n_theta, h = 33, 64, 1.0e-5
    co = br._coefficients(KINKED_FACES.get(face, BEARING), FILM, n_r, n_theta)
    q = np.ones((n_r, n_theta))
    q[1:-1] = np.random.default_rng(3).uniform(1.0, 1.3, (n_r - 2, n_theta))
    base = br._residual(co, q)
    jac, cells = br._jacobian(co, br._row_terms(co, q), base)
    position = np.argsort(cells)  # the ordered position of each cell
    columns = np.arange(5 * n_theta)  # the cells of interior rows 1-5
    jac_columns = jac.tocsr()[position][:, position[columns]].toarray()
    step = np.zeros((len(columns), n_r, n_theta))
    step[columns, 1 + columns // n_theta, columns % n_theta] = h
    differences = (br._residual(co, q + step) - br._residual(co, q - step)) / (2.0 * h)
    differences = differences.reshape(len(columns), -1).T
    scale = abs(jac).max()
    assert np.abs(jac_columns - differences).max() <= 1e-7 * scale
    assert np.all(jac_columns[np.abs(differences) > 1e-6 * scale] != 0.0)


@pytest.mark.parametrize("n_theta, n_col", [(64, 4), (80, 4)])
def test_jacobian_evaluates_row_terms_once_per_column_colour(monkeypatch, n_theta,
                                                             n_col):
    co = br._coefficients(BEARING, FILM, 33, n_theta)
    q = np.ones((33, n_theta))
    terms = br._row_terms(co, q)
    base = br._cross_rows(co, terms)
    fields = []
    row_terms = br._row_terms

    def counted(co, q):
        fields.append(q.shape[:-2])
        return row_terms(co, q)

    monkeypatch.setattr(br, "_row_terms", counted)
    br._jacobian(co, terms, base)
    reach = [mask.tobytes() for mask in br._reach(co)]
    assert len(br._jacobian_pattern(31, n_theta, *reach)[0]) == n_col  # column colours
    assert () not in fields  # q's own row terms are passed in
    assert sum(math.prod(shape) for shape in fields) == n_col  # perturbed copies


def test_jacobian_pattern_is_kept_per_groove_pattern():
    """Faces of different groove patterns on one grid get their own colourings,
    so a solve gives the load it gives alone, whatever was solved before."""
    faces = (KINKED_FACES["40-grooves"], BEARING)
    alone = []
    for face in faces:
        br._jacobian_pattern.cache_clear()
        alone.append(br.solve_load(face, FILM, 33, 64))
    br._jacobian_pattern.cache_clear()
    assert [br.solve_load(face, FILM, 33, 64) for face in faces] == alone
    assert br._jacobian_pattern.cache_info().currsize == 2


ORDER_FACES = {"default": BEARING, "40-grooves": KINKED_FACES["40-grooves"],
               "16-grooves-0.23": KINKED_FACES["16-grooves-0.23"],
               "ungrooved": SpiralGrooveBearing(groove_depth=0.0),
               "pump-out-35": SpiralGrooveBearing(spiral_angle=35.0,
                                                  pump_direction="pump-out")}


@pytest.mark.parametrize("face, n_r, n_theta", [
    (face, n_r, n_theta) for n_r, n_theta in [(33, 64), (33, 80), (65, 96)]
    for face in ORDER_FACES] + [("default", 129, 192)])
def test_held_order_is_superlus_minimum_degree_order(face, n_r, n_theta):
    """The Jacobian in the held order, factored in natural order, eliminates
    as SuperLU's MMD_AT_PLUS_A ordering of the Jacobian in cell order does:
    the same column order, the same fill and every pivot on the diagonal,
    at q = 1 and after one Newton step at Lambda 30 (40 grooves at 33x80
    drop exact zeros from the reach)."""
    film = FilmState(nominal_clearance=1.5e-6, rpm=121500.0)
    co = br._coefficients(ORDER_FACES[face], film, n_r, n_theta)
    q = np.ones((n_r, n_theta))
    options = {"diag_pivot_thresh": 0.1, "options": {"SymmetricMode": True}}
    for _ in range(2):
        terms = br._row_terms(co, q)
        base = br._cross_rows(co, terms)
        jac, cells = br._jacobian(co, terms, base)
        position = np.argsort(cells)
        in_cells = jac[position][:, position].tocsc()
        in_cells.sort_indices()
        expected = br.splu(in_cells, permc_spec="MMD_AT_PLUS_A", **options)
        held = br.splu(jac, permc_spec="NATURAL", **options)
        assert np.array_equal(expected.perm_c, position)
        assert held.nnz == expected.nnz
        assert np.array_equal(held.perm_c, np.arange(base.size))
        assert np.array_equal(held.perm_r, held.perm_c)
        step = np.empty(base.size)
        step[cells] = held.solve(-base.ravel()[cells])
        q[1:-1] += step.reshape(base.shape)


def test_held_order_is_computed_once_per_groove_pattern(monkeypatch):
    """The top and bottom faces, in both pump directions, share one groove
    pattern: their solves share one cache entry, whose order is computed
    once."""
    orders = []
    spilu = scipy.sparse.linalg.spilu

    def counted(*args, **kwargs):
        orders.append(args)
        return spilu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "spilu", counted)
    config = default_config()
    faces = [config.bearing_face("top"), config.bearing_face("bottom")]
    br._jacobian_pattern.cache_clear()
    for face in faces + [replace(f, pump_direction="pump-out") for f in faces]:
        br.solve_load(face, FILM, 33, 64)
    assert br._jacobian_pattern.cache_info().currsize == 1
    assert len(orders) == 1


def count_calls(monkeypatch, name):
    """Record the calls of bearing.<name> from here on; returns the list."""
    calls = []
    original = getattr(br, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(br, name, counted)
    return calls


@pytest.mark.parametrize("pump", ["pump-in", "pump-out"])
def test_newton_step_matches_dense_solve(monkeypatch, pump):
    # threshold pivoting must not cost accuracy at the stiffest point, and a
    # step refined against an earlier step's factor solves its own Jacobian
    film = FilmState(nominal_clearance=1.5e-6, rpm=121500.0)
    assert br.compressibility_number(BEARING, film) == pytest.approx(30.0, rel=0.01)
    errors = []
    step_errors = []
    factor = br.splu
    newton_step = br._newton_step

    def checked_splu(jac, **options):
        lu = factor(jac, **options)
        dense = jac.toarray()

        class Checked:
            shape = lu.shape

            def solve(self, rhs):
                step = lu.solve(rhs)
                exact = np.linalg.solve(dense, rhs)
                errors.append(np.linalg.norm(step - exact) / np.linalg.norm(exact))
                return step
        return Checked()

    def checked_step(jac, rhs, held):
        step = newton_step(jac, rhs, held)
        exact = np.linalg.solve(jac.toarray(), rhs)
        step_errors.append(np.linalg.norm(step - exact) / np.linalg.norm(exact))
        return step

    monkeypatch.setattr(br, "splu", checked_splu)
    factored = count_calls(monkeypatch, "splu")
    monkeypatch.setattr(br, "_newton_step", checked_step)
    br.solve_load(SpiralGrooveBearing(pump_direction=pump), film, 33, 64)
    assert errors and max(errors) < 1e-10
    assert len(step_errors) > len(factored)  # some step was refined
    assert max(step_errors) < 1e-10


def test_two_step_solve_factors_once(monkeypatch):
    steps = count_calls(monkeypatch, "_newton_step")
    factored = count_calls(monkeypatch, "splu")
    br.solve_load(BEARING, FilmState(nominal_clearance=5.0e-6, rpm=135000.0), 65, 96)
    assert len(steps) == 2
    assert len(factored) == 1


def test_stale_factor_is_replaced(monkeypatch):
    """A factor held from a distant film does not refine the first Newton
    step of a Lambda 30 solve; that step factors afresh, and the load is the
    one a solve without a held factor gives."""
    stiff = FilmState(nominal_clearance=1.5e-6, rpm=121500.0)
    fresh = br.solve_load(BEARING, stiff, 33, 64)
    held = br.JacobianFactor()
    br.solve_load(BEARING, FILM, 33, 64, held)
    factored = count_calls(monkeypatch, "splu")
    load = br.solve_load(BEARING, stiff, 33, 64, held)
    assert len(factored) >= 1
    assert load == pytest.approx(fresh, rel=1e-12, abs=0.0)


def test_default_equilibrium_keeps_clearance_and_loads():
    # from the solver that factored the Jacobian of every Newton step; the
    # bisection takes the same side at every step, so the clearance is exact
    config = default_config()
    b = config.raw["bearing"]
    eq = br.axial_equilibrium(config.bearing_face("top"), config.bearing_face("bottom"),
                              b["total_axial_gap_m"], config.external_axial_load,
                              config.film_state)
    assert eq.converged
    assert eq.top_clearance == 8.145561835106383e-06
    assert eq.top_load == pytest.approx(5.570371834180439e-04, rel=1e-12, abs=0.0)
    assert eq.bottom_load == pytest.approx(-2.875439234105291e-05, rel=1e-12, abs=0.0)


def bisected_equilibrium(top, bottom, total_gap, external_load, film,
                         load_tolerance=1.0e-6, scan_points=48):
    """axial_equilibrium as it was before it skipped any midpoint: the scan,
    then a solve at every bisection midpoint."""
    factor_top, factor_bot = br.JacobianFactor(), br.JacobianFactor()

    def net(c_top):
        w_top = br.solve_load(top, replace(film, nominal_clearance=c_top),
                              *br.EQUILIBRIUM_GRID, factor_top)
        w_bot = br.solve_load(bottom, replace(film, nominal_clearance=total_gap - c_top),
                              *br.EQUILIBRIUM_GRID, factor_bot)
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
            stable = values[-1] < values[-2]
            break
    if c_lo is None:
        raise br.NoEquilibriumError(
            f"no sign change of the axial imbalance over c_top in "
            f"[{lo_frac * total_gap:.3e}, {hi_frac * total_gap:.3e}] m; "
            f"endpoint imbalances {values[0]:.3e} N and {values[-1]:.3e} N"
        )

    for _ in range(80):
        c_mid = 0.5 * (c_lo + c_hi)
        net_mid, w_top, w_bot = net(c_mid)
        imbalance = net_mid - external_load
        if abs(imbalance) <= load_tolerance and (c_hi - c_lo) <= 1.0e-10:
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
    return br.AxialEquilibrium(
        top_clearance=c_mid, bottom_clearance=total_gap - c_mid,
        top_load=w_top, bottom_load=w_bot, net_load=net_mid,
        converged=abs(imbalance) <= load_tolerance, stable=stable)


GROOVED_15 = SpiralGrooveBearing(groove_depth=15.0e-6)
PUMP_OUT_36 = SpiralGrooveBearing(groove_depth=36.0e-6, pump_direction="pump-out")
DEEP_36 = SpiralGrooveBearing(groove_depth=36.0e-6)
SHALLOW_PUMP_OUT_3 = SpiralGrooveBearing(groove_depth=3.0e-6, pump_direction="pump-out")


def equilibrium_args(config):
    """The positional arguments of axial_equilibrium that `run bearing` passes."""
    return (config.bearing_face("top"), config.bearing_face("bottom"),
            config.raw["bearing"]["total_axial_gap_m"], config.external_axial_load,
            config.film_state)


def engine_study_9():
    """The bearing of the engine_run_all benchmark's seed-0 study 9."""
    config = default_config()
    for key, value in (("top_groove_depth_m", 1.550815505310898e-05),
                       ("bottom_groove_depth_m", 3.904807402851145e-05),
                       ("nominal_clearance_m", 5.067091992883573e-06),
                       ("rpm", 16455.203311907004),
                       ("total_axial_gap_m", 3.788106106855582e-05)):
        config = config.with_value("bearing", key, value)
    return config


def equilibrium_case(case):
    """(args, options) of axial_equilibrium for a named case."""
    return {
        "default": (equilibrium_args(default_config()), {}),
        "load-4e-4": ((GROOVED_15, PUMP_OUT_36, 40.0e-6, 4.0e-4, FILM), {}),
        "load-6e-4": ((GROOVED_15, PUMP_OUT_36, 40.0e-6, 6.0e-4, FILM), {}),
        "pump-out-bottom": ((BEARING, SpiralGrooveBearing(pump_direction="pump-out"),
                             20.0e-6, 0.0, FILM), {"scan_points": 9}),
        # the imbalance is exactly 0 at the scan point c_top = 10 um
        "symmetric-zero-end": ((BEARING, BEARING, 20.0e-6, 0.0, FILM), {"scan_points": 17}),
        "symmetric-1e-5": ((BEARING, BEARING, 20.0e-6, 1.0e-5, FILM), {"scan_points": 17}),
        # the one bracketed_root run takes more steps here than restarts per level did
        "engine-0-9": (equilibrium_args(engine_study_9()), {}),
        # below 12 grooves, where narrow_groove_reference warns
        "grooves-8": (equilibrium_args(default_config().with_value(
            "bearing", "groove_count", 8)), {}),
        # the narrow-groove imbalance is positive at the low end of the scan
        # and the 2D one negative; the 2D root is near the high end
        "model-sign-wrong": ((DEEP_36, SHALLOW_PUMP_OUT_3, 40.0e-6, 9.0e-4, FILM),
                             {"scan_points": 9}),
        # the ungrooved face carries no load, in 2D and in the model
        "ungrooved-bottom": ((BEARING, SpiralGrooveBearing(groove_depth=0.0), 20.0e-6,
                              5.0e-4, FILM), {}),
        # the viscous film of test_cli's high-viscosity run: the finest
        # midpoint misses load_tolerance, so the clearance lies below 1e-10 m
        "viscous": (equilibrium_args(default_config()
                                     .with_value("bearing", "viscosity_pa_s", 3.6e-3)
                                     .with_value("bearing", "external_axial_load_n", 0.12)),
                    {}),
    }[case]


# The cases that the bisection that solves every midpoint checks; "viscous"
# is not among them, since its scan solves a film that stalls Newton.
EQUILIBRIUM_CASES = ("default", "load-4e-4", "load-6e-4", "pump-out-bottom",
                     "symmetric-zero-end", "symmetric-1e-5", "engine-0-9",
                     "grooves-8", "model-sign-wrong", "ungrooved-bottom")


@pytest.mark.parametrize("case", EQUILIBRIUM_CASES)
def test_equilibrium_solves_fewer_midpoints_to_the_same_clearance(monkeypatch, case):
    """Seeding the scan from the narrow-groove model and skipping the
    midpoints whose side the solved bracket tells return the clearance of the
    low-end scan with a solve at every midpoint, bit for bit, with the same
    loads to rounding (each face's factor history differs) and fewer solves,
    none of one face at one clearance twice.  Only the model-sign-wrong root
    is statically unstable."""
    args, options = equilibrium_case(case)
    solves = count_calls(monkeypatch, "solve_reynolds")
    if case == "pump-out-bottom":
        with pytest.raises(br.NoEquilibriumError) as expected:
            bisected_equilibrium(*args, **options)
        with pytest.raises(br.NoEquilibriumError) as raised:
            br.axial_equilibrium(*args, **options)
        assert str(raised.value) == str(expected.value)
        assert len(solves) == 2 * 2 * 9  # both faces at every scan point, twice
        return
    expected = bisected_equilibrium(*args, **options)
    bisected_solves = len(solves)
    eq = br.axial_equilibrium(*args, **options)
    skipping_solves = len(solves) - bisected_solves
    films = [(id(factor), film.nominal_clearance)
             for _, film, _, _, factor in solves[bisected_solves:]]
    assert len(set(films)) == len(films)
    assert eq.top_clearance == expected.top_clearance
    assert eq.bottom_clearance == expected.bottom_clearance
    assert eq.converged == expected.converged
    assert eq.stable == expected.stable == (case != "model-sign-wrong")
    assert eq.top_load == pytest.approx(expected.top_load, rel=1e-12, abs=0.0)
    assert eq.bottom_load == pytest.approx(expected.bottom_load, rel=1e-12, abs=0.0)
    assert skipping_solves < bisected_solves
    assert skipping_solves <= {"default": 10, "load-4e-4": 12, "load-6e-4": 12,
                               "symmetric-zero-end": 6, "symmetric-1e-5": 8,
                               "engine-0-9": 12, "grooves-8": 12,
                               "model-sign-wrong": 26, "ungrooved-bottom": 12}[case]
    if case == "symmetric-zero-end":
        assert bisected_solves == 48


def test_equilibrium_reports_the_bisection_cap():
    """With load_tolerance 0 no midpoint balances, so the bisection halves
    until the first cell that cannot halve, whose ends are adjacent floats,
    and stops there, unconverged, at the converged clearance to 1e-10 m."""
    args, _ = equilibrium_case("default")
    eq = br.axial_equilibrium(*args, load_tolerance=0.0)
    assert not eq.converged
    assert eq.top_clearance == pytest.approx(8.145561835106383e-06, rel=0.0, abs=1e-10)


def test_equilibrium_model_sign_wrong_case_disagrees_at_the_low_end():
    """The premise of the "model-sign-wrong" case: at the first scan point the
    narrow-groove imbalance is positive and the 2D one negative, so the walk
    from the model's seed leaves the grid and the low-end scan picks the cell."""
    (top, bottom, gap, external_load, film), _ = equilibrium_case("model-sign-wrong")
    c_top = 0.02 * gap
    model = (br._narrow_groove_load(top, film, c_top)
             - br._narrow_groove_load(bottom, film, gap - c_top) - external_load)
    solved = (br.solve_load(top, replace(film, nominal_clearance=c_top), *br.EQUILIBRIUM_GRID)
              - br.solve_load(bottom, replace(film, nominal_clearance=gap - c_top),
                              *br.EQUILIBRIUM_GRID) - external_load)
    assert model > 0.0 > solved


def bisection_lattice(c_lo, c_hi, width=1.0e-10):
    """The scan cell's ends and every point 0.5 * (lo + hi) that halving it
    gives, down to the first cells width wide or less, sorted: the points at
    which axial_equilibrium's bisection may solve."""
    points, cells = {c_lo, c_hi}, [(c_lo, c_hi)]
    while cells:
        lo, hi = cells.pop()
        mid = 0.5 * (lo + hi)
        points.add(mid)
        if hi - lo > width:
            cells += [(lo, mid), (mid, hi)]
    return sorted(points)


def narrowing_steps(monkeypatch, args, options):
    """Solve the equilibrium of axial_equilibrium's args and options and
    check, from its br.solve_load calls, how it narrows its solved bracket
    [a, b], the scan cell at first: each step is one 2D evaluation (a
    solve_load per face) at a point of bisection_lattice of the scan cell,
    strictly inside [a, b] before it, and replaces the end on its side; the
    steps end with both ends solved, of opposite signs and adjacent on the
    lattice, or at an end whose imbalance is exactly 0, and the evaluations
    after them lie within 1e-10 m of the clearance returned.  Returns the
    equilibrium, (a, b, point) per step, each a tuple (c_top, imbalance,
    top load, bottom load), the lattice, and the solve_reynolds calls of the
    whole equilibrium."""
    solves = count_calls(monkeypatch, "solve_reynolds")
    original, loads = br.solve_load, []

    def recorded(bearing, film, *rest):
        loads.append((film.nominal_clearance, original(bearing, film, *rest)))
        return loads[-1][1]

    monkeypatch.setattr(br, "solve_load", recorded)
    eq = br.axial_equilibrium(*args, **options)
    _, _, gap, external_load, _ = args
    points = []  # (c_top, imbalance, top load, bottom load) per evaluation
    for (c, w_top), (c_bot, w_bot) in zip(loads[::2], loads[1::2]):
        assert c_bot == gap - c
        points.append((c, w_top - w_bot - external_load, w_top, w_bot))
    assert 2 * len(points) == len(loads)
    assert len({point[0] for point in points}) == len(points)
    c_scan = np.linspace(0.02, 0.98, options.get("scan_points", 48)) * gap
    bisected = [point for point in points if point[0] not in c_scan]
    hi = np.searchsorted(c_scan, bisected[0][0])
    solved = {point[0]: point for point in points}
    a, b = solved[c_scan[hi - 1]], solved[c_scan[hi]]
    lattice = bisection_lattice(a[0], b[0])
    if 0.0 in (a[1], b[1]):
        a = b = a if a[1] == 0.0 else b
    trail = []
    for point in bisected:
        if a[0] == b[0] or lattice.index(b[0]) == lattice.index(a[0]) + 1:
            assert abs(point[0] - eq.top_clearance) <= 1.0e-10
            continue
        assert a[0] < point[0] < b[0]
        assert point[0] in lattice
        trail.append((a, b, point))
        if point[1] == 0.0:
            a = b = point
        elif (point[1] > 0.0) == (b[1] > 0.0):
            b = point
        else:
            a = point
    if a[0] == b[0]:
        assert a[1] == 0.0
    else:
        assert a[1] * b[1] < 0.0
        assert lattice.index(b[0]) == lattice.index(a[0]) + 1
    return eq, trail, lattice, solves


def nearest_inside(lattice, a, b, target):
    """The lattice points strictly inside (a, b) nearest target, two on a tie."""
    inside = [x for x in lattice if a < x < b]
    nearest = min(abs(x - target) for x in inside)
    return {x for x in inside if abs(x - target) == nearest}


@pytest.mark.parametrize("case", ["default", "engine-0-9", "symmetric-zero-end",
                                  "ungrooved-bottom"])
def test_equilibrium_narrows_its_bracket_one_solved_point_per_step(monkeypatch, case):
    """The narrowing steps of narrowing_steps; an exactly balanced scan point
    (the symmetric pair) takes none.  An ungrooved face has no load, in 2D
    and in the model, so its 2D/model ratio is taken as 1: the ungrooved
    pair's first step is the lattice point nearest the root of the top
    face's corrected model alone, and it takes no more steps than the
    grooved pairs."""
    eq, trail, lattice, _ = narrowing_steps(monkeypatch, *equilibrium_case(case))
    assert eq.converged
    assert (trail == []) == (case == "symmetric-zero-end")
    if case == "ungrooved-bottom":
        (top, bottom, gap, external_load, film), _ = equilibrium_case(case)
        (c_a, f_a, w_a, bot_a), (c_b, f_b, w_b, bot_b), point = trail[0]
        assert bot_a == bot_b == 0.0
        k_a = w_a / br._narrow_groove_load(top, film, c_a)
        k_b = w_b / br._narrow_groove_load(top, film, c_b)
        root = brentq(lambda c: (k_a + (k_b - k_a) * (c - c_a) / (c_b - c_a))
                      * br._narrow_groove_load(top, film, c) - external_load,
                      c_a, c_b, xtol=1e-20, rtol=4 * np.finfo(float).eps)
        assert point[0] in nearest_inside(lattice, c_a, c_b, root)
        assert len(trail) <= 2


def test_equilibrium_bisects_past_a_wrong_model(monkeypatch):
    """A narrow-groove model that is wrong in shape, the true one times
    1 + sin(c / 3 nm) / 2, sends the corrected steps to an end of [a, b].
    After a step that does not halve |imbalance| the next point is the
    lattice point nearest the midpoint of [a, b], so the clearance is still
    the bisection's, bit for bit, from fewer solves than the bisection that
    solves every midpoint."""
    true_model = br._narrow_groove_load
    monkeypatch.setattr(br, "_narrow_groove_load", lambda bearing, film, c: (
        true_model(bearing, film, c) * (1.0 + 0.5 * np.sin(c / 3.0e-9))))
    args, options = equilibrium_case("default")
    expected = bisected_equilibrium(*args, **options)
    eq, trail, lattice, solves = narrowing_steps(monkeypatch, args, options)
    assert (eq.top_clearance, eq.bottom_clearance) == (expected.top_clearance,
                                                       expected.bottom_clearance)
    assert eq.converged and expected.converged
    stalled = [abs(now[1]) > 0.5 * abs(before[1])
               for (_, _, before), (_, _, now) in zip(trail, trail[1:])]
    midpoint = [point[0] in nearest_inside(lattice, a[0], b[0], 0.5 * (a[0] + b[0]))
                for a, b, point in trail[2:]]
    assert any(stalled)
    assert all(m for m, s in zip(midpoint, stalled) if s)
    assert len(solves) <= 46  # bisected_equilibrium takes 48


def test_equilibrium_bisects_where_the_model_is_not_finite(monkeypatch):
    """A narrow-groove model that is nan everywhere but at a case's scan
    points seeds the scan as the true one does, but the corrected model is
    not finite inside the scan cell.  Each step then targets the midpoint of
    [a, b], so the equilibrium bisects: its clearance is that of the
    bisection that solves every midpoint, bit for bit, converged, on the
    default pair and on the pair whose model has the wrong sign at the low
    end."""
    true_model = br._narrow_groove_load
    for case in ("default", "model-sign-wrong"):
        args, options = equilibrium_case(case)
        expected = bisected_equilibrium(*args, **options)
        gap = args[2]
        c_scan = np.linspace(0.02, 0.98, options.get("scan_points", 48)) * gap
        scan_clearances = np.concatenate([c_scan, gap - c_scan])
        monkeypatch.setattr(br, "_narrow_groove_load", lambda bearing, film, c: np.where(
            np.isin(c, scan_clearances), true_model(bearing, film, c), np.nan))
        eq = br.axial_equilibrium(*args, **options)
        assert eq.converged and expected.converged
        assert (eq.top_clearance, eq.bottom_clearance) == (expected.top_clearance,
                                                           expected.bottom_clearance)


def linear_top_load(monkeypatch, top, external_load, slope, root):
    """Replace the 2D and the model loads: the top face's falls linearly in
    c_top by slope N/m and balances external_load at root; the bottom face
    carries none.  No Reynolds equation is solved."""
    def load(bearing, c_top):
        if bearing is top:
            return external_load - slope * (c_top - root)
        return 0.0 * c_top

    monkeypatch.setattr(br, "_narrow_groove_load", lambda bearing, film, c: load(bearing, c))
    monkeypatch.setattr(br, "solve_load",
                        lambda bearing, film, *rest: load(bearing, film.nominal_clearance))


def test_equilibrium_step_lands_on_an_exact_zero(monkeypatch):
    """A top face whose load, in 2D and in the model, is linear in c_top and
    balances the external load exactly at a point of bisection_lattice that
    is not a scan point, over a bottom face with no load.  The corrected
    model is then exact, so the first narrowing step solves that point, its
    imbalance is exactly 0.0, and it becomes both ends of the bracket.  The
    clearance and loads are those of the bisection that solves every
    midpoint, from 2 scan points, that step and one finest midpoint; no
    Reynolds equation is solved."""
    top, bottom = BEARING, SpiralGrooveBearing(pump_direction="pump-out")
    gap, external_load, stiffness = 20.0e-6, 1.0e-4, 400.0
    c_scan = np.linspace(0.02, 0.98, 48) * gap
    half = 0.5 * (c_scan[20] + c_scan[21])
    quarter = 0.5 * (c_scan[20] + half)
    balanced = 0.5 * (quarter + half)  # a third-level midpoint of the scan cell
    linear_top_load(monkeypatch, top, external_load, stiffness, balanced)
    evaluated = count_calls(monkeypatch, "solve_load")
    args = (top, bottom, gap, external_load, FILM)
    expected = bisected_equilibrium(*args)
    bisected_evaluations = len(evaluated) // 2
    eq, trail, _, solves = narrowing_steps(monkeypatch, args, {})
    assert solves == []
    [(a, b, point)] = trail
    assert (a[0], b[0]) == (c_scan[20], c_scan[21])
    assert point == (balanced, 0.0, external_load, 0.0)
    assert (eq.top_clearance, eq.bottom_clearance, eq.top_load, eq.bottom_load,
            eq.converged) == (expected.top_clearance, expected.bottom_clearance,
                              expected.top_load, expected.bottom_load, expected.converged)
    assert eq.converged and eq.stable
    assert len(evaluated) // 2 - bisected_evaluations == 4
    assert bisected_evaluations > 4


def test_equilibrium_bisects_below_the_lattice_to_the_cap(monkeypatch):
    """A top face whose load, in 2D and in the model, is linear in c_top
    over a bottom face with no load, and whose root lies half an ulp from a
    float off bisection_lattice, so no midpoint balances it exactly.  At
    load_tolerance 1e-12 the finest midpoint misses, so the equilibrium
    halves the cell below 1e-10 m until a midpoint balances; at 0 it halves
    until the cell cannot halve, unconverged.  Both return the clearance,
    loads and convergence of the bisection that solves every midpoint (which
    stops at its own 80-level cap); no Reynolds equation is solved."""
    top, bottom = BEARING, SpiralGrooveBearing(pump_direction="pump-out")
    gap, external_load, stiffness = 20.0e-6, 1.0e-4, 400.0
    c_scan = np.linspace(0.02, 0.98, 48) * gap
    near = c_scan[20] + 0.3 * (c_scan[21] - c_scan[20])
    lattice = bisection_lattice(c_scan[20], c_scan[21])
    assert near not in lattice

    def load(bearing, c_top):  # N, the same in 2D and in the model; 0 at near - ulp/2
        if bearing is top:
            return external_load - stiffness * ((c_top - near) + 0.5 * np.spacing(near))
        return 0.0 * c_top

    monkeypatch.setattr(br, "_narrow_groove_load", lambda bearing, film, c: load(bearing, c))
    monkeypatch.setattr(br, "solve_load",
                        lambda bearing, film, *rest: load(bearing, film.nominal_clearance))
    solves = count_calls(monkeypatch, "solve_reynolds")
    args = (top, bottom, gap, external_load, FILM)
    for load_tolerance in (1.0e-12, 0.0):
        expected = bisected_equilibrium(*args, load_tolerance=load_tolerance)
        eq = br.axial_equilibrium(*args, load_tolerance=load_tolerance)
        assert (eq.top_clearance, eq.bottom_clearance, eq.top_load, eq.bottom_load,
                eq.converged) == (expected.top_clearance, expected.bottom_clearance,
                                  expected.top_load, expected.bottom_load,
                                  expected.converged)
        assert eq.converged == (load_tolerance > 0.0)
        assert eq.top_clearance not in lattice
        assert abs(eq.top_clearance - near) <= 1.0e-14
    assert solves == []


def test_equilibrium_stops_where_halving_no_longer_narrows(monkeypatch):
    """At a gap of 1.2e8 m the floats near c_top are 4.7e-10 m apart, wider
    than the 1e-10 m cells.  With both loads 0 the scan's low end balances
    exactly, so the cell halves toward it until its ends are adjacent
    floats whose midpoint rounds to the high end.  The equilibrium stops
    there, as the bisection that solves every midpoint does after its
    80-level cap; no Reynolds equation is solved."""
    monkeypatch.setattr(br, "_narrow_groove_load", lambda bearing, film, c: 0.0 * c)
    monkeypatch.setattr(br, "solve_load", lambda bearing, film, *rest: 0.0)
    solves = count_calls(monkeypatch, "solve_reynolds")
    args = (BEARING, SpiralGrooveBearing(pump_direction="pump-out"), 1.2345678912345e8,
            0.0, FILM)
    expected = bisected_equilibrium(*args)
    eq = br.axial_equilibrium(*args)
    assert (eq.top_clearance, eq.bottom_clearance, eq.top_load, eq.bottom_load,
            eq.converged) == (expected.top_clearance, expected.bottom_clearance,
                              expected.top_load, expected.bottom_load, expected.converged)
    c_lo = 0.02 * args[2]
    assert eq.converged and eq.top_clearance == np.nextafter(c_lo, np.inf)
    assert eq.top_clearance - c_lo > 1.0e-10
    assert solves == []


def test_equilibrium_steps_stop_where_halving_no_longer_narrows(monkeypatch):
    """At a gap of 1.2e8 m the floats 0.3 of the way across scan cell 20-21
    are 7.5e-9 m apart, wider than the 1e-10 m cells.  A top load linear in
    c_top, balanced there, takes narrowing steps, and each step's walk
    down the bisection's cells ends, as the halving does, at the first cell
    whose ends are adjacent floats.  The equilibrium returns converged, at
    the root to a few floats."""
    top, bottom = BEARING, SpiralGrooveBearing(pump_direction="pump-out")
    gap, external_load = 1.2345678912345e8, 1.0e-4
    c_scan = np.linspace(0.02, 0.98, 48) * gap
    root = c_scan[20] + 0.3 * (c_scan[21] - c_scan[20])
    linear_top_load(monkeypatch, top, external_load, 1.0e-12, root)
    solves = count_calls(monkeypatch, "solve_reynolds")
    with time_limit(2):
        eq = br.axial_equilibrium(top, bottom, gap, external_load, FILM)
    assert eq.converged and eq.stable
    assert abs(eq.top_clearance - root) <= 4 * np.spacing(root)
    assert solves == []


@settings(derandomize=True, deadline=None, max_examples=200,
          phases=[Phase.explicit, Phase.generate])
@given(gap_exponent=st.floats(-200.0, 300.0), root_fraction=st.floats(0.02, 0.98),
       load_exponent=st.floats(-6.0, 3.0), fall=st.floats(1.0, 1000.0))
def test_equilibrium_ends_near_the_root_at_any_gap(gap_exponent, root_fraction,
                                                   load_exponent, fall):
    """At gaps from 1e-200 m to 1e300 m, where the floats near c_top run
    from far finer to far coarser than the 1e-10 m cells, the equilibrium
    of a top load linear in c_top, balanced at a root inside the scan,
    returns within 1e-10 m or 64 floats of the root.  The load falls by 1
    to 1000 times the external load across the gap, so that the floats of
    the load place its root to a few floats of c_top.  No shrinking: a call
    that does not return fails at its time limit."""
    top, bottom = BEARING, SpiralGrooveBearing(pump_direction="pump-out")
    gap = 10.0 ** gap_exponent
    external_load = 10.0 ** load_exponent
    root = root_fraction * gap
    with pytest.MonkeyPatch.context() as monkeypatch, time_limit(2):
        linear_top_load(monkeypatch, top, external_load, fall * external_load / gap, root)
        eq = br.axial_equilibrium(top, bottom, gap, external_load, FILM)
    assert abs(eq.top_clearance - root) <= max(1.0e-10, 64 * np.spacing(root))


def test_equilibrium_matches_brentq_on_the_2d_imbalance():
    """An oracle independent of the bisection: scipy's brentq, driven to
    1e-12 m on a pair's 2D imbalance (solves without held factors) over the
    scan cell holding axial_equilibrium's clearance, finds a root within
    1e-10 m of that clearance.  The pairs: the default one, and the viscous
    one, whose clearance lies below the 1e-10 m lattice."""
    for case in ("default", "viscous"):
        args, options = equilibrium_case(case)
        top, bottom, gap, external_load, film = args
        eq = br.axial_equilibrium(*args, **options)
        c_scan = np.linspace(0.02, 0.98, 48) * gap
        hi = np.searchsorted(c_scan, eq.top_clearance)

        def imbalance(c_top):
            return (br.solve_load(top, replace(film, nominal_clearance=c_top),
                                  *br.EQUILIBRIUM_GRID)
                    - br.solve_load(bottom, replace(film, nominal_clearance=gap - c_top),
                                    *br.EQUILIBRIUM_GRID)
                    - external_load)

        root = brentq(imbalance, c_scan[hi - 1], c_scan[hi], xtol=1.0e-12)
        assert abs(root - eq.top_clearance) <= 1.0e-10
