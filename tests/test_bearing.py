import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

from microgt import bearing as br
from microgt.bearing import FilmState, PressureField, SpiralGrooveBearing
from microgt.config import default_config

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
    assert br.load_capacity(field) == pytest.approx(gauge * area, rel=1e-9)


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


def test_colored_stencil_matches_loop_reference():
    """Columns are coloured in blocks of six, then of five: 30 colours, or 25
    when n_theta is a multiple of five.  Every n_theta >= 20 splits that way,
    and MIN_ANGULAR_NODES keeps the solver's grids above it."""
    assert br.MIN_ANGULAR_NODES >= 20
    for n_rows, n_theta, n_colours in ((7, 20, 25), (7, 23, 30), (31, 64, 30),
                                       (31, 80, 25), (31, 96, 30), (31, 192, 30)):
        source, target, colour, cell_colour = br._colored_stencil(n_rows, n_theta)
        six_wide = 6 * (n_theta % 5)
        expected = []
        for i in range(n_rows):
            for j in range(n_theta):
                col = j % 6 if j < six_wide else (j - six_wide) % 5
                for di in (-2, -1, 0, 1, 2):
                    for dj in (-2, -1, 0, 1, 2):
                        if 0 <= i + di < n_rows:
                            expected.append((i * n_theta + j,
                                             (i + di) * n_theta + (j + dj) % n_theta,
                                             (i % 5) * (n_colours // 5) + col))
        assert list(zip(source.tolist(), target.tolist(), colour.tolist())) == expected
        assert np.array_equal(cell_colour.ravel()[source], colour)
        assert np.unique(cell_colour).tolist() == list(range(n_colours))
        # each residual is reached at most once per colour
        pairs = target.astype(np.int64) * n_colours + colour
        assert np.unique(pairs).size == pairs.size


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
# of about 3 and 30.  33x80 takes 25 colours, 65x96 five colours per batched
# residual call and 129x192 one.
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
    """Reference colored Jacobian: one full residual call per colour, CSR
    with exact zeros dropped and sorted indices."""
    eps = 1.0e-7
    n_r, n_theta = q.shape
    source, target, entry_colour, colour = br._colored_stencil(n_r - 2, n_theta)
    node_colour = np.pad(colour, ((1, 1), (0, 0)), constant_values=-1)
    delta = np.stack([
        ((br._residual(co, np.where(node_colour == c, q + eps, q)) - base) / eps).ravel()
        for c in range(int(colour.max()) + 1)])
    jac = csr_matrix((delta[entry_colour, target], (target, source)),
                     shape=(base.size, base.size))
    jac.eliminate_zeros()
    jac.sort_indices()
    return jac


@pytest.mark.parametrize("pump", ["pump-in", "pump-out"])
@pytest.mark.parametrize("n_r, n_theta", [(33, 64), (33, 66), (33, 80), (65, 96),
                                         (129, 192)])
def test_jacobian_matches_one_residual_call_per_colour(n_r, n_theta, pump):
    """The row-local half of the residual, evaluated once per column colour,
    leaves every Jacobian value bit-identical, at q = 1 and after one Newton
    step at Lambda 30."""
    film = FilmState(nominal_clearance=1.5e-6, rpm=121500.0)
    co = br._coefficients(SpiralGrooveBearing(pump_direction=pump), film, n_r, n_theta)

    def check(q):
        base = br._residual(co, q)
        jac = br._jacobian(co, br._row_terms(co, q), base)
        csr = jac.tocsr()
        csr.sort_indices()
        expected = per_colour_jacobian(co, q, base)
        assert np.array_equal(csr.indptr, expected.indptr)
        assert np.array_equal(csr.indices, expected.indices)
        assert np.array_equal(csr.data, expected.data)
        return jac, base

    q = np.ones((n_r, n_theta))
    jac, base = check(q)
    q[1:-1] += splu(jac).solve(-base.ravel()).reshape(n_r - 2, n_theta)
    assert q.min() > 0.0
    check(q)


@pytest.mark.parametrize("n_theta, n_col", [(64, 6), (80, 5)])
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
    assert len(br._jacobian_pattern(31, n_theta)[0]) == 5 * n_col  # colours
    assert () not in fields  # q's own row terms are passed in
    assert sum(math.prod(shape) for shape in fields) == n_col  # perturbed copies


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
