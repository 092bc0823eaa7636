import numpy as np
import pytest

from bilinctrl.model import (
    ControlSchedule,
    bilinear_system,
    builtin_corpus,
    smooth_system,
)
from bilinctrl.reach import (
    BLOWUP_NORM,
    DEGENERATE_NORM,
    CoverageGrid,
    approx_reach_test,
    coverage,
    sample_attainable,
    simulate,
    spread_directions,
    _schedule_from_row,
    _schedule_tables,
)

from oracles import expm_product, serial_reach_search, smooth_endpoint, split_segments
from oracles import spread_directions as rescan_spread_directions

PJ = builtin_corpus("planar_jd")
SO3 = builtin_corpus("so3")
EX1 = builtin_corpus("example1")


def test_simulate_quarter_rotation():
    traj = simulate(PJ, ControlSchedule(((0, np.pi / 2),)), [1.0, 0.0])
    np.testing.assert_allclose(traj.endpoint, [0.0, 1.0], atol=1e-14)
    assert traj.times[0] == 0.0 and traj.status == "ok"


def test_simulate_empty_schedule():
    traj = simulate(PJ, ControlSchedule(()), [0.3, 0.4])
    np.testing.assert_array_equal(traj.endpoint, [0.3, 0.4])


def test_simulate_hyperbolic_scaling():
    traj = simulate(PJ, ControlSchedule(((1, np.log(2.0)),)), [1.0, 1.0])
    np.testing.assert_allclose(traj.endpoint, [2.0, 0.5], rtol=1e-14)


def test_simulate_rejects_bad_index():
    with pytest.raises(ValueError):
        simulate(PJ, ControlSchedule(((7, 1.0),)), [1.0, 0.0])


def test_simulate_homogeneity():
    rng = np.random.default_rng(0)
    sched = ControlSchedule(((0, 0.7), (1, 0.3), (0, 1.1)))
    x0 = rng.standard_normal(2)
    lam = 3.7
    a = simulate(PJ, sched, x0).endpoint
    b = simulate(PJ, sched, lam * x0).endpoint
    assert np.linalg.norm(b - lam * a) <= 1e-10 * np.linalg.norm(b)


def test_simulate_concatenation():
    s1 = ControlSchedule(((0, 0.4), (1, 0.9)))
    s2 = ControlSchedule(((1, 0.2), (0, 1.3)))
    both = ControlSchedule(s1.segments + s2.segments)
    x0 = np.array([0.5, -1.2])
    direct = simulate(PJ, both, x0).endpoint
    staged = simulate(PJ, s2, simulate(PJ, s1, x0).endpoint).endpoint
    assert np.linalg.norm(direct - staged) <= 1e-10 * np.linalg.norm(direct)


def test_skew_flows_preserve_norm():
    rng = np.random.default_rng(1)
    segs = tuple((int(rng.integers(0, 3)), float(rng.uniform(0, 10))) for _ in range(20))
    traj = simulate(SO3, ControlSchedule(split_segments(segs, 0.5)), [1.0, 0.0, 0.0])
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_orbit_mode_negative_durations():
    fwd = ControlSchedule(((1, 0.8),))
    back = ControlSchedule(((1, -0.8),), attainable_mode=False)
    x0 = np.array([1.0, 2.0])
    mid = simulate(PJ, fwd, x0).endpoint
    again = simulate(PJ, back, mid).endpoint
    np.testing.assert_allclose(again, x0, rtol=1e-12)


def test_projection_compatibility():
    # pushing a bilinear trajectory to the sphere matches integrating the
    # projected field directly
    m = SO3.family.matrices[0] + 0.5 * np.diag([1.0, -0.2, 0.4])

    def projected(pts):
        pts = np.asarray(pts, dtype=float)
        v = pts @ m.T
        dots = np.sum(pts * v, axis=-1, keepdims=True)
        return v - dots * pts

    sphere_spec = smooth_system(3, (projected,), name="projected")
    sched = ControlSchedule(split_segments(((0, 2.5),), 0.25))
    x0 = np.array([0.6, 0.8, 0.0])
    full = simulate(bilinear_system((m,)), sched, x0)
    proj = simulate(sphere_spec, sched, x0)
    units = full.states / np.linalg.norm(full.states, axis=1, keepdims=True)
    assert full.states.shape == proj.states.shape
    assert np.max(np.linalg.norm(units - proj.states, axis=1)) <= 1e-6


def test_smooth_translation_segment():
    traj = simulate(EX1, ControlSchedule(((0, 2.0),)), [0.0, -1.0])
    assert np.linalg.norm(traj.endpoint - [0.0, 1.0]) <= 1e-8


def test_smooth_orbit_mode_backward_segment():
    back = ControlSchedule(((0, -2.0),), attainable_mode=False)
    traj = simulate(EX1, back, [0.0, 1.0])
    np.testing.assert_allclose(traj.endpoint, [0.0, -1.0], atol=1e-12)
    assert traj.times[-1] == -2.0 and traj.status == "ok"


def test_smooth_gated_fields_fixed_on_half_line():
    for idx in (2, 3):
        traj = simulate(EX1, ControlSchedule(((idx, 5.0),)), [0.0, -1.0])
        assert np.linalg.norm(traj.endpoint - [0.0, -1.0]) <= 1e-8


def test_smooth_right_pusher_moves_right():
    traj = simulate(EX1, ControlSchedule(((2, 1.0),)), [0.0, 1.0])
    assert traj.endpoint[0] > 0.0


def test_smooth_blowup_detection():
    # the gated pusher grows like x^2 and escapes in finite time, also
    # within a segment far longer than the escape time; on y = 1 it is
    # x' = x^2 + w^2 with w = exp(-1/2), so the recorded time must be the
    # closed-form time of reaching the recorded state
    w = np.exp(-0.5)
    for dur in (10.0, 1000.0):
        traj = simulate(EX1, ControlSchedule(((2, dur),)), [1.0, 1.0])
        assert traj.status == "blowup"
        assert np.linalg.norm(traj.states[-1]) >= 1e11
        t_end = (np.arctan(traj.endpoint[0] / w) - np.arctan(1.0 / w)) / w
        assert traj.times[-1] == pytest.approx(t_end, rel=1e-9)


def test_smooth_stall_raises():
    # the field is NaN from x = 2 on, which it reaches 2 time units into the
    # segment: steps toward it shrink until they no longer move that clock
    def wall(pts):
        out = np.zeros_like(pts)
        out[..., 0] = np.where(pts[..., 0] < 2.0, 1.0, np.nan)
        return out

    with pytest.raises(OverflowError):
        simulate(smooth_system(2, (wall,)), ControlSchedule(((0, 5.0),)),
                        [0.0, 1.0])


def test_smooth_stall_early_in_long_segment_raises(deadline):
    # from (1.999, 1) the NaN region is 0.001 time units in, so a step that
    # no longer moves the state still moves that clock; this used to loop
    # without end, so a deadline fails the test instead of hanging it
    def wall(pts):
        out = np.zeros_like(pts)
        out[..., 0] = np.where(pts[..., 0] < 2.0, 1.0, np.nan)
        return out

    with deadline(20), pytest.raises(OverflowError):
        simulate(smooth_system(2, (wall,)), ControlSchedule(((0, 5.0),)),
                        [1.999, 1.0])


def test_smooth_sampler_rows_replay_exactly():
    # the sampler and simulate run the same integrator, one clock per
    # row, so every sampled row replays bit for bit, blown-up rows included
    _, indices, durations = _schedule_tables(4, 30, 0, 20, 0.5)
    for x0 in ([0.0, 1.0], [0.0, -1.0]):
        ends = sample_attainable(EX1, x0, 30, seed=0, boundaries=False)
        for i in range(30):
            sched = _schedule_from_row(indices[i], durations[i])
            assert np.array_equal(simulate(EX1, sched, x0).endpoint, ends[i])
        assert (np.linalg.norm(ends, axis=1) > BLOWUP_NORM).any()


def test_smooth_sampler_agrees_with_dop853_oracle():
    # rows the oracle carries through agree within 1e-6 relative; rows it
    # sees pass BLOWUP_NORM are stopped past it by the sampler too
    _, indices, durations = _schedule_tables(4, 30, 1, 20, 0.5)
    for x0 in ([0.0, 1.0], [0.0, -1.0]):
        ends = sample_attainable(EX1, x0, 30, seed=1, boundaries=False)
        for i in range(30):
            segs = _schedule_from_row(indices[i], durations[i]).segments
            expect = smooth_endpoint(EX1.fields, segs, x0, BLOWUP_NORM)
            if expect is None:
                assert np.linalg.norm(ends[i]) > BLOWUP_NORM
            else:
                assert np.linalg.norm(ends[i] - expect) <= 1e-6 * np.linalg.norm(expect)


def test_simulate_nilpotent_closed_form():
    # exp(t E12) = I + t E12, forward, backward (orbit mode) and sub-stepped
    fam = bilinear_system(([[0.0, 1.0], [0.0, 0.0]],))
    x0 = np.array([0.3, -1.1])

    def closed(t):
        return x0 + t * np.array([x0[1], 0.0])

    for t in (2.5, -1.75):
        sched = ControlSchedule(((0, t),), attainable_mode=t > 0)
        np.testing.assert_allclose(simulate(fam, sched, x0).endpoint,
                                   closed(t), rtol=1e-14, atol=1e-15)
    traj = simulate(fam, ControlSchedule(split_segments(((0, 2.5),), 0.5)), x0)
    np.testing.assert_allclose(traj.times, np.arange(6) * 0.5, rtol=1e-15)
    for t, state in zip(traj.times, traj.states):
        np.testing.assert_allclose(state, closed(t), rtol=1e-14, atol=1e-15)


def test_simulate_overflow_raises():
    fam = bilinear_system((np.diag([1000.0, 0.0]),))
    with pytest.raises(OverflowError):
        simulate(fam, ControlSchedule(((0, 1.0),)), [1.0, 1.0])


def test_simulate_nonfinite_flow_scale_raises():
    # |t| |M|_1 = 1e310 is not finite for this defective generator
    fam = bilinear_system((np.array([[0.0, 1e10], [0.0, 0.0]]),))
    with pytest.raises(OverflowError, match="flow overflowed"):
        simulate(fam, ControlSchedule(((0, 1.0), (0, 1e300))), [1.0, 1.0])


def test_runner_builds_only_the_flows_a_table_uses(monkeypatch):
    from bilinctrl import reach

    built = []
    make = reach._flow
    monkeypatch.setattr(reach, "_flow", lambda m: built.append(m) or make(m))
    run = reach._runner(SO3)
    run(np.ones((2, 3)), np.array([[2, 0], [2, 2]]), np.array([[0.5, 0.0], [0.5, 1.0]]))
    assert [m is SO3.family.matrices[2] for m in built] == [True]
    run(np.ones((1, 3)), np.array([[1, 2]]), np.array([[0.5, 0.5]]))
    assert len(built) == 2


def test_degenerate_underflow_reported():
    fam = bilinear_system((-np.eye(2),))
    tiny = np.array([1e-250, 0.0])
    traj = simulate(fam, ControlSchedule(((0, 300.0),)), tiny)
    assert traj.status == "degenerate"


def test_degenerate_reported_at_first_recorded_underflow():
    # exp(-t) * 1e-290 falls below DEGENERATE_NORM inside the 300-unit
    # segment: the trajectory ends at the first recorded state whose norm is
    # below it, not at the end of the segment
    fam = bilinear_system((-np.eye(2),))
    traj = simulate(fam, ControlSchedule(split_segments(((0, 300.0),), 10.0)),
                    [1e-290, 0.0])
    norms = np.hypot.reduce(np.abs(traj.states), axis=1)  # squares would underflow
    assert traj.status == "degenerate"
    assert 0.0 < traj.times[-1] < 300.0
    np.testing.assert_array_equal(traj.times, 10.0 * np.arange(len(traj.times)))
    assert norms[-1] < DEGENERATE_NORM and np.all(norms[:-1] >= DEGENERATE_NORM)


@pytest.mark.parametrize("dt", [None, 10.0])
def test_tiny_states_above_degenerate_norm_are_ok(dt):
    # |x| = 1e-150 exp(-t) stays far above DEGENERATE_NORM, although its
    # square underflows from t = 30 on
    fam = bilinear_system((-np.eye(2),))
    segs = ((0, 60.0),) if dt is None else split_segments(((0, 60.0),), dt)
    traj = simulate(fam, ControlSchedule(segs), [1e-150, 0.0])
    assert traj.status == "ok"
    assert traj.times[-1] == 60.0
    assert traj.states[-1, 0] == pytest.approx(1e-150 * np.exp(-60.0), rel=1e-12)


def test_sampler_deterministic():
    a = sample_attainable(PJ, [1.0, 0.0], 500, seed=9)
    b = sample_attainable(PJ, [1.0, 0.0], 500, seed=9)
    np.testing.assert_array_equal(a, b)
    c = sample_attainable(PJ, [1.0, 0.0], 500, seed=10)
    assert not np.array_equal(a, c)


def test_sampler_skew_norm_preserved():
    cloud = sample_attainable(SO3, [1.0, 0.0, 0.0], 1000, seed=0)
    assert np.max(np.abs(np.linalg.norm(cloud, axis=1) - 1.0)) <= 1e-9


def test_sampler_identity_stays_on_ray():
    io = builtin_corpus("identity_only")
    cloud = sample_attainable(io, [1.0, 0.0], 100, seed=0)
    assert np.all(cloud[:, 1] == 0.0)
    assert np.all(cloud[:, 0] >= 1.0 - 1e-12)


def test_sampler_hyperbolic_spreads_both_ways():
    cloud = sample_attainable(PJ, [1.0, 0.0], 20000, seed=0)
    norms = np.linalg.norm(cloud, axis=1)
    assert (norms > 1.0).any() and (norms < 1.0).any()


def test_sampler_endpoint_mode_size():
    ends = sample_attainable(PJ, [1.0, 0.0], 300, seed=0, boundaries=False)
    assert ends.shape == (300, 2)


def test_sampler_rows_independent_of_budget():
    # schedule i is a pure function of (seed, i): growing the budget keeps
    # the earlier endpoints unchanged
    small = sample_attainable(PJ, [1.0, 0.0], 100, seed=5, boundaries=False)
    large = sample_attainable(PJ, [1.0, 0.0], 400, seed=5, boundaries=False)
    np.testing.assert_array_equal(small, large[:100])


def test_sampler_endpoints_match_simulator():
    # batched flow kernel vs a plain product of scipy exponentials, including
    # a defective (non-diagonalizable) generator
    from bilinctrl.reach import _schedule_from_row, _schedule_tables

    defective = bilinear_system([[[0.0, 1.0], [0.0, 0.0]],
                                 [[0.0, -1.0], [1.0, 0.0]]], name="jordan")
    for spec in (PJ, defective):
        counts, indices, durations = _schedule_tables(2, 40, 3, 6, 1.0)
        ends = sample_attainable(spec, [1.0, 0.5], 40, seed=3, max_segments=6,
                                 duration_scale=1.0, boundaries=False)
        for i in range(40):
            sched = _schedule_from_row(indices[i], durations[i])
            expect = expm_product(spec.family.matrices, sched.segments, [1.0, 0.5])
            assert np.linalg.norm(ends[i] - expect) \
                <= 1e-10 * max(1.0, np.linalg.norm(expect))


def test_sampler_endpoints_match_simulator_shift_lz():
    # the batched Padé kernel on a defective n = 3 pair: a nilpotent shift
    # and a rotation about the third axis
    shift_lz = bilinear_system([[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
                                [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
                               name="shift_lz")
    x0 = [1.0, 0.5, -0.3]
    _, indices, durations = _schedule_tables(2, 40, 3, 6, 1.0)
    ends = sample_attainable(shift_lz, x0, 40, seed=3, max_segments=6,
                             duration_scale=1.0, boundaries=False)
    for i in range(40):
        sched = _schedule_from_row(indices[i], durations[i])
        expect = expm_product(shift_lz.family.matrices, sched.segments, x0)
        assert np.linalg.norm(ends[i] - expect) <= 1e-10 * max(1.0, np.linalg.norm(expect))


@pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("search", [False, True], ids=["sample", "reach"])
def test_schedules_refuse_bad_duration_scale(search, scale):
    # nan used to give an empty cloud, inf a cloud with non-finite rows
    with pytest.raises(ValueError, match="duration_scale"):
        if search:
            approx_reach_test(PJ, [1.0, 0.0], [0.0, 2.0], 1e-2, 10, 0,
                              duration_scale=scale)
        else:
            sample_attainable(PJ, [1.0, 0.0], 10, 0, duration_scale=scale)


def test_coverage_grid_refuses_infinite_r_max():
    # every point at least r_min from the origin fell in radial bin 0
    with pytest.raises(ValueError, match="r_max"):
        CoverageGrid(2, r_max=np.inf)


@pytest.mark.parametrize("n, count", [(4, 16), (5, 16), (6, 16), (3, 64), (4, 64),
                                      (5, 128)])
def test_spread_directions_match_rescan_oracle(n, count):
    got = spread_directions(np.random.default_rng([0, n, count]), n, count)
    want = rescan_spread_directions(np.random.default_rng([0, n, count]), n, count)
    assert np.array_equal(got, want)


def test_fine_high_dimensional_grid_builds_quickly(deadline):
    # picking each center used to rescan all earlier ones, about 11 s on a
    # 2-vCPU machine
    with deadline(5):
        grid = CoverageGrid(5, angular_cells=1024)
    assert grid.num_angular == 1024


def test_coverage_single_point():
    grid = CoverageGrid(2, angular_cells=8, radial_bins=4)
    rep = coverage(np.array([[1.0, 0.0]]), grid)
    assert rep.hit_count == 1
    assert rep.fraction == pytest.approx(1.0 / rep.total_cells)


def test_coverage_ignores_points_outside_annulus():
    grid = CoverageGrid(2, angular_cells=8, radial_bins=4)
    rep = coverage(np.array([[100.0, 0.0], [1e-3, 0.0]]), grid)
    assert rep.hit_count == 0
    assert rep.num_in_annulus == 0


def test_coverage_sphere_cloud_single_radial_bin():
    cloud = sample_attainable(SO3, [1.0, 0.0, 0.0], 3000, seed=0)
    grid = CoverageGrid(3, angular_cells=32, radial_bins=3)
    rep = coverage(cloud, grid)
    cells = grid.cell_indices(cloud)
    assert np.all(cells % grid.radial_bins == cells[0] % grid.radial_bins)
    assert rep.fraction <= 1.0 / grid.radial_bins + 1e-12


def test_coverage_antipodal_quotient():
    grid = CoverageGrid(2, angular_cells=8, radial_bins=2, antipodal=True)
    plain = CoverageGrid(2, angular_cells=8, radial_bins=2)
    assert grid.total_cells == plain.total_cells // 2
    x = np.array([[0.0, 1.0]])
    assert grid.cell_indices(x) == grid.cell_indices(-x)


def test_coverage_antipodal_higher_dim_pairing():
    grid = CoverageGrid(5, angular_cells=20, radial_bins=2, antipodal=True)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((200, 5))
    np.testing.assert_array_equal(grid.cell_indices(pts), grid.cell_indices(-pts))


@pytest.mark.parametrize("cells", [8, 18, 32])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_coverage_antipodal_quotient_equal_area_cells(n, cells):
    grid = CoverageGrid(n, angular_cells=cells, radial_bins=2, antipodal=True)
    plain = CoverageGrid(n, angular_cells=cells, radial_bins=2)
    assert grid.total_cells == plain.total_cells // 2
    ids = np.arange(grid.num_angular)
    partner = grid.antipodal_partner(ids)
    np.testing.assert_array_equal(grid.antipodal_partner(partner), ids)
    assert not np.any(partner == ids)
    rng = np.random.default_rng(cells)
    units = rng.standard_normal((200, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    units = np.vstack([units, np.eye(n), -np.eye(n)])  # zero coordinates
    np.testing.assert_array_equal(grid.antipodal_partner(grid.angular_index(units)),
                                  grid.angular_index(-units))
    pts = units * rng.uniform(0.2, 5.0, size=(len(units), 1))
    cells_of = grid.cell_indices(pts)
    assert np.all(cells_of >= 0)
    np.testing.assert_array_equal(cells_of, grid.cell_indices(-pts))


@pytest.mark.parametrize("cells", [8, 18, 32])
@pytest.mark.parametrize("n", [2, 3])
def test_antipodal_pairing_is_exact_on_cell_edges(n, cells):
    # a ring in the plane z = 0 with a point on every cell edge for n = 2 and
    # on every sector edge for n = 3, whose equator is a band edge when the
    # band count is even; with its antipodes it hits each quotient cell twice
    grid = CoverageGrid(n, angular_cells=cells, radial_bins=1)
    quotient = CoverageGrid(n, angular_cells=cells, radial_bins=1, antipodal=True)
    edges = np.arange(grid.num_angular) / grid.num_angular
    angles = 2.0 * np.pi * np.concatenate([edges, np.arange(1000) / 1000])
    ring = np.zeros((len(angles), n))
    ring[:, 0], ring[:, 1] = np.cos(angles), np.sin(angles)
    np.testing.assert_array_equal(grid.angular_index(-ring),
                                  grid.antipodal_partner(grid.angular_index(ring)))
    both = np.vstack([ring, -ring])
    hits = np.unique(grid.cell_indices(both)).size
    assert hits == 2 * np.unique(quotient.cell_indices(both)).size
    if n == 3 and cells == 32:  # 4 bands of 8 sectors
        assert hits == 8


@pytest.mark.parametrize("antipodal", [False, True])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_coverage_counts_only_finite_rows(n, antipodal):
    # rows with NaN, +-inf or mixed inf/NaN entries, and a finite row whose
    # squared norm overflows, count as points but never as annulus hits
    grid = CoverageGrid(n, angular_cells=18, radial_bins=4, antipodal=antipodal)
    rng = np.random.default_rng(n)
    units = rng.standard_normal((300, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    radii = np.exp(rng.uniform(-4.0, 4.0, size=300))
    finite = np.vstack([units * radii[:, None], np.full((1, n), 1e200)])
    bad = np.ones((6, n))
    bad[0], bad[1], bad[2] = np.nan, np.inf, -np.inf
    bad[3, 0], bad[3, -1] = np.inf, np.nan
    bad[4, 0], bad[4, -1] = -np.inf, np.inf
    bad[5, 0] = np.nan
    cloud = np.vstack([finite, bad])[rng.permutation(len(finite) + len(bad))]
    np.testing.assert_array_equal(grid.cell_indices(bad), -1)
    rep, ref = coverage(cloud, grid), coverage(finite, grid)
    assert rep.num_points == len(finite) + len(bad)
    assert rep.num_in_annulus == ref.num_in_annulus == np.sum((radii >= 0.1) & (radii <= 10.0))
    assert rep.hit_count == ref.hit_count > 0
    np.testing.assert_array_equal(rep.hits, ref.hits)


def test_monotone_family_never_contracts():
    ep = builtin_corpus("expanding_pair")
    cloud = sample_attainable(ep, [1.0, 0.0], 5000, seed=2)
    assert np.all(np.linalg.norm(cloud, axis=1) >= 1.0 - 1e-9)


def test_reach_hit_with_replayable_witness():
    res = approx_reach_test(PJ, [1.0, 0.0], [0.0, 2.0], eps=1e-2,
                            budget=20000, seed=0)
    assert res.hit and res.witness is not None
    replay = simulate(PJ, res.witness, [1.0, 0.0]).endpoint
    assert np.linalg.norm(replay - [0.0, 2.0]) <= 1e-2


def test_reach_miss_on_confined_ray():
    io = builtin_corpus("identity_only")
    res = approx_reach_test(io, [1.0, 0.0], [-1.0, 0.0], eps=0.1,
                            budget=2000, seed=0)
    assert not res.hit and res.witness is None
    assert res.distance >= 2.0 - 1e-9


def test_reach_miss_off_sphere():
    res = approx_reach_test(SO3, [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], eps=0.5,
                            budget=2000, seed=0)
    assert not res.hit
    assert res.distance >= 1.0 - 1e-9


def test_reach_search_survives_overflowing_schedules():
    # exp(t diag(800, -800)) overflows for t > 0.89: such schedules count as
    # infinitely far instead of ending the search or its replay
    stiff = bilinear_system((np.diag([800.0, -800.0]), [[0.0, -1.0], [1.0, 0.0]]))
    res = approx_reach_test(stiff, [1.0, 0.0], [0.0, 2.0], eps=1e-2,
                            budget=2000, seed=0)
    assert np.all(np.isfinite(res.endpoint))
    assert res.distance == pytest.approx(np.linalg.norm(res.endpoint - [0.0, 2.0]))
    assert res.hit == (res.witness is not None) == (res.distance <= 1e-2)


def test_reach_descent_matches_serial_oracle():
    # the batched descent takes the steps of a one-candidate-at-a-time
    # search; smooth rows run bit for bit alike in a batch and alone
    for seed in range(4):
        res = approx_reach_test(EX1, [0.0, 1.0], [0.5, 1.5], eps=1e-2, budget=300,
                                seed=seed, max_segments=3, duration_scale=0.25)
        hit, evaluations, distance, witness = serial_reach_search(
            EX1, [0.0, 1.0], [0.5, 1.5], 1e-2, 300, seed, max_segments=3,
            duration_scale=0.25)
        assert (res.hit, res.evaluations, res.distance) == (hit, evaluations, distance)
        assert (res.witness.segments if res.witness else None) == witness


@pytest.mark.parametrize("target, eps", [
    ([np.nan, 0.0], 1e-2), ([np.inf, 1.0], 1e-2), ([0.0, 2.0], np.inf),
    ([0.0, 2.0], np.nan),
])
def test_reach_rejects_non_finite_target_or_eps(target, eps):
    # a NaN target spent the budget and returned distance nan; eps = inf
    # returned a hit 0.08 away
    with pytest.raises(ValueError):
        approx_reach_test(PJ, [1.0, 0.0], target, eps=eps, budget=300, seed=0)
