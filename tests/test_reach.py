import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bilinctrl.model import (
    ControlSchedule,
    bilinear_system,
    builtin_corpus,
    random_system,
    smooth_system,
)
from bilinctrl.reach import (
    BLOWUP_NORM,
    DEGENERATE_NORM,
    CoverageGrid,
    approx_reach_test,
    coverage,
    integrate_table,
    rk_step,
    sample_attainable,
    simulate,
    spread_directions,
    _COVERAGE_BLOCK,
    _RK_A,
    _RK_B5,
    _RK_DENSE,
    _SAMPLE_BLOCK,
    _runner,
    _schedule_blocks,
    _schedule_from_row,
    _schedule_tables,
)

from oracles import (
    FEHLBERG_A,
    FEHLBERG_C,
    expm_product,
    fancy_index_integrate_table,
    fancy_index_run,
    fehlberg_dense_weights,
    norm_coverage,
    one_shot_coverage,
    one_table_sample,
    python_sum_rk_step,
    serial_reach_search,
    smooth_endpoint,
    split_segments,
)
from oracles import spread_directions as rescan_spread_directions

PJ = builtin_corpus("planar_jd")
SO3 = builtin_corpus("so3")
EX1 = builtin_corpus("example1")
E12_E21 = bilinear_system([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                          name="e12_e21")
SHIFT_LZ = bilinear_system([[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
                            [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
                           name="shift_lz")


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
        assert np.linalg.norm(traj.states[-1]) > BLOWUP_NORM
        t_end = (np.arctan(traj.endpoint[0] / w) - np.arctan(1.0 / w)) / w
        assert traj.times[-1] == pytest.approx(t_end, rel=1e-9)


def _wall(pts):
    """A field that is NaN from x = 2 on: rows that reach it stall."""
    out = np.zeros_like(pts)
    out[..., 0] = np.where(pts[..., 0] < 2.0, 1.0, np.nan)
    return out


def test_smooth_stall_raises():
    # the field is NaN from x = 2 on, which it reaches 2 time units into the
    # segment: steps toward it shrink until they no longer move that clock
    with pytest.raises(OverflowError):
        simulate(smooth_system(2, (_wall,)), ControlSchedule(((0, 5.0),)),
                        [0.0, 1.0])


def test_smooth_stall_early_in_long_segment_raises(deadline):
    # from (1.999, 1) the NaN region is 0.001 time units in, so a step that
    # no longer moves the state still moves that clock; this used to loop
    # without end, so a deadline fails the test instead of hanging it
    with deadline(20), pytest.raises(OverflowError):
        simulate(smooth_system(2, (_wall,)), ControlSchedule(((0, 5.0),)),
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


@pytest.mark.parametrize("n", [2, 7])
@pytest.mark.parametrize("rows", [1, 2, 7, 64, 3000])
def test_rk_step_matches_python_sum_oracle(rows, n):
    # each stage sum is one einsum over the stacked stages; it must add the
    # weighted stages from 0 in stage order, as the Python sum does, so
    # signed zeros and every last bit come out the same for any stack size
    rng = np.random.default_rng([rows, n])
    a = rng.standard_normal((n, n))
    u = rng.standard_normal((rows, n))
    u[::2, 0], u[1::2, 0], u[::3, -1] = 0.0, -0.0, -0.0
    h = rng.standard_normal(rows) * 0.1  # signed steps

    def mixing(v):
        return np.tanh(v @ a.T) * (1.0 + v * v)

    def keeps_zeros(v):  # a zero coordinate gets a signed zero rate
        return v * a[0] - v ** 3

    for f in (mixing, keeps_zeros):
        for got, want in zip(rk_step(f, u, h), python_sum_rk_step(f, u, h)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for got, want in zip(rk_step(f, u[0], h[0]), python_sum_rk_step(f, u[0], h[0])):
            assert got.tobytes() == want.tobytes()  # a single state


def test_continuous_extension_is_fourth_order_and_ends_at_the_step():
    # in exact arithmetic: the tableau is the library's, the weights meet
    # the eight order conditions up to order 4 at every theta tried, vanish
    # at theta = 0 and are the 5th-order weights at theta = 1
    a, c, r = FEHLBERG_A, FEHLBERG_C, range(7)
    for i, row in enumerate(_RK_A, 1):
        assert tuple(row) == tuple(float(v) for v in a[i][:i])
    assert tuple(_RK_B5[1]) == tuple(float(a[6][i]) for i in _RK_B5[0])
    assert all(sum(a[i]) == c[i] for i in r)
    ac = [sum(a[i][j] * c[j] for j in r) for i in r]
    for theta in (Fraction(k, 8) for k in range(9)):
        b = fehlberg_dense_weights(theta)
        conditions = (
            (sum(b), theta),
            (sum(b[i] * c[i] for i in r), theta**2 / 2),
            (sum(b[i] * c[i]**2 for i in r), theta**3 / 3),
            (sum(b[i] * ac[i] for i in r), theta**3 / 6),
            (sum(b[i] * c[i]**3 for i in r), theta**4 / 4),
            (sum(b[i] * c[i] * ac[i] for i in r), theta**4 / 8),
            (sum(b[i] * a[i][j] * c[j]**2 for i in r for j in r), theta**4 / 12),
            (sum(b[i] * a[i][j] * ac[j] for i in r for j in r), theta**4 / 24),
        )
        assert all(got == want for got, want in conditions)
        # the library's coefficient table gives the same weights to rounding
        table = float(theta) ** np.arange(1, 5) @ _RK_DENSE.T
        np.testing.assert_allclose(table, [float(w) for w in b], rtol=0, atol=2e-15)
    assert fehlberg_dense_weights(Fraction(0)) == (0,) * 7
    assert fehlberg_dense_weights(Fraction(1)) == a[6][:6] + (0,)


@pytest.mark.parametrize("fields", [(*EX1.fields, _wall), (EX1.fields[2],)],
                         ids=["several-fields", "one-field"])
def test_table_with_states_inside_segments_keeps_the_stepped_ends(fields):
    # steps are clipped at segment ends whatever per_segment is, so every
    # m-th state is the per_segment=1 one, bit for bit; a segment of no
    # time holds its state throughout, and a halted row holds its halted
    # state (NaN after a stall) from its halt time on
    m, rows = 4, 64
    table = _smooth_table(fields, rows, seed=9)
    bounds, stop, left = integrate_table(fields, *table, BLOWUP_NORM)
    dense, dense_stop, dense_left = integrate_table(fields, *table, BLOWUP_NORM,
                                                    per_segment=m)
    assert dense.shape == (rows, 6 * m, 2)
    assert dense[:, m - 1::m].tobytes() == bounds.tobytes()
    assert dense_stop.tobytes() == stop.tobytes() and dense_left.tobytes() == left.tobytes()
    spans = np.abs(table[2])
    by_segment = dense.reshape(rows, 6, m, 2)
    times = spans[..., None] * np.arange(1, m + 1) / m  # of each state in its segment
    held = times == times[..., -1:]  # a segment of no time, ...
    for r in np.flatnonzero(stop < 6):  # ... or after a halt
        held[r, stop[r]:] = True
        held[r, stop[r], :-1] = times[r, stop[r], :-1] > spans[r, stop[r]] - left[r]
    assert (stop < 6).any() and (spans == 0.0).any() and held.sum() > (spans == 0.0).sum() * m
    ends = np.broadcast_to(by_segment[:, :, -1:], by_segment.shape)
    np.testing.assert_array_equal(by_segment[held], ends[held])
    assert np.isfinite(by_segment[~held]).all()


def test_integrate_table_is_row_order_independent():
    # the live rows keep their table order; a row's result must not depend
    # on where it sits in the table
    _, indices, durations = _schedule_tables(4, 120, 3, 8, 0.5)
    x0s = np.random.default_rng(5).standard_normal((120, 2))
    table = (x0s, indices, durations)
    bounds, stop, left = integrate_table(EX1.fields, *table, BLOWUP_NORM)
    assert set(indices[durations > 0.0]) == {0, 1, 2, 3}
    assert (stop < 8).any() and (stop == 8).any()  # rows that escape and rows that finish
    perm = np.random.default_rng(6).permutation(120)
    permuted = integrate_table(EX1.fields, *(a[perm] for a in table), BLOWUP_NORM)
    for got, want in zip(permuted, (bounds, stop, left)):
        assert got.tobytes() == want[perm].tobytes()


def _smooth_table(fields, rows, seed):
    """A table of rows over the fields with zero durations inside rows,
    rows that escape (the gated pusher) and rows that stall (the wall)."""
    _, indices, durations = _schedule_tables(len(fields), rows, seed, 6, 0.8)
    durations[1::3, 2] = 0.0
    x0s = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(rows, 2))
    return x0s, indices, durations


@pytest.mark.parametrize("rows", [1, 7, 32, 4096])
@pytest.mark.parametrize("fields", [(*EX1.fields, _wall), (EX1.fields[2],)],
                         ids=["several-fields", "one-field"])
def test_integrate_table_matches_fancy_index_oracle(fields, rows):
    # gathers by take and the accepted steps copied in under a row mask give
    # the rows, bit for bit, that a[keep] and x[ok] = u5[ok] gave
    table = _smooth_table(fields, rows, seed=rows)
    got = integrate_table(fields, *table, BLOWUP_NORM)
    want = fancy_index_integrate_table(fields, *table, BLOWUP_NORM)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    if rows >= 32:  # rows that finish, escape and (with the wall) stall
        stop = got[1]
        assert (stop == 6).any() and (stop < 6).any()
        assert np.isnan(got[0]).any() == (len(fields) > 1)


@pytest.mark.parametrize("rows", [1, 7, 32, 4096])
def test_example1_table_matches_the_generic_rows(rows):
    # example1's field table evaluates all live rows in one call; as a plain
    # tuple the same fields run one call per field, and the rows must agree
    # bit for bit
    assert type(EX1.fields) is not tuple and type(tuple(EX1.fields)) is tuple
    table = _smooth_table(EX1.fields, rows, seed=rows)
    got = integrate_table(EX1.fields, *table, BLOWUP_NORM)
    want = integrate_table(tuple(EX1.fields), *table, BLOWUP_NORM)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    if rows >= 32:  # rows that finish and rows that escape, on every field
        assert set(table[1][table[2] > 0.0]) == {0, 1, 2, 3}
        assert (got[1] == 6).any() and (got[1] < 6).any()


def test_example1_gate_runs_once_per_stage(monkeypatch):
    # a table of all four fields evaluates example1's gate once per stage
    # for all its live rows, not once per field
    from bilinctrl import model, reach

    gates, stages = [], []
    gate, step = model.example1_gate, reach.rk_step

    def counting_gate(u):
        gates.append(len(u))
        return gate(u)

    def counting_step(f, u, h, ks=None):
        def g(v):
            stages.append(len(v))
            return f(v)
        return step(g, u, h, ks)

    monkeypatch.setattr(model, "example1_gate", counting_gate)
    monkeypatch.setattr(reach, "rk_step", counting_step)
    rows = 40
    x0s = np.random.default_rng(2).uniform(-1.0, 1.0, size=(rows, 2))
    indices = (np.arange(2 * rows) % 4).reshape(rows, 2)
    integrate_table(EX1.fields, x0s, indices, np.full((rows, 2), 0.3), BLOWUP_NORM)
    assert len(stages) >= 6 and stages[0] == rows
    assert gates == stages


def _diagonalizable_pair(n, rotate, seed):
    """Two generators P D_k P^-1 with eigenvalues of real parts from -1 to 1:
    real for rotate False, else a conjugate pair a +- bi per 2 x 2 block."""
    rng = np.random.default_rng([n, rotate, seed])
    mats = []
    for k in range(2):
        d = np.diag(np.linspace(-1.0, 1.0, n) if n > 1 else [1.0 - 2.0 * k])
        if rotate:
            for i in range(0, n - 1, 2):
                d[i, i] = d[i + 1, i + 1]
                d[i, i + 1], d[i + 1, i] = -1.5 - k, 1.5 + k
        p = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        mats.append(p @ d @ np.linalg.inv(p))
    return mats


EVIDENCE_SPECS = {
    **{f"real{n}": bilinear_system(_diagonalizable_pair(n, False, 0)) for n in (1, 2, 3, 5)},
    **{f"complex{n}": bilinear_system(_diagonalizable_pair(n, True, 0)) for n in (2, 3, 5)},
    "so3": SO3, "planar_jd": PJ, "identity_only": builtin_corpus("identity_only"),
    "e12_e21": E12_E21, "shift_lz": SHIFT_LZ,
}


@pytest.mark.parametrize("rows", [1, 7, 32, 4096])
@pytest.mark.parametrize("name", list(EVIDENCE_SPECS))
def test_runner_and_coverage_match_fancy_index_oracles(name, rows):
    # the runner's take gathers and row-record scatters, and coverage's
    # column-wise norms and take gather, give the bounds, the cloud and the
    # coverage counts, bit for bit, of x[sel], x[sel] = ... and linalg.norm;
    # zero durations sit inside rows, and durations of 2000 overflow rows
    # to inf and NaN wherever a real part is positive
    spec = EVIDENCE_SPECS[name]
    _, indices, durations = _schedule_tables(spec.num_fields, rows, rows, 20, 0.5)
    durations[1::3, 4] = 0.0
    durations[::5, 1] = 2000.0
    x0 = np.eye(spec.n)[0]
    for x0s in (np.broadcast_to(x0, (rows, spec.n)),
                np.random.default_rng(rows).standard_normal((rows, spec.n))):
        got = _runner(spec)(x0s, indices, durations)
        want = fancy_index_run(spec, x0s, indices, durations)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
    bounds = got[0]
    if name.startswith(("real", "complex")):
        assert not np.isfinite(bounds).all()
    cloud = bounds.transpose(1, 0, 2)[durations.T > 0.0]
    for grid in (CoverageGrid(spec.n), CoverageGrid(spec.n, angular_cells=12, radial_bins=5,
                                                    r_min=0.5, r_max=3.0, antipodal=True)):
        rep = coverage(cloud, grid)
        hits, inside, below, beyond = norm_coverage(cloud, grid)
        assert rep.hits.tobytes() == hits.tobytes()
        assert (rep.num_in_annulus, rep.num_below_annulus, rep.num_beyond_annulus) == \
            (inside, below, beyond)


def _layouts(a):
    """a as C-ordered, Fortran-ordered and transposed-view arrays, and as a
    view with a column stride of two."""
    wide = np.zeros((a.shape[0], 2 * a.shape[1]), dtype=a.dtype)
    wide[:, ::2] = a
    return (np.ascontiguousarray(a), np.asfortranarray(a),
            np.ascontiguousarray(a.T).T, wide[:, ::2])


@pytest.mark.parametrize("spec", [SO3, random_system(5, 2, 3), EX1],
                         ids=["so3", "random5", "example1"])
def test_runners_ignore_input_layout(spec):
    # the bilinear runner moves whole rows as records of a C-ordered state,
    # and integrate_table keeps a C-ordered state too: x0s broadcast or laid
    # out in any order, and tables given as strided views, run the same
    rows = 40
    _, indices, durations = _schedule_tables(spec.num_fields, rows, 2, 6, 0.5)
    x0 = np.eye(spec.n)[-1]
    starts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(rows, spec.n))
    run = _runner(spec)
    want = run(starts, indices, durations)
    for x0s in _layouts(starts):
        for idx, dur in zip(_layouts(indices), _layouts(durations)):
            for g, w in zip(run(x0s, idx, dur), want):
                assert g.tobytes() == w.tobytes()
    broadcast = run(np.broadcast_to(x0, (rows, spec.n)), *_layouts(indices)[3:],
                    *_layouts(durations)[3:])
    for g, w in zip(broadcast, run(np.tile(x0, (rows, 1)), indices, durations)):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("segs", [0, 3])
def test_integrate_table_of_no_rows_is_empty(segs):
    bounds, stop, left = integrate_table(EX1.fields, np.zeros((0, 2)),
                                         np.zeros((0, segs), int), np.zeros((0, segs)),
                                         BLOWUP_NORM)
    assert bounds.shape == (0, segs, 2) and stop.shape == left.shape == (0,)


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


@pytest.mark.parametrize("spec", [SO3, PJ, E12_E21, random_system(5, 2, 0)],
                         ids=["so3", "planar_jd", "e12_e21", "random5"])
def test_sampler_boundaries_match_simulator(spec):
    # the cloud is segment-major: the j-th boundary state of every row that
    # has one, in row order, then the (j + 1)-th.  so3, planar_jd and
    # {E12, E21} run bit for bit alike in a table and alone, but for the
    # sign of a zero.  The random family does not: numpy sends a one-row
    # product to BLAS gemv and a many-row one to gemm, which round apart,
    # so its states agree to 1e-10 of their norm.
    x0 = np.eye(spec.n)[0]
    cloud = sample_attainable(spec, x0, 200, seed=0)
    _, indices, durations = _schedule_tables(spec.num_fields, 200, 0, 20, 0.5)
    rows = [simulate(spec, _schedule_from_row(indices[i], durations[i]), x0).states[1:]
            for i in range(200)]
    expect = np.array([r[j] for j in range(20) for r in rows if j < len(r)])
    assert cloud.shape == expect.shape == (np.count_nonzero(durations > 0.0), spec.n)
    if spec.name.startswith("random"):
        gap = np.linalg.norm(cloud - expect, axis=1)
        assert np.all(gap <= 1e-10 * np.linalg.norm(expect, axis=1))
    else:
        same_bits = cloud.view(np.int64) == expect.view(np.int64)
        assert np.all(same_bits | (cloud == 0.0) & (expect == 0.0))


@pytest.mark.parametrize("block", [1, 7, _SAMPLE_BLOCK])
@pytest.mark.parametrize("budget", [1, 7, 8, 3 * 7 + 2, _SAMPLE_BLOCK + 1,
                                    3 * _SAMPLE_BLOCK + 77])
def test_schedule_blocks_join_into_one_table(budget, block):
    # consecutive draws continue one stream, so the blocks are the table
    # drawn at once; blocks differ in size by at most one row, so no block is
    # a tiny remainder
    blocks = list(_schedule_blocks(3, budget, 4, 20, 0.5, block))
    sizes = [len(b[0]) for b in blocks]
    assert sum(sizes) == budget and max(sizes) <= block
    assert len(blocks) == -(-budget // block) and max(sizes) - min(sizes) <= 1
    for got, want in zip(zip(*blocks), _schedule_tables(3, budget, 4, 20, 0.5)):
        assert np.concatenate(got).tobytes() == want.tobytes()


def _sorted_bits(cloud):
    """The rows of cloud in the order of their bit patterns."""
    return cloud[np.lexsort(cloud.view(np.int64).T[::-1])]


@pytest.mark.parametrize("spec", [SO3, PJ, E12_E21, SHIFT_LZ, random_system(5, 2, 0)],
                         ids=["so3", "planar_jd", "e12_e21", "shift_lz", "random5"])
def test_blockwise_sampling_matches_one_table_oracle(spec):
    # a bilinear table runs in blocks of near-equal size; the blocks hold the
    # same points, bit for bit, as the table run in one call, and the
    # endpoints keep row order
    budget = 3 * _SAMPLE_BLOCK + 77
    x0 = np.eye(spec.n)[0]
    cloud, ends = one_table_sample(spec, x0, budget, seed=1)
    got = sample_attainable(spec, x0, budget, seed=1)
    assert got.shape == cloud.shape
    assert _sorted_bits(got).tobytes() == _sorted_bits(cloud).tobytes()
    got_ends = sample_attainable(spec, x0, budget, seed=1, boundaries=False)
    assert got_ends.tobytes() == ends.tobytes()


@pytest.mark.parametrize("spec, x0, budget", [(SO3, [1.0, 0.0, 0.0], 10000),
                                              (SO3, [1.0, 0.0, 0.0], 100),
                                              (EX1, [0.0, 1.0], 30)],
                         ids=["so3-blocks", "so3-one-block", "example1"])
@pytest.mark.parametrize("boundaries", [False, True])
def test_sampler_returns_arrays_that_own_their_data(spec, x0, budget, boundaries):
    # the endpoints used to be a view of the whole boundary table
    out = sample_attainable(spec, x0, budget, seed=0, boundaries=boundaries)
    assert out.flags.owndata and out.base is None


def test_smooth_tables_run_whole(monkeypatch):
    # integrate_table steps all rows together, so a smooth table above one
    # block still runs as one table
    from bilinctrl import reach

    tables = []
    integrate = reach.integrate_table
    monkeypatch.setattr(reach, "integrate_table",
                        lambda fields, x0s, *rest: tables.append(len(x0s))
                        or integrate(fields, x0s, *rest))
    budget = _SAMPLE_BLOCK + 1
    sample_attainable(EX1, [0.0, 1.0], budget, seed=0, max_segments=2)
    assert tables == [budget]


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


def _off_edges(values, margin=1e-6):
    """Rows whose every value lies at least margin from an integer."""
    return np.all(np.abs(values - np.round(values)) >= margin, axis=1)


@pytest.mark.parametrize("cells", [2, 8, 18, 32, 101])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_equal_area_cells_follow_closed_form(n, cells):
    # which half-line, arc or band x sector a point lands in, away from the
    # cell edges, from the documented rule rather than from angular_index
    grid = CoverageGrid(n, angular_cells=cells)
    rng = np.random.default_rng([n, cells])
    units = rng.standard_normal((4000, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    num = grid.num_angular
    if n == 1:
        assert num == 2
        want = np.where(units[:, 0] > 0.0, 0, 1)
    elif n == 2:
        theta = np.mod(np.arctan2(units[:, 1], units[:, 0]), 2.0 * np.pi)
        pos = theta * num / (2.0 * np.pi)
        keep = _off_edges(pos[:, None])
        units, want = units[keep], np.floor(pos[keep]).astype(int)
    else:
        bands = max(1, int(round(np.sqrt(cells / 2.0))))
        sectors = max(2, 2 * int(round(cells / bands / 2.0)))
        assert num == bands * sectors
        az = np.mod(np.arctan2(units[:, 1], units[:, 0]), 2.0 * np.pi)
        near = az < np.pi
        # the antipode of a point with azimuth in [pi, 2 pi) has it in [0, pi)
        z = np.where(near, units[:, 2], -units[:, 2])
        az = np.where(near, az, az - np.pi)
        band_pos = (z + 1.0) * bands / 2.0
        sector_pos = az * sectors / (2.0 * np.pi)
        keep = _off_edges(np.column_stack([band_pos, sector_pos]))
        cell = (np.floor(band_pos).astype(int) * (sectors // 2)
                + np.floor(sector_pos).astype(int))
        want = np.where(near, cell, (cell + num // 2) % num)
        units, want = units[keep], want[keep]
    assert len(units) > 3000
    np.testing.assert_array_equal(grid.angular_index(units), want)


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
    assert rep.num_below_annulus == ref.num_below_annulus == np.sum(radii < 0.1)
    # the 1e200 row and the non-finite rows count as beyond the annulus
    assert rep.num_beyond_annulus == ref.num_beyond_annulus + len(bad)
    assert ref.num_beyond_annulus == np.sum(radii > 10.0) + 1
    for r in (rep, ref):
        assert r.num_below_annulus + r.num_in_annulus + r.num_beyond_annulus == r.num_points
    assert rep.hit_count == ref.hit_count > 0
    np.testing.assert_array_equal(rep.hits, ref.hits)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 17, 130])
def test_row_norms_match_linalg_norm_at_extremes(n):
    # coverage sums the squares column by column in the order np.add.reduce
    # sums a row, so its norms equal np.linalg.norm's bit for bit, for rows
    # whose squares overflow (1e200), come near the largest double (1e154),
    # hold inf or NaN, or underflow (subnormals), and it warns of none of it
    rng = np.random.default_rng(n)
    scales = np.array([1.0, 1e200, -1e154, 1e-160, 5e-324, 2.2e-308, 1e-310, 0.0, -0.0])
    scale = np.repeat(rng.choice(scales, size=(4000, 1)), n, axis=1)
    scale[::7] = rng.choice(scales, size=(len(scale[::7]), n))  # rows of mixed scales
    pts = rng.standard_normal((4000, n)) * scale
    pts[rng.choice(4000, 300), rng.integers(0, n, 300)] = np.inf
    pts[rng.choice(4000, 300), rng.integers(0, n, 300)] = -np.inf
    pts[rng.choice(4000, 300), rng.integers(0, n, 300)] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linalg.norm(pts, axis=1)
    assert np.isinf(want).any() and np.isnan(want).any() and (want == 0.0).any()
    assert CoverageGrid._norms(pts).tobytes() == want.tobytes()
    if n <= 5:  # no RuntimeWarning escapes coverage either
        rep = coverage(pts, CoverageGrid(n, r_min=1e-300, r_max=1e300))
        assert rep.num_beyond_annulus == np.count_nonzero(~(want <= 1e300))


@pytest.mark.parametrize("rows", [0, 1, _COVERAGE_BLOCK, _COVERAGE_BLOCK + 1,
                                  3 * _COVERAGE_BLOCK + 77])
@pytest.mark.parametrize("antipodal", [False, True])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_blockwise_coverage_matches_one_shot_oracle(n, antipodal, rows):
    # radii grow along the cloud from below the annulus to beyond it, so each
    # block hits its own radial bins and every block's hits must be kept
    grid = CoverageGrid(n, angular_cells=64, radial_bins=16, antipodal=antipodal)
    rng = np.random.default_rng([n, rows])
    units = rng.standard_normal((rows, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    cloud = units * np.exp(np.linspace(-3.0, 3.0, rows + 2)[1:-1, None])
    if rows > _COVERAGE_BLOCK:
        bad = rng.choice(rows, size=40, replace=False)
        cloud[bad[:10]] = np.nan
        cloud[bad[10:20], 0] = np.inf
        cloud[bad[20:30], -1] = -np.inf
        cloud[bad[30:]] = 1e200  # a finite row whose norm overflows
    rep = coverage(cloud, grid)
    hits, hit_count, in_annulus, ang_fraction = one_shot_coverage(cloud, grid)
    assert rep.hits.tobytes() == hits.tobytes()
    assert (rep.hit_count, rep.num_in_annulus, rep.angular_fraction) == \
        (hit_count, in_annulus, ang_fraction)
    assert rep.fraction == hit_count / grid.total_cells
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(cloud, axis=1)
    assert rep.num_points == rows
    assert rep.num_below_annulus == np.sum(norms < 0.1)
    assert rep.num_beyond_annulus == np.sum((norms > 10.0) | np.isnan(norms))
    assert rep.num_below_annulus + rep.num_in_annulus + rep.num_beyond_annulus == rows
    if rows > 1:
        assert rep.num_below_annulus > 0 and rep.num_beyond_annulus > 0 and hit_count > 0


def test_coverage_memory_does_not_grow_with_the_cloud():
    # binning the whole cloud at once held an (in-annulus points x cells)
    # matrix: 59 MB for a 315k-point n = 5 cloud
    grid = CoverageGrid(5)
    cloud = np.random.default_rng(0).standard_normal((320_000, 5))
    tracemalloc.start()
    try:
        rep = coverage(cloud, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.num_in_annulus > 300_000
    assert peak < 16 * 2**20


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
