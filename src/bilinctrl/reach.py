"""Exact piecewise-constant simulation, attainable-set sampling, coverage.

Schedules run as tables, one row per schedule, through one runner in
simulation (``simulate``: a one-row table, bilinear or smooth, recording
each segment's end), sampling and reach search alike: bilinear rows
are products of flows exp(t M_k) x, one batched flow per generator (cached
eigenfactors, or matlie's batched Padé exponential for a defective
generator), built each time a runner is made; smooth rows go through one
batched Fehlberg integrator.  Attainable-set clouds are produced by a
seeded random-schedule sampler whose per-schedule randomness is a pure
function of (seed, schedule index), so any execution order yields the same
cloud; bilinear tables are drawn and run in blocks of rows, which coverage
can bin as they come.  Coverage is measured on angular
cells (equal-area for n <= 3) crossed with log-radial bins over an annulus,
in fixed blocks of cloud rows; the cell of -u is always the antipodal
partner of the cell of u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matlie import check_point, exponential_map
from .model import ControlSchedule, FieldTable, SystemSpec

DEGENERATE_NORM = 1e-300
BLOWUP_NORM = 1e6  # a smooth schedule row stops past this norm
SMOOTH_TOL = 1e-10
_DESCENT_BATCH = 32  # reach-search candidates run as one table
_COVERAGE_BLOCK = 1 << 14  # cloud rows binned at a time
_SAMPLE_BLOCK = 1 << 12  # bilinear schedule rows sampled at a time


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States at the ends of a schedule's segments; times[0] = 0 and
    states[0] = x0.

    status is "ok", "degenerate" (norm below DEGENERATE_NORM; the trajectory
    is truncated there) or, for smooth systems only, "blowup" (norm exceeded
    BLOWUP_NORM = 1e6; the trajectory is truncated there).  That escape norm
    lies five decades beyond the coverage annulus (r_max = 10 by default),
    and an escaping row such as example1's x' ~ x^2 costs about 100 steps
    per decade, so rows stop there rather than run on.  foliation's leaf
    lines stop at their own, larger foliation.ESCAPE_NORM.
    """

    times: np.ndarray
    states: np.ndarray
    status: str = "ok"

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


# --- smooth fields: one batched Fehlberg 4(5) integrator --------------------

_RK_A = tuple(np.array(row) for row in (
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
))
# the weights of the 5th- and 4th-order solutions, on their nonzero stages
_RK_B5 = ([0, 2, 3, 4, 5],
          np.array([16 / 135, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55]))
_RK_B4 = ([0, 2, 3, 4], np.array([25 / 216, 1408 / 2565, 2197 / 4104, -1 / 5]))


# the continuous extension u(t + theta h) ~ u + h sum_i b_i(theta) k_i of a
# step, on the six stages and k_6 = f(u5), the next step's first stage: row i
# holds the coefficients of theta, ..., theta^4 in b_i.  It meets the eight
# order conditions up to order 4 at every theta, and b(1) is _RK_B5.
_RK_DENSE = np.array([
    (1.0, -427 / 180, 239 / 108, -13 / 18),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 15232 / 4275, -2560 / 513, 1664 / 855),
    (0.0, -182351 / 37620, 24167 / 2052, -2197 / 342),
    (0.0, 53 / 25, -5.0, 27 / 10),
    (0.0, 2 / 55, 0.0, 0.0),
    (0.0, 3 / 2, -4.0, 5 / 2),
])


def rk_step(f, u, h, ks=None):
    """One Fehlberg 4(5) step of u' = f(u) for a state or a stack of rows u,
    with one signed step h or one per row: the 5th-order states and the norm
    of each row's embedded error estimate.  The stages fill one stacked
    buffer, and each weighted stage sum is one einsum, which accumulates
    from 0 in stage order, as a Python sum over the stages would.  A caller
    may pass that buffer as ks, at least six stages long with ks[0] = f(u)
    already in place: the step then skips that call and leaves its stages
    in ks for a continuous extension to read."""
    h = np.asarray(h, dtype=float)[..., None]
    if ks is None:
        ks = np.empty((6, *np.shape(u)))
        ks[0] = f(u)
    for i, row in enumerate(_RK_A, 1):
        ks[i] = f(u + h * np.einsum("i,i...->...", row, ks[:i]))
    u5, u4 = (u + h * np.einsum("i,i...->...", c, ks[idx]) for idx, c in (_RK_B5, _RK_B4))
    d = u5 - u4
    return u5, np.sqrt(np.add.reduce(d * d, axis=-1))


def integrate_table(fields, x0s, indices, durations, escape_norm, per_segment=1):
    """Run the segments (indices[r, j], durations[r, j]) of each table row r
    from x0s[r] along u' = fields[indices[r, j]](u), each field mapping
    stacks of rows to stacks of rows (fields is a model.FieldTable, or a
    plain sequence of fields, run as a generic one), with one clock and
    step size per row and local error per step below
    SMOOTH_TOL * (1 + |x|); a negative duration runs backward.  Returns
    (bounds, stop, left): with m = per_segment, bounds[r, j m + i - 1] is
    row r's state at the fraction i/m of segment j, for i = 1, ..., m.
    Steps are clipped only at segment ends, so the state at a segment's end
    (i = m) is a stepped state, and the states inside it (m > 1) are read
    off the 4th-order continuous extension (_RK_DENSE) of the step that
    passes them.  A row stops in
    segment stop[r] (else the segment count) with left[r] of it to go once
    its norm passes escape_norm, and then stays put in bounds, or once its
    step no longer moves its clock (the time since the row's start), or its
    state right after a rejected step, and then turns non-finite: every
    state of bounds after its halt time is its halted one.  The caller
    picks escape_norm: schedule rows stop at BLOWUP_NORM, foliation's leaf
    lines, whose state holds an arc length that may legitimately pass it,
    at foliation.ESCAPE_NORM.

    All live rows step in lock step, one rk_step on the whole stack per
    step, on a C-ordered state whatever the layout of x0s, and each stage
    is one call of fields.rows, bound to the live rows' field indices.
    Live rows stay in table order and are gathered (with take) only when
    some row has left.  With several fields the rows map is bound again
    whenever a row ends a segment; a one-field table (every leaf table)
    binds it once and runs its field on the whole stack.  Each row's norm is
    computed once per accepted step, for the escape test, and is the next
    step's tolerance norm.  Accepted steps are copied in with copyto under a
    row mask, not scattered.  With m > 1 each step calls the field once more,
    at the states it reached, which is the continuous extension's last
    stage and the next step's first; with m = 1 nothing of that runs.
    Every row runs bit for bit as it would alone."""
    rows, segs = durations.shape
    m, n = per_segment, x0s.shape[1]
    spans = np.abs(durations)
    starts = np.cumsum(spans, axis=1) - spans
    bounds = np.empty((rows, segs * m, n))
    flat, by_segment = bounds.reshape(-1, n), bounds.reshape(rows, segs, m, n)
    stop, left = np.full(rows, segs), np.zeros(rows)
    if not rows:
        return bounds, stop, left
    if not isinstance(fields, FieldTable):
        fields = FieldTable(fields)
    # live rows with their states, segments, time left in them, steps,
    # whether their last trial step was rejected, and their states' norms
    live, x, seg = np.arange(rows), np.array(x0s, dtype=float, order="C"), np.full(rows, -1)
    rem, h, cut = np.zeros(rows), np.full(rows, 0.01), np.zeros(rows, dtype=bool)
    f = None  # the live rows' field map
    # with m > 1: the fractions of the states inside a segment, the stages of
    # a step and f(x), the first stage of the next
    fractions, ks, k0 = np.arange(1, m) / m, None, None
    # trial steps that overflow have a non-finite error and are rejected
    with np.errstate(all="ignore"):
        norm = np.sqrt(np.add.reduce(x * x, axis=1))
        while True:
            if not rem.all():
                done = np.flatnonzero((rem == 0.0) & (seg < segs))
                while done.size:
                    rec = done[seg[done] >= 0]
                    by_segment[live[rec], seg[rec], -1] = x[rec]
                    if m > 1:  # a segment of no time has all its states at its end
                        rec = rec[spans[live[rec], seg[rec]] == 0.0]
                        by_segment[live[rec], seg[rec]] = x[rec, None]
                    seg[done] += 1
                    done = done[seg[done] < segs]
                    rem[done] = spans[live[done], seg[done]]
                    done = done[rem[done] == 0.0]
                keep = np.flatnonzero(seg < segs)
                if not keep.size:
                    return bounds, stop, left
                if keep.size < live.size:
                    live, x, seg, rem, h, cut, norm = (
                        a.take(keep, axis=0) for a in (live, x, seg, rem, h, cut, norm))
                if f is None or len(fields) > 1:  # fields change with segments
                    f = fields.rows(indices[live, seg])
                dur, span, t0 = durations[live, seg], spans[live, seg], starts[live, seg]
                if m > 1:  # the times of the states inside the segments, and f(x)
                    times = span[:, None] * fractions
                    k0 = f(x) if k0 is None or len(fields) > 1 else k0.take(keep, axis=0)
            step = np.minimum(h, rem)
            if m > 1:
                was, ks = span - rem, np.empty((7, *x.shape))
                ks[0] = k0
            signed = np.copysign(step, dur)
            u5, err = rk_step(f, x, signed, ks)
            tol = SMOOTH_TOL * (1.0 + norm)
            ok = err <= tol
            # a step that moves the state fails, one that passes does not move it
            stuck = ok & cut & (u5 == x).all(axis=1)
            cut = ~ok
            grow = np.minimum(np.maximum(0.9 * np.fmax(tol / err, 0.0) ** 0.2, 0.2), 5.0)
            h = np.where(ok & (step < h), h, step * grow)
            rem = np.where(ok, rem - step, rem)  # exactly 0 after the last step
            if m > 1:  # record the states the accepted steps passed
                ks[6] = f(u5)
                r, i = ((times > was[:, None]) & (times <= (span - rem)[:, None])).nonzero()
                theta = ((times[r, i] - was.take(r)) / step.take(r))[:, None]
                # each row's extension as a polynomial in theta, summed by Horner
                c = (_RK_DENSE.T @ ks.reshape(7, -1)).reshape(4, *x.shape) * signed[:, None]
                c = c.take(r, axis=1)
                poly = c[3]
                for k in (2, 1, 0):
                    poly = poly * theta + c[k]
                flat[((live * segs + seg) * m).take(r) + i] = x.take(r, axis=0) + theta * poly
                k0 = np.where(ok[:, None], ks[6], ks[0])  # f(x) after the step
            np.copyto(x, u5, where=ok[:, None])
            t = t0 + (span - rem)  # time since the row's start
            reached = np.sqrt(np.add.reduce(u5 * u5, axis=1))
            np.copyto(norm, reached, where=ok)
            blow = ok & (reached > escape_norm)
            stall = ((t + h == t) | stuck) & ~blow
            halt = blow | stall
            if halt.any():
                x[stall] = np.nan
                gone = live[halt]
                stop[gone], left[gone] = seg[halt], rem[halt]
                first = seg[halt] * m  # the first state of bounds after the halt
                if m > 1:
                    first += np.add.reduce(times[halt] <= (span - rem)[halt, None], axis=1)
                after = np.arange(segs * m)[None, :, None] >= first[:, None, None]
                bounds[gone] = np.where(after, x[halt][:, None, :], bounds[gone])
                seg[halt], rem[halt] = segs, 0.0


# --- running schedules: one table runner ----------------------------------

def _flow(m):
    """The map (ts, xs) -> rows exp(ts[r] M) @ xs[r], through cached
    eigenfactors of M when they reconstruct it to near machine precision and
    otherwise through matlie.exponential_map, the batched Padé exponential
    with its power table of M built here once; overflow gives non-finite
    rows rather than an error."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries
            w, v = np.linalg.eig(m)
            vinv = np.linalg.inv(v)
            err = np.linalg.norm((v * w) @ vinv - m)
            exact = err <= 1e-12 * (1.0 + np.linalg.norm(m))
    except np.linalg.LinAlgError:
        exact = False
    if exact:
        return lambda ts, xs: np.real((xs @ vinv.T) * np.exp(ts[:, None] * w) @ v.T)
    expm = exponential_map(m)
    return lambda ts, xs: np.einsum("rij,rj->ri", expm(ts), xs)


def _put_rows(states, sel, values, record):
    """Write the rows of values to rows sel of a C-ordered state, given as
    its 1-D view of row records (dtype record): each row moves as one
    opaque item, several times cheaper than numpy's scatter x[sel] = values
    of float rows."""
    states[sel] = np.ascontiguousarray(values).view(record).reshape(len(sel))


def _runner(spec):
    """The function (x0s, indices, durations) -> (bounds, stop, left) that
    runs schedule tables of spec as integrate_table does: the one place that
    decides how a schedule runs.  A bilinear table runs column by column,
    each column of durations and indices read from one contiguous transposed
    copy of its table: in each column the rows of each generator are
    gathered by index with take, moved by that generator's flow and written
    back as whole-row records (_put_rows) into a C-ordered state, whatever
    the layout of x0s.  Those are numpy's fast paths; fancy indexing of rows
    costs several times more.  A zero duration leaves the state as it is,
    rows never stop, and a row that overflows turns non-finite.  Each
    generator's flow and the row-record dtype are built once, when the
    runner is made.  bounds is a view of a segment-major array: each column
    of boundary states is one contiguous block.

    The runner's ``block`` is the most rows a sampled table is run in at
    once: _SAMPLE_BLOCK for a bilinear table, whose rows run independently,
    and None (the whole table) for a smooth one, because integrate_table
    steps all rows together and a table split in blocks waits for its
    slowest row once per block."""
    if not spec.is_bilinear:
        def run_smooth(*table):
            return integrate_table(spec.fields, *table, BLOWUP_NORM)
        run_smooth.block = None
        return run_smooth
    flows = [_flow(m) for m in spec.family.matrices]
    record = np.dtype((np.void, spec.n * np.dtype(float).itemsize))  # one state row

    def run(x0s, indices, durations):
        rows, segs = durations.shape
        bounds = np.empty((segs, rows, x0s.shape[1])).transpose(1, 0, 2)
        x = np.array(x0s, dtype=float, order="C")
        states = x.view(record).reshape(rows)  # the rows of x as records
        columns = np.ascontiguousarray(durations.T), np.ascontiguousarray(indices.T)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: non-finite rows
            for j, (t, col) in enumerate(zip(*columns)):
                active = t != 0.0
                for k, flow in enumerate(flows):
                    sel = (active & (col == k)).nonzero()[0]  # cheaper than flatnonzero
                    if sel.size:
                        _put_rows(states, sel, flow(t.take(sel), x.take(sel, axis=0)), record)
                bounds[:, j] = x
        return bounds, np.full(rows, segs), np.zeros(rows)
    run.block = _SAMPLE_BLOCK
    return run


def simulate(spec: SystemSpec, schedule: ControlSchedule, x0) -> Trajectory:
    """Run x0 along the schedule as a one-row table, recording each
    segment's end.

    Stops with status "degenerate" at the first recorded state whose norm
    is below DEGENERATE_NORM, and for a smooth system with status "blowup"
    where the norm passes BLOWUP_NORM = 1e6 (the escape norm of every
    schedule row, sampled or searched alike), at the time of that step.  Raises
    OverflowError once the state is no longer finite: a bilinear flow
    overflowed, or a smooth step stalled (a field turned non-finite).
    """
    x0 = check_point(x0, spec.n, "x0")
    if schedule.max_index >= spec.num_fields:
        raise ValueError(f"schedule uses field index {schedule.max_index}, "
                         f"but the system has {spec.num_fields} fields")
    idx = np.array([i for i, _ in schedule.segments], dtype=int)
    durs = np.array([d for _, d in schedule.segments], dtype=float)
    times = np.concatenate([[0.0], np.cumsum(durs)])
    bounds, stop, left = _runner(spec)(x0[None, :], idx[None, :], durs[None, :])
    states = np.vstack([x0, bounds[0]])
    status, last = "ok", len(durs)
    if stop[0] < last:
        status, last, dur = "blowup", stop[0] + 1, durs[stop[0]]
        times[last] = times[last - 1] + np.copysign(abs(dur) - left[0], dur)
    # hypot does not square, so a norm near DEGENERATE_NORM does not underflow
    with np.errstate(over="ignore"):  # a huge finite state has norm inf
        norms = np.hypot.reduce(np.abs(states[1:last + 1]), axis=1)
    low = np.flatnonzero(norms < DEGENERATE_NORM)
    if low.size:
        status, last = "degenerate", low[0] + 1
    if not np.isfinite(states[:last + 1]).all():
        raise OverflowError("the flow overflowed or stalled to a non-finite state")
    return Trajectory(times[:last + 1], states[:last + 1], status)


# --- random schedule tables -------------------------------------------------

def _schedule_blocks(num_fields: int, budget: int, seed: int, max_segments: int,
                     duration_scale: float, block: int):
    """Check the settings, then return an iterator over the random schedule
    table of ``budget`` rows in blocks of near-equal size, at most ``block``
    rows each: (counts, indices, durations) per block.  Each block goes on
    drawing where the one before stopped, so the blocks join into the table
    drawn in one block, and row i depends only on (seed, i)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if max_segments < 1:
        raise ValueError("max_segments must be >= 1")
    if not 0.0 < duration_scale < np.inf:
        raise ValueError("duration_scale must be positive and finite")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    counts_rng, indices_rng, durations_rng = (
        np.random.default_rng([seed, k]) for k in (1, 2, 3))
    parts = -(-budget // block)

    def draw():
        for k in range(parts):
            rows = (k + 1) * budget // parts - k * budget // parts
            counts = counts_rng.integers(1, max_segments + 1, size=rows)
            indices = indices_rng.integers(0, num_fields, size=(rows, max_segments))
            durations = durations_rng.exponential(duration_scale, size=(rows, max_segments))
            durations[np.arange(max_segments)[None, :] >= counts[:, None]] = 0.0
            yield counts, indices, durations
    return draw()


def _schedule_tables(num_fields: int, budget: int, seed: int,
                     max_segments: int, duration_scale: float):
    """Draw (counts, indices, durations) in one block; row i depends only on
    (seed, i)."""
    return next(_schedule_blocks(num_fields, budget, seed, max_segments,
                                 duration_scale, budget))


def _schedule_from_row(indices_row, durations_row) -> ControlSchedule:
    segs = [(int(i), float(d)) for i, d in zip(indices_row, durations_row) if d > 0.0]
    return ControlSchedule(tuple(segs) if segs else ((0, 0.0),))


def _attainable_blocks(spec: SystemSpec, x0, budget: int, seed: int,
                       max_segments: int = 20, duration_scale: float = 0.5,
                       boundaries: bool = True):
    """Check the settings, then return an iterator over the points of
    sample_attainable, one array per block of schedule rows that the
    system's runner takes at once (see _runner): with boundaries, the
    block's boundary states in segment-major order, otherwise its rows'
    endpoints.  Only one block's tables and boundary states are alive at a
    time."""
    x0 = check_point(x0, spec.n, "x0")
    run = _runner(spec)
    tables = _schedule_blocks(spec.num_fields, budget, seed, max_segments,
                              duration_scale, run.block or budget)

    def points():
        for _, indices, durations in tables:
            bounds, _, _ = run(np.broadcast_to(x0, (len(durations), x0.size)),
                               indices, durations)
            if boundaries:
                # a view for a bilinear table, whose bounds are segment-major already
                by_segment = bounds.transpose(1, 0, 2).reshape(-1, x0.size)
                yield np.compress((durations.T > 0.0).ravel(), by_segment, axis=0)
            else:
                yield bounds[:, -1].copy()  # a view would keep all of bounds alive
    return points()


def sample_attainable(spec: SystemSpec, x0, budget: int, seed: int,
                      max_segments: int = 20, duration_scale: float = 0.5,
                      boundaries: bool = True) -> np.ndarray:
    """Attainable points visited by ``budget`` random nonnegative-time
    schedules from x0, as an array that owns its data.

    Segment counts are uniform on [1, max_segments], field indices uniform,
    durations exponential with mean duration_scale.  With boundaries (the
    default) the cloud holds every segment-boundary state; each such point is
    the endpoint of a sampled schedule prefix, so all cloud points are
    attainable.  With boundaries=False only the final endpoints are returned
    (exactly ``budget`` points, in row order).  Deterministic for a fixed
    seed.  A smooth row stops at its first state past BLOWUP_NORM, so a
    smooth cloud holds no point beyond one step past that norm, and a
    CoverageGrid whose r_max exceeds BLOWUP_NORM sees only those stopped rows
    out there.

    A bilinear table is drawn and run in blocks of near-equal size, at most
    _SAMPLE_BLOCK rows each, and a smooth table in one block.  The boundary
    cloud is block-major and segment-major within a block: the block's
    first boundaries in row order, then its second, and so on, each after a
    positive duration.  The blocks join into the table drawn in one piece,
    so the cloud holds the same points whatever the block size.
    """
    return np.concatenate(list(_attainable_blocks(
        spec, x0, budget, seed, max_segments, duration_scale, boundaries)))


# --- coverage grids ---------------------------------------------------------

def spread_directions(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Greedy farthest-point directions on S^(n-1), symmetric under negation,
    picked from random candidates drawn from rng."""
    cand = rng.standard_normal((max(64, 32 * count), n))
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    chosen = [cand[0]]
    near = np.zeros(len(cand))  # largest |dot| with a chosen direction
    for _ in range(count - 1):
        near = np.maximum(near, np.abs(cand @ chosen[-1]))
        # distance to the chosen set and its antipodes: 1 - |dot|
        chosen.append(cand[int(np.argmax(1.0 - near))])
    return np.array(chosen)


class CoverageGrid:
    """Angular cells times log-radial bins over an annulus.

    The angular partition follows one of two rules.  For n <= 3 it is
    equal-area: bands of equal height in x_2 split into sectors of equal
    azimuth, with one band for n <= 2 and one pair of sectors for n = 1 (so
    arcs for n = 2 and the two half-lines for n = 1).  For n > 3 it is the
    nearest-center partition of a seeded spread point set, whose cells do
    not have equal area.  Cell counts are adjusted so the partition is
    symmetric under x -> -x, and cells are numbered so that the antipode of
    angular cell i is cell (i + num_angular // 2) % num_angular: for n <= 3
    the cells of azimuth in [0, pi) come first, band b and sector s < S/2 as
    b S/2 + s, and the far half in reverse band order.  The pairing is exact
    on cell edges too: of u and -u, the one whose first nonzero coordinate
    in the order x_1, x_0, x_2, ..., x_(n-1) is positive is binned, and the
    other gets the partner of its cell.  The antipodal (projective) quotient
    cell of i is then i % (num_angular // 2).  Row norms are summed column
    by column below 8 columns and left to np.add.reduce from 8 up; both
    equal np.linalg.norm(rows, axis=1) bit for bit.  Smooth clouds stop at
    their first state past BLOWUP_NORM, so radial bins beyond it hold only
    those.
    """

    def __init__(self, n: int, angular_cells: int = 32, radial_bins: int = 16,
                 r_min: float = 0.1, r_max: float = 10.0,
                 antipodal: bool = False):
        if n < 1:
            raise ValueError("n must be >= 1")
        if angular_cells < 1 or radial_bins < 1:
            raise ValueError("grid resolution must be >= 1")
        if not (0.0 < r_min < r_max < np.inf):
            raise ValueError("need 0 < r_min < r_max < inf")
        self.n = n
        self.radial_bins = int(radial_bins)
        self.r_min = float(r_min)
        self.r_max = float(r_max)
        self.antipodal = bool(antipodal)
        self._centers = None
        if n <= 3:
            # bands x sectors: one band for n <= 2, one sector pair for n = 1
            bands = max(1, int(round(np.sqrt(angular_cells / 2.0)))) if n == 3 else 1
            sectors = (max(2, 2 * int(round(angular_cells / bands / 2.0)))
                       if n > 1 else 2)
            self._bands, self._sectors = bands, sectors
            self.num_angular = bands * sectors
        else:
            half = max(1, int(np.ceil(angular_cells / 2.0)))
            base = spread_directions(np.random.default_rng([0, n, half]),
                                     n, half)
            self._centers = np.vstack([base, -base])
            self.num_angular = 2 * half

    @property
    def total_cells(self) -> int:
        ang = self.num_angular // 2 if self.antipodal else self.num_angular
        return ang * self.radial_bins

    def angular_index(self, units: np.ndarray) -> np.ndarray:
        """Angular cell of each nonzero unit row vector."""
        units = np.atleast_2d(units)
        # of u and -u, bin the one c = sign u whose first nonzero coordinate
        # in the order x_1, x_0, x_2, ... is positive; the other gets the
        # partner cell
        order = [1, 0, *range(2, self.n)] if self.n > 1 else [0]
        flip = units[:, order[0]] < 0.0
        rest = np.flatnonzero(units[:, order[0]] == 0.0)
        for k in order[1:]:
            flip[rest] = units[rest, k] < 0.0
            rest = rest[units[rest, k] == 0.0]
        sign = np.where(flip, -1.0, 1.0)
        if self.n <= 3:
            # band b and sector s of c are cell b * half + s; a lone sector
            # pair or band leaves its term 0, so n <= 2 computes no band
            # and n = 1 no azimuth
            half = self._sectors // 2
            idx = np.zeros(len(units), dtype=int)
            if half > 1:
                # + 0.0 turns -0.0 into 0.0, so the azimuth of c lies in [0, pi]
                az = np.arctan2(sign * units[:, 1] + 0.0, sign * units[:, 0])
                idx = np.minimum((az / (2.0 * np.pi / self._sectors)).astype(int),
                                 half - 1)
            if self._bands > 1:
                z = np.clip(sign * units[:, 2], -1.0, 1.0)
                band = np.minimum(((z + 1.0) / 2.0 * self._bands).astype(int),
                                  self._bands - 1)
                idx += half * band
        else:
            idx = np.argmax((units * sign[:, None]) @ self._centers.T, axis=1)
        return np.where(flip, self.antipodal_partner(idx), idx)

    def antipodal_partner(self, idx: np.ndarray) -> np.ndarray:
        """Angular cell containing the antipode of each cell (exact)."""
        return (np.asarray(idx) + self.num_angular // 2) % self.num_angular

    def cell_indices(self, points: np.ndarray) -> np.ndarray:
        """Flat cell index per point; -1 for points outside the annulus."""
        pts = self._rows(points)
        return self._cells(pts, self._norms(pts))

    def _rows(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.n:
            raise ValueError(f"points must have {self.n} columns")
        return pts

    @staticmethod
    def _norms(pts: np.ndarray) -> np.ndarray:
        # np.linalg.norm(pts, axis=1) bit for bit: np.add.reduce adds a row of
        # fewer than 8 entries in turn, so the columns are added in turn
        # without its per-row loop, and wider rows are left to it; a row with
        # a NaN or inf entry has a NaN or inf norm, outside the annulus
        with np.errstate(over="ignore", invalid="ignore"):
            if pts.shape[1] >= 8:
                return np.sqrt(np.add.reduce(pts * pts, axis=1))
            total = pts[:, 0] * pts[:, 0]
            for col in pts.T[1:]:
                total += col * col
            return np.sqrt(total)

    def _cells(self, pts: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """cell_indices of the rows pts, given their norms."""
        out = np.full(pts.shape[0], -1, dtype=int)
        ok = np.flatnonzero((norms >= self.r_min) & (norms <= self.r_max))
        if not ok.size:
            return out
        r = norms[ok]
        a_idx = self.angular_index(pts.take(ok, axis=0) / r[:, None])
        if self.antipodal:
            a_idx = a_idx % (self.num_angular // 2)
        span = np.log(self.r_max) - np.log(self.r_min)
        rbin = ((np.log(r) - np.log(self.r_min)) / span * self.radial_bins)
        rbin = np.minimum(rbin.astype(int), self.radial_bins - 1)
        out[ok] = a_idx * self.radial_bins + rbin
        return out

    def params(self) -> dict:
        return {
            "n": self.n,
            "angular_cells": self.num_angular,
            "radial_bins": self.radial_bins,
            "r_min": self.r_min,
            "r_max": self.r_max,
            "antipodal": self.antipodal,
        }


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """Hit cells of a point cloud on a coverage grid.

    Every point is counted once, by its norm: num_below_annulus below r_min,
    num_in_annulus in [r_min, r_max], and num_beyond_annulus above r_max or
    not finite (a row with a NaN or inf entry), so the three add up to
    num_points.
    """

    hits: np.ndarray
    fraction: float
    hit_count: int
    total_cells: int
    angular_fraction: float
    num_points: int
    num_in_annulus: int
    num_below_annulus: int
    num_beyond_annulus: int
    grid_params: dict


def _bin_blocks(blocks, grid: CoverageGrid) -> CoverageReport:
    """The coverage report of the rows of all the arrays in blocks, taken
    in turn and each binned in slices of _COVERAGE_BLOCK rows whose hits are
    ORed into one table.  A slice's norms (CoverageGrid._norms) are summed
    column by column below 8 columns and by np.add.reduce from 8 up, and its
    rows in the annulus gathered with take."""
    hits = np.zeros(grid.total_cells, dtype=bool)
    points = below = inside = 0
    for block in blocks:
        pts = grid._rows(block)
        points += len(pts)
        for start in range(0, len(pts), _COVERAGE_BLOCK):
            rows = pts[start:start + _COVERAGE_BLOCK]
            norms = grid._norms(rows)
            cells = grid._cells(rows, norms)
            cells = cells[cells >= 0]
            hits[cells] = True
            inside += cells.size
            below += int(np.count_nonzero(norms < grid.r_min))
    ang_hits = hits.reshape(-1, grid.radial_bins).any(axis=1)
    return CoverageReport(
        hits=hits,
        fraction=float(hits.sum() / grid.total_cells),
        hit_count=int(hits.sum()),
        total_cells=grid.total_cells,
        angular_fraction=float(ang_hits.sum() / ang_hits.size),
        num_points=points,
        num_in_annulus=inside,
        num_below_annulus=below,
        num_beyond_annulus=points - inside - below,
        grid_params=grid.params(),
    )


def coverage(cloud: np.ndarray, grid: CoverageGrid) -> CoverageReport:
    """Mark the grid cells containing at least one cloud point.

    The cloud is binned in fixed blocks of rows, each block's hits ORed
    into one table, so the memory coverage needs beyond its input does not
    grow with the cloud.  Each row's norm is computed once, column by column
    below 8 columns and by np.add.reduce from 8 up, bit for bit what
    np.linalg.norm(rows, axis=1) gives, and serves both its cell and the
    radial counts.  The angular cell follows the grid's partition rule:
    bands x sectors for n <= 3, nearest center for n > 3.  The sampled
    evidence of
    decide_controllability and the ``reach`` command go through the same
    binning loop one block of schedule rows at a time, so they never hold a
    whole cloud."""
    return _bin_blocks([cloud], grid)


# --- targeted reachability --------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReachTestResult:
    hit: bool
    witness: ControlSchedule | None
    distance: float
    endpoint: np.ndarray
    evaluations: int


def _reach_distances(run, x0, target, cands):
    """Distances to target of the endpoints of the candidate segment tuples,
    run as one zero-padded table by the runner run, and the endpoints; a row
    that overflows or stalls counts as infinitely far."""
    segs = max(len(c) for c in cands)
    table = np.array([c + ((0, 0.0),) * (segs - len(c)) for c in cands])
    ends = run(np.broadcast_to(x0, (len(cands), x0.size)),
               table[..., 0].astype(int), table[..., 1])[0][:, -1]
    ends[~np.isfinite(ends).all(axis=1)] = np.inf
    # one norm per row, as for a one-row run: a batched norm can round apart
    with np.errstate(over="ignore", invalid="ignore"):  # a huge finite end: inf
        return np.array([np.linalg.norm(e - target) for e in ends]), ends


def _mutate_schedule(segs, num_fields, rng, scale):
    segs = list(segs)
    op = rng.random()
    if op < 0.55 and segs:
        k = rng.integers(0, len(segs))
        idx, dur = segs[k]
        segs[k] = (idx, max(0.0, dur * float(np.exp(scale * rng.standard_normal()))))
    elif op < 0.75 and segs:
        k = rng.integers(0, len(segs))
        segs[k] = (int(rng.integers(0, num_fields)), segs[k][1])
    elif op < 0.9 or not segs:
        pos = rng.integers(0, len(segs) + 1)
        segs.insert(pos, (int(rng.integers(0, num_fields)),
                          float(rng.exponential(1.0))))
    else:
        segs.pop(rng.integers(0, len(segs)))
    if not segs:
        segs = [(0, 0.0)]
    return tuple(segs)


def approx_reach_test(spec: SystemSpec, x0, target, eps: float, budget: int,
                      seed: int, max_segments: int = 20,
                      duration_scale: float = 0.5) -> ReachTestResult:
    """Search sampled schedules for an endpoint within eps of the target.

    Exploration draws random schedules; the remaining budget refines the best
    one by seeded stochastic descent on endpoint distance, run in tables of
    up to _DESCENT_BATCH candidates that keep the steps of a serial descent.
    A returned witness is replay-verified: its one-row run lands within eps
    of the target.
    """
    x0 = check_point(x0, spec.n, "x0")
    target = check_point(target, spec.n, "target")
    if not 0.0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    if budget < 1:
        raise ValueError("budget must be >= 1")

    run, num_fields = _runner(spec), spec.num_fields
    explore = max(1, min(budget, max(budget // 4, 256)))
    _, indices, durations = _schedule_tables(
        num_fields, explore, seed, max_segments, duration_scale)
    bounds, _, _ = run(np.broadcast_to(x0, (explore, x0.size)), indices, durations)
    with np.errstate(over="ignore", invalid="ignore"):
        dists = np.linalg.norm(bounds[:, -1] - target[None, :], axis=1)
    dists[~np.isfinite(dists)] = np.inf
    best_row = int(np.argmin(dists))
    best_segs = _schedule_from_row(indices[best_row], durations[best_row]).segments
    best_dist = float(dists[best_row])
    evaluations = explore

    rng = np.random.default_rng([seed, 4])
    scale = 0.5
    while evaluations < budget and best_dist >= eps * 0.999:
        cands, states = [], []  # states[i]: the generator after drawing cands[i]
        for _ in range(min(_DESCENT_BATCH, budget - evaluations)):
            if rng.random() < 0.1:
                count = int(rng.integers(1, max_segments + 1))
                cands.append(tuple((int(rng.integers(0, num_fields)),
                                    float(rng.exponential(duration_scale)))
                                   for _ in range(count)))
            else:
                cands.append(_mutate_schedule(best_segs, num_fields, rng, scale))
            states.append(rng.bit_generator.state)
        dists, _ = _reach_distances(run, x0, target, cands)
        better = np.flatnonzero(dists < best_dist)
        i = int(better[0]) if better.size else len(cands) - 1
        evaluations += i + 1
        rng.bit_generator.state = states[i]
        if better.size:
            best_dist, best_segs = float(dists[i]), cands[i]
            scale = max(0.02, scale * 0.95)

    witness = ControlSchedule(best_segs)
    dists, ends = _reach_distances(run, x0, target, [best_segs])
    final_dist, endpoint = float(dists[0]), ends[0]
    hit = final_dist <= eps
    return ReachTestResult(hit=hit, witness=witness if hit else None,
                           distance=final_dist, endpoint=endpoint,
                           evaluations=evaluations)
