"""Independent brute-force oracles used to pin expected test values.

These deliberately avoid the library's numerical code paths: the closure
oracle works in exact rational arithmetic with Gaussian elimination, the
grid oracles scan the unit circle and a Fibonacci lattice on the sphere
densely, the flow oracle multiplies plain scipy matrix exponentials, the
smooth-flow oracle runs scipy's DOP853 at a tight tolerance, the tangent-rank oracle pushes the closure to the sphere
with its own ``project_sphere`` instead of appending the radial line, and
the reach-search oracle runs the descent one candidate per ``simulate``
call instead of in batched tables, the spread-direction oracle rescans every
chosen point on each pick, the coverage oracle bins the whole cloud in one
``cell_indices`` call instead of in blocks of rows, the one-table sampling
oracle draws the whole schedule table at once and runs it in one call
instead of in blocks of rows, and the leaf oracle is the closed-form
defining function of the radial-graph leaves, the Fehlberg-step oracle
forms each stage sum as a plain Python sum of the weighted stages instead of
one einsum over a stacked stage buffer, the continuous extension of that
step is written in the closed form of its derivation in exact rational
arithmetic, and the leaf-rate oracle computes
the leaf frame with separate sin, cos and exp calls and numpy's norm and sum
wrappers, the fancy-index runner and integrator gather and scatter rows
with ``x[sel]`` and ``x[sel] = ...`` instead of ``take``, row records and
``copyto``, and the norm coverage oracle takes its row norms from numpy's
``linalg.norm`` instead of column sums.  ``split_segments`` cuts a
schedule into equal pieces, so that ``simulate`` records states inside its
segments.  ``verdict_corpus`` holds bilinear systems whose controllability
follows from how they are built, not from any library computation.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.special
from scipy.integrate import solve_ivp

from bilinctrl.foliation import TRANS_TOL, RadialDistribution
from bilinctrl.matlie import numerical_rank
from bilinctrl.model import ControlSchedule, bilinear_system, builtin_corpus
from bilinctrl.reach import (
    SMOOTH_TOL,
    _field_rows,
    _flow,
    _mutate_schedule,
    _runner,
    _schedule_from_row,
    _schedule_tables,
    sample_attainable,
    rk_step,
    simulate,
)


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _mat_sub(a, b):
    n = len(a)
    return [[a[i][j] - b[i][j] for j in range(n)] for i in range(n)]


def _commutator(a, b):
    return _mat_sub(_mat_mul(a, b), _mat_mul(b, a))


class _RationalSpan:
    """Row-echelon span over Q, grown one vector at a time."""

    def __init__(self):
        self.rows = []  # (pivot column, vector)

    def _reduce(self, vec):
        vec = list(vec)
        for pivot, row in self.rows:
            if vec[pivot] != 0:
                c = vec[pivot] / row[pivot]
                vec = [v - c * r for v, r in zip(vec, row)]
        return vec

    def add(self, vec):
        vec = self._reduce(vec)
        for k, v in enumerate(vec):
            if v != 0:
                self.rows.append((k, vec))
                return True
        return False

    @property
    def dim(self):
        return len(self.rows)


def exact_closure_dim(generators):
    """Dimension of the smallest bracket-closed span, in exact arithmetic."""
    mats = [[[Fraction(v) for v in row] for row in m] for m in generators]
    n = len(mats[0])
    span = _RationalSpan()
    basis = []
    for m in mats:
        if span.add([v for row in m for v in row]):
            basis.append(m)
    grew = True
    while grew and span.dim < n * n:
        grew = False
        current = list(basis)
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                c = _commutator(current[i], current[j])
                if span.add([v for row in c for v in row]):
                    basis.append(c)
                    grew = True
    return span.dim


def circle_min_sigma(basis_mats, n, angles=3600):
    """Dense-grid minimum of the n-th singular value of the stacked
    evaluation matrix over the unit circle (n == 2 only)."""
    assert n == 2
    best = np.inf
    for ang in np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False):
        x = np.array([np.cos(ang), np.sin(ang)])
        cols = np.column_stack([m @ x for m in basis_mats])
        s = np.linalg.svd(cols, compute_uv=False)
        sigma = s[n - 1] if s.size >= n else 0.0
        best = min(best, sigma)
    return best


def fibonacci_sphere(n, count):
    """count points spread evenly over the unit sphere in R^n (n >= 3): the
    Fibonacci lattice for n = 3 (heights (2i + 1)/count - 1, longitudes i
    golden turns apart), and for larger n its Kronecker generalization:
    coordinate 0 at (i + 1/2)/count and coordinate k at frac(i / g^k), with
    g the positive root of g^n = g + 1, pushed through the inverse normal
    CDF and normalized."""
    assert n >= 3
    i = np.arange(count)
    if n == 3:
        z = (2 * i + 1) / count - 1.0
        phi = np.pi * (3.0 - np.sqrt(5.0)) * i
        rho = np.sqrt(1.0 - z * z)
        return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    g = 2.0
    for _ in range(100):
        g = (1.0 + g) ** (1.0 / n)
    u = np.column_stack([(i + 0.5) / count] +
                        [np.mod(0.5 + i / g**k, 1.0) for k in range(1, n)])
    x = scipy.special.ndtri(u)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def sphere_min_sigma(basis_mats, n, count=20000, radial=False):
    """Smallest n-th singular value of the columns m @ x (with radial, also
    x itself) over the fibonacci_sphere lattice: a dense scan, with no
    descent and none of the library's search code."""
    x = fibonacci_sphere(n, count)
    cols = [x @ np.asarray(m, dtype=float).T for m in basis_mats]
    if radial:
        cols.append(x)
    s = np.linalg.svd(np.stack(cols, axis=2), compute_uv=False)
    return float(s[:, n - 1].min())


def expm_product(matrices, segments, x0):
    """Endpoint of x0 under exp(t_k M_k) ... exp(t_1 M_1): one plain
    scipy.linalg.expm per segment."""
    x = np.asarray(x0, dtype=float)
    for idx, dur in segments:
        x = scipy.linalg.expm(dur * np.asarray(matrices[idx], dtype=float)) @ x
    return x


UNIT_NORM_SLACK = 1e-9


def project_sphere(m, x):
    """Push the linear field x -> Mx through the radial projection.

    For unit x returns Mx - <x, Mx> x, the component of Mx tangent to the
    unit sphere at x.
    """
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != x.shape[0]:
        raise ValueError(f"incompatible shapes: matrix {m.shape}, vector {x.shape}")
    if abs(np.linalg.norm(x) - 1.0) > UNIT_NORM_SLACK:
        raise ValueError("x must be a unit vector")
    v = m @ x
    return v - np.dot(x, v) * x


def projected_tangent_rank(basis, x, tol=1e-9):
    """Rank of the closure pushed to the sphere tangent space at x/|x|.

    Dual route for the transversality check: transversality at x is
    equivalent to this rank being n - 1.
    """
    x = np.asarray(x, dtype=float)
    u = x / np.linalg.norm(x)
    if basis.dim == 0:
        return 0
    cols = np.column_stack([project_sphere(b, u) for b in basis.basis])
    s = np.linalg.svd(cols, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def split_segments(segments, dt):
    """The (index, duration) segments, each cut into ceil(|duration| / dt)
    equal pieces (a zero duration stays one piece)."""
    pieces = []
    for idx, dur in segments:
        steps = 1 if dur == 0.0 else int(np.ceil(abs(dur) / dt))
        pieces += [(idx, dur / steps)] * steps
    return tuple(pieces)


def spread_directions(rng, n, count):
    """Greedy farthest-point directions as reach.spread_directions picks
    them, drawing the same candidates, but scoring each pick against the
    whole chosen set anew."""
    cand = rng.standard_normal((max(64, 32 * count), n))
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    chosen = [cand[0]]
    for _ in range(count - 1):
        score = 1.0 - np.max(np.abs(cand @ np.array(chosen).T), axis=1)
        chosen.append(cand[int(np.argmax(score))])
    return np.array(chosen)


def one_shot_coverage(cloud, grid):
    """(hits, hit_count, num_in_annulus, angular_fraction) of the cloud on
    the grid, from one cell_indices call over the whole cloud."""
    cells = grid.cell_indices(cloud)
    inside = cells >= 0
    hits = np.zeros(grid.total_cells, dtype=bool)
    hits[cells[inside]] = True
    ang_hits = hits.reshape(-1, grid.radial_bins).any(axis=1)
    return (hits, int(hits.sum()), int(inside.sum()),
            float(ang_hits.sum() / ang_hits.size))


def one_table_sample(spec, x0, budget, seed, max_segments=20, duration_scale=0.5):
    """sample_attainable's (boundary cloud, endpoints) from its schedule
    table drawn in one piece and run through one runner call: the cloud in
    segment-major order, the endpoints in row order."""
    x0 = np.asarray(x0, dtype=float)
    counts = np.random.default_rng([seed, 1]).integers(1, max_segments + 1, size=budget)
    indices = np.random.default_rng([seed, 2]).integers(
        0, spec.num_fields, size=(budget, max_segments))
    durations = np.random.default_rng([seed, 3]).exponential(
        duration_scale, size=(budget, max_segments))
    durations[np.arange(max_segments)[None, :] >= counts[:, None]] = 0.0
    bounds = _runner(spec)(np.broadcast_to(x0, (budget, x0.size)), indices, durations)[0]
    cloud = bounds.transpose(1, 0, 2)[durations.T > 0.0]
    return cloud, bounds[:, -1].copy()


_RK_A = (
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RK_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RK_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)


def python_sum_rk_step(f, u, h):
    """reach.rk_step with each stage sum a Python sum over the stages, zero
    weights skipped: the 5th-order states and the embedded error norms."""
    h = np.asarray(h, dtype=float)[..., None]
    ks = [f(u)]
    for row in _RK_A:
        ks.append(f(u + h * sum(c * k for c, k in zip(row, ks))))
    u5 = u + h * sum(c * k for c, k in zip(_RK_B5, ks) if c)
    u4 = u + h * sum(c * k for c, k in zip(_RK_B4, ks) if c)
    return u5, np.linalg.norm(u5 - u4, axis=-1)


# the Fehlberg 4(5) tableau in exact arithmetic, with the stage k_6 = f(u5)
# of the continuous extension appended: its nodes c and its matrix A, whose
# last row is the 5th-order weights
FEHLBERG_C = tuple(Fraction(c) for c in ("0", "1/4", "3/8", "12/13", "1", "1/2", "1"))
FEHLBERG_A = tuple(tuple(Fraction(a) for a in row) + (Fraction(0),) * (7 - len(row)) for row in (
    (),
    ("1/4",),
    ("3/32", "9/32"),
    ("1932/2197", "-7200/2197", "7296/2197"),
    ("439/216", "-8", "3680/513", "-845/4104"),
    ("-8/27", "2", "-3544/2565", "1859/4104", "-11/40"),
    ("16/135", "0", "6656/12825", "28561/56430", "-9/50", "2/55"),
))


def fehlberg_dense_weights(theta):
    """The weights b_0(theta), ..., b_6(theta) of the Fehlberg step's
    continuous extension u + h sum_i b_i(theta) k_i, in the closed form of
    its derivation (p = 2 theta^2 / 55), exact for a Fraction theta."""
    t = theta
    p = 2 * t**2 / Fraction(55)
    return (
        (33 * p - 312 * t**4 + 956 * t**3 - 1026 * t**2 + 432 * t) / Fraction(432),
        Fraction(0),
        -64 * (33 * p - 78 * t**4 + 200 * t**3 - 144 * t**2) / Fraction(2565),
        -2197 * (3 * p + 24 * t**4 - 44 * t**3 + 18 * t**2) / Fraction(8208),
        (11 * p + 54 * t**4 - 100 * t**3 + 42 * t**2) / Fraction(20),
        p,
        t**2 * (t - 1) * (5 * t - 3) / Fraction(2),
    )


def radial_graph_normal(n, slope):
    """The leaf normal of foliation.radial_graph_distribution(n, slope),
    through numpy's norm."""
    e = np.zeros(n)
    e[-1] = 1.0

    def normal(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        sigma = x / r
        return x / r**2 - slope * (e - sigma[..., -1:] * sigma) / r
    return RadialDistribution(n, normal)


def orbit_tangent_normal(basis, tol):
    """The leaf normal of foliation.orbit_tangent_distribution at a Lie
    basis: an SVD of LieBasis.stacked_at at the finite points only, its
    results scattered back into a NaN array."""
    n = basis.n

    def normal(x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, np.nan)
        ok = np.isfinite(x).all(axis=-1)
        u, s, _ = np.linalg.svd(basis.stacked_at(x[ok]))
        out[ok] = np.where((numerical_rank(s, tol) == n - 1)[..., None],
                           u[..., -1], np.nan)
        return out
    return RadialDistribution(n, normal)


def leaf_frame(distr, states):
    """foliation's leaf frame (points, e_r, e_phi, n_r, n_phi) at rows
    (log r, phi, arc, theta), with sin, cos and exp taken per use and the
    normal broadcast and normalized through numpy's norm and sum."""
    phi, thetas = states[:, 1:2], states[:, 3:]
    e_r, e_phi = np.sin(phi) * thetas, np.cos(phi) * thetas
    e_r[:, -1] += np.cos(phi[:, 0])
    e_phi[:, -1] -= np.sin(phi[:, 0])
    with np.errstate(all="ignore"):
        x = np.exp(states[:, :1]) * e_r
        nv = np.broadcast_to(np.asarray(distr.normal_fn(x), dtype=float), x.shape)
        nv = nv / np.linalg.norm(nv, axis=-1, keepdims=True)
        cos = np.sum(nv * x, axis=-1) / np.linalg.norm(x, axis=-1)
    nv = np.where((np.abs(cos) >= TRANS_TOL)[..., None], nv, np.nan)
    return x, e_r, e_phi, np.sum(nv * e_r, axis=1), np.sum(nv * e_phi, axis=1)


def angle_rates(distr, states):
    """The rates (d log r, dphi, d arc)/dphi of leaf-line rows, 0 for theta."""
    _, _, _, n_r, n_phi = leaf_frame(distr, states)
    out = np.zeros_like(states)
    with np.errstate(all="ignore"):
        out[:, 0] = -n_phi / n_r
        out[:, 1] = 1.0
        out[:, 2] = np.exp(states[:, 0]) * np.hypot(n_r, n_phi) / np.abs(n_r)
    return out


def points_and_velocities(distr, states):
    """The points of leaf-line rows and their unit, angle-increasing
    directions."""
    x, e_r, e_phi, n_r, n_phi = leaf_frame(distr, states)
    with np.errstate(all="ignore"):
        scale = (np.sign(n_r) / np.hypot(n_r, n_phi))[:, None]
    return x, scale * (n_r[:, None] * e_phi - n_phi[:, None] * e_r)


def radial_graph_leaf(x, slope):
    """log|x| - slope x_n/|x|, constant on each leaf of
    foliation.radial_graph_distribution(n, slope)."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    return float(np.log(r) - slope * x[-1] / r)


def smooth_endpoint(fields, segments, x0, blowup_norm):
    """Endpoint of x0 along (field index, duration) segments of smooth
    fields: scipy's DOP853 at rtol = atol = 1e-13, one call per segment.
    None once the norm passes blowup_norm."""

    def escape(_t, y):
        return np.linalg.norm(y) - blowup_norm

    escape.terminal = True
    x = np.asarray(x0, dtype=float)
    for idx, dur in segments:
        sol = solve_ivp(lambda _t, y: fields[idx](y), (0.0, dur), x,
                        method="DOP853", rtol=1e-13, atol=1e-13, events=escape)
        if sol.status == 1:
            return None
        x = sol.y[:, -1]
    return x


def serial_reach_search(spec, x0, target, eps, budget, seed, max_segments=20,
                        duration_scale=0.5):
    """approx_reach_test one candidate at a time: the same exploration, then
    a descent that runs each candidate through its own ``simulate`` call and
    counts one that raises OverflowError as infinitely far.  Returns (hit,
    evaluations, distance, witness segments or None)."""
    x0 = np.asarray(x0, dtype=float)
    target = np.asarray(target, dtype=float)

    def distance(segs):
        try:
            end = simulate(spec, ControlSchedule(segs), x0).endpoint
        except OverflowError:
            return np.inf
        return float(np.linalg.norm(end - target))

    explore = max(1, min(budget, max(budget // 4, 256)))
    _, indices, durations = _schedule_tables(
        spec.num_fields, explore, seed, max_segments, duration_scale)
    ends = sample_attainable(spec, x0, explore, seed, max_segments=max_segments,
                             duration_scale=duration_scale, boundaries=False)
    dists = np.linalg.norm(ends - target[None, :], axis=1)
    dists[~np.isfinite(dists)] = np.inf
    best_row = int(np.argmin(dists))
    best_segs = _schedule_from_row(indices[best_row], durations[best_row]).segments
    best_dist = float(dists[best_row])
    evaluations = explore

    rng = np.random.default_rng([seed, 4])
    scale = 0.5
    while evaluations < budget and best_dist >= eps * 0.999:
        if rng.random() < 0.1:
            count = int(rng.integers(1, max_segments + 1))
            cand = tuple((int(rng.integers(0, spec.num_fields)),
                          float(rng.exponential(duration_scale)))
                         for _ in range(count))
        else:
            cand = _mutate_schedule(best_segs, spec.num_fields, rng, scale)
        d = distance(cand)
        evaluations += 1
        if d < best_dist:
            best_dist = d
            best_segs = cand
            scale = max(0.02, scale * 0.95)

    final = distance(best_segs)
    hit = final <= eps
    return hit, evaluations, final, best_segs if hit else None


def fancy_index_run(spec, x0s, indices, durations):
    """reach._runner's bilinear run with numpy's fancy indexing: each
    generator's rows gathered with x[sel] and scattered back with
    x[sel] = ..., the columns read from the tables as given, and the state
    laid out as np.array(x0s) lays it out."""
    flows = [_flow(m) for m in spec.family.matrices]
    rows, segs = durations.shape
    bounds = np.empty((segs, rows, x0s.shape[1])).transpose(1, 0, 2)
    x = np.array(x0s, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(segs):
            t, col = durations[:, j], indices[:, j]
            active = t != 0.0
            for k, flow in enumerate(flows):
                sel = (active & (col == k)).nonzero()[0]
                if sel.size:
                    x[sel] = flow(t[sel], x[sel])
            bounds[:, j] = x
    return bounds, np.full(rows, segs), np.zeros(rows)


def fancy_index_integrate_table(fields, x0s, indices, durations, escape_norm):
    """reach.integrate_table with the live rows gathered by a[keep] and each
    accepted step scattered in with x[ok] = u5[ok]."""
    rows, segs = durations.shape
    spans = np.abs(durations)
    starts = np.cumsum(spans, axis=1) - spans
    bounds = np.empty((rows, segs, x0s.shape[1]))
    stop, left = np.full(rows, segs), np.zeros(rows)
    if not rows:
        return bounds, stop, left
    live, x, seg = np.arange(rows), np.array(x0s, dtype=float), np.full(rows, -1)
    rem, h, cut = np.zeros(rows), np.full(rows, 0.01), np.zeros(rows, dtype=bool)
    f = fields[0]
    with np.errstate(all="ignore"):
        while True:
            if not rem.all():
                done = np.flatnonzero((rem == 0.0) & (seg < segs))
                while done.size:
                    rec = done[seg[done] >= 0]
                    bounds[live[rec], seg[rec]] = x[rec]
                    seg[done] += 1
                    done = done[seg[done] < segs]
                    rem[done] = spans[live[done], seg[done]]
                    done = done[rem[done] == 0.0]
                keep = np.flatnonzero(seg < segs)
                if not keep.size:
                    return bounds, stop, left
                if len(fields) > 1:
                    field = indices[live[keep], seg[keep]]
                    order = np.argsort(field, kind="stable")
                    keep, f = keep[order], _field_rows(fields, field[order])
                if len(fields) > 1 or keep.size < live.size:
                    live, x, seg, rem, h, cut = (
                        a[keep] for a in (live, x, seg, rem, h, cut))
                dur, span, t0 = durations[live, seg], spans[live, seg], starts[live, seg]
            step = np.minimum(h, rem)
            u5, err = rk_step(f, x, np.copysign(step, dur))
            tol = SMOOTH_TOL * (1.0 + np.sqrt(np.add.reduce(x * x, axis=1)))
            ok = err <= tol
            stuck = ok & cut & (u5 == x).all(axis=1)
            cut = ~ok
            grow = np.minimum(np.maximum(0.9 * np.fmax(tol / err, 0.0) ** 0.2, 0.2), 5.0)
            h = np.where(ok & (step < h), h, step * grow)
            x[ok] = u5[ok]
            rem = np.where(ok, rem - step, rem)
            t = t0 + (span - rem)
            blow = ok & (np.sqrt(np.add.reduce(u5 * u5, axis=1)) > escape_norm)
            stall = ((t + h == t) | stuck) & ~blow
            halt = blow | stall
            if halt.any():
                x[stall] = np.nan
                gone = live[halt]
                stop[gone], left[gone] = seg[halt], rem[halt]
                after = np.arange(segs)[None, :, None] >= seg[halt][:, None, None]
                bounds[gone] = np.where(after, x[halt][:, None, :], bounds[gone])
                seg[halt], rem[halt] = segs, 0.0


def norm_coverage(cloud, grid):
    """(hits, num_in_annulus, num_below_annulus, num_beyond_annulus) of the
    cloud on the grid, binned in one piece with the row norms of
    np.linalg.norm and the annulus rows gathered by pts[ok]."""
    pts = np.asarray(cloud, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(pts, axis=1)
    ok = np.flatnonzero((norms >= grid.r_min) & (norms <= grid.r_max))
    hits = np.zeros(grid.total_cells, dtype=bool)
    if ok.size:
        r = norms[ok]
        a_idx = grid.angular_index(pts[ok] / r[:, None])
        if grid.antipodal:
            a_idx = a_idx % (grid.num_angular // 2)
        span = np.log(grid.r_max) - np.log(grid.r_min)
        rbin = ((np.log(r) - np.log(grid.r_min)) / span * grid.radial_bins)
        rbin = np.minimum(rbin.astype(int), grid.radial_bins - 1)
        hits[a_idx * grid.radial_bins + rbin] = True
    below = int(np.count_nonzero(norms < grid.r_min))
    return hits, ok.size, below, len(pts) - ok.size - below


def _conjugated(mats, rng, cond):
    """P M P^-1 for each M, with P = q1 diag(geomspace(1, cond, n)) q2 for
    seeded random orthogonal q1 and q2, so P has condition number cond."""
    n = len(mats[0])
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    p = q1 @ np.diag(np.geomspace(1.0, cond, n)) @ q2
    p_inv = np.linalg.inv(p)
    return [p @ np.asarray(m, dtype=float) @ p_inv for m in mats]


def verdict_corpus():
    """(name, spec, controllable) for bilinear systems whose answer follows
    from their construction.

    Not controllable:
    - a common invariant subspace: two Gaussian generators whose lower-left
      (n - k) x k block is zero keep span(e_1, ..., e_k), conjugated at
      condition numbers 1 and 1e3, and at seed 0 also at 1e6 (drawn after
      the other two, so adding it moved no other system's matrices);
    - a common quadratic norm: M_i = Q^-1 (A_i A_i^T + K_i) with
      Q = B B^T + I and K_i skew never decreases x^T Q x; one generator is
      scaled by 37;
    - so(2,1) + R I, with boosts K1 = E13 + E31 and K2 = E23 + E32: the
      light cone x_1^2 + x_2^2 = x_3^2 is invariant, also with the
      generators shifted by multiples of I;
    - so3 (its orbits are spheres) and expanding_pair (a common norm grows),
      conjugated at condition numbers 1 and 10.
    Controllable: planar_jd and {Lx, Ly, diag(1, -1, 0)}, whose closures
    contain sl(n) with every generator reversible, plain and conjugated at
    condition number 10.
    """
    systems = []
    for n, k in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2)):
        for seed in range(3):
            rng = np.random.default_rng([n, k, seed])
            mats = rng.standard_normal((2, n, n))
            mats[:, k:, :k] = 0.0
            for cond in (1.0, 1e3, 1e6) if seed == 0 else (1.0, 1e3):
                systems.append((f"invariant_n{n}_k{k}_s{seed}_c{cond:g}",
                                _conjugated(mats, rng, cond), False))
    for n in (2, 3):
        for seed in range(3):
            rng = np.random.default_rng([n, seed, 37])
            b = rng.standard_normal((n, n))
            q_inv = np.linalg.inv(b @ b.T + np.eye(n))
            mats = []
            for _ in range(2):
                a, g = rng.standard_normal((2, n, n))
                mats.append(q_inv @ (a @ a.T + (g - g.T)))
            mats[0] = 37.0 * mats[0]
            systems.append((f"quadratic_norm_n{n}_s{seed}", mats, False))
    k1 = np.zeros((3, 3))
    k1[0, 2] = k1[2, 0] = 1.0
    k2 = np.zeros((3, 3))
    k2[1, 2] = k2[2, 1] = 1.0
    eye = np.eye(3)
    systems += [
        ("so21_plus_identity", [k1, k2, eye], False),
        ("so21_shift_opposite", [k1 + 0.1 * eye, k2 - 0.1 * eye], False),
        ("so21_shift_same", [k1 + 0.1 * eye, k2 + 0.1 * eye], False),
    ]
    for name in ("so3", "expanding_pair"):
        mats = builtin_corpus(name).family.matrices
        rng = np.random.default_rng(len(name))
        for cond in (1.0, 10.0):
            systems.append((f"{name}_c{cond:g}", _conjugated(mats, rng, cond), False))
    lx, ly, _ = (np.asarray(m) for m in builtin_corpus("so3").family.matrices)
    for name, mats in (("planar_jd", builtin_corpus("planar_jd").family.matrices),
                       ("lx_ly_diag", [lx, ly, np.diag([1.0, -1.0, 0.0])])):
        rng = np.random.default_rng(len(name))
        systems.append((name, list(mats), True))
        systems.append((f"{name}_c10", _conjugated(mats, rng, 10.0), True))
    return [(name, bilinear_system(mats, name=name), controllable)
            for name, mats, controllable in systems]
