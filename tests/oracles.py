"""Independent brute-force oracles used to pin expected test values.

These deliberately avoid the library's numerical code paths: the closure
oracle works in exact rational arithmetic with Gaussian elimination, the
grid oracle scans the unit circle densely, the flow oracle multiplies plain
scipy matrix exponentials, the smooth-flow oracle runs scipy's DOP853 at a
tight tolerance, the tangent-rank oracle pushes the closure to the sphere
with its own ``project_sphere`` instead of appending the radial line, and
the reach-search oracle runs the descent one candidate per ``simulate``
call instead of in batched tables, the spread-direction oracle rescans every
chosen point on each pick, the coverage oracle bins the whole cloud in one
``cell_indices`` call instead of in blocks of rows, the one-table sampling
oracle draws the whole schedule table at once and runs it in one call
instead of in blocks of rows, and the leaf oracle is the closed-form
defining function of the radial-graph leaves.  ``split_segments`` cuts a
schedule into equal pieces, so that ``simulate`` records states inside its
segments.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from bilinctrl.model import ControlSchedule
from bilinctrl.reach import (
    _mutate_schedule,
    _runner,
    _schedule_from_row,
    _schedule_tables,
    sample_attainable,
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
