"""Exact piecewise-constant simulation, attainable-set sampling, coverage.

Bilinear schedules are products of flows exp(t M_k) x, applied by one batched
kernel in simulation, sampling and reach search alike; smooth schedules are
integrated adaptively.  Attainable-set clouds are produced by a seeded
random-schedule sampler whose per-schedule randomness is a pure function of
(seed, schedule index), so any execution order yields the same cloud.
Coverage is measured on angular cells (equal-area for n <= 3) crossed with
log-radial bins over an annulus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from .model import ControlSchedule, MatrixFamily, SystemSpec

DEGENERATE_NORM = 1e-300
BLOWUP_NORM = 1e12

# Displacement per step, relative to the point radius, in the batched smooth
# sampler.  Coverage is a density proxy; the contract-grade integrator is
# simulate_smooth.
_BATCH_STEP = 0.05
_BATCH_FREEZE_NORM = 1e9


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States along a schedule; times[0] = 0 and states[0] = x0.

    status is "ok", "degenerate" (norm underflowed toward 0) or "blowup"
    (norm exceeded BLOWUP_NORM; the trajectory is truncated there).
    """

    times: np.ndarray
    states: np.ndarray
    schedule: ControlSchedule
    status: str = "ok"

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


def _check_x0(x0, n) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must be a vector of length {n}")
    if not np.all(np.isfinite(x0)) or not np.any(x0):
        raise ValueError("x0 must be finite and nonzero")
    return x0


def _check_schedule(schedule: ControlSchedule, num_fields: int):
    if schedule.max_index >= num_fields:
        raise ValueError(
            f"schedule uses field index {schedule.max_index}, "
            f"but the system has {num_fields} fields")


class _FamilyFlows:
    """The flow kernel of a bilinear family: exp(t M_k) applied to batches
    of states, through cached eigenfactors when they reconstruct M_k to near
    machine precision and one stacked scaling-and-squaring call otherwise.
    """

    def __init__(self, family: MatrixFamily):
        self.mats = family.matrices
        self.eig = []
        for m in self.mats:
            item = None
            try:
                w, v = np.linalg.eig(m)
                vinv = np.linalg.inv(v)
                err = np.linalg.norm((v * w) @ vinv - m)
                if err <= 1e-12 * (1.0 + np.linalg.norm(m)):
                    item = (w, v, vinv)
            except np.linalg.LinAlgError:
                item = None
            self.eig.append(item)

    def apply_rows(self, k: int, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Row r of the result is exp(ts[r] M_k) @ xs[r]; overflow gives
        non-finite rows rather than an error."""
        item = self.eig[k]
        if item is None:
            exps = scipy.linalg.expm(ts[:, None, None] * self.mats[k])
            return np.einsum("rij,rj->ri", exps, xs)
        w, v, vinv = item
        y = xs @ vinv.T
        y = y * np.exp(ts[:, None] * w[None, :])
        return np.real(y @ v.T)

    def simulate(self, schedule: ControlSchedule, x0: np.ndarray,
                 record_dt: float | None = None) -> Trajectory:
        """Trajectory of x0 along a validated schedule; see simulate_bilinear."""
        times = [0.0]
        states = [x0]
        status = "ok"
        x = x0
        for idx, dur in schedule.segments:
            if dur == 0.0:
                # exp(0 M) = I: the state stays bit-identical
                times.append(times[-1])
                states.append(x)
                continue
            steps = 1 if record_dt is None else int(np.ceil(abs(dur) / record_dt))
            offsets = (dur / steps) * np.arange(1, steps + 1)
            xs = self.apply_rows(idx, offsets, np.broadcast_to(x, (steps, x.size)))
            if not np.all(np.isfinite(xs)):
                raise OverflowError("bilinear flow overflowed to a non-finite state")
            times.extend(times[-1] + offsets)
            states.extend(xs)
            x = xs[-1]
            if np.linalg.norm(x) < DEGENERATE_NORM:
                status = "degenerate"
                break
        return Trajectory(np.array(times), np.array(states), schedule, status)


def simulate_bilinear(family: MatrixFamily, schedule: ControlSchedule, x0,
                      record_dt: float | None = None) -> Trajectory:
    """Flow x0 through exp(t_k M_k) ... exp(t_1 M_1), recording boundaries.

    With record_dt, interior states are recorded roughly every record_dt time
    units inside each segment.  Raises OverflowError once the state is no
    longer finite.
    """
    x0 = _check_x0(x0, family.n)
    _check_schedule(schedule, len(family))
    if record_dt is not None and not record_dt > 0:
        raise ValueError("record_dt must be positive")
    return _FamilyFlows(family).simulate(schedule, x0, record_dt)


def simulate_smooth(spec: SystemSpec, schedule: ControlSchedule, x0,
                    step_tol: float = 1e-10,
                    record_dt: float | None = None) -> Trajectory:
    """Integrate the switched smooth system with adaptive error control.

    Local error is kept at roughly step_tol per unit time.  Integration stops
    early with status "blowup" when the state norm exceeds BLOWUP_NORM, and
    reports "degenerate" if the norm underflows toward zero.
    """
    if spec.is_bilinear:
        raise ValueError("simulate_smooth expects a smooth system")
    x0 = _check_x0(x0, spec.n)
    _check_schedule(schedule, spec.num_fields)
    if step_tol <= 0:
        raise ValueError("step_tol must be positive")

    times = [0.0]
    states = [x0]
    status = "ok"
    t = 0.0
    x = x0

    def blowup_event(_t, y):
        return float(np.linalg.norm(y)) - BLOWUP_NORM

    blowup_event.terminal = True

    for idx, dur in schedule.segments:
        if dur == 0.0:
            times.append(t)
            states.append(x)
            continue
        field = spec.fields[idx]
        if record_dt is not None and abs(dur) > record_dt:
            k = int(np.ceil(abs(dur) / record_dt))
            t_eval = np.linspace(0.0, dur, k + 1)[1:]
        else:
            t_eval = np.array([dur])
        sol = solve_ivp(lambda _t, y: np.asarray(field(y), dtype=float),
                        (0.0, dur), x, method="RK45",
                        rtol=step_tol, atol=step_tol, t_eval=t_eval,
                        events=blowup_event, dense_output=False)
        if not sol.success and sol.status != 1:
            raise RuntimeError(f"integration failed: {sol.message}")
        sol_t = np.asarray(sol.t)
        for k in range(sol_t.size):
            times.append(t + sol_t[k])
            states.append(np.asarray(sol.y)[:, k])
        if sol.status == 1:
            times.append(t + sol.t_events[0][0])
            states.append(sol.y_events[0][0])
            status = "blowup"
        x = states[-1]
        t = times[-1]
        if status == "blowup":
            break
        if np.linalg.norm(x) < DEGENERATE_NORM:
            status = "degenerate"
            break
    return Trajectory(np.array(times), np.array(states), schedule, status)


def simulate(spec: SystemSpec, schedule: ControlSchedule, x0, **kwargs) -> Trajectory:
    """Dispatch to the bilinear or smooth simulator."""
    if spec.is_bilinear:
        return simulate_bilinear(spec.family, schedule, x0, **kwargs)
    return simulate_smooth(spec, schedule, x0, **kwargs)


# --- random schedule tables -------------------------------------------------

def _schedule_tables(num_fields: int, budget: int, seed: int,
                     max_segments: int, duration_scale: float):
    """Draw (counts, indices, durations); row i depends only on (seed, i)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if max_segments < 1:
        raise ValueError("max_segments must be >= 1")
    if duration_scale <= 0:
        raise ValueError("duration_scale must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    counts = np.random.default_rng([seed, 1]).integers(1, max_segments + 1, size=budget)
    indices = np.random.default_rng([seed, 2]).integers(
        0, num_fields, size=(budget, max_segments))
    durations = np.random.default_rng([seed, 3]).exponential(
        duration_scale, size=(budget, max_segments))
    durations[np.arange(max_segments)[None, :] >= counts[:, None]] = 0.0
    return counts, indices, durations


def _schedule_from_row(indices_row, durations_row) -> ControlSchedule:
    segs = [(int(i), float(d)) for i, d in zip(indices_row, durations_row) if d > 0.0]
    return ControlSchedule(tuple(segs) if segs else ((0, 0.0),))


def _sample_bilinear(flows, x0, indices, durations):
    budget, max_segments = indices.shape
    x = np.broadcast_to(x0, (budget, x0.size)).astype(float).copy()
    visited = []
    for j in range(max_segments):
        t_col = durations[:, j]
        idx_col = indices[:, j]
        active = t_col > 0.0
        if not active.any():
            continue
        for k in range(len(flows.mats)):
            rows = active & (idx_col == k)
            if rows.any():
                x[rows] = flows.apply_rows(k, t_col[rows], x[rows])
        visited.append(x[active].copy())
    return x, np.vstack(visited) if visited else x.copy()


def _sample_smooth(spec, x0, indices, durations):
    budget, max_segments = indices.shape
    x = np.broadcast_to(x0, (budget, x0.size)).astype(float).copy()
    frozen = np.zeros(budget, dtype=bool)
    visited = []

    def field_eval(pts, idx):
        out = np.empty_like(pts)
        for k in range(spec.num_fields):
            rows = idx == k
            if rows.any():
                out[rows] = spec.fields[k](pts[rows])
        return out

    for j in range(max_segments):
        remaining = durations[:, j].copy()
        remaining[frozen] = 0.0
        idx_col = indices[:, j]
        while True:
            active = np.flatnonzero(remaining > 0.0)
            if active.size == 0:
                break
            pts = x[active]
            idx = idx_col[active]
            k1 = field_eval(pts, idx)
            speed = np.linalg.norm(k1, axis=1)
            radius = np.linalg.norm(pts, axis=1)
            h_cap = _BATCH_STEP * (1.0 + radius) / (1.0 + speed)
            h = np.minimum(remaining[active], h_cap)[:, None]
            k2 = field_eval(pts + 0.5 * h * k1, idx)
            k3 = field_eval(pts + 0.5 * h * k2, idx)
            k4 = field_eval(pts + h * k3, idx)
            step = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            new_pts = pts + step
            norms = np.linalg.norm(new_pts, axis=1)
            bad = ~np.all(np.isfinite(new_pts), axis=1) | (norms > _BATCH_FREEZE_NORM)
            new_pts[bad] = pts[bad]
            x[active] = new_pts
            remaining[active] -= h[:, 0]
            if bad.any():
                rows = active[bad]
                frozen[rows] = True
                remaining[rows] = 0.0
        seg_rows = durations[:, j] > 0.0
        if seg_rows.any():
            visited.append(x[seg_rows].copy())
    return x, np.vstack(visited) if visited else x.copy()


def sample_attainable(spec: SystemSpec, x0, budget: int, seed: int,
                      max_segments: int = 20, duration_scale: float = 0.5,
                      boundaries: bool = True) -> np.ndarray:
    """Attainable points visited by ``budget`` random nonnegative-time
    schedules from x0.

    Segment counts are uniform on [1, max_segments], field indices uniform,
    durations exponential with mean duration_scale.  With boundaries (the
    default) the cloud holds every segment-boundary state; each such point is
    the endpoint of a sampled schedule prefix, so all cloud points are
    attainable.  With boundaries=False only the final endpoints are returned
    (exactly ``budget`` points).  Deterministic for a fixed seed.
    """
    x0 = _check_x0(x0, spec.n)
    _, indices, durations = _schedule_tables(
        spec.num_fields, budget, seed, max_segments, duration_scale)
    flows = _FamilyFlows(spec.family) if spec.is_bilinear else None
    ends, visited = _sample(spec, flows, x0, indices, durations)
    return visited if boundaries else ends


def _sample(spec, flows, x0, indices, durations):
    """(endpoints, segment-boundary states) of every schedule row from x0,
    through the flow kernel for a bilinear system and the batched RK4
    stepper for a smooth one."""
    if flows is None:
        return _sample_smooth(spec, x0, indices, durations)
    return _sample_bilinear(flows, x0, indices, durations)


# --- coverage grids ---------------------------------------------------------

def spread_directions(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Greedy farthest-point directions on S^(n-1), symmetric under negation,
    picked from random candidates drawn from rng."""
    cand = rng.standard_normal((max(64, 32 * count), n))
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    chosen = [cand[0]]
    for _ in range(count - 1):
        # distance to the chosen set and its antipodes: 1 - |dot|
        score = 1.0 - np.max(np.abs(cand @ np.array(chosen).T), axis=1)
        chosen.append(cand[int(np.argmax(score))])
    return np.array(chosen)


class CoverageGrid:
    """Angular cells times log-radial bins over an annulus.

    The angular partition is equal-area for n <= 3: arcs for n = 2, bands
    of equal height split into sectors for n = 3.  For n > 3 it is the
    nearest-center partition of a seeded spread point set, whose cells do
    not have equal area.  Cell counts are adjusted so the partition is
    exactly symmetric under x -> -x, which makes the antipodal (projective)
    quotient exact.
    """

    def __init__(self, n: int, angular_cells: int = 32, radial_bins: int = 16,
                 r_min: float = 0.1, r_max: float = 10.0,
                 antipodal: bool = False, center_seed: int = 0):
        if n < 1:
            raise ValueError("n must be >= 1")
        if angular_cells < 1 or radial_bins < 1:
            raise ValueError("grid resolution must be >= 1")
        if not (0.0 < r_min < r_max):
            raise ValueError("need 0 < r_min < r_max")
        self.n = n
        self.radial_bins = int(radial_bins)
        self.r_min = float(r_min)
        self.r_max = float(r_max)
        self.antipodal = bool(antipodal)
        self._centers = None
        self._bands = self._sectors = 0
        if n == 1:
            self.num_angular = 2
        elif n == 2:
            self.num_angular = max(2, 2 * int(round(angular_cells / 2)))
        elif n == 3:
            bands = max(1, int(round(np.sqrt(angular_cells / 2.0))))
            sectors = max(2, 2 * int(round(angular_cells / bands / 2.0)))
            self._bands, self._sectors = bands, sectors
            self.num_angular = bands * sectors
        else:
            half = max(1, int(np.ceil(angular_cells / 2.0)))
            base = spread_directions(np.random.default_rng([center_seed, n, half]),
                                     n, half)
            self._centers = np.vstack([base, -base])
            self.num_angular = 2 * half

    @property
    def total_cells(self) -> int:
        ang = self.num_angular // 2 if self.antipodal else self.num_angular
        return ang * self.radial_bins

    def angular_index(self, units: np.ndarray) -> np.ndarray:
        """Angular cell of each unit row vector."""
        units = np.atleast_2d(units)
        if self.n == 1:
            return np.where(units[:, 0] > 0, 0, 1)
        if self.n == 2:
            ang = np.mod(np.arctan2(units[:, 1], units[:, 0]), 2.0 * np.pi)
            return np.minimum((ang / (2.0 * np.pi / self.num_angular)).astype(int),
                              self.num_angular - 1)
        if self.n == 3:
            z = np.clip(units[:, 2], -1.0, 1.0)
            band = np.minimum(((z + 1.0) / 2.0 * self._bands).astype(int),
                              self._bands - 1)
            az = np.mod(np.arctan2(units[:, 1], units[:, 0]), 2.0 * np.pi)
            sector = np.minimum((az / (2.0 * np.pi / self._sectors)).astype(int),
                                self._sectors - 1)
            return band * self._sectors + sector
        return np.argmax(units @ self._centers.T, axis=1)

    def antipodal_partner(self, idx: np.ndarray) -> np.ndarray:
        """Angular cell containing the antipode of each cell (exact)."""
        idx = np.asarray(idx)
        if self.n == 1:
            return 1 - idx
        if self.n == 2:
            return (idx + self.num_angular // 2) % self.num_angular
        if self.n == 3:
            band, sector = idx // self._sectors, idx % self._sectors
            return ((self._bands - 1 - band) * self._sectors
                    + (sector + self._sectors // 2) % self._sectors)
        half = self.num_angular // 2
        return (idx + half) % self.num_angular

    def _quotient_relabel(self) -> np.ndarray:
        ids = np.arange(self.num_angular)
        canon = np.minimum(ids, self.antipodal_partner(ids))
        _, relabeled = np.unique(canon, return_inverse=True)
        return relabeled

    def cell_indices(self, points: np.ndarray) -> np.ndarray:
        """Flat cell index per point; -1 for points outside the annulus."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.n:
            raise ValueError(f"points must have {self.n} columns")
        out = np.full(pts.shape[0], -1, dtype=int)
        norms = np.linalg.norm(pts, axis=1)
        ok = np.all(np.isfinite(pts), axis=1) & (norms >= self.r_min) & (norms <= self.r_max)
        if not ok.any():
            return out
        units = pts[ok] / norms[ok, None]
        a_idx = self.angular_index(units)
        if self.antipodal:
            a_idx = self._quotient_relabel()[a_idx]
        span = np.log(self.r_max) - np.log(self.r_min)
        rbin = ((np.log(norms[ok]) - np.log(self.r_min)) / span * self.radial_bins)
        rbin = np.minimum(rbin.astype(int), self.radial_bins - 1)
        out[np.flatnonzero(ok)] = a_idx * self.radial_bins + rbin
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
    """Hit cells of a point cloud on a coverage grid."""

    hits: np.ndarray
    fraction: float
    hit_count: int
    total_cells: int
    angular_fraction: float
    num_points: int
    num_in_annulus: int
    grid_params: dict


def coverage(cloud: np.ndarray, grid: CoverageGrid) -> CoverageReport:
    """Mark the grid cells containing at least one cloud point."""
    pts = np.atleast_2d(np.asarray(cloud, dtype=float))
    cells = grid.cell_indices(pts)
    inside = cells >= 0
    hits = np.zeros(grid.total_cells, dtype=bool)
    hits[np.unique(cells[inside])] = True
    num_angular = grid.total_cells // grid.radial_bins
    ang_hits = np.zeros(num_angular, dtype=bool)
    ang_hits[np.unique(cells[inside] // grid.radial_bins)] = True
    return CoverageReport(
        hits=hits,
        fraction=float(hits.sum() / grid.total_cells),
        hit_count=int(hits.sum()),
        total_cells=grid.total_cells,
        angular_fraction=float(ang_hits.sum() / num_angular),
        num_points=int(pts.shape[0]),
        num_in_annulus=int(inside.sum()),
        grid_params=grid.params(),
    )


# --- targeted reachability --------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReachTestResult:
    hit: bool
    witness: ControlSchedule | None
    distance: float
    endpoint: np.ndarray
    evaluations: int


def _distance(spec, flows, segs, x0, target) -> tuple[float, np.ndarray]:
    """Distance to the target of one schedule's endpoint, and the endpoint;
    a schedule that overflows counts as infinitely far."""
    schedule = ControlSchedule(segs)
    try:
        traj = (simulate_smooth(spec, schedule, x0) if flows is None
                else flows.simulate(schedule, x0))
    except OverflowError:
        return np.inf, np.full(x0.size, np.inf)
    return float(np.linalg.norm(traj.endpoint - target)), traj.endpoint


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
    one by seeded stochastic descent on endpoint distance.  A returned witness
    is replay-verified: simulating it again lands within eps of the target.
    """
    x0 = _check_x0(x0, spec.n)
    target = np.asarray(target, dtype=float)
    if target.shape != (spec.n,):
        raise ValueError(f"target must be a vector of length {spec.n}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if np.linalg.norm(target) == 0.0:
        raise ValueError("target must be nonzero")
    if budget < 1:
        raise ValueError("budget must be >= 1")

    flows = _FamilyFlows(spec.family) if spec.is_bilinear else None
    explore = max(1, min(budget, max(budget // 4, 256)))
    _, indices, durations = _schedule_tables(
        spec.num_fields, explore, seed, max_segments, duration_scale)
    cloud, _ = _sample(spec, flows, x0, indices, durations)
    dists = np.linalg.norm(cloud - target[None, :], axis=1)
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
        d, _ = _distance(spec, flows, cand, x0, target)
        evaluations += 1
        if d < best_dist:
            best_dist = d
            best_segs = cand
            scale = max(0.02, scale * 0.95)

    witness = ControlSchedule(best_segs)
    final_dist, endpoint = _distance(spec, flows, best_segs, x0, target)
    hit = final_dist <= eps
    return ReachTestResult(hit=hit, witness=witness if hit else None,
                           distance=final_dist, endpoint=endpoint,
                           evaluations=evaluations)
