"""Planar sections of radial codimension-one leaf fields and first returns.

A radial distribution assigns to every nonzero point a hyperplane (the leaf
tangent) transversal to the ray through the point.  Slicing by the plane
spanned by the pole p = e_n and a horizontal unit direction theta gives an
oriented line field whose integral curve from p spirals around the origin;
this module integrates that curve to its first crossing of the opposite ray
and checks that the crossing radius does not depend on theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matlie import LieBasis, lie_closure
from .model import SystemSpec
from .reach import rk_step, spread_directions


class FoliationError(RuntimeError):
    """Base class for leaf-field integration failures."""


class TransversalityError(FoliationError):
    """Leaf tangent became radial (normal orthogonal to the position)."""


class NoReturnError(FoliationError):
    """The integral curve exhausted its arc-length budget without returning."""


class DegenerateEventError(FoliationError):
    """Tangential or ill-posed crossing of the return ray."""


class SampleFailureError(FoliationError):
    """First-return failures at specific section directions."""

    def __init__(self, message, indices):
        super().__init__(message)
        self.indices = tuple(indices)


class RadialDistribution:
    """Codimension-one leaf field on R^n minus the origin.

    normal_fn maps a nonzero point to a vector orthogonal to the leaf through
    it (length and sign are irrelevant).  leaf_fn, when given, is a scalar
    function constant on leaves, used for membership checks.  transversality
    (the normal never orthogonal to the position) is enforced at every probe.
    """

    def __init__(self, n: int, normal_fn, leaf_fn=None, name: str = "",
                 trans_tol: float = 1e-9):
        if n < 2:
            raise ValueError("radial distributions need n >= 2")
        self.n = int(n)
        self.normal_fn = normal_fn
        self.leaf_fn = leaf_fn
        self.name = name
        self.trans_tol = float(trans_tol)

    def normal_at(self, x) -> np.ndarray:
        """Unit normal of the leaf through x; raises on transversality loss."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x)
        if r == 0.0:
            raise ValueError("x must be nonzero")
        nv = np.asarray(self.normal_fn(x), dtype=float)
        nn = np.linalg.norm(nv)
        if nn == 0.0 or not np.all(np.isfinite(nv)):
            raise TransversalityError(f"degenerate normal at {x.tolist()}")
        nv = nv / nn
        if abs(np.dot(nv, x / r)) < self.trans_tol:
            raise TransversalityError(
                f"leaf tangent contains the radial direction at {x.tolist()}")
        return nv


def sphere_distribution(n: int = 3) -> RadialDistribution:
    """Leaves are the centered spheres: normal N(x) = x."""
    return RadialDistribution(n, lambda x: np.asarray(x, dtype=float),
                              leaf_fn=lambda x: float(np.log(np.linalg.norm(x))),
                              name="sphere")


def radial_graph_distribution(n: int = 3, slope: float = 0.3,
                              axis: int | None = None) -> RadialDistribution:
    """Leaves are radial graphs log|x| = slope * x_axis/|x| + c.

    The defining function is F(x) = log|x| - slope * x_axis/|x|, whose
    gradient is radial plus a tangential correction; <grad F, x> = 1, so the
    distribution is transversal to rays everywhere.
    """
    if axis is None:
        axis = n - 1
    e = np.zeros(n)
    e[axis] = 1.0

    def normal(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x)
        sigma = x / r
        grad_h = slope * e
        return x / r**2 - (grad_h - np.dot(sigma, grad_h) * sigma) / r

    def leaf(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x)
        return float(np.log(r) - slope * x[axis] / r)

    return RadialDistribution(n, normal, leaf_fn=leaf,
                              name=f"radial_graph(slope={slope})")


def orbit_tangent_distribution(spec: SystemSpec, basis: LieBasis | None = None,
                               tol: float = 1e-9) -> RadialDistribution:
    """Leaf tangents spanned by the evaluated Lie closure of a bilinear system.

    Requires the evaluation to have rank n - 1 wherever it is probed; the
    normal is the left singular direction of the smallest singular value.
    """
    if not spec.is_bilinear:
        raise ValueError("orbit tangents need a bilinear system")
    if basis is None:
        basis = lie_closure(spec.family.matrices, tol=tol)
    n = spec.n

    def normal(x):
        cols = basis.stacked_at(np.asarray(x, dtype=float))
        u, s, _ = np.linalg.svd(cols, full_matrices=True)
        smax = s[0] if s.size else 0.0
        rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
        if rank != n - 1:
            raise FoliationError(
                f"evaluated closure has rank {rank} at {np.asarray(x).tolist()}, "
                f"expected {n - 1}")
        return u[:, -1]

    return RadialDistribution(n, normal, leaf_fn=None,
                              name=f"orbit_tangent({spec.name})")


@dataclass(frozen=True, eq=False)
class PlanarSection:
    """The plane spanned by the pole p = e_n and a horizontal unit theta."""

    theta: np.ndarray
    pole: np.ndarray
    n: int

    def to_plane(self, x) -> tuple[float, float]:
        x = np.asarray(x, dtype=float)
        return float(np.dot(x, self.pole)), float(np.dot(x, self.theta))

    def to_ambient(self, a: float, b: float) -> np.ndarray:
        return a * self.pole + b * self.theta


def planar_section(theta) -> PlanarSection:
    """Build the section for a unit direction theta with vanishing last
    coordinate (a point of the equatorial sphere of directions)."""
    theta = np.array(theta, dtype=float)
    n = theta.size
    if n < 3:
        raise ValueError("plane sections require n >= 3; the equatorial sphere "
                         "of directions is disconnected when n == 2")
    if abs(np.linalg.norm(theta) - 1.0) > 1e-9:
        raise ValueError("theta must be a unit vector")
    if abs(theta[-1]) > 1e-12:
        raise ValueError("theta must have zero last coordinate")
    pole = np.zeros(n)
    pole[-1] = 1.0
    theta.setflags(write=False)
    pole.setflags(write=False)
    return PlanarSection(theta=theta, pole=pole, n=n)


def _plane_field(distr: RadialDistribution, section: PlanarSection,
                 a: float, b: float) -> np.ndarray:
    """Oriented unit leaf-line direction at plane coordinates (a, b).

    The intersection of the leaf tangent with the plane is the kernel of the
    normal restricted to the plane; orientation fixes det((a,b), v) > 0, i.e.
    the angle around the origin strictly increases along the flow.  At the
    pole this points toward +theta, so the curve from p meets the positive
    theta ray before the negative one.
    """
    x = section.to_ambient(a, b)
    nv = distr.normal_at(x)
    va = -np.dot(nv, section.theta)
    vb = np.dot(nv, section.pole)
    nrm = float(np.hypot(va, vb))
    if nrm == 0.0:
        raise TransversalityError("leaf tangent is orthogonal to the section plane")
    va, vb = va / nrm, vb / nrm
    if a * vb - b * va < 0.0:
        va, vb = -va, -vb
    return np.array([va, vb])


def leaf_line_field(distr: RadialDistribution, section: PlanarSection, x) -> np.ndarray:
    """Oriented unit vector spanning (leaf tangent at x) in the section plane.

    x must lie in the plane; raises TransversalityError when the leaf tangent
    turns radial there.
    """
    x = np.asarray(x, dtype=float)
    a, b = section.to_plane(x)
    resid = np.linalg.norm(x - section.to_ambient(a, b))
    if resid > 1e-9 * max(1.0, np.linalg.norm(x)):
        raise ValueError("x does not lie in the section plane")
    v = _plane_field(distr, section, a, b)
    return section.to_ambient(v[0], v[1])


@dataclass(frozen=True, eq=False)
class FirstReturnResult:
    """First crossing of the opposite ray, with the arc that led there."""

    p_return: np.ndarray
    radius: float
    winding: float
    arc_length: float
    arc_t: np.ndarray          # normalized arc parameter in [0, 1]
    arc_points: np.ndarray     # (k, n) ambient points from start to return
    arc_velocities: np.ndarray  # unit leaf-line directions at the arc points
    section: PlanarSection


def first_return(distr: RadialDistribution, section: PlanarSection,
                 event_tol: float = 1e-10, start=None,
                 arc_budget: float | None = None, rtol: float = 1e-10,
                 atol: float = 1e-12, max_steps: int = 200000) -> FirstReturnResult:
    """Integrate the oriented leaf line from the pole to the opposite ray.

    The curve is integrated at unit speed in the section plane with adaptive
    Fehlberg steps; the crossing of {<x, theta> = 0, <x, pole> < 0} is
    located by sign-change bracketing plus bisection down to event_tol, and
    must be non-tangential.
    """
    if start is None:
        u = np.array([1.0, 0.0])
    else:
        a0, b0 = section.to_plane(np.asarray(start, dtype=float))
        u = np.array([a0, b0])
        if np.linalg.norm(np.asarray(start, dtype=float)
                          - section.to_ambient(a0, b0)) > 1e-9 * max(1.0, a0):
            raise ValueError("start point does not lie in the section plane")
    if u[0] <= 0.0:
        raise ValueError("start point must lie on the positive pole ray side")
    if arc_budget is None:
        arc_budget = 200.0 * max(1.0, float(np.linalg.norm(u)))

    def f(pt):
        return _plane_field(distr, section, pt[0], pt[1])

    ts = [0.0]
    us = [u.copy()]
    vs = [f(u)]
    t = 0.0
    winding = 0.0
    angle_prev = float(np.arctan2(u[1], u[0]))
    h = 0.01
    v_prev = vs[0]

    for _ in range(max_steps):
        r = float(np.linalg.norm(us[-1]))
        h = min(h, 0.1 * r)  # keeps the angle increment small, one event per step
        u_new, err = rk_step(f, us[-1], h)
        tol = atol + rtol * float(np.linalg.norm(us[-1]))
        if err > tol:
            h = max(1e-8, h * max(0.2, 0.9 * (tol / err) ** 0.2))
            continue
        v_new = f(u_new)
        if np.dot(v_prev, v_new) <= 0.0:
            raise DegenerateEventError("leaf-line orientation flipped along the arc")

        crossed = us[-1][1] > 0.0 and u_new[1] <= 0.0 and u_new[0] < 0.0
        if crossed:
            lo, hi = 0.0, h
            u_lo = us[-1]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                u_mid, _ = rk_step(f, us[-1], mid)
                if u_mid[1] > 0.0:
                    lo, u_lo = mid, u_mid
                else:
                    hi = mid
                if abs(u_mid[1]) <= event_tol:
                    u_new, h = u_mid, mid
                    break
            else:
                u_new, h = u_lo, lo
            if abs(u_new[1]) > event_tol:
                raise DegenerateEventError("bisection failed to localize the crossing")
            v_new = f(u_new)
            if abs(v_new[1]) < 1e-6:
                raise DegenerateEventError("tangential crossing of the return ray")
            if u_new[0] >= 0.0:
                raise DegenerateEventError("crossing is not on the opposite ray")

        t += h
        angle = float(np.arctan2(u_new[1], u_new[0]))
        delta = angle - angle_prev
        if delta <= -np.pi:
            delta += 2.0 * np.pi
        elif delta > np.pi:
            delta -= 2.0 * np.pi
        winding += delta
        angle_prev = angle
        ts.append(t)
        us.append(u_new)
        vs.append(v_new)
        v_prev = v_new

        if crossed:
            arc_t = np.array(ts) / t
            plane = np.array(us)
            points = plane[:, 0:1] * section.pole[None, :] \
                + plane[:, 1:2] * section.theta[None, :]
            vel = np.array(vs)
            velocities = vel[:, 0:1] * section.pole[None, :] \
                + vel[:, 1:2] * section.theta[None, :]
            p_return = points[-1]
            return FirstReturnResult(
                p_return=p_return, radius=float(np.linalg.norm(u_new)),
                winding=winding, arc_length=t, arc_t=arc_t,
                arc_points=points, arc_velocities=velocities, section=section)

        h = min(h * 1.5, 0.05 * r)
        if t > arc_budget:
            raise NoReturnError(
                f"no crossing of the opposite ray within arc length {arc_budget}")
    raise NoReturnError(f"no crossing of the opposite ray within {max_steps} steps")


def _theta_samples(n: int, count: int, seed: int) -> np.ndarray:
    """Quasi-uniform unit directions on the equatorial sphere (last coord 0)."""
    rng = np.random.default_rng([seed, 6])
    thetas = np.zeros((count, n))
    if n == 3:
        angles = 2.0 * np.pi * (np.arange(count) + rng.random()) / count
        thetas[:, 0] = np.cos(angles)
        thetas[:, 1] = np.sin(angles)
    else:
        thetas[:, : n - 1] = spread_directions(rng, n - 1, count)
    return thetas


@dataclass(frozen=True, eq=False)
class ConstancyReport:
    """Return radii over section directions and their spread."""

    values: tuple
    max_deviation: float
    constant: bool
    mean_radius: float
    thetas: np.ndarray
    results: tuple


def first_return_constancy(distr: RadialDistribution, theta_samples: int = 64,
                           seed: int = 0, tol: float = 1e-6,
                           event_tol: float = 1e-10) -> ConstancyReport:
    """Evaluate the return radius over sampled section directions.

    The radii of a genuine homogeneous codimension-one leaf field transversal
    to rays must agree across directions; ``constant`` holds when the largest
    deviation from the mean is at most tol times the mean.
    """
    if distr.n < 3:
        raise ValueError("constancy check requires n >= 3; the equatorial "
                         "sphere of directions is disconnected when n == 2")
    if theta_samples < 2:
        raise ValueError("theta_samples must be >= 2")
    thetas = _theta_samples(distr.n, theta_samples, seed)
    results = []
    failures = []
    for k, theta in enumerate(thetas):
        try:
            results.append(first_return(distr, planar_section(theta),
                                         event_tol=event_tol))
        except FoliationError as exc:
            failures.append((k, exc))
    if failures:
        idx = [k for k, _ in failures]
        raise SampleFailureError(
            f"first return failed at section indices {idx}: {failures[0][1]}", idx)
    values = np.array([r.radius for r in results])
    mean = float(values.mean())
    max_dev = float(np.max(np.abs(values - mean)))
    return ConstancyReport(values=tuple(float(v) for v in values),
                           max_deviation=max_dev,
                           constant=max_dev <= tol * mean,
                           mean_radius=mean, thetas=thetas,
                           results=tuple(results))


@dataclass(frozen=True, eq=False)
class ArcFamily:
    """Arcs over all sampled directions, sharing their two endpoints."""

    thetas: np.ndarray
    results: tuple
    mean_radius: float
    max_deviation: float
    start_spread: float
    end_spread: float
    min_point_radius: float
    max_point_radius: float


def arc_family(distr: RadialDistribution, theta_samples: int = 64,
               seed: int = 0, constancy_tol: float = 1e-6,
               event_tol: float = 1e-10) -> ArcFamily:
    """Build the family of arcs over sampled directions.

    Requires the return radius to be constant across directions (within
    constancy_tol); all arcs then run from the pole to the common return
    point, and the union of their points stays in a bounded annulus.
    """
    report = first_return_constancy(distr, theta_samples=theta_samples,
                                    seed=seed, tol=constancy_tol,
                                    event_tol=event_tol)
    if not report.constant:
        raise FoliationError(
            f"return radius varies across directions "
            f"(max deviation {report.max_deviation:.3e}); no common arc family")
    pole = np.zeros(distr.n)
    pole[-1] = 1.0
    mean_return = -report.mean_radius * pole
    start_spread = max(float(np.linalg.norm(r.arc_points[0] - pole))
                       for r in report.results)
    end_spread = max(float(np.linalg.norm(r.arc_points[-1] - mean_return))
                     for r in report.results)
    radii = [np.linalg.norm(r.arc_points, axis=1) for r in report.results]
    return ArcFamily(
        thetas=report.thetas, results=report.results,
        mean_radius=report.mean_radius, max_deviation=report.max_deviation,
        start_spread=start_spread, end_spread=end_spread,
        min_point_radius=float(min(r.min() for r in radii)),
        max_point_radius=float(max(r.max() for r in radii)),
    )
