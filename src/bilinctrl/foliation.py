"""Planar sections of radial codimension-one leaf fields and first returns.

A radial distribution assigns to every nonzero point a hyperplane (the leaf
tangent) transversal to the ray through the point.  Slicing by the plane
spanned by the pole p = e_n and a horizontal unit direction theta gives an
oriented line field whose integral curve from p winds around the origin;
first_return reports its unit directions along the curve as arc_velocities.
Transversality makes the curve's angle phi around the origin strictly
increasing, so the curve is the graph phi -> log r(phi), and its first
return to the opposite ray is its value at phi = pi: there is no crossing to
search for.  Every section's curve is one row of one table, integrated over
the angle by reach.integrate_table in error-controlled steps that run
across the arc points: the return point, radius, winding and arc length are
stepped states at phi = pi, and the arc points between are read off the
4th-order continuous extension of the step that passes them.  The module
then checks that the return radius does not depend on theta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .matlie import DEFAULT_TOL, LieBasis, check_point, lie_closure, numerical_rank
from .model import SystemSpec
from .reach import integrate_table, spread_directions

TRANS_TOL = 1e-9  # least |cos| between a leaf normal and the ray
RETURN_PIECES = 64  # equal angle pieces per leaf line, an arc point after each
CONSTANCY_TOL = 1e-6  # largest deviation of the return radii, relative to their mean
ESCAPE_NORM = 1e12  # a leaf row (log r, phi, arc, theta) past this norm does not return


class FoliationError(RuntimeError):
    """Base class for leaf-field integration failures."""


class TransversalityError(FoliationError):
    """Leaf tangent became radial (normal orthogonal to the position)."""


class NoReturnError(FoliationError):
    """The integral curve exhausted its arc-length budget without returning."""


class SampleFailureError(FoliationError):
    """First-return failures at specific section directions."""

    def __init__(self, message, indices):
        super().__init__(message)
        self.indices = tuple(indices)


class RadialDistribution:
    """Codimension-one leaf field on R^n minus the origin.

    normal_fn maps a stack of nonzero points (..., n) to vectors (..., n)
    orthogonal to the leaves through them (length and sign are irrelevant),
    with non-finite rows where the normal is undefined; like a smooth field
    of model.SystemSpec.  transversality (the normal never orthogonal to the
    position) is enforced at every probe.
    """

    def __init__(self, n: int, normal_fn, name: str = ""):
        if n < 2:
            raise ValueError("radial distributions need n >= 2")
        self.n = int(n)
        self.normal_fn = normal_fn
        self.name = name

    def normal_at(self, x) -> np.ndarray:
        """Unit normal of the leaf through x; raises on transversality loss."""
        x = np.asarray(x, dtype=float)
        if not np.any(x):
            raise ValueError("x must be nonzero")
        with np.errstate(all="ignore"):
            nv = _unit_normals(self, x)
        if not np.isfinite(nv).all():
            raise TransversalityError(
                f"leaf normal undefined or orthogonal to the ray at {x.tolist()}")
        return nv


def _unit_normals(distr: RadialDistribution, x: np.ndarray) -> np.ndarray:
    """Unit leaf normals at the points x (..., n): NaN rows where the normal
    is undefined or within TRANS_TOL of orthogonal to the ray.  Callers
    silence the floating-point warnings of such rows."""
    nv = np.asarray(distr.normal_fn(x), dtype=float)
    if nv.shape != x.shape:
        nv = np.broadcast_to(nv, x.shape)
    nv = nv / np.sqrt(np.add.reduce(nv * nv, axis=-1, keepdims=True))
    cos = np.add.reduce(nv * x, axis=-1) / np.sqrt(np.add.reduce(x * x, axis=-1))
    return np.where((np.abs(cos) >= TRANS_TOL)[..., None], nv, np.nan)


def sphere_distribution(n: int = 3) -> RadialDistribution:
    """Leaves are the centered spheres: normal N(x) = x."""
    return RadialDistribution(n, lambda x: np.asarray(x, dtype=float),
                              name="sphere")


def radial_graph_distribution(n: int = 3, slope: float = 0.3) -> RadialDistribution:
    """Leaves are radial graphs log|x| = slope * x_n/|x| + c over the last
    axis, the pole of the planar sections.

    The defining function is F(x) = log|x| - slope * x_n/|x|, whose
    gradient is radial plus a tangential correction; <grad F, x> = 1, so the
    distribution is transversal to rays everywhere.
    """
    e = np.zeros(n)
    e[-1] = 1.0

    def normal(x):
        x = np.asarray(x, dtype=float)
        r = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
        sigma = x / r
        return x / r**2 - slope * (e - sigma[..., -1:] * sigma) / r

    return RadialDistribution(n, normal, name=f"radial_graph(slope={slope})")


def orbit_tangent_distribution(spec: SystemSpec, basis: LieBasis | None = None,
                               tol: float = DEFAULT_TOL) -> RadialDistribution:
    """Leaf tangents spanned by the evaluated Lie closure of a bilinear system.

    The normal is the left singular direction of the smallest singular value
    of the evaluation, one batched SVD for a stack of points; it is NaN where
    the evaluation does not have rank n - 1 (matlie.numerical_rank at tol)
    or the point is not finite.
    """
    if not spec.is_bilinear:
        raise ValueError("orbit tangents need a bilinear system")
    if basis is None:
        basis = lie_closure(spec.family.matrices, tol=tol)
    n = spec.n

    def normal(x):
        x = np.asarray(x, dtype=float)
        ok = np.isfinite(x).all(axis=-1)  # no SVD of non-finite points
        pts = x if ok.all() else x[ok]
        u, s, _ = np.linalg.svd(basis.stacked_at(pts))
        nv = np.where((numerical_rank(s, tol) == n - 1)[..., None], u[..., -1], np.nan)
        if pts is x:
            return nv
        out = np.full(x.shape, np.nan)
        out[ok] = nv
        return out

    return RadialDistribution(n, normal, name=f"orbit_tangent({spec.name})")


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
    # a NaN coordinate compares false against both bounds, so check it first
    if not np.isfinite(theta).all() or abs(np.linalg.norm(theta) - 1.0) > 1e-9:
        raise ValueError("theta must be a finite unit vector")
    if abs(theta[-1]) > 1e-12:
        raise ValueError("theta must have zero last coordinate")
    pole = np.zeros(n)
    pole[-1] = 1.0
    theta.setflags(write=False)
    pole.setflags(write=False)
    return PlanarSection(theta=theta, pole=pole, n=n)


# --- leaf lines over the angle ------------------------------------------------
#
# A leaf line is a table row with state (log r, phi, arc length, theta): the
# point r (cos(phi) p + sin(phi) theta) of the section plane of theta, and the
# arc length run so far.  theta rides along with rate 0, since the integrator's
# fields see only states.

def _section_frame(states: np.ndarray):
    """At the rows of states: the radii r, the points x = r e_r, and the unit
    radial and angular directions e_r, e_phi of the section planes.  Rows
    that overflowed or failed give NaN; callers silence their warnings."""
    r, sin, cos = np.exp(states[:, 0]), np.sin(states[:, 1]), np.cos(states[:, 1])
    thetas = states[:, 3:]
    e_r, e_phi = sin[:, None] * thetas, cos[:, None] * thetas
    e_r[:, -1] += cos  # theta has a zero last coordinate
    e_phi[:, -1] -= sin
    return r, r[:, None] * e_r, e_r, e_phi


def _leaf_frame(distr: RadialDistribution, states: np.ndarray):
    """_section_frame of the rows of states, and the parts n_r, n_phi of the
    unit leaf normal along e_r, e_phi (NaN where the normal is undefined or
    orthogonal to the ray)."""
    with np.errstate(all="ignore"):
        r, x, e_r, e_phi = _section_frame(states)
        nv = _unit_normals(distr, x)
    return (r, x, e_r, e_phi, np.add.reduce(nv * e_r, axis=1),
            np.add.reduce(nv * e_phi, axis=1))


def _angle_rates(distr: RadialDistribution):
    """The field of leaf-line rows over the angle: d log r/dphi =
    -n_phi/n_r, dphi/dphi = 1, d arc/dphi = r |(n_r, n_phi)| / |n_r|."""
    def rates(states):
        r, _, _, _, n_r, n_phi = _leaf_frame(distr, states)
        out = np.zeros_like(states)
        out[:, 0] = -n_phi / n_r
        out[:, 1] = 1.0
        out[:, 2] = r * np.hypot(n_r, n_phi) / np.abs(n_r)
        return out
    return rates


def _points_and_velocities(distr: RadialDistribution, states: np.ndarray):
    """The points of the rows of states and the unit leaf-line directions
    there, oriented so that the angle increases; NaN where transversality
    fails."""
    _, x, e_r, e_phi, n_r, n_phi = _leaf_frame(distr, states)
    scale = (np.sign(n_r) / np.hypot(n_r, n_phi))[:, None]
    return x, scale * (n_r[:, None] * e_phi - n_phi[:, None] * e_r)


def _plane_coords(section: PlanarSection, x) -> tuple[float, float]:
    """The plane coordinates (a, b) of a start point x; raises ValueError
    unless x is a finite nonzero point within 1e-9 max(1, |x|) of the plane."""
    x = check_point(x, section.n, "start point")
    a, b = section.to_plane(x)
    if np.linalg.norm(x - section.to_ambient(a, b)) > 1e-9 * max(1.0, np.linalg.norm(x)):
        raise ValueError("start point does not lie in the section plane")
    return a, b


class _LeafTable:
    """The states of one leaf table, (rows, k, 3 + n): each row's start and
    its arc-point states.  velocities, the leaf-line directions at all of
    them, are computed by one batched _points_and_velocities on first read
    and kept for every row."""

    def __init__(self, distr: RadialDistribution, states: np.ndarray):
        self.distr = distr
        self.states = states

    @cached_property
    def velocities(self) -> np.ndarray:
        rows, k, width = self.states.shape
        _, v = _points_and_velocities(self.distr, self.states.reshape(-1, width))
        return v.reshape(rows, k, self.distr.n)


@dataclass(frozen=True, eq=False)
class FirstReturnResult:
    """First crossing of the opposite ray, with the arc that led there.

    p_return, radius, winding and arc_length come from the stepped state at
    the return; the arc points between start and return, and their arc
    parameters, from the integrator's continuous extension.  arc_velocities
    are the oriented leaf-line field at the arc points: unit vectors along
    the leaf in the section plane, turned so that the angle around the
    origin increases (toward +theta at the pole).  They are computed on
    their first read, for every result of the result's table at once, so a
    result holds its distribution and its table's states.
    """

    p_return: np.ndarray
    radius: float
    winding: float
    arc_length: float
    arc_t: np.ndarray          # normalized arc parameter in [0, 1]
    arc_points: np.ndarray     # (k, n) ambient points from start to return
    _table: _LeafTable = field(repr=False)
    _row: int = field(repr=False)

    @property
    def arc_velocities(self) -> np.ndarray:
        """(k, n) unit leaf-line directions at the arc points."""
        return self._table.velocities[self._row]


def _first_returns(distr: RadialDistribution, thetas: np.ndarray,
                   start: np.ndarray) -> list:
    """Leaf lines from the plane point start = (a, b), a > 0, of the section
    of every row of thetas (valid section directions) to phi = pi, as one
    table of one segment per row, stepped under error control alone.  The
    arc points at the ends of RETURN_PIECES equal angle pieces come from the
    continuous extension of the steps (integrate_table's per_segment), the
    one at phi = pi is the stepped state; they are read off the section
    frame, with no leaf normal.  Returns one FirstReturnResult per row, or
    the FoliationError of the rows that fail; a line longer than
    200 max(1, |start|) does not return."""
    max_arc = 200.0 * max(1.0, float(np.linalg.norm(start)))
    rows = len(thetas)
    phi0 = float(np.arctan2(start[1], start[0]))
    x0s = np.zeros((rows, 3 + distr.n))
    x0s[:, 0], x0s[:, 1] = np.log(np.hypot(start[0], start[1])), phi0
    x0s[:, 3:] = thetas
    bounds, stop, _ = integrate_table(
        (_angle_rates(distr),), x0s, np.zeros((rows, 1), dtype=int),
        np.full((rows, 1), np.pi - phi0), ESCAPE_NORM, per_segment=RETURN_PIECES)
    states = np.concatenate([x0s[:, None, :], bounds], axis=1)
    with np.errstate(all="ignore"):  # rows that overflowed or failed give NaN
        points = _section_frame(states.reshape(-1, states.shape[2]))[1]
    points = points.reshape(rows, -1, distr.n)
    table = _LeafTable(distr, states)
    arcs = states[:, :, 2]
    out = []
    for k in range(rows):
        if not np.isfinite(states[k]).all():
            out.append(TransversalityError(
                "leaf normal turned radial or undefined along the arc"))
        elif stop[k] == 0 or arcs[k, -1] > max_arc:
            out.append(NoReturnError(
                f"no crossing of the opposite ray within arc length {max_arc}"))
        else:
            out.append(FirstReturnResult(
                p_return=points[k, -1], radius=float(np.exp(states[k, -1, 0])),
                winding=float(states[k, -1, 1] - phi0), arc_length=float(arcs[k, -1]),
                arc_t=arcs[k] / arcs[k, -1], arc_points=points[k],
                _table=table, _row=k))
    return out


def first_return(distr: RadialDistribution, section: PlanarSection,
                 start=None) -> FirstReturnResult:
    """Integrate the oriented leaf line from the pole (or start, a point of
    the plane on the pole's side) to the opposite ray.

    The line is integrated over its angle phi to phi = pi, where it meets
    the ray, in steps chosen by error control alone: the return point,
    radius, winding and arc length are the stepped state there.  Arc points
    at the ends of RETURN_PIECES equal angle pieces are read off the
    continuous extension of the steps that pass them; the leaf-line
    directions there (arc_velocities) are computed when first read.
    Raises TransversalityError where the leaf tangent turns radial, and
    NoReturnError when the line's row (log r, phi, arc length, theta) passes
    ESCAPE_NORM = 1e12 or its arc length exceeds 200 max(1, |start|).  That
    escape norm is not reach.BLOWUP_NORM = 1e6: it bounds a row that holds
    an arc length, which may legitimately pass 1e6 for a far start.
    """
    if start is None:
        u = np.array([1.0, 0.0])
    else:
        u = np.array(_plane_coords(section, start))
    if u[0] <= 0.0:
        raise ValueError("start point must lie on the positive pole ray side")
    result = _first_returns(distr, section.theta[None], u)[0]
    if isinstance(result, FoliationError):
        raise result
    return result


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
                           seed: int = 0) -> ConstancyReport:
    """Evaluate the return radius over sampled section directions.

    All sections run from the pole as one table.  The radii of a genuine
    homogeneous codimension-one leaf field transversal to rays must agree
    across directions; ``constant`` holds when the largest deviation from
    the mean is at most CONSTANCY_TOL times the mean.
    """
    if distr.n < 3:
        raise ValueError("constancy check requires n >= 3; the equatorial "
                         "sphere of directions is disconnected when n == 2")
    if theta_samples < 2:
        raise ValueError("theta_samples must be >= 2")
    thetas = _theta_samples(distr.n, theta_samples, seed)
    results = _first_returns(distr, thetas, np.array([1.0, 0.0]))
    failed = [k for k, res in enumerate(results) if isinstance(res, FoliationError)]
    if failed:
        raise SampleFailureError(
            f"first return failed at section indices {failed}: {results[failed[0]]}",
            failed)
    values = np.array([r.radius for r in results])
    mean = float(values.mean())
    max_dev = float(np.max(np.abs(values - mean)))
    return ConstancyReport(values=tuple(float(v) for v in values),
                           max_deviation=max_dev,
                           constant=max_dev <= CONSTANCY_TOL * mean,
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
               seed: int = 0) -> ArcFamily:
    """Build the family of arcs over sampled directions.

    Requires the return radius to be constant across directions (within
    CONSTANCY_TOL); all arcs then run from the pole to the common return
    point, and the union of their points stays in a bounded annulus.
    """
    report = first_return_constancy(distr, theta_samples=theta_samples, seed=seed)
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
