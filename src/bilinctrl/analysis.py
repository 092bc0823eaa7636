"""Rank conditions, non-controllability certificates, decision pipeline.

The pipeline is deliberately asymmetric: non-controllability is certified
(rank-drop witness or a one-signed norm derivative), while controllability
verdicts are always labelled empirical and rest on attainable-set coverage.
Rank drops live on thin algebraic sets that generic sampling misses, so the
search scans seeded sphere samples and then runs projected gradient descent
of the smallest relevant singular value from the lowest of them, all at
once, and reports "undetermined" rather than certifying a universal rank
condition.

Where the closure contains sl(n) (contains_sl) there is no drop to find, and
the search evaluates one point instead.  For a Frobenius-orthonormal basis
b_k of gl(n) the closure columns C(x) = [b_k x] satisfy C C^T = |x|^2 I, and
for one of sl(n) C C^T = |x|^2 I - x x^T / n.  On the unit sphere the n-th
singular value is then 1 for gl(n) and sqrt(1 - 1/n) for sl(n); with the
radial column x added it is 1 for both (sqrt(2) for gl(1)).  It is the same
at every point, so one evaluation gives what the search would find, up to
rounding, and the witness test on it gives the search's answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .matlie import DEFAULT_TOL, LieBasis, check_point, evaluate_at, \
    frobenius_normalize, lie_closure, numerical_rank
from .model import MatrixFamily, SystemSpec
from .reach import CoverageGrid, CoverageReport, _attainable_blocks, _bin_blocks

MONOTONE_TOL = 1e-12  # symmetric-part eigenvalues within this of 0, relative
# |trace| at or below this makes a unit-norm basis element traceless; fixed
# rather than the closure's tol, which may be as loose as 0.5
TRACE_ZERO = 1e-12


@dataclass(frozen=True, eq=False)
class LarcFailure:
    """Witness point where the evaluated algebra has deficient rank.

    sigma_min is the n-th singular value of the stacked evaluation matrix at
    the witness; soundness means sigma_min <= tol * sigma_max there.
    """

    witness: np.ndarray
    dim: int
    sigma_min: float
    sigma_max: float


@dataclass(frozen=True, eq=False)
class MonotoneNorm:
    """All symmetric parts share a semidefinite sign, so |x(t)| is monotone.

    d/dt |x|^2 = 2 <x, Mx> = 2 <x, sym(M) x>, hence a one-signed family keeps
    the norm monotone along every trajectory and attainable sets cannot be
    dense.  The eigenvalues of each symmetric part are recorded so the
    certificate can be re-verified from a report alone.
    """

    direction: str  # "nondecreasing" | "nonincreasing" | "constant"
    sym_eigenvalues: tuple


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of the decision pipeline plus always-on diagnostics."""

    conclusion: str  # "controllable" | "not_controllable" | "undetermined"
    certificate: LarcFailure | MonotoneNorm | None
    evidence: CoverageReport | None
    lie_dim: int | None
    orbit_dims: tuple
    angular: str  # "accessible" | "inaccessible" | "unknown"
    diagnostics: dict


@dataclass(frozen=True)
class AnalysisBudgets:
    """Sampling and tolerance settings for decide_controllability: the fields
    are the ones the ``analyze`` command sets from its flags.  The coverage
    evidence always starts at the first basis vector.

    The class constants are the pipeline's fixed values; they stay readable
    as attributes because stage-by-stage replays of the pipeline (the
    perfbench audit workload) read them.  closure_depth_cap None is
    lie_closure's default round cap, which a closure in gl(n) never reaches.
    """

    samples: int = 10000
    reach_budget: int = 100000
    coverage_threshold: float = 0.99
    tol: float = DEFAULT_TOL
    seed: int = 0
    angular_cells: int = 32
    radial_bins: int = 16
    projective: bool = False

    restarts: ClassVar[int] = 12
    profile_samples: ClassVar[int] = 100
    r_min: ClassVar[float] = 0.1
    r_max: ClassVar[float] = 10.0
    max_segments: ClassVar[int] = 20
    duration_scale: ClassVar[float] = 0.5
    closure_depth_cap: ClassVar[int | None] = None


@dataclass(frozen=True, eq=False)
class MinRankResult:
    min_sigma: float
    argmin: np.ndarray
    sigma_max: float
    is_witness: bool


@dataclass(frozen=True, eq=False)
class AngularReport:
    status: str  # "accessible" | "inaccessible"
    witness: np.ndarray | None
    min_sigma: float


def _closure(spec: SystemSpec, tol: float, basis: LieBasis | None) -> LieBasis:
    if not spec.is_bilinear:
        raise ValueError("this analysis requires a bilinear system")
    if basis is not None:
        return basis
    return lie_closure(spec.family.matrices, tol=tol)


def _unit_samples(n: int, count: int, seed: int) -> np.ndarray:
    if count < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng([seed, 5])
    pts = rng.standard_normal((count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def transversality_at(spec: SystemSpec, x, tol: float = DEFAULT_TOL,
                      basis: LieBasis | None = None) -> bool:
    """Does the evaluated closure plus the radial line span R^n at x, a
    finite nonzero point?"""
    x = check_point(x, spec.n)
    basis = _closure(spec, tol, basis)
    cols = np.column_stack([basis.stacked_at(x), x])
    return bool(numerical_rank(np.linalg.svd(cols, compute_uv=False), tol) == spec.n)


def contains_sl(basis: LieBasis) -> bool:
    """Does the closure contain sl(n)?  It does when it is all of gl(n)
    (dim n^2), or when dim is n^2 - 1 and every basis element is traceless:
    the span is then sl(n) itself.  Any other codimension-one subalgebra
    contains the identity (for n = 2 these are the conjugates of the upper
    triangular matrices; for n >= 3 there are none), so the squares of its
    basis traces sum to n."""
    full = basis.n * basis.n
    return basis.dim == full or (basis.dim == full - 1 and all(
        abs(np.trace(b)) <= TRACE_ZERO for b in basis.basis))


_PRESCAN = 512
_ANGULAR_RESTARTS = 8
_FIRST_STEP = 0.1
_MIN_STEP = 1e-13
_MAX_STEPS = 400


def _sigma_n(basis: LieBasis, pts: np.ndarray, radial: bool):
    """n-th and largest singular values of the columns M_k x at each row x of
    pts, and the gradient sum_k v_k M_k^T u of the n-th one, where u and v
    are its singular vectors.  The M_k are the basis elements, with radial
    also the identity (whose column is x itself); there are at least n."""
    n = pts.shape[1]
    cols, mats = basis.stacked_at(pts), np.reshape(basis.basis, (basis.dim, n, n))
    if radial:
        cols = np.concatenate([cols, pts[:, :, None]], axis=2)
        mats = np.concatenate([mats, np.eye(n)[None]])
    u, s, vh = np.linalg.svd(cols, full_matrices=False)
    grad = np.einsum("pi,pij->pj", u[:, :, n - 1],
                     np.einsum("pd,dij->pij", vh[:, n - 1, :], mats))
    return s[:, n - 1], s[:, 0], grad


def _min_sigma_search(basis: LieBasis, pts: np.ndarray, restarts: int,
                      radial: bool):
    """Minimize sigma_n of the columns M_k x (see _sigma_n) over the unit sphere.

    The rows of pts are scanned; projected gradient descent then moves the
    ``restarts`` lowest of them at once (none: scan only).  Each row takes
    normalized tangent steps of its own length, which doubles after a
    decrease and halves otherwise, until every step is below _MIN_STEP or
    _MAX_STEPS have passed.  Returns (min_sigma, argmin, sigma_max there).

    When the closure contains sl(n), sigma_n is the same at every unit point
    (see the module docstring), so only the first row is evaluated and no
    descent runs: the value is the one the search would find, up to
    rounding, and no witness it could find is lost.
    """
    if contains_sl(basis):
        pts, restarts = pts[:1], 0
    sn, smax, grad = _sigma_n(basis, pts, radial)
    keep = np.argsort(sn, kind="stable")[:max(restarts, 1)]
    x, f, fmax, g = pts[keep], sn[keep], smax[keep], grad[keep]
    step = np.full(len(keep), _FIRST_STEP if restarts > 0 else 0.0)
    for _ in range(_MAX_STEPS):
        step[step < _MIN_STEP] = 0.0
        if not step.any():
            break
        tangent = g - np.sum(g * x, axis=1, keepdims=True) * x
        norm = np.maximum(np.linalg.norm(tangent, axis=1, keepdims=True), 1e-300)
        y = x - step[:, None] * tangent / norm
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        fy, fmax_y, g_y = _sigma_n(basis, y, radial)
        better = fy < f
        x[better], f[better], fmax[better], g[better] = \
            y[better], fy[better], fmax_y[better], g_y[better]
        step = np.where(better, 2.0 * step, 0.5 * step)
    k = int(np.argmin(f))
    return float(f[k]), x[k], float(fmax[k])


def min_rank_search(spec: SystemSpec, restarts: int = 12, seed: int = 0,
                    tol: float = DEFAULT_TOL,
                    basis: LieBasis | None = None) -> MinRankResult:
    """Search the unit sphere for the smallest n-th singular value of the
    stacked closure evaluation; a relative near-zero flags a rank-drop witness.
    """
    basis = _closure(spec, tol, basis)
    n = spec.n
    if basis.dim < n:
        # Fewer directions than dimensions: rank < n everywhere.
        x = np.eye(n)[0]
        smax = np.max(np.linalg.svd(basis.stacked_at(x), compute_uv=False), initial=0.0)
        return MinRankResult(0.0, x, float(smax), True)
    sigma, argmin, smax = _min_sigma_search(
        basis, _unit_samples(n, _PRESCAN, seed), restarts, radial=False)
    return MinRankResult(sigma, argmin, smax,
                         is_witness=sigma <= tol * max(smax, 1e-300))


def monotone_norm_certificate(family: MatrixFamily) -> MonotoneNorm | None:
    """Certificate that |x(t)| is monotone along every trajectory, if any.

    The signs are decided on the symmetric part of each Frobenius-normalized
    generator, against MONOTONE_TOL, so they do not depend on its scale.  The
    raw eigenvalues are recorded, and no certificate is issued unless all of
    them are finite.
    """
    units = [frobenius_normalize(m)[0] for m in family.matrices]
    signs = np.concatenate([np.linalg.eigvalsh(u / 2.0 + u.T / 2.0) for u in units])
    if np.max(np.abs(signs)) <= MONOTONE_TOL:
        direction = "constant"
    elif signs.min() >= -MONOTONE_TOL:
        direction = "nondecreasing"
    elif signs.max() <= MONOTONE_TOL:
        direction = "nonincreasing"
    else:
        return None
    # m / 2 + m.T / 2 is (m + m.T) / 2 to the bit, without the overflow
    eigs = [np.linalg.eigvalsh(m / 2.0 + m.T / 2.0) for m in family.matrices]
    if not all(np.all(np.isfinite(e)) for e in eigs):
        return None
    return MonotoneNorm(direction, tuple(tuple(float(v) for v in e) for e in eigs))


def angular_accessibility(spec: SystemSpec, samples: int = 1000, seed: int = 0,
                          tol: float = DEFAULT_TOL,
                          basis: LieBasis | None = None) -> AngularReport:
    """Check whether closure directions plus the radial line span R^n
    everywhere: the same sphere search as min_rank_search, on the closure
    basis plus the identity (whose column is x itself), over ``samples``
    scan points.  A near-singular point is an inaccessibility witness.
    """
    basis = _closure(spec, tol, basis)
    n = spec.n
    pts = _unit_samples(n, samples, seed)
    if basis.dim + 1 < n:
        return AngularReport("inaccessible", pts[0], 0.0)
    sigma, argmin, smax = _min_sigma_search(basis, pts, _ANGULAR_RESTARTS, radial=True)
    if sigma <= tol * max(smax, 1e-300):
        return AngularReport("inaccessible", argmin, sigma)
    return AngularReport("accessible", None, sigma)


def orbit_dimension_profile(spec: SystemSpec, samples: int = 100, seed: int = 0,
                            tol: float = DEFAULT_TOL,
                            basis: LieBasis | None = None) -> tuple:
    """Evaluated closure dimensions at seeded random unit points."""
    basis = _closure(spec, tol, basis)
    s = np.linalg.svd(basis.stacked_at(_unit_samples(spec.n, samples, seed)),
                      compute_uv=False)
    return tuple(int(d) for d in numerical_rank(s, tol))


def _coverage_grid(spec: SystemSpec, budgets: AnalysisBudgets) -> CoverageGrid:
    return CoverageGrid(spec.n, angular_cells=budgets.angular_cells,
                        radial_bins=budgets.radial_bins, r_min=budgets.r_min,
                        r_max=budgets.r_max, antipodal=budgets.projective)


def _reach_evidence(spec: SystemSpec, budgets: AnalysisBudgets) -> CoverageReport:
    """Coverage of the cloud sample_attainable draws from e1, binned block
    by block as the sampler runs, so no whole cloud is held."""
    blocks = _attainable_blocks(
        spec, np.eye(spec.n)[0], budgets.reach_budget, budgets.seed,
        max_segments=budgets.max_segments, duration_scale=budgets.duration_scale)
    return _bin_blocks(blocks, _coverage_grid(spec, budgets))


def decide_controllability(spec: SystemSpec,
                           budgets: AnalysisBudgets | None = None) -> Verdict:
    """Run the full decision pipeline on a system.

    Bilinear systems go through Lie closure, rank-drop search, the monotone
    norm certificate, and finally attainable-set coverage.  Smooth systems
    skip the certificate stages and can only come out controllable
    (empirical) or undetermined.  The closure runs at lie_closure's default
    round cap of 2 n^2, which never binds: each bracketing round that does
    not end the loop admits a new direction of gl(n), so the loop stops
    within n^2 rounds and the closure always converges.  The verdict is
    undetermined exactly when the coverage stays below the threshold.  The
    coverage evidence is that of sample_attainable's cloud from e1, binned
    one block of schedule rows at a time as they are sampled: for a bilinear
    system the memory it takes does not grow with reach_budget (a smooth
    table runs whole).
    """
    if budgets is None:
        budgets = AnalysisBudgets()
    if not 0.0 < budgets.coverage_threshold <= 1.0:
        raise ValueError("coverage_threshold must lie in (0, 1]")
    diagnostics: dict = {}
    lie_dim: int | None = None
    orbit_dims: tuple = ()
    angular = "unknown"
    certificate = None

    if spec.is_bilinear:
        basis = lie_closure(spec.family.matrices, tol=budgets.tol)
        lie_dim = basis.dim
        diagnostics["closure_converged"] = basis.converged
        diagnostics["closure_depth"] = basis.depth
        orbit_dims = orbit_dimension_profile(
            spec, samples=budgets.profile_samples, seed=budgets.seed,
            tol=budgets.tol, basis=basis)
        ang = angular_accessibility(spec, samples=min(budgets.samples, 4096),
                                    seed=budgets.seed, tol=budgets.tol, basis=basis)
        angular = ang.status
        mr = min_rank_search(spec, restarts=budgets.restarts,
                             seed=budgets.seed, tol=budgets.tol, basis=basis)
        diagnostics["min_sigma"] = mr.min_sigma
        if mr.is_witness:
            dim = evaluate_at(basis, mr.argmin, tol=budgets.tol).dim
            certificate = LarcFailure(witness=mr.argmin, dim=dim,
                                      sigma_min=mr.min_sigma,
                                      sigma_max=mr.sigma_max)
            return Verdict("not_controllable", certificate, None, lie_dim,
                           orbit_dims, angular, diagnostics)
        certificate = monotone_norm_certificate(spec.family)
        if certificate is not None:
            return Verdict("not_controllable", certificate, None, lie_dim,
                           orbit_dims, angular, diagnostics)

    evidence = _reach_evidence(spec, budgets)
    diagnostics["coverage_fraction"] = evidence.fraction
    if evidence.fraction >= budgets.coverage_threshold:
        return Verdict("controllable", None, evidence, lie_dim, orbit_dims,
                       angular, diagnostics)
    diagnostics["reason"] = (
        f"coverage {evidence.fraction:.4f} below threshold "
        f"{budgets.coverage_threshold}")
    return Verdict("undetermined", None, evidence, lie_dim, orbit_dims,
                   angular, diagnostics)
