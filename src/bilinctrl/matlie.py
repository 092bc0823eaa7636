"""Matrix Lie-algebra computations: brackets, closures, pointwise evaluation,
and the library's one matrix exponential, batched over time slices.

Square real matrices are treated as vectors in R^(n*n) under the Frobenius
inner product.  Spans are decided numerically with a relative cutoff: on
residuals taken largest first in the closure, on singular values at a point;
the default tolerance is deliberately loose compared to machine epsilon so
that closures of well-scaled integer generators are exact in practice.  The
exponential is built once per matrix and applied to many time slices; reach
builds the flow of each defective generator on it, once per schedule runner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


def _as_square(a, name="matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def check_point(x, n: int, name: str = "x") -> np.ndarray:
    """x as a float vector; raises ValueError unless it is a finite nonzero
    vector of length n, the points every evaluation and flow starts from."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{name} must be a vector of length {n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)) or not np.any(x):
        raise ValueError(f"{name} must be finite and nonzero")
    return x


def frobenius_normalize(a) -> tuple[np.ndarray, float]:
    """(a / |a|_F, |a|_F), dividing by the largest |entry| first so that
    neither overflows needlessly; a zero matrix is returned as is."""
    a = np.asarray(a, dtype=float)
    peak = float(np.max(np.abs(a), initial=0.0))
    if peak == 0.0:
        return a, 0.0
    a = a / peak
    rel = float(np.linalg.norm(a))
    return a / rel, peak * rel


def bracket(a, b) -> np.ndarray:
    """Commutator [a, b] = ab - ba of two square matrices."""
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


@dataclass(frozen=True, eq=False)
class LieBasis:
    """Frobenius-orthonormal basis of a bracket-closed matrix subspace.

    ``depth`` counts the breadth-first bracketing rounds that produced new
    directions (generators are depth 0).  ``converged`` is False when the
    round cap was hit before the closure stabilized; the basis is still
    returned but the closure invariant is unverified.
    """

    n: int
    basis: tuple
    dim: int
    tol: float
    depth: int
    converged: bool

    def stacked_at(self, x) -> np.ndarray:
        """Columns b @ x for each basis element b: an n x dim matrix at a
        point x, and a stack (..., n, dim) at a stack of points (..., n)."""
        mats = np.reshape(self.basis, (self.dim, self.n, self.n))
        return np.einsum("kij,...j->...ik", mats, np.asarray(x, dtype=float))


def numerical_rank(s, tol: float):
    """Rank rule for singular values s in descending order along the last
    axis: how many exceed tol times the largest (0 for none or all zero)."""
    return np.sum(s > tol * s[..., :1], axis=-1)


@dataclass(frozen=True, eq=False)
class SubspaceReport:
    """Evaluation of a matrix subspace at a point: spanned vectors and rank."""

    vectors: np.ndarray
    dim: int
    singular_values: np.ndarray


def lie_closure(generators, tol: float = DEFAULT_TOL, depth_cap: int | None = None) -> LieBasis:
    """Orthonormal basis of the smallest bracket-closed span of the generators.

    Generators are scaled to unit Frobenius norm, so the admission test does
    not depend on their relative scale.  Breadth-first rounds: each round
    brackets the whole basis with the directions the previous round
    admitted, in one batched product, and projects the current span out of
    all those brackets at once.  Directions are then admitted largest
    residual first (column-pivoted Gram-Schmidt, the rank-revealing order),
    each admission a rank-one update of the remaining candidates, while the
    largest residual exceeds ``tol`` times the largest candidate norm seen;
    ``tol`` must lie in (0, 1).  The basis is ordered by round, then largest
    residual first, so results are reproducible.  ``depth_cap`` bounds the
    number of bracketing rounds (default 2*n*n).
    """
    gens = list(generators)
    if not gens:
        raise ValueError("empty generator list")
    mats = [_as_square(g, f"generators[{i}]") for i, g in enumerate(gens)]
    n = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != n:
            raise ValueError(f"generators[{i}] has dimension {m.shape[0]}, expected {n}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if depth_cap is None:
        depth_cap = 2 * n * n

    basis = np.empty((0, n * n))
    cands = np.array([frobenius_normalize(m)[0].reshape(-1) for m in mats])
    scale = 0.0
    depth = rounds = 0
    while True:
        scale = max(scale, float(np.linalg.norm(cands, axis=1).max(initial=0.0)))
        # two projections remove the span to machine precision
        for _ in range(2):
            cands = cands - (cands @ basis.T) @ basis
        start = len(basis)
        res = np.linalg.norm(cands, axis=1)
        while len(basis) < n * n and res.max(initial=0.0) > tol * scale:
            v = cands[np.argmax(res)]
            # a small residual has lost orthogonality in rounding: project again
            v = v - (basis @ v) @ basis
            v = v / np.linalg.norm(v)
            basis = np.vstack([basis, v])
            cands = cands - np.outer(cands @ v, v)
            res = np.linalg.norm(cands, axis=1)
        if len(basis) > start:
            depth = rounds
        if len(basis) in (start, n * n) or rounds == depth_cap:
            break
        # [b_i, b_j] for each b_j the round admitted and each earlier b_i
        sq = basis.reshape(-1, n, n)
        new = sq[start:, None]
        earlier = np.arange(len(sq)) < np.arange(start, len(sq))[:, None]
        cands = (sq @ new - new @ sq)[earlier].reshape(-1, n * n)
        rounds += 1

    converged = len(basis) in (start, n * n)
    basis = basis.reshape(-1, n, n)
    basis.setflags(write=False)
    return LieBasis(n=n, basis=tuple(basis), dim=len(basis), tol=tol, depth=depth,
                    converged=converged)


def evaluate_at(basis: LieBasis, x, tol: float | None = None) -> SubspaceReport:
    """Evaluate the subspace at a nonzero point x: span{b @ x} and its rank.

    The rank follows numerical_rank; ``tol`` defaults to the tolerance the
    basis was built with.
    """
    x = check_point(x, basis.n)
    if tol is None:
        tol = basis.tol
    cols = basis.stacked_at(x)
    s = np.linalg.svd(cols, compute_uv=False)
    return SubspaceReport(cols, int(numerical_rank(s, tol)), s)


# Degree-13 Padé coefficients of exp and the 1-norm up to which they need no
# scaling (Higham, "The scaling and squaring method for the matrix
# exponential revisited", SIAM J. Matrix Anal. Appl. 2005), divided by the
# constant term so that a zero argument gives exactly the identity.
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1], dtype=float) / 64764752532480000
_THETA13 = 5.371920351148152


def exponential_map(a):
    """The map ts -> stack of exp(ts[r] * a) for a 1-D array ts.

    Scaling and squaring with the degree-13 Padé approximant, batched over
    the slices: the powers I, â, ..., â^13 of â = a / |a|_1 are formed here
    once; each slice gets its own scale 2^s with |ts[r]| |a|_1 / 2^s at most
    θ13, its approximant from one combination of that power table, one
    batched solve, and s squarings.  A slice that overflows, or whose
    |ts[r]| |a|_1 is not finite, comes out non-finite; the others are
    unaffected, and nothing warns or raises.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    with np.errstate(over="ignore"):  # an inf norm leaves only t = 0 finite
        norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    unit = a / norm if norm else a
    powers = [np.eye(n)]
    for _ in range(13):
        powers.append(powers[-1] @ unit)
    powers = np.reshape(powers, (14, n * n))

    def expm(ts):
        ts = np.asarray(ts, dtype=float)
        with np.errstate(all="ignore"):
            tn = np.where(ts == 0.0, 0.0, np.abs(ts) * norm)
            s = np.maximum(0.0, np.ceil(np.log2(tn / _THETA13)))
            bad = ~np.isfinite(s)
            s[bad] = 0.0
            s = s.astype(int)
            z = np.where(bad, 0.0, np.ldexp(np.copysign(tn, ts), -s))
            c = z[:, None] ** np.arange(14) * _PADE13
            u = (c[:, 1::2] @ powers[1::2]).reshape(-1, n, n)
            v = (c[:, 0::2] @ powers[0::2]).reshape(-1, n, n)
            out = np.linalg.solve(v - u, v + u)
            for i in range(s.max(initial=0)):
                sq = np.flatnonzero(s > i)
                part = out[sq]
                out[sq] = part @ part
            out[bad] = np.nan
        return out
    return expm


def matrix_exponential(a, t: float = 1.0) -> np.ndarray:
    """exp(t * a) as a one-slice exponential_map.

    Raises OverflowError when the result has non-finite entries.
    """
    a = _as_square(a, "a")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    out = exponential_map(a)(np.array([t]))[0]
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed to non-finite entries")
    return out
