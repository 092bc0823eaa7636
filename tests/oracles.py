"""Independent brute-force oracles used to pin expected test values.

These deliberately avoid the library's numerical code paths: the closure
oracle works in exact rational arithmetic with Gaussian elimination, the
grid oracle scans the unit circle densely, the flow oracle multiplies plain
scipy matrix exponentials, and the tangent-rank oracle pushes the closure to
the sphere instead of appending the radial line.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg

from bilinctrl.model import project_sphere


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
