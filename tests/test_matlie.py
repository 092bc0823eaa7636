import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import bilinctrl
from bilinctrl.matlie import (
    bracket,
    evaluate_at,
    exponential_map,
    lie_closure,
    matrix_exponential,
)
from bilinctrl.model import builtin_corpus

E12 = [[0.0, 1.0], [0.0, 0.0]]
E21 = [[0.0, 0.0], [1.0, 0.0]]
J = [[0.0, -1.0], [1.0, 0.0]]


def test_bracket_elementary():
    np.testing.assert_allclose(bracket(E12, E21), [[1.0, 0.0], [0.0, -1.0]])


def test_bracket_self_is_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    assert np.all(bracket(a, a) == 0.0)


def test_bracket_diagonal_commute():
    np.testing.assert_array_equal(bracket(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])),
                                  np.zeros((2, 2)))


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket(np.eye(2), np.eye(3))


def test_bracket_antisymmetry_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(bracket(a, b), -bracket(b, a))


def test_jacobi_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b, c = rng.standard_normal((3, 4, 4))
        lhs = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) \
            + bracket(c, bracket(a, b))
        scale = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
        assert np.linalg.norm(lhs) <= 1e-10 * scale


def test_closure_single_rotation_is_abelian():
    assert lie_closure([J]).dim == 1


def test_closure_elementary_pair_generates_traceless():
    basis = lie_closure([E12, E21])
    assert basis.dim == 3
    assert basis.converged
    assert basis.depth == 1


def test_closure_two_rotations_close_to_three():
    so3 = builtin_corpus("so3")
    basis = lie_closure(so3.family.matrices[:2])
    assert basis.dim == 3


def test_closure_basis_is_orthonormal_and_closed():
    basis = lie_closure([E12, E21], tol=1e-9)
    flat = np.array([b.reshape(-1) for b in basis.basis])
    np.testing.assert_allclose(flat @ flat.T, np.eye(basis.dim), atol=1e-12)
    # closure invariant: brackets of basis pairs stay in the span
    for i in range(basis.dim):
        for j in range(basis.dim):
            c = bracket(basis.basis[i], basis.basis[j]).reshape(-1)
            resid = c - flat.T @ (flat @ c)
            assert np.linalg.norm(resid) <= 10 * basis.tol * max(np.linalg.norm(c), 1.0)


def test_closure_conjugation_invariance():
    rng = np.random.default_rng(3)
    gens = [np.asarray(E12), np.asarray(E21)]
    for _ in range(5):
        g = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        ginv = np.linalg.inv(g)
        conj = [g @ m @ ginv for m in gens]
        assert lie_closure(conj).dim == lie_closure(gens).dim


def test_closure_empty_generators():
    with pytest.raises(ValueError):
        lie_closure([])


@pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, 2.0, np.nan, np.inf])
def test_closure_rejects_tol_outside_unit_interval(tol):
    with pytest.raises(ValueError, match="tol"):
        lie_closure([E12, E21], tol=tol)


def test_closure_depth_cap_flags_nonconvergence():
    basis = lie_closure([E12, E21], depth_cap=0)
    assert not basis.converged
    assert basis.dim == 2


def _closure_families():
    rng = np.random.default_rng(12)
    for n in range(1, 6):
        for m in (1, 2, 3):
            for sparse in (False, True):
                mats = rng.standard_normal((m, n, n))
                if sparse:
                    mats[rng.random(mats.shape) < 0.5] = 0.0
                yield mats
    yield [E12, E21]
    for name in ("so3", "planar_jd", "identity_only"):
        yield builtin_corpus(name).family.matrices
    yield [[[0.0]]]


def test_closure_converges_below_n_squared_rounds_at_default_cap():
    # each round that does not end the bracketing admits a direction of
    # gl(n), so the default cap of 2 n^2 rounds never binds
    for mats in _closure_families():
        basis = lie_closure(mats)
        n = np.shape(mats[0])[0]
        assert basis.converged
        assert basis.depth < n * n


def test_evaluate_so3_at_pole():
    so3 = builtin_corpus("so3")
    basis = lie_closure(so3.family.matrices)
    assert evaluate_at(basis, [0.0, 0.0, 1.0]).dim == 2


def test_evaluate_identity_span():
    basis = lie_closure([np.eye(2)])
    assert evaluate_at(basis, [0.3, -0.7]).dim == 1


def test_evaluate_traceless_at_first_axis():
    basis = lie_closure([E12, E21])
    assert evaluate_at(basis, [1.0, 0.0]).dim == 2


def test_evaluate_rejects_zero():
    basis = lie_closure([J])
    with pytest.raises(ValueError):
        evaluate_at(basis, [0.0, 0.0])


def test_evaluate_dim_is_scale_invariant():
    so3 = builtin_corpus("so3")
    basis = lie_closure(so3.family.matrices)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.standard_normal(3)
        lam = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        assert evaluate_at(basis, x).dim == evaluate_at(basis, lam * x).dim


def test_expm_zero_is_identity():
    np.testing.assert_array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_expm_quarter_rotation():
    out = matrix_exponential(J, np.pi / 2)
    np.testing.assert_allclose(out, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_expm_diagonal():
    out = matrix_exponential(np.diag([1.0, -1.0]), np.log(2.0))
    np.testing.assert_allclose(out, np.diag([2.0, 0.5]), rtol=1e-14)


def test_expm_accuracy_at_contract_boundary():
    # rotation of angle 100: ||tA|| = 100, closed form available
    out = matrix_exponential(J, 100.0)
    expect = np.array([[np.cos(100.0), -np.sin(100.0)],
                       [np.sin(100.0), np.cos(100.0)]])
    assert np.linalg.norm(out - expect) <= 1e-12 * np.linalg.norm(expect)
    # stiff diagonal: entries e^100 and e^-100
    out = matrix_exponential(np.diag([1.0, -1.0]), 100.0)
    expect = np.diag([np.exp(100.0), np.exp(-100.0)])
    assert abs(out[0, 0] - expect[0, 0]) <= 1e-12 * expect[0, 0]
    assert abs(out[1, 1] - expect[1, 1]) <= 1e-12 * expect[1, 1]


def test_expm_group_law():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((3, 3))
        s, t = rng.uniform(-2.0, 2.0, size=2)
        lhs = matrix_exponential(a, s + t)
        rhs = matrix_exponential(a, s) @ matrix_exponential(a, t)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_expm_overflow_reported():
    with pytest.raises(OverflowError):
        matrix_exponential(np.diag([1000.0, 0.0]), 1.0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, -3.0, 2.0])
def test_exponential_map_jordan_block_closed_form(n, lam):
    # exp(t (lam I + N)) = e^(lam t) sum_k (t N)^k / k! for the shift N
    shift = np.eye(n, k=1)
    ts = np.array([-7.0, -1.5, 0.0, 0.25, 3.0, 12.0])
    out = exponential_map(lam * np.eye(n) + shift)(ts)
    for t, got in zip(ts, out):
        expect = np.exp(lam * t) * sum(
            np.linalg.matrix_power(t * shift, k) / math.factorial(k) for k in range(n))
        assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)


def test_exponential_map_zero_time_is_exact_identity_in_batch():
    a = np.random.default_rng(6).standard_normal((4, 4))
    out = exponential_map(a)(np.array([3.0, 0.0, -0.5, -0.0, 40.0]))
    np.testing.assert_array_equal(out[1], np.eye(4))
    np.testing.assert_array_equal(out[3], np.eye(4))
    # |a|_1 overflows to inf, and still exp(0 a) = I
    np.testing.assert_array_equal(matrix_exponential(np.full((2, 2), 1e308), 0.0), np.eye(2))


def test_exponential_map_matches_scipy_on_random_matrices():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n)) * rng.uniform(0.1, 4.0)
        # |t| |a|_1 up to 10, through the unscaled range and a few squarings
        ts = rng.uniform(-10.0, 10.0, size=6) / np.abs(a).sum(axis=0).max()
        for t, got in zip(ts, exponential_map(a)(ts)):
            expect = scipy.linalg.expm(t * a)
            assert np.linalg.norm(got - expect) <= 1e-11 * np.linalg.norm(expect)


def test_exponential_map_nonfinite_slice_leaves_the_others():
    # |t| |a|_1 = 1e310 is not finite: that slice is, the batch goes on
    a = np.array([[0.0, 1e10], [0.0, 0.0]])
    ts = np.array([2.0, 1e300, -3.0e-5, 0.0])
    out = exponential_map(a)(ts)
    assert not np.isfinite(out[1]).any()
    for i in (0, 2, 3):
        np.testing.assert_array_equal(out[i], exponential_map(a)(ts[i:i + 1])[0])
    np.testing.assert_array_equal(out[0], [[1.0, 2e10], [0.0, 1.0]])


def test_expm_nonfinite_scale_reported():
    with pytest.raises(OverflowError):
        matrix_exponential([[0.0, 1e10], [0.0, 0.0]], 1e300)


def test_library_imports_without_scipy():
    # scipy is a test dependency only: importing the package must not load it
    code = ("import sys, bilinctrl, bilinctrl.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    src = str(Path(bilinctrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
