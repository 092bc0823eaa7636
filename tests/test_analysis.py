import tracemalloc

import numpy as np
import pytest

from bilinctrl import analysis
from bilinctrl.analysis import (
    AnalysisBudgets,
    LarcFailure,
    MonotoneNorm,
    angular_accessibility,
    decide_controllability,
    min_rank_search,
    monotone_norm_certificate,
    orbit_dimension_profile,
    transversality_at,
)
from bilinctrl.matlie import evaluate_at, lie_closure
from bilinctrl.model import ControlSchedule, bilinear_system, builtin_corpus, random_system
from bilinctrl.reach import simulate

from oracles import (
    circle_min_sigma,
    projected_tangent_rank,
    sphere_min_sigma,
    split_segments,
)

SO3 = builtin_corpus("so3")
PJ = builtin_corpus("planar_jd")
EP = builtin_corpus("expanding_pair")
IO = builtin_corpus("identity_only")


def test_larc_examples():
    # the rank condition holds at x when the evaluated closure has dim n there
    assert evaluate_at(lie_closure(SO3.family.matrices), [0.0, 0.0, 1.0]).dim == 2
    assert evaluate_at(lie_closure(PJ.family.matrices), [1.0, 0.0]).dim == 2
    assert evaluate_at(lie_closure(IO.family.matrices), [0.4, -0.8]).dim == 1


def test_transversality_examples():
    assert transversality_at(SO3, [1.0, 0.0, 0.0])
    assert not transversality_at(IO, [1.0, 1.0])
    assert transversality_at(PJ, [0.0, 1.0])


@pytest.mark.parametrize("x", [[np.nan, 0.0], [np.inf, 0.0], [0.0, 0.0], [1.0, 0.0, 0.0]],
                         ids=["nan", "inf", "zero", "length"])
def test_transversality_refuses_bad_points(x):
    # NaN and inf used to reach the SVD, which raised LinAlgError
    with pytest.raises(ValueError, match="x must be"):
        transversality_at(PJ, x)


def test_transversality_agrees_with_projected_rank():
    rng = np.random.default_rng(0)
    for k in range(6):
        spec = random_system(3, 2, 100 + k)
        basis = lie_closure(spec.family.matrices)
        for _ in range(25):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            direct = transversality_at(spec, x, basis=basis)
            via_sphere = projected_tangent_rank(basis, x) == 2
            assert direct == via_sphere


def test_min_rank_so3_vanishes_everywhere():
    for seed in (0, 1, 2):
        res = min_rank_search(SO3, restarts=2, seed=seed)
        assert res.min_sigma <= 1e-9
        assert res.is_witness


def test_min_rank_planar_jd_bounded_below():
    res = min_rank_search(PJ, restarts=4, seed=0)
    assert res.min_sigma > 0.1
    assert not res.is_witness
    basis = lie_closure(PJ.family.matrices)
    oracle = circle_min_sigma(basis.basis, 2)
    assert res.min_sigma == pytest.approx(oracle, rel=1e-6)


def test_sphere_search_matches_circle_oracle_where_sigma_varies():
    # span{I, [[0, -4], [1, 0]]}: sigma_2 ranges over 0.44 above its
    # minimum of 0.2425 on the circle, so the oracle pins the descent
    spec = bilinear_system([np.eye(2), [[0.0, -4.0], [1.0, 0.0]]])
    basis = lie_closure(spec.family.matrices)
    oracle = circle_min_sigma(basis.basis, 2)
    assert oracle == pytest.approx(0.2425, abs=1e-4)
    for seed in (0, 1, 2):
        res = min_rank_search(spec, restarts=4, seed=seed, basis=basis)
        assert not res.is_witness
        assert res.min_sigma == pytest.approx(oracle, rel=1e-6)
        assert res.min_sigma <= oracle * (1 + 1e-12)
    ang = angular_accessibility(spec, samples=400, seed=0, basis=basis)
    assert ang.status == "accessible"
    assert ang.min_sigma == pytest.approx(
        circle_min_sigma(basis.basis + (np.eye(2),), 2), rel=1e-6)


# Rank drops on thin sets: {diag(1, -1), E12} only on the line x2 = 0,
# {diag(1, 1, 0), L_z, diag(0, 0, 1)} on the plane x3 = 0, and the upper
# triangular {E11, E22, E12} on x2 = 0 too: its dim is 3 = n^2 - 1, but it
# is not sl(2), so a test on the dimension alone must not skip its search.
THIN = (
    [np.diag([1.0, -1.0]), [[0.0, 1.0], [0.0, 0.0]]],
    [np.diag([1.0, 1.0, 0.0]), [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
     np.diag([0.0, 0.0, 1.0])],
    [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), [[0.0, 1.0], [0.0, 0.0]]],
)


def test_min_rank_descent_finds_thin_rank_drops():
    for mats in THIN:
        spec = bilinear_system(mats)
        basis = lie_closure(spec.family.matrices)
        for seed in (0, 1, 2):
            # the scan alone stays clear of the drop set
            assert not min_rank_search(spec, restarts=0, seed=seed,
                                       basis=basis).is_witness
            res = min_rank_search(spec, seed=seed, basis=basis)
            assert res.is_witness
            assert np.linalg.norm(res.argmin) == pytest.approx(1.0)
            cols = np.column_stack([b @ res.argmin for b in basis.basis])
            s = np.linalg.svd(cols, compute_uv=False)
            assert s[spec.n - 1] <= 1e-9 * s[0]
        assert not analysis.contains_sl(basis)
        verdict = decide_controllability(spec, AnalysisBudgets(samples=500))
        assert verdict.conclusion == "not_controllable"
        assert isinstance(verdict.certificate, LarcFailure)
    thin2 = bilinear_system(THIN[0])
    assert angular_accessibility(thin2, samples=400, seed=0).status == "inaccessible"


def _count_sigma_calls(monkeypatch):
    calls = []
    sigma_n = analysis._sigma_n

    def counted(basis, pts, radial):
        calls.append(len(pts))
        return sigma_n(basis, pts, radial)

    monkeypatch.setattr(analysis, "_sigma_n", counted)
    return calls


def _traceless_pair(seed, p):
    """A random traceless 3 x 3 pair, conjugated by p."""
    a = np.random.default_rng(seed).standard_normal((2, 3, 3))
    a -= np.trace(a, axis1=1, axis2=2)[:, None, None] * np.eye(3) / 3
    return [p @ m @ np.linalg.inv(p) for m in a]


def test_closures_containing_sl_take_one_evaluation(monkeypatch):
    # On the unit sphere sigma_n of an orthonormal closure basis is 1 for
    # gl(n) and sqrt(1 - 1/n) for sl(n); with the radial column it is 1
    # (sqrt(2) for gl(1)).  Each stage evaluates one point and gets it.  The
    # diagonal P of condition 1e3 keeps this pair's closure traces below
    # 1e-12; it does so for about half of random pairs, and a dense P of
    # that condition for none (see test_contains_sl_threshold_is_fixed).
    calls = _count_sigma_calls(monkeypatch)
    cases = [(random_system(n, 2, 300 + n).family.matrices, 1.0) for n in range(1, 6)]
    cases.append((PJ.family.matrices, np.sqrt(0.5)))
    cases.append((_traceless_pair(0, np.diag([1.0, 10**1.5, 1e3])), np.sqrt(2 / 3)))
    for mats, rank_sigma in cases:
        spec = bilinear_system(list(mats))
        basis = lie_closure(spec.family.matrices)
        assert analysis.contains_sl(basis)
        calls.clear()
        mr = min_rank_search(spec, seed=1, basis=basis)
        assert calls == [1]
        assert abs(mr.min_sigma - rank_sigma) <= 1e-12 and not mr.is_witness
        calls.clear()
        ang = angular_accessibility(spec, samples=1000, seed=1, basis=basis)
        assert calls == [1]
        radial_sigma = np.sqrt(2.0) if spec.n == 1 else 1.0
        assert abs(ang.min_sigma - radial_sigma) <= 1e-12
        assert ang.status == "accessible"


@pytest.mark.parametrize("n", [3, 5])
def test_sl_closure_sigma_is_constant_on_the_sphere(n):
    # the one evaluated point agrees with a dense lattice scan of the sphere
    gl = lie_closure(random_system(n, 2, 7).family.matrices)
    sl = lie_closure([m - np.trace(m) / n * np.eye(n)
                      for m in random_system(n, 2, 8).family.matrices])
    assert gl.dim == n * n and sl.dim == n * n - 1
    for basis in (gl, sl):
        spec = bilinear_system(list(basis.basis))
        mr = min_rank_search(spec, seed=2, basis=basis)
        assert abs(mr.min_sigma - sphere_min_sigma(basis.basis, n)) <= 1e-12
        ang = angular_accessibility(spec, samples=500, seed=2, basis=basis)
        assert abs(ang.min_sigma - sphere_min_sigma(basis.basis, n, radial=True)) <= 1e-12


def test_contains_sl_threshold_is_fixed(monkeypatch):
    # At tol 0.5 the closure of {diag(1, -1), E12, E21 + I / 4} stops at
    # dim 3 with basis traces 0, 0 and 0.471: a threshold of tol would take
    # it for sl(2), whose sigma_2 is 0.707, while its own dips to 0.5205
    calls = _count_sigma_calls(monkeypatch)
    spec = bilinear_system([np.diag([1.0, -1.0]), [[0.0, 1.0], [0.0, 0.0]],
                            [[0.25, 0.0], [1.0, 0.25]]])
    basis = lie_closure(spec.family.matrices, tol=0.5)
    assert basis.dim == 3 and not analysis.contains_sl(basis)
    mr = min_rank_search(spec, seed=0, tol=0.5, basis=basis)
    assert len(calls) > 1
    assert mr.min_sigma == pytest.approx(circle_min_sigma(basis.basis, 2), rel=1e-6)
    # Conjugating by a dense P of condition 1e3 leaves the closure's traces
    # near 1e-10, above the threshold: the search then runs in full and
    # still lands on the sl(3) value
    calls.clear()
    rng = np.random.default_rng(4)
    q1, q2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    mats = _traceless_pair(1, q1 @ np.diag([1.0, 10**1.5, 1e3]) @ q2)
    spec = bilinear_system(mats)
    basis = lie_closure(spec.family.matrices)
    assert basis.dim == 8 and not analysis.contains_sl(basis)
    mr = min_rank_search(spec, seed=0, basis=basis)
    assert len(calls) > 1 and not mr.is_witness
    assert mr.min_sigma == pytest.approx(np.sqrt(2 / 3), abs=1e-8)


def test_min_rank_identity_only():
    res = min_rank_search(IO, restarts=2, seed=0)
    assert res.min_sigma == 0.0 and res.is_witness


def test_monotone_certificates():
    cert = monotone_norm_certificate(EP.family)
    assert cert.direction == "nondecreasing"
    eigs = np.sort(np.concatenate([np.array(e) for e in cert.sym_eigenvalues]))
    np.testing.assert_allclose(eigs, [0.0, 1.0, 1.0, 2.0], atol=1e-12)
    assert monotone_norm_certificate(SO3.family).direction == "constant"
    assert monotone_norm_certificate(PJ.family) is None
    contracting = builtin_corpus("expanding_pair")
    flipped = type(contracting.family)(tuple(-m for m in contracting.family.matrices))
    assert monotone_norm_certificate(flipped).direction == "nonincreasing"


def test_angular_accessibility_examples():
    assert angular_accessibility(SO3, samples=400, seed=0).status == "accessible"
    rep = angular_accessibility(IO, samples=400, seed=0)
    assert rep.status == "inaccessible" and rep.witness is not None
    assert angular_accessibility(PJ, samples=400, seed=0).status == "accessible"


def test_angular_accessibility_too_few_directions():
    # a closure of dimension d with d + 1 < n cannot span R^n with the ray
    spec = bilinear_system([np.diag([1.0, 2.0, 3.0])])
    rep = angular_accessibility(spec, samples=50, seed=0)
    assert rep.status == "inaccessible" and rep.min_sigma == 0.0
    assert rep.witness is not None and rep.witness.shape == (3,)


@pytest.mark.parametrize("stage", [angular_accessibility, orbit_dimension_profile])
def test_sphere_scans_refuse_no_samples(stage):
    with pytest.raises(ValueError, match="samples"):
        stage(PJ, samples=0)


@pytest.mark.parametrize("stage", [
    lambda spec, basis: transversality_at(spec, [1.0, 0.0], basis=basis),
    lambda spec, basis: min_rank_search(spec, basis=basis),
    lambda spec, basis: angular_accessibility(spec, samples=10, basis=basis),
    lambda spec, basis: orbit_dimension_profile(spec, samples=10, basis=basis),
], ids=["transversality_at", "min_rank_search", "angular_accessibility",
        "orbit_dimension_profile"])
@pytest.mark.parametrize("given_basis", [False, True])
def test_rank_stages_refuse_smooth_systems(stage, given_basis):
    basis = lie_closure(PJ.family.matrices) if given_basis else None
    with pytest.raises(ValueError, match="bilinear"):
        stage(builtin_corpus("example1"), basis)


def test_orbit_dimension_profiles():
    assert set(orbit_dimension_profile(SO3, 100, 0)) == {2}
    assert set(orbit_dimension_profile(PJ, 100, 0)) == {2}
    assert set(orbit_dimension_profile(IO, 100, 0)) == {1}


def test_decide_so3_rank_drop():
    v = decide_controllability(SO3, AnalysisBudgets(samples=1000))
    assert v.conclusion == "not_controllable"
    assert isinstance(v.certificate, LarcFailure)
    assert v.certificate.dim == 2
    assert v.lie_dim == 3
    assert v.angular == "accessible"
    # soundness: recheck the witness independently
    basis = lie_closure(SO3.family.matrices)
    cols = np.column_stack([b @ v.certificate.witness for b in basis.basis])
    s = np.linalg.svd(cols, compute_uv=False)
    assert s[2] <= 1e-9 * s[0]


def test_decide_expanding_pair_monotone():
    v = decide_controllability(EP, AnalysisBudgets(samples=1000))
    assert v.conclusion == "not_controllable"
    assert isinstance(v.certificate, MonotoneNorm)
    assert v.certificate.direction == "nondecreasing"
    # rank condition holds everywhere, so the geometric certificate is absent
    assert v.lie_dim == 4
    assert v.diagnostics["min_sigma"] > 1e-3


def test_monotone_norm_soundness_on_trajectories():
    rng = np.random.default_rng(1)
    for _ in range(20):
        segs = tuple((int(rng.integers(0, 2)), float(rng.uniform(0, 2)))
                     for _ in range(6))
        traj = simulate(EP, ControlSchedule(split_segments(segs, 0.2)), [1.0, 0.0])
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.all(np.diff(norms) >= -1e-9 * norms[:-1])


def test_decide_planar_jd_controllable():
    v = decide_controllability(PJ, AnalysisBudgets(reach_budget=60000))
    assert v.conclusion == "controllable"
    assert v.certificate is None
    assert v.evidence.fraction >= 0.99
    assert set(v.orbit_dims) == {2}


def test_decide_smooth_bypasses_certificates():
    ex1 = builtin_corpus("example1")
    v = decide_controllability(ex1, AnalysisBudgets(reach_budget=5000))
    assert v.conclusion in ("controllable", "undetermined")
    assert v.certificate is None
    assert v.lie_dim is None
    assert v.angular == "unknown"


def test_decide_scale_invariance():
    for name in ("so3", "expanding_pair", "identity_only"):
        spec = builtin_corpus(name)
        base = decide_controllability(spec, AnalysisBudgets(samples=500,
                                                            reach_budget=2000))
        for lam in (0.5, 2.0):
            scaled_family = type(spec.family)(
                tuple(lam * m for m in spec.family.matrices))
            scaled = type(spec)(n=spec.n, name=spec.name, family=scaled_family)
            v = decide_controllability(scaled, AnalysisBudgets(samples=500,
                                                               reach_budget=2000))
            assert v.conclusion == base.conclusion


def test_decide_badly_scaled_generators_never_certified():
    # sl(2) from {[[s, 1], [0, -s]], J} has rank 2 everywhere whatever s is,
    # and {I + J, eps (-I + J)} spirals both out and in
    budgets = AnalysisBudgets(samples=300, reach_budget=500)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    for s in (1.0, 1e9, 1e200):
        spec = bilinear_system([[[s, 1.0], [0.0, -s]], J])
        v = decide_controllability(spec, budgets)
        assert v.lie_dim == 3, s
        assert v.conclusion != "not_controllable", s
    spiral = bilinear_system([np.eye(2) + J, 1e-13 * (J - np.eye(2))])
    assert monotone_norm_certificate(spiral.family) is None
    assert decide_controllability(spiral, budgets).conclusion != "not_controllable"


def test_decide_scalar_systems():
    grow = bilinear_system([np.array([[1.0]])], name="grow")
    v = decide_controllability(grow, AnalysisBudgets(samples=100, reach_budget=500))
    assert v.conclusion == "not_controllable"
    assert isinstance(v.certificate, MonotoneNorm)
    zero = bilinear_system([np.array([[0.0]])], name="still")
    v = decide_controllability(zero, AnalysisBudgets(samples=100, reach_budget=500))
    assert v.conclusion == "not_controllable"
    assert isinstance(v.certificate, LarcFailure)
    assert v.lie_dim == 0


def test_decide_scaled_planar_jd_still_controllable():
    fam = type(PJ.family)(tuple(2.0 * m for m in PJ.family.matrices))
    scaled = type(PJ)(n=2, name="planar_jd_x2", family=fam)
    v = decide_controllability(scaled, AnalysisBudgets(reach_budget=60000))
    assert v.conclusion == "controllable"


@pytest.mark.parametrize("threshold", [np.nan, 0.0, -0.5, 1.5, np.inf])
def test_decide_rejects_coverage_threshold_outside_unit_interval(threshold):
    budgets = AnalysisBudgets(samples=200, reach_budget=2000,
                              coverage_threshold=threshold)
    with pytest.raises(ValueError, match="coverage_threshold"):
        decide_controllability(PJ, budgets)


@pytest.mark.parametrize("reach_budget", [30000, 100000])
def test_decide_memory_does_not_grow_with_the_budget(reach_budget):
    # the coverage evidence is binned one block of sampled schedule rows at
    # a time; holding the whole cloud took a 157.5 MB peak at budget 100000
    budgets = AnalysisBudgets(samples=2000, reach_budget=reach_budget)
    tracemalloc.start()
    try:
        verdict = decide_controllability(random_system(5, 2, 0), budgets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.evidence.num_points > 10 * reach_budget
    assert peak < 16 * 2**20
