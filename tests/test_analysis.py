import tracemalloc

import numpy as np
import pytest

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

from oracles import circle_min_sigma, projected_tangent_rank, split_segments

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
# {diag(1, 1, 0), L_z, diag(0, 0, 1)} on the plane x3 = 0.
THIN = (
    [np.diag([1.0, -1.0]), [[0.0, 1.0], [0.0, 0.0]]],
    [np.diag([1.0, 1.0, 0.0]), [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
     np.diag([0.0, 0.0, 1.0])],
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
    thin2 = bilinear_system(THIN[0])
    assert angular_accessibility(thin2, samples=400, seed=0).status == "inaccessible"


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
