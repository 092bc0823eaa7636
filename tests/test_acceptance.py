"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
with timings.  Expected values come from independent oracles (exact rational
closure, dense grid scans, closed forms) pinned in tests/oracles.py or
derived inline; none are produced by the code paths under test.
"""

import contextlib
import time

import numpy as np

from bilinctrl.analysis import (
    AnalysisBudgets,
    LarcFailure,
    MonotoneNorm,
    decide_controllability,
    transversality_at,
)
from bilinctrl.foliation import (
    first_return_constancy,
    radial_graph_distribution,
    sphere_distribution,
)
from bilinctrl.matlie import lie_closure
from bilinctrl.model import ControlSchedule, builtin_corpus, random_system
from bilinctrl.reach import (
    CoverageGrid,
    approx_reach_test,
    coverage,
    sample_attainable,
    simulate,
    simulate_bilinear,
    simulate_smooth,
)

from oracles import exact_closure_dim, projected_tangent_rank

E12 = [[0, 1], [0, 0]]
E21 = [[0, 0], [1, 0]]
J = [[0, -1], [1, 0]]


@contextlib.contextmanager
def criterion(num, name, limit_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {num}] FAIL {name} "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num}] PASS {name} ({elapsed:.1f}s, limit {limit_s:.0f}s)")
    assert elapsed <= limit_s, f"criterion {num} exceeded its {limit_s}s limit"


def test_criterion_1_lie_closure_against_exact_oracle():
    with criterion(1, "lie closure vs exact rational closure", 1.0):
        so3 = builtin_corpus("so3")
        cases = [
            ([E12, E21], 3),
            (list(so3.family.matrices), 3),
            ([J], 1),
        ]
        for gens, expected in cases:
            assert exact_closure_dim(gens) == expected
            assert lie_closure(gens).dim == expected


def test_criterion_2_transversality_duality_on_random_systems():
    with criterion(2, "radial transversality vs projected-rank duality", 10.0):
        disagreements = 0
        total = 0
        for k in range(20):
            spec = random_system(3, 2, 1000 + k)
            basis = lie_closure(spec.family.matrices)
            rng = np.random.default_rng([7, k])
            pts = rng.standard_normal((50, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            for x in pts:
                direct = transversality_at(spec, x, tol=1e-9, basis=basis)
                dual = projected_tangent_rank(basis, x, tol=1e-9) == 2
                total += 1
                disagreements += direct != dual
        assert total == 1000
        assert disagreements == 0


def test_criterion_3_certificate_soundness():
    with criterion(3, "certificate soundness on the corpus", 30.0):
        budgets = AnalysisBudgets(samples=2000, restarts=6)

        so3 = builtin_corpus("so3")
        v = decide_controllability(so3, budgets)
        assert v.conclusion == "not_controllable"
        assert isinstance(v.certificate, LarcFailure)
        basis = lie_closure(so3.family.matrices)
        cols = np.column_stack([b @ v.certificate.witness for b in basis.basis])
        s = np.linalg.svd(cols, compute_uv=False)
        assert s[2] <= 1e-9 * s[0]

        ep = builtin_corpus("expanding_pair")
        v = decide_controllability(ep, budgets)
        assert v.conclusion == "not_controllable"
        assert isinstance(v.certificate, MonotoneNorm)
        assert v.certificate.direction == "nondecreasing"
        endpoints = sample_attainable(ep, [1.0, 0.0], 10000, seed=0,
                                      boundaries=False)
        assert np.all(np.linalg.norm(endpoints, axis=1) >= 1.0 - 1e-9)

        io = builtin_corpus("identity_only")
        v = decide_controllability(io, budgets)
        assert v.conclusion == "not_controllable"
        assert v.certificate is not None


def test_criterion_4_empirical_controllability_planar():
    with criterion(4, "planar rotate-and-scale family is reachable", 60.0):
        pj = builtin_corpus("planar_jd")
        v = decide_controllability(pj)  # default budget 100000, threshold 0.99
        assert v.conclusion == "controllable"
        assert v.evidence.fraction >= 0.99

        res = approx_reach_test(pj, [1.0, 0.0], [0.0, 2.0], eps=1e-2,
                                budget=100000, seed=0)
        assert res.hit
        replay = simulate(pj, res.witness, [1.0, 0.0]).endpoint
        assert np.linalg.norm(replay - [0.0, 2.0]) <= 1e-2

        # hand-built schedule: stretch to (2, 0), quarter turn to (0, 2)
        hand = ControlSchedule(((1, np.log(2.0)), (0, np.pi / 2)))
        endpoint = simulate_bilinear(pj.family, hand, [1.0, 0.0]).endpoint
        assert np.linalg.norm(endpoint - [0.0, 2.0]) <= 1e-10


def test_criterion_5_certificates_never_meet_high_coverage():
    with criterion(5, "no certificate coexists with dense coverage", 600.0):
        budgets = AnalysisBudgets(samples=2000, reach_budget=30000,
                                  profile_samples=50, restarts=6, seed=0)
        systems = [builtin_corpus(name) for name in
                   ("so3", "planar_jd", "expanding_pair", "identity_only",
                    "example1")]
        systems += [random_system(2, 2, 3000 + k) for k in range(25)]
        systems += [random_system(3, 2, 4000 + k) for k in range(25)]

        threshold = 0.99
        violations = []
        for spec in systems:
            v = decide_controllability(spec, budgets)
            if v.certificate is not None:
                evidence = v.evidence
                if evidence is None:
                    cloud = sample_attainable(spec, np.eye(spec.n)[0],
                                              budgets.reach_budget, budgets.seed)
                    evidence = coverage(cloud, CoverageGrid(spec.n))
                if evidence.fraction >= threshold:
                    violations.append((spec.name, v.certificate,
                                       evidence.fraction))
            if v.evidence is not None and v.evidence.fraction >= threshold:
                # dense coverage forces full-dimensional orbits at every sample
                if spec.is_bilinear:
                    assert set(v.orbit_dims) == {spec.n}, spec.name
        assert violations == []


def test_criterion_6_first_return_mechanism():
    with criterion(6, "planar first-return radii are constant", 60.0):
        pole = np.array([0.0, 0.0, 1.0])

        rep = first_return_constancy(sphere_distribution(3), theta_samples=64,
                                     seed=0)
        assert rep.max_deviation <= 1e-6
        assert rep.constant
        for res in rep.results:
            assert np.linalg.norm(res.p_return + pole) <= 1e-6

        graph = radial_graph_distribution(3, slope=0.3)
        rep_graph = first_return_constancy(graph, theta_samples=64, seed=0)
        assert rep_graph.constant
        assert abs(rep_graph.mean_radius - np.exp(-0.6)) <= 1e-5

        worst = 0.0
        for rep_k, distr in ((rep, sphere_distribution(3)), (rep_graph, graph)):
            for res in rep_k.results:
                for pt, vel in zip(res.arc_points, res.arc_velocities):
                    worst = max(worst, abs(np.dot(distr.normal_at(pt), vel)))
        assert worst <= 1e-8


def test_criterion_7_gated_planar_family_behavior():
    with criterion(7, "gated family: shielded half-line, open upper region", 120.0):
        ex1 = builtin_corpus("example1")

        cloud = sample_attainable(ex1, [0.0, -1.0], 10000, seed=0)
        dists = np.linalg.norm(cloud - np.array([0.0, -2.0])[None, :], axis=1)
        assert dists.min() > 0.5

        for idx in (2, 3):
            for start in ([0.0, -1.0], [0.0, -0.25]):
                traj = simulate_smooth(ex1, ControlSchedule(((idx, 5.0),)), start)
                assert np.linalg.norm(traj.endpoint - start) <= 1e-8

        upper = sample_attainable(ex1, [0.0, 1.0], 10000, seed=0)
        rep = coverage(upper, CoverageGrid(2))
        assert rep.angular_fraction >= 0.5


def test_criterion_8_simulation_exactness():
    with criterion(8, "closed-form exactness and norm conservation", 5.0):
        pj = builtin_corpus("planar_jd")

        def rotation(t):
            return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

        def stretch(t):
            return np.diag([np.exp(t), np.exp(-t)])

        rng = np.random.default_rng(11)
        for _ in range(25):
            segs = []
            closed = np.eye(2)
            for _ in range(int(rng.integers(1, 8))):
                idx = int(rng.integers(0, 2))
                t = float(rng.uniform(0.0, 3.0))
                segs.append((idx, t))
                closed = (rotation(t) if idx == 0 else stretch(t)) @ closed
            x0 = rng.standard_normal(2)
            got = simulate_bilinear(pj.family, ControlSchedule(tuple(segs)), x0)
            expect = closed @ x0
            assert np.linalg.norm(got.endpoint - expect) \
                <= 1e-12 * max(1.0, np.linalg.norm(expect))

        so3 = builtin_corpus("so3")
        rng = np.random.default_rng(12)
        for _ in range(10):
            durations = rng.uniform(0.0, 1.0, size=20)
            durations *= 100.0 / durations.sum()
            segs = tuple((int(rng.integers(0, 3)), float(t)) for t in durations)
            traj = simulate_bilinear(so3.family, ControlSchedule(segs),
                                     [1.0, 0.0, 0.0], record_dt=1.0)
            norms = np.linalg.norm(traj.states, axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-9
