import numpy as np
import pytest

from bilinctrl import foliation
from bilinctrl.foliation import (
    ESCAPE_NORM,
    RETURN_PIECES,
    FoliationError,
    NoReturnError,
    RadialDistribution,
    SampleFailureError,
    TransversalityError,
    arc_family,
    first_return,
    first_return_constancy,
    orbit_tangent_distribution,
    planar_section,
    radial_graph_distribution,
    sphere_distribution,
    _angle_rates,
    _leaf_frame,
    _points_and_velocities,
    _theta_samples,
)
from bilinctrl.matlie import DEFAULT_TOL, lie_closure
from bilinctrl.model import bilinear_system, builtin_corpus
from bilinctrl.reach import integrate_table

from oracles import (
    angle_rates,
    leaf_frame,
    orbit_tangent_normal,
    points_and_velocities,
    radial_graph_leaf,
    radial_graph_normal,
)

POLE = np.array([0.0, 0.0, 1.0])
THETA = np.array([1.0, 0.0, 0.0])
TILT = 0.7


def _tilted_normal(x):
    # (u_0 - TILT) u + (e_0 - u_0 u) at the direction u of x: radial part
    # u_0 - TILT, so the sections with theta_0 > TILT lose transversality
    u = x / np.linalg.norm(x, axis=-1, keepdims=True)
    e0 = np.zeros(x.shape[-1])
    e0[0] = 1.0
    return (u[..., :1] - TILT) * u + (e0 - u[..., :1] * u)


def test_leaf_line_field_orientation_at_pole():
    res = first_return(sphere_distribution(3), planar_section(THETA))
    np.testing.assert_allclose(res.arc_velocities[0], THETA, atol=1e-14)


def test_leaf_line_field_continues_downward():
    # the arc point after half of the RETURN_PIECES angle pieces is THETA
    res = first_return(sphere_distribution(3), planar_section(THETA))
    np.testing.assert_allclose(res.arc_points[32], THETA, atol=1e-14)
    np.testing.assert_allclose(res.arc_velocities[32], -POLE, atol=1e-14)


def test_radial_graph_arc_points_match_the_piece_stepped_line():
    # arc points are read off the continuous extension of steps that run
    # across them; they must lie within 1e-8 of the states the integrator
    # steps to with the line cut into RETURN_PIECES segments (a cubic
    # Hermite interpolant misses by 7.6e-8), and on their leaf
    distr = radial_graph_distribution(3, 0.3)
    report = first_return_constancy(distr, theta_samples=64, seed=0)
    x0s = np.zeros((64, 6))
    x0s[:, 3:] = report.thetas
    durations = np.full((64, RETURN_PIECES), np.pi / RETURN_PIECES)
    bounds, stop, _ = integrate_table((_angle_rates(distr),), x0s,
                                      np.zeros(durations.shape, dtype=int), durations,
                                      ESCAPE_NORM)
    assert (stop == RETURN_PIECES).all()
    want = _points_and_velocities(distr, bounds.reshape(-1, 6))[0].reshape(64, -1, 3)
    got = np.array([res.arc_points[1:] for res in report.results])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)
    np.testing.assert_allclose(report.values, np.exp(bounds[:, -1, 0]), rtol=0, atol=1e-9)
    on_leaf = [radial_graph_leaf(pt, 0.3) for pt in got.reshape(-1, 3)]
    np.testing.assert_allclose(on_leaf, radial_graph_leaf(POLE, 0.3), rtol=0, atol=1e-8)


def test_sphere_leaf_table_steps_across_its_arc_points(monkeypatch):
    # the sphere's leaf lines need about five error-controlled steps; a
    # step clipped at each of the RETURN_PIECES arc points took 65 steps,
    # 390 rate calls
    calls = []

    def counted(distr, rates=foliation._angle_rates):
        field = rates(distr)

        def rate(states):
            calls.append(len(states))
            return field(states)
        return rate

    monkeypatch.setattr(foliation, "_angle_rates", counted)
    report = first_return_constancy(sphere_distribution(3), theta_samples=64)
    assert report.constant and calls and len(calls) <= 60


def test_arc_velocities_are_computed_on_first_read_once_per_table():
    # the leaf normal used to be taken at all 64 x 65 arc states of the
    # table to fill arc_velocities, whether or not they were read
    distr = sphere_distribution(3)
    normal_fn, seen = distr.normal_fn, []

    def counted(x):
        seen.append(np.asarray(x).size // distr.n)
        return normal_fn(x)

    distr.normal_fn = counted
    report = first_return_constancy(distr, theta_samples=64)
    assert sum(seen) == 1984
    report.results[7].arc_velocities
    assert sum(seen) == 1984 + 64 * (RETURN_PIECES + 1)
    got = np.array([res.arc_velocities for res in report.results])
    assert sum(seen) == 1984 + 64 * (RETURN_PIECES + 1)

    x0s = np.zeros((64, 6))
    x0s[:, 3:] = report.thetas
    bounds, _, _ = integrate_table((_angle_rates(distr),), x0s,
                                   np.zeros((64, 1), dtype=int), np.full((64, 1), np.pi),
                                   ESCAPE_NORM, per_segment=RETURN_PIECES)
    states = np.concatenate([x0s[:, None, :], bounds], axis=1)
    want = _points_and_velocities(sphere_distribution(3), states.reshape(-1, 6))[1]
    assert got.tobytes() == want.tobytes()


def test_flat_slope_reduces_to_sphere():
    sec = planar_section(THETA)
    flat = first_return(radial_graph_distribution(3, slope=0.0), sec)
    sphere = first_return(sphere_distribution(3), sec)
    np.testing.assert_allclose(flat.arc_points, sphere.arc_points, atol=1e-12)
    np.testing.assert_allclose(flat.arc_velocities, sphere.arc_velocities, atol=1e-12)


def test_leaf_line_field_requires_plane_point():
    sec = planar_section(THETA)
    with pytest.raises(ValueError, match="section plane"):
        first_return(sphere_distribution(3), sec, start=np.array([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("start", [[np.nan, 0.0, 1.0], [0.0, np.nan, 1.0],
                                   [np.inf, 0.0, 1.0]])
def test_first_return_refuses_nonfinite_start(start, deadline):
    # a NaN or inf start used to be integrated without end
    with deadline(20), pytest.raises(ValueError, match="finite"):
        first_return(sphere_distribution(3), planar_section(THETA), start=start)


@pytest.mark.parametrize("theta", [[np.nan, 0.0, 0.0], [1.0, np.nan, 0.0],
                                   [1.0, 0.0, np.nan], [np.inf, 0.0, 0.0],
                                   [1.0, 0.0, np.inf]])
def test_planar_section_refuses_nonfinite_theta(theta):
    # a NaN compared false against both bounds, and first_return then
    # failed with TransversalityError, the numerical-failure path
    with pytest.raises(ValueError, match="finite unit vector"):
        planar_section(theta)


def test_sphere_first_return():
    res = first_return(sphere_distribution(3), planar_section(THETA))
    np.testing.assert_allclose(res.p_return, -POLE, atol=1e-6)
    assert abs(res.radius - 1.0) <= 1e-6
    assert abs(abs(res.winding) - np.pi) <= 1e-6


def test_radial_graph_first_return_closed_form():
    res = first_return(radial_graph_distribution(3, 0.3), planar_section(THETA))
    assert abs(res.radius - np.exp(-0.6)) <= 1e-6
    assert res.p_return[2] < 0.0


def test_first_return_ray_condition():
    for distr in (sphere_distribution(3), radial_graph_distribution(3, 0.3)):
        res = first_return(distr, planar_section(THETA))
        assert abs(np.dot(res.p_return, THETA)) <= 1e-10
        assert np.dot(res.p_return, POLE) < 0.0


def test_first_return_scaling():
    distr = radial_graph_distribution(3, 0.3)
    base = first_return(distr, planar_section(THETA))
    for lam in (0.5, 2.0):
        res = first_return(distr, planar_section(THETA), start=lam * POLE)
        assert abs(res.radius - lam * base.radius) <= 1e-8 * lam * base.radius


def test_first_return_accepts_far_plane_start():
    # e3 + 1e8 theta lies in the plane up to rounding of 1.5e-8, far below
    # 1e-9 |x|
    sec = planar_section(np.array([np.cos(0.3), np.sin(0.3), 0.0]))
    start = POLE + 1e8 * sec.theta
    res = first_return(sphere_distribution(3), sec, start)
    assert abs(res.radius - np.linalg.norm(start)) <= 1e-12 * np.linalg.norm(start)


def test_arc_planarity_and_tangency():
    distr = radial_graph_distribution(3, 0.3)
    sec = planar_section(np.array([0.6, 0.8, 0.0]))
    res = first_return(distr, sec)
    for pt, v in zip(res.arc_points, res.arc_velocities):
        a, b = sec.to_plane(pt)
        assert np.linalg.norm(pt - sec.to_ambient(a, b)) <= 1e-10
        nv = distr.normal_at(pt)
        assert abs(np.dot(nv, v)) <= 1e-8
    assert res.arc_t[0] == 0.0 and res.arc_t[-1] == 1.0
    assert np.all(np.diff(res.arc_t) > 0)


def test_return_point_stays_on_leaf():
    res = first_return(radial_graph_distribution(3, 0.3), planar_section(THETA))
    assert abs(radial_graph_leaf(res.p_return, 0.3)
               - radial_graph_leaf(POLE, 0.3)) <= 1e-6


def test_constancy_sphere():
    rep = first_return_constancy(sphere_distribution(3), theta_samples=16, seed=0)
    assert rep.constant
    assert rep.max_deviation <= 1e-6
    assert rep.mean_radius == pytest.approx(1.0, abs=1e-6)


def test_constancy_radial_graph():
    rep = first_return_constancy(radial_graph_distribution(3, 0.3),
                                 theta_samples=16, seed=0)
    assert rep.constant
    assert rep.mean_radius == pytest.approx(np.exp(-0.6), abs=1e-6)


def test_constancy_requires_connected_directions():
    with pytest.raises(ValueError):
        first_return_constancy(sphere_distribution(2), theta_samples=8, seed=0)


def test_orbit_tangent_matches_sphere():
    distr = orbit_tangent_distribution(builtin_corpus("so3"))
    rep = first_return_constancy(distr, theta_samples=8, seed=0)
    assert rep.constant
    assert rep.mean_radius == pytest.approx(1.0, abs=1e-6)


def test_orbit_tangent_rejects_wrong_rank():
    with pytest.raises(FoliationError):
        distr = orbit_tangent_distribution(builtin_corpus("planar_jd"))
        # rank is 2 == n there, not n - 1
        distr.normal_at(np.array([1.0, 0.0]))


def test_twisted_distribution_is_not_constant():
    # transversal but non-integrable: the return radius depends on the section
    def normal(x):
        return np.stack([x[..., 0], x[..., 1], x[..., 2] + 0.1 * x[..., 0]], axis=-1)

    twisted = RadialDistribution(3, normal)
    rep = first_return_constancy(twisted, theta_samples=12, seed=0)
    assert not rep.constant
    with pytest.raises(FoliationError):
        arc_family(twisted, theta_samples=12, seed=0)


def test_no_return_within_budget():
    # the leaf through the pole returns at radius e^10, past the arc budget
    # of 200 max(1, |start|)
    with pytest.raises(NoReturnError):
        first_return(radial_graph_distribution(3, slope=-5.0), planar_section(THETA))


def test_leaf_settings_are_not_parameters():
    with pytest.raises(TypeError):
        RadialDistribution(3, lambda x: x, leaf_fn=None)
    with pytest.raises(TypeError):
        first_return(sphere_distribution(3), planar_section(THETA), arc_budget=0.5)


def test_arc_family_sphere_points_on_unit_sphere():
    fam = arc_family(sphere_distribution(3), theta_samples=12, seed=0)
    for res in fam.results:
        radii = np.linalg.norm(res.arc_points, axis=1)
        assert np.max(np.abs(radii - 1.0)) <= 1e-6
    assert fam.start_spread <= 1e-12
    assert fam.end_spread <= 1e-6


def test_arc_family_radial_graph_stays_on_leaf():
    fam = arc_family(radial_graph_distribution(3, 0.3), theta_samples=12, seed=0)
    for res in fam.results:
        for pt in res.arc_points:
            assert abs(radial_graph_leaf(pt, 0.3) - radial_graph_leaf(POLE, 0.3)) <= 1e-5
    assert 0.0 < fam.min_point_radius <= fam.max_point_radius < np.inf
    assert fam.mean_radius == pytest.approx(np.exp(-0.6), abs=1e-6)


def test_higher_dimensional_sphere_sections():
    rep = first_return_constancy(sphere_distribution(4), theta_samples=6, seed=0)
    assert rep.constant
    assert rep.mean_radius == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n", [3, 4])
def test_sphere_returns_in_closed_form_at_64_sections(n):
    pole = np.zeros(n)
    pole[-1] = 1.0
    rep = first_return_constancy(sphere_distribution(n), theta_samples=64, seed=0)
    for res in rep.results:
        assert abs(res.radius - 1.0) <= 1e-9
        assert np.max(np.abs(res.p_return + pole)) <= 1e-9
        assert abs(res.winding - np.pi) <= 1e-9
        assert abs(res.arc_length - np.pi) <= 1e-9


@pytest.mark.parametrize("slope", [0.1, 0.3, 1.0])
def test_radial_graph_returns_in_closed_form_at_64_sections(slope):
    rep = first_return_constancy(radial_graph_distribution(3, slope),
                                 theta_samples=64, seed=0)
    for res in rep.results:
        assert abs(res.radius - np.exp(-2.0 * slope)) <= 1e-9


def test_sample_failures_name_exactly_the_non_transversal_sections():
    # normal (u_0 - c) u + (e_0 - u_0 u) at the direction u of x: its radial
    # part u_0 - c vanishes where u_0 = c.  On the section of theta, u_0 =
    # sin(phi) theta_0 peaks at theta_0, so exactly the sections with
    # theta_0 > c lose transversality on the way to the opposite ray
    c = TILT
    thetas = first_return_constancy(sphere_distribution(3), theta_samples=64,
                                    seed=0).thetas
    expected = tuple(int(k) for k in np.flatnonzero(thetas[:, 0] > c))
    assert 0 < len(expected) < 64
    with pytest.raises(SampleFailureError) as info:
        first_return_constancy(RadialDistribution(3, _tilted_normal), theta_samples=64,
                               seed=0)
    assert info.value.indices == expected


def test_orbit_tangents_of_a_conjugated_so3_return_to_radius_one():
    # P M P^-1 has the ellipsoids |P^-1 x| = c as leaves, with P = diag(1, 1, 10)
    so3 = builtin_corpus("so3")
    p = np.diag([1.0, 1.0, 10.0])
    spec = bilinear_system([p @ m @ np.linalg.inv(p) for m in so3.family.matrices])
    rep = first_return_constancy(orbit_tangent_distribution(spec), theta_samples=16,
                                 seed=0)
    for res in rep.results:
        assert abs(res.radius - 1.0) <= 1e-8


def test_line_into_horizontal_planes_fails_transversality(deadline):
    # the leaf normal e3 turns radial on the equator, phi = pi/2; steps that
    # shrink toward it stall on the row's angle clock (this used to creep on
    # without end, and before that raised NoReturnError)
    horizontal = RadialDistribution(3, lambda x: np.array([0.0, 0.0, 1.0]))
    with deadline(20), pytest.raises(TransversalityError):
        first_return(horizontal, planar_section(THETA))


def test_line_on_spheres_through_the_origin_fails(deadline):
    # leaves |x|^2 = c x_3, normal 2 x_3 x - |x|^2 e3: the leaf through the
    # pole is the sphere with diameter [0, e3], so the line runs into the
    # origin (this used to creep on without end, and before that raised
    # TransversalityError)
    def normal(x):
        e3 = np.zeros(x.shape[-1])
        e3[-1] = 1.0
        return 2.0 * x[..., -1:] * x - np.sum(x * x, axis=-1, keepdims=True) * e3

    with deadline(20), pytest.raises(FoliationError):
        first_return(RadialDistribution(3, normal), planar_section(THETA))


def test_radial_graph_in_higher_dimension_returns_in_closed_form():
    rep = first_return_constancy(radial_graph_distribution(4, 0.3), theta_samples=8,
                                 seed=0)
    assert rep.constant
    assert rep.mean_radius == pytest.approx(np.exp(-0.6), abs=1e-6)


def _leaf_rows(n, count, seed):
    """Leaf-line rows (log r, phi, arc, theta) spread over the sections of
    count directions, with rows whose point overflows, is zero or is NaN
    (rows 4 to 7) and two rows where the tilted field is radial (8 and 9)."""
    rng = np.random.default_rng([seed, n])
    states = np.zeros((count, 3 + n))
    states[:, 0] = rng.normal(0.0, 2.0, count)
    states[:, 1] = rng.uniform(-0.5, np.pi + 0.5, count)
    states[:, 2] = rng.exponential(1.0, count)
    states[:, 3:] = _theta_samples(n, count, seed)
    states[:4, 1] = (0.0, np.pi / 2, np.pi, -0.0)
    states[4:7, 0] = (800.0, -np.inf, np.nan)  # x = inf, 0 and NaN
    states[7, 1] = np.inf
    states[8:10, 1] = np.arcsin(TILT), np.pi - np.arcsin(TILT)
    states[8:10, 3:] = np.eye(n)[0]  # u_0 = TILT: the tilted field is not transversal
    return states


def _leaf_fields():
    so3 = builtin_corpus("so3")
    basis = lie_closure(so3.family.matrices, tol=DEFAULT_TOL)
    tilted = RadialDistribution(3, _tilted_normal)
    horizontal = RadialDistribution(3, lambda x: np.array([0.0, 0.0, 1.0]))
    return {  # (field, the same field through its oracle normal)
        "sphere3": (sphere_distribution(3),) * 2,
        "sphere4": (sphere_distribution(4),) * 2,
        "radial_graph": (radial_graph_distribution(3, slope=0.3),
                         radial_graph_normal(3, 0.3)),
        "radial_graph4": (radial_graph_distribution(4, slope=-0.4),
                          radial_graph_normal(4, -0.4)),
        "so3_orbit": (orbit_tangent_distribution(so3, basis=basis),
                      orbit_tangent_normal(basis, DEFAULT_TOL)),
        "tilted": (tilted, tilted),
        "horizontal": (horizontal, horizontal),
    }


@pytest.mark.parametrize("name", sorted(_leaf_fields()))
def test_leaf_rates_and_frame_match_oracle(name):
    # sin, cos and exp are taken once per call and the norms through
    # add.reduce; the frame, the rates and the arc velocities must not move
    # by a bit, on rows whose normal is NaN (non-finite points, the tilted
    # field's non-transversal rows) too
    distr, oracle = _leaf_fields()[name]
    states = _leaf_rows(distr.n, 200, seed=3)
    for rows in (states, states[8:], states[:1], states[8:9]):  # [8:] all finite
        with np.errstate(all="ignore"):
            got = (*_leaf_frame(distr, rows)[1:], _angle_rates(distr)(rows),
                   *_points_and_velocities(distr, rows))
            want = (*leaf_frame(oracle, rows), angle_rates(oracle, rows),
                    *points_and_velocities(oracle, rows))
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
    with np.errstate(all="ignore"):
        n_r = leaf_frame(oracle, states)[3]
    assert np.isnan(n_r[4:8]).all() and np.isfinite(n_r[10:]).all()
    assert np.isnan(n_r[8:10]).all() == (name == "tilted")


@pytest.mark.parametrize("name", ["sphere3", "so3_orbit", "tilted"])
def test_one_field_leaf_table_matches_two_field_table(name):
    # a one-field table runs its field on the whole stack, without the
    # per-field gathers of a table of several fields; with the field twice
    # and random 0/1 indices every row must come out the same
    distr = _leaf_fields()[name][0]
    rates = _angle_rates(distr)
    rows = 48
    x0s = np.zeros((rows, 3 + distr.n))
    x0s[:, 0] = np.random.default_rng(1).normal(0.0, 0.5, rows)
    x0s[:, 3:] = _theta_samples(distr.n, rows, seed=2)
    x0s[-1, 1] = np.nan  # a row that stalls at once
    durations = np.full((rows, RETURN_PIECES), np.pi / RETURN_PIECES)
    one = integrate_table((rates,), x0s, np.zeros(durations.shape, dtype=int),
                          durations, ESCAPE_NORM)
    indices = np.random.default_rng(4).integers(0, 2, durations.shape)
    two = integrate_table((rates, rates), x0s, indices, durations, ESCAPE_NORM)
    for got, want in zip(one, two):
        assert got.tobytes() == want.tobytes()
    stop = one[1]
    halted = (stop < RETURN_PIECES).sum()
    assert stop[-1] == 0 and (halted > 1 if name == "tilted" else halted == 1)
