import numpy as np
import pytest

from bilinctrl.foliation import (
    FoliationError,
    NoReturnError,
    RadialDistribution,
    SampleFailureError,
    TransversalityError,
    arc_family,
    first_return,
    first_return_constancy,
    leaf_line_field,
    orbit_tangent_distribution,
    planar_section,
    radial_graph_distribution,
    sphere_distribution,
)
from bilinctrl.model import bilinear_system, builtin_corpus

POLE = np.array([0.0, 0.0, 1.0])
THETA = np.array([1.0, 0.0, 0.0])


def test_leaf_line_field_orientation_at_pole():
    sec = planar_section(THETA)
    v = leaf_line_field(sphere_distribution(3), sec, POLE)
    np.testing.assert_allclose(v, THETA, atol=1e-14)


def test_leaf_line_field_continues_downward():
    sec = planar_section(THETA)
    v = leaf_line_field(sphere_distribution(3), sec, THETA)
    np.testing.assert_allclose(v, -POLE, atol=1e-14)


def test_flat_slope_reduces_to_sphere():
    sec = planar_section(THETA)
    flat = radial_graph_distribution(3, slope=0.0)
    sphere = sphere_distribution(3)
    for x in (POLE, THETA, np.array([0.3, 0.0, 0.8])):
        np.testing.assert_allclose(leaf_line_field(flat, sec, x),
                                   leaf_line_field(sphere, sec, x), atol=1e-12)


def test_leaf_line_field_requires_plane_point():
    sec = planar_section(THETA)
    with pytest.raises(ValueError):
        leaf_line_field(sphere_distribution(3), sec, np.array([0.0, 1.0, 0.0]))


def test_transversality_violation_detected():
    # horizontal planes are not transversal to rays on the equator
    horizontal = RadialDistribution(3, lambda x: np.array([0.0, 0.0, 1.0]))
    sec = planar_section(THETA)
    with pytest.raises(TransversalityError):
        leaf_line_field(horizontal, sec, THETA)


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
    distr = radial_graph_distribution(3, 0.3)
    res = first_return(distr, planar_section(THETA))
    assert abs(distr.leaf_fn(res.p_return) - distr.leaf_fn(POLE)) <= 1e-6


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
    with pytest.raises(NoReturnError):
        first_return(sphere_distribution(3), planar_section(THETA), arc_budget=0.5)


def test_arc_family_sphere_points_on_unit_sphere():
    fam = arc_family(sphere_distribution(3), theta_samples=12, seed=0)
    for res in fam.results:
        radii = np.linalg.norm(res.arc_points, axis=1)
        assert np.max(np.abs(radii - 1.0)) <= 1e-6
    assert fam.start_spread <= 1e-12
    assert fam.end_spread <= 1e-6


def test_arc_family_radial_graph_stays_on_leaf():
    distr = radial_graph_distribution(3, 0.3)
    fam = arc_family(distr, theta_samples=12, seed=0)
    for res in fam.results:
        for pt in res.arc_points:
            assert abs(distr.leaf_fn(pt) - distr.leaf_fn(POLE)) <= 1e-5
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
    c = 0.7

    def normal(x):
        u = x / np.linalg.norm(x, axis=-1, keepdims=True)
        e0 = np.zeros(x.shape[-1])
        e0[0] = 1.0
        return (u[..., :1] - c) * u + (e0 - u[..., :1] * u)

    thetas = first_return_constancy(sphere_distribution(3), theta_samples=64,
                                    seed=0).thetas
    expected = tuple(int(k) for k in np.flatnonzero(thetas[:, 0] > c))
    assert 0 < len(expected) < 64
    with pytest.raises(SampleFailureError) as info:
        first_return_constancy(RadialDistribution(3, normal), theta_samples=64, seed=0)
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
