import json
import math
import warnings

import numpy as np
import pytest

from bilinctrl.model import (
    BUILTIN_NAMES,
    ControlSchedule,
    FieldTable,
    bilinear_system,
    builtin_corpus,
    example1_gate,
    parse_system,
    random_system,
    serialize_system,
)

from oracles import project_sphere


# project_sphere is the criterion-2 oracle's own radial projection; these
# tests pin it on closed forms
def test_project_sphere_radial_field_vanishes():
    np.testing.assert_allclose(project_sphere(np.eye(2), [1.0, 0.0]),
                               [0.0, 0.0], atol=1e-15)


def test_project_sphere_tangent_field_unchanged():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(project_sphere(J, [1.0, 0.0]), [0.0, 1.0], atol=1e-15)


def test_project_sphere_hyperbolic_diagonal():
    D = np.diag([1.0, -1.0])
    x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    np.testing.assert_allclose(project_sphere(D, x),
                               [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)], atol=1e-15)


def test_project_sphere_requires_unit_vector():
    with pytest.raises(ValueError):
        project_sphere(np.eye(2), [1.0, 1.0])


def test_project_sphere_orthogonality_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        out = project_sphere(m, x)
        assert abs(np.dot(x, out)) <= 1e-12 * np.linalg.norm(m)


def test_project_sphere_homogeneous_in_the_field():
    # for linear fields, evaluating at a scaled point and rescaling changes
    # nothing: M(lam x)/lam == Mx up to round-off
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        lam = rng.uniform(0.2, 5.0)
        direct = project_sphere(m, x)
        rescaled = (m @ (lam * x)) / lam
        via_scaling = rescaled - np.dot(x, rescaled) * x
        assert np.linalg.norm(direct - via_scaling) <= 1e-12 * np.linalg.norm(m)


def test_parse_minimal_bilinear():
    spec = parse_system('{"n": 2, "matrices": [[[0, -1], [1, 0]]]}')
    assert spec.is_bilinear
    assert spec.n == 2
    assert len(spec.family) == 1


def test_parse_rejects_non_square():
    with pytest.raises(ValueError, match="not square"):
        parse_system('{"n": 2, "matrices": [[[0, -1], [1, 0], [0, 0]]]}')


def test_parse_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="expected n"):
        parse_system('{"n": 3, "matrices": [[[0, -1], [1, 0]]]}')


def test_parse_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        parse_system('{"n": 1, "matrices": [[[1e999]]]}')


@pytest.mark.parametrize("entry", ['{"a": 1}', '"1"', "true", "null", "[1]"])
def test_parse_rejects_non_number_entries(entry):
    doc = '{"n": 2, "matrices": [[[0, -1], [1, 0]], [[1, 0], [0, %s]]]}' % entry
    with pytest.raises(ValueError, match=r"matrices\[1\]"):
        parse_system(doc)


@pytest.mark.parametrize("label", ["null", "1", "true", '["a"]'])
def test_parse_rejects_non_string_labels(label):
    doc = '{"n": 1, "matrices": [[[1]]], "labels": [%s]}' % label
    with pytest.raises(ValueError, match="labels"):
        parse_system(doc)


def test_parse_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind"):
        parse_system('{"n": 2, "kind": "quantum", "matrices": [[[1, 0], [0, 1]]]}')


def test_parse_serialize_round_trip():
    doc = json.dumps({
        "n": 2,
        "name": "demo",
        "matrices": [[[0.0, -1.5], [1.5, 0.0]], [[1.0, 0.0], [0.0, -1.0]]],
        "labels": ["rot", "hyp"],
    })
    first = parse_system(doc)
    text = serialize_system(first)
    second = parse_system(text)
    assert serialize_system(second) == text
    for a, b in zip(first.family.matrices, second.family.matrices):
        np.testing.assert_array_equal(a, b)


def test_builtin_round_trip():
    for name in BUILTIN_NAMES:
        spec = builtin_corpus(name)
        text = serialize_system(spec)
        again = parse_system(text)
        assert again.n == spec.n
        assert again.num_fields == spec.num_fields


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_corpus("so99")


def test_so3_generators_are_skew():
    spec = builtin_corpus("so3")
    assert spec.n == 3 and len(spec.family) == 3
    for m in spec.family.matrices:
        np.testing.assert_array_equal(m, -m.T)


def test_gate_zero_set():
    # zero exactly on {x == 0, y <= 0}
    ys = np.linspace(-3.0, 0.0, 31)
    on_line = np.stack([np.zeros_like(ys), ys], axis=-1)
    np.testing.assert_array_equal(example1_gate(on_line), np.zeros_like(ys))
    xs, ys = np.meshgrid(np.linspace(-2, 2, 41), np.linspace(-2, 2, 41))
    pts = np.stack([xs, ys], axis=-1)
    vals = example1_gate(pts)
    off = (np.abs(xs) > 1e-12) | (ys > 0)
    assert np.all(vals[off] > 0)


def test_example1_fields():
    spec = builtin_corpus("example1")
    assert not spec.is_bilinear and spec.num_fields == 4
    # translation field is constant (0, 1)
    np.testing.assert_array_equal(spec.fields[0](np.array([3.0, -7.0])), [0.0, 1.0])
    # gated fields vanish on the half line
    p = np.array([0.0, -1.0])
    for k in (1, 2, 3):
        np.testing.assert_array_equal(spec.fields[k](p), [0.0, 0.0])
    # right-pusher has positive x component off the half line
    v = spec.fields[2](np.array([0.0, 1.0]))
    assert v[0] == pytest.approx(np.exp(-1.0)) and v[1] == 0.0


def test_gate_and_example1_fields_at_edge_values():
    # the bump exp(-1/y) is exactly 0 for y <= 0, NaN and tiny y, so the gate
    # is x^2 there; the pushers' -gate keeps the sign of a zero; nothing warns
    ys = [-0.0, 0.0, 5e-324, 1e-300, -1.0, np.nan, 1e-3, 2e-3, 0.5]
    xs = [0.0, -0.0, 3.0]
    pts = np.array([[x, y] for x in xs for y in ys])
    want = np.array([x * x + (math.exp(-1.0 / y) if y > 0 else 0.0)
                     for x in xs for y in ys])
    assert want[ys.index(2e-3)] == math.exp(-500.0) > 0.0
    fields = builtin_corpus("example1").fields
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gate = example1_gate(pts)
        rates = [f(pts) for f in fields]
        single = [example1_gate(p) for p in pts]
    assert gate.tobytes() == want.tobytes()
    assert np.array(single).tobytes() == want.tobytes()
    zero = np.zeros_like(want)
    for rate, (vx, vy) in zip(rates, [(zero, zero + 1.0), (zero, -want),
                                      (want, zero), (-want, zero)]):
        assert rate.tobytes() == np.stack([vx, vy], axis=-1).tobytes()
    assert np.signbit(rates[1][want == 0.0, 1]).all()  # -gate is -0.0
    assert np.signbit(rates[3][want == 0.0, 0]).all()
    assert not np.signbit(rates[2][:, 0]).any()


def test_example1_rows_equal_the_per_field_callables():
    # one batched evaluation gives each row of a stack the bytes of its own
    # field's callable, at the gate's edge values and non-finite x (zeros
    # and NaNs keep their signs), for fields mixed and unsorted, and for
    # stacks of 0 and 1 rows; nothing warns
    fields = builtin_corpus("example1").fields
    assert isinstance(fields, FieldTable) and len(fields) == 4 and callable(fields[2])
    ys = [-0.0, 0.0, 5e-324, 1e-300, -1.0, np.nan, 1e-3, 2e-3, 0.5, np.inf, -np.inf]
    xs = [0.0, -0.0, 3.0, np.nan, -np.nan, np.inf, -np.inf]
    pts = np.array([[x, y] for x in xs for y in ys])
    field = np.random.default_rng(0).integers(0, 4, len(pts))
    assert set(field) == {0, 1, 2, 3} and (np.diff(field) < 0).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        each = [f(pts) for f in fields]  # every field at every point
        got = fields.rows(field)(pts)
        ones = [fields.rows(np.array([k]))(pts[5:6]) for k in range(4)]
        none = fields.rows(np.zeros(0, dtype=int))(np.zeros((0, 2)))
    want = np.stack([each[k][r] for r, k in enumerate(field)])
    assert got.shape == pts.shape and got.tobytes() == want.tobytes()
    assert np.isnan(got).any() and np.signbit(got[got == 0.0]).any()
    for k, one in enumerate(ones):
        assert one.tobytes() == each[k][5:6].tobytes()
    assert none.shape == (0, 2)


def test_random_system_deterministic():
    a = random_system(2, 2, 42)
    b = random_system(2, 2, 42)
    for ma, mb in zip(a.family.matrices, b.family.matrices):
        np.testing.assert_array_equal(ma, mb)
    assert serialize_system(a) == serialize_system(b)


def test_random_system_shapes_and_edge():
    spec = random_system(3, 1, 7)
    assert spec.n == 3 and len(spec.family) == 1
    assert np.all(np.isfinite(spec.family.matrices[0]))
    scalar = random_system(1, 1, 0)
    assert scalar.n == 1


def test_schedule_validation():
    ControlSchedule(((0, 1.0), (1, 0.0)))
    with pytest.raises(ValueError):
        ControlSchedule(((0, -1.0),))
    orbit = ControlSchedule(((0, -1.0),), attainable_mode=False)
    assert orbit.segments == ((0, -1.0),)
    with pytest.raises(ValueError):
        ControlSchedule(((-1, 1.0),))


def test_bilinear_system_validation():
    with pytest.raises(ValueError):
        bilinear_system([])
    with pytest.raises(ValueError):
        bilinear_system([np.eye(2), np.eye(3)])
