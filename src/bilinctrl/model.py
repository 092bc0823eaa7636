"""System definitions: matrix families, smooth field families, builtins, I/O.

A system is either bilinear (a finite list of square matrices
``spec.family.matrices``, each acting as the linear field x -> Mx) or smooth
(a finite list of evaluable vector fields ``spec.fields``).  Smooth fields
must accept arrays of shape (..., n) and return the same shape; all builtins
follow that convention, so field k of a smooth system is evaluated at points
x as ``spec.fields[k](x)``.  ``spec.fields`` is a FieldTable, a tuple whose
``rows(field)`` evaluates a stack of rows, each row on its own field, in
one call: for a generic table one call per run of equal field indices, for
example1's table one evaluation of the gate for all rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

BUILTIN_NAMES = ("so3", "planar_jd", "expanding_pair", "identity_only", "example1")


def _freeze(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MatrixFamily:
    """Finite control set of n x n matrices, optionally labelled."""

    matrices: tuple
    labels: tuple | None = None

    def __post_init__(self):
        mats = tuple(_freeze(m) for m in self.matrices)
        if not mats:
            raise ValueError("matrix family must be nonempty")
        n = mats[0].shape[0] if mats[0].ndim == 2 else -1
        for i, m in enumerate(mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"matrices[{i}] is not square: shape {m.shape}")
            if m.shape[0] != n:
                raise ValueError(f"matrices[{i}] has dimension {m.shape[0]}, expected {n}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"matrices[{i}] has non-finite entries")
        object.__setattr__(self, "matrices", mats)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != len(mats):
                raise ValueError("labels must match the number of matrices")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    def __len__(self) -> int:
        return len(self.matrices)


def _field_rows(fields, field):
    """The map u -> (fields[field[r]](u[r]))_r on stacks of rows u, for
    field indices sorted ascending: each field runs on one slice of rows."""
    edges = [0, *(np.flatnonzero(np.diff(field)) + 1), len(field)]
    if len(edges) == 2:
        return fields[field[0]]
    groups = [(fields[field[a]], slice(a, b)) for a, b in zip(edges[:-1], edges[1:])]

    def f(u):
        out = np.empty_like(u)
        for fk, rows in groups:
            out[rows] = fk(u[rows])
        return out
    return f


class FieldTable(tuple):
    """The fields of a smooth system, a tuple of callables (table[k] is
    field k) with one batched evaluation: rows(field) is the map
    u -> (table[field[r]](u[r]))_r on stacks of rows u.  The generic rows
    needs field sorted ascending and runs each field on its slice of rows; a
    table whose fields share their work may override it with one call for
    all rows, equal to the per-field callables bit for bit."""

    __slots__ = ()

    def rows(self, field):
        return _field_rows(self, field)


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """A bilinear or smooth control system on R^n minus the origin."""

    n: int
    name: str = ""
    family: MatrixFamily | None = None
    fields: FieldTable | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state dimension must be >= 1")
        if (self.family is None) == (self.fields is None):
            raise ValueError("exactly one of family or fields must be given")
        if self.family is not None and self.family.n != self.n:
            raise ValueError(f"family dimension {self.family.n} != n = {self.n}")
        if self.fields is not None:
            fields = self.fields
            if not isinstance(fields, FieldTable):
                fields = FieldTable(fields)
            if not fields:
                raise ValueError("smooth system needs at least one field")
            for i, f in enumerate(fields):
                if not callable(f):
                    raise ValueError(f"fields[{i}] is not callable")
            object.__setattr__(self, "fields", fields)

    @property
    def is_bilinear(self) -> bool:
        return self.family is not None

    @property
    def num_fields(self) -> int:
        return len(self.family) if self.is_bilinear else len(self.fields)


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant control plan: (field index, duration) segments.

    In attainable mode all durations must be nonnegative; orbit mode also
    allows negative durations (time-reversed flows).
    """

    segments: tuple
    attainable_mode: bool = True

    def __post_init__(self):
        segs = []
        for k, seg in enumerate(self.segments):
            idx, dur = seg
            idx = int(idx)
            dur = float(dur)
            if idx < 0:
                raise ValueError(f"segment {k}: negative field index")
            if not np.isfinite(dur):
                raise ValueError(f"segment {k}: non-finite duration")
            if self.attainable_mode and dur < 0:
                raise ValueError(f"segment {k}: negative duration in attainable mode")
            segs.append((idx, dur))
        object.__setattr__(self, "segments", tuple(segs))

    @property
    def max_index(self) -> int:
        return max((i for i, _ in self.segments), default=-1)


def bilinear_system(matrices, name: str = "", labels=None) -> SystemSpec:
    """Build a bilinear system from a list of square matrices."""
    family = MatrixFamily(tuple(matrices), None if labels is None else tuple(labels))
    return SystemSpec(n=family.n, name=name, family=family)


def smooth_system(n: int, fields, name: str = "") -> SystemSpec:
    """Build a smooth system from evaluable vector fields.

    Fields must be vectorized: they take arrays of shape (..., n) and return
    arrays of the same shape, finite on finite nonzero inputs.  A FieldTable
    is kept as it is, with its rows; any other iterable becomes a generic
    FieldTable.
    """
    return SystemSpec(n=n, name=name, fields=fields)


# --- built-in corpus -------------------------------------------------------

def _rotation_generators_3d():
    lx = [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]
    ly = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
    lz = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    return lx, ly, lz


PLANAR_ROTATION = _freeze([[0.0, -1.0], [1.0, 0.0]])
PLANAR_HYPERBOLIC = _freeze([[1.0, 0.0], [0.0, -1.0]])


def example1_gate(points) -> np.ndarray:
    """Smooth nonnegative factor vanishing exactly on {x = 0, y <= 0}.

    gate(x, y) = x^2 + exp(-1/y) for y > 0, and x^2 otherwise (y NaN
    included).
    """
    pts = np.asarray(points, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    # exp(-1/y) underflows to 0 for y <= 1e-3, so y is raised to 1e-3 (NaN
    # included) without changing a value, and -1/y never divides by 0
    return x * x + np.exp(-1.0 / np.fmax(y, 1e-3))


def _f_unit_up(pts):
    pts = np.asarray(pts, dtype=float)
    out = np.zeros_like(pts)
    out[..., 1] = 1.0
    return out


def _f_gated(axis: int, negate: bool):
    """The example1 field whose only nonzero coordinate, axis, is the gate,
    negated when negate is set."""
    def field(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros_like(pts)
        gate = example1_gate(pts)
        out[..., axis] = -gate if negate else gate
        return out
    return field


_ALL_BITS = np.uint64(2**64 - 1)
_SIGN_BIT = np.uint64(2**63)
_ONE_BITS = np.float64(1.0).view(np.uint64)
# for each example1 field, the bits each coordinate keeps of the gate (&) and
# then flips (^): the up field's (0, 1) keeps none and sets 1.0; a pusher
# keeps the gate in its axis and flips the sign bit where it is negated,
# which is exactly what -gate does, to the sign of a zero or a NaN
_EXAMPLE1_KEEP = np.array([[0, 0], [0, _ALL_BITS], [_ALL_BITS, 0], [_ALL_BITS, 0]],
                          dtype=np.uint64)
_EXAMPLE1_FLIP = np.array([[0, _ONE_BITS], [0, _SIGN_BIT], [0, 0], [_SIGN_BIT, 0]],
                          dtype=np.uint64)


class _Example1Fields(FieldTable):
    """example1's four fields, whose rows evaluate the gate once for all
    rows, in any field order: each row's coordinates are the gate under the
    bit masks of its field, bound once per call of rows."""

    __slots__ = ()

    def rows(self, field):
        keep, flip = _EXAMPLE1_KEEP[field], _EXAMPLE1_FLIP[field]

        def f(u):
            gate = example1_gate(u)
            out = np.empty((gate.size, 2))
            out[:, 0] = out[:, 1] = gate
            bits = out.view(np.uint64)
            bits &= keep
            bits ^= flip
            return out
        return f


def builtin_corpus(name: str) -> SystemSpec:
    """Return one of the built-in systems by name (see BUILTIN_NAMES)."""
    if name == "so3":
        return bilinear_system(_rotation_generators_3d(), name="so3",
                               labels=("Lx", "Ly", "Lz"))
    if name == "planar_jd":
        return bilinear_system((PLANAR_ROTATION, PLANAR_HYPERBOLIC), name="planar_jd",
                               labels=("rotation", "hyperbolic"))
    if name == "expanding_pair":
        eye = np.eye(2)
        return bilinear_system((eye + PLANAR_ROTATION, eye + PLANAR_HYPERBOLIC),
                               name="expanding_pair",
                               labels=("spiral_out", "shear_out"))
    if name == "identity_only":
        return bilinear_system((np.eye(2),), name="identity_only", labels=("radial",))
    if name == "example1":
        return smooth_system(
            2,
            _Example1Fields((_f_unit_up, _f_gated(1, True), _f_gated(0, False),
                             _f_gated(0, True))),
            name="example1",
        )
    raise ValueError(f"unknown builtin system: {name!r} (choose from {BUILTIN_NAMES})")


def random_system(n: int, m: int, seed: int) -> SystemSpec:
    """m random n x n matrices with standard-normal entries, deterministic in seed."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((m, n, n))
    return bilinear_system(tuple(mats), name=f"random(n={n},m={m},seed={seed})")


# --- structured spec documents --------------------------------------------

def parse_system(text: str) -> SystemSpec:
    """Parse a JSON system document into a validated SystemSpec.

    Schema: n (integer), kind ("bilinear" default, or "builtin"), matrices
    (array of n x n row-major arrays of JSON numbers, not booleans), labels
    (optional strings), builtin_name (required when kind is "builtin"), name
    (optional).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid system document: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("system document must be a JSON object")
    kind = doc.get("kind", "bilinear")
    if kind == "builtin":
        name = doc.get("builtin_name")
        if not isinstance(name, str):
            raise ValueError("builtin document needs a builtin_name string")
        return builtin_corpus(name)
    if kind != "bilinear":
        raise ValueError(f"unknown kind: {kind!r}")

    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("field n must be a positive integer")
    raw = doc.get("matrices")
    if not isinstance(raw, list) or not raw:
        raise ValueError("field matrices must be a nonempty array")
    mats = []
    for k, rows in enumerate(raw):
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError(f"matrices[{k}] must be an array of rows")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for r in rows for v in r):
            raise ValueError(f"matrices[{k}] entries must be JSON numbers")
        ncols = {len(r) for r in rows}
        if len(ncols) != 1:
            raise ValueError(f"matrices[{k}] has ragged rows")
        if len(rows) != ncols.pop():
            raise ValueError(f"matrices[{k}] is not square")
        try:
            arr = np.array(rows, dtype=float)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"matrices[{k}] has entries beyond the float range") from None
        if arr.shape[0] != n:
            raise ValueError(f"matrices[{k}] has dimension {arr.shape[0]}, expected n = {n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"matrices[{k}] has non-finite entries")
        mats.append(arr)
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(mats):
            raise ValueError("labels must be an array matching the number of matrices")
        if not all(isinstance(s, str) for s in labels):
            raise ValueError("labels must be strings")
    return bilinear_system(mats, name=str(doc.get("name", "")), labels=labels)


def serialize_system(spec: SystemSpec) -> str:
    """Serialize a spec to its JSON document; inverse of parse_system."""
    if not spec.is_bilinear:
        if spec.name in BUILTIN_NAMES:
            doc = {"kind": "builtin", "builtin_name": spec.name}
            return json.dumps(doc, sort_keys=True, indent=2)
        raise ValueError("smooth systems are only serializable as builtins")
    doc = {
        "kind": "bilinear",
        "n": spec.n,
        "name": spec.name,
        "matrices": [m.tolist() for m in spec.family.matrices],
    }
    if spec.family.labels is not None:
        doc["labels"] = list(spec.family.labels)
    return json.dumps(doc, sort_keys=True, indent=2)
