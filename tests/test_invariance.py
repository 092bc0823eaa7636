"""Invariances of the rank stages, as seeded loops.

Positive rescaling of one generator, reordering and duplicating generators
leave the attainable sets unchanged; a change of coordinates M -> P M P^-1
maps them by P.  None of these may change the closure dimension, whether a
rank-drop witness is found, or the angular status.  The monotone-norm
certificate is checked too, except under conjugation: it depends on the
Euclidean metric, which P does not preserve.
"""

import numpy as np

from bilinctrl.analysis import (
    angular_accessibility,
    min_rank_search,
    monotone_norm_certificate,
)
from bilinctrl.matlie import lie_closure
from bilinctrl.model import bilinear_system, builtin_corpus, random_system

from test_analysis import THIN


def _families():
    for name in ("so3", "planar_jd", "expanding_pair", "identity_only"):
        yield name, builtin_corpus(name).family.matrices
    for k, mats in enumerate(THIN):
        yield f"thin{k}", tuple(np.asarray(m, dtype=float) for m in mats)
    for n in (2, 3):
        for k in range(4):
            spec = random_system(n, 2, 5000 + 10 * n + k)
            yield spec.name, spec.family.matrices


def _profile(mats, seed):
    spec = bilinear_system(list(mats))
    basis = lie_closure(spec.family.matrices)
    return (basis.dim,
            min_rank_search(spec, seed=seed, basis=basis).is_witness,
            angular_accessibility(spec, samples=500, seed=seed, basis=basis).status,
            monotone_norm_certificate(spec.family) is not None)


def _well_conditioned(rng, n):
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(np.linspace(1.0, 3.0, n)) @ q2


def test_rank_stages_invariant_under_rescaling_reordering_duplication():
    for seed, (name, mats) in enumerate(_families()):
        base = _profile(mats, seed)
        last = len(mats) - 1
        variants = {
            "scale up": [1e3 * m if i == last else m for i, m in enumerate(mats)],
            "scale down": [1e-3 * m if i == 0 else m for i, m in enumerate(mats)],
            "reversed": list(mats[::-1]),
            "duplicated": list(mats) + [mats[0]],
        }
        # the largest entry of one generator at the ends of the float range
        for peak in (1e-300, 1e300, 1e308):
            m = mats[last]
            variants[f"peak {peak:g}"] = list(mats[:last]) + [m * (peak / np.abs(m).max())]
        for label, variant in variants.items():
            assert _profile(variant, seed) == base, (name, label)


def test_monotone_certificate_needs_finite_eigenvalues():
    # the symmetric part of 1e308 [[1, 1], [1, 1]] has eigenvalue 2e308,
    # which overflows: its norm derivative is not certified, least of all
    # as constant
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    for peak in (1.0, 1e300, 1e308):
        cert = monotone_norm_certificate(bilinear_system([peak * np.ones((2, 2)), J]).family)
        if peak < 1e308:
            assert cert.direction == "nondecreasing", peak
        else:
            assert cert is None


def test_rank_stages_invariant_under_conjugation():
    rng = np.random.default_rng(11)
    for seed, (name, mats) in enumerate(_families()):
        p = _well_conditioned(rng, mats[0].shape[0])
        p_inv = np.linalg.inv(p)
        conj = [p @ m @ p_inv for m in mats]
        assert _profile(conj, seed)[:3] == _profile(mats, seed)[:3], name
