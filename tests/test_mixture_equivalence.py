"""The array-native Mixture constructor against the object path it replaced.

The reference below is the constructor as it was when a Mixture stored a
tuple of (point, weight) pairs: each point checked and renormalized on its
own as a one-row `simplex_rows` call, exact duplicates folded with a dict,
near-duplicates merged by a sorted sweep, then the weights renormalized by
their input-order sum. The array path must give the same support order and
the same bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.errors import HocalError
from hocal.mixture import MERGE_TOL, mixture_from_arrays
from hocal.simplex import LabelSpace, simplex_rows


def _reference_merge(pairs):
    acc = {}
    for point, weight in pairs:
        if point in acc:
            acc[point] = (acc[point][0], acc[point][1] + weight)
        else:
            acc[point] = (point, weight)
    reps = sorted(acc.values(), key=lambda pw: pw[0])
    buf = np.empty((len(reps), len(reps[0][0])))
    kept = 0
    merged = []
    for point, weight in reps:
        row = np.asarray(point, dtype=float)
        target = None
        lo = int(np.searchsorted(buf[:kept, 0], row[0] - MERGE_TOL, side="left"))
        if lo < kept:
            dist = np.abs(buf[lo:kept] - row).sum(axis=1)
            hits = np.flatnonzero(dist <= MERGE_TOL)
            if hits.size:
                target = lo + int(hits[-1])
        if target is None:
            merged.append((point, weight))
            buf[kept] = row
            kept += 1
        else:
            merged[target] = (merged[target][0], merged[target][1] + weight)
    return merged


def reference_mixture(points, weights, space):
    """(coordinates, weight) pairs of the object-path constructor."""
    pairs = [
        (tuple(simplex_rows([tuple(map(float, p))])[0].tolist()), float(w))
        for p, w in zip(points, weights)
    ]
    if not pairs:
        raise HocalError("a mixture needs at least one support point")
    for point, weight in pairs:
        if len(point) != space.num_labels:
            raise HocalError("dimension")
        if not 0.0 < weight < math.inf:
            raise HocalError(f"weight {weight} is not positive and finite")
    total = 0.0  # left to right, as Python's `sum` up to 3.11
    for _, w in pairs:
        total += w
    if not abs(total - 1.0) <= 1e-9:
        raise HocalError(f"weights sum to {total}, expected 1")
    merged = _reference_merge(pairs)
    if total != 1.0:
        merged = [(p, w / total) for p, w in merged]
    return merged


def hexed(support):
    return [([x.hex() for x in probs], w.hex()) for probs, w in support]


def stored(mix):
    """The (coordinates, weight) pairs a mixture keeps, in stored order."""
    return list(zip(mix.points_array().tolist(), mix.weights_array().tolist()))


@st.composite
def supports(draw):
    """Rows over 2..12 labels with duplicates, near-duplicates, interlopers,
    tiny negative and signed-zero coordinates, and sums not exactly 1."""
    l = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        row = rng.dirichlet(np.full(l, draw(st.sampled_from([0.3, 1.0, 5.0]))))
        if draw(st.booleans()):
            j = int(rng.integers(l))
            row[(j + 1) % l] += row[j]
            row[j] = draw(st.sampled_from([0.0, -0.0, -1e-12, -3e-13]))
        rows.append(row)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            kind = draw(st.sampled_from(["copy", "near", "near-first", "rescaled"]))
            base = rows[int(rng.integers(len(rows)))]
            twin = base.copy()
            if kind == "near" or kind == "near-first":
                i = 0 if kind == "near-first" else int(rng.integers(l))
                j = int(np.argmax(twin))
                j = (i + 1) % l if j == i else j
                d = draw(st.sampled_from([1e-13, 2.5e-13, 4.9e-13, 6e-13]))
                twin[i] += d
                twin[j] -= d
                if kind == "near-first" and l > 2:
                    # a row sorted between the pair, far from both
                    mid = base.copy()
                    mid[0] += d / 2
                    mid[1:] = (1.0 - mid[0]) * rng.dirichlet(np.ones(l - 1))
                    rows.append(mid)
            elif kind == "rescaled":
                twin = twin * (1.0 + draw(st.sampled_from([2e-16, -2e-16, 4e-10, -7e-10])))
            rows.append(twin)
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    raw = rng.random(len(rows)) + 0.01
    weights = raw / raw.sum()
    if draw(st.booleans()):
        weights = weights * (1.0 + 3e-10)
    return l, rows, weights.tolist()


def _outcome(build):
    try:
        return ("ok", hexed(build()))
    except HocalError as exc:
        return ("error", str(exc))


@settings(deadline=None, max_examples=300)
@given(supports(), st.sampled_from(["tuples", "array"]))
def test_array_constructor_matches_the_object_path(case, form):
    l, rows, weights = case
    space = LabelSpace(l)
    inputs = [tuple(r.tolist()) for r in rows]
    if form == "array":
        inputs = np.array(inputs)
    expected = _outcome(lambda: reference_mixture(list(inputs), weights, space))
    got = _outcome(lambda: stored(mixture_from_arrays(inputs, weights, space)))
    assert got == expected


def test_near_duplicates_apart_in_sorted_order_merge():
    # b is within 1e-12 of a but c sorts between them; the sweep still merges b
    a = (0.2, 0.3, 0.5)
    b = (0.2 + 2e-13, 0.3, 0.5 - 2e-13)
    c = (0.2 + 1e-13, 0.1, 0.7 - 1e-13)
    mix = mixture_from_arrays([c, b, a], [0.2, 0.3, 0.5], LabelSpace(3))
    assert hexed(reference_mixture([c, b, a], [0.2, 0.3, 0.5], LabelSpace(3))) == hexed(
        stored(mix)
    )
    assert mix.size == 2


def test_signed_zero_is_kept_from_the_first_occurrence():
    space = LabelSpace(2)
    mix = mixture_from_arrays([(-0.0, 1.0), (0.0, 1.0)], [0.5, 0.5], space)
    assert mix.size == 1
    assert math.copysign(1.0, mix.points_array()[0, 0]) == -1.0
    mix = mixture_from_arrays([(0.0, 1.0), (-0.0, 1.0)], [0.5, 0.5], space)
    assert math.copysign(1.0, mix.points_array()[0, 0]) == 1.0


def test_mixture_equality_is_exact_and_unhashable():
    space = LabelSpace(2)
    a = mixture_from_arrays([(0.5, 0.5), (0.25, 0.75)], [0.5, 0.5], space)
    b = mixture_from_arrays([(0.25, 0.75), (0.5, 0.5)], [0.5, 0.5], space)
    c = mixture_from_arrays([(0.25, 0.75), (0.5, 0.5)], [0.5 + 1e-16, 0.5 - 1e-16], space)
    assert a == b
    assert a != c
    assert a != mixture_from_arrays([(0.5, 0.5)], [1.0], space)
    with pytest.raises(TypeError):
        hash(a)


def test_the_per_point_layer_is_gone():
    # 0.2.0 removed the per-point objects and wrappers; each has an array form
    import hocal

    removed = [
        "SimplexPoint", "Snapshot", "l1_distance", "snapshot_to_point", "empirical_mixture",
        "entropy_value", "gradient", "divergence", "proper_loss", "moment_weight",
    ]
    assert [name for name in removed if hasattr(hocal, name)] == []
    assert not hasattr(hocal.Mixture, "support")
    assert not hasattr(hocal.PredictionSet, "contains")
    assert not hasattr(hocal.IntervalSet, "contains")
