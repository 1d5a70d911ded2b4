import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.errors import CapExceeded, DimensionMismatch, InvalidDistribution
from hocal.mixture import _lattice_rank
from hocal.simplex import (
    LabelSpace,
    SimplexPoint,
    Snapshot,
    _snapshot_counts,
    enumerate_snapshot_space,
    l1_distance,
    simplex_rows,
    snapshot_space_size,
    snapshot_to_point,
)


def left_to_right(terms):
    """0.0 + terms[0] + terms[1] + ..., one rounding per step on any Python."""
    total = 0.0
    for t in terms:
        total += t
    return total


def reference_simplex_point(probs):
    """The simplex-point rule as SimplexPoint once checked it, one entry at a time."""
    probs = tuple(float(p) for p in probs)
    if len(probs) < 2:
        raise InvalidDistribution("a simplex point needs at least 2 entries")
    if any(p < -1e-12 for p in probs):
        raise InvalidDistribution(f"negative probability in {probs}")
    probs = tuple(max(p, 0.0) for p in probs)
    total = left_to_right(probs)
    if not math.isfinite(total):
        raise InvalidDistribution(f"non-finite probability in {probs}")
    if abs(total - 1.0) > 1e-9:
        raise InvalidDistribution(f"probabilities sum to {total}, expected 1")
    return tuple(p / total for p in probs) if total != 1.0 else probs


def reference_compositions(total, slots):
    """The recursive generator that once fixed the lattice order."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in reference_compositions(total - first, slots - 1):
            yield (first,) + rest


def outcome(rule, probs):
    try:
        return tuple(x.hex() for x in rule(probs))
    except InvalidDistribution as exc:
        return str(exc)


def test_label_space_rejects_degenerate_sizes():
    with pytest.raises(InvalidDistribution):
        LabelSpace(1)
    with pytest.raises(InvalidDistribution):
        LabelSpace(0)
    assert LabelSpace(2).num_labels == 2


def test_simplex_point_normalizes_exactly():
    p = SimplexPoint((0.3, 0.7 + 3e-10))
    assert abs(sum(p.probs) - 1.0) == 0.0


def test_simplex_point_clamps_tiny_negatives():
    p = SimplexPoint((-1e-13, 1.0))
    assert p.probs[0] == 0.0


def test_simplex_point_rejects_bad_vectors():
    with pytest.raises(InvalidDistribution):
        SimplexPoint((0.5, 0.6))
    with pytest.raises(InvalidDistribution):
        SimplexPoint((-0.1, 1.1))
    with pytest.raises(InvalidDistribution):
        SimplexPoint((1.0,))
    for bad in ((math.nan, 1.0), (0.5, math.nan), (math.inf, 0.0), (math.inf, -math.inf)):
        with pytest.raises(InvalidDistribution):
            SimplexPoint(bad)


BAD_ROWS = [
    (0.5, 0.6),
    (-0.1, 1.1),
    (1.0,),
    (),
    (math.nan, 1.0),
    (0.5, math.nan),
    (math.inf, 0.0),
    (math.inf, -math.inf),
    (-1e-13, math.nan),
    (-0.0, -0.0),
    (0.0, 0.0, 0.0),
    (0.2, 0.3, 0.4),
]


@pytest.mark.parametrize("probs", BAD_ROWS)
def test_simplex_point_errors_are_the_reference_rule_messages(probs):
    want = outcome(reference_simplex_point, probs)
    assert outcome(lambda p: SimplexPoint(p).probs, probs) == want
    if len(probs) >= 2:  # the first bad row of an array raises the same error
        good = (1.0,) + (0.0,) * (len(probs) - 1)
        assert outcome(lambda p: simplex_rows([good, p, p[::-1]])[1], probs) == want


def test_simplex_point_still_refuses_none():
    with pytest.raises(TypeError):
        SimplexPoint((None, 1.0))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(min_value=-2e-12, max_value=1.0), min_size=2, max_size=6))
def test_simplex_rows_is_the_reference_rule(raw):
    rows = [raw, [p * (1.0 + 1e-10) for p in raw]]
    total = left_to_right(raw)
    if total > 0.0:
        rows += [[p / total for p in raw], [p / total * (1.0 - 3e-10) for p in raw]]
    for row in rows:
        want = outcome(reference_simplex_point, row)
        assert outcome(lambda p: SimplexPoint(p).probs, row) == want
        if not isinstance(want, str):
            assert outcome(lambda p: simplex_rows([p])[0], row) == want


def test_bias_is_binary_only():
    assert SimplexPoint((0.3, 0.7)).bias == 0.7
    with pytest.raises(DimensionMismatch):
        SimplexPoint((0.2, 0.3, 0.5)).bias


def test_snapshot_counts():
    s = Snapshot((1, 1))
    assert s.k == 2
    assert s.dim == 2
    with pytest.raises(InvalidDistribution):
        Snapshot((0, 0))
    with pytest.raises(InvalidDistribution):
        Snapshot((-1, 2))


def test_snapshot_to_point():
    assert snapshot_to_point(Snapshot((1, 1))).probs == (0.5, 0.5)
    assert snapshot_to_point(Snapshot((0, 3))).probs == (0.0, 1.0)


def test_l1_distance_examples():
    a = SimplexPoint((1.0, 0.0))
    b = SimplexPoint((0.0, 1.0))
    assert l1_distance(a, b) == 2.0
    assert l1_distance(a, a) == 0.0
    with pytest.raises(DimensionMismatch):
        l1_distance(a, SimplexPoint((0.2, 0.3, 0.5)))


def test_snapshot_space_size_matches_binomial():
    assert snapshot_space_size(LabelSpace(2), 2) == 3
    assert snapshot_space_size(LabelSpace(3), 2) == 6
    assert snapshot_space_size(LabelSpace(2), 12) == 13
    assert snapshot_space_size(LabelSpace(4), 32) == math.comb(35, 3)


def test_enumeration_order_is_ascending_label1_frequency():
    snaps = enumerate_snapshot_space(LabelSpace(2), 2)
    assert [s.counts for s in snaps] == [(2, 0), (1, 1), (0, 2)]


def test_enumeration_covers_the_lattice():
    space = LabelSpace(3)
    snaps = enumerate_snapshot_space(space, 4)
    assert len(snaps) == snapshot_space_size(space, 4)
    assert len(set(s.counts for s in snaps)) == len(snaps)
    assert all(s.k == 4 for s in snaps)


@pytest.mark.parametrize("num_labels", [2, 3, 4, 5])
def test_enumeration_matches_the_recursive_reference(num_labels):
    space = LabelSpace(num_labels)
    for k in range(1, 13):
        want = list(reference_compositions(k, num_labels))
        assert [s.counts for s in enumerate_snapshot_space(space, k)] == want
        counts = _snapshot_counts(space, k)
        assert counts.dtype == np.int64 and counts.tolist() == [list(c) for c in want]
        assert np.array_equal(_lattice_rank(counts, k), np.arange(len(want)))


@pytest.mark.parametrize("num_labels,k", [(3, 32), (4, 24), (5, 40)])
def test_lattice_rank_inverts_the_enumeration_on_large_lattices(num_labels, k):
    counts = _snapshot_counts(LabelSpace(num_labels), k)
    assert len(counts) == snapshot_space_size(LabelSpace(num_labels), k)
    assert (counts.sum(axis=1) == k).all() and counts.min() >= 0
    assert np.array_equal(_lattice_rank(counts, k), np.arange(len(counts)))


def test_enumeration_refuses_sizes_below_one():
    with pytest.raises(InvalidDistribution, match="snapshot size must be >= 1, got 0"):
        enumerate_snapshot_space(LabelSpace(3), 0)


def test_enumeration_cap():
    with pytest.raises(CapExceeded, match="snapshot space has 6545 points, above the cap of 100"):
        enumerate_snapshot_space(LabelSpace(4), 32, cap=100)


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=8),
)
def test_enumeration_size_property(num_labels, k):
    snaps = enumerate_snapshot_space(LabelSpace(num_labels), k)
    assert len(snaps) == math.comb(k + num_labels - 1, num_labels - 1)


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
)
def test_l1_triangle_inequality(xs, ys, zs):
    a = SimplexPoint(tuple(x / sum(xs) for x in xs))
    b = SimplexPoint(tuple(y / sum(ys) for y in ys))
    c = SimplexPoint(tuple(z / sum(zs) for z in zs))
    assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12
    assert abs(l1_distance(a, b) - l1_distance(b, a)) <= 1e-15