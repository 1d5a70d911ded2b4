import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.errors import CapExceeded, DimensionMismatch, InvalidDistribution
from hocal.simplex import (
    LabelSpace,
    SimplexPoint,
    Snapshot,
    enumerate_snapshot_space,
    l1_distance,
    snapshot_space_size,
    snapshot_to_point,
)


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


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
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