import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.errors import CapExceeded, DimensionMismatch, DomainError, InvalidDistribution
from hocal.mixture import Mixture, _lattice_rank, project_k
from hocal.simplex import (
    LabelSpace,
    enumerate_snapshot_space,
    l1_rows,
    simplex_rows,
    snapshot_space_size,
)


def left_to_right(terms):
    """0.0 + terms[0] + terms[1] + ..., one rounding per step on any Python."""
    total = 0.0
    for t in terms:
        total += t
    return total


def reference_simplex_point(probs):
    """The simplex-point rule, one entry at a time."""
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
    # one integer rule: numpy integers are stored as Python ints, bools refused
    for flag in (True, np.bool_(True)):
        with pytest.raises(InvalidDistribution):
            LabelSpace(flag)
    space = LabelSpace(np.int64(3))
    assert type(space.num_labels) is int and space == LabelSpace(3)
    with pytest.raises(InvalidDistribution):
        LabelSpace(np.int64(1))


def test_simplex_rows_normalize_exactly():
    p = simplex_rows([(0.3, 0.7 + 3e-10)])[0]
    assert abs(sum(p) - 1.0) == 0.0


def test_simplex_rows_clamp_tiny_negatives():
    p = simplex_rows([(-1e-13, 1.0)])[0]
    assert p[0] == 0.0


def test_simplex_rows_reject_bad_vectors():
    with pytest.raises(InvalidDistribution):
        simplex_rows([(0.5, 0.6)])
    with pytest.raises(InvalidDistribution):
        simplex_rows([(-0.1, 1.1)])
    with pytest.raises(InvalidDistribution):
        simplex_rows([(1.0,)])
    for bad in ((math.nan, 1.0), (0.5, math.nan), (math.inf, 0.0), (math.inf, -math.inf)):
        with pytest.raises(InvalidDistribution):
            simplex_rows([bad])


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
def test_simplex_rows_errors_are_the_reference_rule_messages(probs):
    want = outcome(reference_simplex_point, probs)
    assert outcome(lambda p: simplex_rows([p])[0], probs) == want
    if len(probs) >= 2:  # the first bad row of an array raises the same error
        good = (1.0,) + (0.0,) * (len(probs) - 1)
        assert outcome(lambda p: simplex_rows([good, p, p[::-1]])[1], probs) == want


def test_mixture_rows_still_refuse_none():
    with pytest.raises(TypeError):
        Mixture([(None, 1.0)], [1.0], LabelSpace(2))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(min_value=-2e-12, max_value=1.0), min_size=2, max_size=6))
def test_simplex_rows_is_the_reference_rule(raw):
    rows = [raw, [p * (1.0 + 1e-10) for p in raw]]
    total = left_to_right(raw)
    if total > 0.0:
        rows += [[p / total for p in raw], [p / total * (1.0 - 3e-10) for p in raw]]
    for row in rows:
        want = outcome(reference_simplex_point, row)
        assert outcome(lambda p: simplex_rows([p])[0], row) == want


def test_l1_rows_examples():
    a, b = (1.0, 0.0), (0.0, 1.0)
    assert l1_rows(np.array([a, b]), a).tolist() == [0.0, 2.0]
    with pytest.raises(DimensionMismatch):
        l1_rows(np.array([a]), (0.2, 0.3, 0.5))


def test_snapshot_space_size_matches_binomial():
    assert snapshot_space_size(LabelSpace(2), 2) == 3
    assert snapshot_space_size(LabelSpace(3), 2) == 6
    assert snapshot_space_size(LabelSpace(2), 12) == 13
    assert snapshot_space_size(LabelSpace(4), 32) == math.comb(35, 3)


def test_enumeration_order_is_ascending_label1_frequency():
    counts = enumerate_snapshot_space(LabelSpace(2), 2)
    assert counts.tolist() == [[2, 0], [1, 1], [0, 2]]


def test_enumeration_covers_the_lattice():
    space = LabelSpace(3)
    counts = enumerate_snapshot_space(space, 4)
    assert len(counts) == snapshot_space_size(space, 4)
    assert len(set(map(tuple, counts.tolist()))) == len(counts)
    assert (counts.sum(axis=1) == 4).all()


@pytest.mark.parametrize("num_labels", [2, 3, 4, 5])
def test_enumeration_matches_the_recursive_reference(num_labels):
    space = LabelSpace(num_labels)
    for k in range(1, 13):
        want = list(reference_compositions(k, num_labels))
        counts = enumerate_snapshot_space(space, k)
        assert counts.dtype == np.int64 and counts.tolist() == [list(c) for c in want]
        assert np.array_equal(_lattice_rank(counts, k), np.arange(len(want)))


@pytest.mark.parametrize("num_labels,k", [(3, 32), (4, 24), (5, 40)])
def test_lattice_rank_inverts_the_enumeration_on_large_lattices(num_labels, k):
    counts = enumerate_snapshot_space(LabelSpace(num_labels), k)
    assert len(counts) == snapshot_space_size(LabelSpace(num_labels), k)
    assert (counts.sum(axis=1) == k).all() and counts.min() >= 0
    assert np.array_equal(_lattice_rank(counts, k), np.arange(len(counts)))


def test_enumeration_refuses_sizes_below_one():
    with pytest.raises(DomainError, match="snapshot size must be >= 1, got 0"):
        enumerate_snapshot_space(LabelSpace(3), 0)


@pytest.mark.parametrize("k", [True, np.True_, 2.5, "2", np.array(2.0), np.array([2])])
def test_lattice_sizes_must_be_integers(k):
    # k = True once enumerated (and projected onto) the k = 1 lattice
    with pytest.raises(DomainError, match="snapshot size must be an integer"):
        enumerate_snapshot_space(LabelSpace(3), k)
    m = Mixture(np.array([[0.2, 0.3, 0.5]]), np.array([1.0]), LabelSpace(3))
    with pytest.raises(DomainError, match="snapshot size must be an integer"):
        project_k(m, k)
    assert project_k(m, np.int64(2)) == project_k(m, 2)


def test_enumeration_cap():
    with pytest.raises(
        CapExceeded, match="snapshot space has 1004731 points, above the cap of 1000000"
    ):
        enumerate_snapshot_space(LabelSpace(4), 180)


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=8),
)
def test_enumeration_size_property(num_labels, k):
    counts = enumerate_snapshot_space(LabelSpace(num_labels), k)
    assert counts.shape == (math.comb(k + num_labels - 1, num_labels - 1), num_labels)


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
)
def test_l1_triangle_inequality(xs, ys, zs):
    a, b, c = simplex_rows([[x / sum(v) for x in v] for v in (xs, ys, zs)])

    def l1(p, q):
        return float(l1_rows(p[None], q)[0])

    assert l1(a, c) <= l1(a, b) + l1(b, c) + 1e-12
    assert abs(l1(a, b) - l1(b, a)) <= 1e-15