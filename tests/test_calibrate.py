import math

import numpy as np
import pytest

from hocal.calibrate import (
    CalibrationTable,
    SnapshotDataset,
    hoc_bound,
    koc_error,
    posthoc_calibrate,
    required_samples,
)
from hocal.errors import (
    DimensionMismatch,
    DomainError,
    EmptyPartition,
    InvalidDistribution,
)
from hocal.mixture import mixture_from_arrays
from hocal.simplex import LabelSpace

BINARY = LabelSpace(2)


def make_dataset(records, k=2, space=BINARY):
    """A dataset from (partition, counts) pairs, one code per record."""
    pids = [pid for pid, _ in records]
    return SnapshotDataset([c for _, c in records], range(len(records)), pids, space, k)


def support(m):
    """point tuple -> weight"""
    return dict(zip(map(tuple, m.points_array().tolist()), m.weights_array().tolist()))


def test_posthoc_calibrate_empirical_mixtures():
    ds = make_dataset([("a", (2, 0)), ("a", (2, 0)), ("a", (1, 1)), ("b", (0, 2))])
    table = posthoc_calibrate(ds)
    assert table.partitions == ["a", "b"]
    assert table.counts == {"a": 3, "b": 1}
    got = support(table.entries["a"])
    assert got[(1.0, 0.0)] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert got[(0.5, 0.5)] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert table.entries["b"].size == 1


def test_posthoc_calibrate_missing_partition_policy():
    ds = make_dataset([("a", (1, 1))])
    with pytest.raises(EmptyPartition):
        posthoc_calibrate(ds, partitions=["a", "b"])
    table = posthoc_calibrate(ds, partitions=["a", "b"], fill_missing=True)
    assert table.counts["b"] == 0
    assert support(table.entries["b"]) == {(1.0, 0.0): 0.5, (0.0, 1.0): 0.5}


def test_dataset_validation():
    with pytest.raises(DimensionMismatch):
        make_dataset([("a", (1, 1, 1))])  # wrong label count
    with pytest.raises(InvalidDistribution):
        make_dataset([("a", (1, 2))])  # k mismatch
    with pytest.raises(InvalidDistribution, match="snapshot size must be >= 1, got 0"):
        make_dataset([("a", (0, 0))], k=0)


def test_dataset_check_names_the_first_bad_record():
    three = LabelSpace(3)
    good, big = (1, 1, 0), (3, 0, 0)
    with pytest.raises(InvalidDistribution, match="partition 'b': snapshot of size 3, expected 2"):
        make_dataset([("a", good), ("b", big), ("c", big)], space=three)
    counts = np.array([[1, 1, 0], [3, -1, 0]])
    with pytest.raises(InvalidDistribution, match="partition 'x': negative count in a snapshot"):
        SnapshotDataset(counts, np.array([0, 1]), ["y", "x"], three, 2)
    with pytest.raises(
        DimensionMismatch, match=r"count matrix of shape \(1, 2\) in a 3-label dataset"
    ):
        SnapshotDataset(np.array([[1, 1]]), np.array([0]), ["y"], three, 2)
    with pytest.raises(
        DimensionMismatch, match=r"count matrix of shape \(0,\) in a 3-label dataset"
    ):
        SnapshotDataset([], [], [], three, 2)
    empty = SnapshotDataset(np.zeros((0, 3)), [], [], three, 2)
    assert len(empty) == 0 and empty.counts.shape == (0, 3) and empty.names == ()


def test_dataset_codes_must_index_names_one_per_record():
    with pytest.raises(InvalidDistribution, match="1 codes for 2 count rows"):
        SnapshotDataset([[1, 1], [2, 0]], [0], ["a"], BINARY, 2)
    for bad in (1, -1):
        with pytest.raises(InvalidDistribution, match=r"partition code outside \[0, 1\)"):
            SnapshotDataset([[1, 1], [2, 0]], [0, bad], ["a"], BINARY, 2)


def test_dataset_copies_the_callers_counts():
    counts = np.array([[1, 1], [2, 0]])
    ds = SnapshotDataset(counts, [0, 0], ["a"], BINARY, 2)
    counts[0, 0] = 5  # the caller's array stays writable
    assert ds.counts.tolist() == [[1, 1], [2, 0]]
    with pytest.raises(ValueError):
        ds.counts[0, 0] = 5


def test_table_entries_must_sit_on_the_lattice():
    off = mixture_from_arrays([(0.7, 0.3)], [1.0], BINARY)
    with pytest.raises(InvalidDistribution):
        CalibrationTable(entries={"a": off}, k=2, space=BINARY, counts=None)
    on = mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)
    CalibrationTable(entries={"a": on}, k=2, space=BINARY, counts=None)


def test_table_keeps_only_the_entries_it_checked():
    # a change to the caller's dicts after construction, or to the table's
    # own mappings, would skip the lattice check
    on = mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)
    off = mixture_from_arrays([(0.3, 0.7)], [1.0], BINARY)
    entries, counts = {"a": on}, {"a": 3}
    t = CalibrationTable(entries=entries, k=2, space=BINARY, counts=counts)
    entries["b"], counts["a"] = off, 7
    assert t.partitions == ["a"]
    assert t.counts == {"a": 3}
    with pytest.raises(TypeError):
        t.entries["b"] = off
    with pytest.raises(TypeError):
        t.counts["a"] = 7
    assert t.partitions == ["a"]


def test_koc_error_weighted_mean_hand_case():
    table = CalibrationTable(
        entries={
            "a": mixture_from_arrays([(1.0, 0.0)], [1.0], BINARY),
            "b": mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY),
        },
        k=2,
        space=BINARY,
        counts={"a": 3, "b": 1},
    )
    reference = CalibrationTable(
        entries={
            "a": mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY),
            "b": mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY),
        },
        k=2,
        space=BINARY,
        counts=None,
    )
    score = koc_error(table, reference)
    assert score.per_partition["a"] == pytest.approx(1.0, abs=1e-12)
    assert score.per_partition["b"] == pytest.approx(0.0, abs=1e-12)
    assert score.worst == pytest.approx(1.0, abs=1e-12)
    assert score.weighted_mean == pytest.approx(0.75, abs=1e-12)


def test_koc_error_identical_tables():
    table = CalibrationTable(
        entries={"a": mixture_from_arrays([(0.5, 0.5), (1.0, 0.0)], [0.5, 0.5], BINARY)},
        k=2,
        space=BINARY,
        counts=None,
    )
    score = koc_error(table, table)
    assert score.worst == pytest.approx(0.0, abs=1e-12)


def test_koc_error_key_mismatch():
    t1 = CalibrationTable(
        entries={"a": mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)},
        k=2, space=BINARY, counts=None,
    )
    t2 = CalibrationTable(
        entries={"b": mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)},
        k=2, space=BINARY, counts=None,
    )
    with pytest.raises(InvalidDistribution):
        koc_error(t1, t2)


def test_koc_error_k_mismatch():
    t1 = CalibrationTable(
        entries={"a": mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)},
        k=2, space=BINARY, counts=None,
    )
    t2 = CalibrationTable(
        entries={"a": mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)},
        k=4, space=BINARY, counts=None,
    )
    with pytest.raises(InvalidDistribution):
        koc_error(t1, t2)


def test_required_samples_frozen_values():
    assert required_samples(BINARY, 2, 0.1, 0.05) == 1016
    # 2 (3 ln 2 + ln 20) / 0.04 = 253.8...
    assert required_samples(BINARY, 2, 0.2, 0.05) == 254


def test_required_samples_formula():
    size = math.comb(4 + 3 - 1, 3 - 1)
    expected = math.ceil(2 * (size * math.log(2) + math.log(10)) / 0.01)
    assert required_samples(LabelSpace(3), 4, 0.1, 0.1) == expected


def test_required_samples_domain():
    with pytest.raises(DomainError):
        required_samples(BINARY, 2, 0.0, 0.05)
    with pytest.raises(DomainError):
        required_samples(BINARY, 2, 0.1, 1.0)


def test_hoc_bound():
    assert hoc_bound(0.1, BINARY, 4) == pytest.approx(0.1 + 2 / (2 * 2), abs=1e-15)
    assert hoc_bound(0.0, LabelSpace(3), 9) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        hoc_bound(-0.1, BINARY, 4)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            hoc_bound(bad, BINARY, 4)


def test_table_and_dataset_space_checks():
    t1 = CalibrationTable(
        entries={"a": mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)},
        k=2, space=BINARY, counts=None,
    )
    t3 = CalibrationTable(
        entries={"a": mixture_from_arrays([(1.0, 0.0, 0.0)], [1.0], LabelSpace(3))},
        k=2, space=LabelSpace(3), counts=None,
    )
    with pytest.raises(DimensionMismatch):
        koc_error(t1, t3)