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
from hocal.simplex import LabelSpace, Snapshot

BINARY = LabelSpace(2)


def make_dataset(records, k=2):
    return SnapshotDataset(records=tuple(records), space=BINARY, k=k)


def test_posthoc_calibrate_empirical_mixtures():
    ds = make_dataset(
        [
            ("a", Snapshot((2, 0))),
            ("a", Snapshot((2, 0))),
            ("a", Snapshot((1, 1))),
            ("b", Snapshot((0, 2))),
        ]
    )
    table = posthoc_calibrate(ds)
    assert table.partitions == ["a", "b"]
    assert table.counts == {"a": 3, "b": 1}
    got = {p.probs: w for p, w in table.entries["a"].support}
    assert got[(1.0, 0.0)] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert got[(0.5, 0.5)] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert table.entries["b"].size == 1


def test_posthoc_calibrate_missing_partition_policy():
    ds = make_dataset([("a", Snapshot((1, 1)))])
    with pytest.raises(EmptyPartition):
        posthoc_calibrate(ds, partitions=["a", "b"])
    table = posthoc_calibrate(ds, partitions=["a", "b"], fill_missing=True)
    assert table.counts["b"] == 0
    got = {p.probs: w for p, w in table.entries["b"].support}
    assert got == {(1.0, 0.0): 0.5, (0.0, 1.0): 0.5}


def test_dataset_validation():
    with pytest.raises(DimensionMismatch):
        make_dataset([("a", Snapshot((1, 1, 1)))])  # wrong label count
    with pytest.raises(InvalidDistribution):
        make_dataset([("a", Snapshot((1, 2)))])  # k mismatch


def test_dataset_check_names_the_first_bad_record():
    three = LabelSpace(3)
    good, big, short = Snapshot((1, 1, 0)), Snapshot((3, 0, 0)), Snapshot((1, 1))
    with pytest.raises(InvalidDistribution, match="partition 'b': snapshot of size 3, expected 2"):
        SnapshotDataset([("a", good), ("b", big), ("c", short)], three, 2)
    with pytest.raises(
        DimensionMismatch, match="partition 'c': snapshot over 2 labels in a 3-label dataset"
    ):
        SnapshotDataset([("a", good), ("c", short), ("b", big)], three, 2)
    with pytest.raises(
        DimensionMismatch, match="partition 'd': snapshot over 4 labels in a 3-label dataset"
    ):
        SnapshotDataset([("a", good), ("d", Snapshot((1, 1, 0, 0)))], three, 2)
    counts = np.array([[1, 1, 0], [3, -1, 0]])
    with pytest.raises(InvalidDistribution, match="partition 'x': negative count in a snapshot"):
        SnapshotDataset._from_columns(counts, np.array([0, 1]), ["y", "x"], three, 2)
    with pytest.raises(
        DimensionMismatch, match="partition 'y': snapshot over 2 labels in a 3-label dataset"
    ):
        SnapshotDataset._from_columns(np.array([[1, 1]]), np.array([0]), ["y"], three, 2)
    empty = SnapshotDataset([], three, 2)
    assert len(empty) == 0 and empty.counts.shape == (0, 3) and empty.names == ()


def test_table_entries_must_sit_on_the_lattice():
    off = mixture_from_arrays([(0.7, 0.3)], [1.0], BINARY)
    with pytest.raises(InvalidDistribution):
        CalibrationTable(entries={"a": off}, k=2, space=BINARY, counts=None)
    on = mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)
    CalibrationTable(entries={"a": on}, k=2, space=BINARY, counts=None)


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