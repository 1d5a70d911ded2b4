import math
import re

import numpy as np
import pytest

import hocal.calibrate
from hocal.calibrate import (
    CalibrationTable,
    SnapshotDataset,
    hoc_bound,
    koc_error,
    posthoc_calibrate,
    required_samples,
)
from hocal.errors import (
    CapExceeded,
    DimensionMismatch,
    DomainError,
    EmptyPartition,
    InvalidDistribution,
)
from hocal.mixture import mixture_from_arrays, project_k
from hocal.simplex import LabelSpace
from hocal.transport import wasserstein1

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
    with pytest.raises(DomainError, match="snapshot size must be >= 1, got 0"):
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


@pytest.mark.parametrize("counts,codes,bad", [
    ([[1.7, 0.3]], [0], "count 1.7"),
    ([[np.nan, 1.0]], [0], "count nan"),
    ([[np.inf, 1.0]], [0], "count inf"),
    ([[1e30, 1.0]], [0], "count 1e+30"),
    ([[1, 0]], [0.5], "partition code 0.5"),
    ([[1, 0]], [np.nan], "partition code nan"),
])
def test_dataset_refuses_counts_and_codes_that_are_not_integers(counts, codes, bad):
    # a fractional count or code was once truncated toward zero, and a NaN
    # count raised numpy's bare ValueError
    with pytest.raises(InvalidDistribution, match=re.escape(f"{bad} is not an int64 integer")):
        SnapshotDataset(counts, codes, ["a"], BINARY, 1)
    ds = SnapshotDataset([[2.0, 0.0], [1.0, 1.0]], [0.0, 0.0], ["a"], BINARY, 2)
    assert ds.counts.dtype == ds.codes.dtype == np.int64
    assert ds.counts.tolist() == [[2, 0], [1, 1]]


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


@pytest.mark.parametrize("k", [0, -1, True, np.True_, 2.0, "2", float("nan"), None])
def test_snapshot_size_must_be_an_integer_of_at_least_one(k):
    on = mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)
    with pytest.raises(DomainError, match="snapshot size must be"):
        CalibrationTable(entries={"a": on}, k=k, space=BINARY)
    with pytest.raises(DomainError, match="snapshot size must be"):
        SnapshotDataset([(1, 1)], [0], ["a"], BINARY, k)


def test_numpy_snapshot_sizes_are_stored_as_python_ints():
    # a numpy k once reached koc_error unconverted, where w1_lattice refused it
    space = LabelSpace(3)
    m = mixture_from_arrays([(0.5, 0.25, 0.25), (0.0, 0.0, 1.0)], [0.5, 0.5], space)
    table = CalibrationTable(entries={"a": m}, k=np.int64(4), space=space)
    assert type(table.k) is int and table.k == 4
    ds = SnapshotDataset([(2, 1, 1)], [0], ["a"], space, np.int32(4))
    assert type(ds.k) is int and ds.k == 4
    assert koc_error(table, table).worst == 0.0


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


@pytest.mark.parametrize("counts,message", [
    ({"a": math.nan}, "partition 'a': count nan is not a non-negative integer"),
    ({"a": -3}, "partition 'a': count -3 is not a non-negative integer"),
    ({"a": 1.5}, "partition 'a': count 1.5 is not a non-negative integer"),
    ({"a": 2.0}, "partition 'a': count 2.0 is not a non-negative integer"),
    ({"a": True}, "partition 'a': count True is not a non-negative integer"),
    ({"a": 1, "b": 1}, "count for partition 'b', which has no entry"),
])
def test_table_counts_are_non_negative_integers_of_its_partitions(counts, message):
    # koc_error weighs partitions by these counts, and the table reader
    # refuses what the writer would write for a bad one
    on = mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)
    with pytest.raises(InvalidDistribution, match=message):
        CalibrationTable(entries={"a": on}, k=2, space=BINARY, counts=counts)
    table = CalibrationTable(entries={"a": on}, k=2, space=BINARY, counts={"a": np.int64(4)})
    assert type(table.counts["a"]) is int and table.counts == {"a": 4}
    assert CalibrationTable(entries={"a": on}, k=2, space=BINARY, counts={}).counts == {}


def test_table_counts_cover_every_entry_or_none():
    # koc_error weighs each partition by its count: a partition missing from
    # partial counts would weigh 0, and a table with entries a and b and
    # counts {'b': 5} would score a W1 of 1.0 at a as a weighted mean of 0.0
    a = mixture_from_arrays([(1.0, 0.0)], [1.0], BINARY)
    b = mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)
    with pytest.raises(InvalidDistribution, match="partition 'a' has an entry but no count"):
        CalibrationTable(entries={"a": a, "b": b}, k=2, space=BINARY, counts={"b": 5})
    for counts in (None, {}, {"a": 0, "b": 5}):
        CalibrationTable(entries={"a": a, "b": b}, k=2, space=BINARY, counts=counts)


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


def test_koc_error_weighs_uniformly_when_every_count_is_0():
    # partitions filled in without records count 0 records each
    table = posthoc_calibrate(make_dataset([("a", (1, 1))]), partitions=["x", "y"],
                              fill_missing=True)
    assert dict(table.counts) == {"x": 0, "y": 0}
    reference = CalibrationTable(
        entries={"x": table.entries["x"], "y": mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)},
        k=2,
        space=BINARY,
    )
    score = koc_error(table, reference)
    assert score.per_partition["x"] == pytest.approx(0.0, abs=1e-12)
    assert score.per_partition["y"] == pytest.approx(1.0, abs=1e-12)
    assert score.weighted_mean == pytest.approx(0.5, abs=1e-12)


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
    for k in (True, 4.0):
        with pytest.raises(DomainError, match="snapshot size must be an integer"):
            hoc_bound(0.1, BINARY, k)
        with pytest.raises(DomainError, match="snapshot size must be an integer"):
            required_samples(BINARY, k, 0.1, 0.05)


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

def multiclass_tables(l, k, partitions, seed, records=4000):
    """A dataset and its exact reference table shaped like the multiclass
    benchmark: per partition, snapshots of a 4-point Dirichlet(2) mixture
    and that mixture's k-th order projection."""
    rng = np.random.default_rng(seed)
    space = LabelSpace(l)
    counts, ref = [], {}
    for i in range(partitions):
        points = rng.dirichlet(np.full(l, 2.0), size=4)
        weights = rng.dirichlet(np.ones(4))
        comp = rng.choice(4, size=records, p=weights)
        counts.append(rng.multinomial(k, points[comp]))
        ref[f"p{i:02d}"] = project_k(mixture_from_arrays(points, weights, space), k)
    codes = np.repeat(np.arange(partitions), records)
    ds = SnapshotDataset(np.concatenate(counts), codes, list(ref), space, k)
    return ds, CalibrationTable(entries=ref, k=k, space=space)


@pytest.mark.parametrize("l, k, fill", [(3, 16, False), (4, 8, True)])
def test_koc_error_on_the_lattice_matches_the_dense_lp(l, k, fill, monkeypatch):
    ds, ref = multiclass_tables(l, k, 3, seed=[l, k])
    if fill:
        # two partitions without records get the uniform vertex mixture
        ref = CalibrationTable(
            entries={**ref.entries, "q0": ref.entries["p00"], "q1": ref.entries["p01"]},
            k=k, space=ref.space,
        )
    table = posthoc_calibrate(ds, partitions=ref.partitions, fill_missing=fill)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return wasserstein1(*args, **kwargs)

    # one call per partition through the module attribute, naming the lattice
    monkeypatch.setattr(hocal.calibrate, "wasserstein1", counted)
    score = koc_error(table, ref)
    assert [kw["k"] for kw in calls] == [k] * len(ref.partitions)
    for pid in ref.partitions:
        dense, _ = wasserstein1(table.entries[pid], ref.entries[pid], method="lp")
        assert abs(score.per_partition[pid] - dense) <= 1e-12
    assert koc_error(ref, ref).per_partition == dict.fromkeys(ref.partitions, 0.0)
    assert koc_error(table, table).per_partition == dict.fromkeys(ref.partitions, 0.0)


def test_koc_error_above_the_node_cap_takes_the_capped_dense_lp():
    # l = 3, k = 446: 100 128 lattice points, above the node cap of 10^5;
    # 9 points a side are too many for the few-source route, so HiGHS
    # solves the whole LP
    space, k = LabelSpace(3), 446
    shift = np.arange(9)
    a = mixture_from_arrays(np.stack([k - shift, shift, 0 * shift], axis=1) / k, np.full(9, 1 / 9), space)
    b = mixture_from_arrays(np.stack([shift, 0 * shift, k - shift], axis=1) / k, np.full(9, 1 / 9), space)
    table = CalibrationTable(entries={"a": a}, k=k, space=space)
    ref = CalibrationTable(entries={"a": b}, k=k, space=space)
    assert koc_error(table, ref).worst == wasserstein1(a, b, method="lp")[0]
    with pytest.raises(CapExceeded, match="support_cap=3"):
        koc_error(table, ref, support_cap=3)
    # where the lattice flow scores the table (15 x 15 pairs on the 60 moves
    # of the k = 4 lattice), support_cap does not bind
    f = mixture_from_arrays([(0.2, 0.3, 0.5)], [1.0], space)
    h = mixture_from_arrays([(0.6, 0.3, 0.1)], [1.0], space)
    small = CalibrationTable(entries={"a": project_k(f, 4)}, k=4, space=space)
    small_ref = CalibrationTable(entries={"a": project_k(h, 4)}, k=4, space=space)
    assert small.entries["a"].size == small_ref.entries["a"].size == 15
    assert koc_error(small, small_ref, support_cap=3).worst > 0.0
