"""The columnar dataset path against a record-by-record reference.

The reference functions below build one Snapshot and one SimplexPoint per
record, as the package did before datasets were stored as columns: they
are the oracle for `gen_dataset`, the dataset reader and writer, and
`posthoc_calibrate`. Files must be identical and weights equal bit for bit.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.calibrate import CalibrationTable, SnapshotDataset, posthoc_calibrate
from hocal.errors import EmptyPartition, FormatError
from hocal.io import read_snapshot_dataset, write_calibration_table, write_snapshot_dataset
from hocal.mixture import RngSeed, empirical_mixture, mixture_from_arrays, sample_snapshots
from hocal.simplex import LabelSpace, Snapshot, enumerate_snapshot_space, snapshot_to_point
from hocal.synth import (
    BinaryRegression,
    TwoScenario,
    _bin_id,
    _bin_index,
    _conditional_prob,
    bayes_mixtures,
    gen_dataset,
)

# 7 is written as a JSON number and read back as the id "7"
PARTITIONS = ["b", "a", "10", "9", 7]


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def reference_write(records, num_labels, k, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump({"format_version": 1, "k": k, "num_labels": num_labels}) + "\n")
        for pid, snap in records:
            labels = [y for y, c in enumerate(snap.counts) for _ in range(c)]
            fh.write(dump({"labels": labels, "partition": pid}) + "\n")


def reference_read(path):
    """(num_labels, k, records) of a well-formed dataset file, line by line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    records = []
    for raw in lines[1:]:
        if not raw.strip():
            continue
        rec = json.loads(raw)
        counts = [0] * header["num_labels"]
        for y in rec["labels"]:
            counts[y] += 1
        records.append((str(rec["partition"]), Snapshot(tuple(counts))))
    return header["num_labels"], header["k"], records


def reference_calibrate(records, space, k, partitions=None, fill_missing=False):
    groups = {}
    for pid, snap in records:
        groups.setdefault(pid, []).append(snap)
    wanted = sorted(groups) if partitions is None else sorted(dict.fromkeys(partitions))
    entries, counts = {}, {}
    l = space.num_labels
    for pid in wanted:
        snaps = groups.get(pid, [])
        if snaps:
            entries[pid] = empirical_mixture([snapshot_to_point(s) for s in snaps])
            counts[pid] = len(snaps)
        elif fill_missing:
            vertices = [tuple(1.0 if j == i else 0.0 for j in range(l)) for i in range(l)]
            entries[pid] = mixture_from_arrays(vertices, [1.0 / l] * l, space)
            counts[pid] = 0
        else:
            raise EmptyPartition(pid)
    return CalibrationTable(entries=entries, k=k, space=space, counts=counts)


def reference_gen(spec, n, k, rng):
    if isinstance(spec, TwoScenario):
        snaps = sample_snapshots(bayes_mixtures(spec)["all"], k, n, rng)
        return [("all", s) for s in snaps]
    gen = rng.generator()
    xs = np.abs(gen.normal(size=n))
    ones = gen.binomial(k, _conditional_prob(spec, xs))
    return [
        (_bin_id(int(b), spec.bins), Snapshot((int(k - c), int(c))))
        for b, c in zip(_bin_index(xs, spec), ones)
    ]


def bits(table):
    """Every entry's support coordinates and weight bits, per partition."""
    return {
        pid: [(p.probs, w.hex()) for p, w in mix.support] for pid, mix in table.entries.items()
    }


def assert_same_tables(got, want, tmp_path):
    assert got.partitions == want.partitions
    assert got.counts == want.counts
    assert bits(got) == bits(want)
    for pid in got.partitions:
        assert np.array_equal(got.entries[pid].weights_array(), want.entries[pid].weights_array())
        assert np.array_equal(got.entries[pid].points_array(), want.entries[pid].points_array())
    write_calibration_table(got, tmp_path / "got_table.ldjson")
    write_calibration_table(want, tmp_path / "want_table.ldjson")
    assert (tmp_path / "got_table.ldjson").read_bytes() == (tmp_path / "want_table.ldjson").read_bytes()


@st.composite
def raw_datasets(draw):
    """(num_labels, k, [(partition, labels in drawn order)]) with repeats and interleaving."""
    num_labels = draw(st.integers(min_value=2, max_value=4))
    # at k = 6 and 7 renormalized coordinates sort some rows against their counts
    k = draw(st.sampled_from([1, 2, 3, 6, 7, 8]))
    pids = draw(st.lists(st.sampled_from(PARTITIONS), min_size=1, max_size=40))
    label = st.integers(min_value=0, max_value=num_labels - 1)
    rows = [(pid, draw(st.lists(label, min_size=k, max_size=k))) for pid in pids]
    return num_labels, k, rows


@settings(deadline=None, max_examples=150)
@given(raw_datasets())
def test_columnar_io_and_calibrate_match_the_record_reference(tmp_path_factory, raw):
    num_labels, k, rows = raw
    tmp = tmp_path_factory.mktemp("eq")
    raw_path = tmp / "raw.ldjson"
    with open(raw_path, "w", encoding="utf-8") as fh:
        fh.write(dump({"format_version": 1, "k": k, "num_labels": num_labels}) + "\n")
        for pid, labels in rows:
            fh.write(dump({"labels": labels, "partition": pid}) + "\n")
    _, _, records = reference_read(raw_path)
    space = LabelSpace(num_labels)

    ds = read_snapshot_dataset(raw_path)
    assert ds == SnapshotDataset(records, space, k)
    assert ds.records == tuple(records)
    assert len(ds) == len(records)
    assert ds.partitions == sorted({pid for pid, _ in records})

    write_snapshot_dataset(ds, tmp / "got.ldjson")
    reference_write(records, num_labels, k, tmp / "want.ldjson")
    assert (tmp / "got.ldjson").read_bytes() == (tmp / "want.ldjson").read_bytes()

    assert_same_tables(posthoc_calibrate(ds), reference_calibrate(records, space, k), tmp)
    wanted = ["zz"] + ds.partitions[:1]
    assert_same_tables(
        posthoc_calibrate(ds, partitions=wanted, fill_missing=True),
        reference_calibrate(records, space, k, partitions=wanted, fill_missing=True),
        tmp,
    )


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([TwoScenario(1), TwoScenario(2), BinaryRegression(), BinaryRegression(bins=3)]),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32),
)
def test_gen_dataset_matches_the_record_reference(tmp_path_factory, spec, n, k, seed):
    tmp = tmp_path_factory.mktemp("gen")
    ds, _ = gen_dataset(spec, n, k, RngSeed(seed))
    records = reference_gen(spec, n, k, RngSeed(seed))
    assert ds == SnapshotDataset(records, LabelSpace(2), k)
    assert ds.records == tuple(records)
    write_snapshot_dataset(ds, tmp / "got.ldjson")
    reference_write(records, 2, k, tmp / "want.ldjson")
    assert (tmp / "got.ldjson").read_bytes() == (tmp / "want.ldjson").read_bytes()


def test_large_generated_dataset_round_trips_like_the_reference(tmp_path):
    spec, n, k = BinaryRegression(), 20_000, 8
    ds, _ = gen_dataset(spec, n, k, RngSeed(1))
    records = reference_gen(spec, n, k, RngSeed(1))
    write_snapshot_dataset(ds, tmp_path / "got.ldjson")
    reference_write(records, 2, k, tmp_path / "want.ldjson")
    assert (tmp_path / "got.ldjson").read_bytes() == (tmp_path / "want.ldjson").read_bytes()
    assert read_snapshot_dataset(tmp_path / "got.ldjson") == ds
    assert_same_tables(posthoc_calibrate(ds), reference_calibrate(records, LabelSpace(2), k), tmp_path)


@pytest.mark.parametrize("num_labels,k", [(3, 6), (4, 7), (4, 16)])
def test_calibrate_keeps_the_coordinate_order_of_the_support(num_labels, k):
    # rows in count order are not always in the order of their renormalized coordinates
    space = LabelSpace(num_labels)
    lattice = enumerate_snapshot_space(space, k)
    records = [("a", s) for s in reversed(lattice)] + [("a", lattice[1])]
    got = posthoc_calibrate(SnapshotDataset(records, space, k))
    assert bits(got) == bits(reference_calibrate(records, space, k))


def test_grouping_has_no_packed_key_to_overflow():
    # (k + 1)^l > 2^63: a key packing the counts into one int64 would collide
    k = 2**40
    space = LabelSpace(4)
    snaps = [Snapshot((k, 0, 0, 0)), Snapshot((0, 0, 0, k)), Snapshot((k - 1, 1, 0, 0))]
    records = [("a", snaps[i]) for i in (0, 1, 0, 2, 1, 0)]
    ds = SnapshotDataset(records, space, k)
    got = posthoc_calibrate(ds)
    want = reference_calibrate(records, space, k)
    assert bits(got) == bits(want)
    assert got.entries["a"].size == 3


def test_dataset_columns_and_records_view():
    ds = SnapshotDataset(
        [("b", Snapshot((1, 1))), (3, Snapshot((2, 0))), ("b", Snapshot((1, 1)))],
        LabelSpace(2),
        2,
    )
    assert ds.names == ("3", "b")
    assert ds.codes.tolist() == [1, 0, 1]
    assert ds.counts.tolist() == [[1, 1], [2, 0], [1, 1]]
    assert not ds.counts.flags.writeable and not ds.codes.flags.writeable
    assert len(ds) == 3
    records = ds.records
    assert records == (("b", Snapshot((1, 1))), ("3", Snapshot((2, 0))), ("b", Snapshot((1, 1))))
    assert records[0][1] is records[2][1]
    assert ds != SnapshotDataset(list(records)[:2], LabelSpace(2), 2)


def test_reader_checks_each_distinct_line_once_and_reports_the_first(tmp_path):
    path = tmp_path / "ds.ldjson"
    path.write_text(
        '{"format_version": 1, "k": 2, "num_labels": 2}\n'
        '{"labels": [0, 1], "partition": "a"}\n'
        '{"labels": [0, 1], "partition": "a"}\n'
        "\n"
        '{"labels": [0, 5], "partition": "a"}\n'
        '{"labels": [0, 5], "partition": "a"}\n'
    )
    with pytest.raises(FormatError) as exc:
        read_snapshot_dataset(path)
    assert exc.value.line == 5


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, hocal.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
