import json

import pytest

from hocal.calibrate import CalibrationTable, SnapshotDataset
from hocal.errors import FormatError
from hocal.io import (
    read_calibration_table,
    read_csv_rows,
    read_snapshot_dataset,
    rows_to_csv,
    write_calibration_table,
    write_snapshot_dataset,
)
from hocal.mixture import mixture_from_arrays
from hocal.simplex import LabelSpace, Snapshot

BINARY = LabelSpace(2)


def sample_dataset():
    return SnapshotDataset(
        records=(
            ("a", Snapshot((2, 0))),
            ("a", Snapshot((1, 1))),
            ("b", Snapshot((0, 2))),
        ),
        space=BINARY,
        k=2,
    )


def sample_table(counts=None):
    return CalibrationTable(
        entries={
            "a": mixture_from_arrays([(1.0, 0.0), (0.5, 0.5)], [0.5, 0.5], BINARY),
            "b": mixture_from_arrays([(0.0, 1.0)], [1.0], BINARY),
        },
        k=2,
        space=BINARY,
        counts=counts,
    )


def test_dataset_round_trip(tmp_path):
    path = tmp_path / "ds.ldjson"
    ds = sample_dataset()
    write_snapshot_dataset(ds, path)
    assert read_snapshot_dataset(path) == ds


def test_dataset_write_is_byte_stable(tmp_path):
    p1, p2 = tmp_path / "a.ldjson", tmp_path / "b.ldjson"
    write_snapshot_dataset(sample_dataset(), p1)
    write_snapshot_dataset(sample_dataset(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_header_fields(tmp_path):
    path = tmp_path / "ds.ldjson"
    write_snapshot_dataset(sample_dataset(), path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"format_version": 1, "k": 2, "num_labels": 2}


def test_labels_are_symmetrized(tmp_path):
    path = tmp_path / "ds.ldjson"
    path.write_text(
        '{"format_version": 1, "k": 2, "num_labels": 2}\n'
        '{"labels": [1, 0], "partition": "a"}\n'
        '{"labels": [0, 1], "partition": "a"}\n'
    )
    ds = read_snapshot_dataset(path)
    assert ds.records[0][1] == ds.records[1][1] == Snapshot((1, 1))


def test_empty_file_is_an_error(tmp_path):
    path = tmp_path / "empty.ldjson"
    path.write_text("")
    with pytest.raises(FormatError):
        read_snapshot_dataset(path)


def test_header_only_file_is_an_error(tmp_path):
    path = tmp_path / "ds.ldjson"
    path.write_text('{"format_version": 1, "k": 2, "num_labels": 2}\n')
    with pytest.raises(FormatError):
        read_snapshot_dataset(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "ds.ldjson"
    path.write_text('{"format_version": 2, "k": 2, "num_labels": 2}\n')
    with pytest.raises(FormatError):
        read_snapshot_dataset(path)


def test_malformed_line_reports_its_number(tmp_path):
    path = tmp_path / "ds.ldjson"
    path.write_text(
        '{"format_version": 1, "k": 2, "num_labels": 2}\n'
        '{"labels": [0, 1], "partition": "a"}\n'
        "oops\n"
    )
    with pytest.raises(FormatError) as exc:
        read_snapshot_dataset(path)
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_label_out_of_range(tmp_path):
    path = tmp_path / "ds.ldjson"
    path.write_text(
        '{"format_version": 1, "k": 2, "num_labels": 2}\n'
        '{"labels": [0, 2], "partition": "a"}\n'
    )
    with pytest.raises(FormatError) as exc:
        read_snapshot_dataset(path)
    assert exc.value.line == 2


def test_boolean_labels_rejected(tmp_path):
    path = tmp_path / "ds.ldjson"
    path.write_text(
        '{"format_version": 1, "k": 2, "num_labels": 2}\n'
        '{"labels": [0, 1], "partition": "a"}\n'
        '{"labels": [true, false], "partition": "a"}\n'
    )
    with pytest.raises(FormatError) as exc:
        read_snapshot_dataset(path)
    assert exc.value.line == 3


def test_wrong_label_count(tmp_path):
    path = tmp_path / "ds.ldjson"
    path.write_text(
        '{"format_version": 1, "k": 3, "num_labels": 2}\n'
        '{"labels": [0, 1], "partition": "a"}\n'
    )
    with pytest.raises(FormatError):
        read_snapshot_dataset(path)


def test_table_round_trip_with_counts(tmp_path):
    path = tmp_path / "table.ldjson"
    table = sample_table(counts={"a": 10, "b": 5})
    write_calibration_table(table, path)
    got = read_calibration_table(path)
    assert got.entries == table.entries
    assert got.counts == table.counts
    assert got.k == table.k


def test_table_round_trip_without_counts(tmp_path):
    path = tmp_path / "table.ldjson"
    write_calibration_table(sample_table(), path)
    got = read_calibration_table(path)
    assert got.counts is None


def test_table_write_is_byte_stable(tmp_path):
    p1, p2 = tmp_path / "a.ldjson", tmp_path / "b.ldjson"
    write_calibration_table(sample_table(counts={"a": 1, "b": 2}), p1)
    write_calibration_table(sample_table(counts={"a": 1, "b": 2}), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_table_with_signed_zeros_is_written_back_unchanged(tmp_path):
    text = (
        '{"format_version": 1, "k": 2, "kind": "calibration_table", "num_labels": 3}\n'
        '{"count": 4, "partition": "a", "points": [[-0.0, 0.5, 0.5], [0.5, -0.0, 0.5], '
        '[1.0, 0.0, -0.0]], "weights": [0.25, 0.25, 0.5]}\n'
    )
    src, dst = tmp_path / "a.ldjson", tmp_path / "b.ldjson"
    src.write_text(text)
    write_calibration_table(read_calibration_table(src), dst)
    assert dst.read_text() == text


def test_table_duplicate_partition_rejected(tmp_path):
    path = tmp_path / "table.ldjson"
    path.write_text(
        '{"format_version": 1, "k": 1, "kind": "calibration_table", "num_labels": 2}\n'
        '{"count": null, "partition": "a", "points": [[1.0, 0.0]], "weights": [1.0]}\n'
        '{"count": null, "partition": "a", "points": [[0.0, 1.0]], "weights": [1.0]}\n'
    )
    with pytest.raises(FormatError) as exc:
        read_calibration_table(path)
    assert exc.value.line == 3


def test_table_requires_its_kind_marker(tmp_path):
    path = tmp_path / "table.ldjson"
    path.write_text('{"format_version": 1, "k": 1, "num_labels": 2}\n')
    with pytest.raises(FormatError):
        read_calibration_table(path)


def test_dataset_rejects_table_files(tmp_path):
    # reading a table as a dataset fails on the record shape, not silently
    path = tmp_path / "table.ldjson"
    write_calibration_table(sample_table(), path)
    with pytest.raises(FormatError):
        read_snapshot_dataset(path)


def test_csv_round_trip(tmp_path):
    rows = [
        {"partition": "a", "w1": 0.125},
        {"partition": "b", "w1": 0.5},
    ]
    text = rows_to_csv(rows, ["partition", "w1"])
    assert text.splitlines()[0] == "partition,w1"
    path = tmp_path / "out.csv"
    path.write_text(text)
    got = read_csv_rows(path)
    assert got[0]["partition"] == "a"
    assert float(got[0]["w1"]) == 0.125
    assert len(got) == 2