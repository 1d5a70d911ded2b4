import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.calibrate import CalibrationTable, SnapshotDataset, posthoc_calibrate
from hocal.errors import FormatError, InvalidDistribution
from hocal.io import (
    read_calibration_table,
    read_csv_rows,
    read_snapshot_dataset,
    write_calibration_table,
    write_csv,
    write_snapshot_dataset,
)
from hocal.mixture import RngSeed, mixture_from_arrays, project_k
from hocal.simplex import LabelSpace, simplex_rows
from hocal.synth import BinaryRegression, RandomMixtureSpec, TwoScenario, random_mixture, reference_table

BINARY = LabelSpace(2)


def sample_dataset():
    return SnapshotDataset([(2, 0), (1, 1), (0, 2)], [0, 0, 1], ["a", "b"], BINARY, 2)


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
    assert ds.counts.tolist() == [[1, 1], [1, 1]]
    assert ds.records == (("a", (1, 1)), ("a", (1, 1)))


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


HEADER = '{"format_version": 1, "k": 2, "num_labels": 2}'
GOOD, OTHER = '{"labels": [0, 1], "partition": "a"}', '{"labels": [1, 1], "partition": "b"}'
BAD = '{"labels": [0, 5], "partition": "a"}'


def read_lines(tmp_path, lines, newline="\n"):
    path = tmp_path / "ds.ldjson"
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    return read_snapshot_dataset(path)


def bad_line(tmp_path, lines, newline="\n"):
    with pytest.raises(FormatError) as exc:
        read_lines(tmp_path, lines, newline)
    return exc.value.line


def test_a_bad_line_after_many_good_copies_is_named_where_it_first_appears(tmp_path):
    # each distinct line is parsed once: the bad line's number is found
    # among all lines, not among the distinct ones
    lines = [HEADER] + [GOOD, OTHER] * 500 + [BAD, GOOD, BAD]
    assert bad_line(tmp_path, lines) == 1002
    assert bad_line(tmp_path, [HEADER, GOOD, "oops", BAD, "oops"]) == 3


def test_a_record_line_equal_to_the_header_is_named_at_its_own_line(tmp_path):
    assert bad_line(tmp_path, [HEADER, GOOD, HEADER]) == 3


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_crlf_lines_read_like_lf_lines(tmp_path, newline):
    ds = read_lines(tmp_path, [HEADER, GOOD, OTHER, GOOD], newline)
    assert ds.records == (("a", (1, 1)), ("b", (0, 2)), ("a", (1, 1)))
    assert bad_line(tmp_path, [HEADER, GOOD, OTHER, BAD, GOOD], newline) == 4


def test_whitespace_only_lines_hold_no_record_but_keep_their_number(tmp_path):
    lines = [HEADER, GOOD, "", "   ", GOOD, "\t", OTHER]
    assert read_lines(tmp_path, lines).records == (
        ("a", (1, 1)), ("a", (1, 1)), ("b", (0, 2)))
    assert bad_line(tmp_path, lines + [" ", BAD]) == 9
    with pytest.raises(FormatError, match="no records"):
        read_lines(tmp_path, [HEADER, " ", "", "\t", " "])


def test_an_integer_label_too_long_to_parse_names_its_line(tmp_path):
    # json.loads refuses an integer of over 4300 digits with a ValueError
    # that is not a JSONDecodeError
    huge = '{"labels": [0, ' + "1" * 5000 + '], "partition": "a"}'
    assert bad_line(tmp_path, [HEADER, GOOD, huge]) == 3


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


def assert_round_trip(table):
    """write -> read gives an equal table, and write -> read -> write the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.ldjson"), Path(tmp, "second.ldjson")
        write_calibration_table(table, first)
        back = read_calibration_table(first)
        write_calibration_table(back, second)
        assert second.read_bytes() == first.read_bytes()
    assert back.partitions == table.partitions
    assert all(back.entries[p] == table.entries[p] for p in table.partitions)
    assert back == table


_LABELS = st.integers(min_value=2, max_value=4)
_SIZES = st.sampled_from([1, 2, 3, 6, 7, 16])


@settings(deadline=None, max_examples=60)
@given(num_labels=_LABELS, k=_SIZES, n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       fill_missing=st.booleans())
def test_calibrated_tables_round_trip_bit_for_bit(num_labels, k, n, seed, fill_missing):
    rng = np.random.default_rng(seed)
    counts = [rng.multinomial(k, p) for p in rng.dirichlet(np.ones(num_labels), size=n)]
    ds = SnapshotDataset(counts, rng.integers(0, 3, size=n), ["a", "b", "c"], LabelSpace(num_labels), k)
    # "d" never has records, so --fill-missing gives it the uniform vertex mixture
    partitions = ["a", "b", "c", "d"] if fill_missing else None
    assert_round_trip(posthoc_calibrate(ds, partitions=partitions, fill_missing=fill_missing))


@settings(deadline=None, max_examples=60)
@given(num_labels=_LABELS, k=_SIZES, support=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_projected_tables_round_trip_bit_for_bit(num_labels, k, support, seed):
    spec = RandomMixtureSpec(num_labels, support, 1.0)
    entries = {f"p{i}": project_k(random_mixture(spec, RngSeed(seed + i)), k) for i in range(3)}
    assert_round_trip(CalibrationTable(entries=entries, k=k, space=LabelSpace(num_labels)))


@pytest.mark.parametrize("k", [1, 2, 3, 6, 7, 16])
@pytest.mark.parametrize("spec", [TwoScenario(1), TwoScenario(2), BinaryRegression()])
def test_reference_tables_round_trip_bit_for_bit(spec, k):
    assert_round_trip(reference_table(spec, k))


def test_a_point_near_the_lattice_reads_as_its_canonical_row(tmp_path):
    # 1e-12 off 1/3 and 2/3 passes the lattice rule and is snapped; the
    # vertex keeps its written -0.0
    path = tmp_path / "table.ldjson"
    path.write_text(
        '{"format_version": 1, "k": 3, "kind": "calibration_table", "num_labels": 2}\n'
        '{"count": null, "partition": "a", "points": [[0.333333333334, 0.666666666666], '
        '[1.0, -0.0]], "weights": [0.5, 0.5]}\n'
    )
    mix = read_calibration_table(path).entries["a"]
    canonical = simplex_rows(np.array([[1.0, 2.0]]) / 3)[0]
    assert mix.points_array()[0].tolist() == canonical.tolist()
    assert np.signbit(mix.points_array()[1]).tolist() == [False, True]


def test_rows_on_one_lattice_point_fold_onto_its_canonical_row(tmp_path):
    # two rows near (1/3, 2/3), one on each side, snap to one lattice point:
    # the entry holds the canonical row once, with their summed weight, and
    # round-trips
    path = tmp_path / "table.ldjson"
    path.write_text(
        '{"format_version": 1, "k": 3, "kind": "calibration_table", "num_labels": 2}\n'
        '{"count": null, "partition": "a", "points": [[0.33333333334, 0.66666666666], '
        '[1.0, 0.0], [0.33333333332, 0.66666666668]], "weights": [0.25, 0.5, 0.25]}\n'
    )
    table = read_calibration_table(path)
    mix = table.entries["a"]
    canonical = simplex_rows(np.array([[1.0, 2.0]]) / 3)[0]
    assert mix.points_array().tolist() == [canonical.tolist(), [1.0, 0.0]]
    assert mix.weights_array().tolist() == [0.5, 0.5]
    assert_round_trip(table)


def test_a_point_off_the_lattice_names_its_partition(tmp_path):
    path = tmp_path / "table.ldjson"
    path.write_text(
        '{"format_version": 1, "k": 3, "kind": "calibration_table", "num_labels": 2}\n'
        '{"count": null, "partition": "a", "points": [[0.4, 0.6], [1.0, 0.0]], '
        '"weights": [0.5, 0.5]}\n'
    )
    with pytest.raises(InvalidDistribution) as exc:
        read_calibration_table(path)
    assert str(exc.value) == (
        "partition 'a': support point (0.4, 0.6) is not on the size-3 snapshot lattice")


TABLE_K3 = '{"format_version": 1, "k": 3, "kind": "calibration_table", "num_labels": 2}\n'


def test_an_off_lattice_record_is_refused_before_a_later_bad_line(tmp_path):
    # the first off-lattice row in file order is named, though (0.1, 0.9)
    # sorts first; line 3's unequal lists are never reached
    path = tmp_path / "table.ldjson"
    path.write_text(
        TABLE_K3
        + '{"count": null, "partition": "a", "points": [[0.4, 0.6], [0.1, 0.9], [1.0, 0.0]], '
        '"weights": [0.25, 0.25, 0.5]}\n'
        '{"count": null, "partition": "b", "points": [[1.0, 0.0]], "weights": [0.5, 0.5]}\n'
    )
    with pytest.raises(InvalidDistribution) as exc:
        read_calibration_table(path)
    assert str(exc.value) == (
        "partition 'a': support point (0.4, 0.6) is not on the size-3 snapshot lattice")


@pytest.mark.parametrize("points, weights, message", [
    ([[0.4, 0.7]], [1.0], "probabilities sum to 1.1"),  # the rows first
    ([[0.4, 0.6]], [-1.0], "weight -1.0 is not positive and finite"),  # then the weights
    ([[0.4, 0.6], [1.0, 0.0]], [0.5, 0.6], "weights sum to 1.1, expected 1"),  # their sum
])
def test_a_record_is_checked_before_its_lattice(tmp_path, points, weights, message):
    path = tmp_path / "table.ldjson"
    record = {"count": None, "partition": "a", "points": points, "weights": weights}
    path.write_text(TABLE_K3 + json.dumps(record) + "\n")
    with pytest.raises(InvalidDistribution, match=message):
        read_calibration_table(path)


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


def test_table_with_counts_for_some_partitions_only_is_refused(tmp_path):
    # a null count next to numbers would drop that partition from the
    # record-weighted mean
    path = tmp_path / "table.ldjson"
    path.write_text(
        '{"format_version": 1, "k": 1, "kind": "calibration_table", "num_labels": 2}\n'
        '{"count": null, "partition": "a", "points": [[1.0, 0.0]], "weights": [1.0]}\n'
        '{"count": 5, "partition": "b", "points": [[0.0, 1.0]], "weights": [1.0]}\n'
    )
    with pytest.raises(InvalidDistribution, match="partition 'a' has an entry but no count"):
        read_calibration_table(path)


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
    path = tmp_path / "out.csv"
    write_csv(path, rows, ["partition", "w1"])
    assert path.read_bytes() == b"partition,w1\na,0.125\nb,0.5\n"
    got = read_csv_rows(path)
    assert got[0]["partition"] == "a"
    assert float(got[0]["w1"]) == 0.125
    assert len(got) == 2