"""File formats: line-delimited JSON for datasets and tables, CSV for metrics.

The first line of every file is a header object carrying format_version,
the label count, and k; each following line is one record. Floats are
written with Python's shortest round-trip repr, so write-then-read is an
identity and outputs are byte-stable for a fixed input.
"""

from __future__ import annotations

import csv
import io as _io
import json
from itertools import chain

import numpy as np

from .calibrate import CalibrationTable, SnapshotDataset
from .errors import FormatError, InvalidDistribution
from .mixture import (
    WEIGHT_SUM_TOL, Mixture, _coordinate_rows, _lattice_counts, _near_clusters, _running_sum,
)
from .simplex import LabelSpace, simplex_rows

FORMAT_VERSION = 1


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _read_text(path) -> str:
    """The file's text, line endings untranslated."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def _read_lines(path):
    # lines end at "\n" only, one "\r" before it dropped: str.splitlines
    # also breaks at U+2028, U+0085 and other characters JSON allows raw
    lines = _read_text(path).replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError(f"{path} is empty")
    return lines


def _parse_header(lines, path, expect_kind=None):
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: bad header: {exc}", line=1) from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header must be an object", line=1)
    version = header.get("format_version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format_version {version!r}", line=1)
    for key in ("num_labels", "k"):
        value = header.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise FormatError(f"{path}: header needs a positive integer {key!r}", line=1)
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise FormatError(f"{path}: expected kind {expect_kind!r}, got {header.get('kind')!r}", line=1)
    return header


def read_snapshot_dataset(path) -> SnapshotDataset:
    """Parse a dataset file: a header line, then {"partition", "labels"} records.

    Label lists are symmetrized into count vectors immediately; [1, 0] and
    [0, 1] are the same snapshot. Each distinct line is parsed and checked
    once, at its first occurrence, so an error names the first bad line.
    """
    lines = _read_lines(path)
    header = _parse_header(lines, path)
    num_labels, k = header["num_labels"], header["k"]
    row_of = {}  # line text -> index of its distinct row
    row_pids, row_counts = [], []
    picks = []  # distinct row of each record
    for lineno, raw in enumerate(lines[1:], start=2):
        row = row_of.get(raw)
        if row is None:
            if not raw.strip():
                continue
            pid, counts = _parse_record(raw, path, lineno, num_labels, k)
            row = row_of[raw] = len(row_counts)
            row_pids.append(pid)
            row_counts.append(counts)
        picks.append(row)
    if not picks:
        raise FormatError(f"{path}: no records")
    picks = np.array(picks, dtype=np.int64)
    return SnapshotDataset(
        np.array(row_counts, dtype=np.int64)[picks],
        picks,
        row_pids,
        LabelSpace(num_labels),
        k,
    )


def _parse_record(raw, path, lineno, num_labels, k):
    """One dataset line as (partition id, count vector)."""
    try:
        rec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}", line=lineno) from None
    if not isinstance(rec, dict) or "partition" not in rec or "labels" not in rec:
        raise FormatError(f"{path}: record needs 'partition' and 'labels'", line=lineno)
    labels = rec["labels"]
    if not isinstance(labels, list) or len(labels) != k:
        raise FormatError(f"{path}: expected {k} labels", line=lineno)
    counts = [0] * num_labels
    for y in labels:
        if isinstance(y, bool) or not isinstance(y, int):
            raise FormatError(f"{path}: label {y!r} is not an integer", line=lineno)
        if not 0 <= y < num_labels:
            raise FormatError(f"{path}: label {y!r} out of range [0, {num_labels})", line=lineno)
        counts[y] += 1
    return str(rec["partition"]), counts


def write_snapshot_dataset(ds: SnapshotDataset, path):
    """Write records with labels expanded in canonical ascending order.

    Each distinct (partition, counts) line is rendered once.
    """
    first, inverse = ds._distinct_rows()
    lines = []
    for code, counts in zip(ds.codes[first].tolist(), ds.counts[first].tolist()):
        labels = [y for y, c in enumerate(counts) for _ in range(c)]
        lines.append(_dump({"labels": labels, "partition": ds.names[code]}) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump({"format_version": FORMAT_VERSION, "k": ds.k, "num_labels": ds.space.num_labels}) + "\n")
        fh.write("".join(map(lines.__getitem__, inverse.tolist())))


def _table_entry(points, weights, space: LabelSpace, k: int) -> Mixture:
    """The mixture of one table record, with the bits it was written with.

    `_coordinate_rows` checks the rows, with the generic constructor's
    messages. Each row on the size-k lattice becomes its canonical row
    simplex_rows(counts / k), kept as checked where equal under == (so a
    written -0.0 stays), and the rows are sorted as Mixture stores them.
    Weights whose running total is within 1e-9 of 1 are kept undivided.
    Rows off the lattice, or rows the merge would join (within 1e-12 in
    l1), go to the generic constructor, and the table refuses what it must.
    """
    rows = _coordinate_rows(points, space)
    try:
        counts = _lattice_counts(rows, k)
    except InvalidDistribution:
        return Mixture(points, weights, space)
    canonical = simplex_rows(counts / k)
    rows = np.where(rows == canonical, rows, canonical)
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    if np.bincount(_near_clusters(rows)).max() > 1:
        return Mixture(points, weights, space)
    w = np.fromiter(map(float, weights), dtype=float)
    total = _running_sum(w)
    if abs(total - 1.0) <= WEIGHT_SUM_TOL:
        total = 1.0  # the weights as written, not divided again
    return Mixture._from_distinct(rows, w[order], total, space)


def read_calibration_table(path) -> CalibrationTable:
    lines = _read_lines(path)
    header = _parse_header(lines, path, expect_kind="calibration_table")
    num_labels, k = header["num_labels"], header["k"]
    space = LabelSpace(num_labels)
    entries = {}
    counts = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: {exc}", line=lineno) from None
        try:
            pid = str(rec["partition"])
            points = rec["points"]
            weights = rec["weights"]
        except (TypeError, KeyError):
            raise FormatError(f"{path}: record needs 'partition', 'points', 'weights'", line=lineno) from None
        if pid in entries:
            raise FormatError(f"{path}: duplicate partition {pid!r}", line=lineno)
        if not isinstance(points, list) or not isinstance(weights, list) or len(points) != len(weights):
            raise FormatError(f"{path}: points and weights must be lists of equal length", line=lineno)
        # JSON numbers are the ints and floats json.loads returns; bool is
        # a type of its own, so true and false are refused too
        if not (set(map(type, points)) <= {list}
                and set(map(type, chain(chain.from_iterable(points), weights))) <= {int, float}):
            raise FormatError(f"{path}: partition {pid!r}: coordinates and weights must be JSON numbers",
                              line=lineno)
        try:
            entries[pid] = _table_entry(points, weights, space, k)
        except (OverflowError, TypeError, ValueError) as exc:
            # OverflowError: an integer too large for a float
            raise FormatError(f"{path}: partition {pid!r}: {exc}", line=lineno) from None
        count = rec.get("count")
        if count is not None:
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise FormatError(f"{path}: count {count!r} is not a non-negative integer", line=lineno)
            counts[pid] = count
    if not entries:
        raise FormatError(f"{path}: no partitions")
    return CalibrationTable(entries=entries, k=k, space=space, counts=counts or None)


def write_calibration_table(table: CalibrationTable, path):
    header = {"format_version": FORMAT_VERSION, "k": table.k, "kind": "calibration_table",
              "num_labels": table.space.num_labels}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(header) + "\n")
        for pid in table.partitions:
            mix = table.entries[pid]
            rec = {
                "count": None if table.counts is None else table.counts.get(pid),
                "partition": pid,
                "points": mix.points_array().tolist(),
                "weights": mix.weights_array().tolist(),
            }
            fh.write(_dump(rec) + "\n")


def write_csv(path, rows, fieldnames):
    """Write dict rows as CSV with a fixed column order."""
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def read_csv_rows(path) -> list:
    """Dict rows of a CSV file whose rows all have the header's field count."""
    reader = csv.DictReader(_io.StringIO(_read_text(path)))
    rows = []
    for row in reader:
        # DictReader pads a short row with None and keys a long row's rest by None
        if None in row or None in row.values():
            raise FormatError(f"{path}: field count differs from the header's", line=reader.line_num)
        rows.append(row)
    return rows
