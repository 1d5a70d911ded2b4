"""Post-hoc k-th order calibration from snapshot data.

Per partition, the calibrated predictor is simply the empirical mixture
of normalized snapshot histograms; with N at the level the sample-size
formula prescribes, that empirical mixture is within eps of the exact
k-th order projection of the cell's Bayes mixture with probability
1 - delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, EmptyPartition, InvalidDistribution
from .mixture import Mixture, _lattice_counts, _readonly, _running_sum, mixture_from_arrays
from .simplex import LabelSpace, Snapshot, simplex_rows, snapshot_space_size
from .transport import DEFAULT_SUPPORT_CAP, wasserstein1


def _check_records(counts, dims, codes, names, space: LabelSpace, k: int):
    """Every record has l labels, size k and no negative count.

    Record i has `dims[i]` labels and its counts in row i of `counts`.
    The first record that fails raises, naming its partition.
    """
    l = space.num_labels
    sizes, lows = counts.sum(axis=1), counts.min(axis=1, initial=0)
    bad = np.flatnonzero((dims != l) | (sizes != k) | (lows < 0))
    if not bad.size:
        return
    i = bad[0]
    pid = names[codes[i]]
    if dims[i] != l:
        raise DimensionMismatch(
            f"partition {pid!r}: snapshot over {dims[i]} labels in a {l}-label dataset"
        )
    if lows[i] < 0:
        raise InvalidDistribution(f"partition {pid!r}: negative count in a snapshot")
    raise InvalidDistribution(f"partition {pid!r}: snapshot of size {sizes[i]}, expected {k}")


@dataclass(frozen=True, init=False, eq=False)
class SnapshotDataset:
    """(partition_id, snapshot) records, all snapshots of one size k, stored as columns.

    `counts` is a read-only (n, l) int64 matrix with one count vector per
    record, `codes` a read-only (n,) int64 array indexing `names`, and
    `names` the sorted partition ids that have records. Records keep their
    input order. `SnapshotDataset(records, space, k)` takes an iterable of
    (partition_id, Snapshot) pairs; partition ids are stored as strings.
    """

    counts: np.ndarray
    codes: np.ndarray
    names: tuple
    space: LabelSpace
    k: int

    def __init__(self, records, space: LabelSpace, k: int):
        records = list(records)
        l = space.num_labels
        dims = np.array([snap.dim for _, snap in records], dtype=np.int64)
        # a snapshot over the wrong number of labels fails on its label count alone
        counts = [snap.counts if snap.dim == l else (0,) * l for _, snap in records]
        counts = np.array(counts, dtype=np.int64).reshape(-1, l)
        pids = [pid for pid, _ in records]
        ds = self._from_columns(counts, np.arange(len(records)), pids, space, k, dims)
        self._store(ds.counts, ds.codes, ds.names, space, k)

    @classmethod
    def _from_columns(
        cls, counts, codes, names, space: LabelSpace, k: int, dims=None
    ) -> "SnapshotDataset":
        """A dataset from an (n, l) int count matrix and codes into `names`.

        `names` may repeat ids, include ids that no record uses, and need not
        be sorted; they are stored as strings. The stored codes index the
        sorted ids in use. `dims[i]` is the label count of record i, by
        default the matrix width.
        """
        used, codes = np.unique(np.asarray(codes, dtype=np.int64), return_inverse=True)
        used = [str(names[i]) for i in used]
        names = sorted(set(used))
        rank = {pid: i for i, pid in enumerate(names)}
        codes = np.array([rank[pid] for pid in used], dtype=np.int64)[codes]
        counts = np.asarray(counts, dtype=np.int64)
        if dims is None:
            dims = np.full(len(counts), counts.shape[1])
        _check_records(counts, dims, codes, names, space, k)
        ds = object.__new__(cls)
        ds._store(counts, codes, names, space, k)
        return ds

    def _store(self, counts, codes, names, space, k):
        object.__setattr__(self, "counts", _readonly(counts))
        object.__setattr__(self, "codes", _readonly(codes))
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "k", k)

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other):
        if not isinstance(other, SnapshotDataset):
            return NotImplemented
        return (
            (self.space, self.k, self.names) == (other.space, other.k, other.names)
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.counts, other.counts)
        )

    def _distinct_rows(self):
        """Distinct (partition, counts) rows: (first, inverse).

        `first[g]` is the first record of row g, rows sorted by partition
        code, then counts; `inverse[i]` is the row of record i. Grouping is
        a lexsort over the columns, so no packed key can overflow.
        """
        n = len(self)
        keys = np.column_stack([self.codes, self.counts])
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        starts = np.ones(n, dtype=bool)
        starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.cumsum(starts) - 1
        return order[starts], inverse

    @property
    def records(self) -> tuple:
        """The (partition_id, Snapshot) records, built on each access; one
        Snapshot is shared by every record of a distinct row."""
        first, inverse = self._distinct_rows()
        rows = [
            (self.names[code], Snapshot(tuple(counts)))
            for code, counts in zip(self.codes[first].tolist(), self.counts[first].tolist())
        ]
        return tuple(map(rows.__getitem__, inverse.tolist()))

    @property
    def partitions(self) -> list:
        return list(self.names)


@dataclass(frozen=True)
class CalibrationTable:
    """Partition -> predicted mixture, every mixture on the size-k lattice.

    counts carries how many records built each entry (None for exact
    reference tables that were never estimated from data); downstream
    scoring uses it for the record-weighted mean.
    """

    entries: dict
    k: int
    space: LabelSpace
    counts: dict | None = None

    def __post_init__(self):
        for pid, mix in self.entries.items():
            if mix.space != self.space:
                raise DimensionMismatch(f"partition {pid!r}: mixture over a different label space")
            if _lattice_counts(mix.points_array(), self.k)[1].size:
                raise InvalidDistribution(
                    f"partition {pid!r}: support off the size-{self.k} snapshot lattice"
                )

    @property
    def partitions(self) -> list:
        return sorted(self.entries)


@dataclass(frozen=True)
class CalibrationScore:
    """Per-partition Wasserstein errors with worst-case and weighted summaries."""

    per_partition: dict
    worst: float
    weighted_mean: float


def _empirical_groups(ds: SnapshotDataset) -> dict:
    """Partition -> (empirical mixture of its snapshot histograms, record count).

    Built from the distinct (partition, counts) rows, with the bits of
    `empirical_mixture` over every record's `snapshot_to_point`: a point
    seen m times among a partition's n records weighs the left-to-right sum
    of m copies of 1/n, the total is that sum of all n, and the weights are
    divided by it only when it is not exactly 1.
    """
    first, inverse = ds._distinct_rows()
    multiplicity = np.bincount(inverse)
    row_codes = ds.codes[first]
    points = simplex_rows(ds.counts[first] / ds.k)  # snapshot_to_point of every row
    # by partition, then in the sorted coordinate order Mixture stores
    order = np.lexsort((*points.T[::-1], row_codes))
    distinct = np.bincount(row_codes, minlength=len(ds.names))
    ends = np.cumsum(distinct)
    sizes = np.bincount(ds.codes, minlength=len(ds.names))
    out = {}
    for code, pid in enumerate(ds.names):
        n = int(sizes[code])
        rows = order[ends[code] - distinct[code]:ends[code]]
        running = np.cumsum(np.full(n, 1.0 / n))
        weights = running[multiplicity[rows] - 1]
        out[pid] = Mixture._from_distinct(points[rows], weights, running[-1], ds.space), n
    return out


def posthoc_calibrate(
    ds: SnapshotDataset,
    partitions: list | None = None,
    fill_missing: bool = False,
) -> CalibrationTable:
    """The empirical mixture of snapshot histograms, per partition.

    `partitions` optionally fixes the full key set the table must cover
    (e.g. the reference table's keys). A requested partition with no
    records is a hard error unless fill_missing is set, in which case it
    gets the uniform mixture over the label-space vertices.
    """
    if not len(ds):
        raise EmptyPartition("dataset has no records")
    groups = _empirical_groups(ds)
    wanted = ds.partitions if partitions is None else sorted(dict.fromkeys(partitions))
    entries = {}
    counts = {}
    num_labels = ds.space.num_labels
    for pid in wanted:
        if pid in groups:
            entries[pid], counts[pid] = groups[pid]
        elif fill_missing:
            entries[pid] = mixture_from_arrays(
                np.eye(num_labels), [1.0 / num_labels] * num_labels, ds.space
            )
            counts[pid] = 0
        else:
            raise EmptyPartition(f"partition {pid!r} has no records")
    return CalibrationTable(entries=entries, k=ds.k, space=ds.space, counts=counts)


def koc_error(
    table: CalibrationTable,
    reference: CalibrationTable,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> CalibrationScore:
    """Per-partition W1 between a table and a reference table.

    The weighted mean weights each partition by the table's record count
    when counts are available, else uniformly.
    """
    if table.k != reference.k:
        raise InvalidDistribution(f"table has k={table.k}, reference has k={reference.k}")
    if table.space != reference.space:
        raise DimensionMismatch("table and reference label spaces differ")
    if set(table.entries) != set(reference.entries):
        missing = set(reference.entries) ^ set(table.entries)
        raise InvalidDistribution(f"partition keys differ: {sorted(missing)}")
    per = {}
    for pid in table.partitions:
        per[pid], _ = wasserstein1(
            table.entries[pid], reference.entries[pid], support_cap=support_cap
        )
    if table.counts and sum(table.counts.get(p, 0) for p in per) > 0:
        weights = {p: table.counts.get(p, 0) for p in per}
    else:
        weights = {p: 1 for p in per}
    total = sum(weights.values())
    weighted = _running_sum(np.array([per[p] * weights[p] for p in per])) / total
    return CalibrationScore(
        per_partition=per,
        worst=max(per.values()),
        weighted_mean=float(weighted),
    )


def required_samples(space: LabelSpace, k: int, eps: float, delta: float) -> int:
    """Snapshots per partition that make the empirical mixture eps-close
    to the exact projection with probability 1 - delta.

    ceil(2 (|Y^(k)| ln 2 + ln(1/delta)) / eps^2) with |Y^(k)| the snapshot
    lattice size.
    """
    if k < 1:
        raise DomainError(f"snapshot size must be >= 1, got {k}")
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    size = snapshot_space_size(space, k)
    return math.ceil(2.0 * (size * math.log(2.0) + math.log(1.0 / delta)) / eps**2)


def hoc_bound(eps: float, space: LabelSpace, k: int) -> float:
    """Higher-order calibration error implied by k-th order error eps:
    eps + l / (2 sqrt(k))."""
    if k < 1:
        raise DomainError(f"snapshot size must be >= 1, got {k}")
    if not 0.0 <= eps < math.inf:
        raise DomainError(f"eps must be finite and non-negative, got {eps}")
    return eps + space.num_labels / (2.0 * math.sqrt(k))