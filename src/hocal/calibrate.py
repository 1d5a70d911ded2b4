"""Post-hoc k-th order calibration from snapshot data.

Per partition, the calibrated predictor is simply the empirical mixture
of normalized snapshot histograms; with N at the level the sample-size
formula prescribes, that empirical mixture is within eps of the exact
k-th order projection of the cell's Bayes mixture with probability
1 - delta.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, DomainError, EmptyPartition, InvalidDistribution
from .mixture import Mixture, _lattice_counts, _readonly, _running_sum
from .simplex import LabelSpace, _snapshot_size, simplex_rows, snapshot_space_size
from .transport import DEFAULT_SUPPORT_CAP, wasserstein1


def _int64_array(values, what: str) -> np.ndarray:
    """values as a new int64 array; an entry that is not a whole number
    within int64 (NaN and inf included) raises InvalidDistribution naming
    `what`. Integer and bool arrays convert as they are."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "biu":
        raw = raw.astype(float)
        whole = (np.abs(raw) < 2.0**63) & (raw == np.trunc(raw))
        if not whole.all():
            raise InvalidDistribution(f"{what} {float(raw[~whole][0])} is not an int64 integer")
    return raw.astype(np.int64)


def _is_count(value) -> bool:
    """Whether value is a record count: a non-negative integer, numpy
    integers included, bool, floats and NaN refused."""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return operator.index(value) >= 0
    except TypeError:
        return False


def _check_records(counts, codes, names, space: LabelSpace, k: int):
    """Every record has l labels, size k and no negative count.

    Row i of `counts` holds record i's counts and `codes[i]` indexes its
    partition id in `names`. The columns are added one at a time, and a sum
    that wraps past int64 counts as a wrong size, so every count of a record
    that passes lies in [0, k]. The first record that fails raises, naming
    its partition.
    """
    l = space.num_labels
    if counts.ndim != 2 or counts.shape[1] != l:
        raise DimensionMismatch(f"count matrix of shape {counts.shape} in a {l}-label dataset")
    sizes = np.zeros(len(counts), dtype=np.int64)
    lows = sizes.copy()
    wrapped = np.zeros(len(counts), dtype=bool)
    for column in counts.T:
        sizes += column
        np.minimum(lows, column, out=lows)
        # a sum of non-negative terms wraps exactly when it drops below the
        # term just added
        wrapped |= sizes < column
    bad = np.flatnonzero((sizes != k) | (lows < 0) | wrapped)
    if not bad.size:
        return
    i = bad[0]
    pid = names[codes[i]]
    if lows[i] < 0:
        raise InvalidDistribution(f"partition {pid!r}: negative count in a snapshot")
    size = sum(counts[i].tolist())
    raise InvalidDistribution(f"partition {pid!r}: snapshot of size {size}, expected {k}")


def _group(codes, counts, num_codes: int, k: int):
    """(first, inverse) of the distinct (code, counts) rows of records with
    codes in [0, num_codes) and counts in [0, k] that sum to k.

    Rows are sorted by code, then counts; `first[g]` is the first record of
    row g and `inverse[i]` the row of record i. Each record is keyed by one
    int64, its code and every count but the last in mixed radix
    (num_codes, k + 1, ..., k + 1): the last count is k less the others.
    Where the next digit would overflow int64, the key so far is first
    replaced by its rank among the distinct keys, and the count by its rank
    too if that is not enough, which keeps the order. One unstable sort of
    the keys groups the records.
    """
    n = len(codes)
    if not n:  # k may then lie beyond int64
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    key, bound = codes, num_codes
    for column in counts.T[:-1]:
        radix = k + 1
        if bound * radix >= 2**63:
            key, bound = _rank(key)
            if bound * radix >= 2**63:
                column, radix = _rank(column)
        key = key * radix + column
        bound *= radix
    order = np.argsort(key)
    ordered = key[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return np.minimum.reduceat(order, np.flatnonzero(starts)), inverse


def _rank(values):
    """(rank of each value among the distinct values, their count)."""
    distinct, rank = np.unique(values, return_inverse=True)
    return rank, len(distinct)


class SnapshotDataset:
    """(partition_id, snapshot) records, all snapshots of one size k, stored as columns.

    `SnapshotDataset(counts, codes, names, space, k)` takes an (n, l) int
    count matrix, one row per record, and n codes indexing `names`; counts
    and codes that are not whole numbers are refused, not truncated. `names`
    may repeat ids, include ids that no record uses, and need not be
    sorted; ids are stored as strings. The dataset keeps its own read-only
    copy of the counts as `counts`, an (n, l) int64 matrix; `codes` is a
    read-only (n,) int64 array indexing `names`, the sorted partition ids
    that have records; `k` is stored as a Python int, and bool, non-integers
    and k < 1 are refused. Records keep their input order. Equality compares
    the columns; datasets are not hashable.
    """

    def __init__(self, counts, codes, names, space: LabelSpace, k: int):
        counts = _int64_array(counts, "count")
        codes = _int64_array(codes, "partition code")
        if codes.shape != counts.shape[:1]:
            raise InvalidDistribution(f"{len(codes)} codes for {len(counts)} count rows")
        if codes.size and not 0 <= codes.min() <= codes.max() < len(names):
            raise InvalidDistribution(f"partition code outside [0, {len(names)})")
        used = np.flatnonzero(np.bincount(codes, minlength=len(names)))
        used_ids = [str(names[i]) for i in used.tolist()]
        self.names = tuple(sorted(set(used_ids)))
        rank = {pid: i for i, pid in enumerate(self.names)}
        code_of = np.zeros(len(names), dtype=np.int64)
        code_of[used] = [rank[pid] for pid in used_ids]
        codes = code_of[codes]
        k = _snapshot_size(k)
        _check_records(counts, codes, self.names, space, k)
        first, inverse = _group(codes, counts, len(self.names), k)
        self._rows = _readonly(first), _readonly(inverse)
        self.counts = _readonly(counts)
        self.codes = _readonly(codes)
        self.space = space
        self.k = k

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
        code, then counts; `inverse[i]` is the row of record i. Both are
        found once, by the constructor.
        """
        return self._rows

    @property
    def records(self) -> tuple:
        """The (partition_id, counts tuple) records, built on each access;
        one pair is shared by every record of a distinct row."""
        first, inverse = self._distinct_rows()
        rows = [
            (self.names[code], tuple(counts))
            for code, counts in zip(self.codes[first].tolist(), self.counts[first].tolist())
        ]
        return tuple(map(rows.__getitem__, inverse.tolist()))

    @property
    def partitions(self) -> list:
        return list(self.names)


@dataclass(frozen=True)
class CalibrationTable:
    """Partition -> predicted mixture, every mixture on the size-k lattice.

    k must be an integer >= 1 (numpy integers included, bool refused) and
    is stored as a Python int. counts carries how many records built each
    entry (None for exact reference tables that were never estimated from
    data); downstream scoring uses it for the record-weighted mean. Counts
    cover every entry or none (None or empty): a partition left out would
    weigh 0. Each count must be a non-negative integer, stored as a Python
    int, for a partition that has an entry. Both are stored as read-only
    copies, so the checked entries are the only ones a table has.
    """

    entries: Mapping
    k: int
    space: LabelSpace
    counts: Mapping | None = None

    def __post_init__(self):
        object.__setattr__(self, "k", _snapshot_size(self.k))
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        if self.counts is not None:
            counts = dict(self.counts)
            for pid, count in counts.items():
                if pid not in self.entries:
                    raise InvalidDistribution(f"count for partition {pid!r}, which has no entry")
                if not _is_count(count):
                    raise InvalidDistribution(
                        f"partition {pid!r}: count {count!r} is not a non-negative integer"
                    )
            if counts:
                for pid in self.entries:
                    if pid not in counts:
                        raise InvalidDistribution(f"partition {pid!r} has an entry but no count")
            counts = {pid: int(count) for pid, count in counts.items()}
            object.__setattr__(self, "counts", MappingProxyType(counts))
        for pid, mix in self.entries.items():
            if mix.space != self.space:
                raise DimensionMismatch(f"partition {pid!r}: mixture over a different label space")
            try:
                _lattice_counts(mix.points_array(), self.k)
            except InvalidDistribution as exc:
                raise InvalidDistribution(f"partition {pid!r}: {exc}") from None

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
    `Mixture(points, [1/n] * n, space)` over every record's normalized
    histogram counts/k: a point seen m times among a partition's n records
    weighs the left-to-right sum of m copies of 1/n, the total is that sum
    of all n, and the weights are divided by it only when it is not
    exactly 1.
    """
    first, inverse = ds._distinct_rows()
    multiplicity = np.bincount(inverse)
    row_codes = ds.codes[first]
    points = simplex_rows(ds.counts[first] / ds.k)
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
            entries[pid] = Mixture(np.eye(num_labels), [1.0 / num_labels] * num_labels, ds.space)
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

    Each partition is one `wasserstein1(..., k=table.k)` call, on the
    route `transport._route` picks; `support_cap` binds only on HiGHS.
    The weighted mean weights each partition by the table's record count
    when it has counts and they are not all 0, else uniformly.
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
            table.entries[pid], reference.entries[pid], support_cap=support_cap, k=table.k
        )
    weights = {p: table.counts[p] for p in per} if table.counts else {}
    if not sum(weights.values()):
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
    lattice size. Raises DomainError when that count is not a finite float.
    """
    k = _snapshot_size(k)
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    size = snapshot_space_size(space, k)
    try:
        samples = 2.0 * (size * math.log(2.0) + math.log(1.0 / delta)) / eps**2
    except (OverflowError, ZeroDivisionError):  # size beyond a float; eps**2 underflows to 0
        samples = math.inf
    if not math.isfinite(samples):
        raise DomainError(
            f"the sample count for eps={eps}, delta={delta} and a lattice of {size} points "
            "is not a finite float"
        )
    return math.ceil(samples)


def hoc_bound(eps: float, space: LabelSpace, k: int) -> float:
    """Higher-order calibration error implied by k-th order error eps:
    eps + l / (2 sqrt(k)). Raises DomainError when k is beyond a float."""
    k = _snapshot_size(k)
    if not 0.0 <= eps < math.inf:
        raise DomainError(f"eps must be finite and non-negative, got {eps}")
    try:
        root = math.sqrt(k)
    except OverflowError:
        raise DomainError(f"snapshot size {k} is beyond a float") from None
    return eps + space.num_labels / (2.0 * root)