"""Label spaces, points on the probability simplex, and k-snapshot histograms.

A snapshot records k labels drawn for a single instance as an order-free
count vector.  Normalizing the counts embeds the snapshot back into the
simplex, which is how every other module consumes it; the lattice of all
such normalized histograms has C(k+l-1, l-1) points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DimensionMismatch, InvalidDistribution

SUM_TOL = 1e-9
DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class LabelSpace:
    """A finite label set of size num_labels >= 2."""

    num_labels: int

    def __post_init__(self):
        if not isinstance(self.num_labels, int) or self.num_labels < 2:
            raise InvalidDistribution(
                f"need an integer label count >= 2, got {self.num_labels!r}"
            )


@dataclass(frozen=True)
class SimplexPoint:
    """A probability vector over the labels of one LabelSpace.

    The one-row case of `simplex_rows`, which checks it and renormalizes it
    exactly so downstream identities see mass 1.
    """

    probs: tuple

    def __post_init__(self):
        row = simplex_rows([[float(p) for p in self.probs]])[0]
        object.__setattr__(self, "probs", tuple(row.tolist()))

    @classmethod
    def _trusted(cls, probs) -> "SimplexPoint":
        """A point from coordinates that already passed `simplex_rows`, not re-checked."""
        point = object.__new__(cls)
        object.__setattr__(point, "probs", tuple(probs))
        return point

    @property
    def dim(self) -> int:
        return len(self.probs)

    @property
    def bias(self) -> float:
        """Probability of label 1; only meaningful for binary spaces."""
        if self.dim != 2:
            raise DimensionMismatch("bias is a binary-space coordinate")
        return self.probs[1]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


def simplex_rows(raw) -> np.ndarray:
    """Every row of an (n, l) array checked and renormalized as a simplex
    point; the first bad row raises. Entries below -1e-12 are refused, small
    negatives clamped to 0; the left-to-right sum from 0.0 must be finite and
    within 1e-9 of 1, and divides the row unless it is exactly 1."""
    raw = np.asarray(raw, dtype=float)
    if raw.shape[1] < 2:
        raise InvalidDistribution("a simplex point needs at least 2 entries")
    rows = np.where(raw < 0.0, 0.0, raw)  # max(p, 0.0): keeps -0.0 and NaN
    total = np.cumsum(rows, axis=1)[:, -1] + 0.0  # + 0.0: a sum from 0.0 is never -0.0
    negative = (raw < -1e-12).any(axis=1)
    bad = np.flatnonzero(negative | ~(np.abs(total - 1.0) <= SUM_TOL))
    if bad.size:
        i = bad[0]
        if negative[i]:
            raise InvalidDistribution(f"negative probability in {tuple(raw[i].tolist())}")
        if not math.isfinite(total[i]):
            raise InvalidDistribution(f"non-finite probability in {tuple(rows[i].tolist())}")
        raise InvalidDistribution(f"probabilities sum to {float(total[i])}, expected 1")
    off = total != 1.0
    rows[off] /= total[off, None]
    return rows


@dataclass(frozen=True)
class Snapshot:
    """k labels for one instance, symmetrized into per-label counts."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) < 2:
            raise InvalidDistribution("a snapshot needs at least 2 labels")
        if any(c < 0 for c in counts):
            raise InvalidDistribution(f"negative count in {counts}")
        if sum(counts) < 1:
            raise InvalidDistribution("a snapshot must contain at least one label")
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return sum(self.counts)

    @property
    def dim(self) -> int:
        return len(self.counts)


def l1_rows(points: np.ndarray, center) -> np.ndarray:
    """l1 distance from every row of an (n, l) array to one point, each
    summed left to right."""
    center = np.asarray(center, dtype=float)
    if points.shape[1] != len(center):
        raise DimensionMismatch(f"{points.shape[1]}-label point vs {len(center)}-label point")
    return np.cumsum(np.abs(points - center), axis=1)[:, -1]


def l1_distance(a: SimplexPoint, b: SimplexPoint) -> float:
    """Sum of absolute coordinate differences; at most 2 on the simplex."""
    return float(l1_rows(np.atleast_2d(a.probs), b.probs)[0])


def snapshot_to_point(s: Snapshot) -> SimplexPoint:
    """The normalized count histogram counts/k as a simplex point."""
    return SimplexPoint(np.divide(s.counts, s.k))


def snapshot_space_size(space: LabelSpace, k: int) -> int:
    return math.comb(k + space.num_labels - 1, space.num_labels - 1)


def _check_lattice_size(space: LabelSpace, k: int, cap: int):
    """Refuse a snapshot size below 1 and a lattice of more than `cap` points."""
    if k < 1:
        raise InvalidDistribution(f"snapshot size must be >= 1, got {k}")
    size = snapshot_space_size(space, k)
    if size > cap:
        raise CapExceeded(
            f"snapshot space has {size} points, above the cap of {cap}"
        )


def _snapshot_counts(space: LabelSpace, k: int) -> np.ndarray:
    """Every size-k count vector, uncapped, as an (N, l) int64 matrix in
    enumeration order: the gaps between l - 1 bars among k + l - 1 slots,
    bar positions in reversed lexicographic order."""
    l = space.num_labels
    bars = itertools.chain.from_iterable(itertools.combinations(range(k + l - 1), l - 1))
    bars = np.fromiter(bars, dtype=np.int64).reshape(-1, l - 1)[::-1]
    return np.diff(bars, axis=1, prepend=-1, append=k + l - 1) - 1


def enumerate_snapshot_space(
    space: LabelSpace, k: int, cap: int = DEFAULT_ENUM_CAP
) -> list:
    """All size-k count vectors over the label space, in a fixed order.

    The order is lexicographic with the first label's count descending,
    so for binary spaces the label-1 frequency increases along the list.
    Raises CapExceeded when C(k+l-1, l-1) exceeds `cap`.
    """
    _check_lattice_size(space, k, cap)
    return [Snapshot(row) for row in _snapshot_counts(space, k).tolist()]
