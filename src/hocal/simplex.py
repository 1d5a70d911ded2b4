"""Label spaces, points on the probability simplex, and k-snapshot histograms.

Points are the rows of (n, l) float arrays, checked by `simplex_rows`. A
snapshot records k labels drawn for a single instance as an order-free
count vector, one row of an (n, l) int64 matrix. Normalizing the counts
embeds the snapshot back into the simplex, which is how every other module
consumes it; the lattice of all such normalized histograms has
C(k+l-1, l-1) points.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DimensionMismatch, DomainError, InvalidDistribution

SUM_TOL = 1e-9
DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class LabelSpace:
    """A finite label set of size num_labels >= 2."""

    num_labels: int

    def __post_init__(self):
        num_labels = _whole_number(self.num_labels, "label count", InvalidDistribution)
        if num_labels < 2:
            raise InvalidDistribution(f"need a label count >= 2, got {num_labels}")
        object.__setattr__(self, "num_labels", num_labels)


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


def l1_rows(points: np.ndarray, center) -> np.ndarray:
    """l1 distance from every row of an (n, l) array to one point, each
    summed left to right."""
    center = np.asarray(center, dtype=float)
    if points.shape[1] != len(center):
        raise DimensionMismatch(f"{points.shape[1]}-label point vs {len(center)}-label point")
    return np.cumsum(np.abs(points - center), axis=1)[:, -1]


def snapshot_space_size(space: LabelSpace, k: int) -> int:
    return math.comb(k + space.num_labels - 1, space.num_labels - 1)


def _whole_number(value, name: str, error=DomainError) -> int:
    """value as a Python int, refusing bool and non-integers (NaN and inf
    included) with `error` (DomainError by default) naming the quantity
    `name`; numpy integers are accepted."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def _snapshot_size(k) -> int:
    """k as a Python int (see _whole_number), refusing k < 1 with DomainError."""
    k = _whole_number(k, "snapshot size")
    if k < 1:
        raise DomainError(f"snapshot size must be >= 1, got {k}")
    return k


def _check_lattice_size(space: LabelSpace, k, cap: int) -> int:
    """k as a Python int (see _snapshot_size), refusing a lattice of more
    than `cap` points."""
    k = _snapshot_size(k)
    size = snapshot_space_size(space, k)
    if size > cap:
        raise CapExceeded(
            f"snapshot space has {size} points, above the cap of {cap}"
        )
    return k


def enumerate_snapshot_space(space: LabelSpace, k: int) -> np.ndarray:
    """All size-k count vectors over the label space, as an (N, l) int64 matrix.

    The order is lexicographic with the first label's count descending,
    so for binary spaces the label-1 frequency increases down the rows:
    the gaps between l - 1 bars among k + l - 1 slots, bar positions in
    reversed lexicographic order. Raises CapExceeded when C(k+l-1, l-1)
    exceeds DEFAULT_ENUM_CAP.
    """
    k = _check_lattice_size(space, k, DEFAULT_ENUM_CAP)
    l = space.num_labels
    bars = itertools.chain.from_iterable(itertools.combinations(range(k + l - 1), l - 1))
    bars = np.fromiter(bars, dtype=np.int64).reshape(-1, l - 1)[::-1]
    return np.diff(bars, axis=1, prepend=-1, append=k + l - 1) - 1
