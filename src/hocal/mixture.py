"""Finitely supported mixtures over the simplex.

A mixture stands in for any distribution over probability vectors: a
predicted second-order output, a ground-truth Bayes mixture for a
partition cell, or the distribution of normalized k-snapshot histograms.
The k-th order projection of a mixture is computed exactly (multinomial
masses, no sampling), which is what makes the lemma-level tests in this
package possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidDistribution
from .simplex import (
    DEFAULT_ENUM_CAP,
    LabelSpace,
    _check_lattice_size,
    _whole_number,
    enumerate_snapshot_space,
    simplex_rows,
)

WEIGHT_SUM_TOL = 1e-9
MERGE_TOL = 1e-12
LATTICE_TOL = 1e-9


@dataclass(frozen=True)
class RngSeed:
    """Explicit 64-bit seed for a counter-based (Philox) generator.

    All randomness in the package flows through one of these; there is no
    ambient global state.
    """

    seed: int

    def __post_init__(self):
        seed = _whole_number(self.seed, "seed", InvalidDistribution)
        if not 0 <= seed < 2**64:
            raise InvalidDistribution(f"seed must be a 64-bit unsigned int, got {seed}")
        object.__setattr__(self, "seed", seed)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed))


def _check_total(total: float):
    """A mixture's weights must sum to 1 within 1e-9; a NaN total fails too."""
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        raise InvalidDistribution(f"weights sum to {total}, expected 1")


def _check_weights(w: np.ndarray):
    bad = ~((w > 0.0) & (w < math.inf))
    if bad.any():
        raise InvalidDistribution(f"weight {w[bad][0]} is not positive and finite")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _coordinate_rows(points, space: LabelSpace) -> np.ndarray:
    """(n, l) coordinates of an array or a sequence of rows, each row checked
    and renormalized by `simplex_rows`."""
    if not len(points):
        raise InvalidDistribution("a mixture needs at least one support point")
    if not (isinstance(points, np.ndarray) and points.ndim == 2):
        points = [tuple(map(float, p)) for p in points]
        if len({len(r) for r in points}) > 1:
            wrong = next(len(r) for r in points if len(r) != space.num_labels)
            raise DimensionMismatch(f"{wrong}-label point in a {space.num_labels}-label mixture")
    rows = simplex_rows(np.asarray(points, dtype=float))
    if rows.shape[1] != space.num_labels:
        raise DimensionMismatch(
            f"{rows.shape[1]}-label point in a {space.num_labels}-label mixture"
        )
    return rows


def _near_clusters(rows: np.ndarray) -> np.ndarray:
    """Cluster ids such that distinct rows within MERGE_TOL in l1 share one.

    Column by column, each cluster is split where two consecutive sorted
    values differ by more than MERGE_TOL. Rows within the tolerance in l1
    are within it in every column, and so is every value between them.
    """
    cluster = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        order = np.lexsort((col, cluster))
        ids, vals = cluster[order], col[order]
        split = np.ones(len(rows), dtype=bool)
        split[1:] = (ids[1:] != ids[:-1]) | (vals[1:] - vals[:-1] > MERGE_TOL)
        cluster[order] = np.cumsum(split) - 1
    return cluster


def _merge(rows: np.ndarray, w: np.ndarray):
    """Rows in sorted order with points within MERGE_TOL in l1 merged.

    Exact duplicates fold onto their first occurrence, summing weights in
    input order. Then, only if `_near_clusters` finds candidates, a sorted
    sweep merges each row into the last kept row within the tolerance.
    """
    order = np.lexsort(rows.T[::-1])
    rows, w = rows[order], w[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    if not first.all():
        folded = np.zeros(int(first.sum()))
        np.add.at(folded, np.cumsum(first) - 1, w)  # sequential, in input order
        rows, w = rows[first], folded
    if np.bincount(_near_clusters(rows)).max() == 1:
        return rows, w
    owner, kept = np.arange(len(rows)), []
    for i, row in enumerate(rows):
        reps = rows[kept]
        lo = int(np.searchsorted(reps[:, 0], row[0] - MERGE_TOL, side="left"))
        hits = np.flatnonzero(np.abs(reps[lo:] - row).sum(axis=1) <= MERGE_TOL)
        if hits.size:
            owner[i] = kept[lo + int(hits[-1])]
        else:
            kept.append(i)
    merged = np.zeros(len(rows))
    np.add.at(merged, owner, w)
    return rows[kept], merged[kept]


class Mixture:
    """A finitely supported distribution over simplex points, stored as arrays.

    `Mixture(points, weights, space)` takes an (n, l) array or a sequence
    of rows and n weights. Each row is checked and renormalized by
    `simplex_rows`, and points within l1 distance 1e-12 are merged; weights
    must be positive, finite and sum to 1 within 1e-9 (then renormalized).
    The support is kept as a read-only (size, l) coordinate array in sorted
    order and a read-only (size,) weight array over a read-only `space`.
    Equality is exact equality of space, points and weights; mixtures are
    not hashable.
    """

    __hash__ = None

    def __init__(self, points, weights, space: LabelSpace):
        if len(points) != len(weights):
            raise InvalidDistribution(f"{len(points)} points but {len(weights)} weights")
        rows = _coordinate_rows(points, space)
        w = np.fromiter(map(float, weights), dtype=float)
        _check_weights(w)
        # running sum in input order: the total fixes the renormalized bits
        self._store(*_merge(rows, w), float(np.cumsum(w)[-1]), space)

    def _store(self, points: np.ndarray, weights: np.ndarray, total: float, space: LabelSpace):
        _check_weights(weights)
        _check_total(total)
        self._space = space
        self._points = _readonly(points)
        self._weights = _readonly(weights / total if total != 1.0 else weights)

    @classmethod
    def _from_distinct(cls, points, weights, total: float, space: LabelSpace) -> "Mixture":
        """Trusted path for sorted (n, l) points no two within MERGE_TOL, their
        weights, and `total`, the weight sum as the generic constructor forms
        it from the caller's input. Only the merge is skipped: same bits.
        The mixture takes ownership of both arrays and makes them read-only,
        so callers pass arrays nothing else holds."""
        mix = object.__new__(cls)
        mix._store(np.asarray(points, dtype=float), np.asarray(weights, dtype=float), total, space)
        return mix

    @property
    def space(self) -> LabelSpace:
        return self._space

    @property
    def size(self) -> int:
        return len(self._weights)

    def points_array(self) -> np.ndarray:
        """Support coordinates as a read-only (size, num_labels) array."""
        return self._points

    def weights_array(self) -> np.ndarray:
        """Support weights as a read-only (size,) array."""
        return self._weights

    def __eq__(self, other):
        if not isinstance(other, Mixture):
            return NotImplemented
        return (
            self.space == other.space
            and np.array_equal(self._points, other._points)
            and np.array_equal(self._weights, other._weights)
        )


def _check_same_space(a: Mixture, b: Mixture):
    """Raise DimensionMismatch unless both mixtures live over one label space."""
    if a.space != b.space:
        raise DimensionMismatch(
            f"{a.space.num_labels}-label mixture vs {b.space.num_labels}-label mixture"
        )


# the constructor under its earlier name, which the benchmark sweep calls
mixture_from_arrays = Mixture


def centroid(m: Mixture) -> np.ndarray:
    """The mean of the mixture as a read-only (l,) row, checked and
    renormalized by `simplex_rows`."""
    avg = m.weights_array() @ m.points_array()
    return _readonly(simplex_rows(avg[None])[0])


def _running_sum(terms: np.ndarray) -> float:
    """terms[0] + terms[1] + ... from 0.0, left to right: the bits of
    Python's `sum`. The 0.0 start makes the empty sum, and a sum of -0.0
    terms, 0.0."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def _lattice_counts(points: np.ndarray, k: int) -> np.ndarray:
    """(n, l) int64 counts round(k * p) of point rows. The first row off the
    size-k lattice raises InvalidDistribution: some coordinate of k * p more
    than 1e-9 * k from its count, or counts that do not sum to k. A k above
    2**53, where k * p and its rounding are no longer exact, raises
    DomainError."""
    if k > 2**53:
        raise DomainError(f"snapshot size {k} is above 2**53, too large for a lattice check")
    scaled = points * k
    counts = np.rint(scaled)
    off = (np.abs(scaled - counts) > LATTICE_TOL * k).any(axis=1)
    counts = counts.astype(np.int64)
    off = np.flatnonzero(off | (counts.sum(axis=1) != k))
    if off.size:
        point = tuple(points[off[0]].tolist())
        raise InvalidDistribution(f"support point {point} is not on the size-{k} snapshot lattice")
    return counts


def _lattice_rank(counts: np.ndarray, k: int) -> np.ndarray:
    """Position of each size-k count row in `enumerate_snapshot_space` order.

    That order takes the first count descending, then recurses: at label j,
    C(t - c_j + s - 2, s - 1) rows come first, for t labels left over s
    classes. No term exceeds the lattice size, so nothing overflows.
    """
    num, l = counts.shape
    rank = np.zeros(num, dtype=np.int64)
    left = np.full(num, k, dtype=np.int64)
    for j in range(l - 1):
        s = l - j
        before = np.array([math.comb(t + s - 2, s - 1) for t in range(k + 1)], dtype=np.int64)
        rank += before[left - counts[:, j]]
        left -= counts[:, j]
    return rank


# cephes `lgam`, the code behind scipy's `gammaln`: log(sqrt(2 pi)) and the
# Stirling series in 1/x^2 it adds for 13 <= x < 1000
_LS2PI = 0.91893853320467274178
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)

# support points x lattice points per batched step of _projection_masses
_BLOCK_TERMS = 2**16


def _lgam(x: int) -> float:
    """log((x - 1)!) for an integer 1 <= x <= 10^8, bit for bit what cephes
    `lgam` returns: the exact product below 13, the Stirling series above.
    Not math.lgamma, which differs in the last bit on about half of them."""
    if x < 13:
        return math.log(math.factorial(x - 1))
    x = float(x)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    series = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        series = series * p + a
    return q + series / x


@lru_cache(maxsize=128)
def _lattice(space: LabelSpace, k: int):
    """Snapshot lattice, cached per (space, k): the (N, l) float count
    matrix and log multinomial coefficients in lattice order, the lattice indices
    in the sorted order Mixture stores, and the points' coordinates in that order."""
    counts = enumerate_snapshot_space(space, k)
    logfact = np.array([_lgam(n + 1) for n in range(k + 1)])
    logcoef = logfact[k] - logfact[counts].sum(axis=1)
    counts = counts.astype(float)
    coords = simplex_rows(counts / k)
    order = np.lexsort(coords.T[::-1])
    return counts, logcoef, order, coords[order]


def _projection_masses(m: Mixture, k: int) -> np.ndarray:
    """Projected mass of every lattice point, in lattice order.

    Support points go through in blocks of about _BLOCK_TERMS terms. Each
    block makes one batched gemv, the BLAS call a single point's
    `counts @ logp` makes, and a cumulative sum down the support carried
    from block to block, so every mass keeps the bits of a per-point loop.
    """
    counts, logcoef, _, _ = _lattice(m.space, k)
    points, weights = m.points_array(), m.weights_array()
    pos = points > 0.0
    logp = np.where(pos, np.log(np.where(pos, points, 1.0)), 0.0)
    mass = np.zeros(len(counts))
    step = max(1, _BLOCK_TERMS // len(counts))
    for start in range(0, len(points), step):
        block = slice(start, start + step)
        logmass = logcoef + (counts @ logp[block, :, None])[..., 0]
        zero = ~pos[block]
        if zero.any():
            # a zero-probability label with a positive count kills the term
            logmass[((counts > 0) & zero[:, None, :]).any(axis=2)] = -np.inf
        terms = weights[block, None] * np.exp(logmass)
        terms[0] += mass
        mass = np.cumsum(terms, axis=0)[-1]
    return mass


def project_k(m: Mixture, k: int) -> Mixture:
    """Exact distribution of normalized k-snapshot histograms under m.

    The mass at count vector c is sum_i w_i * Multinomial(k; c) * prod_j p_ij^c_j,
    computed in log space. Zero-mass lattice points are dropped, so a
    deterministic component (a vertex) projects to a point mass at itself.
    Raises CapExceeded when the lattice has more than DEFAULT_ENUM_CAP points.
    """
    k = _check_lattice_size(m.space, k, DEFAULT_ENUM_CAP)
    mass = _projection_masses(m, k)
    _, _, order, probs = _lattice(m.space, k)
    # lattice points are 2/k apart in l1, so the merge could never fire
    keep = mass > 0.0
    in_order = keep[order]
    return Mixture._from_distinct(
        probs[in_order], mass[order[in_order]], _running_sum(mass[keep]), m.space
    )


def sample_snapshots(m: Mixture, k: int, n: int, rng: RngSeed) -> np.ndarray:
    """The count vectors of n independent k-snapshots under one seed (own
    stream), as an (n, l) int64 matrix."""
    gen = rng.generator()
    idx = gen.choice(m.size, size=n, p=m.weights_array())
    points = m.points_array()
    counts = np.empty((n, m.space.num_labels), dtype=np.int64)
    for comp in np.flatnonzero(np.bincount(idx)):  # the components drawn
        rows = idx == comp
        counts[rows] = gen.multinomial(k, points[comp], size=int(rows.sum()))
    return counts
