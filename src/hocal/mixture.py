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

from .errors import DimensionMismatch, InvalidDistribution
from .simplex import (
    DEFAULT_ENUM_CAP,
    LabelSpace,
    SimplexPoint,
    Snapshot,
    _check_lattice_size,
    _snapshot_counts,
    simplex_rows,
)

WEIGHT_SUM_TOL = 1e-9
MERGE_TOL = 1e-12
LATTICE_TOL = 1e-9


@dataclass(frozen=True)
class RngSeed:
    """Explicit 64-bit seed for a counter-based (Philox) generator.

    All randomness in the package flows through one of these; there is no
    ambient global state. `child` derives independent streams so parallel
    workers or repeated draws can partition the seed space.
    """

    seed: int

    def __post_init__(self):
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise InvalidDistribution(f"seed must be a 64-bit unsigned int, got {self.seed!r}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed))

    def child(self, index: int) -> "RngSeed":
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        return RngSeed(int(ss.generate_state(1, dtype=np.uint64)[0]))


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
    """(n, l) coordinates of an array or a list of SimplexPoints, taken as
    they are, and rows, checked and renormalized as SimplexPoint does."""
    if not len(points):
        raise InvalidDistribution("a mixture needs at least one support point")
    if isinstance(points, np.ndarray) and points.ndim == 2:
        raw, given = points, np.zeros(len(points), dtype=bool)
    else:
        given = np.array([isinstance(p, SimplexPoint) for p in points], dtype=bool)
        raw = [p.probs if g else tuple(map(float, p)) for p, g in zip(points, given)]
        if len({len(r) for r in raw}) > 1:
            wrong = next(len(r) for r in raw if len(r) != space.num_labels)
            raise DimensionMismatch(f"{wrong}-label point in a {space.num_labels}-label mixture")
        raw = np.array(raw, dtype=float).reshape(len(raw), -1)
    rows = simplex_rows(raw)
    rows[given] = raw[given]
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

    The support is a read-only (size, l) coordinate array in sorted order
    and a read-only (size,) weight array. Points within l1 distance 1e-12
    are merged on construction; weights must be positive, finite and sum to
    1 within 1e-9 (then renormalized). `Mixture(support, space)` takes
    (SimplexPoint, weight) pairs and `support` gives them back, built on
    first access. Equality is exact equality of space, points and weights;
    mixtures are not hashable.
    """

    __hash__ = None

    def __init__(self, support, space: LabelSpace):
        pairs = tuple(support)
        self._build(_coordinate_rows([p for p, _ in pairs], space), [w for _, w in pairs], space)

    def _build(self, rows: np.ndarray, weights, space: LabelSpace):
        w = np.fromiter(map(float, weights), dtype=float)
        _check_weights(w)
        # running sum in input order: the total fixes the renormalized bits
        self._store(*_merge(rows, w), float(np.cumsum(w)[-1]), space)

    def _store(self, points: np.ndarray, weights: np.ndarray, total: float, space: LabelSpace):
        _check_weights(weights)
        _check_total(total)
        self.space = space
        self._points = _readonly(points)
        self._weights = _readonly(weights / total if total != 1.0 else weights)
        self._support = None

    @classmethod
    def _from_distinct(cls, points, weights, total: float, space: LabelSpace) -> "Mixture":
        """Trusted path for sorted (n, l) points no two within MERGE_TOL, their
        weights, and `total`, the weight sum as the generic constructor forms
        it from the caller's input. Only the merge is skipped: same bits."""
        mix = object.__new__(cls)
        mix._store(np.asarray(points, dtype=float), np.asarray(weights, dtype=float), total, space)
        return mix

    @property
    def size(self) -> int:
        return len(self._weights)

    @property
    def support(self) -> tuple:
        """(SimplexPoint, weight) pairs in stored order, built on first access."""
        if self._support is None:
            points = map(SimplexPoint._trusted, self._points.tolist())
            self._support = tuple(zip(points, self._weights.tolist()))
        return self._support

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


def mixture_from_arrays(points, weights, space: LabelSpace) -> Mixture:
    """Build a Mixture from parallel point/weight sequences of equal length."""
    if len(points) != len(weights):
        raise InvalidDistribution(f"{len(points)} points but {len(weights)} weights")
    mix = object.__new__(Mixture)
    mix._build(_coordinate_rows(points, space), weights, space)
    return mix


def centroid(m: Mixture) -> SimplexPoint:
    """The mean of the mixture, a single simplex point."""
    avg = m.weights_array() @ m.points_array()
    return SimplexPoint._trusted(simplex_rows(avg[None])[0].tolist())


def _running_sum(terms: np.ndarray, start: float = 0.0) -> float:
    """start + terms[0] + terms[1] + ..., left to right: the bits of Python's
    `sum` (start 0) or of a `+=` loop continuing from start."""
    return float(np.cumsum(np.concatenate(([start], terms)))[-1])


def _lattice_counts(points: np.ndarray, k: int):
    """(n, l) int64 counts round(k * p) of point rows, and the rows off the
    size-k lattice: some coordinate of k * p more than 1e-9 * k from its
    count, or counts that do not sum to k."""
    scaled = points * k
    counts = np.rint(scaled)
    off = (np.abs(scaled - counts) > LATTICE_TOL * k).any(axis=1)
    counts = counts.astype(np.int64)
    return counts, np.flatnonzero(off | (counts.sum(axis=1) != k))


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


@lru_cache(maxsize=128)
def _lattice(space: LabelSpace, k: int):
    """Snapshot lattice, cached per (space, k), uncapped: the (N, l) float count
    matrix and log multinomial coefficients in lattice order, the lattice indices
    in the sorted order Mixture stores, and the points' coordinates in that order."""
    from scipy.special import gammaln  # not math.lgamma: the two differ in the last bit

    counts = _snapshot_counts(space, k).astype(float)
    logcoef = gammaln(k + 1) - gammaln(counts + 1.0).sum(axis=1)
    coords = simplex_rows(counts / k)
    order = np.lexsort(coords.T[::-1])
    return counts, logcoef, order, coords[order]


def _projection_masses(m: Mixture, k: int) -> np.ndarray:
    """Projected mass of every lattice point, in lattice order."""
    counts, logcoef, _, _ = _lattice(m.space, k)
    mass = np.zeros(len(counts))
    for p, weight in zip(m.points_array(), m.weights_array().tolist()):
        pos = p > 0.0
        logp = np.where(pos, np.log(np.where(pos, p, 1.0)), 0.0)
        logmass = logcoef + counts @ logp
        if not pos.all():
            # a zero-probability label with a positive count kills the term
            dead = (counts[:, ~pos] > 0).any(axis=1)
            logmass[dead] = -np.inf
        mass += weight * np.exp(logmass)
    return mass


def project_k(m: Mixture, k: int, cap: int = DEFAULT_ENUM_CAP) -> Mixture:
    """Exact distribution of normalized k-snapshot histograms under m.

    The mass at count vector c is sum_i w_i * Multinomial(k; c) * prod_j p_ij^c_j,
    computed in log space. Zero-mass lattice points are dropped, so a
    deterministic component (a vertex) projects to a point mass at itself.
    """
    _check_lattice_size(m.space, k, cap)
    mass = _projection_masses(m, k)
    _, _, order, probs = _lattice(m.space, k)
    # lattice points are 2/k apart in l1, so the merge could never fire
    keep = mass > 0.0
    in_order = keep[order]
    return Mixture._from_distinct(
        probs[in_order], mass[order[in_order]], _running_sum(mass[keep]), m.space
    )


def _sample_counts(m: Mixture, k: int, n: int, rng: RngSeed) -> np.ndarray:
    """The count vectors of n independent k-snapshots, as an (n, l) int64 matrix."""
    gen = rng.generator()
    idx = gen.choice(m.size, size=n, p=m.weights_array())
    points = m.points_array()
    counts = np.empty((n, m.space.num_labels), dtype=np.int64)
    for comp in np.unique(idx):
        rows = idx == comp
        counts[rows] = gen.multinomial(k, points[comp], size=int(rows.sum()))
    return counts


def sample_snapshots(m: Mixture, k: int, n: int, rng: RngSeed) -> list:
    """n independent k-snapshots under one seed (vectorized, own stream)."""
    return [Snapshot(tuple(row)) for row in _sample_counts(m, k, n, rng).tolist()]


def empirical_mixture(points: list) -> Mixture:
    """Uniform mixture over observed points, with duplicates merged."""
    if not points:
        raise InvalidDistribution("cannot build a mixture from no points")
    space = LabelSpace(points[0].dim)
    n = len(points)
    return Mixture(tuple((p, 1.0 / n) for p in points), space)
