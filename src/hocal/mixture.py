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
    enumerate_snapshot_space,
    snapshot_to_point,
)

WEIGHT_SUM_TOL = 1e-9
MERGE_TOL = 1e-12


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


def _merge_support(pairs):
    """Deduplicate support points closer than MERGE_TOL in l1, summing weights.

    Exact duplicates are folded with a dict; near-duplicates are caught by
    a sorted sweep (two points within l1 tolerance cannot differ by more
    than the tolerance in their first coordinate). Kept representatives
    stay in sorted order, so the candidate window for each incoming point
    is the trailing run whose first coordinate is within tolerance; the
    distances over that window are computed vectorized, which keeps
    lattice-sized supports with heavy first-coordinate ties cheap.
    """
    acc = {}
    for point, weight in pairs:
        key = point.probs
        if key in acc:
            acc[key] = (acc[key][0], acc[key][1] + weight)
        else:
            acc[key] = (point, weight)
    reps = sorted(acc.values(), key=lambda pw: pw[0].probs)
    if not reps:
        return []
    buf = np.empty((len(reps), len(reps[0][0].probs)))
    kept = 0
    merged = []
    for point, weight in reps:
        row = np.asarray(point.probs, dtype=float)
        target = None
        lo = int(np.searchsorted(buf[:kept, 0], row[0] - MERGE_TOL, side="left"))
        if lo < kept:
            dist = np.abs(buf[lo:kept] - row).sum(axis=1)
            hits = np.flatnonzero(dist <= MERGE_TOL)
            if hits.size:
                target = lo + int(hits[-1])
        if target is None:
            merged.append((point, weight))
            buf[kept] = row
            kept += 1
        else:
            merged[target] = (merged[target][0], merged[target][1] + weight)
    return merged


def _check_total(total: float):
    """A mixture's weights must sum to 1 within 1e-9; a NaN total fails too."""
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        raise InvalidDistribution(f"weights sum to {total}, expected 1")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=True)
class Mixture:
    """A finitely supported distribution over simplex points.

    Support points within l1 distance 1e-12 are merged on construction,
    weights must be positive, finite and sum to 1 within 1e-9 (then
    renormalized), and the support is stored in sorted coordinate order so
    equal mixtures compare equal regardless of input order. The coordinate
    and weight arrays are built once and returned read-only.
    """

    support: tuple
    space: LabelSpace

    def __post_init__(self):
        pairs = [(p, float(w)) for p, w in self.support]
        if not pairs:
            raise InvalidDistribution("a mixture needs at least one support point")
        for point, weight in pairs:
            if point.dim != self.space.num_labels:
                raise DimensionMismatch(
                    f"{point.dim}-label point in a {self.space.num_labels}-label mixture"
                )
            if not 0.0 < weight < math.inf:
                raise InvalidDistribution(f"weight {weight} is not positive and finite")
        # Python sum in input order: the total fixes the renormalized bits
        total = sum(w for _, w in pairs)
        _check_total(total)
        merged = _merge_support(pairs)
        if total != 1.0:
            merged = [(p, w / total) for p, w in merged]
        object.__setattr__(self, "support", tuple(merged))

    @classmethod
    def _from_distinct(cls, points, probs, weights, total: float, space: LabelSpace) -> "Mixture":
        """Trusted path for supports that are distinct by construction.

        `points` are the SimplexPoints in stored (sorted) order, no two
        within MERGE_TOL, `probs` their coordinates and `weights` their
        float weights in that order. `total` is the weight sum exactly as
        __post_init__ would have formed it from the caller's input. Only the
        merge is skipped: the weights are checked and renormalized by
        `total` as in __post_init__, so the result equals the generic
        constructor's bit for bit.
        """
        w = np.asarray(weights, dtype=float)
        bad = ~((w > 0.0) & (w < math.inf))
        if bad.any():
            raise InvalidDistribution(f"weight {w[bad][0]} is not positive and finite")
        _check_total(total)
        if total != 1.0:
            w = w / total
        mix = object.__new__(cls)
        object.__setattr__(mix, "support", tuple(zip(points, w.tolist())))
        object.__setattr__(mix, "space", space)
        object.__setattr__(mix, "_points", _readonly(probs))
        object.__setattr__(mix, "_weights", _readonly(w))
        return mix

    @property
    def size(self) -> int:
        return len(self.support)

    def points_array(self) -> np.ndarray:
        """Support coordinates as a read-only (size, num_labels) array, built once."""
        if "_points" not in self.__dict__:
            arr = np.array([p.probs for p, _ in self.support], dtype=float)
            object.__setattr__(self, "_points", _readonly(arr))
        return self._points

    def weights_array(self) -> np.ndarray:
        """Support weights as a read-only array, built once."""
        if "_weights" not in self.__dict__:
            arr = np.array([w for _, w in self.support], dtype=float)
            object.__setattr__(self, "_weights", _readonly(arr))
        return self._weights


def mixture_from_arrays(points, weights, space: LabelSpace) -> Mixture:
    """Build a Mixture from parallel point/weight sequences."""
    support = tuple(
        (p if isinstance(p, SimplexPoint) else SimplexPoint(tuple(p)), w)
        for p, w in zip(points, weights)
    )
    return Mixture(support, space)


def centroid(m: Mixture) -> SimplexPoint:
    """The mean of the mixture, a single simplex point."""
    avg = m.weights_array() @ m.points_array()
    return SimplexPoint(tuple(avg))


@lru_cache(maxsize=128)
def _lattice(space: LabelSpace, k: int, cap: int):
    """Cached snapshot lattice with count matrix, points, and log multinomial coefficients.

    `order` lists the lattice indices in the sorted coordinate order that
    Mixture stores its support in; `probs` holds the points' coordinates
    in that order.
    """
    from scipy.special import gammaln  # not math.lgamma: the two differ in the last bit

    snapshots = tuple(enumerate_snapshot_space(space, k, cap))
    counts = np.array([s.counts for s in snapshots], dtype=float)
    points = tuple(snapshot_to_point(s) for s in snapshots)
    logcoef = gammaln(k + 1) - gammaln(counts + 1.0).sum(axis=1)
    order = np.array(sorted(range(len(points)), key=lambda i: points[i].probs), dtype=np.int64)
    probs = np.array([points[i].probs for i in order], dtype=float)
    return snapshots, counts, points, logcoef, order, probs


def _projection_masses(m: Mixture, k: int, cap: int) -> np.ndarray:
    """Projected mass of every lattice point, in lattice order."""
    _, counts, _, logcoef, _, _ = _lattice(m.space, k, cap)
    mass = np.zeros(len(counts))
    for point, weight in m.support:
        p = point.as_array()
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
    mass = _projection_masses(m, k, cap)
    _, _, points, _, order, probs = _lattice(m.space, k, cap)
    # lattice points are 2/k apart in l1, so the merge could never fire
    keep = mass > 0.0
    in_order = keep[order]
    kept = order[in_order]
    return Mixture._from_distinct(
        [points[i] for i in kept],
        probs[in_order],
        mass[kept],
        sum(mass[keep].tolist()),
        m.space,
    )


def sample_snapshot(m: Mixture, k: int, rng: RngSeed) -> Snapshot:
    """One k-snapshot: draw a support point by weight, then k iid labels."""
    gen = rng.generator()
    idx = gen.choice(m.size, p=m.weights_array())
    counts = gen.multinomial(k, m.support[idx][0].probs)
    return Snapshot(tuple(int(c) for c in counts))


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
