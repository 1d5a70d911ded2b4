"""Synthetic data generators with exact ground truth.

Three natures: a two-scenario ambiguity example (same label marginals,
different mixtures: indistinguishable from single labels, separated by
2-snapshots), a binary regression task whose conditional probability has
low- and high-frequency components, and random Dirichlet mixtures for
property tests. Reference tables are computed by quadrature, never by
sampling, so tests always have an exact Bayes side to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .calibrate import CalibrationTable, SnapshotDataset
from .errors import DomainError
from .mixture import Mixture, RngSeed, project_k, sample_snapshots
from .simplex import LabelSpace, _snapshot_size, _whole_number

QUADRATURE_POINTS = 1000
X_DOMAIN_END = 3.0
# the last bin absorbs the folded-normal tail; mass beyond this cutoff is ~6e-16
LAST_BIN_CUTOFF = 8.0
CLAMP_LO = 0.01
CLAMP_HI = 0.99
# p(x) = clamp(0.5 + A1 sin(OMEGA1 x) + A2 sin(OMEGA2 x)): low and high frequency
A1, OMEGA1 = 0.3, 2.0
A2, OMEGA2 = 0.15, 20.0


@dataclass(frozen=True)
class TwoScenario:
    """Scenario 1: every instance is a true coin flip. Scenario 2: half the
    instances are deterministically label 0, half deterministically label 1."""

    which: int

    def __post_init__(self):
        if self.which not in (1, 2):
            raise DomainError(f"scenario must be 1 or 2, got {self.which}")


@dataclass(frozen=True)
class BinaryRegression:
    """x = |standard normal|, p(x) = clamp(0.5 + A1 sin(OMEGA1 x) + A2 sin(OMEGA2 x));
    partitions are equal-width bins of x over [0, 3], overflow folded into
    the last bin."""

    bins: int = 20

    def __post_init__(self):
        object.__setattr__(self, "bins", _whole_number(self.bins, "bins"))
        if self.bins < 1:
            raise DomainError(f"need at least one bin, got {self.bins}")


@dataclass(frozen=True)
class RandomMixtureSpec:
    """Support points from a symmetric Dirichlet, weights from a flat Dirichlet."""

    num_labels: int
    support_size: int
    dirichlet_alpha: float

    def __post_init__(self):
        for field in ("num_labels", "support_size"):
            object.__setattr__(self, field, _whole_number(getattr(self, field), field))
        if not (2 <= self.num_labels and 1 <= self.support_size and 0 < self.dirichlet_alpha < math.inf):
            raise DomainError("need finite num_labels >= 2, support_size >= 1, alpha > 0")


def _conditional_prob(x):
    raw = 0.5 + A1 * np.sin(OMEGA1 * x) + A2 * np.sin(OMEGA2 * x)
    return np.clip(raw, CLAMP_LO, CLAMP_HI)


def _bin_id(index: int, bins: int) -> str:
    return f"bin{index:0{len(str(bins - 1))}d}"


def _bin_index(x, spec: BinaryRegression):
    width = X_DOMAIN_END / spec.bins
    return np.minimum((x / width).astype(int), spec.bins - 1)


@lru_cache(maxsize=32)
def bayes_mixtures(spec) -> MappingProxyType:
    """The exact (unprojected) Bayes mixture for every partition, as a
    read-only mapping, since the cache hands the same one to every caller.

    For the regression nature each bin's mixture is the distribution of
    p(x) for x conditioned on the bin, discretized on a 1000-point
    quadrature grid against the folded-normal density.
    """
    space = LabelSpace(2)
    if isinstance(spec, TwoScenario):
        if spec.which == 1:
            truth = Mixture([(0.5, 0.5)], [1.0], space)
        else:
            truth = Mixture([(1.0, 0.0), (0.0, 1.0)], [0.5, 0.5], space)
        return MappingProxyType({"all": truth})
    if not isinstance(spec, BinaryRegression):
        raise DomainError(f"no Bayes table for {type(spec).__name__}")
    out = {}
    width = X_DOMAIN_END / spec.bins
    for i in range(spec.bins):
        lo = i * width
        hi = (i + 1) * width if i < spec.bins - 1 else LAST_BIN_CUTOFF
        xs = lo + (np.arange(QUADRATURE_POINTS) + 0.5) * (hi - lo) / QUADRATURE_POINTS
        density = 2.0 * np.exp(-xs * xs / 2.0) / math.sqrt(2.0 * math.pi)
        weights = density / density.sum()
        probs = _conditional_prob(xs)
        points = np.column_stack([1.0 - probs, probs])
        out[_bin_id(i, spec.bins)] = Mixture(points, weights, space)
    return MappingProxyType(out)


@lru_cache(maxsize=64)
def reference_table(spec, k: int) -> CalibrationTable:
    """Exact k-th order projections of the Bayes mixtures, as a table."""
    entries = {pid: project_k(m, k) for pid, m in bayes_mixtures(spec).items()}
    return CalibrationTable(entries=entries, k=k, space=LabelSpace(2), counts=None)


def gen_dataset(spec, n: int, k: int, rng: RngSeed) -> SnapshotDataset:
    """n k-snapshots from the nature; `reference_table` gives its exact table."""
    n, k = _whole_number(n, "n"), _snapshot_size(k)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if isinstance(spec, TwoScenario):
        truth = bayes_mixtures(spec)["all"]
        counts = sample_snapshots(truth, k, n, rng)
        codes, names = np.zeros(n, dtype=np.int64), ["all"]
    elif isinstance(spec, BinaryRegression):
        gen = rng.generator()
        xs = np.abs(gen.normal(size=n))
        probs = _conditional_prob(xs)
        ones = gen.binomial(k, probs)
        counts = np.column_stack([k - ones, ones])
        codes, names = _bin_index(xs, spec), [_bin_id(i, spec.bins) for i in range(spec.bins)]
    else:
        raise DomainError(f"cannot generate snapshots for {type(spec).__name__}")
    return SnapshotDataset(counts, codes, names, LabelSpace(2), k)


def random_mixture(spec: RandomMixtureSpec, rng: RngSeed) -> Mixture:
    """One random mixture drawn from the Dirichlet recipe, seed-deterministic."""
    if not isinstance(spec, RandomMixtureSpec):
        raise DomainError("random_mixture needs a RandomMixtureSpec")
    gen = rng.generator()
    points = gen.dirichlet(np.full(spec.num_labels, spec.dirichlet_alpha), size=spec.support_size)
    weights = gen.dirichlet(np.ones(spec.support_size))
    return Mixture(points, weights, LabelSpace(spec.num_labels))