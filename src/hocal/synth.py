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

import numpy as np

from .calibrate import CalibrationTable, SnapshotDataset
from .errors import DomainError
from .mixture import Mixture, RngSeed, _sample_counts, mixture_from_arrays, project_k
from .simplex import LabelSpace

QUADRATURE_POINTS = 1000
X_DOMAIN_END = 3.0
# the last bin absorbs the folded-normal tail; mass beyond this cutoff is ~6e-16
LAST_BIN_CUTOFF = 8.0
CLAMP_LO = 0.01
CLAMP_HI = 0.99


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
    """x = |standard normal|, p(x) = clamp(0.5 + a1 sin(w1 x) + a2 sin(w2 x));
    partitions are equal-width bins of x over [0, 3], overflow folded into
    the last bin."""

    a1: float = 0.3
    omega1: float = 2.0
    a2: float = 0.15
    omega2: float = 20.0
    bins: int = 20

    def __post_init__(self):
        if self.bins < 1:
            raise DomainError(f"need at least one bin, got {self.bins}")


@dataclass(frozen=True)
class RandomMixtureSpec:
    """Support points from a symmetric Dirichlet, weights from a flat Dirichlet."""

    num_labels: int
    support_size: int
    dirichlet_alpha: float

    def __post_init__(self):
        if self.num_labels < 2 or self.support_size < 1 or self.dirichlet_alpha <= 0:
            raise DomainError("need num_labels >= 2, support_size >= 1, alpha > 0")


def _conditional_prob(spec: BinaryRegression, x):
    raw = 0.5 + spec.a1 * np.sin(spec.omega1 * x) + spec.a2 * np.sin(spec.omega2 * x)
    return np.clip(raw, CLAMP_LO, CLAMP_HI)


def _bin_edges(spec: BinaryRegression):
    width = X_DOMAIN_END / spec.bins
    return [(i * width, (i + 1) * width) for i in range(spec.bins)]


def _bin_id(index: int, bins: int) -> str:
    return f"bin{index:0{len(str(bins - 1))}d}"


def _bin_index(x, spec: BinaryRegression):
    width = X_DOMAIN_END / spec.bins
    return np.minimum((x / width).astype(int), spec.bins - 1)


@lru_cache(maxsize=32)
def bayes_mixtures(spec) -> dict:
    """The exact (unprojected) Bayes mixture for every partition.

    For the regression nature each bin's mixture is the distribution of
    p(x) for x conditioned on the bin, discretized on a 1000-point
    quadrature grid against the folded-normal density.
    """
    space = LabelSpace(2)
    if isinstance(spec, TwoScenario):
        if spec.which == 1:
            truth = mixture_from_arrays([(0.5, 0.5)], [1.0], space)
        else:
            truth = mixture_from_arrays([(1.0, 0.0), (0.0, 1.0)], [0.5, 0.5], space)
        return {"all": truth}
    if not isinstance(spec, BinaryRegression):
        raise DomainError(f"no Bayes table for {type(spec).__name__}")
    out = {}
    edges = _bin_edges(spec)
    for i, (lo, hi) in enumerate(edges):
        if i == spec.bins - 1:
            hi = LAST_BIN_CUTOFF
        xs = lo + (np.arange(QUADRATURE_POINTS) + 0.5) * (hi - lo) / QUADRATURE_POINTS
        density = 2.0 * np.exp(-xs * xs / 2.0) / math.sqrt(2.0 * math.pi)
        weights = density / density.sum()
        probs = _conditional_prob(spec, xs)
        points = np.column_stack([1.0 - probs, probs])
        out[_bin_id(i, spec.bins)] = mixture_from_arrays(points, weights, space)
    return out


@lru_cache(maxsize=64)
def reference_table(spec, k: int) -> CalibrationTable:
    """Exact k-th order projections of the Bayes mixtures, as a table."""
    mixtures = bayes_mixtures(spec)
    entries = {pid: project_k(m, k) for pid, m in mixtures.items()}
    return CalibrationTable(entries=entries, k=k, space=LabelSpace(2), counts=None)


def gen_dataset(spec, n: int, k: int, rng: RngSeed):
    """n k-snapshots from the nature plus its exact reference table."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    space = LabelSpace(2)
    if isinstance(spec, TwoScenario):
        truth = bayes_mixtures(spec)["all"]
        counts = _sample_counts(truth, k, n, rng)
        codes, names = np.zeros(n, dtype=np.int64), ["all"]
    elif isinstance(spec, BinaryRegression):
        gen = rng.generator()
        xs = np.abs(gen.normal(size=n))
        probs = _conditional_prob(spec, xs)
        ones = gen.binomial(k, probs)
        counts = np.column_stack([k - ones, ones])
        codes, names = _bin_index(xs, spec), [_bin_id(i, spec.bins) for i in range(spec.bins)]
    else:
        raise DomainError(f"cannot generate snapshots for {type(spec).__name__}")
    dataset = SnapshotDataset._from_columns(counts, codes, names, space, k)
    return dataset, reference_table(spec, k)


def random_mixture(spec: RandomMixtureSpec, rng: RngSeed) -> Mixture:
    """One random mixture drawn from the Dirichlet recipe, seed-deterministic."""
    if not isinstance(spec, RandomMixtureSpec):
        raise DomainError("random_mixture needs a RandomMixtureSpec")
    gen = rng.generator()
    points = gen.dirichlet(np.full(spec.num_labels, spec.dirichlet_alpha), size=spec.support_size)
    weights = gen.dirichlet(np.ones(spec.support_size))
    return mixture_from_arrays(points, weights, LabelSpace(spec.num_labels))