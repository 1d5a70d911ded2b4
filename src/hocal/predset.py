"""Prediction sets over the simplex with calibration-aware coverage.

A set of centers with an l1 radius captures the true conditional
distribution with prescribed probability: if the predicted mixture is
within Wasserstein distance eps of the truth and captures 1 - alpha of
its own mass, enlarging the radius by delta costs at most eps/delta of
coverage. For binary spaces, raw moments alone give a Chebyshev-style
interval around m_1.

The shape of the set (finite centers plus radius) is a choice this
package makes because its mixtures are finitely supported; membership is
then exact and enlargement closed-form.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .mixture import Mixture, _readonly, _running_sum
from .moments import MomentVector, central_moment
from .simplex import l1_rows, simplex_rows


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """All simplex points within l1 radius of some center.

    `centers` is kept as a read-only (m, l) float copy of the rows given,
    each checked by `simplex_rows` but not renormalized, so that a set
    built from a mixture's points keeps their bits. Equality is exact
    equality of centers and radius; sets are not hashable.
    """

    centers: np.ndarray
    radius: float

    __hash__ = None

    def __post_init__(self):
        if not 0.0 <= self.radius < math.inf:
            raise DomainError(f"radius must be finite and non-negative, got {self.radius}")
        centers = np.array(self.centers, dtype=float, ndmin=2)
        simplex_rows(centers)
        object.__setattr__(self, "centers", _readonly(centers))

    def __eq__(self, other):
        if not isinstance(other, PredictionSet):
            return NotImplemented
        return self.radius == other.radius and np.array_equal(self.centers, other.centers)

    def contains_rows(self, points) -> np.ndarray:
        """Membership of every row of an (n, l) array, one center at a time."""
        inside = np.zeros(len(points), dtype=bool)
        for c in self.centers:
            inside |= l1_rows(points, c) <= self.radius
        return inside

    def to_dict(self) -> dict:
        return {"centers": self.centers.tolist(), "radius": self.radius}


@dataclass(frozen=True)
class IntervalSet:
    """A bias-coordinate interval [lo, hi] inside [0, 1] (binary spaces)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 <= self.lo <= self.hi <= 1.0:
            raise DomainError(f"need 0 <= lo <= hi <= 1, got [{self.lo}, {self.hi}]")

    def contains_rows(self, points) -> np.ndarray:
        """Membership of every row of an (n, 2) array."""
        if points.shape[1] != 2:
            raise DimensionMismatch("bias is a binary-space coordinate")
        bias = points[:, 1]
        return (self.lo <= bias) & (bias <= self.hi)

    def to_dict(self) -> dict:
        return asdict(self)


def build_mass_set(m: Mixture, alpha: float) -> PredictionSet:
    """Fewest support points (greedy by weight) capturing mass >= 1 - alpha.

    Ties in weight break lexicographically on the point coordinates, so
    the construction is deterministic. Radius starts at zero; widen with
    `enlarge`.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    points, weights = m.points_array(), m.weights_array()
    order = np.lexsort((*points.T[::-1], -weights))
    reached = np.cumsum(weights[order]) >= 1.0 - alpha
    count = int(np.argmax(reached)) + 1 if reached.any() else m.size
    return PredictionSet(centers=points[order[:count]], radius=0.0)


def enlarge(s: PredictionSet, delta: float) -> PredictionSet:
    """The same centers with the radius grown by delta."""
    if not 0.0 <= delta < math.inf:
        raise DomainError(f"delta must be finite and non-negative, got {delta}")
    return PredictionSet(centers=s.centers, radius=s.radius + delta)


def coverage(s, m: Mixture) -> float:
    """Probability mass of m inside the set, summed in support order."""
    return _running_sum(m.weights_array()[s.contains_rows(m.points_array())])


def moment_interval(mv: MomentVector, alpha: float) -> IntervalSet:
    """A Chebyshev-style interval around m_1 from the highest even moment.

    With j = k (or k - 1 when k is odd), c_j the j-th central moment and
    eps' its error bound, the interval is m_1 +/- ((c_j + eps')/alpha)^(1/j),
    clipped to [0, 1]. Markov's inequality makes its coverage at least
    1 - alpha whenever eps honestly bounds the moment errors.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    j = mv.k if mv.k % 2 == 0 else mv.k - 1
    if j < 2:
        raise DomainError(f"need moments up to an even order >= 2, got k={mv.k}")
    c_j, eps_prime = central_moment(mv, j)
    mass = max(c_j + eps_prime, 0.0)
    delta = (mass / alpha) ** (1.0 / j)
    m1 = mv.values[0]
    return IntervalSet(lo=max(m1 - delta, 0.0), hi=min(m1 + delta, 1.0))


def sqrt_eps_rule(eps: float) -> tuple:
    """The default (alpha, delta) = (sqrt(eps), sqrt(eps)) splitting rule."""
    if not 0.0 <= eps < math.inf:
        raise DomainError(f"eps must be finite and non-negative, got {eps}")
    root = eps**0.5
    return root, root