"""Uncertainty decompositions of a mixture under a generalized entropy.

Predictive uncertainty is the entropy of the centroid, aleatoric the
average entropy of the components, epistemic the (Jensen) gap between
them. The pairwise variant replaces the gap with the expected divergence
between two independent component draws; the cosine law splits it as
eu_tmi = eu + eu_rmi with eu_rmi the average divergence of the centroid
to the components.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .entropy import EntropySpec, divergence, divergence_rows, entropy_rows, entropy_value, loss_rows
from .errors import DimensionMismatch
from .mixture import Mixture, _running_sum, centroid

REASON_INFINITE = "infinite-divergence"


@dataclass(frozen=True)
class UncertaintyReport:
    """(pu, au, eu) plus the pairwise (TMI) variants when computable.

    pu = au + eu holds by construction; eu is non-negative up to float
    noise for every concave entropy. The tmi fields are computed for every
    support, in O(n^2 l) time and O(n l) memory; they are None only when a
    divergence came out infinite, and tmi_reason then says so.
    """

    pu: float
    au: float
    eu: float
    pu_tmi: float | None = None
    eu_tmi: float | None = None
    eu_rmi: float | None = None
    tmi_reason: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LossBreakdown:
    """How the expected proper loss of a prediction splits.

    expected_loss = avg_au + avg_bias, and the bias further splits into
    grouping_loss (spread of the true components around their centroid)
    plus foc_error (divergence of the true centroid from the predicted
    one). Both identities are exact for every Bregman divergence.
    """

    expected_loss: float
    avg_au: float
    avg_bias: float
    grouping_loss: float
    foc_error: float

    def to_dict(self) -> dict:
        return asdict(self)


def average_entropy(m: Mixture, g: EntropySpec) -> float:
    """E[G(p)] over the mixture: the aleatoric part."""
    return _running_sum(m.weights_array() * entropy_rows(g, m.points_array()))


def decompose(m: Mixture, g: EntropySpec) -> UncertaintyReport:
    """Split the uncertainty of a mixture into predictive, aleatoric, epistemic."""
    center = centroid(m)
    pu = entropy_value(g, center)
    au = average_entropy(m, g)
    eu = pu - au
    infinite = UncertaintyReport(pu=pu, au=au, eu=eu, tmi_reason=REASON_INFINITE)

    points, weights = m.points_array(), m.weights_array()
    d = divergence_rows(g, center.probs, points)
    if np.isinf(d).any():
        return infinite
    eu_rmi = _running_sum(weights * d)

    # the pairwise pass goes one support row at a time: O(n l) memory
    eu_tmi = 0.0
    for i in range(m.size):
        d = divergence_rows(g, points[i], points)
        if np.isinf(d).any():
            return infinite
        eu_tmi = _running_sum(weights[i] * weights * d, eu_tmi)

    return UncertaintyReport(
        pu=pu,
        au=au,
        eu=eu,
        pu_tmi=au + eu_tmi,
        eu_tmi=eu_tmi,
        eu_rmi=eu_rmi,
    )


def aleatoric_error(predicted: Mixture, bayes: Mixture, g: EntropySpec) -> float:
    """|AU(predicted) - AU(bayes)|: how far the aleatoric estimate is off."""
    if predicted.space != bayes.space:
        raise DimensionMismatch("predicted and reference mixtures live over different label spaces")
    return abs(average_entropy(predicted, g) - average_entropy(bayes, g))


def loss_breakdown(predicted: Mixture, bayes: Mixture, g: EntropySpec) -> LossBreakdown:
    """Split E[L<p||q_bar>] for the true components p against the predicted centroid.

    Infinite divergences (Shannon against a boundary centroid) propagate
    as inf in the affected fields rather than raising.
    """
    if predicted.space != bayes.space:
        raise DimensionMismatch("predicted and reference mixtures live over different label spaces")
    q_bar = centroid(predicted)
    p_bar = centroid(bayes)
    points, weights = bayes.points_array(), bayes.weights_array()
    expected_loss = _running_sum(weights * loss_rows(g, points, q_bar.probs))
    avg_au = average_entropy(bayes, g)
    grouping_loss = _running_sum(weights * divergence_rows(g, points, p_bar.probs))
    foc_error = divergence(g, p_bar, q_bar)
    return LossBreakdown(
        expected_loss=expected_loss,
        avg_au=avg_au,
        avg_bias=grouping_loss + foc_error,
        grouping_loss=grouping_loss,
        foc_error=foc_error,
    )


def default_t_grid(num_labels: int, cap: int = 243) -> list:
    """The probe grid for mgf_diagnostic.

    The full {-1, -0.5, 0, 0.5, 1}^l grid while it fits the cap, then the
    coarser {-1, 0, 1}^l grid, truncated lexicographically as a last
    resort.
    """
    if 5**num_labels <= cap:
        values = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    else:
        values = np.array([-1.0, 0.0, 1.0])
    # the first min(cap, v^l) tuples in lexicographic order are the base-v
    # digits of 0, 1, 2, ..., most significant label first
    rest = np.arange(min(cap, len(values) ** num_labels))
    digits = np.empty((len(rest), num_labels), dtype=np.int64)
    for j in range(num_labels - 1, -1, -1):
        rest, digits[:, j] = np.divmod(rest, len(values))
    return [tuple(t) for t in values[digits].tolist()]


def mgf_diagnostic(a: Mixture, b: Mixture, t_grid: list | None = None) -> float:
    """Largest gap in exponential-entropy aleatoric uncertainty over a t grid.

    Two mixtures agree in AU under every concave entropy exactly when they
    are the same mixture; probing -E[exp(t . p)] over a grid of t vectors
    is a cheap screen for that, since these expectations determine the
    mixture's moment-generating function on the probed set.
    """
    if a.space != b.space:
        raise DimensionMismatch("mixtures live over different label spaces")
    if t_grid is None:
        t_grid = default_t_grid(a.space.num_labels)
    worst = 0.0
    for t in t_grid:
        g = EntropySpec.exponential(t)
        gap = abs(average_entropy(a, g) - average_entropy(b, g))
        worst = max(worst, gap)
    return worst