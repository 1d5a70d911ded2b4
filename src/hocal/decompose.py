"""Uncertainty decompositions of a mixture under a generalized entropy.

Predictive uncertainty is the entropy of the centroid, aleatoric the
average entropy of the components, epistemic the (Jensen) gap between
them. The pairwise variant replaces the gap with the expected divergence
between two independent component draws; the cosine law splits it as
eu_tmi = eu + eu_rmi with eu_rmi the average divergence of the centroid
to the components.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .entropy import EntropySpec, divergence_rows, entropy_rows, loss_rows
from .mixture import Mixture, _check_same_space, _running_sum, centroid

REASON_INFINITE = "infinite-divergence"
T_GRID_SIZE = 243


@dataclass(frozen=True)
class UncertaintyReport:
    """(pu, au, eu) plus the pairwise (TMI) and centroid (RMI) refinements of eu.

    pu = au + eu holds by construction; eu is non-negative up to float
    noise for every concave entropy. eu_rmi = E D(c||p) is the average
    divergence of the centroid c to the components, and eu_tmi = E D(p||p')
    over two independent component draws, which the cosine law gives as
    eu + eu_rmi: one O(n l) pass for n support points over l labels. The
    three are None only when some D(c||p) is infinite, which under Shannon is
    exactly when some D(p||p') is (supp c is the union of the supports);
    tmi_reason then says so.
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


def average_entropy(m: Mixture, g: EntropySpec) -> float:
    """E[G(p)] over the mixture: the aleatoric part."""
    return _running_sum(m.weights_array() * entropy_rows(g, m.points_array()))


def decompose(m: Mixture, g: EntropySpec) -> UncertaintyReport:
    """Split the uncertainty of a mixture into predictive, aleatoric, epistemic."""
    center = centroid(m)
    pu = float(entropy_rows(g, center)[0])
    au = average_entropy(m, g)
    eu = pu - au
    d = divergence_rows(g, center, m.points_array())
    if np.isinf(d).any():
        return UncertaintyReport(pu=pu, au=au, eu=eu, tmi_reason=REASON_INFINITE)
    eu_rmi = _running_sum(m.weights_array() * d)
    eu_tmi = eu + eu_rmi
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
    _check_same_space(predicted, bayes)
    return abs(average_entropy(predicted, g) - average_entropy(bayes, g))


def loss_breakdown(predicted: Mixture, bayes: Mixture, g: EntropySpec) -> LossBreakdown:
    """Split E[L<p||q_bar>] for the true components p against the predicted centroid.

    Infinite divergences (Shannon against a boundary centroid) propagate
    as inf in the affected fields rather than raising.
    """
    _check_same_space(predicted, bayes)
    q_bar = centroid(predicted)
    p_bar = centroid(bayes)
    points, weights = bayes.points_array(), bayes.weights_array()
    expected_loss = _running_sum(weights * loss_rows(g, points, q_bar))
    avg_au = average_entropy(bayes, g)
    grouping_loss = _running_sum(weights * divergence_rows(g, points, p_bar))
    foc_error = float(divergence_rows(g, p_bar, q_bar)[0])
    return LossBreakdown(
        expected_loss=expected_loss,
        avg_au=avg_au,
        avg_bias=grouping_loss + foc_error,
        grouping_loss=grouping_loss,
        foc_error=foc_error,
    )


def default_t_grid(num_labels: int) -> list:
    """The probe grid for mgf_diagnostic.

    The full {-1, -0.5, 0, 0.5, 1}^l grid while it has at most T_GRID_SIZE
    points, then the coarser {-1, 0, 1}^l grid, truncated lexicographically
    to T_GRID_SIZE points as a last resort.
    """
    values = (-1.0, -0.5, 0.0, 0.5, 1.0) if 5**num_labels <= T_GRID_SIZE else (-1.0, 0.0, 1.0)
    return list(itertools.islice(itertools.product(values, repeat=num_labels), T_GRID_SIZE))


def mgf_diagnostic(a: Mixture, b: Mixture) -> float:
    """Largest gap in exponential-entropy aleatoric uncertainty over a t grid.

    Two mixtures agree in AU under every concave entropy exactly when they
    are the same mixture; probing -E[exp(t . p)] over a grid of t vectors
    is a cheap screen for that, since these expectations determine the
    mixture's moment-generating function on the probed set.
    """
    _check_same_space(a, b)
    worst = 0.0
    for t in default_t_grid(a.space.num_labels):
        g = EntropySpec.exponential(t)
        gap = abs(average_entropy(a, g) - average_entropy(b, g))
        worst = max(worst, gap)
    return worst