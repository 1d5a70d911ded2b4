import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.errors import DimensionMismatch, DomainError, InvalidDistribution
from hocal.mixture import RngSeed, mixture_from_arrays, project_k
from hocal.moments import MomentVector, estimate_moments
from hocal.predset import (
    IntervalSet,
    PredictionSet,
    build_mass_set,
    coverage,
    enlarge,
    moment_interval,
    sqrt_eps_rule,
)
from hocal.simplex import LabelSpace
from hocal.synth import RandomMixtureSpec, random_mixture

BINARY = LabelSpace(2)


def binary(biases, weights):
    return mixture_from_arrays([(1.0 - b, b) for b in biases], weights, BINARY)


def test_build_mass_set_greedy():
    m = binary([0.1, 0.5, 0.9], [0.5, 0.3, 0.2])
    s = build_mass_set(m, alpha=0.25)
    assert sorted(s.centers.tolist()) == [[0.5, 0.5], [0.9, 0.1]]
    assert s.radius == 0.0
    s2 = build_mass_set(m, alpha=0.5)
    assert s2.centers.tolist() == [[0.9, 0.1]]


def test_build_mass_set_tie_break_is_deterministic():
    m = binary([0.75, 0.25], [0.5, 0.5])
    s = build_mass_set(m, alpha=0.6)
    # equal weights: the lexicographically smaller point wins
    assert s.centers.tolist() == [[0.25, 0.75]]


def test_build_mass_set_alpha_domain():
    m = binary([0.5], [1.0])
    with pytest.raises(DomainError):
        build_mass_set(m, alpha=0.0)
    with pytest.raises(DomainError):
        build_mass_set(m, alpha=1.0)


def test_enlarge_and_contains_rows():
    s = PredictionSet(centers=[(0.5, 0.5)], radius=0.0)
    grown = enlarge(s, 0.2)
    assert grown.radius == pytest.approx(0.2)
    assert grown.contains_rows(np.array([(0.45, 0.55), (0.3, 0.7)])).tolist() == [True, False]
    with pytest.raises(DomainError):
        enlarge(s, -0.1)


def test_centers_are_checked_read_only_rows_kept_as_given():
    for bad in ([(math.nan, 1.0)], [(0.5, 0.6)], [(-0.1, 1.1)], [(1.0,)], [(math.inf, 0.0)]):
        with pytest.raises(InvalidDistribution):
            PredictionSet(centers=bad, radius=0.1)
    rows = np.array([(0.5, 0.5 + 1e-10)])
    s = PredictionSet(centers=rows, radius=0.1)
    assert s.centers.tolist() == rows.tolist() and s.centers is not rows
    with pytest.raises(ValueError):
        s.centers[0, 0] = 0.4
    assert s == PredictionSet(centers=[(0.5, 0.5 + 1e-10)], radius=0.1)
    assert s != PredictionSet(centers=[(0.5, 0.5)], radius=0.1)
    with pytest.raises(TypeError):
        hash(s)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_radius_and_delta_must_be_finite_and_non_negative(bad):
    s = PredictionSet(centers=[(0.5, 0.5)], radius=0.0)
    with pytest.raises(DomainError):
        PredictionSet(centers=s.centers, radius=bad)
    with pytest.raises(DomainError):
        enlarge(s, bad)
    assert enlarge(s, 0.0) == s


def test_membership_on_rows_matches_a_point_by_point_reference():
    centers = [(0.5, 0.5), (0.9, 0.1)]
    s = PredictionSet(centers=centers, radius=0.1)
    interval = IntervalSet(lo=0.2, hi=0.55)
    rows = [(0.5, 0.5), (0.46, 0.54), (0.8, 0.2), (0.86, 0.14), (0.3, 0.7), (1.0, 0.0)]
    in_set = [any(abs(r[0] - c[0]) + abs(r[1] - c[1]) <= 0.1 for c in centers) for r in rows]
    assert s.contains_rows(np.array(rows)).tolist() == in_set
    assert in_set == [True, True, False, True, False, False]
    in_interval = [0.2 <= r[1] <= 0.55 for r in rows]
    assert interval.contains_rows(np.array(rows)).tolist() == in_interval
    with pytest.raises(DimensionMismatch):
        interval.contains_rows(np.array([(0.2, 0.3, 0.5)]))


def test_coverage_counts_contained_mass():
    m = binary([0.1, 0.5, 0.9], [0.25, 0.5, 0.25])
    s = PredictionSet(centers=[(0.5, 0.5)], radius=0.3)
    # |b - 0.5| <= 0.15 in l1 terms: only the middle point
    assert coverage(s, m) == pytest.approx(0.5, abs=1e-15)


def test_mass_set_coverage_on_its_own_mixture():
    m = binary([0.1, 0.3, 0.6, 0.9], [0.4, 0.3, 0.2, 0.1])
    for alpha in (0.05, 0.2, 0.5):
        s = build_mass_set(m, alpha)
        assert coverage(s, m) >= 1.0 - alpha - 1e-12


def test_moment_interval_point_mass_is_tight():
    m = binary([0.3], [1.0])
    mv = estimate_moments(project_k(m, 2), 2, eps=0.0)
    interval = moment_interval(mv, alpha=0.2)
    assert interval.lo == pytest.approx(0.3, abs=1e-9)
    assert interval.hi == pytest.approx(0.3, abs=1e-9)
    assert interval.contains_rows(np.array([(0.7, 0.3)])).tolist() == [True]


def test_moment_interval_uniform_vertices():
    mv = MomentVector(k=2, values=(0.5, 0.5), eps=0.0)
    interval = moment_interval(mv, alpha=0.5)
    # c2 = 0.25, delta = sqrt(0.5) ~ 0.707: clipped to [0, 1]
    assert interval.lo == 0.0
    assert interval.hi == 1.0


def test_moment_interval_odd_k_uses_previous_even_moment():
    m = binary([0.2, 0.6], [0.5, 0.5])
    mv = estimate_moments(project_k(m, 3), 3, eps=0.0)
    interval = moment_interval(mv, alpha=0.5)
    c2 = 0.5 * (0.2 - 0.4) ** 2 + 0.5 * (0.6 - 0.4) ** 2
    delta = (c2 / 0.5) ** 0.5
    assert interval.lo == pytest.approx(max(0.4 - delta, 0.0), abs=1e-12)
    assert interval.hi == pytest.approx(0.4 + delta, abs=1e-12)


def test_moment_interval_needs_even_order_two():
    mv = MomentVector(k=1, values=(0.5,), eps=0.0)
    with pytest.raises(DomainError):
        moment_interval(mv, alpha=0.1)


def test_interval_set_validation():
    with pytest.raises(DomainError):
        IntervalSet(lo=0.6, hi=0.4)
    with pytest.raises(DomainError):
        IntervalSet(lo=-0.1, hi=0.5)
    s = IntervalSet(lo=0.25, hi=0.75)
    assert s.contains_rows(np.array([(0.5, 0.5), (0.9, 0.1)])).tolist() == [True, False]


def test_serialization_dicts():
    s = PredictionSet(centers=[(0.5, 0.5)], radius=0.1)
    assert s.to_dict() == {"centers": [[0.5, 0.5]], "radius": 0.1}
    assert IntervalSet(lo=0.2, hi=0.8).to_dict() == {"lo": 0.2, "hi": 0.8}


def test_sqrt_eps_rule():
    alpha, delta = sqrt_eps_rule(0.04)
    assert alpha == pytest.approx(0.2, abs=1e-15)
    assert delta == pytest.approx(0.2, abs=1e-15)
    for eps in (-1e-3, -0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="eps must be finite and non-negative"):
            sqrt_eps_rule(eps)


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.05, 0.1, 0.25, 0.5]),
)
def test_moment_interval_coverage_property(seed, alpha):
    # with exact moments the Chebyshev-style interval must capture
    # at least 1 - alpha of the mixture
    spec = RandomMixtureSpec(num_labels=2, support_size=5, dirichlet_alpha=0.6)
    m = random_mixture(spec, RngSeed(seed))
    mv = estimate_moments(project_k(m, 4), 4, eps=0.0)
    interval = moment_interval(mv, alpha)
    assert coverage(interval, m) >= 1.0 - alpha - 1e-12