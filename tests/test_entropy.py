import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.entropy import (
    EntropySpec,
    divergence,
    entropy_value,
    gradient,
    proper_loss,
    shannon_modulus_bound,
)
from hocal.errors import DimensionMismatch, DomainError
from hocal.simplex import SimplexPoint

P37 = SimplexPoint((0.3, 0.7))
Q64 = SimplexPoint((0.6, 0.4))
HALF = SimplexPoint((0.5, 0.5))

interior_binary = st.floats(min_value=0.02, max_value=0.98)


def test_shannon_values():
    g = EntropySpec.shannon()
    assert entropy_value(g, P37) == pytest.approx(0.881290899230693, abs=1e-14)
    assert entropy_value(g, HALF) == pytest.approx(1.0, abs=1e-14)
    # 0 log 0 = 0 at the boundary
    assert entropy_value(g, SimplexPoint((1.0, 0.0))) == 0.0
    gnat = EntropySpec.shannon(math.e)
    assert entropy_value(gnat, P37) == pytest.approx(0.610864302054894, abs=1e-14)


def test_brier_values():
    assert entropy_value(EntropySpec.brier(), P37) == pytest.approx(0.42, abs=1e-14)
    scaled = EntropySpec.brier(binary_scaled=True)
    assert entropy_value(scaled, P37) == pytest.approx(0.84, abs=1e-14)
    # the scaled form only kicks in on binary spaces
    p3 = SimplexPoint((0.2, 0.3, 0.5))
    assert entropy_value(scaled, p3) == pytest.approx(1.0 - 0.04 - 0.09 - 0.25, abs=1e-14)


def test_exponential_value_and_length_check():
    g = EntropySpec.exponential((1.0, -1.0))
    assert entropy_value(g, P37) == pytest.approx(-math.exp(-0.4), abs=1e-14)
    with pytest.raises(DimensionMismatch):
        entropy_value(g, SimplexPoint((0.2, 0.3, 0.5)))


def test_polynomial_value_binary_only():
    g = EntropySpec.polynomial((0.0, 1.0, -1.0))  # b - b^2, concave
    assert entropy_value(g, P37) == pytest.approx(0.7 - 0.49, abs=1e-14)
    with pytest.raises(DimensionMismatch):
        entropy_value(g, SimplexPoint((0.2, 0.3, 0.5)))


def test_divergence_and_loss_need_one_label_count():
    p3 = SimplexPoint((0.2, 0.3, 0.5))
    for g in (EntropySpec.shannon(), EntropySpec.brier()):
        with pytest.raises(DimensionMismatch):
            divergence(g, P37, p3)
        with pytest.raises(DimensionMismatch):
            proper_loss(g, p3, P37)


def test_entropy_spec_validation():
    with pytest.raises(DomainError):
        EntropySpec.shannon(1.0)
    with pytest.raises(DomainError):
        EntropySpec.exponential(())
    with pytest.raises(DomainError):
        EntropySpec.exponential((1.5, 0.0))
    with pytest.raises(DomainError):
        EntropySpec.polynomial((0.0, 0.0, 1.0))  # b^2 is convex
    with pytest.raises(DomainError):
        EntropySpec(kind="gini")


def test_spec_json_round_trip():
    for g in (
        EntropySpec.shannon(),
        EntropySpec.shannon(10.0),
        EntropySpec.brier(binary_scaled=True),
        EntropySpec.exponential((0.5, -0.5)),
        EntropySpec.polynomial((0.0, 2.0, -2.0)),
    ):
        assert EntropySpec.from_json(g.to_json()) == g
        assert g.to_json() == EntropySpec.from_json(g.to_json()).to_json()


def test_kl_divergence_frozen():
    g = EntropySpec.shannon()
    assert divergence(g, P37, HALF) == pytest.approx(0.118709100769307, abs=1e-14)
    assert divergence(g, P37, P37) == pytest.approx(0.0, abs=1e-14)


def test_kl_infinite_support_mismatch():
    g = EntropySpec.shannon()
    assert divergence(g, HALF, SimplexPoint((1.0, 0.0))) == math.inf
    assert proper_loss(g, HALF, SimplexPoint((1.0, 0.0))) == math.inf
    # the other direction is finite
    assert divergence(g, SimplexPoint((1.0, 0.0)), HALF) == pytest.approx(1.0, abs=1e-14)


def test_brier_divergence_is_squared_distance():
    assert divergence(EntropySpec.brier(), P37, Q64) == pytest.approx(0.18, abs=1e-14)
    scaled = EntropySpec.brier(binary_scaled=True)
    assert divergence(scaled, P37, Q64) == pytest.approx(4 * 0.09, abs=1e-14)


def test_exponential_divergence_frozen():
    g = EntropySpec.exponential((1.0, -1.0))
    assert divergence(g, P37, Q64) == pytest.approx(0.181758942771571, abs=1e-14)


def test_shannon_proper_loss_frozen():
    g = EntropySpec.shannon()
    assert proper_loss(g, P37, Q64) == pytest.approx(1.146439344671015, abs=1e-14)


def test_brier_proper_loss_hand_values():
    vertex = SimplexPoint((1.0, 0.0))
    assert proper_loss(EntropySpec.brier(), vertex, HALF) == pytest.approx(0.5, abs=1e-14)
    scaled = EntropySpec.brier(binary_scaled=True)
    assert proper_loss(scaled, vertex, HALF) == pytest.approx(1.0, abs=1e-14)


@settings(deadline=None, max_examples=80)
@given(interior_binary, interior_binary)
def test_loss_equals_entropy_plus_divergence(bp, bq):
    p = SimplexPoint((1.0 - bp, bp))
    q = SimplexPoint((1.0 - bq, bq))
    for g in (
        EntropySpec.shannon(),
        EntropySpec.shannon(math.e),
        EntropySpec.brier(),
        EntropySpec.brier(binary_scaled=True),
        EntropySpec.exponential((0.8, -0.3)),
        EntropySpec.polynomial((0.0, 3.0, -3.0)),
    ):
        L = proper_loss(g, p, q)
        G = entropy_value(g, p)
        D = divergence(g, p, q)
        assert L == pytest.approx(G + D, abs=1e-12)
        assert D >= -1e-12


@settings(deadline=None, max_examples=60)
@given(interior_binary, interior_binary)
def test_properness(bp, bq):
    # predicting the truth is never worse than predicting anything else
    p = SimplexPoint((1.0 - bp, bp))
    q = SimplexPoint((1.0 - bq, bq))
    for g in (EntropySpec.shannon(), EntropySpec.brier(), EntropySpec.exponential((1.0, -1.0))):
        assert proper_loss(g, p, q) >= proper_loss(g, p, p) - 1e-12


@settings(deadline=None, max_examples=40)
@given(interior_binary)
def test_gradient_matches_finite_differences(b):
    h = 1e-6
    p = SimplexPoint((1.0 - b, b))
    for g in (
        EntropySpec.shannon(),
        EntropySpec.brier(),
        EntropySpec.brier(binary_scaled=True),
        EntropySpec.exponential((0.5, 1.0)),
        EntropySpec.polynomial((0.1, 2.0, -2.0)),
    ):
        grad = gradient(g, p)
        # directional derivative along (-1, 1), the simplex tangent
        p_plus = SimplexPoint((1.0 - b - h, b + h))
        p_minus = SimplexPoint((1.0 - b + h, b - h))
        numeric = (entropy_value(g, p_plus) - entropy_value(g, p_minus)) / (2 * h)
        assert float(grad @ np.array([-1.0, 1.0])) == pytest.approx(numeric, abs=1e-5)


def test_shannon_gradient_boundary_domain_error():
    with pytest.raises(DomainError):
        gradient(EntropySpec.shannon(), SimplexPoint((1.0, 0.0)))


def test_modulus_bound_shape():
    assert shannon_modulus_bound(0.0) == 0.0
    assert shannon_modulus_bound(0.25) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        shannon_modulus_bound(1.5)


@settings(deadline=None, max_examples=100)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_modulus_bound_dominates_nat_entropy(x):
    gnat = EntropySpec.shannon(math.e)
    h = entropy_value(gnat, SimplexPoint((1.0 - x, x)))
    assert h <= shannon_modulus_bound(x) + 1e-12