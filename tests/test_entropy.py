import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.entropy import (
    EntropySpec,
    divergence_rows,
    entropy_rows,
    gradient_rows,
    loss_rows,
    shannon_modulus_bound,
)
from hocal.errors import DimensionMismatch, DomainError
from hocal.simplex import simplex_rows

P37 = (0.3, 0.7)
Q64 = (0.6, 0.4)
HALF = (0.5, 0.5)
P3 = (0.2, 0.3, 0.5)

interior_binary = st.floats(min_value=0.02, max_value=0.98)


def point(b):
    """The binary simplex point with bias b."""
    return simplex_rows([(1.0 - b, b)])[0]


def entropy_value(g, p):
    return float(entropy_rows(g, p)[0])


def divergence(g, p, q):
    return float(divergence_rows(g, p, q)[0])


def proper_loss(g, p, q):
    return float(loss_rows(g, p, q)[0])


def gradient(g, p):
    return gradient_rows(g, p)[0]


def test_shannon_values():
    g = EntropySpec.shannon()
    assert entropy_value(g, P37) == pytest.approx(0.881290899230693, abs=1e-14)
    assert entropy_value(g, HALF) == pytest.approx(1.0, abs=1e-14)
    # 0 log 0 = 0 at the boundary
    assert entropy_value(g, (1.0, 0.0)) == 0.0
    gnat = EntropySpec.shannon(math.e)
    assert entropy_value(gnat, P37) == pytest.approx(0.610864302054894, abs=1e-14)


def test_brier_values():
    assert entropy_value(EntropySpec.brier(), P37) == pytest.approx(0.42, abs=1e-14)
    scaled = EntropySpec.brier(binary_scaled=True)
    assert entropy_value(scaled, P37) == pytest.approx(0.84, abs=1e-14)
    # the scaled form only kicks in on binary spaces
    assert entropy_value(scaled, P3) == pytest.approx(1.0 - 0.04 - 0.09 - 0.25, abs=1e-14)


def test_exponential_value_and_length_check():
    g = EntropySpec.exponential((1.0, -1.0))
    assert entropy_value(g, P37) == pytest.approx(-math.exp(-0.4), abs=1e-14)
    with pytest.raises(DimensionMismatch):
        entropy_value(g, P3)


def test_polynomial_value_binary_only():
    g = EntropySpec.polynomial((0.0, 1.0, -1.0))  # b - b^2, concave
    assert entropy_value(g, P37) == pytest.approx(0.7 - 0.49, abs=1e-14)
    with pytest.raises(DimensionMismatch):
        entropy_value(g, P3)


def test_divergence_and_loss_need_one_label_count():
    for g in (EntropySpec.shannon(), EntropySpec.brier()):
        with pytest.raises(DimensionMismatch):
            divergence(g, P37, P3)
        with pytest.raises(DimensionMismatch):
            proper_loss(g, P3, P37)


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: EntropySpec.shannon(math.inf),
        lambda: EntropySpec.shannon(math.nan),
        lambda: EntropySpec.exponential((math.nan, 0.0)),
        lambda: EntropySpec.polynomial((0.0, 1.0, math.nan)),
        lambda: EntropySpec.polynomial((0.0, math.inf, -math.inf)),
    ],
)
def test_entropy_spec_rejects_nan_and_inf(make):
    with pytest.raises(DomainError):
        make()


def test_spec_to_json_payloads():
    for g, payload in (
        (EntropySpec.shannon(), {"kind": "shannon", "log_base": 2.0}),
        (EntropySpec.shannon(10.0), {"kind": "shannon", "log_base": 10.0}),
        (EntropySpec.brier(binary_scaled=True), {"binary_scaled": True, "kind": "brier"}),
        (EntropySpec.exponential((0.5, -0.5)), {"kind": "exponential", "t": [0.5, -0.5]}),
        (
            EntropySpec.polynomial((0.0, 2.0, -2.0)),
            {"coeffs": [0.0, 2.0, -2.0], "kind": "polynomial"},
        ),
    ):
        assert g.to_dict() == payload


def test_kl_divergence_frozen():
    g = EntropySpec.shannon()
    assert divergence(g, P37, HALF) == pytest.approx(0.118709100769307, abs=1e-14)
    assert divergence(g, P37, P37) == pytest.approx(0.0, abs=1e-14)


def test_kl_infinite_support_mismatch():
    g = EntropySpec.shannon()
    assert divergence(g, HALF, (1.0, 0.0)) == math.inf
    assert proper_loss(g, HALF, (1.0, 0.0)) == math.inf
    # the other direction is finite
    assert divergence(g, (1.0, 0.0), HALF) == pytest.approx(1.0, abs=1e-14)


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
    vertex = (1.0, 0.0)
    assert proper_loss(EntropySpec.brier(), vertex, HALF) == pytest.approx(0.5, abs=1e-14)
    scaled = EntropySpec.brier(binary_scaled=True)
    assert proper_loss(scaled, vertex, HALF) == pytest.approx(1.0, abs=1e-14)


@settings(deadline=None, max_examples=80)
@given(interior_binary, interior_binary)
def test_loss_equals_entropy_plus_divergence(bp, bq):
    p, q = point(bp), point(bq)
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
    p, q = point(bp), point(bq)
    for g in (EntropySpec.shannon(), EntropySpec.brier(), EntropySpec.exponential((1.0, -1.0))):
        assert proper_loss(g, p, q) >= proper_loss(g, p, p) - 1e-12


@settings(deadline=None, max_examples=40)
@given(interior_binary)
def test_gradient_matches_finite_differences(b):
    h = 1e-6
    p = point(b)
    for g in (
        EntropySpec.shannon(),
        EntropySpec.brier(),
        EntropySpec.brier(binary_scaled=True),
        EntropySpec.exponential((0.5, 1.0)),
        EntropySpec.polynomial((0.1, 2.0, -2.0)),
    ):
        grad = gradient(g, p)
        # directional derivative along (-1, 1), the simplex tangent
        p_plus = simplex_rows([(1.0 - b - h, b + h)])[0]
        p_minus = simplex_rows([(1.0 - b + h, b - h)])[0]
        numeric = (entropy_value(g, p_plus) - entropy_value(g, p_minus)) / (2 * h)
        assert float(grad @ np.array([-1.0, 1.0])) == pytest.approx(numeric, abs=1e-5)


def test_shannon_gradient_boundary_domain_error():
    with pytest.raises(DomainError):
        gradient(EntropySpec.shannon(), (1.0, 0.0))


def test_modulus_bound_shape():
    assert shannon_modulus_bound(0.0) == 0.0
    assert shannon_modulus_bound(0.25) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        shannon_modulus_bound(1.5)


@settings(deadline=None, max_examples=100)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_modulus_bound_dominates_nat_entropy(x):
    gnat = EntropySpec.shannon(math.e)
    h = entropy_value(gnat, point(x))
    assert h <= shannon_modulus_bound(x) + 1e-12