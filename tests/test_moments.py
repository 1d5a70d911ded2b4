import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.entropy import EntropySpec, entropy_rows
from hocal.errors import DimensionMismatch, DomainError, InvalidDistribution
from hocal.mixture import RngSeed, mixture_from_arrays, project_k
from hocal.moments import (
    MomentVector,
    central_moment,
    chebyshev_fit,
    estimate_moments,
    _moment_ratio,
    poly_au_estimate,
)
from hocal.simplex import LabelSpace
from hocal.synth import RandomMixtureSpec, random_mixture

BINARY = LabelSpace(2)

# sup errors of the degree-d Chebyshev fit to base-2 binary Shannon
# entropy, measured on a 10^4-point grid
SHANNON_FIT_SUP = {
    1: 0.600876037,
    2: 0.139438537,
    4: 0.051796755,
    8: 0.016208160,
    12: 0.007794598,
    16: 0.004564043,
}


def true_moments(m, i):
    """E[p^i] under a binary mixture itself: the oracle moment recovery must hit."""
    return float(m.weights_array() @ m.points_array()[:, 1] ** i)


def binary(biases, weights):
    return mixture_from_arrays([(1.0 - b, b) for b in biases], weights, BINARY)


def test_moment_ratio_hand_values():
    # C(c, m)/C(k, m) for c labels of class 1 in a size-k snapshot
    assert _moment_ratio(2, 2, 1) == 1.0
    assert _moment_ratio(2, 2, 2) == 1.0
    assert _moment_ratio(1, 2, 1) == 0.5
    assert _moment_ratio(1, 2, 2) == 0.0
    assert _moment_ratio(3, 4, 2) == math.comb(3, 2) / math.comb(4, 2)


def test_estimate_moments_is_binary_only():
    m = mixture_from_arrays([(0.5, 0.5, 0.0)], [1.0], LabelSpace(3))
    with pytest.raises(DimensionMismatch):
        estimate_moments(m, 2, eps=0.0)


def test_estimate_moments_exact_on_projection():
    m = binary([0.2, 0.7], [0.5, 0.5])
    mv = estimate_moments(project_k(m, 4), 4, eps=0.0)
    for i in range(1, 5):
        assert mv.values[i - 1] == pytest.approx(true_moments(m, i), abs=1e-12)


def test_estimate_moments_rejects_off_lattice_support():
    m = binary([0.31, 0.62], [0.5, 0.5])
    with pytest.raises(InvalidDistribution):
        estimate_moments(m, 4, eps=0.0)


def test_estimate_moments_refuses_snapshot_sizes_below_one():
    m = binary([0.5], [1.0])
    for k in (0, -1):
        with pytest.raises(DomainError, match=f"snapshot size must be >= 1, got {k}"):
            estimate_moments(m, k, eps=0.0)
    for k in (True, 2.0):
        with pytest.raises(DomainError, match="snapshot size must be an integer"):
            estimate_moments(m, k, eps=0.0)


def test_moment_vector_validation_and_bounds():
    mv = MomentVector(k=2, values=(0.5, 0.34), eps=0.1)
    assert mv.bound(1) == pytest.approx(0.05)
    assert mv.bound(2) == pytest.approx(0.1)
    with pytest.raises(InvalidDistribution):
        MomentVector(k=2, values=(0.3, 0.5), eps=0.0)  # moments must not increase
    with pytest.raises(InvalidDistribution):
        MomentVector(k=1, values=(1.2,), eps=0.0)
    for bad in (math.nan, math.inf, -0.5):
        with pytest.raises(DomainError):
            MomentVector(k=1, values=(0.5,), eps=bad)


UNIFORM_2 = MomentVector(k=2, values=(0.5, 0.5), eps=0.0)


@pytest.mark.parametrize("build", [
    lambda: MomentVector(k=True, values=(0.5,), eps=0.0),
    lambda: MomentVector(k=2.0, values=(0.5, 0.5), eps=0.0),
    lambda: MomentVector(k=0, values=(), eps=0.0),
    lambda: central_moment(UNIFORM_2, 2.0),
    lambda: central_moment(UNIFORM_2, True),
    lambda: chebyshev_fit(EntropySpec.shannon(), 2.5),
    lambda: chebyshev_fit(EntropySpec.shannon(), True),
    lambda: chebyshev_fit(EntropySpec.shannon(), 3.0),
], ids=["k-bool", "k-float", "k-zero", "j-float", "j-bool", "d-fraction", "d-bool", "d-float"])
def test_moment_orders_and_degrees_follow_the_integer_rule(build):
    # bool and float orders are refused like any other non-integer, never
    # read as 1 or rounded
    with pytest.raises(DomainError):
        build()


def test_moment_ratio_is_correctly_rounded_at_k_100():
    k = 100
    for c in range(k + 1):
        for m in range(1, c + 1):
            exact = Fraction(math.comb(c, m), math.comb(k, m))
            assert _moment_ratio(c, k, m) == float(exact)


def test_central_moment_hand_values():
    uniform = MomentVector(k=2, values=(0.5, 0.5), eps=0.0)
    c2, bound = central_moment(uniform, 2)
    assert c2 == pytest.approx(0.25, abs=1e-15)
    assert bound == 0.0

    point = MomentVector(k=2, values=(0.3, 0.09), eps=0.0)
    c2, _ = central_moment(point, 2)
    assert c2 == pytest.approx(0.0, abs=1e-15)

    budget = MomentVector(k=2, values=(0.5, 0.5), eps=0.1)
    _, bound = central_moment(budget, 2)
    assert bound == pytest.approx(2 * 0.1 * 1.5**2 / 2, abs=1e-15)

    with pytest.raises(DomainError):
        central_moment(uniform, 3)


def test_chebyshev_fit_recovers_exact_polynomials():
    pa = chebyshev_fit(EntropySpec.brier(binary_scaled=True), 2)
    assert pa.coeffs == pytest.approx((0.0, 4.0, -4.0), abs=1e-9)
    assert pa.sup_error <= 1e-12
    assert pa.coeff_bound == pytest.approx(4.0, abs=1e-9)


def test_chebyshev_fit_shannon_sup_errors_frozen():
    g = EntropySpec.shannon()
    for d, expected in SHANNON_FIT_SUP.items():
        pa = chebyshev_fit(g, d)
        assert pa.sup_error == pytest.approx(expected, abs=1e-8)


def test_shannon_fit_rate_constant():
    # sup error <= 0.25 * (4/d)^(1/ln 4) over the measured degrees
    for d, sup in SHANNON_FIT_SUP.items():
        assert sup <= 0.25 * (4.0 / d) ** (1.0 / math.log(4.0))


def test_fit_degree_cap():
    with pytest.raises(DomainError):
        chebyshev_fit(EntropySpec.shannon(), 25)
    with pytest.raises(DomainError):
        chebyshev_fit(EntropySpec.shannon(), 0)


def test_poly_au_estimate_exact_for_polynomial_entropy():
    # scaled Brier is 4b(1-b): AU = 4(m1 - m2), recovered exactly from moments
    m = binary([0.1, 0.45, 0.9], [0.3, 0.4, 0.3])
    mv = estimate_moments(project_k(m, 3), 3, eps=0.0)
    pa = chebyshev_fit(EntropySpec.brier(binary_scaled=True), 2)
    est, err = poly_au_estimate(pa, mv)
    truth = float(
        m.weights_array() @ entropy_rows(EntropySpec.brier(binary_scaled=True), m.points_array())
    )
    assert est == pytest.approx(truth, abs=1e-10)
    assert err <= 1e-10


def test_poly_au_estimate_error_budget_plumbing():
    mv = MomentVector(k=2, values=(0.5, 0.34), eps=0.04)
    pa = chebyshev_fit(EntropySpec.shannon(), 2)
    est, err = poly_au_estimate(pa, mv)
    assert err == pytest.approx(pa.sup_error + 4 * 0.04 * pa.coeff_bound / 2, abs=1e-12)
    assert est == pytest.approx(
        pa.coeffs[0] + pa.coeffs[1] * 0.5 + pa.coeffs[2] * 0.34, abs=1e-12
    )


def test_poly_au_estimate_needs_enough_moments():
    mv = MomentVector(k=2, values=(0.5, 0.34), eps=0.0)
    pa = chebyshev_fit(EntropySpec.shannon(), 4)
    with pytest.raises(DomainError):
        poly_au_estimate(pa, mv)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=10))
def test_moment_recovery_property(seed, k):
    spec = RandomMixtureSpec(num_labels=2, support_size=4, dirichlet_alpha=1.0)
    m = random_mixture(spec, RngSeed(seed))
    mv = estimate_moments(project_k(m, k), k, eps=0.0)
    for i in range(1, k + 1):
        assert mv.values[i - 1] == pytest.approx(true_moments(m, i), abs=1e-10)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_moments_are_lipschitz_in_bias(seed):
    # |E p^i - E q^i| <= i |p - q| for point masses: the moment functional
    # inherits the i-Lipschitz bound used by the error budgets
    gen = RngSeed(seed).generator()
    b1, b2 = gen.random(2)
    for i in range(1, 6):
        assert abs(b1**i - b2**i) <= i * abs(b1 - b2) + 1e-15
