import importlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.decompose import (
    aleatoric_error,
    average_entropy,
    decompose,
    default_t_grid,
    loss_breakdown,
    mgf_diagnostic,
)
from hocal.entropy import EntropySpec, divergence_rows
from hocal.mixture import RngSeed, mixture_from_arrays
from hocal.simplex import LabelSpace
from hocal.synth import RandomMixtureSpec, random_mixture
from test_entropy_equivalence import check_report, ref_decompose, report_tuple

BINARY = LabelSpace(2)
SHANNON = EntropySpec.shannon()
BRIER = EntropySpec.brier()


def binary(biases, weights):
    return mixture_from_arrays([(1.0 - b, b) for b in biases], weights, BINARY)


def interior(seed, num_labels=2, support=4):
    # Dirichlet draws keep coordinates strictly positive, so every
    # Shannon divergence below stays finite
    spec = RandomMixtureSpec(num_labels=num_labels, support_size=support, dirichlet_alpha=2.0)
    return random_mixture(spec, RngSeed(seed))


def test_decompose_frozen_shannon_case():
    m = binary([0.2, 0.7], [0.5, 0.5])
    r = decompose(m, SHANNON)
    assert r.pu == pytest.approx(0.992774453987808, abs=1e-13)
    assert r.au == pytest.approx(0.801609497059028, abs=1e-13)
    assert r.eu == pytest.approx(0.191164956928781, abs=1e-13)
    assert r.eu_tmi == pytest.approx(0.402799052667056, abs=1e-13)
    assert r.eu_rmi == pytest.approx(0.211634095738275, abs=1e-13)
    assert r.pu_tmi == pytest.approx(r.au + r.eu_tmi, abs=1e-15)
    assert r.tmi_reason is None


def test_point_mass_has_no_epistemic_part():
    m = binary([0.3], [1.0])
    r = decompose(m, SHANNON)
    assert r.eu == pytest.approx(0.0, abs=1e-15)
    assert r.eu_tmi == pytest.approx(0.0, abs=1e-15)
    assert r.pu == pytest.approx(r.au, abs=1e-15)


def test_infinite_divergence_reason():
    m = binary([0.0, 1.0], [0.5, 0.5])
    r = decompose(m, SHANNON)
    assert r.pu == pytest.approx(1.0, abs=1e-12)
    assert r.au == pytest.approx(0.0, abs=1e-15)
    assert r.eu == pytest.approx(1.0, abs=1e-12)
    assert r.pu_tmi is None and r.eu_tmi is None and r.eu_rmi is None
    assert r.tmi_reason == "infinite-divergence"


def test_support_above_512_gets_tmi_fields():
    # no support cap: on a binary space the Brier divergence is 2 (b - b')^2,
    # so eu = eu_rmi = 2 Var(b) and eu_tmi = 4 Var(b)
    n = 513
    biases = [i / (n + 1) + 1e-4 for i in range(n)]
    m = binary(biases, [1.0 / n] * n)
    r = decompose(m, BRIER)
    assert r.tmi_reason is None
    var = sum(b * b for b in biases) / n - (sum(biases) / n) ** 2
    assert r.eu == pytest.approx(2 * var, abs=1e-12)
    assert r.eu_rmi == pytest.approx(2 * var, abs=1e-12)
    assert r.eu_tmi == pytest.approx(4 * var, abs=1e-12)
    assert r.pu_tmi == pytest.approx(r.au + r.eu_tmi, abs=1e-15)


def test_tmi_takes_one_divergence_pass(monkeypatch):
    calls = []

    def spy(g, p_rows, q_rows):
        calls.append(1)
        return divergence_rows(g, p_rows, q_rows)

    # the package exports the function `decompose` under the module's name
    module = importlib.import_module("hocal.decompose")
    monkeypatch.setattr(module, "divergence_rows", spy)
    m = interior(513, num_labels=3, support=513)
    assert m.size == 513
    r = decompose(m, BRIER)
    assert r.tmi_reason is None
    assert len(calls) == 1


@pytest.mark.parametrize(
    "rows, infinite",
    [
        ([(1.0, 0.0, 0.0), (0.2, 0.3, 0.5)], True),  # a vertex and an interior point
        ([(0.0, 0.5, 0.5), (0.5, 0.0, 0.5)], True),  # no vertex, but disjoint zeros
        ([(0.2, 0.3, 0.5), (0.6, 0.1, 0.3), (0.1, 0.8, 0.1)], False),
    ],
    ids=["vertex", "disjoint-zeros", "interior"],
)
def test_shannon_infinite_tmi_matches_the_pairwise_reference(rows, infinite):
    # supp c is the union of the component supports, so D(c||p) is infinite
    # exactly when some D(p||p') is
    m = mixture_from_arrays(rows, [1.0 / len(rows)] * len(rows), LabelSpace(3))
    r = decompose(m, SHANNON)
    assert (r.tmi_reason == "infinite-divergence") == infinite
    check_report(report_tuple(r), ref_decompose(m, SHANNON))


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_decomposition_identities(seed):
    m = interior(seed)
    for g in (SHANNON, BRIER):
        r = decompose(m, g)
        assert r.pu == pytest.approx(r.au + r.eu, abs=1e-12)
        assert r.eu >= -1e-10
        # the pairwise sum, not the cosine law the library uses
        assert r.eu_tmi == pytest.approx(ref_decompose(m, g)[4], abs=1e-8)
        assert r.pu_tmi == pytest.approx(r.au + r.eu_tmi, abs=1e-12)
        assert r.eu_tmi >= r.eu - 1e-10


def test_average_entropy_is_linear_in_weights():
    m = binary([0.1, 0.9], [0.25, 0.75])
    expected = 0.25 * 0.468995593589281 + 0.75 * 0.468995593589281
    assert average_entropy(m, SHANNON) == pytest.approx(expected, abs=1e-12)


def test_aleatoric_error_hand_case():
    a = binary([0.5], [1.0])
    b = binary([0.0, 1.0], [0.5, 0.5])
    assert aleatoric_error(a, b, SHANNON) == pytest.approx(1.0, abs=1e-12)
    assert aleatoric_error(a, a, SHANNON) == 0.0


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=10_000))
def test_loss_breakdown_identities(seed):
    predicted = interior(seed)
    bayes = interior(seed + 50_000)
    for g in (SHANNON, BRIER):
        lb = loss_breakdown(predicted, bayes, g)
        # expected loss is computed from proper losses; the split is
        # reassembled from entropies and divergences, so agreement here
        # exercises the Bregman identity rather than restating code
        assert lb.expected_loss == pytest.approx(
            lb.avg_au + lb.grouping_loss + lb.foc_error, abs=1e-8
        )
        assert lb.avg_bias == pytest.approx(lb.grouping_loss + lb.foc_error, abs=1e-15)
        assert lb.grouping_loss >= -1e-10
        assert lb.foc_error >= -1e-10


def test_loss_breakdown_perfect_prediction():
    m = binary([0.2, 0.7], [0.5, 0.5])
    lb = loss_breakdown(m, m, BRIER)
    assert lb.foc_error == pytest.approx(0.0, abs=1e-15)
    assert lb.expected_loss == pytest.approx(lb.avg_au + lb.grouping_loss, abs=1e-12)


def test_default_t_grid_sizes():
    assert len(default_t_grid(2)) == 25
    assert len(default_t_grid(3)) == 125
    assert len(default_t_grid(4)) == 81
    assert len(default_t_grid(5)) == 243
    assert len(default_t_grid(6)) == 243
    assert all(all(-1.0 <= x <= 1.0 for x in t) for t in default_t_grid(6))
    # the first 243 tuples of the lexicographic grid
    for l, values in ((3, (-1.0, -0.5, 0.0, 0.5, 1.0)), (6, (-1.0, 0.0, 1.0))):
        assert default_t_grid(l) == list(itertools.product(values, repeat=l))[:243]


def test_mgf_diagnostic_separates_matched_moment_pair():
    # equal first and second moments, different third: a low-degree
    # moment probe cannot tell these apart, the exponential grid can
    a = binary([0.2, 0.8], [0.5, 0.5])
    b = binary([0.0, 0.4, 1.0], [0.1, 2.0 / 3.0, 7.0 / 30.0])
    for i, (ma, mb) in enumerate([(0.5, 0.5), (0.34, 0.34), (0.26, 0.276)], start=1):
        for m, want in ((a, ma), (b, mb)):
            moment = float(m.weights_array() @ m.points_array()[:, 1] ** i)
            assert moment == pytest.approx(want, abs=1e-12)
    gap = mgf_diagnostic(a, b)
    assert gap > 0.03
    assert mgf_diagnostic(a, a) == 0.0


def test_mgf_diagnostic_zero_for_identical_mixtures():
    m = interior(3)
    assert mgf_diagnostic(m, m) == 0.0