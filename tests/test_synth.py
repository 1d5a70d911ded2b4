import math

import numpy as np
import pytest

from hocal.decompose import average_entropy
from hocal.entropy import EntropySpec
from hocal.errors import DomainError
from hocal.mixture import RngSeed, centroid
from hocal.simplex import LabelSpace
from hocal.synth import (
    BinaryRegression,
    RandomMixtureSpec,
    TwoScenario,
    bayes_mixtures,
    gen_dataset,
    random_mixture,
    reference_table,
)
from hocal.transport import wasserstein1


def support(m):
    """point tuple -> weight"""
    return dict(zip(map(tuple, m.points_array().tolist()), m.weights_array().tolist()))


def test_two_scenario_truths():
    s1 = bayes_mixtures(TwoScenario(which=1))["all"]
    assert s1.size == 1
    assert s1.points_array().tolist() == [[0.5, 0.5]]
    s2 = bayes_mixtures(TwoScenario(which=2))["all"]
    assert support(s2) == {(1.0, 0.0): 0.5, (0.0, 1.0): 0.5}
    with pytest.raises(DomainError):
        TwoScenario(which=3)


def test_two_scenario_single_snapshot_blindness():
    # one label per instance cannot tell a fair coin from a half/half
    # mix of deterministic instances
    r1 = reference_table(TwoScenario(which=1), 1)
    r2 = reference_table(TwoScenario(which=2), 1)
    cost, _ = wasserstein1(r1.entries["all"], r2.entries["all"])
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_two_scenario_pair_snapshot_separation():
    r1 = reference_table(TwoScenario(which=1), 2)
    r2 = reference_table(TwoScenario(which=2), 2)
    cost, _ = wasserstein1(r1.entries["all"], r2.entries["all"])
    assert cost == pytest.approx(0.5, abs=1e-12)


def test_regression_bayes_mixtures_are_proper():
    spec = BinaryRegression()
    mixtures = bayes_mixtures(spec)
    assert len(mixtures) == 20
    assert sorted(mixtures) == [f"bin{i:02d}" for i in range(20)]
    for m in mixtures.values():
        assert float(m.weights_array().sum()) == pytest.approx(1.0, abs=1e-9)
        b = centroid(m)[1]
        assert 0.01 <= b <= 0.99


def test_regression_truth_tracks_the_conditional_probability():
    # first bin: x near 0, p(x) ~ 0.5 + 0.3 sin(2x) + 0.15 sin(20x),
    # which averages above 0.5 on [0, 0.15]
    spec = BinaryRegression()
    m = bayes_mixtures(spec)["bin00"]
    assert centroid(m)[1] > 0.5


def test_reference_table_matches_projection_mean():
    spec = TwoScenario(which=1)
    table = reference_table(spec, 2)
    entry = table.entries["all"]
    got = support(entry)
    assert got[(0.5, 0.5)] == pytest.approx(0.5, abs=1e-12)
    assert got[(1.0, 0.0)] == pytest.approx(0.25, abs=1e-12)
    assert got[(0.0, 1.0)] == pytest.approx(0.25, abs=1e-12)
    assert table.counts is None


def test_gen_dataset_two_scenario_statistics():
    n = 4000
    ds = gen_dataset(TwoScenario(which=2), n, 1, RngSeed(11))
    ref = reference_table(TwoScenario(which=2), 1)
    assert len(ds) == n
    assert ds.partitions == ["all"]
    assert ref.k == 1
    ones = int(ds.counts[:, 1].sum())
    # Bernoulli(1/2): 4 sigma = 4 * sqrt(n)/2
    assert abs(ones - n / 2) < 2 * np.sqrt(n)


def test_gen_dataset_deterministic_under_seed():
    a = gen_dataset(BinaryRegression(), 500, 3, RngSeed(5))
    b = gen_dataset(BinaryRegression(), 500, 3, RngSeed(5))
    c = gen_dataset(BinaryRegression(), 500, 3, RngSeed(6))
    assert a == b
    assert a != c


def test_gen_dataset_regression_partitions_and_sizes():
    ds = gen_dataset(BinaryRegression(), 2000, 4, RngSeed(2))
    ref = reference_table(BinaryRegression(), 4)
    assert set(ds.partitions) <= {f"bin{i:02d}" for i in range(20)}
    assert (ds.counts.sum(axis=1) == 4).all()
    assert sorted(ref.partitions) == [f"bin{i:02d}" for i in range(20)]
    with pytest.raises(DomainError):
        gen_dataset(BinaryRegression(), 0, 4, RngSeed(2))


def test_cached_results_cannot_be_changed_by_a_caller():
    # both are cached, so a change to a returned mapping would reach every later call
    spec = BinaryRegression()
    with pytest.raises(AttributeError):
        bayes_mixtures(spec).pop("bin00")
    with pytest.raises(TypeError):
        bayes_mixtures(spec)["bin00"] = bayes_mixtures(spec)["bin01"]
    assert len(bayes_mixtures(spec)) == 20
    with pytest.raises(AttributeError):
        reference_table(spec, 2).entries.clear()
    with pytest.raises(AttributeError):
        reference_table(spec, 2).entries["bin00"].space = LabelSpace(3)
    ref = reference_table(spec, 2)
    assert len(ref.entries) == 20
    assert ref.entries["bin00"].space == LabelSpace(2)


def test_gen_dataset_regression_no_overflow_bins():
    # x beyond the domain folds into the last bin rather than a new id
    ds = gen_dataset(BinaryRegression(bins=3), 3000, 1, RngSeed(9))
    assert set(ds.partitions) <= {"bin0", "bin1", "bin2"}


def test_random_mixture_shape_and_determinism():
    spec = RandomMixtureSpec(num_labels=4, support_size=6, dirichlet_alpha=0.5)
    m1 = random_mixture(spec, RngSeed(88))
    m2 = random_mixture(spec, RngSeed(88))
    assert m1 == m2
    assert m1.space == LabelSpace(4)
    assert m1.size <= 6
    assert float(m1.weights_array().sum()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        RandomMixtureSpec(num_labels=1, support_size=3, dirichlet_alpha=1.0)


@pytest.mark.parametrize(
    "fields", [(2, 3, math.nan), (2, 3, math.inf), (math.inf, 3, 1.0), (2, math.nan, 1.0)]
)
def test_random_mixture_spec_rejects_nan_and_inf(fields):
    with pytest.raises(DomainError):
        RandomMixtureSpec(*fields)


def test_regression_aleatoric_truth_is_reasonable():
    # the clamp keeps p in [0.01, 0.99], so Shannon AU is bounded away
    # from zero in every bin
    mixtures = bayes_mixtures(BinaryRegression())
    g = EntropySpec.shannon()
    aus = [average_entropy(m, g) for m in mixtures.values()]
    assert all(0.05 < au <= 1.0 for au in aus)