"""End-to-end acceptance checks, one test per criterion.

Each test pins the guarantee it verifies (exactness, a proven bound, a
Monte Carlo rate, or a qualitative trend) at the stated tolerance and
trial count, importing only the public package surface. The terminal
summary hook in conftest.py reports a pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest

from hocal import (
    BinaryRegression,
    EntropySpec,
    LabelSpace,
    RandomMixtureSpec,
    RngSeed,
    TwoScenario,
    average_entropy,
    bayes_mixtures,
    build_mass_set,
    chebyshev_fit,
    coverage,
    decompose,
    enlarge,
    estimate_moments,
    gen_dataset,
    loss_breakdown,
    mixture_from_arrays,
    moment_interval,
    poly_au_estimate,
    posthoc_calibrate,
    project_k,
    random_mixture,
    reference_table,
    required_samples,
    sample_snapshots,
    w1_lattice,
    wasserstein1,
)

BINARY = LabelSpace(2)
SHANNON2 = EntropySpec.shannon(2.0)
BRIER_SCALED = EntropySpec.brier(binary_scaled=True)

CONFIG_GRID = [(l, k) for l in (2, 3, 4) for k in (1, 2, 4, 8, 16, 32)]


def true_moments(m, i):
    """E[p^i] under a binary mixture itself: the oracle moment recovery must hit."""
    return float(m.weights_array() @ m.points_array()[:, 1] ** i)


def binary_mixture(biases, weights):
    return mixture_from_arrays([(1.0 - b, b) for b in biases], weights, BINARY)


def test_criterion_1():
    # moment recovery is exact on exact projections: reading the i-th
    # moment off proj_k reproduces E[p^i] for every i <= k
    start = time.monotonic()
    for trial in range(200):
        spec = RandomMixtureSpec(
            num_labels=2, support_size=2 + trial % 5, dirichlet_alpha=1.0
        )
        m = random_mixture(spec, RngSeed(50_000 + trial))
        k = 1 + trial % 12
        mv = estimate_moments(project_k(m, k), k, eps=0.0)
        for i in range(1, k + 1):
            assert mv.values[i - 1] == pytest.approx(true_moments(m, i), abs=1e-9)
    assert time.monotonic() - start < 10.0


def test_criterion_2():
    # W1(pi, proj_k pi) <= l / (2 sqrt k) on 100 mixtures per (l, k) config
    start = time.monotonic()
    for l, k in CONFIG_GRID:
        spec = RandomMixtureSpec(num_labels=l, support_size=4, dirichlet_alpha=2.0)
        bound = l / (2.0 * math.sqrt(k))
        for trial in range(100):
            m = random_mixture(spec, RngSeed(10_000 * l + 100 * k + trial))
            w, _ = wasserstein1(m, project_k(m, k), support_cap=10_000)
            assert w <= bound + 1e-8
    assert time.monotonic() - start < 60.0


def test_criterion_3():
    # sandwich: W1(proj f, proj h) <= W1(f, h) <= W1(proj f, proj h) + l/sqrt(k)
    # on 100 random pairs per config; projected distances go through the
    # lattice flow route when the label space is not binary
    for l, k in CONFIG_GRID:
        spec = RandomMixtureSpec(num_labels=l, support_size=4, dirichlet_alpha=2.0)
        for trial in range(100):
            f = random_mixture(spec, RngSeed(20_000 * l + 200 * k + trial))
            h = random_mixture(spec, RngSeed(20_000 * l + 200 * k + trial + 100))
            direct, _ = wasserstein1(f, h)
            pf, ph = project_k(f, k), project_k(h, k)
            if l == 2:
                projected, _ = wasserstein1(pf, ph)
            else:
                projected = w1_lattice(pf, ph, k)
            assert projected <= direct + 1e-8
            assert direct <= projected + l / math.sqrt(k) + 1e-8


def test_criterion_4():
    # at the prescribed sample size for (eps=0.1, delta=0.05) the empirical
    # k-snapshot distribution misses the exact projection by more than eps
    # in at most 5% of trials (the bound is loose, so far fewer in practice)
    start = time.monotonic()
    n = required_samples(BINARY, 2, 0.1, 0.05)
    assert n == 1016
    m = binary_mixture([0.2, 0.7], [0.5, 0.5])
    proj = project_k(m, 2)
    failures = 0
    for trial in range(500):
        counts = sample_snapshots(m, 2, n, RngSeed(60_000 + trial))
        emp = mixture_from_arrays(counts / 2, [1.0 / n] * n, BINARY)
        w, _ = wasserstein1(emp, proj)
        if w > 0.1:
            failures += 1
    assert failures <= 25
    assert time.monotonic() - start < 60.0


def test_criterion_5():
    # average scaled-Brier entropy from second-order snapshot data: with
    # n = ceil(128 (4 ln 2 + ln(1/delta)) / eps^2) the degree-2 moment
    # estimate lands within eps of the truth in at least 95% of trials
    start = time.monotonic()
    eps, delta = 0.2, 0.05
    n = math.ceil(128 * (4 * math.log(2) + math.log(1 / delta)) / eps**2)
    assert n == 18459
    # that sample size already covers the direct requirement for
    # eps/8-accurate second-order calibration on the 3-point lattice
    assert n >= required_samples(BINARY, 2, eps / 8.0, delta)
    fit = chebyshev_fit(BRIER_SCALED, 2)
    assert fit.sup_error <= 1e-12
    bad = 0
    for trial in range(200):
        spec = RandomMixtureSpec(num_labels=2, support_size=4, dirichlet_alpha=1.0)
        m = random_mixture(spec, RngSeed(70_000 + trial))
        proj = project_k(m, 2)
        # n iid snapshots of a fixed mixture form a multinomial over the
        # lattice, so one multinomial draw is the same distribution as n
        # individual snapshot draws
        counts = RngSeed(71_000 + trial).generator().multinomial(
            n, proj.weights_array()
        )
        keep = counts > 0
        emp = mixture_from_arrays(proj.points_array()[keep], counts[keep] / n, BINARY)
        est, _ = poly_au_estimate(fit, estimate_moments(emp, 2, eps=eps))
        if abs(est - average_entropy(m, BRIER_SCALED)) > eps:
            bad += 1
    assert bad <= 10
    assert time.monotonic() - start < 60.0


def test_criterion_6():
    # with exact moments (eps=0) and degree k=d=12 the polynomial route
    # deviates from the direct Shannon average by at most the measured
    # sup error of the fit; the sup error itself shrinks with degree
    fit = chebyshev_fit(SHANNON2, 12)
    for trial in range(100):
        spec = RandomMixtureSpec(num_labels=2, support_size=4, dirichlet_alpha=1.0)
        m = random_mixture(spec, RngSeed(90_000 + trial))
        mv = estimate_moments(project_k(m, 12), 12, eps=0.0)
        est, _ = poly_au_estimate(fit, mv)
        assert abs(est - average_entropy(m, SHANNON2)) <= fit.sup_error + 1e-9
    sups = [chebyshev_fit(SHANNON2, d).sup_error for d in (4, 8, 16)]
    assert sups[0] > sups[1] > sups[2]


def test_criterion_7():
    # decomposition identities on 500 random mixtures, Shannon and Brier:
    # pu = au + eu, eu >= 0, eu_tmi = eu + eu_rmi, and the loss breakdown
    # expected = average aleatoric + grouping + first-order miscalibration
    for trial in range(500):
        spec = RandomMixtureSpec(num_labels=2, support_size=5, dirichlet_alpha=1.5)
        m = random_mixture(spec, RngSeed(100_000 + trial))
        predicted = random_mixture(spec, RngSeed(110_000 + trial))
        for g in (SHANNON2, EntropySpec.brier()):
            rep = decompose(m, g)
            assert rep.pu == pytest.approx(rep.au + rep.eu, abs=1e-12)
            assert rep.eu >= -1e-10
            assert rep.eu_tmi is not None
            assert rep.eu_tmi == pytest.approx(rep.eu + rep.eu_rmi, abs=1e-8)
            lb = loss_breakdown(predicted, m, g)
            assert lb.expected_loss == pytest.approx(
                lb.avg_au + lb.grouping_loss + lb.foc_error, abs=1e-8
            )


def test_criterion_8():
    # the two-scenario pair: identical first-order references, separated
    # second-order references, and recovery of the true uncertainty splits
    # from calibrated second-order data
    ref1_k1 = reference_table(TwoScenario(1), 1).entries["all"]
    ref2_k1 = reference_table(TwoScenario(2), 1).entries["all"]
    w_k1, _ = wasserstein1(ref1_k1, ref2_k1)
    assert w_k1 == pytest.approx(0.0, abs=1e-12)

    ref1_k2 = reference_table(TwoScenario(1), 2).entries["all"]
    ref2_k2 = reference_table(TwoScenario(2), 2).entries["all"]
    w_k2, _ = wasserstein1(ref1_k2, ref2_k2)
    # adjacent k=2 lattice points sit 1 apart in l1 on normalized
    # histograms, so the quarter masses moving one step each give 0.5
    # (the same transport read on raw count vectors would be 1.0)
    assert w_k2 == pytest.approx(0.5, abs=1e-9)

    # the true mixtures split exactly under Shannon base 2
    true1 = decompose(bayes_mixtures(TwoScenario(1))["all"], SHANNON2)
    assert (true1.pu, true1.au, true1.eu) == pytest.approx((1.0, 1.0, 0.0), abs=1e-12)
    true2 = decompose(bayes_mixtures(TwoScenario(2))["all"], SHANNON2)
    assert (true2.pu, true2.au, true2.eu) == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)

    for which, want in ((1, (1.0, 1.0, 0.0)), (2, (1.0, 0.0, 1.0))):
        ds = gen_dataset(TwoScenario(which), 10_000, 2, RngSeed(1))
        mix = posthoc_calibrate(ds).entries["all"]
        # the scaled Brier entropy is a polynomial in the first two
        # moments, so the true split is readable from second-order data
        m1, m2 = estimate_moments(mix, 2, eps=0.0).values
        pu_hat = 4.0 * m1 * (1.0 - m1)
        au_hat = 4.0 * (m1 - m2)
        assert pu_hat == pytest.approx(want[0], abs=0.05)
        assert au_hat == pytest.approx(want[1], abs=0.05)
        assert pu_hat - au_hat == pytest.approx(want[2], abs=0.05)
        # the Shannon split of the same calibrated table matches the
        # projected truth instead (the lattice smooths scenario 1 to
        # au = 1/2; scenario 2 keeps its vertices)
        rep = decompose(mix, SHANNON2)
        proj_want = (1.0, 0.5, 0.5) if which == 1 else (1.0, 0.0, 1.0)
        assert rep.pu == pytest.approx(proj_want[0], abs=0.05)
        assert rep.au == pytest.approx(proj_want[1], abs=0.05)
        assert rep.eu == pytest.approx(proj_want[2], abs=0.05)


def test_criterion_9():
    # mass-set coverage degrades by at most eps/delta when the scored
    # mixture is W1-eps away from the predicted one; instances are built
    # by a bias translation, whose W1 is exactly twice the shift
    for trial in range(200):
        gen = RngSeed(80_000 + trial).generator()
        size = 3 + trial % 4
        biases = 0.05 + 0.8 * gen.random(size)
        weights = gen.dirichlet(np.ones(size))
        shift = 0.05 * gen.random()
        predicted = binary_mixture(biases, weights)
        actual = binary_mixture(biases + shift, weights)
        eps, _ = wasserstein1(predicted, actual)
        assert eps == pytest.approx(2.0 * shift, abs=1e-10)
        alpha = 0.1 + 0.2 * gen.random()
        delta = 0.1 + 0.3 * gen.random()
        got = coverage(enlarge(build_mass_set(predicted, alpha), delta), actual)
        assert got >= 1.0 - alpha - eps / delta - 1e-12

    # moment intervals from exact moments cover the bias with
    # probability at least 1 - alpha
    for trial in range(200):
        spec = RandomMixtureSpec(num_labels=2, support_size=5, dirichlet_alpha=0.8)
        m = random_mixture(spec, RngSeed(81_000 + trial))
        k = 4 + 2 * (trial % 3)
        mv = estimate_moments(project_k(m, k), k, eps=0.0)
        alpha = 0.05 + 0.3 * RngSeed(82_000 + trial).generator().random()
        box = moment_interval(mv, alpha)
        bias = m.points_array()[:, 1]
        inside = (box.lo - 1e-12 <= bias) & (bias <= box.hi + 1e-12)
        mass = 0.0
        for w in m.weights_array()[inside].tolist():  # left to right
            mass += w
        assert mass >= 1.0 - alpha - 1e-12


def test_criterion_10():
    # end-to-end pipeline: the record-weighted aleatoric estimation error
    # of calibrated tables against the exact per-bin truth strictly
    # shrinks as snapshots get deeper, at n=5000 over 20 seeds
    start = time.monotonic()
    spec = BinaryRegression()
    truth_au = {
        pid: average_entropy(m, SHANNON2) for pid, m in bayes_mixtures(spec).items()
    }
    medians = []
    for k in (1, 2, 5, 10):
        errors = []
        for seed in range(20):
            ds = gen_dataset(spec, 5000, k, RngSeed(9_000 + seed))
            table = posthoc_calibrate(ds)
            num = den = 0.0
            for pid, mix in table.entries.items():
                count = table.counts[pid]
                num += count * abs(average_entropy(mix, SHANNON2) - truth_au[pid])
                den += count
            errors.append(num / den)
        medians.append(float(np.median(errors)))
    assert medians[0] > medians[1] > medians[2] > medians[3]
    assert time.monotonic() - start < 300.0
