import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.calibrate import CalibrationTable
from hocal.errors import CapExceeded, DomainError, InvalidDistribution
from hocal.moments import estimate_moments
from hocal.transport import _move_graph, w1_lattice
from hocal.mixture import (
    Mixture,
    RngSeed,
    centroid,
    empirical_mixture,
    mixture_from_arrays,
    project_k,
    sample_snapshots,
)
from hocal.mixture import _lattice, _projection_masses
from hocal.simplex import LabelSpace, SimplexPoint, Snapshot, snapshot_to_point
from hocal.synth import RandomMixtureSpec, random_mixture

BINARY = LabelSpace(2)
TERNARY = LabelSpace(3)


def sample_snapshot(m: Mixture, k: int, rng: RngSeed) -> Snapshot:
    """One k-snapshot: draw a support point by weight, then k iid labels."""
    gen = rng.generator()
    idx = gen.choice(m.size, p=m.weights_array())
    counts = gen.multinomial(k, m.points_array()[idx])
    return Snapshot(tuple(int(c) for c in counts))


def test_rng_seed_validation():
    with pytest.raises(InvalidDistribution):
        RngSeed(-1)
    with pytest.raises(InvalidDistribution):
        RngSeed(2**64)
    RngSeed(0)
    RngSeed(2**64 - 1)


def test_rng_determinism_and_child_streams():
    a = RngSeed(42).generator().random(5)
    b = RngSeed(42).generator().random(5)
    assert np.array_equal(a, b)
    child0 = RngSeed(42).child(0)
    child1 = RngSeed(42).child(1)
    assert child0.seed != child1.seed
    assert child0.seed == RngSeed(42).child(0).seed


def test_mixture_weight_validation():
    with pytest.raises(InvalidDistribution):
        mixture_from_arrays([(0.5, 0.5)], [0.9], BINARY)
    with pytest.raises(InvalidDistribution):
        mixture_from_arrays([(0.5, 0.5), (0.2, 0.8)], [1.0, -0.0], BINARY)
    with pytest.raises(InvalidDistribution):
        Mixture((), BINARY)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidDistribution):
            mixture_from_arrays([(0.5, 0.5), (0.2, 0.8)], [1.0, bad], BINARY)
        with pytest.raises(InvalidDistribution):
            mixture_from_arrays([(0.5, 0.5)], [bad], BINARY)


@pytest.mark.parametrize("num_points, num_weights", [(2, 1), (1, 2), (3, 0)])
def test_mixture_from_arrays_rejects_unequal_lengths(num_points, num_weights):
    points = [(0.5, 0.5), (0.2, 0.8), (1.0, 0.0)][:num_points]
    weights = [1.0, 0.0][:num_weights]
    with pytest.raises(InvalidDistribution, match=f"{num_points} points but {num_weights} weights"):
        mixture_from_arrays(points, weights, BINARY)
    with pytest.raises(InvalidDistribution):
        mixture_from_arrays(np.array(points), np.array(weights), BINARY)


@pytest.mark.parametrize(
    "weights,total", [((0.5, np.nan), 1.0), ((np.inf, 0.5), 1.0), ((0.5, 0.5), np.nan)]
)
def test_trusted_constructor_rejects_non_finite_weights(weights, total):
    points = np.array([(0.5, 0.5), (1.0, 0.0)])
    with pytest.raises(InvalidDistribution):
        Mixture._from_distinct(points, np.array(weights), total, BINARY)


def test_mixture_merges_duplicates():
    m = mixture_from_arrays([(0.5, 0.5), (0.5, 0.5)], [0.4, 0.6], BINARY)
    assert m.size == 1
    assert m.support[0][1] == pytest.approx(1.0, abs=0)


def test_mixture_merges_near_duplicates():
    m = mixture_from_arrays([(0.5, 0.5), (0.5 + 1e-13, 0.5 - 1e-13)], [0.4, 0.6], BINARY)
    assert m.size == 1


def test_mixture_support_order_is_canonical():
    m1 = mixture_from_arrays([(0.9, 0.1), (0.2, 0.8)], [0.3, 0.7], BINARY)
    m2 = mixture_from_arrays([(0.2, 0.8), (0.9, 0.1)], [0.7, 0.3], BINARY)
    assert m1 == m2
    assert [p.probs for p, _ in m1.support] == sorted(p.probs for p, _ in m1.support)


def test_centroid():
    m = mixture_from_arrays([(0.8, 0.2), (0.3, 0.7)], [0.5, 0.5], BINARY)
    assert centroid(m).probs == pytest.approx((0.55, 0.45), abs=1e-15)


def test_project_k_binomial_masses():
    # single component p = (0.7, 0.3), k = 2: masses 0.49, 0.42, 0.09
    m = mixture_from_arrays([(0.7, 0.3)], [1.0], BINARY)
    proj = project_k(m, 2)
    got = {p.probs: w for p, w in proj.support}
    assert got[(1.0, 0.0)] == pytest.approx(0.49, abs=1e-12)
    assert got[(0.5, 0.5)] == pytest.approx(0.42, abs=1e-12)
    assert got[(0.0, 1.0)] == pytest.approx(0.09, abs=1e-12)


def test_project_k_multinomial_masses_three_labels():
    m = mixture_from_arrays([(0.5, 0.3, 0.2)], [1.0], TERNARY)
    proj = project_k(m, 2)
    got = {p.probs: w for p, w in proj.support}
    assert got[(1.0, 0.0, 0.0)] == pytest.approx(0.25, abs=1e-12)
    assert got[(0.0, 1.0, 0.0)] == pytest.approx(0.09, abs=1e-12)
    assert got[(0.0, 0.0, 1.0)] == pytest.approx(0.04, abs=1e-12)
    assert got[(0.5, 0.5, 0.0)] == pytest.approx(0.30, abs=1e-12)
    assert got[(0.5, 0.0, 0.5)] == pytest.approx(0.20, abs=1e-12)
    assert got[(0.0, 0.5, 0.5)] == pytest.approx(0.12, abs=1e-12)


def test_project_k_keeps_vertices_fixed():
    m = mixture_from_arrays([(1.0, 0.0)], [1.0], BINARY)
    proj = project_k(m, 5)
    assert proj.size == 1
    assert proj.support[0][0].probs == (1.0, 0.0)


def test_project_k_weights_sum_to_one():
    m = mixture_from_arrays([(0.8, 0.2), (0.3, 0.7)], [0.5, 0.5], BINARY)
    proj = project_k(m, 7)
    assert float(proj.weights_array().sum()) == pytest.approx(1.0, abs=1e-12)


def _edge_mixtures(l):
    """Mixtures with a vertex and a zero-probability label (the `dead` branch)."""
    vertex = (1.0,) + (0.0,) * (l - 1)
    edge = (0.5, 0.5) + (0.0,) * (l - 2)
    inner = tuple(1.0 / l for _ in range(l))
    space = LabelSpace(l)
    yield mixture_from_arrays([vertex], [1.0], space)
    yield mixture_from_arrays([vertex, edge, inner], [0.2, 0.3, 0.5], space)
    if l > 2:
        yield mixture_from_arrays([edge], [1.0], space)


@pytest.mark.parametrize("l", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 8, 16])
def test_project_k_matches_the_generic_constructor(l, k):
    # project_k skips the support merge for lattice points; the result must
    # be exactly what Mixture(...) gives for the same (point, mass) pairs
    spec = RandomMixtureSpec(num_labels=l, support_size=4, dirichlet_alpha=2.0)
    mixtures = [random_mixture(spec, RngSeed(500 * l + 10 * k + t)) for t in range(5)]
    mixtures += list(_edge_mixtures(l))
    counts = _lattice(LabelSpace(l), k)[0]
    points = [snapshot_to_point(Snapshot(tuple(c))) for c in counts.astype(int).tolist()]
    for m in mixtures:
        mass = _projection_masses(m, k)
        generic = Mixture(
            tuple((points[i], mass[i]) for i in np.flatnonzero(mass > 0.0)), m.space
        )
        proj = project_k(m, k)
        assert [p.probs for p, _ in proj.support] == [p.probs for p, _ in generic.support]
        assert [w.hex() for _, w in proj.support] == [w.hex() for _, w in generic.support]
        assert all(type(w) is float for _, w in proj.support)
        assert np.array_equal(proj.points_array(), generic.points_array())
        assert np.array_equal(proj.weights_array(), generic.weights_array())
        assert proj == generic


def test_mixture_arrays_are_read_only():
    m = mixture_from_arrays([(0.8, 0.2), (0.3, 0.7)], [0.5, 0.5], BINARY)
    for mix in (m, project_k(m, 4)):
        assert mix.points_array() is mix.points_array()
        with pytest.raises(ValueError):
            mix.points_array()[0, 0] = 0.5
        with pytest.raises(ValueError):
            mix.weights_array()[0] = 0.5


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=4),
    st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=2, max_size=4),
    st.integers(min_value=1, max_value=9),
)
def test_project_k_preserves_the_centroid(raw_w, biases, k):
    # E[snapshot/k] = E[p]: the projection never moves the mean
    n = min(len(raw_w), len(biases))
    total = sum(raw_w[:n])
    pts = [(1.0 - b, b) for b in biases[:n]]
    m = mixture_from_arrays(pts, [w / total for w in raw_w[:n]], BINARY)
    proj = project_k(m, k)
    assert centroid(proj).probs == pytest.approx(centroid(m).probs, abs=1e-12)


def test_sampling_matches_exact_projection():
    # Monte Carlo check of project_k: empirical snapshot frequencies vs
    # the exact projection masses, fixed seed, 4-sigma-ish slack.
    m = mixture_from_arrays([(0.8, 0.2), (0.3, 0.7)], [0.5, 0.5], BINARY)
    k, n = 2, 40000
    proj = project_k(m, k)
    snaps = sample_snapshots(m, k, n, RngSeed(2024))
    freq = {}
    for s in snaps:
        p = snapshot_to_point(s).probs
        freq[p] = freq.get(p, 0) + 1.0 / n
    assert set(freq) <= {p.probs for p, _ in proj.support}
    tv = 0.5 * sum(abs(freq.get(p.probs, 0.0) - w) for p, w in proj.support)
    assert tv < 0.015


def test_sample_snapshot_single_draw_shape():
    m = mixture_from_arrays([(0.5, 0.5)], [1.0], BINARY)
    s = sample_snapshot(m, 6, RngSeed(1))
    assert s.k == 6
    assert s.dim == 2


def test_sample_snapshots_deterministic_under_seed():
    m = mixture_from_arrays([(0.6, 0.4), (0.1, 0.9)], [0.5, 0.5], BINARY)
    a = sample_snapshots(m, 3, 50, RngSeed(7))
    b = sample_snapshots(m, 3, 50, RngSeed(7))
    assert a == b


def test_empirical_mixture_merges_and_weights():
    pts = [SimplexPoint((1.0, 0.0)), SimplexPoint((1.0, 0.0)), SimplexPoint((0.0, 1.0))]
    m = empirical_mixture(pts)
    got = {p.probs: w for p, w in m.support}
    assert got[(1.0, 0.0)] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert got[(0.0, 1.0)] == pytest.approx(1.0 / 3.0, abs=1e-15)
    with pytest.raises(InvalidDistribution):
        empirical_mixture([])

@pytest.mark.parametrize("k", [1, 4, 32])
def test_one_lattice_rule_for_tables_moments_and_w1_lattice(k):
    # a coordinate of k * p off its count by 2e-9 * k is off the lattice for
    # every caller; the exact lattice points themselves pass
    c = k // 2
    on = mixture_from_arrays([((k - c) / k, c / k), (1.0, 0.0)], [0.5, 0.5], BINARY)
    off = mixture_from_arrays([((k - c) / k - 2e-9, c / k + 2e-9), (1.0, 0.0)], [0.5, 0.5], BINARY)
    CalibrationTable(entries={"a": on}, k=k, space=BINARY, counts=None)
    estimate_moments(on, k, eps=0.0)
    assert w1_lattice(on, on, k) == 0.0
    with pytest.raises(InvalidDistribution):
        CalibrationTable(entries={"a": off}, k=k, space=BINARY, counts=None)
    with pytest.raises(InvalidDistribution):
        estimate_moments(off, k, eps=0.0)
    with pytest.raises(DomainError):
        w1_lattice(off, on, k)


def test_project_k_and_w1_lattice_share_one_lattice_per_space_and_k():
    # project_k (cap 10^6) and w1_lattice (node cap 10^5) check their caps
    # before the cache, so the two build and hold one lattice between them
    _lattice.cache_clear()
    _move_graph.cache_clear()
    spec = RandomMixtureSpec(num_labels=3, support_size=4, dirichlet_alpha=2.0)
    f, h = random_mixture(spec, RngSeed(1)), random_mixture(spec, RngSeed(2))
    pf, ph = project_k(f, 8), project_k(h, 8)
    w1_lattice(pf, ph, 8)
    assert _lattice.cache_info().currsize == 1
    assert _move_graph.cache_info().currsize == 1
    with pytest.raises(CapExceeded, match="snapshot space has 45 points, above the cap of 44"):
        project_k(f, 8, cap=44)
    with pytest.raises(CapExceeded, match="snapshot space has 45 points, above the cap of 44"):
        w1_lattice(pf, ph, 8, node_cap=44)
    with pytest.raises(InvalidDistribution, match="snapshot size must be >= 1, got 0"):
        project_k(f, 0)
    assert _lattice.cache_info().currsize == 1
