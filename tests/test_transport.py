import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.errors import CapExceeded, DimensionMismatch, DomainError, InvalidDistribution
from hocal.mixture import Mixture, RngSeed, mixture_from_arrays, project_k
from hocal.simplex import LabelSpace, enumerate_snapshot_space
from hocal.synth import RandomMixtureSpec
from hocal.synth import random_mixture as draw_mixture
import hocal.transport
from hocal.transport import (
    SolverFailure,
    _route,
    _transport_constraints,
    w1_lattice,
    wasserstein1,
)

BINARY = LabelSpace(2)


def tv_distance(a, b) -> float:
    """Total variation between two supports, matching points within l1 1e-12."""
    wa, wb = a.weights_array(), b.weights_array()
    pa, pb = a.points_array(), b.points_array()
    close = np.abs(pa[:, None, :] - pb[None, :, :]).sum(axis=2) <= 1e-12
    unmatched = wb[~close.any(axis=0)].sum()
    return 0.5 * float(np.abs(wa - close @ wb).sum() + unmatched)


def w1_tv_bound_check(a, b) -> bool:
    """The simplex has l1 diameter 2, so W1 never exceeds 2 TV."""
    w1, _ = wasserstein1(a, b)
    return w1 <= 2.0 * tv_distance(a, b) + 1e-8


def plan_cost(a, b, plan) -> float:
    """l1 price of a plan whose rows follow a's points and columns b's."""
    cost = np.abs(a.points_array()[:, None, :] - b.points_array()[None, :, :]).sum(axis=2)
    return float((cost * plan).sum())


def binary(biases, weights):
    return mixture_from_arrays([(1.0 - b, b) for b in biases], weights, BINARY)


def test_w1_of_a_mixture_with_itself_is_zero():
    m = binary([0.1, 0.6], [0.5, 0.5])
    cost, plan = wasserstein1(m, m)
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert plan_cost(m, m, plan) == pytest.approx(cost, abs=1e-12)


def test_w1_between_point_masses_is_l1():
    a = mixture_from_arrays([(1.0, 0.0, 0.0)], [1.0], LabelSpace(3))
    b = mixture_from_arrays([(0.0, 1.0, 0.0)], [1.0], LabelSpace(3))
    cost, _ = wasserstein1(a, b)
    assert cost == pytest.approx(2.0, abs=1e-12)


def test_w1_binary_hand_value():
    # CDF integral by hand: 2 * (0.25*0.1 + 0.35*0.2 + 0.1*0.3 + 0.5*0.2) = 0.45
    a = binary([0.1, 0.4, 0.9], [0.25, 0.25, 0.5])
    b = binary([0.2, 0.7], [0.6, 0.4])
    cost, plan = wasserstein1(a, b)
    assert cost == pytest.approx(0.45, abs=1e-12)
    assert plan_cost(a, b, plan) == pytest.approx(0.45, abs=1e-12)


def test_w1_vertex_split_versus_middle():
    # {0: 1/2, 1: 1/2} vs a point mass at 1/2: each half moves l1 distance 1
    a = binary([0.0, 1.0], [0.5, 0.5])
    b = binary([0.5], [1.0])
    cost, _ = wasserstein1(a, b)
    assert cost == pytest.approx(1.0, abs=1e-12)


def test_w1_forced_coupling_single_target():
    a = mixture_from_arrays(
        [(0.4, 0.3, 0.2, 0.1), (0.1, 0.1, 0.1, 0.7)], [0.5, 0.5], LabelSpace(4)
    )
    b = mixture_from_arrays([(0.25, 0.25, 0.25, 0.25)], [1.0], LabelSpace(4))
    cost, _ = wasserstein1(a, b)
    assert cost == pytest.approx(0.5 * 0.4 + 0.5 * 0.9, abs=1e-12)


def test_w1_three_label_frozen_against_conic_solver():
    # 0.690000000262 from an independent interior-point LP solve
    a = mixture_from_arrays(
        [(0.7, 0.2, 0.1), (0.1, 0.8, 0.1), (0.2, 0.2, 0.6)], [0.3, 0.5, 0.2], LabelSpace(3)
    )
    b = mixture_from_arrays([(0.5, 0.25, 0.25), (0.0, 0.5, 0.5)], [0.6, 0.4], LabelSpace(3))
    cost, plan = wasserstein1(a, b)
    assert cost == pytest.approx(0.69, abs=1e-6)
    assert np.allclose(plan.sum(axis=1), a.weights_array(), atol=1e-9)
    assert np.allclose(plan.sum(axis=0), b.weights_array(), atol=1e-9)


def test_w1_binary_lp_agrees_with_cdf_route():
    a = binary([0.05, 0.3, 0.8], [0.2, 0.5, 0.3])
    b = binary([0.1, 0.55, 0.95], [0.4, 0.4, 0.2])
    cdf_cost, _ = wasserstein1(a, b, method="cdf")
    lp_cost, _ = wasserstein1(a, b, method="lp")
    assert lp_cost == pytest.approx(cdf_cost, abs=1e-9)


def test_w1_symmetry():
    a = binary([0.2, 0.9], [0.6, 0.4])
    b = binary([0.1, 0.5, 0.7], [0.3, 0.3, 0.4])
    ab, _ = wasserstein1(a, b)
    ba, _ = wasserstein1(b, a)
    assert ab == pytest.approx(ba, abs=1e-12)


def test_w1_support_cap():
    # both sides above 8 points: the LP goes to HiGHS whole, under the cap
    a = binary(np.linspace(0.01, 0.99, 60), np.full(60, 1 / 60))
    b = binary(np.linspace(0.05, 0.95, 9), np.full(9, 1 / 9))
    with pytest.raises(CapExceeded):
        wasserstein1(a, b, support_cap=50, method="lp")
    cost, _ = wasserstein1(a, b, support_cap=50)  # cdf route ignores the cap
    assert cost >= 0.0


def test_support_cap_binds_only_where_highs_solves_the_whole_lp():
    # 4 lattice points against the 20 301-point projection at k = 200 take
    # the few-source route, which builds no LP over all pairs; 9 points send
    # the same pair to HiGHS, under the cap
    space, k = LabelSpace(3), 200
    p = project_k(mixture_from_arrays([(0.2, 0.3, 0.5), (0.6, 0.3, 0.1)], [0.4, 0.6], space), k)
    points = enumerate_snapshot_space(space, k)[::2300] / k
    g = mixture_from_arrays(points[1:5], [0.1, 0.2, 0.3, 0.4], space)
    cost, plan = wasserstein1(g, p, k=k)
    assert plan.shape == (4, p.size)
    assert abs(cost - w1_lattice(g, p, k)) <= 1e-12
    many = mixture_from_arrays(points, np.full(len(points), 1.0 / len(points)), space)
    assert many.size == 9
    with pytest.raises(CapExceeded, match="combined support 20310 exceeds support_cap=2000"):
        wasserstein1(many, p, k=k)


def test_few_source_splits_tiny_tied_sinks_at_a_lattice_vertex():
    # the vertex (0, 0, 1) has about 6e-13 of supply left for about 2e-12 of
    # tight sink mass; HiGHS presolve once called that split infeasible
    space, k = LabelSpace(3), 200
    p = project_k(mixture_from_arrays([(0.2, 0.3, 0.5), (0.6, 0.3, 0.1)], [0.4, 0.6], space), k)
    points = enumerate_snapshot_space(space, k)[[0, 2300, 4600, 6900]] / k
    g = mixture_from_arrays(points, [0.1, 0.2, 0.3, 0.4], space)
    cost, plan = wasserstein1(g, p, k=k)
    assert plan.shape == (4, p.size)
    assert abs(cost - w1_lattice(g, p, k)) <= 1e-12


def test_w1_space_mismatch():
    a = binary([0.5], [1.0])
    b = mixture_from_arrays([(0.4, 0.3, 0.3)], [1.0], LabelSpace(3))
    with pytest.raises(DimensionMismatch):
        wasserstein1(a, b)


def test_coupling_marginals_match_inputs():
    a = binary([0.15, 0.45, 0.85], [0.3, 0.4, 0.3])
    b = binary([0.2, 0.6], [0.55, 0.45])
    _, plan = wasserstein1(a, b)
    assert plan.shape == (a.size, b.size)
    assert np.allclose(plan.sum(axis=1), a.weights_array(), atol=1e-9)
    assert np.allclose(plan.sum(axis=0), b.weights_array(), atol=1e-9)
    assert (plan >= -1e-12).all()


def test_tv_distance_cases():
    a = binary([0.0, 1.0], [0.5, 0.5])
    assert tv_distance(a, a) == pytest.approx(0.0, abs=1e-15)
    b = binary([0.5], [1.0])
    assert tv_distance(a, b) == pytest.approx(1.0, abs=1e-15)
    c = binary([0.0, 0.5], [0.5, 0.5])
    assert tv_distance(a, c) == pytest.approx(0.5, abs=1e-15)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_w1_at_most_twice_tv(seed):
    spec = RandomMixtureSpec(num_labels=3, support_size=4, dirichlet_alpha=1.0)
    a = draw_mixture(spec, RngSeed(seed))
    b = draw_mixture(spec, RngSeed(seed + 20_000))
    assert w1_tv_bound_check(a, b)
    cost, _ = wasserstein1(a, b)
    assert cost <= 2.0 * tv_distance(a, b) + 1e-9


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_w1_triangle_inequality(seed):
    spec = RandomMixtureSpec(num_labels=3, support_size=3, dirichlet_alpha=0.8)
    a = draw_mixture(spec, RngSeed(seed))
    b = draw_mixture(spec, RngSeed(seed + 30_000))
    c = draw_mixture(spec, RngSeed(seed + 60_000))
    ab, _ = wasserstein1(a, b)
    bc, _ = wasserstein1(b, c)
    ac, _ = wasserstein1(a, c)
    assert ac <= ab + bc + 1e-8


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_w1_binary_lp_cdf_agreement_property(seed):
    spec = RandomMixtureSpec(num_labels=2, support_size=5, dirichlet_alpha=0.7)
    a = draw_mixture(spec, RngSeed(seed))
    b = draw_mixture(spec, RngSeed(seed + 40_000))
    cdf_cost, _ = wasserstein1(a, b, method="cdf")
    lp_cost, _ = wasserstein1(a, b, method="lp")
    assert lp_cost == pytest.approx(cdf_cost, abs=1e-9)

def lattice_mixture(space, k, seed):
    points = enumerate_snapshot_space(space, k) / k
    weights = RngSeed(seed).generator().dirichlet(np.ones(len(points)))
    return mixture_from_arrays(points, weights, space)


def test_w1_lattice_matches_dense_lp():
    space = LabelSpace(3)
    for k in (2, 4):
        for seed in range(5):
            a = lattice_mixture(space, k, 500 + seed)
            b = lattice_mixture(space, k, 600 + seed)
            dense, _ = wasserstein1(a, b)
            assert w1_lattice(a, b, k) == pytest.approx(dense, abs=1e-8)


def test_w1_lattice_matches_cdf_route():
    for seed in range(5):
        a = lattice_mixture(BINARY, 8, 700 + seed)
        b = lattice_mixture(BINARY, 8, 800 + seed)
        cdf, _ = wasserstein1(a, b)
        assert w1_lattice(a, b, 8) == pytest.approx(cdf, abs=1e-8)


def test_w1_lattice_hand_values():
    space = LabelSpace(3)
    a = mixture_from_arrays([(1.0, 0.0, 0.0)], [1.0], space)
    b = mixture_from_arrays([(0.0, 1.0, 0.0)], [1.0], space)
    assert w1_lattice(a, b, 2) == pytest.approx(2.0, abs=1e-9)
    # vertex split against the midpoint: each half travels l1 distance 1
    c = mixture_from_arrays([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [0.5, 0.5], space)
    d = mixture_from_arrays([(0.5, 0.5, 0.0)], [1.0], space)
    assert w1_lattice(c, d, 2) == pytest.approx(1.0, abs=1e-9)
    assert w1_lattice(c, c, 2) == pytest.approx(0.0, abs=1e-12)


def test_w1_lattice_rejects_off_lattice_points():
    space = LabelSpace(3)
    a = mixture_from_arrays([(0.3, 0.7, 0.0)], [1.0], space)
    b = mixture_from_arrays([(0.5, 0.5, 0.0)], [1.0], space)
    with pytest.raises(InvalidDistribution):
        w1_lattice(a, b, 2)
    with pytest.raises(DomainError):
        w1_lattice(b, b, 0)


def test_w1_lattice_node_cap_and_space_mismatch():
    space = LabelSpace(3)
    a = lattice_mixture(space, 32, 1)
    b = lattice_mixture(space, 32, 2)
    with pytest.raises(CapExceeded):
        w1_lattice(a, b, 446)  # 100 128 lattice points, above the node cap of 10^5
    c = lattice_mixture(BINARY, 2, 3)
    with pytest.raises(DimensionMismatch):
        w1_lattice(a, c, 2)


def test_w1_lattice_takes_integer_snapshot_sizes_only():
    space = LabelSpace(3)
    a = mixture_from_arrays([(1.0, 0.0, 0.0)], [1.0], space)
    b = mixture_from_arrays([(0.0, 1.0, 0.0)], [1.0], space)
    assert w1_lattice(a, b, np.int64(1)) == pytest.approx(2.0, abs=1e-9)
    for k in (True, np.True_, 1.0, "1", np.array(1.0), np.array([1]), 0):
        with pytest.raises(DomainError, match="snapshot size must be"):
            w1_lattice(a, b, k)
        with pytest.raises(DomainError, match="snapshot size must be"):
            wasserstein1(a, b, k=k)


def test_wasserstein1_takes_the_lattice_flow_when_given_k():
    space = LabelSpace(3)
    a, b = lattice_mixture(space, 4, 11), lattice_mixture(space, 4, 12)
    cost, plan = wasserstein1(a, b, k=4)
    assert plan is None
    assert cost == w1_lattice(a, b, 4)
    dense, dense_plan = wasserstein1(a, b, method="lp", k=4)
    assert dense_plan.shape == (a.size, b.size)
    assert abs(cost - dense) <= 1e-12
    with pytest.raises(TypeError):
        wasserstein1(a, b, 2000, "auto", 4)  # k is keyword-only


def test_wasserstein1_takes_the_flow_above_two_pairs_per_move():
    # the k = 6 lattice of 3 labels has 28 points and 126 single-label
    # moves; 4 rows are few enough for the few-source route and 9 go to
    # HiGHS. The k = 3 lattice has 10 points and 36 moves: 8 rows against
    # all 10 make 80 pairs, above 72, but few-source comes first
    space = LabelSpace(3)
    table = [(6, 4, "few-source"), (6, 9, "highs"), (6, 10, "flow"), (6, 28, "flow"),
             (3, 8, "few-source")]
    for k, rows, route in table:
        full = lattice_mixture(space, k, 21)
        part = mixture_from_arrays(
            full.points_array()[:rows], np.full(rows, 1.0 / rows), space
        )
        assert _route(part, full, "auto", k) == route
        cost, plan = wasserstein1(part, full, k=k)
        dense, dense_plan = wasserstein1(part, full, method="lp")
        if route == "flow":
            assert plan is None and cost == w1_lattice(part, full, k)
            assert abs(cost - dense) <= 1e-12
        else:
            assert float(cost).hex() == float(dense).hex()
            assert plan is not None and plan.tobytes() == dense_plan.tobytes()
    # above the node cap a 1-point side takes few-source
    k = 446
    a = mixture_from_arrays([(1.0, 0.0, 0.0)], [1.0], space)
    b = mixture_from_arrays([(0.0, 1.0, 0.0), (1 / k, 0.0, 445 / k)], [0.5, 0.5], space)
    assert _route(a, b, "auto", k) == "few-source"
    assert wasserstein1(a, b, k=k)[1].shape == (1, 2)


def test_binary_route_ignores_k():
    for seed in range(5):
        a = lattice_mixture(BINARY, 8, 900 + seed)
        b = lattice_mixture(BINARY, 8, 950 + seed)
        cost, plan = wasserstein1(a, b)
        cost_k, plan_k = wasserstein1(a, b, k=8)
        assert float(cost_k).hex() == float(cost).hex()
        assert plan_k.tobytes() == plan.tobytes()


def _reduced_assembly(m, n):
    # the reduced system HiGHS was given before the full-system build: the
    # last column-sum row dropped at assembly time
    j = np.tile(np.arange(n), m)
    has_col = j < n - 1
    indices = np.empty((m * n, 2), dtype=np.int32)
    indices[:, 0] = np.repeat(np.arange(m), n)
    indices[:, 1] = m + j
    indptr = np.zeros(m * n + 1, dtype=np.int32)
    np.cumsum(1 + has_col, out=indptr[1:])
    indices = indices[np.column_stack([np.ones(m * n, dtype=bool), has_col])]
    return sparse.csc_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(m + n - 1, m * n)
    )


@pytest.mark.parametrize(
    "m,n", [(2, 2), (2, 5), (3, 2), (4, 3), (4, 33), (7, 6), (120, 153)]
)
def test_transport_constraints_match_the_kron_assembly(m, n):
    # the direct CSC assembly replaces kron/vstack; same matrix, same layout
    rows = sparse.kron(sparse.eye(m), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, m)), sparse.eye(n))
    expected = sparse.vstack([rows, cols]).tocsc()
    # kron stores explicit zeros when n == 2; the stored nonzeros must agree
    expected.eliminate_zeros()
    got = _transport_constraints(m, n)
    assert got.shape == expected.shape == (m + n, m * n)
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data, expected.data)
    # HiGHS gets the full system without its last row: the same arrays as
    # the former reduced assembly, so every solve sees identical inputs
    reduced, old = got[:-1], _reduced_assembly(m, n)
    assert reduced.shape == old.shape
    assert np.array_equal(reduced.indptr, old.indptr)
    assert np.array_equal(reduced.indices, old.indices)
    assert np.array_equal(reduced.data, old.data)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([(2, "cdf"), (2, "lp"), (3, "lp")]),
)
def test_reported_w1_is_the_cost_of_a_coupling_of_the_inputs(seed, case):
    # the reported distance is the price of the returned plan, and the plan
    # carries both inputs
    labels, method = case
    spec = RandomMixtureSpec(num_labels=labels, support_size=5, dirichlet_alpha=0.7)
    a = draw_mixture(spec, RngSeed(seed))
    b = draw_mixture(spec, RngSeed(seed + 50_000))
    cost, plan = wasserstein1(a, b, method=method)
    assert abs(cost - plan_cost(a, b, plan)) <= 1e-12
    assert np.abs(plan.sum(axis=1) - a.weights_array()).max() <= 1e-9
    assert np.abs(plan.sum(axis=0) - b.weights_array()).max() <= 1e-9
    assert plan.min() >= -1e-12


def _nudge_plan(x, y, m, n):
    # a 2x2 cycle keeps the marginals but drives a zero entry negative; x is
    # HiGHS's plan, in supplies scaled by _SUPPLY_SCALE
    x = x.reshape(m, n).copy()
    i, j = np.argwhere(x == 0.0)[0]
    i2, j2 = (i + 1) % m, (j + 1) % n
    eps = 1e-6 * hocal.transport._SUPPLY_SCALE
    x[i, j] -= eps
    x[i2, j2] -= eps
    x[i, j2] += eps
    x[i2, j] += eps
    return x.ravel(), y


def _scale_solution(x, y, *shape):
    return x * (1.0 + 1e-6), y


def _raise_duals(x, y, *shape):
    # reduced costs become (1 + e) r - e c: negative wherever the solution
    # is supported (r = 0) at a positive cost
    return x, y * (1.0 + 1e-4)


def _lower_duals(x, y, *shape):
    # reduced costs become (1 - e) r + e c >= 0: still feasible, but no
    # longer zero where the solution is supported at a positive cost
    return x, y * (1.0 - 1e-4)


def _nan_solution(x, y, *shape):
    # NaN fails every comparison: a gate written as residual > tol passes it
    x = x.copy()
    x[0] = np.nan
    return x, y


def _nan_dual(x, y, *shape):
    y = y.copy()
    y[0] = np.nan
    return x, y


SHARED_PERTURBATIONS = [
    (_scale_solution, "marginal or balance residual"),
    (_raise_duals, "dual infeasibility"),
    (_lower_duals, "complementary slackness"),
    (_nan_solution, "negative mass or flow"),
    (_nan_dual, "dual infeasibility"),
]


def _perturbed_solve(perturb, *shape):
    solve = hocal.transport._solve_lp

    def perturbed(*args):
        res = solve(*args)
        res.x, res.eqlin.marginals = perturb(res.x, np.asarray(res.eqlin.marginals), *shape)
        return res

    return perturbed


@pytest.fixture
def dense_lp(monkeypatch):
    """Send every LP to HiGHS: no side is small enough for `_few_source`."""
    monkeypatch.setattr(hocal.transport, "_FEW_SOURCES", 0)


@pytest.mark.usefixtures("dense_lp")
@pytest.mark.parametrize(
    "perturb,message", [(_nudge_plan, "negative mass or flow")] + SHARED_PERTURBATIONS
)
def test_dense_lp_certificate_rejects_a_perturbed_plan_or_dual(monkeypatch, perturb, message):
    space = LabelSpace(3)
    a = mixture_from_arrays([(0.6, 0.3, 0.1), (0.1, 0.1, 0.8), (0.3, 0.4, 0.3)], [0.2, 0.5, 0.3], space)
    b = mixture_from_arrays([(0.2, 0.2, 0.6), (0.7, 0.2, 0.1), (0.1, 0.8, 0.1)], [0.4, 0.4, 0.2], space)
    wasserstein1(a, b, method="lp")
    monkeypatch.setattr(hocal.transport, "_solve_lp", _perturbed_solve(perturb, a.size, b.size))
    with pytest.raises(SolverFailure, match=message):
        wasserstein1(a, b, method="lp")


def test_cdf_route_refuses_a_coupling_whose_marginals_drift():
    # stored weights summing to 1.1 get past only the trusted constructor;
    # the quantile coupling stops once the one-point side is spent
    heavy = Mixture._from_distinct(
        np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([0.55, 0.55]), 1.0, BINARY
    )
    unit = mixture_from_arrays([(0.0, 1.0)], [1.0], BINARY)
    for a, b in ((heavy, unit), (unit, heavy)):
        with pytest.raises(SolverFailure, match="marginal or balance residual above 1e-8"):
            wasserstein1(a, b)


def _negative_cycle(x, y):
    # -eps on two opposite moves u -> v and v -> u keeps every node balanced
    # and drives a zero flow negative
    reverse = hocal.transport._move_graph(LabelSpace(3), 2)[2]
    x = x.copy()
    e = int(np.flatnonzero(x == x.min())[0])
    x[e] -= 1e-6
    x[reverse[e]] -= 1e-6
    return x, y


def _perturbed_flow(perturb):
    solve = hocal.transport._lattice_flow

    def perturbed(*args):
        return perturb(*solve(*args))

    return perturbed


LATTICE_A = ([(1.0, 0.0, 0.0), (0.5, 0.5, 0.0)], [0.7, 0.3])
LATTICE_B = ([(0.0, 0.5, 0.5), (0.0, 0.0, 1.0)], [0.4, 0.6])


def test_lattice_flow_certificate_rejects_negative_flow(monkeypatch):
    space = LabelSpace(3)
    a, b = mixture_from_arrays(*LATTICE_A, space), mixture_from_arrays(*LATTICE_B, space)
    w1_lattice(a, b, 2)
    monkeypatch.setattr(hocal.transport, "_lattice_flow", _perturbed_flow(_negative_cycle))
    with pytest.raises(SolverFailure, match="negative mass or flow"):
        w1_lattice(a, b, 2)


@pytest.mark.parametrize("perturb,message", SHARED_PERTURBATIONS)
def test_lattice_flow_certificate_rejects_a_perturbed_flow_or_dual(monkeypatch, perturb, message):
    space = LabelSpace(3)
    a, b = mixture_from_arrays(*LATTICE_A, space), mixture_from_arrays(*LATTICE_B, space)
    w1_lattice(a, b, 2)
    monkeypatch.setattr(hocal.transport, "_lattice_flow", _perturbed_flow(perturb))
    with pytest.raises(SolverFailure, match=message):
        w1_lattice(a, b, 2)


def _hand_solved(monkeypatch, x, y, status=0):
    # HiGHS returns the plan in supplies scaled by _SUPPLY_SCALE, and the
    # duals of every row but the dropped last one
    res = SimpleNamespace(status=status, message="infeasible",
                          x=np.array(x) * hocal.transport._SUPPLY_SCALE,
                          eqlin=SimpleNamespace(marginals=np.array(y)))
    monkeypatch.setattr(hocal.transport, "_solve_lp", lambda *args: res)


# a 2 x 2 dense LP: a has half its mass at (0, 1) and half at (1, 0), b a
# quarter at (0, 1). The optimal plan moves a quarter across at cost 2, and
# its dual (u0, u1, v0) = (2, 0, -2), with v1 fixed at 0, is feasible and
# complementary
LP_A, LP_B = binary([1.0, 0.0], [0.5, 0.5]), binary([1.0, 0.0], [0.25, 0.75])
LP_PLAN, LP_DUAL = [0.25, 0.25, 0.0, 0.5], [2.0, 0.0, -2.0]


def perturbed_certify(monkeypatch, perturb):
    """Route every `_certify` call through `perturb(x, y)` first."""
    certify = hocal.transport._certify
    monkeypatch.setattr(hocal.transport, "_certify",
                        lambda cost, heads, tails, supply, x, y:
                        certify(cost, heads, tails, supply, *perturb(x, y)))


@pytest.mark.parametrize("perturb,message", SHARED_PERTURBATIONS)
def test_cdf_route_certificate_rejects_a_perturbed_plan_or_dual(monkeypatch, perturb, message):
    # the coupling moves a quarter from bias 1 to bias 0 at cost 2; its dual
    # is the potential 0 at bias 0 and 2 at bias 1
    cost, plan = wasserstein1(LP_A, LP_B, method="cdf")
    assert cost == 0.5 and np.array_equal(plan.ravel(), LP_PLAN)
    perturbed_certify(monkeypatch, perturb)
    with pytest.raises(SolverFailure, match=message):
        wasserstein1(LP_A, LP_B, method="cdf")


def test_every_route_passes_one_certificate_per_solve(monkeypatch):
    calls, certify = [], hocal.transport._certify
    monkeypatch.setattr(hocal.transport, "_certify",
                        lambda *args: calls.append(1) or certify(*args))
    shapes = spy_few_source(monkeypatch)
    highs, solve = [], hocal.transport._solve_lp
    monkeypatch.setattr(hocal.transport, "_solve_lp", lambda *args: highs.append(1) or solve(*args))
    space = LabelSpace(3)
    lattice = mixture_from_arrays(*LATTICE_A, space), mixture_from_arrays(*LATTICE_B, space)
    a, b = criterion_3_direct(3, 4, 0)

    wasserstein1(LP_A, LP_B)
    assert (len(calls), shapes, highs) == (1, [], [])
    wasserstein1(a, b)
    assert (len(calls), shapes, highs) == (2, [(4, 4)], [])
    w1_lattice(*lattice, 2)
    assert (len(calls), shapes, highs) == (3, [(4, 4)], [])
    monkeypatch.setattr(hocal.transport, "_FEW_SOURCES", 0)
    wasserstein1(a, b)
    assert (len(calls), shapes, highs) == (4, [(4, 4)], [1])


def test_every_route_returns_the_cost_as_a_python_float(monkeypatch):
    # cdf, few-source and the flow through `wasserstein1`, `w1_lattice`, and
    # HiGHS once no side counts as few: exactly float, never np.float64
    space = LabelSpace(3)
    a, b = criterion_3_direct(3, 4, 0)
    on_lattice = lattice_mixture(space, 4, 11), lattice_mixture(space, 4, 12)
    flow, plan = wasserstein1(*on_lattice, k=4)
    assert plan is None
    costs = [wasserstein1(LP_A, LP_B)[0], wasserstein1(a, b)[0], flow,
             w1_lattice(*on_lattice, 4)]
    monkeypatch.setattr(hocal.transport, "_FEW_SOURCES", 0)
    costs.append(wasserstein1(a, b)[0])
    assert [type(cost) for cost in costs] == [float] * 5


@pytest.mark.usefixtures("dense_lp")
def test_dense_lp_certificate_rejects_a_duality_gap(monkeypatch):
    _hand_solved(monkeypatch, LP_PLAN, LP_DUAL)
    cost, plan = wasserstein1(LP_A, LP_B, method="lp")
    assert cost == 0.5 and np.array_equal(plan.ravel(), LP_PLAN)
    # 8e-9 more on the cost-2 entry unbalances a row and a column by 8e-9,
    # inside the balance gate; the dual stays feasible and complementary,
    # but the objectives part by 1.6e-8
    _hand_solved(monkeypatch, [0.25, 0.25 + 8e-9, 0.0, 0.5], LP_DUAL)
    with pytest.raises(SolverFailure, match="primal and dual objectives disagree"):
        wasserstein1(LP_A, LP_B, method="lp")


@pytest.mark.usefixtures("dense_lp")
def test_dense_lp_rejects_a_failed_solve(monkeypatch):
    _hand_solved(monkeypatch, LP_PLAN, LP_DUAL, status=2)
    with pytest.raises(SolverFailure, match="highs LP failed: infeasible"):
        wasserstein1(LP_A, LP_B, method="lp")


# (labels, Dirichlet alpha, seed of m, then "proj" and k for
# W1(m, project_k(m, k)) or "pair" and the seed of h for W1(m, h), and the
# cost certified by an earlier solver configuration that retried these LPs).
# Criterion 2's (4, 32) trials 1 and 26, then every Dirichlet alpha = 0.1 LP
# of the README stress set that needed a second solve: at supply scale 1e8,
# presolve judged 4 of them infeasible, and at HiGHS's default dual
# tolerance the other 14 stopped at reduced costs below -1e-8.
SKEWED_LPS = [
    (4, 2.0, 43_201, "proj", 32, 0.2227552334570756),
    (4, 2.0, 43_226, "proj", 32, 0.22797007849882978),
    (3, 0.1, 330_427, "proj", 4, 0.17773638344784787),
    (3, 0.1, 330_806, "proj", 8, 0.06008701688499274),
    (3, 0.1, 331_628, "proj", 16, 0.08642405063636285),
    (3, 0.1, 331_613, "pair", 331_663, 1.436084591268339),
    (3, 0.1, 333_232, "proj", 32, 0.07134213871912),
    (3, 0.1, 336_421, "proj", 64, 0.0792587993683915),
    (4, 0.1, 340_433, "proj", 4, 0.14600988258499614),
    (4, 0.1, 341_622, "proj", 16, 0.10582727675616721),
    (4, 0.1, 341_629, "proj", 16, 0.09747358177561127),
    (4, 0.1, 341_642, "proj", 16, 0.042136657712304244),
    (4, 0.1, 343_200, "proj", 32, 0.12784421860427034),
    (4, 0.1, 343_213, "proj", 32, 0.06920545380652776),
    (4, 0.1, 343_219, "proj", 32, 0.13365031799226001),
    (4, 0.1, 343_233, "proj", 32, 0.058620539993618895),
    (4, 0.1, 343_241, "proj", 32, 0.11337292058107248),
    (3, 0.1, 98_165, "pair", 100_165, 1.455507869306154),
]


@pytest.mark.usefixtures("dense_lp")
@pytest.mark.parametrize("l,alpha,seed,kind,other,expected", SKEWED_LPS)
def test_skewed_dense_lp_certifies_in_one_solve(monkeypatch, l, alpha, seed, kind, other, expected):
    import scipy.optimize

    spec = RandomMixtureSpec(num_labels=l, support_size=4, dirichlet_alpha=alpha)
    m = draw_mixture(spec, RngSeed(seed))
    target = project_k(m, other) if kind == "proj" else draw_mixture(spec, RngSeed(other))
    linprog, statuses = scipy.optimize.linprog, []

    def recording(*args, **kwargs):
        res = linprog(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", recording)
    cost, plan = wasserstein1(m, target, support_cap=10_000)
    assert statuses == [0]
    assert abs(cost - expected) <= 1e-12
    assert abs(cost - plan_cost(m, target, plan)) <= 1e-12


def criterion_2_pair(l, k, trial, support=4):
    """Criterion 2's mixture `trial` at (l, k) and its size-k projection."""
    spec = RandomMixtureSpec(num_labels=l, support_size=support, dirichlet_alpha=2.0)
    m = draw_mixture(spec, RngSeed(10_000 * l + 100 * k + trial))
    return m, project_k(m, k)


def criterion_3_direct(l, k, trial):
    """Criterion 3's unprojected pair `trial` at (l, k)."""
    spec = RandomMixtureSpec(num_labels=l, support_size=4, dirichlet_alpha=2.0)
    f = draw_mixture(spec, RngSeed(20_000 * l + 200 * k + trial))
    return f, draw_mixture(spec, RngSeed(20_000 * l + 200 * k + trial + 100))


def uniform_on_lattice(l, k, rows=None):
    """Equal weights on the first `rows` points of the size-k lattice: costs
    are multiples of 2/k, so many arcs tie."""
    space = LabelSpace(l)
    points = enumerate_snapshot_space(space, k)[:rows] / k
    return mixture_from_arrays(points, np.full(len(points), 1.0 / len(points)), space)


ONE_POINT = mixture_from_arrays([(0.2, 0.3, 0.5)], [1.0], LabelSpace(3))
FEW_SOURCE_CASES = {
    "criterion 2 at (3, 16)": lambda: criterion_2_pair(3, 16, 0),
    "criterion 2 at (4, 16)": lambda: criterion_2_pair(4, 16, 1),
    "criterion 3 direct at (4, 8)": lambda: criterion_3_direct(4, 8, 2),
    "8 points against their (4, 8) projection": lambda: criterion_2_pair(4, 8, 3, support=8),
    "4 lattice points against the (3, 4) lattice": lambda: (
        uniform_on_lattice(3, 4, 4), uniform_on_lattice(3, 4)),
    "the (4, 4) lattice against 5 of its points": lambda: (
        uniform_on_lattice(4, 4), uniform_on_lattice(4, 4, 5)),
    "one point against a projection": lambda: (ONE_POINT, criterion_2_pair(3, 8, 4)[1]),
    "a projection against one point": lambda: (criterion_2_pair(3, 8, 4)[1], ONE_POINT),
}


def spy_few_source(monkeypatch):
    """Record the (sources, sinks) shape of every `_few_source` call."""
    shapes = []
    solve = hocal.transport._few_source

    def spy(cost, a, b):
        shapes.append(cost.shape)
        return solve(cost, a, b)

    monkeypatch.setattr(hocal.transport, "_few_source", spy)
    return shapes


@pytest.mark.parametrize("case", list(FEW_SOURCE_CASES))
def test_few_source_route_agrees_with_highs(monkeypatch, case):
    # the smaller side is the sources, and the plan comes back in the
    # caller's orientation when that is b
    a, b = FEW_SOURCE_CASES[case]()
    shapes = spy_few_source(monkeypatch)
    highs, solve = [], hocal.transport._solve_lp
    monkeypatch.setattr(hocal.transport, "_solve_lp",
                        lambda *args: highs.append(args) or solve(*args))
    cost, plan = wasserstein1(a, b, support_cap=10_000)
    assert shapes == [(min(a.size, b.size), max(a.size, b.size))]
    assert plan.shape == (a.size, b.size)
    assert np.abs(plan.sum(axis=1) - a.weights_array()).max() <= 1e-12
    assert np.abs(plan.sum(axis=0) - b.weights_array()).max() <= 1e-12
    assert abs(cost - plan_cost(a, b, plan)) <= 1e-15
    assert highs == []
    monkeypatch.setattr(hocal.transport, "_FEW_SOURCES", 0)
    dense, _ = wasserstein1(a, b, support_cap=10_000)
    assert abs(cost - dense) <= 1e-12
    assert len(shapes) == 1
    assert len(highs) == 1


@pytest.mark.parametrize("l,alpha,seed,kind,other,expected", SKEWED_LPS)
def test_few_source_route_matches_the_skewed_lp_costs(l, alpha, seed, kind, other, expected):
    spec = RandomMixtureSpec(num_labels=l, support_size=4, dirichlet_alpha=alpha)
    m = draw_mixture(spec, RngSeed(seed))
    target = project_k(m, other) if kind == "proj" else draw_mixture(spec, RngSeed(other))
    cost, plan = wasserstein1(m, target, support_cap=10_000)
    assert abs(cost - expected) <= 1e-12
    assert abs(cost - plan_cost(m, target, plan)) <= 1e-12


def test_few_source_raises_past_its_ascent_cap(monkeypatch):
    m, p = criterion_2_pair(4, 16, 0)
    wasserstein1(m, p, support_cap=10_000)
    solves = []
    monkeypatch.setattr(hocal.transport, "_solve_lp", lambda *args: solves.append(args))
    monkeypatch.setattr(hocal.transport, "_ASCENT_CAP", 1)
    with pytest.raises(SolverFailure, match="few-source dual ascent needs more than 1 steps"):
        wasserstein1(m, p, support_cap=10_000)
    assert solves == []


@pytest.mark.parametrize("perturb,message", SHARED_PERTURBATIONS)
def test_few_source_certificate_rejects_a_perturbed_plan_or_dual(monkeypatch, perturb, message):
    a, b = criterion_3_direct(3, 4, 0)
    shapes = spy_few_source(monkeypatch)
    wasserstein1(a, b)
    assert shapes == [(4, 4)]
    perturbed_certify(monkeypatch, perturb)
    with pytest.raises(SolverFailure, match=message):
        wasserstein1(a, b)


def test_few_source_splits_tied_sinks_whose_tight_arcs_form_cycles(monkeypatch):
    # costs on a 4-value grid tie many arcs: the tight arcs of the sinks
    # with two or more tight sources often form cycles, where the split is
    # not unique; each plan must still be optimal
    from scipy.optimize import linprog

    duals, certify = [], hocal.transport._certify
    monkeypatch.setattr(hocal.transport, "_certify",
                        lambda cost, heads, tails, supply, x, y: duals.append(y)
                        or certify(cost, heads, tails, supply, x, y))
    rng = np.random.default_rng(20)
    cycles = 0
    for _ in range(120):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m, 41))
        cost = rng.choice([0.0, 1.0, 2.0, 3.0], size=(m, n))
        a, b = rng.integers(1, 10, m) + 0.0, rng.integers(1, 10, n) + 0.0
        a, b = a / a.sum(), b / b.sum()
        plan = hocal.transport._few_source(cost, a, b)
        oracle = linprog(cost.ravel(), A_eq=_transport_constraints(m, n)[:-1],
                         b_eq=np.concatenate([a, b])[:-1], method="highs")
        assert oracle.status == 0
        assert np.abs(plan.sum(axis=1) - a).max() <= 1e-12
        assert np.abs(plan.sum(axis=0) - b).max() <= 1e-12
        assert abs((cost * plan).sum() - oracle.fun) <= 1e-12
        u, v = duals[-1][:m], -duals[-1][m:]
        tight = cost - u[:, None] - v <= hocal.transport._TIE_TOL
        tied = tight[:, tight.sum(axis=0) >= 2]
        # a graph with at least as many edges as nodes holds a cycle
        cycles += tied.sum() >= tied.shape[1] + tied.any(axis=1).sum() > 0
    assert len(duals) == 120
    assert cycles >= 1


def move_graph_lp(a, b, k):
    """W1 on the lattice by HiGHS IPM on the move-graph LP, supplies scaled
    by 1e8: the oracle for the primal-dual flow."""
    from scipy.optimize import linprog

    scale = 1e8
    heads, tails, *_, counts = hocal.transport._move_graph(a.space, k)
    # node-by-move incidence: +1 at the move's source point, -1 at its target
    moves = np.arange(len(heads))
    incidence = sparse.csc_matrix(
        (np.concatenate([np.ones(len(heads)), -np.ones(len(heads))]),
         (np.concatenate([heads, tails]), np.concatenate([moves, moves]))),
        shape=(len(counts), len(heads)),
    )
    supply = lattice_supply(a, b, k)
    res = linprog(np.full(len(heads), 2.0 / k), A_eq=incidence[:-1],
                  b_eq=supply[:-1] * scale, bounds=(0, None), method="highs-ipm")
    assert res.status == 0
    return res.fun / scale


def lattice_index(m, k):
    """Row of each support point of m in `enumerate_snapshot_space`, by lookup."""
    rows = {c: i for i, c in enumerate(map(tuple, enumerate_snapshot_space(m.space, k).tolist()))}
    return np.array([rows[c] for c in map(tuple, np.rint(m.points_array() * k).astype(int).tolist())])


def lattice_supply(a, b, k):
    supply = np.zeros(len(hocal.transport._move_graph(a.space, k)[4]))
    np.add.at(supply, lattice_index(a, k), a.weights_array())
    np.subtract.at(supply, lattice_index(b, k), b.weights_array())
    return supply


def projected_pair(l, k, trial, alpha=2.0):
    """Criterion 3's pair `trial` at (l, k), projected onto the size-k lattice."""
    spec = RandomMixtureSpec(num_labels=l, support_size=4, dirichlet_alpha=alpha)
    f = draw_mixture(spec, RngSeed(20_000 * l + 200 * k + trial))
    h = draw_mixture(spec, RngSeed(20_000 * l + 200 * k + trial + 100))
    return project_k(f, k), project_k(h, k)


def spy_rounds(monkeypatch, function="dijkstra"):
    """Count calls of csgraph's `function` per `_flow_phases` call: of
    Dijkstra, one per phase, and of the max flow. Returns the list of
    counts, which fills as flows run, and the counting `_flow_phases`, for
    rounds a test runs itself."""
    from scipy.sparse import csgraph

    calls, rounds = [0], []
    spied, phases = getattr(csgraph, function), hocal.transport._flow_phases

    def counted(*args, **kwargs):
        calls[0] += 1
        return spied(*args, **kwargs)

    def counted_phases(*args):
        before = calls[0]
        phases(*args)
        rounds.append(calls[0] - before)

    monkeypatch.setattr(csgraph, function, counted)
    monkeypatch.setattr(hocal.transport, "_flow_phases", counted_phases)
    return rounds, counted_phases


@pytest.mark.parametrize("l,k", [(3, 8), (3, 16), (4, 8), (4, 16)])
def test_lattice_flow_matches_highs_on_criterion_3_pairs(l, k, monkeypatch):
    # summed over the trials, round 1 from the coordinate-marginal dual
    # takes no more phases than from zero potentials; a single pair may
    # take one more
    rounds, counted_phases = spy_rounds(monkeypatch)
    warm = cold = 0
    for trial in range(3):
        a, b = projected_pair(l, k, trial)
        rounds.clear()
        assert abs(w1_lattice(a, b, k) - move_graph_lp(a, b, k)) <= 1e-12
        graph = hocal.transport._move_graph(a.space, k)
        z1, _ = hocal.transport._integer_supply(lattice_supply(a, b, k))
        counted_phases(graph, z1, np.zeros(len(graph[0]), dtype=np.int64),
                       np.zeros(len(z1), dtype=np.int64), k)
        warm += rounds[0]
        cold += rounds[-1]
    assert warm <= cold


def capped_flow_phases(graph, supply, flow, potential, k):
    """The number of phases _flow_phases takes when every phase, not only
    the first, raises the potentials by min(distance, D), D the distance to
    the nearest deficit. Runs in place, like _flow_phases."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra, maximum_flow

    heads, tails, reverse, indptr, _ = graph
    n = len(indptr) - 1
    excess = supply.copy()
    cap = hocal.transport._phase_cap(k)
    for phase in range(cap):
        sources, sinks = np.flatnonzero(excess > 0), np.flatnonzero(excess < 0)
        if not sources.size:
            return phase
        cancellable = flow[reverse] > 0
        weight = 1 + potential[heads] - potential[tails] - 2 * cancellable
        dist = dijkstra(csr_matrix((weight.astype(float), tails, indptr), shape=(n, n)),
                        indices=sources, min_only=True)
        potential += np.minimum(dist, dist[sinks].min()).astype(np.int64)
        reduced = 1 + potential[heads] - potential[tails]
        forward = reduced == 0
        arcs = np.flatnonzero(forward | ((reduced == 2) & cancellable))
        forward = forward[arcs]
        total = excess[sources].sum()
        rows = np.concatenate([heads[arcs], np.full(len(sources), n), sinks])
        cols = np.concatenate([tails[arcs], sources, np.full(len(sinks), n + 1)])
        caps = np.concatenate([
            np.where(forward, total, np.minimum(flow[reverse[arcs]], total)),
            excess[sources], -excess[sinks],
        ]).astype(np.int32)
        net = maximum_flow(csr_matrix((caps, (rows, cols)), shape=(n + 2, n + 2)),
                           n, n + 1, method="dinic").flow
        moved = np.maximum(np.asarray(net[rows, cols]).ravel(), 0)
        along, drained, filled = np.split(moved, [len(arcs), len(arcs) + len(sources)])
        flow[arcs[forward]] += along[forward]
        flow[reverse[arcs[~forward]]] -= along[~forward]
        excess[sources] -= drained
        excess[sinks] += filled
    assert not (excess > 0).any()
    return cap


@pytest.mark.parametrize("l,k", [(3, 8), (3, 16), (3, 32), (4, 8), (4, 16), (4, 24)])
def test_lattice_flow_rounds_keep_slackness_in_no_more_phases_than_capped_raises(
        l, k, monkeypatch):
    # raising the potentials by the full Dijkstra distance after the first
    # phase keeps every move's reduced cost >= 0 and every move with flow
    # tight, and round 1 takes no more phases than raising by at most the
    # distance to the nearest deficit in every phase
    rounds, counted_phases = spy_rounds(monkeypatch)

    def checked(graph, supply, flow, potential, k):
        counted_phases(graph, supply, flow, potential, k)
        heads, tails, *_ = graph
        reduced = 1 + potential[heads] - potential[tails]
        assert reduced.min() >= 0
        assert not reduced[flow > 0].any()

    monkeypatch.setattr(hocal.transport, "_flow_phases", checked)
    for trial in range(6):
        a, b = projected_pair(l, k, trial)
        rounds.clear()
        w1_lattice(a, b, k)
        graph = hocal.transport._move_graph(a.space, k)
        z1, _ = hocal.transport._integer_supply(lattice_supply(a, b, k))
        capped = capped_flow_phases(graph, z1, np.zeros(len(graph[0]), dtype=np.int64),
                                    hocal.transport._marginal_potential(graph[4], z1, k), k)
        assert rounds[0] <= capped


@pytest.mark.parametrize("l", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 16])
def test_marginal_potential_is_a_feasible_integer_lower_bound(l, k):
    space = LabelSpace(l)
    graph = hocal.transport._move_graph(space, k)
    heads, tails, _, _, counts = graph
    for seed in range(5):
        a, b = lattice_mixture(space, k, 1000 + seed), lattice_mixture(space, k, 2000 + seed)
        supply = lattice_supply(a, b, k)
        z1, _ = hocal.transport._integer_supply(supply)
        potential = hocal.transport._marginal_potential(counts, z1, k)
        assert potential.dtype == np.int64
        assert (1 + potential[heads] - potential[tails]).min() >= 0
        assert supply @ (potential * (-2.0 / k)) <= w1_lattice(a, b, k) + 1e-12
        # in units, twice the objective is the sum over labels of the
        # integer supplies' coordinate-marginal W1: the area between CDFs
        cdfs = [np.bincount(column, weights=z1, minlength=k + 1).cumsum() for column in counts.T]
        assert -2 * int(z1 @ potential) == sum(int(np.abs(cdf).sum()) for cdf in cdfs)


def round_2_on_the_whole_residual(a, b, k):
    """Round 1 of `_lattice_flow`, then round 2's `_flow_phases` on the whole
    rounding residual, from round 1's potentials and its flow in round-2
    units, capped at _FLOW_UNITS. Returns the flow's cost."""
    graph = hocal.transport._move_graph(a.space, k)
    supply = lattice_supply(a, b, k)
    z1, unit1 = hocal.transport._integer_supply(supply)
    flow = np.zeros(len(graph[0]), dtype=np.int64)
    potential = hocal.transport._marginal_potential(graph[4], z1, k)
    hocal.transport._flow_phases(graph, z1, flow, potential, k)
    z2, unit2 = hocal.transport._integer_supply(supply - z1 * unit1)
    assert unit2 > 0.0
    units = hocal.transport._FLOW_UNITS
    start = np.minimum(flow * min(unit1 / unit2, units), units).astype(np.int64)
    x = flow * unit1
    flow = start.copy()
    hocal.transport._flow_phases(graph, z2, flow, potential, k)
    return np.full(len(x), 2.0 / k) @ (x + (flow - start) * unit2)


def test_lattice_flow_cancels_round_1_flow_in_round_2(monkeypatch):
    # round 2 starts from round 1's flow and sends some of it back: Dijkstra
    # must price the cancellation of a move v -> u at 0, although the move
    # u -> v between the same two points costs 2 (a CSR graph holding both
    # would add them up)
    lowered = []
    phases = hocal.transport._flow_phases

    def spy(graph, supply, flow, potential, k):
        before = flow.copy()
        phases(graph, supply, flow, potential, k)
        lowered.append(bool((flow < before).any()))

    monkeypatch.setattr(hocal.transport, "_flow_phases", spy)
    a, b = projected_pair(3, 2, 6)
    cost = round_2_on_the_whole_residual(a, b, 2)
    assert lowered == [False, True]
    exact = move_graph_lp(a, b, 2)
    assert abs(cost - exact) <= 1e-12
    assert abs(w1_lattice(a, b, 2) - exact) <= 1e-12


def test_lattice_flow_reads_the_net_max_flow_of_a_node_pair_once(monkeypatch):
    # a move with flow and the cancellation of that flow are arcs in both
    # directions between the same two points; scipy's max flow reports one
    # net flow per pair, antisymmetric, so it moves along one direction only
    from scipy.sparse import csgraph

    max_flow = csgraph.maximum_flow
    two_way = []

    def spy(graph, source, sink, **kwargs):
        result = max_flow(graph, source, sink, **kwargs)
        arcs = graph.tocoo()
        net = np.asarray(result.flow[arcs.row, arcs.col]).ravel()
        pairs = set(zip(arcs.row.tolist(), arcs.col.tolist()))
        two_way.append(any(f > 0 and (j, i) in pairs
                           for i, j, f in zip(arcs.row.tolist(), arcs.col.tolist(), net)))
        return result

    monkeypatch.setattr(csgraph, "maximum_flow", spy)
    a, b = projected_pair(3, 3, 0)
    cost = round_2_on_the_whole_residual(a, b, 3)
    assert any(two_way)
    exact = move_graph_lp(a, b, 3)
    assert abs(cost - exact) <= 1e-12
    assert abs(w1_lattice(a, b, 3) - exact) <= 1e-12


def wide_components(graph, supply, flow, potential):
    """Strong components of the moves of reduced cost 0 and the
    cancellations of moves whose flow is at least twice the total excess."""
    from scipy.sparse.csgraph import connected_components

    heads, tails, reverse, _, counts = graph
    wide = (1 + potential[heads] - potential[tails] == 0) | (
        flow[reverse] >= 2 * supply[supply > 0].sum())
    arcs = sparse.csr_matrix((np.ones(wide.sum()), (heads[wide], tails[wide])),
                             shape=(len(counts), len(counts)))
    return connected_components(arcs, connection="strong")[1]


@pytest.mark.parametrize("l,k", [(3, 8), (3, 16), (4, 8), (4, 12)])
def test_expansion_moves_integers_on_tight_moves_only(l, k):
    # round 1 on a random lattice pair leaves a flow and potentials. Random
    # integer imbalances whose total excess is near the median flow are then
    # routed inside the strong components of the wide arcs, as at the end of
    # a round, so some moves with flow hold less than twice that total
    space = LabelSpace(l)
    graph = hocal.transport._move_graph(space, k)
    heads, tails, reverse, _, counts = graph
    n = len(counts)
    for trial in range(6):
        a = lattice_mixture(space, k, 100 * l + trial)
        z1, _ = hocal.transport._integer_supply(
            lattice_supply(a, lattice_mixture(space, k, 200 * l + trial), k))
        flow = np.zeros(len(heads), dtype=np.int64)
        potential = hocal.transport._marginal_potential(counts, z1, k)
        hocal.transport._flow_phases(graph, z1, flow, potential, k)
        rng = np.random.default_rng([l, k, trial])
        scale = int(np.median(flow[flow > 0])) // n
        supply = rng.integers(-scale, scale + 1, n)
        supply[rng.integers(n)] -= supply.sum()
        labels = wide_components(graph, supply, flow, potential)
        wide = (1 + potential[heads] - potential[tails] == 0) | (
            flow[reverse] >= 2 * supply[supply > 0].sum())
        before, left = flow.copy(), supply.copy()
        hocal.transport._expand(graph, left, flow, potential, labels,
                                np.argsort(labels, kind="stable"),
                                wide & (labels[heads] == labels[tails]))
        assert flow.min() >= 0
        # each node's balance changes by its imbalance less what is left
        change = flow - before
        balance = np.zeros(n, dtype=np.int64)
        np.add.at(balance, heads, change)
        np.subtract.at(balance, tails, change)
        assert left.dtype == np.int64
        assert (balance == supply - left).all()
        # only tight moves change: more flow, or the cancellation of some
        assert not (1 + potential[heads] - potential[tails])[change != 0].any()
        # what is left in a component is its net, on nodes of the net's
        # sign, none larger than it was
        net = np.bincount(labels, supply)
        assert (np.bincount(labels, left) == net).all()
        assert (left * np.sign(net)[labels] >= 0).all()
        assert (left * supply >= 0).all() and (np.abs(left) <= np.abs(supply)).all()
        assert np.count_nonzero(left) < np.count_nonzero(supply)


def sweep_pair(config, index, seed=1):
    """Pair `index` of config `config` of the benchmark's lattice sweep
    (bench/sweep.py) at `seed`, projected onto the config's lattice."""
    l, k = ((3, 8), (3, 16), (3, 32), (4, 8), (4, 16), (4, 24))[config]
    rng = np.random.default_rng([seed, config, index])
    space = LabelSpace(l)

    def draw():
        points = rng.dirichlet(np.full(l, 2.0), size=4)
        return project_k(mixture_from_arrays(points, rng.dirichlet(np.ones(4)), space), k)

    return draw(), draw(), k


@pytest.mark.parametrize("config", [0, 3])
def test_round_2_makes_no_max_flow_call_on_small_sweep_pairs(config, monkeypatch):
    # at (3, 8) and (4, 8) the routing leaves nothing for round 2's phases
    rounds, _ = spy_rounds(monkeypatch, "maximum_flow")
    for index in range(12):
        rounds.clear()
        w1_lattice(*sweep_pair(config, index))
        assert len(rounds) == 2
        assert rounds[0] >= 1
        assert rounds[1] == 0


def spy_csgraph(monkeypatch, names, record):
    """Call record(name) before each call of csgraph's functions `names`."""
    from scipy.sparse import csgraph

    for name in names:
        spied = getattr(csgraph, name)

        def logged(*args, spied=spied, name=name, **kwargs):
            record(name)
            return spied(*args, **kwargs)

        monkeypatch.setattr(csgraph, name, logged)


@pytest.mark.parametrize("l,k", [(3, 8), (4, 16)])
def test_a_round_with_no_excess_searches_nothing(l, k, monkeypatch):
    # a mixture against itself leaves no excess: no strong-component search
    # and no max flow runs
    calls = []
    spy_csgraph(monkeypatch, ("connected_components", "maximum_flow"), calls.append)
    a, _ = projected_pair(l, k, 0)
    assert w1_lattice(a, a, k) == 0.0
    assert calls == []


def contraction_pair(case):
    """Criterion-3 pairs at (3, 32) and (4, 16), and sweep pairs at (4, 16)
    and (4, 24): round 2 contracts components on each."""
    if case < 2:
        l, k = ((3, 32), (4, 16))[case]
        return (*projected_pair(l, k, case), k)
    return sweep_pair(case + 2, case - 2)


def watch_phases(monkeypatch):
    """Keep the arguments of the running `_flow_phases` and the labels of
    its latest contraction; `rounds` gets each round's labellings."""
    state = {"rounds": []}
    phases, between = hocal.transport._flow_phases, hocal.transport._between

    def watched_phases(graph, supply, flow, potential, k):
        label = np.arange(len(graph[4]))
        state.update(graph=graph, flow=flow, potential=potential, label=label)
        state["rounds"].append([label])
        phases(graph, supply, flow, potential, k)

    def watched_between(graph, label, size):
        state["label"] = label
        state["rounds"][-1].append(label)
        return between(graph, label, size)

    monkeypatch.setattr(hocal.transport, "_flow_phases", watched_phases)
    monkeypatch.setattr(hocal.transport, "_between", watched_between)
    return state


@pytest.mark.parametrize("case", range(4))
def test_contracted_dijkstra_gives_every_node_its_full_distance(case, monkeypatch):
    # Dijkstra on the full move graph, from every node of a component with
    # excess, reaches each node at its component's contracted distance
    from scipy.sparse import csgraph

    state, dijkstra, contracted = watch_phases(monkeypatch), csgraph.dijkstra, []

    def checked(graph, indices, min_only):
        dist = dijkstra(graph, indices=indices, min_only=min_only)
        heads, tails, reverse, indptr, counts = state["graph"]
        flow, potential, label = state["flow"], state["potential"], state["label"]
        n = len(counts)
        weight = 1 + potential[heads] - potential[tails] - 2 * (flow[reverse] > 0)
        full = dijkstra(sparse.csr_matrix((weight.astype(float), tails, indptr), shape=(n, n)),
                        indices=np.flatnonzero(np.isin(label, indices)), min_only=True)
        assert (full == dist[label]).all()
        contracted.append(graph.shape[0] < n)
        return dist

    monkeypatch.setattr(csgraph, "dijkstra", checked)
    w1_lattice(*contraction_pair(case))
    assert any(contracted)


@pytest.mark.parametrize("case", range(4))
def test_contracted_max_flow_reaches_the_full_max_flow(case, monkeypatch):
    # the max flow over every move of reduced cost 0, each with its own
    # capacity, from and to one node of each component with excess or
    # deficit, has the contracted max flow's value
    from scipy.sparse import csgraph

    state, max_flow, contracted = watch_phases(monkeypatch), csgraph.maximum_flow, []

    def checked(capacity, source, sink, method):
        result = max_flow(capacity, source, sink, method=method)
        heads, tails, reverse, _, counts = state["graph"]
        flow, potential, label = state["flow"], state["potential"], state["label"]
        n = len(counts)
        supplied, drained = capacity[source].tocoo(), capacity[:, sink].tocoo()
        total = supplied.data.sum()
        reduced = 1 + potential[heads] - potential[tails]
        arcs = np.flatnonzero((reduced == 0) | ((reduced == 2) & (flow[reverse] > 0)))
        caps = np.where(reduced[arcs] == 0, total, np.minimum(flow[reverse[arcs]], total))
        root = np.unique(label, return_index=True)[1]
        full = sparse.csr_matrix(
            (np.concatenate([caps, supplied.data, drained.data]),
             (np.concatenate([heads[arcs], np.full(supplied.nnz, n), root[drained.row]]),
              np.concatenate([tails[arcs], root[supplied.col], np.full(drained.nnz, n + 1)]))),
            shape=(n + 2, n + 2)).astype(np.int32)
        assert max_flow(full, n, n + 1, method="dinic").flow_value == result.flow_value
        contracted.append(source < n)
        return result

    monkeypatch.setattr(csgraph, "maximum_flow", checked)
    w1_lattice(*contraction_pair(case))
    assert any(contracted)


@pytest.mark.parametrize("case", range(4))
def test_each_round_labels_its_components_once_before_its_first_dijkstra(
        case, monkeypatch):
    # a round searches for strong components and contracts at most once,
    # and before its first phase; round 1 never contracts, round 2 does
    state, events = watch_phases(monkeypatch), []
    spy_csgraph(monkeypatch, ("connected_components", "dijkstra"),
                lambda name: events.append((len(state["rounds"]), name)))
    w1_lattice(*contraction_pair(case))
    assert len(state["rounds"]) == 2
    assert [len(labels) for labels in state["rounds"]] == [1, 2]
    searches = [event for event in events if event[1] == "connected_components"]
    assert searches == [(2, "connected_components")]
    # the search comes before round 2's first Dijkstra
    round_2 = [name for number, name in events if number == 2]
    assert round_2[0] == "connected_components" and "dijkstra" in round_2[1:]
    # each labelling coarsens the single nodes the round starts from
    for labels in state["rounds"]:
        for old, new in zip(labels, labels[1:]):
            pairs = np.unique(np.stack([old, new]), axis=1)
            assert pairs.shape[1] == len(np.unique(old))
            assert len(np.unique(new)) < len(np.unique(old))


@pytest.mark.parametrize("case", range(4))
def test_wide_cancellations_carry_every_expansion(case, monkeypatch):
    # when a component's imbalances are routed, each of its wide
    # cancellations still holds twice the excess left to route in it, and
    # no flow goes negative
    expand, calls = hocal.transport._expand, []

    def checked(graph, excess, flow, potential, label, order, inside):
        heads, tails, reverse, _, _ = graph
        unrouted = np.bincount(label, np.maximum(excess, 0)) - np.maximum(
            np.bincount(label, excess), 0)
        cancels = np.flatnonzero(inside & (potential[heads] == potential[tails] + 1))
        assert (flow[reverse[cancels]] >= 2 * unrouted[label[heads[cancels]]]).all()
        expand(graph, excess, flow, potential, label, order, inside)
        assert flow.min() >= 0
        calls.append(len(cancels))

    monkeypatch.setattr(hocal.transport, "_expand", checked)
    w1_lattice(*contraction_pair(case))
    assert calls and max(calls) > 0


def test_round_2_max_flows_run_on_a_tenth_of_the_lattice_at_4_24(monkeypatch):
    # round 2 starts from round 1's large flows: its first phase contracts
    # them, so round 2's max flows see under a tenth of the 2925 points on
    # average (the largest, 378 components, is 13%)
    from scipy.sparse import csgraph

    max_flow, phases, rounds = csgraph.maximum_flow, hocal.transport._flow_phases, []

    def counted_phases(*args):
        rounds.append([])
        phases(*args)

    def recorded(capacity, source, sink, **kwargs):
        rounds[-1].append(source)
        return max_flow(capacity, source, sink, **kwargs)

    monkeypatch.setattr(csgraph, "maximum_flow", recorded)
    monkeypatch.setattr(hocal.transport, "_flow_phases", counted_phases)
    nodes = len(hocal.transport._move_graph(LabelSpace(4), 24)[4])
    second = []
    for index in range(12):
        rounds.clear()
        w1_lattice(*sweep_pair(5, index))
        assert len(rounds) == 2
        second += rounds[1]
    assert second
    assert np.mean(second) < 0.1 * nodes


def test_lattice_flow_fits_int32_on_supplies_spanning_many_magnitudes():
    # Dirichlet alpha = 0.1 at (4, 32): masses from 1e-49 to 0.38, and a
    # rounding residual at nearly every one of 6545 points
    a, b = projected_pair(4, 32, 1, alpha=0.1)
    magnitudes = np.abs(lattice_supply(a, b, 32))
    assert magnitudes.max() / magnitudes[magnitudes > 0].min() > 1e40
    assert abs(w1_lattice(a, b, 32) - move_graph_lp(a, b, 32)) <= 1e-12


def test_lattice_flow_certifies_supplies_whose_float_sum_is_off():
    # four supplies summing to +1e-15: after round 1 the residual is about
    # 1e-9 in all, so the imbalance is hundreds of round-2 units against at
    # most four units of rounding to absorb it
    space, k = LabelSpace(3), 4
    graph = hocal.transport._move_graph(space, k)
    supply = np.zeros(len(graph[4]))
    supply[[0, 3, 7, 14]] = [0.3, 0.7, -0.6, -0.4 + 1e-15]
    assert supply.sum() > 9e-16
    flow, y = hocal.transport._lattice_flow(graph, supply, k)
    cost = np.full(len(flow), 2.0 / k)
    hocal.transport._certify(cost, graph[0], graph[1], supply, flow, y)


def test_lattice_flow_raises_past_its_phase_cap(monkeypatch):
    rounds, _ = spy_rounds(monkeypatch)
    a, b = projected_pair(3, 8, 1)
    w1_lattice(a, b, 8)
    assert max(rounds) >= 2
    monkeypatch.setattr(hocal.transport, "_phase_cap", lambda k: 1)
    with pytest.raises(SolverFailure, match="lattice flow needs more than 1 phases at k=8"):
        w1_lattice(a, b, 8)


def test_few_source_route_loads_no_scipy_optimize():
    # a 4 x 4 pair and 4 points against their projection, both solved by
    # `_few_source`, then a binary pair on the CDF route: none loads any scipy
    code = (
        "import sys\n"
        "from hocal import LabelSpace, mixture_from_arrays, project_k, wasserstein1\n"
        "space = LabelSpace(3)\n"
        "f = mixture_from_arrays([(0.1, 0.2, 0.7), (0.7, 0.2, 0.1), (0.3, 0.3, 0.4),"
        " (0.2, 0.6, 0.2)], [0.1, 0.2, 0.3, 0.4], space)\n"
        "h = mixture_from_arrays([(0.5, 0.25, 0.25), (0.2, 0.2, 0.6), (0.0, 0.5, 0.5),"
        " (0.8, 0.1, 0.1)], [0.25, 0.25, 0.25, 0.25], space)\n"
        "assert wasserstein1(f, h)[0] > 0.0\n"
        "assert wasserstein1(f, project_k(f, 16))[0] > 0.0\n"
        "two = LabelSpace(2)\n"
        "g = mixture_from_arrays([(0.9, 0.1), (0.4, 0.6)], [0.3, 0.7], two)\n"
        "assert wasserstein1(g, mixture_from_arrays([(0.5, 0.5)], [1.0], two))[0] > 0.0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_w1_lattice_loads_no_scipy_optimize():
    code = (
        "import sys\n"
        "from hocal import LabelSpace, mixture_from_arrays, project_k, w1_lattice\n"
        "space = LabelSpace(4)\n"
        "f = mixture_from_arrays([(0.1, 0.2, 0.3, 0.4), (0.7, 0.1, 0.1, 0.1)], [0.5, 0.5], space)\n"
        "h = mixture_from_arrays([(0.25, 0.25, 0.25, 0.25)], [1.0], space)\n"
        "assert w1_lattice(project_k(f, 8), project_k(h, 8), 8) > 0.0\n"
        "print('scipy.optimize' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
