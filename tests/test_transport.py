from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.errors import CapExceeded, DimensionMismatch, DomainError
from hocal.mixture import RngSeed, mixture_from_arrays, project_k
from hocal.simplex import LabelSpace, enumerate_snapshot_space, snapshot_to_point
from hocal.synth import RandomMixtureSpec
from hocal.synth import random_mixture as draw_mixture
import hocal.transport
from hocal.transport import (
    SolverFailure,
    _certified_lp,
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


def binary(biases, weights):
    return mixture_from_arrays([(1.0 - b, b) for b in biases], weights, BINARY)


def test_w1_of_a_mixture_with_itself_is_zero():
    m = binary([0.1, 0.6], [0.5, 0.5])
    cost, coupling = wasserstein1(m, m)
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert coupling.cost() == pytest.approx(cost, abs=1e-12)


def test_w1_between_point_masses_is_l1():
    a = mixture_from_arrays([(1.0, 0.0, 0.0)], [1.0], LabelSpace(3))
    b = mixture_from_arrays([(0.0, 1.0, 0.0)], [1.0], LabelSpace(3))
    cost, _ = wasserstein1(a, b)
    assert cost == pytest.approx(2.0, abs=1e-12)


def test_w1_binary_hand_value():
    # CDF integral by hand: 2 * (0.25*0.1 + 0.35*0.2 + 0.1*0.3 + 0.5*0.2) = 0.45
    a = binary([0.1, 0.4, 0.9], [0.25, 0.25, 0.5])
    b = binary([0.2, 0.7], [0.6, 0.4])
    cost, coupling = wasserstein1(a, b)
    assert cost == pytest.approx(0.45, abs=1e-12)
    assert coupling.cost() == pytest.approx(0.45, abs=1e-12)


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
    cost, coupling = wasserstein1(a, b)
    assert cost == pytest.approx(0.69, abs=1e-6)
    assert np.allclose(coupling.row_marginals(), a.weights_array(), atol=1e-9)
    assert np.allclose(coupling.col_marginals(), b.weights_array(), atol=1e-9)


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
    a = binary(np.linspace(0.01, 0.99, 60), np.full(60, 1 / 60))
    b = binary([0.5], [1.0])
    with pytest.raises(CapExceeded):
        wasserstein1(a, b, support_cap=50, method="lp")
    cost, _ = wasserstein1(a, b, support_cap=50)  # cdf route ignores the cap
    assert cost >= 0.0


def test_w1_space_mismatch():
    a = binary([0.5], [1.0])
    b = mixture_from_arrays([(0.4, 0.3, 0.3)], [1.0], LabelSpace(3))
    with pytest.raises(DimensionMismatch):
        wasserstein1(a, b)


def test_coupling_marginals_match_inputs():
    a = binary([0.15, 0.45, 0.85], [0.3, 0.4, 0.3])
    b = binary([0.2, 0.6], [0.55, 0.45])
    _, coupling = wasserstein1(a, b)
    assert np.allclose(coupling.row_marginals(), a.weights_array(), atol=1e-9)
    assert np.allclose(coupling.col_marginals(), b.weights_array(), atol=1e-9)
    assert (coupling.mass >= -1e-12).all()


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
    snaps = enumerate_snapshot_space(space, k)
    points = [snapshot_to_point(s) for s in snaps]
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
    with pytest.raises(DomainError):
        w1_lattice(a, b, 2)
    with pytest.raises(DomainError):
        w1_lattice(b, b, 0)


def test_w1_lattice_node_cap_and_space_mismatch():
    space = LabelSpace(3)
    a = lattice_mixture(space, 32, 1)
    b = lattice_mixture(space, 32, 2)
    with pytest.raises(CapExceeded):
        w1_lattice(a, b, 32, node_cap=100)
    c = lattice_mixture(BINARY, 2, 3)
    with pytest.raises(DimensionMismatch):
        w1_lattice(a, c, 2)


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
    cost, coupling = wasserstein1(a, b, method=method)
    assert abs(cost - coupling.cost()) <= 1e-12
    assert np.abs(coupling.row_marginals() - a.weights_array()).max() <= 1e-9
    assert np.abs(coupling.col_marginals() - b.weights_array()).max() <= 1e-9
    assert coupling.mass.min() >= -1e-12


_SCALE = hocal.transport._SUPPLY_SCALE


def _nudge_plan(res, m, n):
    # a 2x2 cycle keeps the marginals but drives a zero entry negative
    x = res.x.reshape(m, n).copy()
    i, j = np.argwhere(x == 0.0)[0]
    i2, j2 = (i + 1) % m, (j + 1) % n
    eps = 1e-6 * _SCALE
    x[i, j] -= eps
    x[i2, j2] -= eps
    x[i, j2] += eps
    x[i2, j] += eps
    res.x = x.ravel()


def _scale_solution(res, *shape):
    res.x = res.x * (1.0 + 1e-6)


def _raise_duals(res, *shape):
    # reduced costs become (1 + e) r - e c: negative wherever the solution
    # is supported (r = 0) at a positive cost
    res.eqlin.marginals = np.asarray(res.eqlin.marginals) * (1.0 + 1e-4)


def _lower_duals(res, *shape):
    # reduced costs become (1 - e) r + e c >= 0: still feasible, but no
    # longer zero where the solution is supported at a positive cost
    res.eqlin.marginals = np.asarray(res.eqlin.marginals) * (1.0 - 1e-4)


SHARED_PERTURBATIONS = [
    (_scale_solution, "marginal or balance residual"),
    (_raise_duals, "dual infeasibility"),
    (_lower_duals, "complementary slackness"),
]


def _perturbed_solve(perturb, *shape):
    solve = hocal.transport._solve_lp

    def perturbed(*args):
        res, scale = solve(*args)
        assert scale == _SCALE
        perturb(res, *shape)
        return res, scale

    return perturbed


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


def _negative_cycle(res):
    # -eps on two opposite moves u -> v and v -> u keeps every node balanced
    # and drives a zero flow negative
    x = res.x.copy()
    incidence = hocal.transport._move_graph(LabelSpace(3), 2)
    heads, tails = incidence.toarray().argmax(axis=0), incidence.toarray().argmin(axis=0)
    back = {(h, t): e for e, (h, t) in enumerate(zip(heads.tolist(), tails.tolist()))}
    e = int(np.flatnonzero(x == x.min())[0])
    x[e] -= 1e-6 * _SCALE
    x[back[int(tails[e]), int(heads[e])]] -= 1e-6 * _SCALE
    res.x = x


LATTICE_A = ([(1.0, 0.0, 0.0), (0.5, 0.5, 0.0)], [0.7, 0.3])
LATTICE_B = ([(0.0, 0.5, 0.5), (0.0, 0.0, 1.0)], [0.4, 0.6])


def test_lattice_flow_certificate_rejects_negative_flow(monkeypatch):
    space = LabelSpace(3)
    a, b = mixture_from_arrays(*LATTICE_A, space), mixture_from_arrays(*LATTICE_B, space)
    w1_lattice(a, b, 2)
    monkeypatch.setattr(hocal.transport, "_solve_lp", _perturbed_solve(_negative_cycle))
    with pytest.raises(SolverFailure, match="negative mass or flow"):
        w1_lattice(a, b, 2)


@pytest.mark.parametrize("perturb,message", SHARED_PERTURBATIONS)
def test_lattice_flow_certificate_rejects_a_perturbed_flow_or_dual(monkeypatch, perturb, message):
    space = LabelSpace(3)
    a, b = mixture_from_arrays(*LATTICE_A, space), mixture_from_arrays(*LATTICE_B, space)
    w1_lattice(a, b, 2)
    monkeypatch.setattr(hocal.transport, "_solve_lp", _perturbed_solve(perturb))
    with pytest.raises(SolverFailure, match=message):
        w1_lattice(a, b, 2)


def _hand_solved(monkeypatch, x, y, status=0):
    res = SimpleNamespace(status=status, message="infeasible", x=np.array([x]),
                          eqlin=SimpleNamespace(marginals=np.array([y])))
    monkeypatch.setattr(hocal.transport, "_solve_lp", lambda *args: (res, 1.0))


# one edge carrying one unit from node 0 to node 1 at cost 100
EDGE = (np.array([100.0]), sparse.csc_matrix(np.array([[1.0], [-1.0]])), np.array([1.0, -1.0]))


def test_certified_lp_rejects_a_duality_gap(monkeypatch):
    # the plan overshoots the supply by 9e-9 (inside the balance gate) and
    # the dual is exactly feasible and complementary, but the large dual
    # turns the overshoot into a 9e-7 gap
    _hand_solved(monkeypatch, 1.0, 100.0)
    assert np.array_equal(_certified_lp(*EDGE, "highs"), [1.0])
    _hand_solved(monkeypatch, 1.0 + 9e-9, 100.0)
    with pytest.raises(SolverFailure, match="primal and dual objectives disagree"):
        _certified_lp(*EDGE, "highs")


def test_certified_lp_rejects_a_failed_solve(monkeypatch):
    _hand_solved(monkeypatch, 1.0, 100.0, status=2)
    with pytest.raises(SolverFailure, match="highs LP failed: infeasible"):
        _certified_lp(*EDGE, "highs")


@pytest.mark.parametrize("trial,failures", [(1, 1), (26, 2)])
def test_each_retry_step_is_the_first_to_solve_some_transport_lp(monkeypatch, trial, failures):
    # W1(m, proj_32 m) for two of criterion 2's 4-label mixtures: HiGHS
    # presolve judges the scaled system infeasible. Trial 1 solves with
    # presolve off, trial 26 only at supply scale 1e6 (HiGHS in scipy 1.17).
    import scipy.optimize

    assert hocal.transport._LADDER == ((_SCALE, True), (_SCALE, False), (1e6, True))
    spec = RandomMixtureSpec(num_labels=4, support_size=4, dirichlet_alpha=2.0)
    m = draw_mixture(spec, RngSeed(10_000 * 4 + 100 * 32 + trial))
    target = project_k(m, 32)
    linprog, statuses = scipy.optimize.linprog, []

    def recording(*args, **kwargs):
        res = linprog(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", recording)
    cost, coupling = wasserstein1(m, target, support_cap=10_000)
    assert statuses == [2] * failures + [0]
    assert cost <= 4 / (2 * np.sqrt(32))
    assert abs(cost - coupling.cost()) <= 1e-12


def test_skewed_dense_lp_certifies_on_the_one_dual_retry(monkeypatch):
    # Dirichlet alpha = 0.1: HiGHS stops with a reduced cost below -1e-8, so
    # the first solve fails the dual check; the retry at HiGHS dual
    # feasibility tolerance 1e-10 passes every unchanged 1e-8 gate
    import scipy.optimize

    spec = RandomMixtureSpec(num_labels=3, support_size=4, dirichlet_alpha=0.1)
    a, b = draw_mixture(spec, RngSeed(98_165)), draw_mixture(spec, RngSeed(100_165))
    linprog, tolerances = scipy.optimize.linprog, []

    def recording(*args, **kwargs):
        tolerances.append(kwargs["options"]["dual_feasibility_tolerance"])
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", recording)
    cost, coupling = wasserstein1(a, b)
    assert tolerances == [None, 1e-10]
    assert cost == pytest.approx(1.455507869306154, abs=1e-12)
    assert abs(cost - coupling.cost()) <= 1e-12
