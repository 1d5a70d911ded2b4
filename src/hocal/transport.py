"""Wasserstein-1 distance between mixtures under the l1 ground metric.

Three routes, never collapsed: binary mixtures use the exact 1-D quantile
formula W1 = 2 * integral |F_a - F_b| over the bias coordinate (the
monotone coupling is optimal on a line); general supports solve the
transportation LP exactly with HiGHS and certify the result with the
dual solution; mixtures supported on a common k-snapshot lattice can use
`w1_lattice`, a min-cost-flow formulation that scales to lattices far
beyond the dense LP. Every result is checked in-function: marginals or
node balance, dual feasibility, and agreement between the plan's cost and
the reported value; the LP routes also check the primal-dual objective gap
and the non-negativity of their plan or flow, each to 1e-8 or better.
scipy is imported only when an LP is built or solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, DimensionMismatch, DomainError, HocalError
from .mixture import Mixture, _lattice, _lattice_counts, _lattice_rank

DEFAULT_SUPPORT_CAP = 2000
CHECK_TOL = 1e-8
# HiGHS feasibility tolerances are absolute; solving with supplies scaled up
# by this factor and dividing the flow back down leaves marginal residuals
# at the 1e-15 level instead of ~1e-6.
_SUPPLY_SCALE = 1e8


class SolverFailure(HocalError):
    """The LP solver returned something that fails its own certificate."""


def _solve_lp(cost, a_eq, b_eq, method="highs"):
    """linprog over a ladder of supply scales; returns (result, scale used).

    Scaling the right-hand side up makes HiGHS's absolute feasibility
    tolerance sharper in relative terms, but a system whose supplies span
    many orders of magnitude (projection weights go down to multinomial
    tail masses) can be misjudged infeasible at the largest scale. Walk
    down the ladder, also retrying without presolve, until a solve
    succeeds; the caller's certificate checks remain the correctness gate.
    """
    from scipy.optimize import linprog

    res = None
    for scale in (_SUPPLY_SCALE, 1e6, 1.0):
        for presolve in (True, False):
            res = linprog(
                cost,
                A_eq=a_eq,
                b_eq=b_eq * scale,
                bounds=(0, None),
                method=method,
                options=None if presolve else {"presolve": False},
            )
            if res.status == 0:
                return res, scale
    return res, 1.0


@dataclass(frozen=True, eq=False)
class Coupling:
    """A transport plan: mass[i, j] moves rows[i] onto cols[j], two
    support coordinate arrays."""

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray

    def row_marginals(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def col_marginals(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    def cost(self) -> float:
        return float((_l1_cost(self.rows, self.cols) * self.mass).sum())


def _check_same_space(a: Mixture, b: Mixture):
    if a.space != b.space:
        raise DimensionMismatch(
            f"{a.space.num_labels}-label mixture vs {b.space.num_labels}-label mixture"
        )


def _l1_cost(apts: np.ndarray, bpts: np.ndarray) -> np.ndarray:
    """l1 distance between every row of apts and every row of bpts."""
    return np.abs(apts[:, None, :] - bpts[None, :, :]).sum(axis=2)


def _verify(cost, coupling, aw, bw, ground):
    """Certify marginals and that the plan, priced at `ground`, costs `cost`."""
    if np.abs(coupling.row_marginals() - aw).max() > CHECK_TOL:
        raise SolverFailure("coupling row marginals drift above 1e-8")
    if np.abs(coupling.col_marginals() - bw).max() > CHECK_TOL:
        raise SolverFailure("coupling column marginals drift above 1e-8")
    if abs(float((ground * coupling.mass).sum()) - cost) > CHECK_TOL:
        raise SolverFailure("coupling cost disagrees with reported distance")


def _transport_constraints(m: int, n: int):
    """Row-sum and column-sum constraints of the m x n transport LP, as scipy CSC.

    Variable i*n + j is the mass moved from row i to column j. Row-sum and
    column-sum constraints are rank deficient together, so the last
    column-sum constraint is dropped: rows 0..m-1 are the row sums, rows
    m..m+n-2 the first n-1 column sums. Each variable's column holds its
    row-sum entry, then its column-sum entry unless j is the last column.
    """
    from scipy import sparse

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


def _w1_binary(a: Mixture, b: Mixture):
    """Exact 1-D route: monotone coupling plus an independent CDF integral.

    On the bias line the optimal plan pairs quantiles in order. The cost of
    that plan must reproduce 2 * integral |F_a - F_b| dt; both are computed
    and compared, so a bug in either route cannot go unnoticed.
    """
    a_bias, b_bias = a.points_array()[:, 1], b.points_array()[:, 1]
    a_w, b_w = a.weights_array(), b.weights_array()
    ia, ib = np.argsort(a_bias, kind="stable"), np.argsort(b_bias, kind="stable")

    mass = np.zeros((a.size, b.size))
    cost = 0.0
    i = j = 0
    left_a, left_b = a_w[ia[0]], b_w[ib[0]]
    while True:
        move = min(left_a, left_b)
        mass[ia[i], ib[j]] += move
        cost += move * 2.0 * abs(a_bias[ia[i]] - b_bias[ib[j]])
        left_a -= move
        left_b -= move
        if left_a <= 1e-15:
            i += 1
            if i == a.size:
                break
            left_a = a_w[ia[i]]
        if left_b <= 1e-15:
            j += 1
            if j == b.size:
                break
            left_b = b_w[ib[j]]

    # independent check: 2 * integral of |F_a - F_b| over the bias axis
    grid = np.unique(np.concatenate([a_bias, b_bias]))
    fa = np.cumsum(np.bincount(np.searchsorted(grid, a_bias[ia]), weights=a_w[ia], minlength=len(grid)))
    fb = np.cumsum(np.bincount(np.searchsorted(grid, b_bias[ib]), weights=b_w[ib], minlength=len(grid)))
    integral = 2.0 * float(np.sum(np.abs(fa[:-1] - fb[:-1]) * np.diff(grid)))
    if abs(integral - cost) > CHECK_TOL:
        raise SolverFailure("quantile coupling and CDF integral disagree")

    return cost, Coupling(a.points_array(), b.points_array(), mass)


def _w1_lp(a: Mixture, b: Mixture, cost_mat: np.ndarray):
    """Exact transportation LP (HiGHS dual simplex) with dual certification.

    `cost_mat` is the ground cost between the two supports. The solved plan
    must be non-negative, the duals feasible and complementary to it, and
    the dual objective equal to the plan's cost, each to 1e-8.
    """
    aw, bw = a.weights_array(), b.weights_array()
    m, n = len(aw), len(bw)

    if m == 1:
        mass = bw[None, :].copy()
    elif n == 1:
        mass = aw[:, None].copy()
    else:
        a_eq = _transport_constraints(m, n)
        b_eq = np.concatenate([aw, bw[:-1]])
        res, scale = _solve_lp(cost_mat.ravel(), a_eq, b_eq)
        if res.status != 0:
            raise SolverFailure(f"transport LP failed: {res.message}")
        mass = res.x.reshape(m, n) / scale
        if mass.min() < -CHECK_TOL:
            raise SolverFailure("negative transport mass below -1e-8")
        duals = np.asarray(res.eqlin.marginals)
        u = duals[:m]
        v = np.concatenate([duals[m:], [0.0]])
        slack = cost_mat - u[:, None] - v[None, :]
        if slack.min() < -CHECK_TOL:
            raise SolverFailure("dual infeasibility above 1e-8")
        if np.abs(slack[mass > 1e-12]).max(initial=0.0) > CHECK_TOL:
            raise SolverFailure("complementary slackness residual above 1e-8")
        if abs(u @ aw + v @ bw - float((cost_mat * mass).sum())) > CHECK_TOL:
            raise SolverFailure("primal and dual objectives disagree")

    total = float((cost_mat * mass).sum())
    return total, Coupling(a.points_array(), b.points_array(), mass)


def wasserstein1(
    a: Mixture,
    b: Mixture,
    support_cap: int = DEFAULT_SUPPORT_CAP,
    method: str = "auto",
):
    """Optimal transport cost between two mixtures and an optimal coupling.

    Ground cost is the l1 distance between simplex points. `method` picks
    the route: "cdf" (binary only), "lp", or "auto" (cdf when the label
    space is binary). The LP route refuses combined supports above
    `support_cap`.
    """
    _check_same_space(a, b)
    if method == "auto":
        method = "cdf" if a.space.num_labels == 2 else "lp"
    if method not in ("cdf", "lp"):
        raise ValueError(f"unknown method {method!r}")
    if method == "cdf" and a.space.num_labels != 2:
        raise DimensionMismatch("the CDF route only applies to binary spaces")
    if method == "lp" and a.size + b.size > support_cap:
        raise CapExceeded(f"combined support {a.size + b.size} exceeds support_cap={support_cap}")
    ground = _l1_cost(a.points_array(), b.points_array())
    cost, coupling = _w1_binary(a, b) if method == "cdf" else _w1_lp(a, b, ground)
    _verify(cost, coupling, a.weights_array(), b.weights_array(), ground)
    return cost, coupling


DEFAULT_NODE_CAP = 100_000


@lru_cache(maxsize=32)
def _move_graph(space, k: int, cap: int):
    """Single-label-move graph over the k-snapshot lattice, cached per (space, k).

    Nodes are the lattice points; each directed edge shifts one of the k
    labels from one class to another, which changes the normalized
    histogram by exactly 2/k in l1. Any two lattice points at l1 distance
    d are joined by d*k/2 such moves and no fewer, so the shortest-path
    metric of this graph with edge cost 2/k reproduces the l1 metric.
    """
    from scipy import sparse

    counts = _lattice(space, k, cap)[0].astype(np.int64)
    l = space.num_labels
    moves = np.array([(i, j) for i in range(l) for j in range(l) if i != j])
    # edges ordered by node, then source label, then target label
    heads, move = np.nonzero(counts[:, moves[:, 0]] >= 1)
    moved = counts[heads]
    moved[np.arange(len(heads)), moves[move, 0]] -= 1
    moved[np.arange(len(heads)), moves[move, 1]] += 1
    tails = _lattice_rank(moved, k)
    num_edges = len(heads)
    edges = np.arange(num_edges)
    incidence = sparse.csc_matrix(
        (np.concatenate([np.ones(num_edges), -np.ones(num_edges)]),
         (np.concatenate([heads, tails]), np.concatenate([edges, edges]))),
        shape=(len(counts), num_edges),
    )
    return heads, tails, incidence


def _lattice_index(m: Mixture, k: int) -> np.ndarray:
    """The lattice index of every support point of m."""
    counts, off = _lattice_counts(m.points_array(), k)
    if off.size:
        point = tuple(m.points_array()[off[0]].tolist())
        raise DomainError(f"support point {point} is not on the k={k} snapshot lattice")
    return _lattice_rank(counts, k)


def w1_lattice(
    a: Mixture, b: Mixture, k: int, node_cap: int = DEFAULT_NODE_CAP
) -> float:
    """W1 between mixtures supported on the same k-snapshot lattice.

    Because l1 distance on the lattice equals the shortest-path metric of
    the single-label-move graph, optimal transport reduces to a min-cost
    flow with one node per lattice point and one variable per move, far
    smaller than the dense LP's one variable per support pair. The flow
    lives on edges rather than point pairs, so only the cost is returned;
    the result is certified in-function against the dual solution. Raises
    DomainError for points off the lattice and CapExceeded when the
    lattice has more than `node_cap` points.
    """
    _check_same_space(a, b)
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"snapshot size must be a positive integer, got {k!r}")
    heads, tails, incidence = _move_graph(a.space, k, node_cap)
    supply = np.zeros(incidence.shape[0])
    np.add.at(supply, _lattice_index(a, k), a.weights_array())
    np.subtract.at(supply, _lattice_index(b, k), b.weights_array())
    if np.abs(supply).max() == 0.0:
        return 0.0
    cost = np.full(incidence.shape[1], 2.0 / k)
    res, scale = _solve_lp(cost, incidence[:-1], supply[:-1], method="highs-ipm")
    if res.status != 0:
        raise SolverFailure(f"lattice flow LP failed: {res.message}")
    flow = res.x / scale
    if flow.min() < -CHECK_TOL:
        raise SolverFailure("negative flow below -1e-8")
    total = float(cost @ flow)
    if np.abs(incidence @ flow - supply).max() > CHECK_TOL:
        raise SolverFailure("flow balance residual above 1e-8")
    duals = np.concatenate([np.asarray(res.eqlin.marginals), [0.0]])
    if (cost - (duals[heads] - duals[tails])).min() < -CHECK_TOL:
        raise SolverFailure("dual infeasibility above 1e-8")
    if abs(total - float(supply[:-1] @ duals[:-1])) > CHECK_TOL:
        raise SolverFailure("primal and dual objectives disagree")
    return total

