"""Wasserstein-1 distance between mixtures under the l1 ground metric.

Three routes, never collapsed: binary mixtures use the exact 1-D quantile
formula (the monotone coupling is optimal on a line), checked against both
marginals and against 2 * integral |F_a - F_b| over the bias coordinate;
general supports solve the dense transportation LP with HiGHS; mixtures on
a common k-snapshot lattice can use `w1_lattice`, a min-cost flow over
single-label moves that scales far beyond the dense LP. Both LP routes pass
one certificate, `_certified_lp`: non-negativity, balance of the full
equality system, dual feasibility, complementary slackness and the
primal-dual gap, each to 1e-8. scipy is imported only when an LP is built
or solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, DimensionMismatch, DomainError, HocalError
from .mixture import Mixture, _lattice, _lattice_counts, _lattice_rank
from .simplex import _check_lattice_size

DEFAULT_SUPPORT_CAP = 2000
CHECK_TOL = 1e-8
# HiGHS feasibility tolerances are absolute; solving with supplies scaled up
# by this factor and dividing the flow back down leaves marginal residuals
# at the 1e-15 level instead of ~1e-6.
_SUPPLY_SCALE = 1e8
# The (supply scale, presolve) steps _solve_lp tries in order; each has been
# the first to succeed on some LP (README, "Distances").
_LADDER = ((_SUPPLY_SCALE, True), (_SUPPLY_SCALE, False), (1e6, True))
# HiGHS's default dual tolerance admits reduced costs down to -1e-7, looser than CHECK_TOL
_DUAL_RETRY_TOL = 1e-10


class SolverFailure(HocalError):
    """The LP solver returned something that fails its own certificate."""


def _solve_lp(cost, a_eq, b_eq, method, dual_tol=None):
    """linprog over the steps of _LADDER, at dual feasibility tolerance
    `dual_tol` (None: HiGHS's default); the first success and its scale.

    Presolve can misjudge a scaled system whose supplies span many orders of
    magnitude (multinomial tail masses) infeasible. The caller's certificate
    remains the correctness gate.
    """
    from scipy.optimize import linprog

    for scale, presolve in _LADDER:
        res = linprog(
            cost,
            A_eq=a_eq,
            b_eq=b_eq * scale,
            bounds=(0, None),
            method=method,
            options={"presolve": presolve, "dual_feasibility_tolerance": dual_tol},
        )
        if res.status == 0:
            break
    return res, scale


def _certified_lp(cost, a_full, b_full, method, dual_tol=None):
    """x >= 0 minimizing cost @ x subject to a_full @ x = b_full, certified.

    The last row of the rank-deficient flow system `a_full` is redundant:
    HiGHS gets the others and the dropped row's dual is fixed at 0. x must
    be non-negative and balance the full system, the dual y feasible
    (reduced costs cost - a_full.T @ y >= 0) and complementary to x where
    x > 1e-12, and the objectives equal, each to CHECK_TOL. Only a failed
    dual check is retried, once, at _DUAL_RETRY_TOL.
    """
    res, scale = _solve_lp(cost, a_full[:-1], b_full[:-1], method, dual_tol)
    if res.status != 0:
        raise SolverFailure(f"{method} LP failed: {res.message}")
    x = res.x / scale
    if x.min() < -CHECK_TOL:
        raise SolverFailure("negative mass or flow below -1e-8")
    if np.abs(a_full @ x - b_full).max() > CHECK_TOL:
        raise SolverFailure("marginal or balance residual above 1e-8")
    y = np.append(res.eqlin.marginals, 0.0)
    reduced = cost - a_full.T @ y
    if reduced.min() < -CHECK_TOL:
        if dual_tol is None:
            return _certified_lp(cost, a_full, b_full, method, _DUAL_RETRY_TOL)
        raise SolverFailure("dual infeasibility above 1e-8")
    if np.abs(reduced[x > 1e-12]).max(initial=0.0) > CHECK_TOL:
        raise SolverFailure("complementary slackness residual above 1e-8")
    if abs(b_full @ y - cost @ x) > CHECK_TOL:
        raise SolverFailure("primal and dual objectives disagree")
    return x


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


def _transport_constraints(m: int, n: int):
    """Row-sum and column-sum constraints of the m x n transport LP, as scipy CSC.

    Variable i*n + j is the mass moved from row i to column j; its column
    holds a 1 in row i (the row sums) and in row m + j (the column sums).
    Both blocks sum to the total mass, so the last row is redundant.
    """
    from scipy import sparse

    indices = np.empty((m * n, 2), dtype=np.int32)
    indices[:, 0] = np.repeat(np.arange(m), n)
    indices[:, 1] = m + np.tile(np.arange(n), m)
    indptr = np.arange(0, 2 * m * n + 1, 2, dtype=np.int32)
    return sparse.csc_matrix(
        (np.ones(2 * m * n), indices.ravel(), indptr), shape=(m + n, m * n)
    )


def _w1_binary(a: Mixture, b: Mixture):
    """Exact 1-D route: monotone coupling plus an independent CDF integral.

    On the bias line the optimal plan pairs quantiles in order. The plan
    must carry both marginals, and its cost must reproduce
    2 * integral |F_a - F_b| dt; both are computed and compared, so a bug in
    either route cannot go unnoticed.
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
    if max(np.abs(mass.sum(axis=1) - a_w).max(), np.abs(mass.sum(axis=0) - b_w).max()) > CHECK_TOL:
        raise SolverFailure("quantile coupling marginals drift above 1e-8")

    # independent check: 2 * integral of |F_a - F_b| over the bias axis
    grid = np.unique(np.concatenate([a_bias, b_bias]))
    fa = np.cumsum(np.bincount(np.searchsorted(grid, a_bias[ia]), weights=a_w[ia], minlength=len(grid)))
    fb = np.cumsum(np.bincount(np.searchsorted(grid, b_bias[ib]), weights=b_w[ib], minlength=len(grid)))
    integral = 2.0 * float(np.sum(np.abs(fa[:-1] - fb[:-1]) * np.diff(grid)))
    if abs(integral - cost) > CHECK_TOL:
        raise SolverFailure("quantile coupling and CDF integral disagree")

    return cost, Coupling(a.points_array(), b.points_array(), mass)


def _w1_lp(a: Mixture, b: Mixture):
    """Exact transportation LP (HiGHS dual simplex), certified by _certified_lp."""
    aw, bw = a.weights_array(), b.weights_array()
    m, n = len(aw), len(bw)
    cost_mat = _l1_cost(a.points_array(), b.points_array())

    if m == 1:
        mass = bw[None, :].copy()
    elif n == 1:
        mass = aw[:, None].copy()
    else:
        flat = _certified_lp(
            cost_mat.ravel(), _transport_constraints(m, n), np.concatenate([aw, bw]), "highs"
        )
        mass = flat.reshape(m, n)

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
    return _w1_binary(a, b) if method == "cdf" else _w1_lp(a, b)


DEFAULT_NODE_CAP = 100_000


@lru_cache(maxsize=32)
def _move_graph(space, k: int):
    """Single-label-move graph over the k-snapshot lattice, cached per (space, k).

    Nodes are the lattice points; each directed edge shifts one of the k
    labels from one class to another, which changes the normalized
    histogram by exactly 2/k in l1. Any two lattice points at l1 distance
    d are joined by d*k/2 such moves and no fewer, so the shortest-path
    metric of this graph with edge cost 2/k reproduces the l1 metric.
    Returns the node-by-edge incidence matrix: +1 at the edge's source
    point, -1 at its target.
    """
    from scipy import sparse

    counts = _lattice(space, k)[0].astype(np.int64)
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
    return sparse.csc_matrix(
        (np.concatenate([np.ones(num_edges), -np.ones(num_edges)]),
         (np.concatenate([heads, tails]), np.concatenate([edges, edges]))),
        shape=(len(counts), num_edges),
    )


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
    the result is certified in-function by _certified_lp. Raises
    DomainError for points off the lattice and CapExceeded when the
    lattice has more than `node_cap` points.
    """
    _check_same_space(a, b)
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"snapshot size must be a positive integer, got {k!r}")
    _check_lattice_size(a.space, k, node_cap)
    incidence = _move_graph(a.space, k)
    supply = np.zeros(incidence.shape[0])
    np.add.at(supply, _lattice_index(a, k), a.weights_array())
    np.subtract.at(supply, _lattice_index(b, k), b.weights_array())
    if np.abs(supply).max() == 0.0:
        return 0.0
    cost = np.full(incidence.shape[1], 2.0 / k)
    flow = _certified_lp(cost, incidence, supply, "highs-ipm")
    return float(cost @ flow)
