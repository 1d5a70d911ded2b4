"""Wasserstein-1 distance between mixtures under the l1 ground metric.

Three routes, never collapsed: binary mixtures use the exact 1-D quantile
formula (the monotone coupling is optimal on a line); general supports
solve the dense transportation LP; mixtures on a common k-snapshot lattice
use `w1_lattice`, a min-cost flow over single-label moves that scales far
beyond the dense LP, solved by two rounds of the primal-dual method on
scipy.sparse.csgraph. The LP route has two sub-routes, picked by one rule:
when a side has at most _FEW_SOURCES (8) points, `_few_source` takes it as
the sources, runs dual ascent on their prices and splits the sinks tied
between sources by its own Hall slacks; otherwise HiGHS solves the whole
LP. `wasserstein1` picks the route by input: cdf for binary spaces, the
lattice flow when the caller names the lattice `k`, it has at most
DEFAULT_NODE_CAP points and the LP's support pairs outnumber twice the
lattice's single-label moves, the LP otherwise; no route stands in for
another. Every route passes one certificate, `_certify`, of a flow on a
graph (support pairs or lattice moves): non-negativity, node balance, dual
feasibility, complementary slackness and the primal-dual gap, each to
1e-8. HiGHS runs only on a whole LP, in one call and one configuration.
scipy is imported only by HiGHS and the lattice flow, and scipy.optimize
only by that HiGHS solve.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, DimensionMismatch, HocalError
from .mixture import Mixture, _check_same_space, _lattice, _lattice_counts, _lattice_rank
from .simplex import _check_lattice_size, _snapshot_size, snapshot_space_size

DEFAULT_SUPPORT_CAP = 2000
CHECK_TOL = 1e-8
# HiGHS feasibility tolerances are absolute; solving with supplies scaled up
# by this factor and dividing the flow back down leaves marginal residuals
# near 1e-11, far inside CHECK_TOL. At 1e8, presolve judged some systems with
# supplies spanning many orders of magnitude infeasible (README, "Distances").
_SUPPLY_SCALE = 1e6
# HiGHS's default dual tolerance admits reduced costs down to -1e-7, looser than CHECK_TOL
_DUAL_TOL = 1e-10


class SolverFailure(HocalError):
    """A solver returned something that fails its certificate, or stopped
    short of a solution."""


def _certify(cost, heads, tails, supply, x, y):
    """Raise SolverFailure unless the edge flows x and node potentials y are
    optimal for min cost @ x over flows x >= 0 on the graph with edges
    heads[e] -> tails[e] whose nodes send out `supply`.

    x must be non-negative and balance every node (outflow less inflow equal
    to its supply), y feasible (reduced costs cost - y[heads] + y[tails] >=
    0) and complementary to x where x > 1e-12, and the objectives
    supply @ y and cost @ x equal, each to CHECK_TOL. Each gate is written
    so that a NaN residual fails it.
    """
    if not x.min() >= -CHECK_TOL:
        raise SolverFailure("negative mass or flow below -1e-8")
    n = len(supply)
    balance = np.bincount(heads, x, n) - np.bincount(tails, x, n)
    if not np.abs(balance - supply).max() <= CHECK_TOL:
        raise SolverFailure("marginal or balance residual above 1e-8")
    reduced = cost - y[heads] + y[tails]
    if not reduced.min() >= -CHECK_TOL:
        raise SolverFailure("dual infeasibility above 1e-8")
    if not np.abs(reduced[x > 1e-12]).max(initial=0.0) <= CHECK_TOL:
        raise SolverFailure("complementary slackness residual above 1e-8")
    if not abs(supply @ y - cost @ x) <= CHECK_TOL:
        raise SolverFailure("primal and dual objectives disagree")


def _solve_lp(cost, a_eq, b_eq):
    """HiGHS on the system with supplies scaled by _SUPPLY_SCALE, at dual
    feasibility tolerance _DUAL_TOL and default presolve. The caller
    unscales the plan; its certificate remains the correctness gate."""
    from scipy.optimize import linprog

    return linprog(
        cost,
        A_eq=a_eq,
        b_eq=b_eq * _SUPPLY_SCALE,
        bounds=(0, None),
        method="highs",
        options={"dual_feasibility_tolerance": _DUAL_TOL},
    )


def _l1_cost(apts: np.ndarray, bpts: np.ndarray) -> np.ndarray:
    """l1 distance between every row of apts and every row of bpts."""
    return np.abs(apts[:, None, :] - bpts[None, :, :]).sum(axis=2)


def _pairs(m: int, n: int):
    """Source i and sink node m + j of variable i*n + j of the m x n transport LP."""
    return np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)


def _transport_constraints(m: int, n: int):
    """Row-sum and column-sum constraints of the m x n transport LP, as scipy CSC.

    Variable i*n + j is the mass moved from row i to column j; its column
    holds a 1 in row i (the row sums) and in row m + j (the column sums).
    Both blocks sum to the total mass, so the last row is redundant.
    """
    from scipy import sparse

    indices = np.column_stack(_pairs(m, n)).astype(np.int32)
    indptr = np.arange(0, 2 * m * n + 1, 2, dtype=np.int32)
    return sparse.csc_matrix(
        (np.ones(2 * m * n), indices.ravel(), indptr), shape=(m + n, m * n)
    )


def _w1_binary(a: Mixture, b: Mixture):
    """Exact 1-D route: the monotone coupling, which pairs quantiles in order.

    _certify checks it with the dual of Vallender (1973): phi = 0 at the
    least bias of either side, then a step of -2 sign(F_a - F_b) dt to each
    next. phi is 2-Lipschitz, so feasible, tight on every coupled pair, and
    its objective is 2 * integral |F_a - F_b| dt.
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

    grid = np.unique(np.concatenate([a_bias, b_bias]))
    at_a, at_b = np.searchsorted(grid, a_bias), np.searchsorted(grid, b_bias)
    # F_a - F_b at each grid point
    excess = np.cumsum(np.bincount(at_a, a_w, len(grid)) - np.bincount(at_b, b_w, len(grid)))
    phi = np.concatenate([[0.0], np.cumsum(-2.0 * np.sign(excess[:-1]) * np.diff(grid))])
    _certify(2.0 * np.abs(a_bias[:, None] - b_bias).ravel(), *_pairs(a.size, b.size),
             np.concatenate([a_w, -b_w]), mass.ravel(), phi[np.concatenate([at_a, at_b])])
    return float(cost), mass


def _w1_lp(a: Mixture, b: Mixture, support_cap: int):
    """Exact transportation LP, certified by _certify.

    When one side has at most _FEW_SOURCES points, `_few_source` solves it
    with that side as the sources. Otherwise HiGHS gets every row of the
    row/column-sum system but the redundant last one, whose dual is fixed
    at 0; only this sub-route refuses combined supports above `support_cap`.
    """
    aw, bw = a.weights_array(), b.weights_array()
    m, n = len(aw), len(bw)
    if min(m, n) > _FEW_SOURCES and m + n > support_cap:
        raise CapExceeded(f"combined support {m + n} exceeds support_cap={support_cap}")
    cost_mat = _l1_cost(a.points_array(), b.points_array())
    if m <= _FEW_SOURCES and m <= n:
        mass = _few_source(cost_mat, aw, bw)
    elif n <= _FEW_SOURCES:
        mass = _few_source(cost_mat.T, bw, aw).T
    else:
        cost = cost_mat.ravel()
        res = _solve_lp(cost, _transport_constraints(m, n)[:-1], np.concatenate([aw, bw[:-1]]))
        if res.status != 0:
            raise SolverFailure(f"highs LP failed: {res.message}")
        x = res.x / _SUPPLY_SCALE
        # row duals u and column duals v (the last fixed at 0) as potentials (u, -v)
        y = np.concatenate([res.eqlin.marginals[:m], -res.eqlin.marginals[m:], [0.0]])
        _certify(cost, *_pairs(m, n), np.concatenate([aw, -bw]), x, y)
        mass = x.reshape(m, n)
    return float((cost_mat * mass).sum()), mass


# Sides of at most this many points are the sources of `_few_source`, whose
# Hall check walks all 2^m - 2 source subsets. Measured against HiGHS
# (README "Distances"): 8 sources win at every size measured; 10 sources
# already lose at 16 sinks
_FEW_SOURCES = 8
# Dual ascent steps `_few_source` may take before it raises SolverFailure;
# the most measured was 34, at 7 sources
_ASCENT_CAP = 100
# An arc whose reduced cost is at most _TIE_TOL is tight and may carry
# mass: far inside the 1e-8 complementary-slackness gate, far above the
# rounding of c_ij - u_i - v_j
_TIE_TOL = 1e-12
# A source subset whose sinks need at most _HALL_TOL more than its supply
# passes Hall's condition. `_few_source`'s split never gives a sink more
# than it needs, so a slack down to -_HALL_TOL only overdraws a source by
# about as much: balance residuals near 1e-14, far inside the 1e-8 gate
_HALL_TOL = 1e-14


def _few_source(cost, a, b):
    """Optimal plan of the m x n transport problem with m the few sources.

    Dual ascent on the source prices u, with sink prices v_j = min_i (c_ij -
    u_i) (Tokuyama & Nakano 1995). u is optimal when the tight arcs
    (reduced cost <= _TIE_TOL) can carry a to b, Hall's condition: no
    source subset R owns (holds every tight arc of) sinks that need more
    than a(R). One subset-sum pass over the sinks' tight-set bitmasks
    gives each R's demand. A violating R has its prices lowered by the
    exact line search of the concave dual, a weighted quantile of the
    owned sinks' breakpoints. The last pass's Hall slacks then split the
    sinks over their tight arcs, each arc in turn taking the most that any
    feasible completion allows. _certify checks the plan with y = (u, -v).
    Raises SolverFailure past _ASCENT_CAP steps; nothing falls back to the
    dense LP.
    """
    m, n = cost.shape
    bits = 1 << np.arange(m)
    full = (1 << m) - 1
    subsets = np.arange(1, full)
    members = (subsets[:, None] & bits) > 0
    supply = members @ a
    u = np.zeros(m)
    for _ in range(_ASCENT_CAP):
        shifted = cost - u[:, None]
        v = shifted.min(axis=0)
        tight = shifted - v <= _TIE_TOL
        owner = bits @ tight
        # demand[R]: mass of the sinks whose tight sources all lie in R
        demand = np.bincount(owner, weights=b, minlength=full + 1).reshape((2,) * m)
        for axis in range(m):
            demand = demand.cumsum(axis)
        excess = demand.ravel()[1:full] - supply
        if not excess.max(initial=0.0) > _HALL_TOL:
            break
        worst = int(excess.argmax())  # R, the subset with bitmask worst + 1
        inside = members[worst]
        owned = (owner & ~(worst + 1)) == 0
        # lowering u on R by t raises v_j by t on each sink R owns, until an
        # outside source ties at t = gap[j]. The dual's slope is the mass of
        # the owned sinks not yet tied less a(R): the exact step is the
        # first gap past which that mass is at most a(R)
        gap = shifted[~inside][:, owned].min(axis=0) - v[owned]
        order = np.argsort(gap, kind="stable")
        need = b[owned][order]
        beyond = need.sum() - need.cumsum()
        u[inside] -= gap[order][np.argmax(beyond <= supply[worst])]
    else:
        raise SolverFailure(f"few-source dual ascent needs more than {_ASCENT_CAP} steps")
    # -excess[R] is R's Hall slack. Giving t of sink j to source i spends t
    # of the slack of every R holding i but not all of j's tight sources, so
    # arc (i, j) can carry at most the least of those slacks; once it has
    # that, no feasible completion adds to it. Sinks with one tight set share
    # these cuts, so each of its sources fills them in turn, and the last
    # takes what is left (all of it, on a sink with one tight source)
    mass = np.zeros((m, n))
    slack = -excess
    for tie in np.unique(owner):
        sinks = np.flatnonzero(owner == tie)
        left = b[sinks]
        spare = (subsets & tie) != tie
        sources = np.flatnonzero(bits & tie)
        for i in sources:
            cut = members[:, i] & spare
            cap = np.inf if i == sources[-1] else max(slack[cut].min(), 0.0)
            take = np.minimum(left, np.maximum(cap - (left.cumsum() - left), 0.0))
            mass[i, sinks] = take
            slack[cut] -= take.sum()
            left -= take
    _certify(cost.ravel(), *_pairs(m, n), np.concatenate([a, -b]), mass.ravel(),
             np.concatenate([u, -v]))
    return mass


def wasserstein1(
    a: Mixture,
    b: Mixture,
    support_cap: int = DEFAULT_SUPPORT_CAP,
    method: str = "auto",
    *,
    k: int | None = None,
):
    """Optimal transport cost between two mixtures and an optimal plan.

    The plan is an (a.size, b.size) array: mass[i, j] moves row i of
    `a.points_array()` onto row j of `b.points_array()`. Ground cost is
    the l1 distance between simplex points. `k`, when given, is the
    snapshot lattice both mixtures live on. `method` picks the route:
    "cdf" (binary only), "lp", or "auto", which takes cdf when the label
    space is binary; else the flow of `w1_lattice` when `k` is given and
    `_flow_route` holds, returning plan None since that flow lives on
    moves, not point pairs; else lp. "cdf" and "lp" ignore `k`. The LP
    route refuses combined supports above `support_cap` when both sides
    have more than _FEW_SOURCES (8) points, the pairs HiGHS solves whole;
    the few-source sub-route has no cap.
    """
    _check_same_space(a, b)
    if method == "auto" and a.space.num_labels > 2 and k is not None:
        k = _snapshot_size(k)
        if _flow_route(a.space, k, a.size * b.size):
            return _w1_flow(a, b, k), None
    if method == "auto":
        method = "cdf" if a.space.num_labels == 2 else "lp"
    if method not in ("cdf", "lp"):
        raise ValueError(f"unknown method {method!r}")
    if method == "cdf" and a.space.num_labels != 2:
        raise DimensionMismatch("the CDF route only applies to binary spaces")
    return _w1_binary(a, b) if method == "cdf" else _w1_lp(a, b, support_cap)


DEFAULT_NODE_CAP = 100_000
# The dense LP has a.size * b.size pair variables, the lattice flow one per
# single-label move, times a number of phases that grows with k. On spread
# supports from (l, k) = (3, 16) to (3, 200) and (4, 32) (README
# "Distances"), the flow took 0.27 to 0.90 of the LP's time at twice as many
# pairs as moves, and up to 2.3 times it at as many.
_PAIRS_PER_MOVE = 2


def _flow_route(space, k: int, pairs: int) -> bool:
    """Whether `wasserstein1` scores `pairs` support pairs on the size-k
    lattice by the flow: the lattice has at most DEFAULT_NODE_CAP points and
    more than _PAIRS_PER_MOVE pairs per single-label move."""
    l = space.num_labels
    # a move from label i to label j starts at every point with c_i >= 1
    moves = l * (l - 1) * math.comb(k + l - 2, l - 1)
    return snapshot_space_size(space, k) <= DEFAULT_NODE_CAP and pairs > _PAIRS_PER_MOVE * moves


# Each round of the lattice flow rounds its supplies to integers whose
# absolute values sum to _FLOW_UNITS (up to one unit per node). The round's
# total excess is then about 2^29 and no capacity exceeds it, so the two
# opposite capacities of a node pair sum inside the int32 of scipy's max flow.
_FLOW_UNITS = 2**30


@lru_cache(maxsize=32)
def _move_graph(space, k: int):
    """Single-label-move graph over the k-snapshot lattice, cached per (space, k).

    Nodes are the lattice points; each directed edge shifts one of the k
    labels from one class to another, which changes the normalized
    histogram by exactly 2/k in l1. Any two lattice points at l1 distance
    d are joined by d*k/2 such moves and no fewer, so the shortest-path
    metric of this graph with edge cost 2/k reproduces the l1 metric.
    Edges are sorted by source point, then target point. Returns each
    edge's source and target, the edge that undoes it, the row pointer of
    the edges as a CSR graph, and the (N, l) integer counts of the lattice
    points.
    """
    counts = _lattice(space, k)[0].astype(np.int64)
    n, l = counts.shape
    moves = np.array([(i, j) for i in range(l) for j in range(l) if i != j])
    heads, move = np.nonzero(counts[:, moves[:, 0]] >= 1)
    moved = counts[heads]
    moved[np.arange(len(heads)), moves[move, 0]] -= 1
    moved[np.arange(len(heads)), moves[move, 1]] += 1
    tails = _lattice_rank(moved, k)
    order = np.lexsort((tails, heads))
    heads, tails = heads[order].astype(np.int32), tails[order].astype(np.int32)
    key = heads.astype(np.int64) * n + tails
    reverse = np.searchsorted(key, tails.astype(np.int64) * n + heads)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=n))]).astype(np.int32)
    return heads, tails, reverse, indptr, counts


def _integer_supply(supply):
    """Integers summing to exactly 0, and the mass of one unit, for supplies
    that sum to 0 up to rounding.

    The mean is subtracted first: float supplies are off balance by about
    1e-15, which at the scale of a rounding residual on a few nodes is more
    units than their remainders can absorb. Each node gets floor or ceil of
    its scaled supply, the ceil going to the largest remainders (ties in
    node order). All zeros and a unit of 0 when the supplies are all equal.
    """
    centred = supply - supply.mean()
    unit = np.abs(centred).sum() / _FLOW_UNITS
    if unit == 0.0:
        return np.zeros(len(supply), dtype=np.int64), unit
    scaled = centred / unit
    units = np.floor(scaled)
    units[np.argsort(units - scaled, kind="stable")[: int(-units.sum())]] += 1.0
    return units.astype(np.int64), unit


def _phase_cap(k: int) -> int:
    """Phases one round of _flow_phases may take on the size-k lattice.

    A phase raises each potential by the node's distance in reduced costs
    from the excess nodes, finite since the move graph is strongly
    connected. An excess node is a source of that search, so its distance
    is 0 and its potential does not move. Every node still in deficit rises
    by at least D, the distance to the nearest deficit node, and D >= 1 in
    every phase but the first, since costs are integers and the previous
    max flow left no path of reduced cost 0 from an excess to a deficit
    node. So for a node u that keeps its excess and a node v that keeps its
    deficit, potential[v] - potential[u] rises by at least 1 in each later
    phase. Both directions of every move keep reduced cost >= 0, so two
    potentials differ by at most k, the lattice diameter in moves: that
    difference goes from at least -k to at most k, a rise of at most 2k.
    Hence at most 2k + 2 phases. The argument needs only integer
    potentials that are dual feasible at the round's start, so the bound
    holds from any such start: round 1's coordinate-marginal dual and
    round 2's start at round 1's end.
    """
    return 2 * k + 2


def _flow_phases(graph, supply, flow, potential, k: int):
    """Primal-dual min-cost flow on integer node supplies, in place.

    `flow` (integer units per move) and `potential` must satisfy
    complementary slackness: every move with flow has reduced cost
    1 + potential[source] - potential[target] == 0, every move >= 0. A
    move with flow can be cancelled at reduced cost 0 from its target.
    Each phase runs one multi-source Dijkstra on reduced costs from the
    excess nodes, raises every potential by its distance, then runs one max
    flow on the arcs of reduced cost 0. Shortest-path distances keep every
    reduced cost >= 0 and every move with flow at 0, so after the raise the
    max flow reaches deficits at every distance, not only the nearest.
    Raises SolverFailure past _phase_cap(k) phases.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra, maximum_flow

    heads, tails, reverse, indptr, _ = graph
    n = len(indptr) - 1
    excess = supply.copy()
    for _ in range(_phase_cap(k)):
        sources = np.flatnonzero(excess > 0)
        if not sources.size:
            return
        sinks = np.flatnonzero(excess < 0)
        cancellable = flow[reverse] > 0
        # per node pair the cheaper of the move and the cancellation of the
        # opposite move: CSR construction would add the two up
        reduced = 1 + potential[heads] - potential[tails]
        weight = reduced - 2 * cancellable
        dist = dijkstra(csr_matrix((weight.astype(float), tails, indptr), shape=(n, n)),
                        indices=sources, min_only=True)
        potential += dist.astype(np.int64)

        reduced = 1 + potential[heads] - potential[tails]
        forward = reduced == 0
        arcs = np.flatnonzero(forward | ((reduced == 2) & cancellable))
        forward = forward[arcs]
        # no arc needs more than the total excess; that bound keeps the
        # capacities of both directions of a pair inside int32
        total = excess[sources].sum()
        rows = np.concatenate([heads[arcs], np.full(len(sources), n), sinks])
        cols = np.concatenate([tails[arcs], sources, np.full(len(sinks), n + 1)])
        caps = np.concatenate([
            np.where(forward, total, np.minimum(flow[reverse[arcs]], total)),
            excess[sources], -excess[sinks],
        ]).astype(np.int32)
        net = maximum_flow(csr_matrix((caps, (rows, cols)), shape=(n + 2, n + 2)),
                           n, n + 1, method="dinic").flow
        # the flow is net and antisymmetric: read each pair one way only
        moved = np.maximum(np.asarray(net[rows, cols]).ravel(), 0)
        along, drained, filled = np.split(moved, [len(arcs), len(arcs) + len(sources)])
        flow[arcs[forward]] += along[forward]
        flow[reverse[arcs[~forward]]] -= along[~forward]
        excess[sources] -= drained
        excess[sinks] += filled
    if (excess > 0).any():
        raise SolverFailure(f"lattice flow needs more than {_phase_cap(k)} phases at k={k}")


def _marginal_potential(counts, supply, k: int):
    """Integer potentials of the coordinate-marginal dual of integer node
    supplies on the lattice points `counts`, for a flow that is all zero.

    Label i's marginal dual steps by +1 from count j to j + 1 where the
    supply at counts <= j is positive, by -1 elsewhere: the optimal 1-D
    dual, whose objective is that marginal's W1. Each step is odd, so
    phi_i(j) has the parity of j; the counts of a point sum to k, so the
    halving below is exact. A move shifts two counts by one each and
    sum_i phi_i by at most 2, so every move keeps reduced cost >= 0.
    """
    total = np.zeros(len(counts), dtype=np.int64)
    for column in counts.T:
        running = np.bincount(column, weights=supply, minlength=k + 1).cumsum()
        phi = np.concatenate([[0], np.where(running[:-1] > 0, 1, -1).cumsum()])
        total += phi[column]
    return (total - k) // 2


def _subtree_sums(parent, amount):
    """amount summed over each node's subtree in the forest `parent`, whose
    roots have parent len(parent), by pointer doubling: pass i adds each
    node's partial sum to its 2^i-th ancestor. Exact while the sums stay
    below 2^53."""
    n = len(parent)
    up = np.append(parent, n)
    sums = np.append(amount, 0).astype(float)
    while (up < n).any():
        sums[n] = 0.0
        sums += np.bincount(up, sums, n + 1)
        up = up[up]
    return sums[:n]


def _route_in_components(graph, supply, flow, potential):
    """Route integer node supplies inside the strongly connected components
    of the wide arcs, in place on `flow`; return what is left, the net
    supply of each component at its root.

    A wide arc can carry any amount the round moves: a tight move (reduced
    cost 0), or the cancellation of a move whose flow is at least twice the
    total excess. Every excess goes to its component's root along an
    in-tree, every deficit is fed from the root along an out-tree, each
    tree one breadth-first search from all roots. An arc carries at most
    the total excess in each tree, so no flow goes negative; every change
    is on a tight move, so the potentials stay complementary to the flow.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    heads, tails, reverse, indptr, _ = graph
    n = len(indptr) - 1
    tight = potential[tails] - potential[heads] == 1
    wide = tight | (flow[reverse] >= 2 * supply[supply > 0].sum())

    def arcs(mask, roots):
        # the masked moves as a CSR graph, its rows straight from the sorted
        # moves, and a node n with an arc to each of the integer array roots.
        # Every lattice point starts a move, so no row of moves is empty, as
        # reduceat needs
        cols = np.concatenate([tails.compress(mask), roots])
        rows = np.add.reduceat(mask.view(np.uint8), indptr[:-1], dtype=np.int32)
        ends = np.concatenate([[0], rows, [len(roots)]]).cumsum()
        return csr_matrix((np.ones(len(cols)), cols, ends), shape=(n + 1, n + 1))

    labels = connected_components(arcs(wide, indptr[:0]), connection="strong")[1][:n]
    _, roots, component = np.unique(labels, return_index=True, return_inverse=True)
    wide &= labels[heads] == labels[tails]
    key = heads.astype(np.int64) * n + tails
    moved = np.zeros(len(heads))
    # the in-tree is an out-tree of the transposed moves, and the transpose
    # of move e is move reverse[e]
    for mask, amount, out in ((wide[reverse], np.maximum(supply, 0), False),
                              (wide, np.maximum(-supply, 0), True)):
        parent = breadth_first_order(arcs(mask, roots), n, return_predecessors=True)[1][:n]
        child = np.flatnonzero(parent < n)
        # the move from each child to its parent
        arc = np.searchsorted(key, child * n + parent[child])
        moved += np.bincount(reverse[arc] if out else arc,
                             _subtree_sums(parent, amount)[child], len(heads))
    # a wide arc that is not tight cancels the opposite move
    flow += np.where(tight, moved - moved[reverse], 0.0).astype(np.int64)
    left = np.zeros_like(supply)
    left[roots] = np.bincount(component, supply, len(roots))
    return left


def _lattice_flow(graph, supply, k: int):
    """Mass per move of an optimal flow for node supplies `supply`, and its
    dual y (node prices, y[u] - y[v] <= 2/k on every move u -> v).

    Round 1 solves the supplies rounded to integers, starting from no flow
    and the coordinate-marginal dual of those integers. Its gap can come
    near 1e-8, so round 2 solves the rounding residual at its own, finer
    scale, starting from round 1's flow and potentials; it may cancel
    round-1 flow. Round 2 first routes the residual inside the strongly
    connected components of round 1's tight moves and wide cancellations
    (_route_in_components), which needs no max flow, and then solves what
    is left at the component roots. Every phase of both rounds raises the
    potentials by the full Dijkstra distance (_flow_phases), which keeps
    complementary slackness, so round 2 starts from a dual that is optimal
    for round 1's flow.
    """
    z1, unit1 = _integer_supply(supply)
    flow = np.zeros(len(graph[0]), dtype=np.int64)
    potential = _marginal_potential(graph[4], z1, k)
    _flow_phases(graph, z1, flow, potential, k)
    x = flow * unit1
    z2, unit2 = _integer_supply(supply - z1 * unit1)
    if unit2 > 0.0:
        # round-1 flow in round-2 units. Round 2's total excess is at most
        # (_FLOW_UNITS + nodes) / 2, so the cap is at least twice it and
        # leaves every flow the routing may cancel wide; it keeps the floats
        # finite and never binds in the max flow, whose capacities stay
        # min(flow, total excess)
        start = np.minimum(flow * min(unit1 / unit2, 2 * _FLOW_UNITS),
                           2 * _FLOW_UNITS).astype(np.int64)
        flow = start.copy()
        left = _route_in_components(graph, z2, flow, potential)
        _flow_phases(graph, left, flow, potential, k)
        x = x + (flow - start) * unit2
    return x, potential * (-2.0 / k)


def w1_lattice(a: Mixture, b: Mixture, k: int) -> float:
    """W1 between mixtures supported on the same k-snapshot lattice.

    Because l1 distance on the lattice equals the shortest-path metric of
    the single-label-move graph, optimal transport reduces to a min-cost
    flow with one node per lattice point and one variable per move, far
    smaller than the dense LP's one variable per support pair. The flow
    lives on edges rather than point pairs, so only the cost is returned.
    The flow is solved by _lattice_flow, a primal-dual method, and
    certified in-function by _certify. k must be an integer >= 1, numpy
    integers included. Raises DomainError for any other k (bool too),
    InvalidDistribution for points off the lattice, CapExceeded when the
    lattice has more than DEFAULT_NODE_CAP points, and SolverFailure when
    the flow fails its certificate or its phase cap.
    """
    _check_same_space(a, b)
    return _w1_flow(a, b, _check_lattice_size(a.space, k, DEFAULT_NODE_CAP))


def _w1_flow(a: Mixture, b: Mixture, k: int) -> float:
    """w1_lattice for a Python int k whose lattice is within the node cap."""
    graph = _move_graph(a.space, k)
    heads, tails, *_, counts = graph
    supply = np.zeros(len(counts))
    for m, spread in ((a, np.add), (b, np.subtract)):
        index = _lattice_rank(_lattice_counts(m.points_array(), k), k)
        spread.at(supply, index, m.weights_array())
    flow, y = _lattice_flow(graph, supply, k)
    cost = np.full(len(heads), 2.0 / k)
    _certify(cost, heads, tails, supply, flow, y)
    return float(cost @ flow)
