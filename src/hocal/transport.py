"""Wasserstein-1 distance between mixtures under the l1 ground metric.

Four routes, never collapsed, and one rule on the input, `_route`, picks
among them: the exact 1-D quantile formula for binary mixtures (the
monotone coupling is optimal on a line); `_few_source`, dual ascent over
the few sources of the transport LP; `w1_lattice`, a min-cost flow over
the single-label moves of a common k-snapshot lattice, which scales far
beyond the dense LP, solved by two rounds of the primal-dual method on
scipy.sparse.csgraph, the first started, on lattices of _COARSE_POINTS or
more, from the lifted dual of one round on the half-size lattice; and
HiGHS on the whole transport LP. No route stands in for another. Every
route passes one certificate, `_certify`, of a flow on a graph (support
pairs or lattice moves): non-negativity, node balance, dual feasibility,
complementary slackness and the primal-dual gap, each to 1e-8. HiGHS runs
only on a whole LP, in one call and one configuration. scipy is imported
only by HiGHS and the lattice flow, and scipy.optimize only by that HiGHS
solve.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, HocalError
from .mixture import Mixture, _check_same_space, _lattice, _lattice_counts, _lattice_rank
from .simplex import _check_lattice_size, _snapshot_size, snapshot_space_size

DEFAULT_SUPPORT_CAP = 2000
CHECK_TOL = 1e-8
# HiGHS feasibility tolerances are absolute; solving with supplies scaled up
# by this factor and dividing the flow back down leaves marginal residuals
# near 1e-11, far inside CHECK_TOL. At 1e8, presolve judged some systems with
# supplies spanning many orders of magnitude infeasible (README, "HiGHS").
_SUPPLY_SCALE = 1e6
# HiGHS's default dual tolerance admits reduced costs down to -1e-7, looser than CHECK_TOL
_DUAL_TOL = 1e-10


class SolverFailure(HocalError):
    """A solver returned something that fails its certificate, or stopped
    short of a solution."""


def _dot(a, b) -> float:
    """a @ b without BLAS, whose bits depend on its thread count: the sum of
    the n products p, within one ulp of its exact value when none is
    negative.

    Rump, Ogita and Oishi's extraction: with sigma a power of 2 above
    (n + 2) max|p|, each q = (sigma + p) - sigma is p cut to a multiple of
    2^-53 sigma, so the q add up exactly in any order; the remainders p - q,
    each below 2^-52 sigma, are summed by numpy, and one rounding joins both.
    """
    p = a * b
    top = float(np.abs(p).max(initial=0.0))
    sigma = 2.0 ** (math.frexp(len(p) + 2)[1] + math.frexp(top)[1])
    q = p + sigma
    q -= sigma
    p -= q
    return float(q.sum() + p.sum())


def _certify(cost, heads, tails, supply, x, y):
    """Raise SolverFailure unless the edge flows x and node potentials y are
    optimal for min cost @ x over flows x >= 0 on the graph with edges
    heads[e] -> tails[e] whose nodes send out `supply`.

    x must be non-negative and balance every node (outflow less inflow equal
    to its supply), y feasible (reduced costs cost - y[heads] + y[tails] >=
    0) and complementary to x where x > 1e-12, and the objectives
    supply @ y and cost @ x equal, each to CHECK_TOL. Each gate is written
    so that a NaN residual fails it. The objectives are summed by numpy, not
    by a BLAS dot product, whose bits depend on its thread count.
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
    if not abs((supply * y).sum() - (cost * x).sum()) <= CHECK_TOL:
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

    # the distinct biases, sorted; np.unique would import numpy.ma
    grid = np.sort(np.concatenate([a_bias, b_bias]))
    grid = grid[np.diff(grid, prepend=np.nan) != 0.0]
    at_a, at_b = np.searchsorted(grid, a_bias), np.searchsorted(grid, b_bias)
    # F_a - F_b at each grid point
    excess = np.cumsum(np.bincount(at_a, a_w, len(grid)) - np.bincount(at_b, b_w, len(grid)))
    phi = np.concatenate([[0.0], np.cumsum(-2.0 * np.sign(excess[:-1]) * np.diff(grid))])
    _certify(2.0 * np.abs(a_bias[:, None] - b_bias).ravel(), *_pairs(a.size, b.size),
             np.concatenate([a_w, -b_w]), mass.ravel(), phi[np.concatenate([at_a, at_b])])
    return float(cost), mass


# Sides of at most this many points are the sources of `_few_source`, whose
# Hall check walks all 2^m - 2 source subsets. Measured against HiGHS
# (README "Few sources"): 8 sources win at every size measured; 10 sources
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
    for tie in np.flatnonzero(np.bincount(owner)):  # the distinct owners
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


DEFAULT_NODE_CAP = 100_000
# The dense LP has a.size * b.size pair variables, the lattice flow one per
# single-label move, times a number of phases that grows with k. On spread
# supports from (l, k) = (3, 16) to (3, 200) and (4, 32)
# (README "Lattice flow or HiGHS"), the flow took 0.32 to 0.83 of the LP's
# time at twice as many pairs as moves; at about as many it won on 4 of 6
# lattices and took up to 1.2 times the LP's time on the other two.
_PAIRS_PER_MOVE = 2


def _route(a: Mixture, b: Mixture, method: str, k: int | None) -> str:
    """The route `wasserstein1` takes, by the first rule that holds:

    - "cdf": `method` is "auto" on a binary space;
    - "few-source": a side has at most _FEW_SOURCES points;
    - "flow": `method` is "auto", `k` is given, the size-k lattice has at
      most DEFAULT_NODE_CAP points, and the support pairs number more than
      _PAIRS_PER_MOVE times its single-label moves;
    - "highs": everything else.

    Raises ValueError for a method other than "auto" and "lp".
    """
    if method not in ("auto", "lp"):
        raise ValueError(f"unknown method {method!r}")
    l = a.space.num_labels
    if method == "auto" and l == 2:
        return "cdf"
    if min(a.size, b.size) <= _FEW_SOURCES:
        return "few-source"
    if method == "auto" and k is not None and snapshot_space_size(a.space, k) <= DEFAULT_NODE_CAP:
        # a move from label i to label j starts at every point with c_i >= 1
        moves = l * (l - 1) * math.comb(k + l - 2, l - 1)
        if a.size * b.size > _PAIRS_PER_MOVE * moves:
            return "flow"
    return "highs"


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
    snapshot lattice both mixtures live on; every method and route refuses
    a k that is not a snapshot size with DomainError. `method` is
    "auto" or "lp", and `_route` picks the route from it and the input.
    The lattice flow returns plan None, since it lives on moves, not point
    pairs; HiGHS refuses combined supports above `support_cap`.
    """
    _check_same_space(a, b)
    if k is not None:
        k = _snapshot_size(k)
    route = _route(a, b, method, k)
    if route == "cdf":
        return _w1_binary(a, b)
    if route == "flow":
        return _w1_flow(a, b, k), None
    aw, bw = a.weights_array(), b.weights_array()
    m, n = len(aw), len(bw)
    if route == "highs" and m + n > support_cap:
        raise CapExceeded(f"combined support {m + n} exceeds support_cap={support_cap}")
    cost_mat = _l1_cost(a.points_array(), b.points_array())
    if route == "few-source":
        mass = _few_source(cost_mat, aw, bw) if m <= n else _few_source(cost_mat.T, bw, aw).T
    else:
        # every row of the row/column-sum system but the redundant last
        # one, whose dual is fixed at 0
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
    edge's source and target and the edge that undoes it, all intp for
    gathers, the int32 row pointer of the edges as a CSR graph, and the
    (N, l) integer counts of the lattice points.
    """
    counts = _lattice(space, k)[0].astype(np.int64)
    n, l = counts.shape
    moves = np.array([(i, j) for i in range(l) for j in range(l) if i != j])
    heads, move = np.nonzero(counts[:, moves[:, 0]] >= 1)
    moved = counts[heads]
    moved[np.arange(len(heads)), moves[move, 0]] -= 1
    moved[np.arange(len(heads)), moves[move, 1]] += 1
    tails = _lattice_rank(moved, k).astype(np.intp)
    order = np.lexsort((tails, heads))
    heads, tails = heads[order], tails[order]
    key = heads * n + tails
    reverse = np.searchsorted(key, tails * n + heads)
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

    A phase raises each potential by its component's distance in reduced
    costs from the components with excess, finite since the move graph is
    strongly connected; contracting components changes no distance. A
    component with excess is a source of that search, so its distance is 0
    and its potentials do not move. Every component in deficit rises by at
    least D, the distance to the nearest one, and D >= 1 in every phase but
    the first, since costs are integers and the previous max flow left no
    path of reduced cost 0 from an excess to a deficit component: the
    contracted max flow has the value of the uncontracted one, since every
    wide move inside a component can carry the total excess. The components
    stay fixed within a round, and excesses only drain and deficits only
    fill, so a component u with excess after some phase had excess in every
    phase before, and likewise a component v with deficit.
    potential[v] - potential[u] therefore rises by at least 1 in each later
    phase. Both directions of every move keep reduced cost >= 0, so two
    potentials differ by at most k, the lattice diameter in moves: that
    difference goes from at least -k to at most k, a rise of at most 2k.
    Hence at most 2k + 2 phases. The argument needs only integer
    potentials that are dual feasible at the round's start, so the bound
    holds from any such start: round 1's start from _round_1_start, the
    coordinate-marginal dual or the lifted dual of the half-size lattice;
    that lattice's own round from its marginal dual, at its own k; and
    round 2's start at round 1's end.
    """
    return 2 * k + 2


def _between(graph, label, size: int):
    """The nodes grouped by their component among the `size` components
    `label`, and the moves between two components, grouped by the component
    of their source: their indices, their sources, targets and opposite
    moves, the components of source and target, and the row pointer of the
    contracted CSR graph. A contracted row may repeat a column; Dijkstra
    keeps the cheapest."""
    heads, tails, reverse, indptr, _ = graph
    order = np.argsort(label)
    lengths = np.diff(indptr)[order]
    grouped = np.repeat(indptr[order] - (np.cumsum(lengths) - lengths), lengths)
    grouped += np.arange(len(heads))
    cross = grouped[(label[heads] != label[tails])[grouped]]
    ends = heads[cross], tails[cross], reverse[cross]
    lh, lt = label[ends[0]], label[ends[1]]
    rows = np.concatenate([[0], np.cumsum(np.bincount(lh, minlength=size))])
    return order, cross, ends, lh, lt, rows


def _drop_cycles(rows, cols, amount, size: int):
    """Cancel every directed cycle of the flow `amount` on the distinct arcs
    rows -> cols of a graph with `size` nodes, in place. The flow into and
    out of every node drops by the same amount, so its balance holds."""
    while True:
        live = np.flatnonzero(amount > 0)
        # peel the arcs out of nodes that no arc enters and into nodes that
        # no arc leaves: what is left holds every cycle
        while live.size:
            tail, head = rows[live], cols[live]
            kept = ((np.bincount(head, minlength=size) > 0)[tail]
                    & (np.bincount(tail, minlength=size) > 0)[head])
            if kept.all():
                break
            live = live[kept]
        if not live.size:
            return
        # every node left has an arc out: follow them until a node repeats
        out = dict(zip(rows[live].tolist(), live.tolist()))
        path, seen, node = [], {}, int(rows[live[0]])
        while node not in seen:
            seen[node] = len(path)
            path.append(out[node])
            node = int(cols[out[node]])
        cycle = path[seen[node]:]
        amount[cycle] -= amount[cycle].min()


def _split(rows, cols, carried, caps, size: int, single: bool):
    """Integer flow on each member arc rows -> cols of a contracted graph
    with `size` nodes, for the net flow `carried` of its node pair (the
    same on every member): with any cycle of the pair flows dropped, each
    pair's flow fills its members in order up to their capacities `caps`.
    When every component is a `single` node, each pair has one member and a
    cycle leaves no imbalance inside a component, so `carried` is the
    answer."""
    if single:
        return carried
    along = np.zeros(len(caps), dtype=np.int64)
    moved = np.flatnonzero(carried > 0)
    key = rows[moved] * size + cols[moved]
    order = np.argsort(key, kind="stable")
    moved, key = moved[order], key[order]
    start = np.concatenate([[True], key[1:] != key[:-1]])
    pair = np.cumsum(start) - 1
    first = moved[start]
    pairs = carried[first]
    _drop_cycles(rows[first], cols[first], pairs, size)
    cap = caps[moved]
    before = np.cumsum(cap) - cap
    before -= before[start][pair]
    along[moved] = np.clip(pairs[pair] - before, 0, cap)
    return along


def _flow_phases(graph, supply, flow, potential, k: int):
    """Primal-dual min-cost flow on integer node supplies, in place, on the
    move graph contracted to strong components of its wide arcs.

    `flow` (integer units per move) and `potential` must satisfy
    complementary slackness: every move with flow has reduced cost
    1 + potential[source] - potential[target] == 0, every move >= 0. A
    move with flow can be cancelled at reduced cost 0 from its target.
    E is the sum of the positive node excesses when the round starts, T
    the sum of the positive component excesses, which the max flows move.
    A wide arc is a tight move (reduced cost 0) or the cancellation of a
    move whose flow is at least 2E.

    A round with no excess returns at once. Otherwise the components are
    labelled once, before the first phase, and stay fixed for the round:
    the strong components of the wide arcs when some cancellation is wide,
    else single nodes, since tight moves alone close no cycle (a cycle's
    reduced costs sum to its length). So round 1, which starts with no
    flow, never contracts, and round 2 contracts round 1's large flows.
    Each phase runs one multi-source Dijkstra on the contracted graph from
    the components with excess, each pair of components joined by its
    cheapest arc, raises every potential by its component's distance, and
    runs one max flow on the contracted arcs of reduced cost 0, parallel
    capacities summed and capped at T. Shortest-path distances keep every
    reduced cost >= 0 and every move with flow at 0, so after the raise the
    max flow reaches deficits at every distance, not only the nearest. Each
    pair's flow, with any cycle dropped, is split back onto its moves
    within their capacities. Raises SolverFailure past _phase_cap(k)
    phases.

    Every node of a component gets the same distance, so its internal
    reduced costs never change, and no max flow touches an internal move.
    The max flows leave imbalances on the nodes inside a component; _expand
    routes them along its wide moves when the round ends. U(D), the
    positive excess on D's nodes beyond D's own net excess, is what that
    routing carries into D's root and, again, out of it. No flow goes
    negative:
    - at the round's start every wide cancellation inside a component D
      carries at least 2E = 2(T + the sum of U over all components), so at
      least 2(U(D) + T);
    - a phase never raises U(D) + T: a max flow that moves F lowers T by F,
      and an acyclic one crosses a component at most once per unit it
      moves, each unit adding at most 1 to U(D);
    - when the round ends T is 0, and its expansion takes at most 2U(D)
      from each of them.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, dijkstra, maximum_flow

    heads, tails, reverse, indptr, _ = graph
    n = len(indptr) - 1
    excess = supply.copy()
    bar = 2 * excess[excess > 0].sum()
    if not bar:
        return
    # the reduced cost of every move between components, kept up to date
    reduced = 1 + potential[heads] - potential[tails]
    wide = flow[reverse] >= bar
    if wide.any():
        wide |= reduced == 0
        between = csr_matrix((np.ones(np.count_nonzero(wide)), (heads[wide], tails[wide])),
                             shape=(n, n))
        size, label = connected_components(between, connection="strong")
        inside = wide & (label[heads] == label[tails])
        order, cross, (sources_of, targets_of, opposite), lh, lt, rows = _between(
            graph, label, size)
        reduced = reduced[cross]
    else:
        label, size = np.arange(n), n
        order, cross, (sources_of, targets_of, opposite), lh, lt, rows = (
            label, np.arange(len(heads)), (heads, tails, reverse), heads, tails, indptr)
    for _ in range(_phase_cap(k)):
        held = np.bincount(label, excess, size).astype(np.int64)
        total = held[held > 0].sum()
        if not total:
            break
        back = flow[opposite]
        sources = np.flatnonzero(held > 0)
        sinks = np.flatnonzero(held < 0)
        cancellable = back > 0
        # per node pair the cheaper of the move and the cancellation of the
        # opposite move: CSR construction would add the two up
        weight = reduced - 2 * cancellable
        dist = dijkstra(csr_matrix((weight.astype(float), lt, rows), shape=(size, size)),
                        indices=sources, min_only=True).astype(np.int64)
        potential += dist[label]
        reduced += dist[lh] - dist[lt]

        forward = reduced == 0
        arcs = np.flatnonzero(forward | ((reduced == 2) & cancellable))
        forward = forward[arcs]
        # no arc needs more than the total excess; that bound keeps the
        # capacities of both directions of a pair inside int32
        caps = np.where(forward, total, np.minimum(back[arcs], total))
        graph_rows = np.concatenate([lh[arcs], np.full(len(sources), size), sinks])
        graph_cols = np.concatenate([lt[arcs], sources, np.full(len(sinks), size + 1)])
        capacity = csr_matrix((np.concatenate([caps, held[sources], -held[sinks]]),
                               (graph_rows, graph_cols)), shape=(size + 2, size + 2))
        capacity.data = np.minimum(capacity.data, total).astype(np.int32)
        net = maximum_flow(capacity, size, size + 1, method="dinic").flow
        # the flow is net and antisymmetric: read each pair one way only
        carried = np.maximum(np.asarray(net[lh[arcs], lt[arcs]]).ravel(), 0)
        along = _split(lh[arcs], lt[arcs], carried, caps, size, size == n)
        moved = np.flatnonzero(along)
        along, arcs, forward = along[moved], arcs[moved], forward[moved]
        flow[cross[arcs[forward]]] += along[forward]
        flow[opposite[arcs[~forward]]] -= along[~forward]
        excess += (np.bincount(targets_of[arcs], along, n)
                   - np.bincount(sources_of[arcs], along, n)).astype(np.int64)
    else:
        if (np.bincount(label, excess, size) > 0).any():
            raise SolverFailure(f"lattice flow needs more than {_phase_cap(k)} phases at k={k}")
    if size < n:
        _expand(graph, excess, flow, potential, label, order, inside)


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


# Round 1 starts from the half-size lattice's dual on lattices of at least
# this many points. Measured (README "The lattice flow"): the lifted start
# saved 10-47% from (3, 64) up; below, it lost at some draws, and a third
# at (3, 16)
_COARSE_POINTS = 2000


def _round_1_start(space, supply, k: int):
    """Integer, dual-feasible start potentials for round 1 of the lattice
    flow on the integer node supplies `supply`.

    Below _COARSE_POINTS lattice points, and at k = 1, where no half-size
    lattice exists, this is the coordinate-marginal dual. Otherwise point c
    sends its supply to the size-k//2 point floor(c/2), plus one unit on its
    first odd labels, as many as that sum needs; one round of _flow_phases
    from the marginal dual solves those supplies there, giving psi; and
    phi(c) = min over coarse q of 2 psi(q) + d(c, e(q)), e(q) = 2q with any
    odd unit on the last label and d the number of moves between them, by
    one Dijkstra from a node with an arc to each e(q). A move u -> v puts
    d one apart at most, so phi(v) <= phi(u) + 1: every move keeps reduced
    cost >= 0. phi replaces the marginal dual only when its dual objective
    is better (z @ phi smaller).
    """
    _, tails, _, indptr, counts = _move_graph(space, k)
    marginal = _marginal_potential(counts, supply, k)
    if len(counts) < _COARSE_POINTS or k < 2:
        return marginal
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    half = k // 2
    coarse = _move_graph(space, half)
    odd = counts % 2
    spare = (half - (counts // 2).sum(axis=1))[:, None]
    gathered = counts // 2 + (odd & (odd.cumsum(axis=1) <= spare))
    held = np.bincount(_lattice_rank(gathered, half), supply, len(coarse[4])).astype(np.int64)
    psi = _marginal_potential(coarse[4], held, half)
    _flow_phases(coarse, held, np.zeros(len(coarse[0]), dtype=np.int64), psi, half)

    n = len(counts)
    lifted = 2 * coarse[4]
    lifted[:, -1] += k % 2
    # arcs from node n of length 2 psi(q), shifted to be >= 0 for Dijkstra
    offset = 2 * (psi - psi.min())
    graph = csr_matrix((np.concatenate([np.ones(len(tails)), offset]),
                        np.concatenate([tails, _lattice_rank(lifted, k)]),
                        np.append(indptr, indptr[-1] + len(offset))), shape=(n + 1, n + 1))
    phi = dijkstra(graph, indices=n)[:n].astype(np.int64) + 2 * psi.min()
    return phi if supply @ phi < supply @ marginal else marginal


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


def _expand(graph, excess, flow, potential, label, order, inside):
    """Route the integer node imbalances `excess` inside every component of
    `label` along its wide moves `inside`, in place on `flow`. Each
    component's imbalances must sum to 0, as they do when the phases of a
    round end: its supplies sum to 0 and no component keeps an excess.

    What moves goes to a root of its component, its first node in `order`
    (the nodes grouped by component), along an in-tree and back out along
    an out-tree, each one breadth-first search from all the roots. Every
    change is on a tight move, so the potentials stay complementary to the
    flow; _flow_phases bounds what the cancellations carry.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    heads, tails, reverse, _, _ = graph
    n = len(excess)
    busy = np.bincount(label, excess != 0) > 0
    if not busy.any():
        return
    group = label[order]
    roots = order[np.concatenate([[True], group[1:] != group[:-1]])][busy]
    moves = np.flatnonzero(inside)
    moves = moves[busy[label[heads[moves]]]]
    start, end = heads[moves], tails[moves]
    push = np.zeros(len(moves))
    # the in-tree is an out-tree of the transposed moves; the transpose of
    # move e is move reverse[e], and the moves come sorted
    position = np.zeros(len(heads), dtype=np.intp)
    position[reverse[moves]] = np.arange(len(moves))
    turned = position[np.flatnonzero(inside[reverse] & busy[label[heads]])]
    for rank, rows, cols, amount in ((turned, end[turned], start[turned], np.maximum(excess, 0)),
                                     (np.arange(len(moves)), start, end, np.maximum(-excess, 0))):
        # the arcs as a CSR graph, its rows straight from the sorted arcs,
        # and a node n with an arc to each root
        ends = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n)),
                               [len(moves) + len(roots)]])
        tree = csr_matrix((np.ones(len(moves) + len(roots)), np.concatenate([cols, roots]), ends),
                          shape=(n + 1, n + 1))
        parent = breadth_first_order(tree, n, return_predecessors=True)[1][:n]
        parent[parent < 0] = n
        child = np.flatnonzero(parent < n)
        # the move of the tree arc from each parent to its child
        arc = rank[np.searchsorted(rows * n + cols, parent[child] * n + child)]
        push += np.bincount(arc, _subtree_sums(parent, amount)[child], len(moves))
    push = push.astype(np.int64)
    # an inside move that is not tight cancels the opposite move
    tight = potential[start] + 1 == potential[end]
    flow[moves[tight]] += push[tight]
    flow[reverse[moves[~tight]]] -= push[~tight]


def _lattice_flow(space, supply, k: int):
    """Mass per move of an optimal flow for node supplies `supply`, and its
    dual y (node prices, y[u] - y[v] <= 2/k on every move u -> v).

    Round 1 solves the supplies rounded to integers, starting from no flow
    and _round_1_start's dual of those integers: the coordinate-marginal
    dual, or on lattices of _COARSE_POINTS or more the lifted dual of one
    round on the half-size lattice when that is better. Its gap can come
    near 1e-8, so round 2 solves the rounding residual at its own, finer
    scale, starting from round 1's flow and potentials; it may cancel
    round-1 flow. Each round contracts the strong components of the tight
    moves and wide cancellations once, before its first phase, and every
    phase raises the potentials by the full Dijkstra distance
    (_flow_phases), which keeps complementary slackness, so round 2 starts
    from a dual that is optimal for round 1's flow. Round 1 starts with no
    flow and never contracts; round 2 contracts round 1's large flows, so
    its max flows run on far fewer components than the lattice has points.
    """
    graph = _move_graph(space, k)
    z1, unit1 = _integer_supply(supply)
    flow = np.zeros(len(graph[0]), dtype=np.int64)
    potential = _round_1_start(space, z1, k)
    _flow_phases(graph, z1, flow, potential, k)
    x = flow * unit1
    z2, unit2 = _integer_supply(supply - z1 * unit1)
    if unit2 > 0.0:
        # round-1 flow in round-2 units. Round 2's total excess is at most
        # (_FLOW_UNITS + nodes) / 2, so the cap is at least twice it and a
        # flow it cuts stays wide; it keeps the floats finite and never
        # binds in the max flow, whose capacities stay min(flow, total
        # excess)
        start = np.minimum(flow * min(unit1 / unit2, 2 * _FLOW_UNITS),
                           2 * _FLOW_UNITS).astype(np.int64)
        flow = start.copy()
        _flow_phases(graph, z2, flow, potential, k)
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
    """w1_lattice for a Python int k whose lattice is within the node cap.

    The cost is summed by `_dot`, so its bits do not depend on the BLAS
    thread count."""
    graph = _move_graph(a.space, k)
    heads, tails, *_, counts = graph
    supply = np.zeros(len(counts))
    for m, spread in ((a, np.add), (b, np.subtract)):
        index = _lattice_rank(_lattice_counts(m.points_array(), k), k)
        spread.at(supply, index, m.weights_array())
    flow, y = _lattice_flow(a.space, supply, k)
    cost = np.full(len(heads), 2.0 / k)
    _certify(cost, heads, tails, supply, flow, y)
    return _dot(cost, flow)
