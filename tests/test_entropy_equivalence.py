"""The row-wise entropy, decompose and prediction-set code against the
per-point code it replaced.

The reference below is that code as it was when every consumer looped over
a mixture's (point, weight) pairs in Python: one point tuple at a time, with
left-to-right sums (Python `sum` up to 3.11), `+=` loops and
`itertools.product` over point pairs. It has no support cap.
For Shannon and Brier (both scalings), and for polynomial entropies, the
array path must give the same bits. Exponential entropies may differ by
1e-13: `np.exp` and `math.exp` disagree in the last bit for a few percent
of arguments.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hocal.decompose import decompose, loss_breakdown
from hocal.entropy import (
    EntropySpec,
    divergence_rows,
    entropy_rows,
    gradient_rows,
    loss_rows,
)
from hocal.mixture import mixture_from_arrays
from hocal.predset import IntervalSet, build_mass_set, coverage, enlarge
from hocal.simplex import LabelSpace, simplex_rows

# -- the per-point reference -------------------------------------------------


def left_to_right(terms):
    """0.0 + terms[0] + terms[1] + ..., one rounding per step on any Python."""
    total = 0.0
    for t in terms:
        total += t
    return float(total)


def ref_support(m):
    """The (point tuple, weight) pairs of a mixture, in stored order."""
    return list(zip(map(tuple, m.points_array().tolist()), m.weights_array().tolist()))


def ref_entropy_value(g, p):
    probs = np.asarray(p, dtype=float)
    if g.kind == "shannon":
        pos = probs > 0.0
        return float(-(probs[pos] * np.log(probs[pos])).sum() / math.log(g.log_base))
    if g.kind == "brier":
        if g.binary_scaled and len(p) == 2:
            return 4.0 * probs[0] * probs[1]
        return float(1.0 - (probs**2).sum())
    if g.kind == "exponential":
        return float(-math.exp(np.dot(g.t, probs)))
    return float(np.polynomial.polynomial.polyval(p[1], np.asarray(g.coeffs)))


def ref_gradient(g, p):
    probs = np.asarray(p, dtype=float)
    if g.kind == "shannon":
        return -(np.log(probs) + 1.0) / math.log(g.log_base)
    if g.kind == "brier":
        if g.binary_scaled and len(p) == 2:
            return 4.0 * probs[::-1].copy()
        return -2.0 * probs
    if g.kind == "exponential":
        return -np.asarray(g.t) * math.exp(np.dot(g.t, probs))
    deriv = np.polynomial.polynomial.polyder(np.asarray(g.coeffs))
    return np.array([0.0, float(np.polynomial.polynomial.polyval(p[1], deriv))])


def ref_divergence(g, p, q):
    pa, qa = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if g.kind == "shannon":
        pos = pa > 0.0
        if (qa[pos] <= 0.0).any():
            return math.inf
        return float((pa[pos] * (np.log(pa[pos]) - np.log(qa[pos]))).sum() / math.log(g.log_base))
    if g.kind == "brier":
        if g.binary_scaled and len(p) == 2:
            return 4.0 * (pa[1] - qa[1]) ** 2
        return float(((pa - qa) ** 2).sum())
    return ref_entropy_value(g, q) + float(ref_gradient(g, q) @ (pa - qa)) - ref_entropy_value(g, p)


def ref_proper_loss(g, p_true, q):
    pa, qa = np.asarray(p_true, dtype=float), np.asarray(q, dtype=float)
    if g.kind == "shannon":
        pos = pa > 0.0
        if (qa[pos] <= 0.0).any():
            return math.inf
        return float(-(pa[pos] * np.log(qa[pos])).sum() / math.log(g.log_base))
    return ref_entropy_value(g, q) + float(ref_gradient(g, q) @ (pa - qa))


def ref_centroid(m):
    return tuple(simplex_rows([m.weights_array() @ m.points_array()])[0].tolist())


def ref_average_entropy(m, g):
    return left_to_right(w * ref_entropy_value(g, p) for p, w in ref_support(m))


def ref_decompose(m, g):
    """(pu, au, eu, pu_tmi, eu_tmi, eu_rmi, tmi_reason), with no support cap."""
    center = ref_centroid(m)
    pu = ref_entropy_value(g, center)
    au = ref_average_entropy(m, g)
    eu = pu - au
    infinite = (pu, au, eu, None, None, None, "infinite-divergence")
    eu_rmi = 0.0
    for p, w in ref_support(m):
        d = ref_divergence(g, center, p)
        if math.isinf(d):
            return infinite
        eu_rmi += w * d
    eu_tmi = 0.0
    for (p1, w1), (p2, w2) in itertools.product(ref_support(m), ref_support(m)):
        d = ref_divergence(g, p1, p2)
        if math.isinf(d):
            return infinite
        eu_tmi += w1 * w2 * d
    return (pu, au, eu, au + eu_tmi, eu_tmi, eu_rmi, None)


def ref_loss_breakdown(predicted, bayes, g):
    q_bar = ref_centroid(predicted)
    p_bar = ref_centroid(bayes)
    expected_loss = left_to_right(w * ref_proper_loss(g, p, q_bar) for p, w in ref_support(bayes))
    avg_au = ref_average_entropy(bayes, g)
    grouping_loss = left_to_right(w * ref_divergence(g, p, p_bar) for p, w in ref_support(bayes))
    foc_error = ref_divergence(g, p_bar, q_bar)
    return (expected_loss, avg_au, grouping_loss + foc_error, grouping_loss, foc_error)


def ref_build_mass_set(m, alpha):
    order = sorted(ref_support(m), key=lambda pw: (-pw[1], pw[0]))
    centers = []
    captured = 0.0
    for point, weight in order:
        centers.append(point)
        captured += weight
        if captured >= 1.0 - alpha:
            break
    return centers


def ref_l1(a, b):
    return left_to_right(abs(x - y) for x, y in zip(a, b))


def ref_coverage(centers, radius, m):
    return left_to_right(
        w for p, w in ref_support(m) if any(ref_l1(p, c) <= radius for c in centers)
    )


# -- comparison helpers ------------------------------------------------------

SHANNON_AND_BRIER = [
    EntropySpec.shannon(2.0),
    EntropySpec.shannon(math.e),
    EntropySpec.shannon(10.0),
    EntropySpec.brier(),
    EntropySpec.brier(binary_scaled=True),
]


def hexed(value):
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return [hexed(v) for v in value]
    return float(value).hex()


def report_tuple(r):
    return (r.pu, r.au, r.eu, r.pu_tmi, r.eu_tmi, r.eu_rmi, r.tmi_reason)


def hexed_report(values):
    return [v if isinstance(v, str) else hexed(v) for v in values]


@st.composite
def mixtures(draw, sizes=(1, 2, 3, 4, 6, 9, 17, 40)):
    """A mixture over 2..12 labels; some rows have exact zero coordinates."""
    l = draw(st.integers(min_value=2, max_value=12))
    n = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = rng.dirichlet(np.full(l, draw(st.sampled_from([0.3, 1.0, 5.0]))), size=n)
    zero_rate = draw(st.sampled_from([0.0, 0.05, 0.3]))
    holes = rng.random((n, l)) < zero_rate
    holes[np.arange(n), rng.integers(l, size=n)] = False  # keep some mass in every row
    rows = np.where(holes, 0.0, rows)
    if draw(st.booleans()):
        rows[0] = np.eye(l)[int(rng.integers(l))]  # a vertex
    rows = rows / rows.sum(axis=1, keepdims=True)
    weights = rng.random(n) + 0.01
    return mixture_from_arrays(rows, (weights / weights.sum()).tolist(), LabelSpace(l))


def check_points(g, m):
    """Row functions on the first six support points, and on one of them (a
    single row standing for all) against those points and the centroid."""
    points = [p for p, _ in ref_support(m)][:6]
    others = np.array([ref_centroid(m)] + points)
    assert hexed(entropy_rows(g, np.array(points)).tolist()) == hexed(
        [ref_entropy_value(g, p) for p in points]
    )
    for p in points:
        assert hexed(divergence_rows(g, p, others).tolist()) == hexed(
            [ref_divergence(g, p, q) for q in others.tolist()]
        )
        assert hexed(loss_rows(g, p, others).tolist()) == hexed(
            [ref_proper_loss(g, p, q) for q in others.tolist()]
        )
        if g.kind != "shannon" or min(p) > 0.0:
            assert hexed(gradient_rows(g, p)[0].tolist()) == hexed(list(ref_gradient(g, p)))


# -- properties --------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(mixtures(sizes=(1, 2, 3, 4, 6, 9, 17, 40, 513)), mixtures(), st.sampled_from(SHANNON_AND_BRIER))
def test_entropy_and_decompose_keep_their_bits(m, other, g):
    event("support above 512" if m.size > 512 else "support up to 512")
    check_points(g, m)
    assert hexed_report(report_tuple(decompose(m, g))) == hexed_report(ref_decompose(m, g))
    if other.space == m.space:
        lb = loss_breakdown(other, m, g)
        got = (lb.expected_loss, lb.avg_au, lb.avg_bias, lb.grouping_loss, lb.foc_error)
        assert hexed(got) == hexed(ref_loss_breakdown(other, m, g))


@settings(deadline=None, max_examples=60)
@given(mixtures(), mixtures(), st.sampled_from([0.05, 0.2, 0.5, 0.9]),
       st.sampled_from([0.0, 1e-3, 0.05, 0.3]))
def test_prediction_sets_keep_their_bits(m, other, alpha, delta):
    s = build_mass_set(m, alpha)
    expected = ref_build_mass_set(m, alpha)
    assert hexed(s.centers.tolist()) == hexed(expected)
    grown = enlarge(s, delta)
    for target in (m, other) if other.space == m.space else (m,):
        assert hexed(coverage(grown, target)) == hexed(ref_coverage(expected, grown.radius, target))
    if m.space.num_labels == 2:
        interval = IntervalSet(lo=min(delta, 0.5), hi=0.5 + delta / 2)
        expected = left_to_right(
            w for p, w in ref_support(m) if interval.lo <= p[1] <= interval.hi
        )
        assert hexed(coverage(interval, m)) == hexed(expected)


@settings(deadline=None, max_examples=40)
@given(mixtures(), st.integers(min_value=0, max_value=2**32 - 1))
def test_exponential_and_polynomial_entropies_stay_close(m, seed):
    rng = np.random.default_rng(seed)
    families = [EntropySpec.exponential(rng.uniform(-1.0, 1.0, m.space.num_labels))]
    if m.space.num_labels == 2:
        families.append(EntropySpec.polynomial((0.1, 1.0, -1.5, 0.25)))
    for g in families:
        got = report_tuple(decompose(m, g))
        expected = ref_decompose(m, g)
        assert got[-1] == expected[-1]
        tol = 0.0 if g.kind == "polynomial" else 1e-13
        for a, b in zip(got[:-1], expected[:-1]):
            assert abs(a - b) <= tol
        points = [p for p, _ in ref_support(m)][:4]
        for p in points:
            assert abs(entropy_rows(g, p)[0] - ref_entropy_value(g, p)) <= tol
            for q in points:
                assert abs(divergence_rows(g, p, q)[0] - ref_divergence(g, p, q)) <= tol
                assert abs(loss_rows(g, p, q)[0] - ref_proper_loss(g, p, q)) <= tol


@pytest.mark.parametrize("g", SHANNON_AND_BRIER, ids=lambda g: json.dumps(g.to_dict(), sort_keys=True))
@pytest.mark.parametrize("num_labels", [2, 3, 9, 12])
def test_row_functions_match_the_reference_pair_by_pair(g, num_labels):
    # many pairs, so that rare roundings (C pow() squares, pairwise sums
    # over rows with zeros) show up one value at a time
    rng = np.random.default_rng(num_labels)
    n = 20_000 if num_labels == 2 else 2_000
    p = rng.dirichlet(np.full(num_labels, 0.5), size=n)
    q = rng.dirichlet(np.full(num_labels, 0.5), size=n)
    p[rng.random((n, num_labels)) < 0.15] = 0.0
    p[np.arange(n), rng.integers(num_labels, size=n)] += 0.1
    p /= p.sum(axis=1, keepdims=True)
    pp = [tuple(r) for r in p.tolist()]
    qq = [tuple(r) for r in q.tolist()]
    assert hexed(entropy_rows(g, p).tolist()) == hexed([ref_entropy_value(g, a) for a in pp])
    assert hexed(divergence_rows(g, p, q).tolist()) == hexed(
        [ref_divergence(g, a, b) for a, b in zip(pp, qq)]
    )
    assert hexed(divergence_rows(g, q, p).tolist()) == hexed(
        [ref_divergence(g, b, a) for a, b in zip(pp, qq)]
    )
    assert hexed(loss_rows(g, p, q).tolist()) == hexed(
        [ref_proper_loss(g, a, b) for a, b in zip(pp, qq)]
    )


@pytest.mark.parametrize(
    "g, num_labels",
    [(EntropySpec.shannon(2.0), 11), (EntropySpec.brier(), 3), (EntropySpec.brier(True), 2)],
    ids=["shannon2-l11", "brier-l3", "brier-scaled-l2"],
)
def test_supports_above_512_get_the_reference_tmi(g, num_labels):
    # the reference has no cap: every support gets its pairwise terms
    rng = np.random.default_rng(513 + num_labels)
    n = 513
    rows = rng.dirichlet(np.ones(num_labels), size=n)
    weights = rng.random(n) + 0.1
    m = mixture_from_arrays(rows, (weights / weights.sum()).tolist(), LabelSpace(num_labels))
    assert m.size == n
    r = decompose(m, g)
    assert r.tmi_reason is None
    assert hexed_report(report_tuple(r)) == hexed_report(ref_decompose(m, g))
