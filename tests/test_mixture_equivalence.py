"""The array-native Mixture constructor against the object path it replaced.

The reference below is the constructor as it was when a Mixture stored a
tuple of (SimplexPoint, weight) pairs: each point checked and renormalized by
SimplexPoint, exact duplicates folded with a dict, near-duplicates merged by
a sorted sweep, then the weights renormalized by their input-order sum. The
array path must give the same support order and the same bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocal.errors import HocalError
from hocal.mixture import MERGE_TOL, Mixture, mixture_from_arrays
from hocal.simplex import LabelSpace, SimplexPoint


def _reference_merge(pairs):
    acc = {}
    for point, weight in pairs:
        key = point.probs
        if key in acc:
            acc[key] = (acc[key][0], acc[key][1] + weight)
        else:
            acc[key] = (point, weight)
    reps = sorted(acc.values(), key=lambda pw: pw[0].probs)
    buf = np.empty((len(reps), len(reps[0][0].probs)))
    kept = 0
    merged = []
    for point, weight in reps:
        row = np.asarray(point.probs, dtype=float)
        target = None
        lo = int(np.searchsorted(buf[:kept, 0], row[0] - MERGE_TOL, side="left"))
        if lo < kept:
            dist = np.abs(buf[lo:kept] - row).sum(axis=1)
            hits = np.flatnonzero(dist <= MERGE_TOL)
            if hits.size:
                target = lo + int(hits[-1])
        if target is None:
            merged.append((point, weight))
            buf[kept] = row
            kept += 1
        else:
            merged[target] = (merged[target][0], merged[target][1] + weight)
    return merged


def reference_mixture(points, weights, space):
    """(coordinates, weight) pairs of the object-path constructor."""
    pairs = [
        (p if isinstance(p, SimplexPoint) else SimplexPoint(tuple(p)), float(w))
        for p, w in zip(points, weights)
    ]
    if not pairs:
        raise HocalError("a mixture needs at least one support point")
    for point, weight in pairs:
        if point.dim != space.num_labels:
            raise HocalError("dimension")
        if not 0.0 < weight < math.inf:
            raise HocalError(f"weight {weight} is not positive and finite")
    total = 0.0  # left to right, as Python's `sum` up to 3.11
    for _, w in pairs:
        total += w
    if not abs(total - 1.0) <= 1e-9:
        raise HocalError(f"weights sum to {total}, expected 1")
    merged = _reference_merge(pairs)
    if total != 1.0:
        merged = [(p, w / total) for p, w in merged]
    return [(p.probs, w) for p, w in merged]


def hexed(support):
    return [([x.hex() for x in probs], w.hex()) for probs, w in support]


@st.composite
def supports(draw):
    """Rows over 2..12 labels with duplicates, near-duplicates, interlopers,
    tiny negative and signed-zero coordinates, and sums not exactly 1."""
    l = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        row = rng.dirichlet(np.full(l, draw(st.sampled_from([0.3, 1.0, 5.0]))))
        if draw(st.booleans()):
            j = int(rng.integers(l))
            row[(j + 1) % l] += row[j]
            row[j] = draw(st.sampled_from([0.0, -0.0, -1e-12, -3e-13]))
        rows.append(row)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            kind = draw(st.sampled_from(["copy", "near", "near-first", "rescaled"]))
            base = rows[int(rng.integers(len(rows)))]
            twin = base.copy()
            if kind == "near" or kind == "near-first":
                i = 0 if kind == "near-first" else int(rng.integers(l))
                j = int(np.argmax(twin))
                j = (i + 1) % l if j == i else j
                d = draw(st.sampled_from([1e-13, 2.5e-13, 4.9e-13, 6e-13]))
                twin[i] += d
                twin[j] -= d
                if kind == "near-first" and l > 2:
                    # a row sorted between the pair, far from both
                    mid = base.copy()
                    mid[0] += d / 2
                    mid[1:] = (1.0 - mid[0]) * rng.dirichlet(np.ones(l - 1))
                    rows.append(mid)
            elif kind == "rescaled":
                twin = twin * (1.0 + draw(st.sampled_from([2e-16, -2e-16, 4e-10, -7e-10])))
            rows.append(twin)
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    raw = rng.random(len(rows)) + 0.01
    weights = raw / raw.sum()
    if draw(st.booleans()):
        weights = weights * (1.0 + 3e-10)
    return l, rows, weights.tolist()


def _outcome(build):
    try:
        return ("ok", hexed(build()))
    except HocalError as exc:
        return ("error", str(exc))


@settings(deadline=None, max_examples=300)
@given(supports(), st.sampled_from(["tuples", "array", "points", "mixed"]))
def test_array_constructor_matches_the_object_path(case, form):
    l, rows, weights = case
    space = LabelSpace(l)
    inputs = [tuple(r.tolist()) for r in rows]
    if form == "array":
        inputs = np.array(inputs)
    elif form in ("points", "mixed"):
        try:
            points = [SimplexPoint(p) for p in inputs]
        except HocalError:
            return
        inputs = points if form == "points" else [
            p if i % 2 else tuple(r.tolist()) for i, (p, r) in enumerate(zip(points, rows))
        ]
    expected = _outcome(lambda: reference_mixture(list(inputs), weights, space))
    got = _outcome(lambda: [
        (p.probs, w) for p, w in mixture_from_arrays(inputs, weights, space).support
    ])
    assert got == expected
    if got[0] == "ok":
        mix = mixture_from_arrays(inputs, weights, space)
        arrays = [([x.hex() for x in r], w.hex()) for r, w in zip(
            mix.points_array().tolist(), mix.weights_array().tolist())]
        assert arrays == expected[1]
        if form == "points":
            assert Mixture(tuple(zip(inputs, weights)), space) == mix


def test_near_duplicates_apart_in_sorted_order_merge():
    # b is within 1e-12 of a but c sorts between them; the sweep still merges b
    a = (0.2, 0.3, 0.5)
    b = (0.2 + 2e-13, 0.3, 0.5 - 2e-13)
    c = (0.2 + 1e-13, 0.1, 0.7 - 1e-13)
    mix = mixture_from_arrays([c, b, a], [0.2, 0.3, 0.5], LabelSpace(3))
    assert hexed(reference_mixture([c, b, a], [0.2, 0.3, 0.5], LabelSpace(3))) == hexed(
        [(p.probs, w) for p, w in mix.support]
    )
    assert mix.size == 2


def test_signed_zero_is_kept_from_the_first_occurrence():
    space = LabelSpace(2)
    mix = mixture_from_arrays([(-0.0, 1.0), (0.0, 1.0)], [0.5, 0.5], space)
    assert mix.size == 1
    assert math.copysign(1.0, mix.points_array()[0, 0]) == -1.0
    mix = mixture_from_arrays([(0.0, 1.0), (-0.0, 1.0)], [0.5, 0.5], space)
    assert math.copysign(1.0, mix.points_array()[0, 0]) == 1.0


def test_mixture_equality_is_exact_and_unhashable():
    space = LabelSpace(2)
    a = mixture_from_arrays([(0.5, 0.5), (0.25, 0.75)], [0.5, 0.5], space)
    b = mixture_from_arrays([(0.25, 0.75), (0.5, 0.5)], [0.5, 0.5], space)
    c = mixture_from_arrays([(0.25, 0.75), (0.5, 0.5)], [0.5 + 1e-16, 0.5 - 1e-16], space)
    assert a == b
    assert a != c
    assert a != mixture_from_arrays([(0.5, 0.5)], [1.0], space)
    with pytest.raises(TypeError):
        hash(a)


def test_library_paths_build_no_simplex_points(tmp_path, monkeypatch):
    # the pipeline works on arrays end to end: no path below builds a checked
    # SimplexPoint or reads Mixture.support (per-point callers' view)
    from hocal.calibrate import CalibrationTable, SnapshotDataset, koc_error, posthoc_calibrate
    from hocal.decompose import decompose, loss_breakdown, mgf_diagnostic
    from hocal.entropy import EntropySpec
    from hocal.io import read_calibration_table, write_calibration_table
    from hocal.mixture import RngSeed, project_k
    from hocal.moments import chebyshev_fit, estimate_moments
    from hocal.predset import build_mass_set, coverage, enlarge, moment_interval
    from hocal.synth import (
        BinaryRegression, RandomMixtureSpec, bayes_mixtures, gen_dataset, random_mixture,
        reference_table,
    )
    from hocal.transport import w1_lattice

    calls = []
    original = SimplexPoint.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    def no_support(self):
        raise AssertionError("a library path read Mixture.support")

    monkeypatch.setattr(SimplexPoint, "__post_init__", counting)
    monkeypatch.setattr(Mixture, "support", property(no_support))
    SimplexPoint((0.5, 0.5))
    assert len(calls) == 1
    calls.clear()

    bayes_mixtures.cache_clear()
    reference_table.cache_clear()
    ds, ref = gen_dataset(BinaryRegression(), 3000, 6, RngSeed(5))
    table = posthoc_calibrate(ds, partitions=ref.partitions, fill_missing=True)
    write_calibration_table(table, tmp_path / "t.ldjson")
    table = read_calibration_table(tmp_path / "t.ldjson")
    koc_error(table, ref)
    for pid in table.partitions:
        estimate_moments(table.entries[pid], 6, eps=0.1)

    space, k = LabelSpace(3), 4
    spec = RandomMixtureSpec(num_labels=3, support_size=4, dirichlet_alpha=2.0)
    truth = {f"p{i}": random_mixture(spec, RngSeed(i)) for i in range(3)}
    counts = np.concatenate([
        RngSeed(10 + i).generator().multinomial(k, m.points_array()[0], size=200)
        for i, m in enumerate(truth.values())
    ])
    codes = np.repeat(np.arange(3), 200)
    table3 = posthoc_calibrate(SnapshotDataset._from_columns(counts, codes, list(truth), space, k))
    ref3 = CalibrationTable(
        entries={pid: project_k(m, k) for pid, m in truth.items()}, k=k, space=space
    )
    koc_error(table3, ref3)
    w1_lattice(table3.entries["p0"], ref3.entries["p0"], k)

    for g in (EntropySpec.shannon(), EntropySpec.brier(binary_scaled=True)):
        for tab, reference in ((table, ref), (table3, ref3)):
            for pid in tab.partitions:
                decompose(tab.entries[pid], g)
                loss_breakdown(tab.entries[pid], reference.entries[pid], g)
                coverage(enlarge(build_mass_set(tab.entries[pid], 0.1), 0.05), reference.entries[pid])
        chebyshev_fit(g, 8)
    for pid in table.partitions:
        mgf_diagnostic(table.entries[pid], ref.entries[pid])
        interval = moment_interval(estimate_moments(table.entries[pid], 6, eps=0.1), 0.2)
        coverage(interval, ref.entries[pid])
    assert calls == []
