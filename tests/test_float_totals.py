"""Float totals must not depend on the Python version.

Python 3.12 made `sum()` over floats compensated (Neumaier summation). Every
float total in hocal is a left-to-right running sum, so patching a
compensated `sum` into each hocal module must leave every output bit in place.
"""

import builtins
import importlib
import math
import pkgutil

import numpy as np

import hocal
from hocal.calibrate import SnapshotDataset, koc_error, posthoc_calibrate
from hocal.mixture import RngSeed, project_k
from hocal.simplex import LabelSpace, simplex_rows
from hocal.synth import RandomMixtureSpec, random_mixture


def compensated_sum(items, start=0):
    """`sum` as Python 3.12 computes it: exact on ints, Neumaier-compensated
    once a float takes part."""
    items = list(items)
    if isinstance(start, int) and all(isinstance(x, int) for x in items):
        return builtins.sum(items, start)
    total, comp = float(start), 0.0
    for x in map(float, items):
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def dataset(sizes, seed):
    """A binary k = 4 dataset with partitions of the given record counts."""
    gen = np.random.default_rng(seed)
    ones = np.concatenate([gen.integers(0, 5, size=n) for n in sizes])
    codes = np.repeat(np.arange(len(sizes)), sizes)
    names = [f"p{i}" for i in range(len(sizes))]
    return SnapshotDataset(np.column_stack([4 - ones, ones]), codes, names, LabelSpace(2), 4)


def fingerprint():
    """Hex bits of outputs whose float totals sum many terms."""
    out = []
    sizes = [10, 3, 7, 49, 100, 11]
    table = posthoc_calibrate(dataset(sizes, 1))
    reference = posthoc_calibrate(dataset(sizes, 2))
    for mix in list(table.entries.values()) + list(reference.entries.values()):
        out += [w.hex() for w in mix.weights_array().tolist()]
    out.append(koc_error(table, reference).weighted_mean.hex())
    rows = np.random.default_rng(3).dirichlet(np.ones(3), size=2000)
    rows /= rows.sum(axis=1, keepdims=True)
    out += [x.hex() for x in simplex_rows(rows).ravel().tolist()]
    spec = RandomMixtureSpec(num_labels=3, support_size=4, dirichlet_alpha=2.0)
    for seed in range(5):
        proj = project_k(random_mixture(spec, RngSeed(seed)), 8)
        out += [w.hex() for w in proj.weights_array().tolist()]
    return out


def left_to_right(items):
    """A `+=` loop from 0.0: the builtin `sum` over floats before Python 3.12."""
    total = 0.0
    for x in items:
        total += x
    return total


def test_compensated_sum_differs_from_a_running_sum():
    assert left_to_right([0.1] * 10) == 0.9999999999999999
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1, 2, 3]) == 6


def test_a_compensated_sum_moves_no_bit(monkeypatch):
    want = fingerprint()
    for info in pkgutil.iter_modules(hocal.__path__):
        module = importlib.import_module(f"hocal.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert fingerprint() == want
