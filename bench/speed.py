"""The machine's current speed, from a fixed reference computation.

The 2-core machine this benchmark was defined on drifts: the same work took
up to 1.7 times as long for tens of minutes at a time, and every process
slowed alike. So each run times a fixed computation between the units of
work it measures, and reports its times scaled to a machine on which the
reference takes REFERENCE_S. The reference mixes interpreter work (records
through json and grouping) with array work (numpy gather, sort and unique),
the two kinds of work hocal does. It shares no code with hocal, so a change to hocal moves
the scaled times and a drift of the machine does not. Runs also print the
unscaled wall times.
"""

import gc
import json
import math
import statistics
import time

# about the reference's time on the 2-core machine where the benchmark was defined
REFERENCE_S = 0.2
RECORDS = 12_000
ARRAY = 400_000


def reference_s() -> float:
    """Wall time of one reference computation.

    The cyclic garbage collector is off meanwhile, so the time does not depend
    on how many objects the calling process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _reference_s()
    finally:
        if enabled:
            gc.enable()


def _reference_s() -> float:
    import numpy as np  # here, so that importing this module does not load numpy

    start = time.perf_counter()
    records = [{"labels": [i % 2, i % 3, i % 5, i % 7], "partition": f"p{i % 24:02d}"}
               for i in range(RECORDS)]
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    groups = {}
    for rec in map(json.loads, text.splitlines()):
        groups.setdefault(rec["partition"], []).append(tuple(rec["labels"]))
    total = 0.0
    for pid in sorted(groups):
        total += sum(math.log1p(sum(s)) for s in sorted(groups[pid]))
    rng = np.random.default_rng(0)
    x = rng.random(ARRAY)
    for _ in range(3):
        x = np.sort(x[rng.integers(0, x.size, x.size)] + 0.5 * x)
        total += np.unique(np.round(x, 3)).size
    if not total > 0.0:
        raise RuntimeError("reference computation went wrong")
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor that takes wall times measured beside `samples` to reference speed."""
    return REFERENCE_S / statistics.fmean(samples)
