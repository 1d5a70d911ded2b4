"""The lattice sweep: projections and certified W1 solves through the library API.

    python3 bench/sweep.py --seed N --seconds S --mode setup|run|trace --out RESULT.json

Every pair of random mixtures (support 4, Dirichlet alpha 2) runs `project_k`
on both, the dense-LP `wasserstein1(f, h)`, the projection cost
`wasserstein1(f, project_k(f))` and `w1_lattice` on the projected pair. A
round is one pair for each (labels, k) config of the grid; the next pair
starts when the previous one has finished.

Modes: `setup` times `import hocal` plus round 0 (the first call per config
fills the lattice and move-graph caches) and exits. `run` does the same, then
repeats rounds for S seconds, with a reference computation (speed.py) after
each round. `trace` runs a fixed number of rounds twice, once untraced and once
with a span around each call. The result goes to RESULT.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import time
from types import SimpleNamespace

import probes
import speed
from tracing import Tracer, self_times

GRID = ((3, 8), (3, 16), (3, 32), (4, 8), (4, 16), (4, 24))
SUPPORT = 4
DIRICHLET_ALPHA = 2.0
PROJECTION_CAP = 10_000
TRACE_ROUNDS = 4
# w1_lattice is checked against the dense LP on the projected pair restricted
# to its heaviest points: the full (4, 24) pair would be a 2925 x 2925 LP
LP_CHECK_POINTS = 160
LP_CHECK_TOL = 1e-9
BOUND_TOL = 1e-8


def config_name(l: int, k: int) -> str:
    return f"l{l}k{k}"


class Sweep:
    def __init__(self, seed: int, hocal, np):
        self.seed = seed
        self.hocal = hocal
        self.np = np
        self.ops = SimpleNamespace(
            project_k=hocal.project_k,
            wasserstein1=hocal.wasserstein1,
            w1_lattice=hocal.w1_lattice,
        )
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)

    def pair(self, config: int, index: int):
        """Pair `index` of one config; a pure function of the seed."""
        l = GRID[config][0]
        rng = self.np.random.default_rng([self.seed, config, index])
        space = self.hocal.LabelSpace(l)

        def draw():
            points = rng.dirichlet(self.np.full(l, DIRICHLET_ALPHA), size=SUPPORT)
            weights = rng.dirichlet(self.np.ones(SUPPORT))
            return self.hocal.mixture_from_arrays(points, weights, space)

        return draw(), draw()

    def solve(self, l: int, k: int, f, h) -> tuple:
        ops = self.ops
        pf, ph = ops.project_k(f, k), ops.project_k(h, k)
        direct, _ = ops.wasserstein1(f, h)
        projection, _ = ops.wasserstein1(f, pf, support_cap=PROJECTION_CAP)
        projected = ops.w1_lattice(pf, ph, k)
        return f.size, h.size, pf.size, ph.size, direct, projection, projected

    def round(self, index: int, tracer=None) -> tuple:
        """(seconds spent solving, one result per config) for round `index`."""
        pairs = [self.pair(c, index) for c in range(len(GRID))]
        results = []
        busy = 0.0
        for (l, k), (f, h) in zip(GRID, pairs):
            self.attempted += 1
            span = tracer.begin("sweep.pair." + config_name(l, k)) if tracer else None
            start = time.perf_counter()
            try:
                out = self.solve(l, k, f, h)
            except Exception as exc:  # a failed op is counted, the sweep goes on
                out = None
                self.fail(f"{config_name(l, k)} pair {index}: {exc!r}")
            busy += time.perf_counter() - start
            if span is not None:
                tracer.end(span)
            if out is not None:
                self.check_bounds(f"{config_name(l, k)} pair {index}", l, k, out)
            results.append(out)
        return busy, results

    def check_bounds(self, where: str, l: int, k: int, out: tuple):
        """The projection bound and the sandwich, as in the acceptance criteria."""
        direct, projection, projected = out[4:]
        if projection > l / (2.0 * math.sqrt(k)) + BOUND_TOL:
            self.fail(f"{where}: W1(f, proj f) = {projection} above l/(2 sqrt k)")
        elif projected > direct + BOUND_TOL:
            self.fail(f"{where}: W1(proj f, proj h) = {projected} above W1(f, h) = {direct}")
        elif direct > projected + l / math.sqrt(k) + BOUND_TOL:
            self.fail(f"{where}: W1(f, h) = {direct} above the sandwich")

    def check_lattice_against_lp(self):
        """w1_lattice equals the dense LP on pair 0's heaviest lattice points."""
        hocal, np = self.hocal, self.np
        for config, (l, k) in enumerate(GRID):
            self.attempted += 1
            sides = []
            for m in self.pair(config, 0):
                proj = hocal.project_k(m, k)
                weights = proj.weights_array()
                keep = np.argsort(-weights, kind="stable")[:LP_CHECK_POINTS]
                sides.append(hocal.mixture_from_arrays(
                    proj.points_array()[keep], weights[keep] / weights[keep].sum(), proj.space))
            try:
                lp, _ = hocal.wasserstein1(*sides, method="lp")
                lattice = hocal.w1_lattice(*sides, k)
            except Exception as exc:  # reported as a failed op
                self.fail(f"{config_name(l, k)}: LP cross-check raised {exc!r}")
                continue
            if abs(lp - lattice) > LP_CHECK_TOL:
                self.fail(f"{config_name(l, k)}: w1_lattice {lattice} != dense LP {lp}")


def counts_of(rounds) -> dict:
    """Exact work counts implied by the results of some rounds."""
    out = {"mixture.project_k_calls": 0, "mixture.projected_support": 0,
           "transport.lp_calls": 0, "transport.lp_vars": 0,
           "transport.lattice_calls": 0, "transport.lattice_nodes": 0,
           "transport.lattice_edges": 0}
    for results in rounds:
        for (l, k), res in zip(GRID, results):
            if res is None:
                continue
            f_size, h_size, pf_size, ph_size = res[:4]
            nodes, edges = probes.lattice_size(l, k)
            out["mixture.project_k_calls"] += 2
            out["mixture.projected_support"] += pf_size + ph_size
            out["transport.lp_calls"] += 2
            out["transport.lp_vars"] += f_size * h_size + f_size * pf_size
            out["transport.lattice_calls"] += 1
            out["transport.lattice_nodes"] += nodes
            out["transport.lattice_edges"] += edges
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import hocal
    import numpy as np

    sweep = Sweep(args.seed, hocal, np)
    _, first = sweep.round(0)
    result = {"setup_s": time.perf_counter() - start}
    samples = []
    if args.mode == "run":
        round_s, rounds = [], []
        loop_start = time.perf_counter()
        while True:
            busy, results = sweep.round(len(rounds))
            round_s.append(busy)
            rounds.append(results)
            samples.append(speed.reference_s())
            elapsed = time.perf_counter() - loop_start
            if elapsed + elapsed / len(rounds) > args.seconds:
                break
        if rounds[0] != first:
            sweep.errors.append("round 0 differs from the same pairs solved at set-up")
        result["round_s"] = round_s
    elif args.mode == "trace":
        result.update(trace(sweep, first))
    if args.mode != "setup":
        sweep.check_lattice_against_lp()
    result.update(speed=samples, attempted=sweep.attempted, failed=sweep.failed,
                  errors=sweep.errors[:20])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def trace(sweep: Sweep, first) -> dict:
    """TRACE_ROUNDS rounds, each once untraced and once traced."""
    # rounds alternate untraced and traced, so that slow drifts in the
    # machine's load fall on both sides of the overhead alike
    tracer = Tracer("sweep")
    untraced, traced = [], []
    for i in range(TRACE_ROUNDS):
        untraced.append(sweep.round(i))
        probes.install_sweep(tracer, sweep.ops)
        try:
            traced.append(sweep.round(i, tracer))
        finally:
            tracer.unpatch()
    if [r for _, r in traced] != [r for _, r in untraced] or untraced[0][1] != first:
        sweep.errors.append("traced rounds differ from the same rounds untraced")
    expected = counts_of(r for _, r in untraced)
    for key, value in expected.items():
        if tracer.counts.get(key, 0) != value:
            sweep.errors.append(f"trace count {key} = {tracer.counts.get(key, 0)}, expected {value}")
    lattice_ms = {}
    spans = tracer.spans
    for l, k in GRID:
        parent = "sweep.pair." + config_name(l, k)
        times = [end - start for name, start, end, p in spans
                 if name == "transport.lattice" and p >= 0 and spans[p][0] == parent]
        lattice_ms[config_name(l, k)] = 1000.0 * statistics.median(times) if times else 0.0
    return {
        "untraced_s": sum(busy for busy, _ in untraced),
        "traced_s": sum(busy for busy, _ in traced),
        "self_s": self_times(spans),
        "trace_counts": dict(tracer.counts),
        "lattice_ms_p50": lattice_ms,
    }


if __name__ == "__main__":
    raise SystemExit(main())
