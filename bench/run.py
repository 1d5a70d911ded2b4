"""Benchmark for hocal: two CLI pipelines and a lattice-W1 sweep.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports hocal from `src/`, so there is
nothing to build. Workloads, metrics and units are listed in BENCHMARK.json.

Load is a closed loop with one client: one process of the program at a time,
and the next CLI stage or sweep pair starts when the previous one is done.
BLAS and OpenMP threads are pinned to 1 in every child.

`--trace 0` measures the end-to-end metrics with tracing off, with times
scaled to a reference speed of the machine (see speed.py). `--trace 1` runs
the same work once untraced and once with a span around each call into a
hocal module, and reports per-layer self times and exact counts. Either way
the outputs are checked, and every repeat of the same seed must produce the
same bytes. The last line printed is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import pipelines
import speed
import sweep
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 3
MIN_PASSES = 2  # so that every run compares two passes of one seed
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hocal.cli; "
    "t = time.perf_counter() - t; import json, sys; "
    "print(json.dumps({'import_s': t, 'scipy': 'scipy.optimize' in sys.modules}))"
)
SWEEP_WORKLOAD = "sweep-lattice"


class BenchError(Exception):
    """The run cannot produce a result."""


class Run:
    """What one invocation measured and found."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.metrics = {}
        self.notes = {}
        self.speed = []  # reference times taken beside the measured work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)

    def child(self, argv, cwd: Path) -> subprocess.CompletedProcess:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        try:
            return subprocess.run(
                argv, cwd=cwd, env=self.env, capture_output=True, text=True, timeout=left
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(map(str, argv))}") from None


def single_line_json(text: str) -> bool:
    lines = text.splitlines()
    if len(lines) != 1:
        return False
    try:
        return isinstance(json.loads(lines[0]), dict)
    except ValueError:
        return False


def new_pass() -> dict:
    return {"wall_s": 0.0, "stage_s": {}, "stdout": []}


def run_stage(run: Run, pipe, i: int, work: Path, into: dict, spans_dir: Path | None = None):
    """Stage i of the pipeline in a fresh interpreter, added to the pass `into`."""
    stage, args = pipe.stages[i]
    if spans_dir is None:
        argv = [sys.executable, "-m", "hocal.cli", *args]
    else:
        argv = [sys.executable, str(BENCH / "traced_stage.py"),
                str(spans_dir / f"{i}.json"), f"{pipe.name}/{i}", *args]
    run.speed.append(speed.reference_s())
    start = time.perf_counter()
    proc = run.child(argv, work)
    wall = time.perf_counter() - start
    into["wall_s"] += wall
    into["stage_s"][stage] = into["stage_s"].get(stage, 0.0) + wall
    into["stdout"].append(proc.stdout)
    run.attempted += 1
    if proc.returncode != 0 or not single_line_json(proc.stdout):
        run.failed += 1
        run.metrics["cli.exit_nonzero"] = run.metrics.get("cli.exit_nonzero", 0) + (
            proc.returncode != 0)
        run.errors.append(f"{stage} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")


def run_pipeline(run: Run, name: str, seed: int, seconds: float, traced: bool, work: Path):
    """Passes of every stage, checked, and compared byte for byte with the first."""
    pipe = pipelines.WORKLOADS[name](seed)
    data_dir = work / "data"
    data_dir.mkdir(parents=True)
    pipe.prepare(data_dir)
    imports = []
    for _ in range(SETUP_REPEATS):
        run.speed.append(speed.reference_s())
        imports.append(json.loads(run.child([sys.executable, "-c", IMPORT_PROBE], work).stdout))
    run.notes["setup_wall_s"] = statistics.median(p["import_s"] for p in imports)

    passes = [new_pass()]
    if traced:
        # each stage runs untraced, then traced, so that slow drifts in the
        # machine's load fall on both sides of trace.overhead_s alike
        spans_dir = work / "spans"
        spans_dir.mkdir()
        traced_pass = new_pass()
        for i in range(len(pipe.stages)):
            run_stage(run, pipe, i, data_dir, passes[0])
            untraced = pipelines.digests(data_dir)
            run_stage(run, pipe, i, data_dir, traced_pass, spans_dir)
            if pipelines.digests(data_dir) != untraced:
                run.errors.append(f"traced stage {i} wrote other bytes than the untraced one")
        if traced_pass["stdout"] != passes[0]["stdout"]:
            run.errors.append("the traced stages printed other summaries than the untraced ones")
    else:
        for i in range(len(pipe.stages)):
            run_stage(run, pipe, i, data_dir, passes[0])
        passes[0]["digests"] = pipelines.digests(data_dir)
    if run.failed == 0:
        run.attempted += 1  # the output check is an op of its own
        try:
            problems = pipe.check(data_dir)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"outputs unreadable: {exc!r}"]
        run.failed += bool(problems)
        run.errors += problems
    if traced:
        if run.failed == 0:
            pipeline_layers(run, pipe, data_dir, spans_dir, passes[0], traced_pass)
    else:
        while run.failed == 0:
            busy = sum(p["wall_s"] for p in passes)
            mean = busy / len(passes)
            if len(passes) >= MIN_PASSES and busy + mean > seconds:
                break
            if run.deadline - time.monotonic() < 2.0 * mean:
                break
            passes.append(new_pass())
            for i in range(len(pipe.stages)):
                run_stage(run, pipe, i, data_dir, passes[-1])
            passes[-1]["digests"] = pipelines.digests(data_dir)
            if any(passes[-1][key] != passes[0][key] for key in ("digests", "stdout")):
                run.errors.append(f"pass {len(passes)} wrote other bytes than pass 1")
        run.notes["pass_wall_s"] = statistics.fmean(p["wall_s"] for p in passes)
        run.notes["pass_walls"] = [p["wall_s"] for p in passes]
    run.notes["passes"] = len(passes)
    for stage in {s for s, _ in pipe.stages}:
        run.metrics[f"cli.{stage}_s"] = statistics.fmean(p["stage_s"][stage] for p in passes)


def pipeline_layers(run: Run, pipe, data_dir: Path, spans_dir: Path, untraced: dict, traced: dict):
    """Per-layer self times and counts from the spans of one traced pass."""
    self_s, counts = {}, {}
    for i in range(len(pipe.stages)):
        rec = json.loads((spans_dir / f"{i}.json").read_text())
        for name, value in tracing.self_times(rec["spans"]).items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in rec["counts"].items():
            counts[name] = max(counts.get(name, 0), value) if name == "cli.scipy_at_import" \
                else counts.get(name, 0) + value
    for key, value in pipe.counts(data_dir).items():
        if counts.get(key, 0) != value:
            run.errors.append(f"trace count {key} = {counts.get(key, 0)}, outputs imply {value}")
    stages = {f"cli.{s}" for s, _ in pipe.stages}
    layer_s = {name: value for name, value in self_s.items() if name not in stages}
    run.metrics.update({f"{name}_s": value for name, value in layer_s.items()})
    run.metrics.update(counts)
    run.metrics["io.dataset_bytes"] = (data_dir / "data.ldjson").stat().st_size
    run.metrics["io.table_bytes"] = (data_dir / "table.ldjson").stat().st_size
    run.metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    run.metrics["trace.unattributed_s"] = untraced["wall_s"] - sum(layer_s.values())


def run_sweep(run: Run, seed: int, seconds: float, traced: bool, work: Path):
    work.mkdir(parents=True)

    def child(mode: str, index: int) -> dict:
        out = work / f"sweep-{index}.json"
        proc = run.child([sys.executable, str(BENCH / "sweep.py"), "--seed", str(seed),
                          "--seconds", str(seconds), "--mode", mode, "--out", str(out)], work)
        if proc.returncode != 0:
            raise BenchError(f"sweep {mode} exited {proc.returncode}: {proc.stderr[-500:]}")
        res = json.loads(out.read_text())
        run.speed += res["speed"]
        run.attempted += res["attempted"]
        run.failed += res["failed"]
        for message in res["errors"]:
            run.errors.append(message)
        return res

    if traced:
        res = child("trace", 0)
        self_s = {n: v for n, v in res["self_s"].items() if not n.startswith("sweep.")}
        run.metrics.update({f"{name}_s": value for name, value in self_s.items()})
        run.metrics.update(res["trace_counts"])
        for config, ms in res["lattice_ms_p50"].items():
            run.metrics[f"transport.lattice_ms_p50.{config}"] = ms
        run.metrics["trace.overhead_s"] = res["traced_s"] - res["untraced_s"]
        run.metrics["trace.unattributed_s"] = res["untraced_s"] - sum(self_s.values())
        return
    setups = [child("setup", i)["setup_s"] for i in range(1, SETUP_REPEATS)]
    res = child("run", 0)
    setups.append(res["setup_s"])
    run.notes["setup_wall_s"] = statistics.median(setups)
    run.notes["pass_wall_s"] = statistics.fmean(res["round_s"])
    run.notes["rounds"] = len(res["round_s"])
    run.notes["pairs_per_s"] = len(sweep.GRID) / run.notes["pass_wall_s"]


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "thread_env": THREAD_ENV,
        "loadavg_before": os.getloadavg(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(pipelines.WORKLOADS) + [SWEEP_WORKLOAD])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hocal" / "__init__.py").is_file():
        raise BenchError("no hocal sources under src/hocal; run from the root of a checkout")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()
    print("env", json.dumps(env, sort_keys=True), flush=True)

    run = Run(time.monotonic() + RUN_DEADLINE_S)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    compileall.compile_dir(ROOT / "src", quiet=1)
    try:
        if args.workload == SWEEP_WORKLOAD:
            run_sweep(run, args.seed, args.seconds, bool(args.trace), work)
        else:
            run_pipeline(run, args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        factor = speed.scale(run.speed)
        run.notes["speed_scale"] = factor
        run.metrics["setup_s"] = run.notes["setup_wall_s"] * factor
        run.metrics["pass_s"] = run.notes["pass_wall_s"] * factor
        run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    for message in run.errors:
        print("error:", message, file=sys.stderr)
    print("loadavg_after", json.dumps(os.getloadavg()))
    for key, value in run.notes.items():
        print(f"{key} = {value}")
    print(f"fail_rate = {run.failed / max(run.attempted, 1)} ({run.failed}/{run.attempted} ops)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": run.metrics.get(m["name"], 0), "unit": m["unit"]}
        print(f"{m['name']} = {metrics[m['name']]['value']} {m['unit']}")
    print(json.dumps({
        "correct": not run.errors and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        raise SystemExit(1)
