"""The two CLI pipeline workloads: inputs, stages and output checks.

Each stage is one `hocal` command in a fresh interpreter, run in a work
directory inside the checkout. The next stage starts when the previous one
has exited (one closed-loop client). Checks read the files the stages wrote
with this module's own parsers, never with hocal's.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

ALPHA = 0.1
DELTA = 0.1
COVERAGE_TOL = 1e-12
DECOMPOSE_TOL = 1e-12
TMI_TOL = 1e-8
MOMENT_TOL = 1e-9
WEIGHT_TOL = 1e-12


class Pipeline:
    """One CLI workload. `stages` are (stage, hocal arguments) in run order."""

    name = ""
    n = 0
    stages = ()

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, workdir: Path):
        """Write this workload's input files; untimed."""

    def check(self, workdir: Path) -> list:
        """Errors found in the outputs of one pass, as messages."""
        dataset = read_dataset(workdir / "data.ldjson")
        table = read_table(workdir / "table.ldjson")
        ref = read_table(workdir / "ref.ldjson")
        errors = []
        if dataset["n"] != self.n:
            errors.append(f"dataset has {dataset['n']} records, expected {self.n}")
        total = sum(e["count"] for e in table["entries"].values())
        if total != self.n:
            errors.append(f"table record counts sum to {total}, expected {self.n}")
        errors += check_table_counts(table, dataset)
        errors += check_decompose(read_csv(workdir / "uncertainty.csv"))
        w1 = {r["partition"]: float(r["w1"]) for r in read_csv(workdir / "w1.csv")}
        if set(w1) != set(ref["entries"]):
            errors.append("w1.csv does not list every reference partition")
        errors += check_coverage(read_csv(workdir / "audit.csv"), w1)
        return errors + self.check_more(workdir, dataset)

    def check_more(self, workdir: Path, dataset: dict) -> list:
        return []

    def counts(self, workdir: Path) -> dict:
        """Exact work counts a pass implies, from its output files."""
        table = read_table(workdir / "table.ldjson")
        ref = read_table(workdir / "ref.ldjson")
        rows = {r["partition"]: r for r in read_csv(workdir / "uncertainty.csv")}
        sizes = {p: len(e["points"]) for p, e in table["entries"].items()}
        lp = table["num_labels"] > 2
        return {
            "calibrate.records": sum(e["count"] for e in table["entries"].values()),
            "calibrate.partitions": len(sizes),
            "transport.lp_vars": sum(
                s * len(ref["entries"][p]["points"]) for p, s in sizes.items()
            ) if lp else 0,
            "decompose.tmi_pairs": sum(
                s * s for p, s in sizes.items() if rows[p]["eu_tmi"] != ""
            ),
        }


class BinaryPipeline(Pipeline):
    """The README pipeline on the binary-regression nature."""

    name = "pipeline-binary"
    n = 200_000
    k = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        self.stages = (
            ("gen", ["gen", "--nature", "binary-regression", "--n", str(self.n),
                     "--k", str(self.k), "--seed", str(seed),
                     "--out", "data.ldjson", "--ref", "ref.ldjson"]),
            ("calibrate", ["calibrate", "--data", "data.ldjson",
                           "--reference", "ref.ldjson", "--out", "table.ldjson"]),
            ("evaluate", ["evaluate", "--table", "table.ldjson",
                          "--reference", "ref.ldjson", "--out", "w1.csv"]),
            ("decompose", ["decompose", "--table", "table.ldjson",
                           "--entropy", "shannon2", "--out", "uncertainty.csv"]),
            ("moments", ["moments", "--table", "table.ldjson", "--eps", "0.05",
                         "--central", "2", "--out", "moments.csv"]),
            ("predset", ["predset", "--table", "table.ldjson", "--alpha", str(ALPHA),
                         "--delta", str(DELTA), "--reference", "ref.ldjson",
                         "--audit", "audit.csv", "--out", "sets.ldjson"]),
            ("predset", ["predset", "--table", "table.ldjson", "--alpha", str(ALPHA),
                         "--kind", "interval", "--eps", "0.05", "--out", "intervals.ldjson"]),
        )

    def check_more(self, workdir: Path, dataset: dict) -> list:
        """moment_1 is the record-weighted mean bias of each partition."""
        errors = []
        bias = dataset["counts"][:, 1] / dataset["k"]
        for row in read_csv(workdir / "moments.csv"):
            expected = float(bias[dataset["partition"] == row["partition"]].mean())
            if abs(float(row["moment_1"]) - expected) > MOMENT_TOL:
                errors.append(
                    f"{row['partition']}: moment_1 {row['moment_1']} != mean bias {expected}"
                )
        return errors


class MulticlassPipeline(Pipeline):
    """A 3-label, k = 16 dataset of random Dirichlet mixtures, written here."""

    name = "pipeline-multiclass"
    num_labels = 3
    k = 16
    partitions = 24
    per_partition = 4_000
    support = 4
    dirichlet_alpha = 2.0
    n = partitions * per_partition
    stages = (
        ("calibrate", ["calibrate", "--data", "data.ldjson",
                       "--reference", "ref.ldjson", "--out", "table.ldjson"]),
        ("evaluate", ["evaluate", "--table", "table.ldjson",
                      "--reference", "ref.ldjson", "--out", "w1.csv"]),
        ("decompose", ["decompose", "--table", "table.ldjson",
                       "--entropy", "brier", "--out", "uncertainty.csv"]),
        ("predset", ["predset", "--table", "table.ldjson", "--alpha", str(ALPHA),
                     "--delta", str(DELTA), "--reference", "ref.ldjson",
                     "--audit", "audit.csv", "--out", "sets.ldjson"]),
    )

    def prepare(self, workdir: Path):
        l, k = self.num_labels, self.k
        rng = np.random.default_rng([self.seed, l, k])
        lattice = np.array(compositions(k, l), dtype=np.int64)
        logcoef = np.array([math.lgamma(k + 1) - sum(math.lgamma(c + 1) for c in row)
                            for row in lattice])
        pids, counts, ref_lines = [], [], []
        for i in range(self.partitions):
            pid = f"p{i:02d}"
            points = rng.dirichlet(np.full(l, self.dirichlet_alpha), size=self.support)
            weights = rng.dirichlet(np.ones(self.support))
            comp = rng.choice(self.support, size=self.per_partition, p=weights)
            counts.append(rng.multinomial(k, points[comp]))
            pids += [pid] * self.per_partition
            # exact k-th order projection: multinomial masses on the lattice
            mass = weights @ np.exp(logcoef[None, :] + np.log(points) @ lattice.T)
            keep = mass > 0.0
            ref_lines.append({
                "count": None,
                "partition": pid,
                "points": (lattice[keep] / k).tolist(),
                "weights": mass[keep].tolist(),
            })
        counts = np.concatenate(counts)
        order = rng.permutation(len(pids))
        with open(workdir / "data.ldjson", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"format_version": 1, "k": k, "num_labels": l}) + "\n")
            for i in order:
                labels = [y for y, c in enumerate(counts[i]) for _ in range(c)]
                fh.write(json.dumps({"labels": labels, "partition": pids[i]}) + "\n")
        with open(workdir / "ref.ldjson", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"format_version": 1, "k": k, "kind": "calibration_table",
                                 "num_labels": l}) + "\n")
            for rec in ref_lines:
                fh.write(json.dumps(rec) + "\n")


WORKLOADS = {p.name: p for p in (BinaryPipeline, MulticlassPipeline)}


def compositions(total: int, slots: int) -> list:
    if slots == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total, -1, -1)
            for rest in compositions(total - first, slots - 1)]


def read_dataset(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        recs = [json.loads(line) for line in fh if line.strip()]
    labels = np.array([r["labels"] for r in recs], dtype=np.int64)
    counts = (labels[:, :, None] == np.arange(header["num_labels"])).sum(axis=1)
    return {
        "k": header["k"],
        "n": len(recs),
        "partition": np.array([r["partition"] for r in recs]),
        "counts": counts,
    }


def read_table(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        entries = {}
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                entries[rec["partition"]] = rec
    return {"k": header["k"], "num_labels": header["num_labels"], "entries": entries}


def read_csv(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_table_counts(table: dict, dataset: dict) -> list:
    """Each table entry is the empirical mixture of its partition's snapshots."""
    errors = []
    k = dataset["k"]
    for pid, entry in table["entries"].items():
        rows = dataset["counts"][dataset["partition"] == pid]
        if entry["count"] != len(rows):
            errors.append(f"{pid}: table count {entry['count']}, dataset has {len(rows)}")
            continue
        uniq, freq = np.unique(rows, axis=0, return_counts=True)
        expected = {tuple((u / k).tolist()): f / len(rows) for u, f in zip(uniq, freq)}
        got = dict(zip(map(tuple, entry["points"]), entry["weights"]))
        if set(got) != set(expected):
            errors.append(f"{pid}: table support differs from the dataset's snapshots")
        elif max(abs(got[p] - expected[p]) for p in got) > WEIGHT_TOL:
            errors.append(f"{pid}: table weights differ from snapshot frequencies")
    return errors


def check_decompose(rows: list) -> list:
    errors = []
    for row in rows:
        pu, au, eu = float(row["pu"]), float(row["au"]), float(row["eu"])
        if abs(pu - au - eu) > DECOMPOSE_TOL:
            errors.append(f"{row['partition']}: pu - au - eu = {pu - au - eu}")
        if row["eu_tmi"] != "":
            gap = float(row["eu_tmi"]) - eu - float(row["eu_rmi"])
            if abs(gap) > TMI_TOL:
                errors.append(f"{row['partition']}: eu_tmi - eu - eu_rmi = {gap}")
    return errors


def check_coverage(rows: list, w1: dict) -> list:
    """The paper's bound: coverage >= 1 - alpha - W1 / delta."""
    errors = []
    if not rows:
        errors.append("coverage audit is empty")
    for row in rows:
        bound = 1.0 - ALPHA - w1[row["partition"]] / DELTA
        if float(row["coverage"]) < bound - COVERAGE_TOL:
            errors.append(f"{row['partition']}: coverage {row['coverage']} below {bound}")
    return errors


def digests(workdir: Path) -> dict:
    """SHA-256 of every file in the work directory."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.iterdir()) if p.is_file()
    }
