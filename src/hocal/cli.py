"""Command-line surface.

Each subcommand reads/writes the flat-file formats from hocal.io and
prints a single-line JSON summary to stdout. Any error leaves a
single-line JSON diagnostic on stderr and a nonzero exit code: 1 for
domain/data errors, 2 for usage errors. Given identical arguments and
seed, outputs are byte-identical.
"""

from __future__ import annotations

import json
import math

import click

from . import synth
from .calibrate import hoc_bound, koc_error, posthoc_calibrate, required_samples
from .decompose import decompose
from .entropy import EntropySpec
from .errors import DomainError, FormatError, HocalError
from .io import (
    _dump,
    read_calibration_table,
    read_csv_rows,
    read_snapshot_dataset,
    write_calibration_table,
    write_csv,
    write_snapshot_dataset,
)
from .mixture import RngSeed
from .moments import central_moment, chebyshev_fit, estimate_moments
from .predset import build_mass_set, coverage, enlarge, moment_interval
from .simplex import LabelSpace, snapshot_space_size
from .synth import BinaryRegression, TwoScenario, gen_dataset
from .transport import DEFAULT_SUPPORT_CAP


def parse_entropy(text: str) -> EntropySpec:
    """Parse the entropy mini-language.

    shannon | shannonB (base B) | shannon-nat | brier | brier-scaled |
    exp:t1,t2,... | poly:c0,c1,...
    """
    t = text.strip().lower()
    if t.startswith("exp:"):
        return EntropySpec.exponential(_parse_numbers(text, t[4:]))
    if t.startswith("poly:"):
        return EntropySpec.polynomial(_parse_numbers(text, t[5:]))
    if t == "brier":
        return EntropySpec.brier()
    if t == "brier-scaled":
        return EntropySpec.brier(binary_scaled=True)
    if t == "shannon-nat":
        return EntropySpec.shannon(math.e)
    if t == "shannon":
        return EntropySpec.shannon()
    if t.startswith("shannon"):
        try:
            return EntropySpec.shannon(float(t[len("shannon"):]))
        except ValueError:
            pass
    raise DomainError(
        f"unrecognized entropy {text!r}; expected shannon[B], shannon-nat, "
        "brier, brier-scaled, exp:t1,..., or poly:c0,c1,..."
    )


def _parse_numbers(text: str, values: str) -> tuple:
    """The comma-separated numbers of an exp: or poly: entropy."""
    try:
        return tuple(float(x) for x in values.split(","))
    except ValueError:
        raise DomainError(f"entropy {text!r}: expected comma-separated numbers") from None


def parse_nature(text: str):
    t = text.strip().lower()
    if t == "two-scenario-1":
        return TwoScenario(which=1)
    if t == "two-scenario-2":
        return TwoScenario(which=2)
    if t == "binary-regression":
        return BinaryRegression()
    raise DomainError(
        f"unrecognized nature {text!r}; expected two-scenario-1, "
        "two-scenario-2, or binary-regression"
    )


def _echo_summary(payload: dict):
    click.echo(_dump(payload))


@click.group()
def cli():
    """Higher-order calibration from k-snapshot data."""


@cli.command()
@click.option("--nature", required=True, help="two-scenario-1 | two-scenario-2 | binary-regression")
@click.option("--n", "n", type=int, required=True, help="number of snapshot records")
@click.option("--k", type=int, required=True, help="labels per snapshot")
@click.option("--seed", type=int, required=True, envvar="HOCAL_SEED")
@click.option("--out", required=True, help="dataset output path")
@click.option("--ref", "ref_path", default=None, help="also write the exact reference table here")
def gen(nature, n, k, seed, out, ref_path):
    """Sample a synthetic snapshot dataset from a known nature."""
    spec = parse_nature(nature)
    ds = gen_dataset(spec, n, k, RngSeed(seed))
    # built before either file is written, so an over-cap k writes nothing;
    # looked up on the module, where bench/probes.py wraps it in traced runs
    ref = None if ref_path is None else synth.reference_table(spec, k)
    write_snapshot_dataset(ds, out)
    if ref is not None:
        write_calibration_table(ref, ref_path)
    _echo_summary(
        {
            "command": "gen",
            "k": k,
            "n": n,
            "num_labels": ds.space.num_labels,
            "out": out,
            "partitions": len(ds.partitions),
            "ref": ref_path,
        }
    )


@cli.command()
@click.option("--data", required=True, help="snapshot dataset path")
@click.option("--out", required=True, help="calibration table output path")
@click.option("--reference", default=None, help="table whose partition keys must be covered")
@click.option("--fill-missing", is_flag=True, help="uniform fallback for empty partitions")
def calibrate(data, out, reference, fill_missing):
    """Build the empirical k-th order calibration table."""
    ds = read_snapshot_dataset(data)
    partitions = None
    if reference is not None:
        partitions = read_calibration_table(reference).partitions
    table = posthoc_calibrate(ds, partitions=partitions, fill_missing=fill_missing)
    write_calibration_table(table, out)
    _echo_summary(
        {
            "command": "calibrate",
            "k": table.k,
            "out": out,
            "partitions": len(table.partitions),
            "records": len(ds),
        }
    )


@cli.command()
@click.option("--table", "table_path", required=True)
@click.option("--reference", required=True)
@click.option("--out", required=True, help="per-partition W1 CSV path")
@click.option(
    "--support-cap", type=int, default=DEFAULT_SUPPORT_CAP, show_default=True,
    help="combined support cap of the dense LP, which scores tables of 3 or more labels "
    "only where the lattice flow does not: partitions with at most two support pairs "
    "per single-label move of the size-k lattice, and lattices above 10^5 points; "
    "it binds only when both sides have more than 8 points",
)
def evaluate(table_path, reference, out, support_cap):
    """Per-partition Wasserstein-1 error of a table against a reference."""
    table = read_calibration_table(table_path)
    ref = read_calibration_table(reference)
    score = koc_error(table, ref, support_cap=support_cap)
    rows = [{"partition": p, "w1": score.per_partition[p]} for p in sorted(score.per_partition)]
    write_csv(out, rows, ["partition", "w1"])
    _echo_summary(
        {
            "command": "evaluate",
            "hoc_bound_worst": hoc_bound(score.worst, table.space, table.k),
            "out": out,
            "weighted_mean": score.weighted_mean,
            "worst": score.worst,
        }
    )


@cli.command("decompose")
@click.option("--table", "table_path", required=True)
@click.option("--entropy", "entropy_text", required=True, help="entropy spec, e.g. shannon2")
@click.option("--out", required=True, help="per-partition uncertainty CSV path")
def decompose_cmd(table_path, entropy_text, out):
    """Predictive/aleatoric/epistemic decomposition per partition."""
    table = read_calibration_table(table_path)
    g = parse_entropy(entropy_text)
    fields = ["partition", "pu", "au", "eu", "pu_tmi", "eu_tmi", "eu_rmi", "tmi_reason"]
    rows = []
    for pid in table.partitions:
        report = decompose(table.entries[pid], g)
        row = {"partition": pid}
        row.update({f: ("" if v is None else v) for f, v in report.to_dict().items()})
        rows.append(row)
    write_csv(out, rows, fields)
    _echo_summary(
        {
            "command": "decompose",
            "entropy": g.to_dict(),
            "out": out,
            "partitions": len(rows),
        }
    )


@cli.command("moments")
@click.option("--table", "table_path", required=True)
@click.option("--eps", type=float, default=0.0, show_default=True, help="calibration error budget")
@click.option("--central", "central_j", type=int, default=None, help="also emit this central moment")
@click.option("--out", required=True, help="per-partition moments CSV path")
def moments_cmd(table_path, eps, central_j, out):
    """Raw mixture moments (with error bounds) from a binary table."""
    table = read_calibration_table(table_path)
    k = table.k
    fields = ["partition"]
    fields += [f"moment_{i}" for i in range(1, k + 1)]
    fields += [f"bound_{i}" for i in range(1, k + 1)]
    if central_j is not None:
        fields += [f"central_{central_j}", f"central_{central_j}_bound"]
    rows = []
    for pid in table.partitions:
        mv = estimate_moments(table.entries[pid], k, eps)
        row = {"partition": pid}
        for i in range(1, k + 1):
            row[f"moment_{i}"] = mv.values[i - 1]
            row[f"bound_{i}"] = mv.bound(i)
        if central_j is not None:
            cj, cbound = central_moment(mv, central_j)
            row[f"central_{central_j}"] = cj
            row[f"central_{central_j}_bound"] = cbound
        rows.append(row)
    write_csv(out, rows, fields)
    _echo_summary({"command": "moments", "eps": eps, "k": k, "out": out, "partitions": len(rows)})


@cli.command("predset")
@click.option("--table", "table_path", required=True)
@click.option("--alpha", type=float, required=True, help="miscoverage level")
@click.option("--kind", type=click.Choice(["mass", "interval"]), default="mass", show_default=True)
@click.option("--delta", type=float, default=0.0, show_default=True, help="enlargement radius (mass sets)")
@click.option("--eps", type=float, default=0.0, show_default=True, help="calibration error budget (intervals)")
@click.option("--reference", default=None, help="audit coverage against this table")
@click.option("--audit", "audit_path", default=None, help="coverage audit CSV path")
@click.option("--out", required=True, help="per-partition set JSON-lines path")
def predset_cmd(table_path, alpha, kind, delta, eps, reference, audit_path, out):
    """Higher-order prediction sets per partition, optionally audited."""
    table = read_calibration_table(table_path)
    sets = {}
    for pid in table.partitions:
        if kind == "mass":
            s = enlarge(build_mass_set(table.entries[pid], alpha), delta)
        else:
            mv = estimate_moments(table.entries[pid], table.k, eps)
            s = moment_interval(mv, alpha)
        sets[pid] = s
    audit_rows = None
    if reference is not None:
        ref = read_calibration_table(reference)
        audit_rows = []
        for pid in table.partitions:
            if pid not in ref.entries:
                raise FormatError(f"reference table has no partition {pid!r}")
            audit_rows.append(
                {
                    "partition": pid,
                    "coverage": coverage(sets[pid], ref.entries[pid]),
                    "target": 1.0 - alpha,
                }
            )
    with open(out, "w", encoding="utf-8") as fh:
        for pid in table.partitions:
            rec = {"partition": pid}
            rec.update(sets[pid].to_dict())
            fh.write(_dump(rec) + "\n")
    summary = {
        "command": "predset",
        "alpha": alpha,
        "kind": kind,
        "out": out,
        "partitions": len(sets),
    }
    if audit_rows is not None:
        summary["min_coverage"] = min(r["coverage"] for r in audit_rows)
        if audit_path is not None:
            write_csv(audit_path, audit_rows, ["partition", "coverage", "target"])
            summary["audit"] = audit_path
    _echo_summary(summary)


@cli.command("bounds")
@click.option("--l", "num_labels", type=int, required=True, help="number of labels")
@click.option("--k", type=int, required=True)
@click.option("--eps", type=float, required=True)
@click.option("--delta", type=float, required=True)
def bounds_cmd(num_labels, k, eps, delta):
    """Sample-complexity and higher-order error bounds for a design."""
    space = LabelSpace(num_labels)
    _echo_summary(
        {
            "command": "bounds",
            "delta": delta,
            "eps": eps,
            "hoc_bound": hoc_bound(eps, space, k),
            "k": k,
            "lattice_size": snapshot_space_size(space, k),
            "num_labels": num_labels,
            "required_samples": required_samples(space, k, eps, delta),
        }
    )


@cli.command("fitpoly")
@click.option("--entropy", "entropy_text", required=True)
@click.option("--degree", type=int, required=True)
@click.option("--out", default=None, help="optional JSON output path")
def fitpoly_cmd(entropy_text, degree, out):
    """Chebyshev polynomial fit of a binary entropy, with measured error."""
    g = parse_entropy(entropy_text)
    pa = chebyshev_fit(g, degree)
    payload = {
        "coeff_bound": pa.coeff_bound,
        "coeffs": list(pa.coeffs),
        "degree": pa.degree,
        "sup_error": pa.sup_error,
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(_dump(payload) + "\n")
    summary = {"command": "fitpoly", "out": out}
    summary.update(payload)
    _echo_summary(summary)


@cli.command("bin")
@click.option("--scores", required=True, help="CSV with argmax_class and max_prob columns")
@click.option("--slices", type=int, default=10, show_default=True, help="slices of [0, 1] per class")
@click.option("--out", required=True, help="CSV path with an added partition column")
def bin_cmd(scores, slices, out):
    """Assign partition ids from first-order scores: c{class}_s{slice}."""
    if slices < 1:
        raise DomainError(f"need at least one slice, got {slices}")
    rows = read_csv_rows(scores)
    if not rows:
        raise FormatError(f"{scores}: no rows")
    out_rows = []
    for i, row in enumerate(rows, start=2):
        if "argmax_class" not in row or "max_prob" not in row:
            raise FormatError(f"{scores}: need argmax_class and max_prob columns", line=i)
        try:
            cls = int(row["argmax_class"])
            prob = float(row["max_prob"])
        except ValueError as exc:
            raise FormatError(f"{scores}: {exc}", line=i) from None
        if cls < 0:
            raise FormatError(f"{scores}: negative class {cls}", line=i)
        if not 0.0 <= prob <= 1.0:
            raise FormatError(f"{scores}: max_prob {prob} outside [0, 1]", line=i)
        s = min(int(prob * slices), slices - 1)
        new_row = dict(row)
        new_row["partition"] = f"c{cls}_s{s:02d}"
        out_rows.append(new_row)
    fields = list(rows[0].keys()) + ["partition"]
    write_csv(out, out_rows, fields)
    _echo_summary({"command": "bin", "out": out, "rows": len(out_rows), "slices": slices})


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except (HocalError, OSError) as exc:
        # OSError: a path that cannot be read or written
        click.echo(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            err=True,
        )
        return 1
    except click.ClickException as exc:
        click.echo(
            json.dumps({"error": "usage", "message": exc.format_message()}, sort_keys=True),
            err=True,
        )
        return 2
    except click.Abort:
        return 130
    return 0


if __name__ == "__main__":
    raise SystemExit(main())