"""Command-line surface.

Each subcommand reads/writes the flat-file formats from hocal.io and
prints a single-line JSON summary to stdout. Any error leaves a
single-line JSON diagnostic on stderr and a nonzero exit code: 1 for
domain/data errors, 2 for usage errors. Given identical arguments and
seed, outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

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
    print(_dump(payload))


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


class _UsageError(Exception):
    """A command line the parser refuses."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    """The `hocal` command line. `gen --seed` defaults to $HOCAL_SEED as it
    is when this runs; an empty value counts as unset."""
    root = _Parser(
        prog="hocal", description="Higher-order calibration from k-snapshot data.",
        add_help=False, allow_abbrev=False,
    )
    commands = root.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run):
        sub = commands.add_parser(
            name, help=run.__doc__, description=run.__doc__, add_help=False, allow_abbrev=False
        )
        sub.set_defaults(run=run)
        return sub.add_argument

    opt = command("gen", gen)
    opt("--nature", required=True, help="two-scenario-1 | two-scenario-2 | binary-regression")
    opt("--n", type=int, required=True, help="number of snapshot records")
    opt("--k", type=int, required=True, help="labels per snapshot")
    seed = os.environ.get("HOCAL_SEED") or None
    opt("--seed", type=int, required=seed is None, default=seed)
    opt("--out", required=True, help="dataset output path")
    opt("--ref", dest="ref_path", help="also write the exact reference table here")

    opt = command("calibrate", calibrate)
    opt("--data", required=True, help="snapshot dataset path")
    opt("--out", required=True, help="calibration table output path")
    opt("--reference", help="table whose partition keys must be covered")
    opt("--fill-missing", action="store_true", help="uniform fallback for empty partitions")

    opt = command("evaluate", evaluate)
    opt("--table", dest="table_path", required=True)
    opt("--reference", required=True)
    opt("--out", required=True, help="per-partition W1 CSV path")
    opt(
        "--support-cap", type=int, default=DEFAULT_SUPPORT_CAP,
        help="combined support cap of the HiGHS route; transport._route picks each "
        "partition's W1 route [default: %(default)s]",
    )

    opt = command("decompose", decompose_cmd)
    opt("--table", dest="table_path", required=True)
    opt("--entropy", dest="entropy_text", required=True, help="entropy spec, e.g. shannon2")
    opt("--out", required=True, help="per-partition uncertainty CSV path")

    opt = command("moments", moments_cmd)
    opt("--table", dest="table_path", required=True)
    opt("--eps", type=float, default=0.0, help="calibration error budget [default: %(default)s]")
    opt("--central", dest="central_j", type=int, help="also emit this central moment")
    opt("--out", required=True, help="per-partition moments CSV path")

    opt = command("predset", predset_cmd)
    opt("--table", dest="table_path", required=True)
    opt("--alpha", type=float, required=True, help="miscoverage level")
    opt("--kind", choices=["mass", "interval"], default="mass", help="[default: %(default)s]")
    opt("--delta", type=float, default=0.0,
        help="enlargement radius (mass sets) [default: %(default)s]")
    opt("--eps", type=float, default=0.0,
        help="calibration error budget (intervals) [default: %(default)s]")
    opt("--reference", help="audit coverage against this table")
    opt("--audit", dest="audit_path", help="coverage audit CSV path")
    opt("--out", required=True, help="per-partition set JSON-lines path")

    opt = command("bounds", bounds_cmd)
    opt("--l", dest="num_labels", type=int, required=True, help="number of labels")
    opt("--k", type=int, required=True)
    opt("--eps", type=float, required=True)
    opt("--delta", type=float, required=True)

    opt = command("fitpoly", fitpoly_cmd)
    opt("--entropy", dest="entropy_text", required=True)
    opt("--degree", type=int, required=True)
    opt("--out", help="optional JSON output path")

    opt = command("bin", bin_cmd)
    opt("--scores", required=True, help="CSV with argmax_class and max_prob columns")
    opt("--slices", type=int, default=10, help="slices of [0, 1] per class [default: %(default)s]")
    opt("--out", required=True, help="CSV path with an added partition column")

    for parser in (root, *commands.choices.values()):
        parser.add_argument("--help", action="help", help="Show this message and exit.")
    return root


# the options that take no value, and "--", which ends the options
_NO_VALUE = frozenset({"--help", "--fill-missing", "--"})


def _attach_values(argv) -> list:
    """argv with each option's value joined to it, `--eps=-1e-3`: argparse
    would read a value such as -1e-3 or -inf as an unknown option, where the
    option's type should judge it."""
    args, rest = [], iter(argv)
    for arg in rest:
        if arg.startswith("--") and "=" not in arg and arg not in _NO_VALUE:
            value = next(rest, None)
            if value is not None:
                arg = f"{arg}={value}"
        args.append(arg)
    return args


def _error(kind: str, message: str):
    print(json.dumps({"error": kind, "message": message}, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    """Run one `hocal` command: exit code 0, 1 for domain/data errors, 2 for
    usage errors, 130 when interrupted."""
    try:
        args = vars(_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv)))
    except _UsageError as exc:
        _error("usage", str(exc))
        return 2
    except SystemExit:
        # --help, having printed the help: every other parser exit is an error()
        return 0
    try:
        args.pop("run")(**args)
    except (HocalError, OSError) as exc:
        # OSError: a path that cannot be read or written
        _error(type(exc).__name__, str(exc))
        return 1
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
