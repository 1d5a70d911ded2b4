"""Where the traced runs put spans, and the exact counts they record.

Span names are `<module>.<function>` for the hocal module that owns the
function. Wrappers go on the module attribute through which the caller looks
the function up, so a call that one public function makes to another (for
example `koc_error` calling `wasserstein1`) gets its own child span.
"""

from __future__ import annotations

import math


def w1_route(args, kwargs) -> str:
    """The W1 route `wasserstein1` takes for these arguments: cdf or lp."""
    method = kwargs.get("method", args[3] if len(args) > 3 else "auto")
    if method == "auto":
        method = "cdf" if args[0].space.num_labels == 2 else "lp"
    return method


def _count_w1(counts, args, kwargs, result):
    route = w1_route(args, kwargs)
    counts[f"transport.{route}_calls"] += 1
    if route == "lp":
        counts["transport.lp_vars"] += args[0].size * args[1].size


def lattice_size(num_labels: int, k: int) -> tuple:
    """Nodes and directed single-label-move edges of the size-k lattice."""
    nodes = math.comb(k + num_labels - 1, num_labels - 1)
    # a move i -> j starts at every point with c_i >= 1: C(k-1+l-1, l-1) of them
    edges = num_labels * (num_labels - 1) * math.comb(k + num_labels - 2, num_labels - 1)
    return nodes, edges


def _count_lattice(counts, args, kwargs, result):
    nodes, edges = lattice_size(args[0].space.num_labels, args[2])
    counts["transport.lattice_calls"] += 1
    counts["transport.lattice_nodes"] += nodes
    counts["transport.lattice_edges"] += edges


def _count_project(counts, args, kwargs, result):
    counts["mixture.project_k_calls"] += 1
    counts["mixture.projected_support"] += result.size


def _count_calibrate(counts, args, kwargs, result):
    counts["calibrate.records"] += len(args[0].records)
    counts["calibrate.partitions"] += len(result.partitions)


def _count_decompose(counts, args, kwargs, result):
    counts["decompose.calls"] += 1
    if result.eu_tmi is not None:
        counts["decompose.tmi_pairs"] += args[0].size ** 2
    else:
        counts["decompose.tmi_skipped"] += 1


def _w1_span(args, kwargs) -> str:
    return "transport." + w1_route(args, kwargs)


# (attribute of hocal.cli, span name, counter)
CLI_CALLS = (
    ("read_snapshot_dataset", "io.read_dataset", None),
    ("write_snapshot_dataset", "io.write_dataset", None),
    ("read_calibration_table", "io.read_table", None),
    ("write_calibration_table", "io.write_table", None),
    ("gen_dataset", "synth.gen_dataset", None),
    ("posthoc_calibrate", "calibrate.posthoc_calibrate", _count_calibrate),
    ("koc_error", "calibrate.koc_error", None),
    ("decompose", "decompose.decompose", _count_decompose),
    ("estimate_moments", "moments.estimate_moments", None),
    ("build_mass_set", "predset.build_mass_set", None),
    ("moment_interval", "predset.moment_interval", None),
    ("coverage", "predset.coverage", None),
)


def install_cli(tracer):
    """Trace every public call a `hocal` CLI stage makes, and the nested ones."""
    import hocal.calibrate
    import hocal.cli
    import hocal.synth

    for attr, name, after in CLI_CALLS:
        tracer.patch(hocal.cli, attr, name, after)
    tracer.patch(hocal.synth, "reference_table", "synth.reference_table")
    tracer.patch(hocal.synth, "project_k", "mixture.project_k", _count_project)
    tracer.patch(hocal.calibrate, "wasserstein1", _w1_span, _count_w1, "transport.failures")


def install_sweep(tracer, ops):
    """Trace the calls the lattice sweep makes through its `ops` namespace."""
    tracer.patch(ops, "project_k", "mixture.project_k", _count_project)
    tracer.patch(ops, "wasserstein1", _w1_span, _count_w1, "transport.failures")
    tracer.patch(ops, "w1_lattice", "transport.lattice", _count_lattice, "transport.failures")
