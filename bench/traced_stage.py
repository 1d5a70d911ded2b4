"""Run one `hocal` CLI stage in-process, with a span around each public call.

    python3 bench/traced_stage.py SPANS.json RUN_ID STAGE [ARGS...]

The stage goes through `hocal.cli.main`, exactly as the `hocal` command does,
so it prints the same summary, writes the same files and exits with the same
code. The spans, and whether `import hocal.cli` loaded `scipy.optimize`, are
written to SPANS.json when the stage ends.
"""

import sys

import probes
from tracing import Tracer


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    with tracer.span("cli.import"):
        import hocal.cli
    tracer.counts["cli.scipy_at_import"] = int("scipy.optimize" in sys.modules)
    probes.install_cli(tracer)
    try:
        with tracer.span("cli." + argv[0]):
            code = hocal.cli.main(argv)
    finally:
        tracer.unpatch()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
