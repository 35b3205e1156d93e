"""Traced stand-in for ``python -m newton_strata`` in the cold-cli workload.

Usage: child.py SPANS_FILE ARGV...  Runs ``newton_strata.cli.main(ARGV)``
with the tracer installed and writes the spans, the start timestamp and the
import time of ``newton_strata.cli`` to SPANS_FILE as JSON.
"""

import time

T0 = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import newton_strata.__main__  # noqa: F401 - the same imports as `python -m newton_strata`
    from newton_strata import cli, hypersym, muord, pel, polygon, strata, weil

    import_ns = time.perf_counter_ns() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install([polygon, pel, hypersym, muord, strata, weil, cli])
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(spans_file, "w") as fh:
        json.dump({"t0": T0, "import_ns": import_ns, **tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
