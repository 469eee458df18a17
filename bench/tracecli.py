"""Traced stand-in for the ``ringwave`` console script.

    python3 bench/tracecli.py TRACE_JSON TRACE_ID <ringwave CLI arguments...>

Imports ``ringwave.cli``, installs the benchmark's layer tracer, runs the
command and writes the spans and per-function totals to TRACE_JSON.  Exits
with the command's own exit code.
"""

import sys

import tracing


def main() -> int:
    trace_path, trace_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import ringwave.cli

    tracer = tracing.Tracer(trace_id)
    tracing.install(tracer)
    try:
        return ringwave.cli.main(argv)
    finally:
        tracer.enabled = False
        tracing.dump(tracer, trace_path)


if __name__ == "__main__":
    sys.exit(main())
