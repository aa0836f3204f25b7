"""Run one feedrank CLI subcommand in this process with the tracer installed.

    python3 bench/trace_boot.py SPANS_PATH SUBCOMMAND [ARGS...]

Wraps ``tracer.TARGETS``, calls ``feedrank.cli.main`` with the
remaining arguments, writes the spans to SPANS_PATH when the command
ends, and exits with the command's exit code. The benchmark starts one
such process per subcommand, because a warmed process would hide the
import and page-fault cost that users pay on every run.
"""

import sys

import feedrank.cli

from tracer import TARGETS, Tracer, install


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    absent = install(tracer, TARGETS)
    try:
        return feedrank.cli.main(cli_args)
    finally:
        tracer.write(spans_path, absent)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
