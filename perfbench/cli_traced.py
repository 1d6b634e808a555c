"""Traced CLI child: wraps the package's public functions, then runs the CLI.

    python perfbench/cli_traced.py SPANS_JSON -- CLI_ARGS...

The package is imported under a ``cli.import`` span and
``wishartscape.cli.main(CLI_ARGS)`` runs under a ``cli.main`` span.  Spans
are kept in memory and written to SPANS_JSON when main returns; the exit
code is main's.
"""

from __future__ import annotations

import importlib
import json
import sys

from layers import CLI_IMPORT, CLI_MAIN, SPECS
from tracer import Tracer


def main(argv) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: cli_traced.py SPANS_JSON -- CLI_ARGS...")
    tracer = Tracer()
    cli = tracer.span(CLI_IMPORT, importlib.import_module, "wishartscape.cli")
    missing = tracer.install("wishartscape", SPECS)
    try:
        code = tracer.span(CLI_MAIN, cli.main, cli_args)
    finally:
        tracer.restore()
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.take(), "missing": [s.function for s in missing]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
