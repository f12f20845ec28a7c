"""Launch ``serve-http`` with layer spans, for the traced run.

Usage: ``python perfbench/traced_server.py SPANS.json serve-http --port 0``

Runs the same CLI entry point as ``python -m repro serve-http`` with the
same arguments; the only difference is that the layer functions listed in
:mod:`perfbench.tracing` record spans.  On shutdown (SIGINT) the per-op
self times are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common, tracing  # noqa: E402

PROGRAM_MODULES = [
    "repro.experiments.cli",
    "repro.server.core",
    "repro.server.transport",
    "repro.service.serving",
    "repro.service.cache",
    "repro.service.index",
    "repro.service.requests",
    "repro.lis.semilocal",
    "repro.core.seaweed",
    "repro.core.dense",
    "repro.core.combine",
]


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    common.require_program()
    tracing.import_program(PROGRAM_MODULES)
    tracing.install(tracing.SERVER_LAYERS + tracing.CORE_LAYERS)
    from repro.experiments.cli import main as cli_main

    code = cli_main(cli_args)
    per_op = tracing.aggregate(tracing.SPANS)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({str(op): row for op, row in per_op.items()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
