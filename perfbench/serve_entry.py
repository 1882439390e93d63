"""Traced query server: ``python -m repro serve`` with layer wrappers.

The traced ``serve_predict`` run starts the server through this script
instead of ``python -m repro serve``: same process topology, same CLI
arguments, but the server-side layers (``json`` decode/encode in
``repro.serve.server``, admission, ``predict_points`` and the kernels
below it) are wrapped before the CLI runs.  When the server has
drained and returned, the wrappers are removed and the spans are
written to the JSON file named by the first argument.

    python3 perfbench/serve_entry.py SPANS.json MODEL --port 0
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        from repro.cli import main as cli_main

        code = cli_main(["serve", *cli_args])
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump({"spans": tracer.take(),
                       "restored": tracer.restored()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
