"""Start ``stepassist serve`` with the layer tracer installed.

Usage: ``python3 perfbench/launch_server.py SPANS_OUT [serve flags...]``.
The wrappers go in before ``stepassist.harness.cli.main(["serve", ...])``
runs; when the server stops on SIGINT the spans are written to SPANS_OUT.
"""
from __future__ import annotations

import sys

from stepassist.harness import cli
from tracer import LAYER_TARGETS, SERVER_TARGETS, Tracer


def main(argv: list[str]) -> int:
    spans_out, serve_args = argv[0], argv[1:]
    tracer = Tracer().install(LAYER_TARGETS + SERVER_TARGETS)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
