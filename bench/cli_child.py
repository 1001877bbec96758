"""Run one nbcolor CLI command under tracing and write its tracer totals.

Usage: python3 bench/cli_child.py SPANS.json <nbcolor arguments...>

The traced cli-pipeline run starts every command through this file, so the
layer spans inside each child reach the parent.  The exit code is the CLI's.
"""

import sys

from tracing import Tracer


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    import nbcolor.cli

    tracer = Tracer()
    tracer.install()
    try:
        return nbcolor.cli.run(args)
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
