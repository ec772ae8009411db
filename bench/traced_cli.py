"""Run one pathpca command with the benchmark's tracing installed.

    python3 bench/traced_cli.py SPANS_JSON ARG...

Runs ``pathpca.cli.main(ARG...)`` in this process and writes its spans and
counts to SPANS_JSON for the parent run to merge; exits with main's code.
The traced cli-solve run starts its pathpca processes through this file.
"""

import sys

import pathpca.cli
import tracing


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return pathpca.cli.main(sys.argv[2:])
    finally:
        tracer.write(sys.argv[1], {})


if __name__ == "__main__":
    sys.exit(main())
