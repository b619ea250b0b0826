"""Run one CLI command with the tracer installed.

  python3 perfbench/traced_cli.py SPANS.json <liedouble arguments...>

Output and exit code are the command's own; the collected spans and counters
are written to SPANS.json when the command ends.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import liedouble.cli  # noqa: E402  (imports every liedouble module)

import tracing  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.on = True
    try:
        code = liedouble.cli.main(argv)
    finally:
        tracer.on = False
        tracing.write(out_path, tracer.dump())
    return code


if __name__ == "__main__":
    sys.exit(main())
