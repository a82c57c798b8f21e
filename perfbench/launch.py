"""Run one ``repro`` CLI command with the benchmark's tracer installed.

Usage::

    python perfbench/launch.py --spans OUT.json -- report full --seed 1
    python perfbench/launch.py --spans OUT.json -- serve --port 0

The wrappers go in before ``repro.cli.main`` runs, so the command is
traced from its first call.  The spans are written to ``OUT.json``
when the command returns, also when it ends on SIGINT (which the CLI
turns into exit code 130, the way a served process is stopped).
"""

from __future__ import annotations

import sys

from tracer import Tracer, clock, install


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: launch.py --spans OUT.json -- <repro arguments>",
              file=sys.stderr)
        return 2
    start = clock()
    tracer = install(Tracer())  # imports repro.cli and every traced layer
    tracer.record("import.repro", start, clock())
    import repro.cli

    try:
        return repro.cli.main(argv[3:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
