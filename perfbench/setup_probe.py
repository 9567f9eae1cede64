"""Times one fresh set-up of a workload in its own interpreter: importing
the dualprec CLI, then the `dualprec gen` calls given as a JSON list of
argument lists on standard input.  Prints the elapsed seconds.

Usage: python3 setup_probe.py <src-dir> < gen_argvs.json
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    gen_argvs = json.load(sys.stdin)
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from dualprec import cli

    with contextlib.redirect_stdout(io.StringIO()):
        for argv in gen_argvs:
            rc = cli.main(argv)
            if rc != 0:
                print(f"setup: {' '.join(argv)} exited {rc}", file=sys.stderr)
                return 1
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
