#!/usr/bin/env python3
"""Build and run the resoc benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --c-ref S --limit-cycles N --ref-interarrival N \\
        --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (build output goes to stderr), then
runs it with the same arguments. The benchmark's last line of stdout is
its JSON result. Exits non-zero if the build or the run fails.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = subprocess.run(
        ["dune", "build", "--root", root, "./perfbench/main.exe"],
        cwd=root,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    sys.stdout.flush()
    run = subprocess.run([exe] + sys.argv[1:], cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
