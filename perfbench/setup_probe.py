"""Set-up probe: import magbell and validate one workload's inputs, in a fresh interpreter.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>``; prints the
CLOCK_MONOTONIC time (``time.monotonic``) at which validation finished, so
that the parent can subtract the time it started this interpreter.
"""

import sys
import time

import workloads


def main(argv):
    workload, seed = argv[1], int(argv[2])
    root = workloads.repo_root()
    workloads.import_magbell(root)
    workloads.prepare(workloads.generate(workload, seed), root)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv)
