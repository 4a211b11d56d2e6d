"""One set-up: import sclab, then write one workload's inputs.

    python3 perfbench/synth.py WORKLOAD SIZE SEED DIR

Prints the seconds both took, rescaled to the reference host speed (see
probe.py).  run.py runs this in a fresh helper process per
set-up, so the import is a cold one each time and the memory that input
synthesis needs never counts toward the measured process's peak.
"""

import sys
import time

import run


def main(argv):
    name, size, seed, root = argv
    start = time.perf_counter()
    run.import_sclab()
    import workloads

    workloads.WORKLOADS[name](size, int(seed), root).setup()
    took = time.perf_counter() - start
    import probe  # numpy is loaded by now

    print(probe.reference_seconds(took, probe.probe_seconds(), probe.probe_seconds()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
