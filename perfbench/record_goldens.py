"""Record perfbench/goldens.json: the byte-exact outputs the benchmark expects.

Run once, from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_goldens.py

It runs one pass of every workload at the default seed, in both sizes, and
stores the `tables` stdout verbatim and a SHA-256 of every other CLI op's stdout
and output files.  Every output must first pass the independent oracles.  The
goldens pin behaviour: re-recording them to make a changed output pass defeats
the check.
"""

import contextlib
import json
import shutil
import sys

import run
import workloads


def record(sclab, size):
    stdout, digests = {}, {}
    for name, cls in workloads.WORKLOADS.items():
        root = run.ROOT / ".bench_work" / f"record-{name}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        try:
            workload = cls(size, workloads.DEFAULT_SEED, root)
            workload.setup()
            workload.prepare()
            history = [run.run_pass(sclab, workload.ops)]
            _, failed, notes = run.judge(workload, history, workloads.DEFAULT_SEED, {})
            if failed:
                raise SystemExit(f"{size}/{name}: outputs fail their oracles: {notes}")
            for op, (_, digest, _, _) in zip(workload.ops, history[0]):
                if name == "tables":
                    stdout[op.name] = op.stdout
                elif digest is not None:
                    digests[op.name] = digest
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return {"stdout": stdout, "sha256": digests}


def main():
    sclab = run.import_sclab()
    goldens = {"commit": run.git_commit()}
    goldens.update({size: record(sclab, size) for size in workloads.SIZES})
    (run.HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    with contextlib.suppress(OSError):
        (run.ROOT / ".bench_work").rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
