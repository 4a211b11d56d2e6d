"""Record a before/after benchmark comparison as BENCH_<name>.json.

Usage (from the repository root):

    python3 tools/record_bench.py --out BENCH_14.json
    python3 tools/record_bench.py --base HEAD~1 --head HEAD --pairs 10 --seconds 28

Each side is exported with `git archive` into its own fresh directory, and
there the unchanged `perfbench/run.py` of that side runs each workload with
`--trace 0`.  `--head` defaults to the working tree (its tracked and staged
files, through `git stash create`, which leaves the tree as it is).  Runs
alternate: in pair i the base goes first when i is even, the head when it is
odd, so drift in host speed falls on both sides alike.  For every end-to-end
metric the file holds each side's runs, median and quartiles, and the pairs
the head won (ties count for neither), plus the machine (nproc, CPU, Python,
numpy) and the git tree hash of each side's `src`.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tables", "upscale", "merge", "streams")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="record a before/after benchmark comparison")
    p.add_argument("--base", default="HEAD", help="git revision of the parent side (default HEAD)")
    p.add_argument("--head", default=None,
                   help="git revision of the changed side (default: the working tree)")
    p.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_14.json")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--seed", type=int, default=1)
    return p.parse_args(argv)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest):
    """The files of `rev` in `dest`, as `git archive` writes them."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree, workload, seconds, seed):
    """The `metrics` of one perfbench run in `tree`, value by name."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=20 * seconds + 600,
    )
    if child.returncode != 0:
        raise SystemExit(f"record_bench: {workload} failed in {tree}: {child.stderr.strip()}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def machine():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None):
    args = parse_args(argv)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base = git("rev-parse", args.base)
    head = git("rev-parse", args.head) if args.head else git("stash", "create")
    head = head or git("rev-parse", "HEAD")  # a clean tree is HEAD
    work = Path(tempfile.mkdtemp(prefix="record_bench-"))
    try:
        trees = {"base": work / "base", "head": work / "head"}
        export(base, trees["base"])
        export(head, trees["head"])
        results = {}
        for workload in args.workloads.split(","):
            runs = {"base": [], "head": []}
            for i in range(args.pairs):
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    runs[side].append(run_once(trees[side], workload, args.seconds, args.seed))
                    print(f"{workload} pair {i} {side}: wall_s {runs[side][-1]['wall_s']:.4f}",
                          file=sys.stderr)
            results[workload] = {}
            for name, direction in better.items():
                sides = {side: [r[name] for r in runs[side]] for side in runs}
                sign = 1 if direction == "higher" else -1
                won = sum(sign * (h - b) > 0 for b, h in zip(sides["base"], sides["head"]))
                results[workload][name] = {
                    "better": direction,
                    "base": summary(sides["base"]),
                    "head": summary(sides["head"]),
                    "head_pairs_won": won,
                }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        # the src tree hashes name the program each side ran, committed or not
        "base": {"rev": args.base, "commit": base, "src_tree": git("rev-parse", f"{base}:src")},
        "head": {"rev": args.head or "working tree", "src_tree": git("rev-parse", f"{head}:src")},
        "machine": machine(),
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "trace": 0},
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
