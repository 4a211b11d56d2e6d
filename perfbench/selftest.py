"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at the `tiny` input size
(about 10 s in all) and checks that the result line has exactly the declared
keys, that every metric BENCHMARK.json names is emitted with its unit, that no
op failed, and that the info line carries the machine fields.  It also checks
that the benchmark refuses to run, printing no result, in a directory holding
only BENCHMARK.json and perfbench/.  Prints every problem found and exits
non-zero if there is any.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MACHINE_KEYS = {"nproc", "cpu_count", "cpu_model", "python", "numpy", "sclab", "commit"}


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    *_, info_line, result_line = proc.stdout.splitlines()
    info, result = json.loads(info_line)["info"], json.loads(result_line)
    declared = spec["per_layer" if trace else "end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or info.get("fail_ratio") != 0:
        problems.append(f"failed ops: {info.get('failures')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')!r}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    if not all(isinstance(m.get("value"), (int, float)) for m in result.get("metrics", {}).values()):
        problems.append("a metric value is not a number")
    if not trace and not all(result["metrics"][m["name"]]["value"] > 0 for m in declared):
        problems.append("an end-to-end metric is 0")
    if set(info.get("machine", {})) != MACHINE_KEYS:
        problems.append(f"machine info keys {sorted(info.get('machine', {}))}")
    return [f"{where}: {p}" for p in problems]


def check_bare():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "streams", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the benchmark ran without the program"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for p in problems:
        print(p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
