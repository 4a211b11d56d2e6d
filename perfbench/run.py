"""sclab benchmark: one seeded workload, timed for a fixed budget.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 28 --trace 0

The program is imported from ./src, never from an installed copy.  Set-up is
importing sclab plus synthesising and writing the inputs; it runs seven times,
each in a fresh helper process (perfbench/synth.py), and its median is
reported.  Then whole passes over the workload's op list run until the next
one would overrun the budget.  Times are in reference seconds: raw seconds
rescaled by a host-speed probe run between ops (see probe.py).  `--trace 0` reports the end-to-end metrics from
unwrapped passes; `--trace 1` alternates unwrapped and span-wrapped passes and
reports the per-layer metrics.  Every output is checked after the timed passes;
a failed check counts toward `failed` and the run still reports.  The last
stdout line is the JSON result; the line before it carries machine info and
per-op detail.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Only the standard library is imported at module level: synth.py imports this
# module before it times the sclab (and so numpy) import.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="sclab benchmark")
    p.add_argument("--workload", required=True, choices=("tables", "upscale", "merge", "streams"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; `tiny` is for the self-test only")
    return p.parse_args(argv)


def import_sclab():
    """Import sclab from ./src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "sclab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sclab package under {src}")
    sys.path.insert(0, str(src))
    import sclab
    import sclab.cli

    if Path(sclab.__file__).resolve().parent != src / "sclab":
        raise SystemExit(f"perfbench: imported sclab from {sclab.__file__}, not {src}")
    return sclab


def machine_info(sclab):
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sclab": getattr(sclab, "__version__", "unknown"),
        "commit": git_commit(),
    }


def git_commit():
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def set_up(args, work_root):
    """Median reference seconds of SETUP_REPEATS set-ups, each in a fresh process."""
    took = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work_root, ignore_errors=True)
        work_root.mkdir(parents=True)
        child = subprocess.run(
            [sys.executable, str(HERE / "synth.py"), args.workload, args.size, str(args.seed),
             str(work_root)],
            capture_output=True, text=True, timeout=120,
        )
        if child.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed: {child.stderr.strip()}")
        took.append(float(child.stdout))
    return statistics.median(took)


def run_pass(sclab, ops, recorder=None):
    """One pass over `ops`; returns [(reference seconds, digest, failed, note)] per op.

    Each op is bracketed by host-speed probes and its time rescaled to the
    reference host (see probe.py), spans included.  Only `op.execute` is timed;
    digesting the outputs is not.
    """
    import probe
    import spans

    gc.collect()
    settled = []
    before = probe.probe_seconds()
    with spans.traced(recorder) if recorder is not None else contextlib.nullcontext():
        for op in ops:
            mark = recorder.snapshot() if recorder is not None else None
            start = time.perf_counter()
            try:
                result = op.execute(sclab)
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                took = time.perf_counter() - start
                outcome = (None, op.weight, f"raised {exc!r}")
            else:
                took = time.perf_counter() - start
                outcome = None
            after = probe.probe_seconds()
            if recorder is not None:
                recorder.rescale_since(mark, probe.reference_seconds(1.0, before, after))
            if outcome is None:
                try:
                    outcome = op.settle(result)
                except Exception as exc:  # e.g. an output file that was never written
                    outcome = (None, op.weight, f"output unreadable: {exc!r}")
            settled.append((probe.reference_seconds(took, before, after), *outcome))
            before = after
    return settled


def pass_seconds(passes):
    """Median over `passes` of one pass's reference seconds."""
    return statistics.median(sum(entry[0] for entry in p) for p in passes)


def measure(sclab, workload, budget, trace):
    """Whole passes until the next one would overrun `budget` seconds.

    With tracing, passes alternate unwrapped / wrapped, starting unwrapped.
    Returns (unwrapped passes, wrapped passes, per-layer metrics per wrapped pass).
    """
    import spans

    plain, wrapped, layer_runs = [], [], []
    start = time.perf_counter()
    while True:
        recorder = spans.Recorder() if trace and len(plain) > len(wrapped) else None
        settled = run_pass(sclab, workload.ops, recorder)
        if recorder is None:
            plain.append(settled)
        else:
            wrapped.append(settled)
            layer_runs.append(recorder.metrics() | {"trace.spans": recorder.spans})
        elapsed = time.perf_counter() - start
        typical = elapsed / (len(plain) + len(wrapped))
        if elapsed + typical > budget and (not trace or wrapped):
            return plain, wrapped, layer_runs


def judge(workload, history, seed, golden):
    """Count failed ops over every pass; returns (attempted, failed, notes)."""
    attempted = failed = 0
    notes = {}
    for index, op in enumerate(workload.ops):
        runs = [settled[index] for settled in history]
        _, final, final_bad, _ = runs[-1]
        try:
            problems = op.verify(final, golden, seed) if not final_bad else []
        except Exception as exc:  # a malformed output fails its check; the run goes on
            problems = [f"check raised {exc!r}"]
        for _, digest, bad, note in runs:
            attempted += op.weight
            if bad:
                failed += bad
                notes.setdefault(op.name, note)
            elif problems or digest != final:
                failed += op.weight
                notes.setdefault(op.name, "; ".join(problems) or "output differs between passes")
    return attempted, failed, notes


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    sclab = import_sclab()
    import workloads

    golden = json.loads((HERE / "goldens.json").read_text()).get(args.size, {})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    work_root = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = set_up(args, work_root)
        workload = workloads.WORKLOADS[args.workload](args.size, args.seed, work_root)
        workload.prepare()
        budget = args.seconds - (time.perf_counter() - started)
        plain, wrapped, layer_runs = measure(sclab, workload, budget, args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # the last pass run is the one whose outputs are on disk
        history = [p for pair in zip(plain, wrapped) for p in pair] + plain[len(wrapped):]
        attempted, failed, notes = judge(workload, history, args.seed, golden)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # stays while other runs use it
            work_root.parent.rmdir()

    wall_s = pass_seconds(plain)
    work_per_s = workload.work_per_pass / wall_s
    if args.trace:
        # counters repeat exactly, so median_low keeps them whole numbers
        metrics = {
            name: (statistics.median_low if isinstance(value, int) else statistics.median)(
                run[name] for run in layer_runs
            )
            for name, value in layer_runs[0].items()
        }
        metrics["trace.wall_s"] = pass_seconds(wrapped)
        metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / wall_s
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "work_per_s": work_per_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "machine": machine_info(sclab),
        "passes": {"plain": len(plain), "traced": len(wrapped)},
        "op_median_s": {
            op.name: statistics.median(p[i][0] for p in plain) for i, op in enumerate(workload.ops)
        },
        "work_per_pass": workload.work_per_pass,
        f"{workload.work_name}_per_s": work_per_s,
        "fail_ratio": failed / attempted,
        "failures": notes,
    }
    if args.trace:
        import spans

        info["trace_missing"] = spans.missing_targets()
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
