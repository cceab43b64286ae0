"""Run the ttmera benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, one after the other

Each workload runs in a fresh process (``workloads.py``), so its peak
resident size is its own, with BLAS threads capped at the number of cores
this process may use (a lower ``OPENBLAS_NUM_THREADS`` already set is kept).
planted-search runs in two such processes one after the other, and their
figures are combined: its speed varies more between processes than
between rounds of one process.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A workload that cannot run (no
``src/ttmera`` in the checkout, a crash, a time-out) exits non-zero and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("heat-compress", "planted-search", "mera-roundtrip")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 175
# Fresh processes per untraced run; a workload not listed runs in one.
PROCESSES = {"planted-search": 2}


def blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    try:
        preset = int(os.environ.get("OPENBLAS_NUM_THREADS", ""))
    except ValueError:
        preset = 0
    return min(preset, nproc) if preset > 0 else nproc


def run_workload(name: str, seed: int, seconds: int,
                 trace: int) -> tuple[list[str], dict]:
    """Run one workload process; its output lines and parsed result."""
    env = dict(os.environ)
    threads = str(blas_threads())
    env.update({var: threads for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: {name} did not finish within {TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {name} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {name} printed no result")
    result = json.loads(lines[-1])
    info = f"# machine: nproc={len(os.sched_getaffinity(0))} blas_threads={threads}"
    return [info] + lines[:-1], result


def combine(results: list[dict]) -> dict:
    """One result from several processes of the same workload: counts are
    summed, ``peak_rss_mb`` is the largest, other metrics the median."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name == "peak_rss_mb":
            value = max(values)
        elif name == "stored_entries":
            value = statistics.median_low(values)
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def run(name: str, seed: int, seconds: int, trace: int) -> tuple[list[str], dict]:
    """Run a workload in as many processes as it takes; lines and result."""
    count = 1 if trace else PROCESSES.get(name, 1)
    lines, results = [], []
    for _ in range(count):
        out, result = run_workload(name, seed, seconds, trace)
        lines += out
        results.append(result)
    return lines, combine(results)


def main(argv=None):
    p = argparse.ArgumentParser(description="Run the ttmera benchmark.")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ttmera" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ttmera package under {ROOT / 'src'}")
    if args.workload != "all":
        lines, result = run(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(result))
        return

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        lines, result = run(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
            print(f"  {metric} = {value} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))


if __name__ == "__main__":
    main()
