"""Run the benchmark over several seeds and summarize each metric.

Usage, from the root of the repository:

    python3 bench/report.py --seeds 1-10 [--workloads infinite-bracket,large-graph]
                            [--seconds 20]

Each (workload, seed) runs ``bench/run.py`` in its own process, one after
another. For every metric the table gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median. It also gives each metric's
bound from ``BENCHMARK.json`` and flags a spread at or above a third of
it. Runs are untraced; for per-layer metrics run ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import corpus

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(corpus.WORKLOADS))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            result = run_one(workload, seed, seconds)
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr)
        names = results[0]["metrics"]
        summary[workload] = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": {
                name: dict(unit=names[name]["unit"],
                           **summarize([r["metrics"][name]["value"] for r in results]))
                for name in names
            },
        }
        print(f"\n{workload}: correct {summary[workload]['correct']}, "
              f"attempted {min(summary[workload]['attempted'])}-{max(summary[workload]['attempted'])}")
        print(f"  {'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  unit")
        for name, m in summary[workload]["metrics"].items():
            flag = ""
            if name in bounds:
                flag = f"  bound {bounds[name]}" + ("  WIDE" if m["spread"] >= bounds[name] / 3 else "")
            print(f"  {name:42s} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
                  f"{m['spread']:8.4f}  {m['unit']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
