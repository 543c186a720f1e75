"""Benchmark of the reward-routing CLI solve path.

Usage, from the root of the repository:

    python3 bench/run.py --workload infinite-bracket --seed 1 [--seconds S] --trace 0

One client calls ``reward_routing.cli.main(argv)`` in this process, in a
closed loop: the next request starts only after the previous one returned
and was checked. A request is one ``main`` call (parse, solve, verify,
emit), timed with ``time.perf_counter``. The loop runs whole rounds until
``--seconds`` (by default ``run_seconds`` of ``BENCHMARK.json``) were
spent inside requests. The graph files are written during set-up from
``--seed``. Every result is checked by ``check.py``. End-to-end times are
scaled by calibrations timed next to each request and each set-up process
(see ``CALIBRATION`` and ``IMPORT_REF_S``); the unscaled figures are
printed above the result.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs whole
rounds alternately untraced and traced, and reports the per-layer metrics
of the traced rounds; the spans go to ``.bench_out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``failed`` counts wrong answers. A refusal (exit 3) of an item pinned as
refused lowers ``answered_frac``; any other refusal is a wrong answer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import corpus
from check import Wrong, check
from spans import REQUEST, Recorder, instrument, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15
SETUP_TIMEOUT_S = 120
# latency_s.p90 needs at least 10 samples above it.
MIN_REQUESTS = 100
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def arithmetic_loop() -> None:
    total = 0
    for i in range(40_000):
        total += i * i


def table_loop() -> None:
    table = {}
    for i in range(6_000):
        table[(i, i % 13)] = i
    total = 0
    for i in range(6_000):
        total += table[(i, i % 13)]


# The processor's speed drifts by 20-40% over seconds to minutes on a
# shared machine, and CPU time drifts with wall time, so no clock removes
# it. A fixed pure-Python loop, timed next to every request, tracks the
# drift; end-to-end times are divided by the loop's slowdown: its time over
# its time in the fast phases of a 2-core Intel Xeon sandbox. Each workload
# uses the loop that tracks its dominant work best: integer arithmetic for
# the numpy-driven Karp solves and simulations, dict and tuple work for the
# layered DP and the parse. The loops are the benchmark's own code, so a
# change to the program moves the scaled times exactly as it moves the raw
# ones.
CALIBRATION = {
    "infinite-bracket": (arithmetic_loop, 0.0022),
    "finite-horizon": (table_loop, 0.0019),
    "large-graph": (table_loop, 0.0019),
    "oracle-check": (arithmetic_loop, 0.0022),
}

# Set-up starts a process, and the loops above do not track process start
# and imports. Set-up is divided instead by the slowdown of an interpreter
# that only imports numpy: its time over IMPORT_REF_S, about its median on
# the same sandbox. That process runs none of the program, so a change to
# the program's set-up moves the scaled time as it moves the raw one.
IMPORT_REF_S = 0.15


def slowdown(workload: str) -> float:
    """The workload's calibration loop time over its reference time."""
    loop, reference = CALIBRATION[workload]
    started = time.perf_counter()
    loop()
    return (time.perf_counter() - started) / reference


def import_slowdown() -> float:
    """Wall time of a process that only imports numpy, over IMPORT_REF_S."""
    started = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=SETUP_TIMEOUT_S)
    return (time.monotonic() - started) / IMPORT_REF_S


def import_cli():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "reward_routing" / "cli.py").is_file():
        sys.exit(f"error: {src}/reward_routing not found; run from a checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from reward_routing import cli

    if Path(cli.__file__).resolve().parent != src / "reward_routing":
        sys.exit(f"error: imported {cli.__file__}, not this checkout")
    return cli


def execute(cli, req: corpus.Request, recorder: Recorder | None = None):
    """One request: returns (exit code or exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            if recorder is None:
                code = cli.main(req.argv)
            else:
                with recorder.span(REQUEST):
                    code = cli.main(req.argv)
        except (Exception, SystemExit) as exc:
            code = exc
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - started
    return code, out.getvalue(), err.getvalue(), elapsed


@dataclass
class Loop:
    """Per-request wall times, raw and scaled, and the checker's verdicts."""

    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)


def judge(req: corpus.Request, code, stdout: str, stderr: str, loop: Loop) -> None:
    try:
        loop.outcomes[check(req, code, stdout, stderr)] += 1
    except Wrong as exc:
        loop.outcomes["wrong"] += 1
        loop.wrong.append(f"{req.item.ref} {' '.join(req.argv)}: {exc}")


def run_request(cli, req: corpus.Request, loop: Loop, recorder: Recorder | None = None) -> float:
    code, stdout, stderr, elapsed = execute(cli, req, recorder)
    loop.latencies.append(elapsed)
    judge(req, code, stdout, stderr, loop)
    return elapsed


def closed_loop(cli, workload: str, requests: list[corpus.Request], seconds: float) -> Loop:
    """Whole rounds, until ``seconds`` were spent inside requests and at
    least MIN_REQUESTS were made.

    Each request is divided by the mean slowdown measured just before and
    just after it. Stopping only at the end of a round keeps every run's
    mix of requests the same.
    """
    loop, busy = Loop(), 0.0
    before = slowdown(workload)
    while busy < seconds or len(loop.latencies) < MIN_REQUESTS:
        for req in requests:
            elapsed = run_request(cli, req, loop)
            after = slowdown(workload)
            loop.scaled.append(elapsed / ((before + after) / 2))
            busy += elapsed
            before = after
    return loop


def traced_loops(cli, requests: list[corpus.Request], seconds: float):
    """Whole rounds, alternately untraced and traced, for ``seconds`` in all
    and as many traced rounds as untraced ones.

    Alternating rounds lets both halves meet the same phases of a shared
    machine, so their ratio shows the tracing overhead.
    """
    plain, traced, recorder = Loop(), Loop(), Recorder()
    busy = 0.0
    while busy < seconds or len(traced.latencies) < len(plain.latencies):
        if len(plain.latencies) > len(traced.latencies):
            with instrument(recorder):
                for req in requests:
                    recorder.request = len(traced.latencies)
                    busy += run_request(cli, req, traced, recorder)
        else:
            for req in requests:
                busy += run_request(cli, req, plain)
    return plain, traced, recorder


def setup(workload: str, seed: int, work: Path):
    """Imports, corpus, references and one warm-up request."""
    cli = import_cli()
    requests = corpus.generate(workload, seed, work, corpus.load_refs())
    # The round's cheapest request; the timed loop runs and checks it again.
    execute(cli, min(requests, key=lambda r: r.rank))
    return cli, requests


def setup_samples(args) -> list[float]:
    """Scaled set-up times of fresh processes, from spawn to the end of the warm-up.

    ``time.monotonic`` reads one system-wide clock on Linux, so the parent
    and the child can be compared. Each sample is divided by the mean
    import slowdown just before and just after it.
    """
    samples = []
    before = import_slowdown()
    for _ in range(SETUP_SAMPLES):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise SystemExit(f"error: set-up process failed: {proc.stderr.strip()[-500:]}")
        after = import_slowdown()
        samples.append((float(words[1]) - started) / ((before + after) / 2))
        before = after
    return samples


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(loop: Loop, setup_s: float) -> dict[str, tuple[float, str]]:
    answered = loop.outcomes["ok"]
    return {
        "setup_s": (setup_s, "s"),
        "latency_s.p50": (statistics.median(loop.scaled), "s"),
        "latency_s.p90": (quantile(loop.scaled, 90), "s"),
        "requests_per_s": (answered / sum(loop.scaled), "1/s"),
        "answered_frac": (answered / len(loop.latencies), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_cli()  # fail before any work when the program is missing
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{int(time.time() * 1e6)}"
    work.mkdir()
    try:
        if args.setup_only:
            setup(args.workload, args.seed, work)
            print("ready", repr(time.monotonic()))
            return 0
        setup_s = 0.0 if args.trace else statistics.median(setup_samples(args))
        cli, requests = setup(args.workload, args.seed, work)
        if args.trace:
            plain, traced, recorder = traced_loops(cli, requests, args.seconds)
            recorder.dump(str(OUT / f"spans-{args.workload}-{args.seed}.json"))
            metrics = layer_metrics(recorder.spans)
            m = min(len(plain.latencies), len(traced.latencies))
            overhead = (statistics.median(traced.latencies[:m])
                        / statistics.median(plain.latencies[:m]) - 1)
            metrics["trace.overhead_frac"] = (overhead, "ratio")
            loops = [plain, traced]
        else:
            timed = closed_loop(cli, args.workload, requests, args.seconds)
            metrics = end_to_end(timed, setup_s)
            loops = [timed]
            print(f"# unscaled latency p50 {statistics.median(timed.latencies):.6g} s, "
                  f"p90 {quantile(timed.latencies, 90):.6g} s; scale factor median "
                  f"{statistics.median(s / r for s, r in zip(timed.scaled, timed.latencies)):.4g}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(loop.latencies) for loop in loops)
    wrong = [line for loop in loops for line in loop.wrong]
    outcomes = sum((loop.outcomes for loop in loops), Counter())
    for line in wrong[:10]:
        print(f"wrong: {line}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {attempted} requests, "
          + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())))
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
