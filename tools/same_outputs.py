"""Check that two checkouts answer the benchmark's requests identically.

Usage:

    python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT [--workload W ...] [--seed S ...]

By default the requests are those of seeds 1 and 2 of every benchmark
workload, generated by this checkout's ``bench/corpus.py``. Each checkout
runs them through its own ``reward_routing.cli.main``, in its own process.
Every request must give both checkouts the same exit code, standard output
and standard error once ``wall_time_seconds``, the graph file directory and
the checkout's own root are masked. Exits 0 when all agree, 1 listing each
request that differs, and 2 when a checkout could not run the requests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (1, 2)
WALL_TIME = re.compile(r'("wall_time_seconds": )[^,\n}]+')


def mask(text: str, graphs: str, root: str) -> str:
    """``text`` with the wall time, the graph directory and the root masked."""
    text = WALL_TIME.sub(r"\1null", text)
    return text.replace(graphs, "<graphs>").replace(root, "<root>")


def run_requests(root: Path, workloads: list[str], seeds: list[int]) -> list[dict]:
    """One record per request: its label and its masked exit code and output."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import corpus
    from reward_routing import cli

    if Path(cli.__file__).resolve().parent != src.resolve() / "reward_routing":
        sys.exit(f"error: imported {cli.__file__}, not {src}")
    records = []
    for workload in workloads:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as graphs:
                requests = corpus.generate(workload, seed, Path(graphs), corpus.load_refs())
                for slot, req in enumerate(requests):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = cli.main(req.argv)
                        except (Exception, SystemExit) as exc:
                            code = f"raised {exc!r}"
                            traceback.print_exc(file=err)
                    records.append(
                        {
                            "request": f"{workload} seed {seed} #{slot} {req.item.ref}",
                            "exit code": code,
                            "stdout": mask(out.getvalue(), graphs, str(root)),
                            "stderr": mask(err.getvalue(), graphs, str(root)),
                        }
                    )
    return records


def differences(left: list[dict], right: list[dict]) -> list[str]:
    """One line per request whose records differ, naming what differs."""
    if [r["request"] for r in left] != [r["request"] for r in right]:
        return ["the two checkouts ran different requests"]
    lines = []
    for a, b in zip(left, right):
        fields = [key for key in ("exit code", "stdout", "stderr") if a[key] != b[key]]
        if fields:
            lines.append(f"{a['request']}: {', '.join(fields)} differ")
    return lines


def collect(root: Path, args: argparse.Namespace) -> list[dict]:
    """The records of ``root``, run in a process of its own."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--run", str(root)]
    for workload in args.workload:
        argv += ["--workload", workload]
    for seed in args.seed:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: the requests did not run on {root}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", type=Path, help="PARENT_ROOT CHANGE_ROOT")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seed", action="append", type=int, help="default: 1 and 2")
    parser.add_argument("--run", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    import corpus

    args.workload = args.workload or list(corpus.WORKLOADS)
    args.seed = args.seed or list(SEEDS)
    if args.run is not None:
        print(json.dumps(run_requests(args.run.resolve(), args.workload, args.seed)))
        return 0
    if len(args.roots) != 2:
        parser.error("give PARENT_ROOT and CHANGE_ROOT")
    left, right = (collect(root.resolve(), args) for root in args.roots)
    lines = differences(left, right)
    for line in lines:
        print(line)
    print(f"{len(left) - len(lines)} of {len(left)} requests identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
