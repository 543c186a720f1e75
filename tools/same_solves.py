"""Check that two checkouts solve seeded random instances identically.

Usage:

    python3 tools/same_solves.py PARENT_ROOT CHANGE_ROOT [--seeds A-B]

Each seed (default 1-3000) draws one instance: a graph of 1 to 6 nodes,
sparse enough to leave dead ends and several strongly connected
components, rates with some nodes at 0, survival probabilities and a
start. Each checkout runs three solves of it through its own library, in
its own process:

- ``solve_infinite_approx`` at a random epsilon; a tenth of the seeds
  make every survival probability 1, so the no-decay solver answers;
- ``solve_finite_decay`` with the survival probabilities;
- ``solve_finite_decay`` with decay profiles.

Each solve gets a state budget that the larger instances overflow. Values
are compared bit for bit, together with depths, state counts and
witnesses, and errors by type and message. Each finite witness is also
replayed by the checkout's ``decayed_path_reward``; an infinite
``pi_under`` replays to ``r_under``. Where witnesses differ, the line says
whether both replay to the same value, a tie between equally good
witnesses. Exits 0 when all agree, 1 listing each solve that differs, and
2 when a checkout could not run the solves.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

SEEDS = "1-3000"
BUDGETS = (40, 300, 5_000, 100_000)
#: Each witness field, with the field that holds what the witness replays to.
REPLAYS = {"witness": "replay", "pi_under": "r_under"}


def instance(seed: int) -> dict:
    """The graph, rates, decays and start of one seed, as plain data."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    density = rng.choice([0.2, 0.35, 0.5, 0.8])
    edges = [(u, v) for u in range(n) for v in range(n) if rng.random() < density]
    lam = [rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.1, 3.0)]) for _ in range(n)]
    if rng.random() < 0.1:
        gamma = [1.0] * n
    else:
        gamma = [rng.choice([0.3, 0.5, 0.8, rng.uniform(0.05, 0.95)]) for _ in range(n)]
    profiles = []
    for _ in range(n):
        table = [1.0]
        for _ in range(rng.randint(0, 3)):
            table.append(table[-1] * rng.uniform(0.2, 0.95))
        tail = rng.choice(["geometric", "zero", None])
        profiles.append((table, tail, rng.uniform(0.1, 0.9) if tail == "geometric" else None))
    return {
        "n": n,
        "edges": edges,
        "lam": lam,
        "gamma": gamma,
        "profiles": profiles,
        "v0": rng.randrange(n),
        "epsilon": rng.choice([1.0, 0.1, 1e-2, 1e-3]),
        "horizon": rng.randint(0, 8),
        "budgets": [rng.choice(BUDGETS) for _ in range(3)],
    }


def run_solves(root: Path, seeds: range) -> list[dict]:
    """One record per solve: its label and its result or error."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import reward_routing as rr

    if Path(rr.__file__).resolve().parent != src.resolve() / "reward_routing":
        sys.exit(f"error: imported {rr.__file__}, not {src}")

    def lasso(witness) -> list:
        return [list(witness.prefix), list(witness.cycle)]

    def infinite(case: dict) -> dict:
        spec = rr.RewardSpec(tuple(case["lam"]), tuple(case["gamma"]))
        b = rr.solve_infinite_approx(
            graph, spec, case["v0"], case["epsilon"], state_budget=case["budgets"][0]
        )
        return {
            "r_under": b.r_under.hex(),
            "r_over": b.r_over.hex(),
            "epsilon_achieved": b.epsilon_achieved.hex(),
            "depth": b.depth,
            "state_count": b.state_count,
            "pi_under": lasso(b.pi_under),
            "pi_over": lasso(b.pi_over),
        }

    def finite(case: dict, decays: list, budget: int) -> dict:
        s = rr.solve_finite_decay(
            graph, case["lam"], decays, case["v0"], case["horizon"], state_budget=budget
        )
        return {
            "value": s.value.value.hex(),
            "witness": list(s.witness.nodes),
            "replay": rr.decayed_path_reward(decays, case["lam"], s.witness).value.hex(),
            "states_expanded": s.states_expanded,
        }

    records = []
    for seed in seeds:
        case = instance(seed)
        graph = rr.Graph.from_edges(case["n"], case["edges"])
        profiles = [rr.DecayProfile(tuple(t), tail, r) for t, tail, r in case["profiles"]]
        solves = {
            "infinite": lambda: infinite(case),
            "finite gamma": lambda: finite(case, case["gamma"], case["budgets"][1]),
            "finite profiles": lambda: finite(case, profiles, case["budgets"][2]),
        }
        for family, solve in solves.items():
            try:
                result = solve()
            except rr.RewardRoutingError as exc:
                result = {"error": f"{type(exc).__name__}: {exc}"}
            records.append({"solve": f"seed {seed} {family}", "result": result})
    return records


def differences(left: list[dict], right: list[dict]) -> list[str]:
    """One line per solve whose results differ, naming what differs.

    Where a witness differs and both sides replay theirs, the line ends
    with whether the two replays agree: a tie, or not.
    """
    if [r["solve"] for r in left] != [r["solve"] for r in right]:
        return ["the two checkouts ran different solves"]
    lines = []
    for a, b in zip(left, right):
        x, y = a["result"], b["result"]
        fields = [key for key in sorted({*x, *y}) if x.get(key) != y.get(key)]
        if not fields:
            continue
        line = f"{a['solve']}: {', '.join(fields)} differ"
        for witness, replay in REPLAYS.items():
            if witness in fields and replay in x and replay in y:
                if x[replay] == y[replay]:
                    line += f" ({witness}: a tie, both replay to {x[replay]})"
                else:
                    line += f" ({witness}: not a tie, the replays differ)"
        lines.append(line)
    return lines


def tally(records: list[dict]) -> list[str]:
    """Per family, how many solves answered and how many raised each error."""
    kinds: dict[str, Counter] = {}
    for r in records:
        family = r["solve"].split(" ", 2)[2]
        kind = r["result"].get("error", "answered").split(":")[0]
        kinds.setdefault(family, Counter())[kind] += 1
    return [
        f"  {family}: " + ", ".join(f"{count} {kind}" for kind, count in sorted(counts.items()))
        for family, counts in kinds.items()
    ]


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def collect(root: Path, seeds: str) -> list[dict]:
    """The records of ``root``, run in a process of its own."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--run", str(root), "--seeds", seeds]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: the solves did not run on {root}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", type=Path, help="PARENT_ROOT CHANGE_ROOT")
    parser.add_argument("--seeds", default=SEEDS, help=f"A-B or A (default {SEEDS})")
    parser.add_argument("--run", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        seeds = seed_range(args.seeds)
    except ValueError:
        parser.error(f"--seeds must be A-B or A, got {args.seeds!r}")
    if args.run is not None:
        print(json.dumps(run_solves(args.run.resolve(), seeds)))
        return 0
    if len(args.roots) != 2:
        parser.error("give PARENT_ROOT and CHANGE_ROOT")
    left, right = (collect(root.resolve(), args.seeds) for root in args.roots)
    lines = differences(left, right)
    for line in lines:
        print(line)
    print(f"{len(left) - len(lines)} of {len(left)} solves identical")
    print("\n".join(tally(left)))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
