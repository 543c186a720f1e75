"""Pin reference answers for every pool item into ``refs.json``.

Usage, from the root of the repository:

    python3 bench/pin.py

Runs each distinct pool item once through ``cli.main`` with canonical node
ids, checks the answer with ``check.py`` (contract and witnesses), and
records the value or bracket, the exit code and the state count. Values of
the exact (gamma = 1) items are also recomputed here, independently of the
program, as the heaviest reachable cycle-bearing component. Run it only
when the pool in ``corpus.py`` changes; the benchmark refuses to start if a
pinned fingerprint no longer matches its pool item.
"""

from __future__ import annotations

import json
import shutil
import sys

import corpus
from check import Wrong, check
from run import OUT, execute, import_cli


def heaviest_component(instance: corpus.Instance, start: int) -> float:
    """Largest lambda sum over cycle-bearing components reachable from ``start``."""
    fwd, bwd = corpus.adjacency(len(instance.nodes), instance.edges)
    best, done = 0.0, set()
    for v in sorted(corpus.reach(fwd, start)):
        if v in done:
            continue
        component = corpus.reach(fwd, v) & corpus.reach(bwd, v)
        done |= component
        if len(component) > 1 or (v, v) in instance.edges:
            best = max(best, sum(instance.nodes[u].lam for u in component))
    return best


def truncated_states(cli, path: str, start: str, epsilon: float) -> int:
    """States of the truncated graph that the refused request would build."""
    from reward_routing import infinite

    model = cli.load_graph_file(path)
    depth = infinite.truncation_depth(model.spec, epsilon)
    return infinite.build_truncated(model.graph, model.index_of(start), depth).state_count


def pin_item(cli, item: corpus.Item, work) -> dict:
    ids = corpus.canonical_ids(item.instance)
    path = work / f"{item.ref}.json"
    path.write_text(json.dumps(item.instance.document(ids)), encoding="utf-8")
    command = "infinite" if item.command == "decide" else item.command
    pinned_item = corpus.Item(item.ref, item.instance, command, item.start,
                              {k: v for k, v in item.options.items() if k != "side"})
    argv, expect = corpus.build_argv(pinned_item, ids, str(path), None, None)
    req = corpus.Request(pinned_item, ids, argv, expect, 0)
    code, stdout, stderr, _ = execute(cli, req)
    outcome = check(req, code, stdout, stderr)
    ref: dict = {"fingerprint": item.fingerprint(), "exit": code}
    if outcome == "refused":
        ref["states"] = truncated_states(cli, str(path), ids[item.start], item.options["epsilon"])
        return ref
    doc = json.loads(stdout)
    if "bracket" in doc:
        ref["r_under"] = doc["bracket"]["r_under"]
        ref["r_over"] = doc["bracket"]["r_over"]
    else:
        ref["value"] = doc["value"]
    if "state_count" in doc:
        ref["states"] = doc["state_count"]
    if item.command in ("nondiscounted", "infinite") and "value" in ref:
        expected = heaviest_component(item.instance, item.start)
        if abs(expected - ref["value"]) > 1e-9 * max(1.0, expected):
            raise Wrong(f"{item.ref}: value {ref['value']} but the heaviest component has {expected}")
    return ref


def main() -> int:
    cli = import_cli()
    work = OUT / "pin"
    work.mkdir(parents=True, exist_ok=True)
    refs: dict = {}
    try:
        for workload in corpus.WORKLOADS:
            for item in corpus.round_items(workload):
                if item.command == "simulate" or item.ref in refs:
                    continue
                refs[item.ref] = pin_item(cli, item, work)
                print(item.ref, refs[item.ref], file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    corpus.REFS_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
