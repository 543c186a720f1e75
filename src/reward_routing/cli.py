"""Command-line interface: graph files in, result documents out.

Graph files are JSON: a ``nodes`` list ({id, lambda, gamma or
decay_profile}, where ``null`` counts as absent), an ``edges`` list of
[from, to] id pairs, and optional ``defaults`` applied to nodes that omit
lambda/gamma. Every command prints a single JSON result document with the
command echo, values, witnesses as id sequences, and timing, using 12
significant digits so outputs are stable across runs.

:func:`main` loads the graph, times one ``cmd_*`` call (start lookup,
checks, solve) and emits the document with its fields. Each solver checks
its own witness before it returns.
``finite`` solves γ and decay-profile graphs alike; ``--decay`` declares
which of the two the graph holds.

Exit codes: 0 success (or decision "yes"), 1 decision "no", 2 malformed
input or arguments (any other library error), 3 state budget exceeded, 4
decision "unknown", 5 an internal fault: an answer that failed the solver's
own check, or an unexpected exception, printed with its traceback. The
environment variable ``RRP_STATE_BUDGET`` overrides the state cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Sequence

from . import finite, infinite, memory, simulate
from .errors import (
    InvalidInputError,
    RewardRoutingError,
    SolverContractError,
    StateBudgetExceededError,
)
from .graph import Graph, Lasso, validate_lasso, validate_path
from .rewards import (
    DecayProfile,
    RewardSpec,
    _FLOAT_MAX,
    _check_threshold,
    _is_finite_number,
    average_reward,
    path_reward,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_UNKNOWN = 4
EXIT_INTERNAL = 5


class GraphFileError(InvalidInputError):
    """Malformed graph file; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class GraphModel:
    """A parsed graph file: structure, reward parameters, id mapping.

    ``decays[v]`` is node ``v``'s survival probability ``gamma``, or its
    :class:`DecayProfile`. ``index`` maps each id to its position in ``ids``.
    """

    graph: Graph
    lam: tuple[float, ...]
    decays: tuple[float | DecayProfile, ...]
    ids: tuple[str, ...]
    index: dict[str, int]

    @property
    def spec(self) -> RewardSpec:
        """The gamma-only reward parameters; fails if any node has a profile."""
        if any(isinstance(d, DecayProfile) for d in self.decays):
            raise GraphFileError(
                "nodes", "this command needs gamma values, not decay profiles"
            )
        return RewardSpec(self.lam, self.decays)  # type: ignore[arg-type]

    def index_of(self, node_id: str) -> int:
        try:
            return self.index[node_id]
        except KeyError:
            raise GraphFileError("start", f"unknown node id {node_id!r}") from None

    def id_path(self, nodes: Sequence[int]) -> list[str]:
        return [self.ids[v] for v in nodes]


def _require(obj: dict, key: str, field: str) -> Any:
    if key not in obj:
        raise GraphFileError(field, f"missing required key {key!r}")
    return obj[key]


def _parse_lambda(raw: Any, field: str) -> float:
    if not _is_finite_number(raw) or raw < 0:
        raise GraphFileError(field, "must be a non-negative number")
    return float(raw)


def _parse_gamma(raw: Any, field: str) -> float:
    if not _is_finite_number(raw) or not 0 < raw <= 1:
        raise GraphFileError(field, "must be a number in (0, 1]")
    return float(raw)


def _parse_profile(raw: Any, field: str) -> DecayProfile:
    if not isinstance(raw, dict):
        raise GraphFileError(field, "decay profile must be an object")
    table = _require(raw, "table", f"{field}.table")
    if not isinstance(table, list) or not all(map(_is_finite_number, table)):
        raise GraphFileError(f"{field}.table", "must be a list of numbers")
    tail = _require(raw, "tail", f"{field}.tail")
    if tail not in ("geometric", "zero"):
        raise GraphFileError(f"{field}.tail", "must be 'geometric' or 'zero'")
    ratio = raw.get("ratio")
    if ratio is not None and not _is_finite_number(ratio):
        raise GraphFileError(f"{field}.ratio", "must be a number")
    try:
        return DecayProfile(
            tuple(float(x) for x in table),
            tail=tail,
            ratio=float(ratio) if ratio is not None else None,
        )
    except InvalidInputError as exc:
        raise GraphFileError(field, str(exc)) from None


def parse_graph_document(doc: Any) -> GraphModel:
    """Validate a decoded graph document and build the model.

    One pass over the nodes and one over the edges; each edge goes straight
    into its source's successor list. A field name is formatted only for
    the error it names, and the first fault in document order is the one
    reported.
    """
    if not isinstance(doc, dict):
        raise GraphFileError("document", "top level must be an object")
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise GraphFileError("defaults", "must be an object")
    default_lam = defaults.get("lambda")
    if default_lam is not None:
        default_lam = _parse_lambda(default_lam, "defaults.lambda")
    default_gamma = defaults.get("gamma")
    if default_gamma is not None:
        default_gamma = _parse_gamma(default_gamma, "defaults.gamma")
    raw_nodes = _require(doc, "nodes", "nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise GraphFileError("nodes", "must be a non-empty list")

    index: dict[str, int] = {}
    lams: list[float] = []
    decays: list[float | DecayProfile] = []
    # The rules of _parse_lambda and _parse_gamma, inline.
    for i, raw in enumerate(raw_nodes):
        if not isinstance(raw, dict):
            raise GraphFileError(f"nodes[{i}]", "must be an object")
        node_id = raw.get("id")
        if not isinstance(node_id, str):
            _require(raw, "id", f"nodes[{i}].id")
            raise GraphFileError(f"nodes[{i}].id", "must be a string")
        if index.setdefault(node_id, i) != i:
            raise GraphFileError(f"nodes[{i}].id", f"duplicate id {node_id!r}")

        lam = raw.get("lambda")
        if lam is None:
            lam = default_lam
            if lam is None:
                raise GraphFileError(f"nodes[{i}].lambda", "missing and no default provided")
        elif (
            isinstance(lam, (int, float))
            and not isinstance(lam, bool)
            and abs(lam) <= _FLOAT_MAX
            and lam >= 0
        ):
            lam = float(lam)
        else:
            raise GraphFileError(f"nodes[{i}].lambda", "must be a non-negative number")
        lams.append(lam)

        gamma = raw.get("gamma")
        profile = raw.get("decay_profile")
        if profile is not None:
            if gamma is not None:
                raise GraphFileError(
                    f"nodes[{i}]", "gamma and decay_profile are mutually exclusive"
                )
            decays.append(_parse_profile(profile, f"nodes[{i}].decay_profile"))
        elif gamma is None:
            if default_gamma is None:
                raise GraphFileError(f"nodes[{i}].gamma", "missing and no default provided")
            decays.append(default_gamma)
        # The range check also refuses NaN, the infinities and huge integers.
        elif isinstance(gamma, (int, float)) and not isinstance(gamma, bool) and 0 < gamma <= 1:
            decays.append(float(gamma))
        else:
            raise GraphFileError(f"nodes[{i}].gamma", "must be a number in (0, 1]")

    raw_edges = _require(doc, "edges", "edges")
    if not isinstance(raw_edges, list):
        raise GraphFileError("edges", "must be a list")
    successors: list[list[int]] = [[] for _ in raw_nodes]
    find = index.get
    for i, raw in enumerate(raw_edges):
        if not isinstance(raw, list) or len(raw) != 2:
            raise GraphFileError(f"edges[{i}]", "must be a [from, to] pair")
        u, w = raw
        if isinstance(u, str) and isinstance(w, str):
            src, dst = find(u), find(w)
            if src is not None and dst is not None:
                successors[src].append(dst)
                continue
        unknown = w if isinstance(u, str) and u in index else u
        raise GraphFileError(f"edges[{i}]", f"unknown node id {unknown!r}")

    ids = tuple(index)
    graph = Graph.from_successors(successors, ids)
    return GraphModel(graph, tuple(lams), tuple(decays), ids, index)


def load_graph_file(path: str) -> GraphModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise GraphFileError("graph", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GraphFileError("graph", f"invalid JSON in {path}: {exc}") from None
    return parse_graph_document(doc)


def _round_floats(value: Any) -> Any:
    """12 significant digits on every float, recursively.

    Strings, the bulk of a large document's id lists, are passed over
    without a call.
    """
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: v if type(v) is str else _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [v if type(v) is str else _round_floats(v) for v in value]
    return value


def _emit(document: dict) -> None:
    rounded = _round_floats(document)
    print(json.dumps(rounded, indent=2, sort_keys=True, allow_nan=False))


def _state_budget() -> int:
    raw = os.environ.get("RRP_STATE_BUDGET")
    if raw is None:
        return finite.DEFAULT_STATE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise GraphFileError("RRP_STATE_BUDGET", f"not an integer: {raw!r}") from None
    if budget < 1:
        raise GraphFileError("RRP_STATE_BUDGET", "must be positive")
    return budget


def _lasso_document(model: GraphModel, lasso: Lasso) -> dict:
    return {
        "prefix": model.id_path(lasso.prefix),
        "cycle": model.id_path(lasso.cycle),
    }


def cmd_finite(args: argparse.Namespace, model: GraphModel) -> tuple[dict, int]:
    v0 = model.index_of(args.start)
    profiled = [isinstance(d, DecayProfile) for d in model.decays]
    if args.decay and not all(profiled):
        raise GraphFileError("nodes", "--decay requires a decay_profile on every node")
    if not args.decay and any(profiled):
        raise GraphFileError("nodes", "graph declares decay profiles; pass --decay")
    solution = finite.solve_finite_decay(
        model.graph,
        model.lam,
        model.decays,
        v0,
        args.horizon,
        state_budget=_state_budget(),
    )
    return {
        "value": solution.value.value,
        "horizon": args.horizon,
        "witness": {"path": model.id_path(solution.witness.nodes)},
        "state_count": solution.states_expanded,
    }, EXIT_OK


def _bracket_fields(model: GraphModel, bracket: infinite.ValueBracket) -> dict:
    return {
        "bracket": {
            "r_under": bracket.r_under,
            "r_over": bracket.r_over,
            "epsilon_achieved": bracket.epsilon_achieved,
            "truncation_depth": bracket.depth,
            "witness_under": _lasso_document(model, bracket.pi_under),
            "witness_over": _lasso_document(model, bracket.pi_over),
        },
        "state_count": bracket.state_count,
    }


def cmd_infinite(args: argparse.Namespace, model: GraphModel) -> tuple[dict, int]:
    spec = model.spec
    v0 = model.index_of(args.start)
    bracket = infinite.solve_infinite_approx(
        model.graph, spec, v0, args.epsilon, state_budget=_state_budget()
    )
    if bracket.depth == 0:
        return {
            "notice": "no decay anywhere; solved exactly instead",
            "value": bracket.r_under,
            "witness": _lasso_document(model, bracket.pi_under),
        }, EXIT_OK
    return _bracket_fields(model, bracket), EXIT_OK


_DECISION_EXIT = {"yes": EXIT_OK, "no": EXIT_NO}


def cmd_decide(args: argparse.Namespace, model: GraphModel) -> tuple[dict, int]:
    spec = model.spec
    v0 = model.index_of(args.start)
    decision, bracket = infinite.decide_infinite_value(
        model.graph,
        spec,
        v0,
        args.threshold,
        args.epsilon,
        state_budget=_state_budget(),
    )
    return {
        "decision": decision,
        "threshold": args.threshold,
        **_bracket_fields(model, bracket),
    }, _DECISION_EXIT.get(decision, EXIT_UNKNOWN)


def cmd_nondiscounted(args: argparse.Namespace, model: GraphModel) -> tuple[dict, int]:
    v0 = model.index_of(args.start)
    solution = infinite.solve_nondiscounted(model.graph, model.lam, v0)
    return {
        "value": solution.value.value,
        "component": model.id_path(solution.component),
        "witness": _lasso_document(model, solution.witness),
    }, EXIT_OK


def cmd_bounded(args: argparse.Namespace, model: GraphModel) -> tuple[dict, int]:
    spec = model.spec
    v0 = model.index_of(args.start)
    solution = memory.solve_bounded_memory(
        model.graph, spec, v0, args.memory
    )
    return {
        "value": solution.value.value,
        "memory": args.memory,
        "witness": _lasso_document(model, solution.witness),
    }, EXIT_OK


def _parse_id_list(model: GraphModel, raw: str, field: str) -> list[int]:
    nodes = []
    for part in raw.split(","):
        part = part.strip()
        if part not in model.index:
            raise GraphFileError(field, f"unknown node id {part!r}")
        nodes.append(model.index[part])
    return nodes


def cmd_simulate(args: argparse.Namespace, model: GraphModel) -> tuple[dict, int]:
    spec = model.spec
    cfg = simulate.SimConfig(
        trials=args.trials,
        seed=args.seed,
        generation=args.mode,
        horizon=args.horizon,
    )
    if args.path is not None:
        if args.cycle is not None or args.prefix is not None:
            raise GraphFileError("path", "--path excludes --prefix/--cycle")
        nodes = _parse_id_list(model, args.path, "path")
        route = validate_path(model.graph, nodes)
        result = simulate.simulate_finite_reward(model.graph, spec, route, cfg)
        expected = path_reward(spec, route).value
        route_fields = {"path": model.id_path(route.nodes)}
    else:
        if args.cycle is None:
            raise GraphFileError("cycle", "need --path or --cycle")
        prefix = (
            _parse_id_list(model, args.prefix, "prefix")
            if args.prefix is not None
            else []
        )
        cycle = _parse_id_list(model, args.cycle, "cycle")
        lasso = validate_lasso(model.graph, prefix, cycle)
        result = simulate.simulate_average_reward(model.graph, spec, lasso, cfg)
        expected = average_reward(spec, lasso).value
        route_fields = _lasso_document(model, lasso)
    return {
        "route": route_fields,
        "mean": result.mean,
        "stderr": result.stderr,
        "trials": result.trials,
        "seed": result.seed,
        "closed_form": expected,
    }, EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="reward-routing",
        description="Optimal reward collection on graphs with decaying rewards.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", required=True, help="graph file (JSON)")
        p.add_argument("--start", required=True, help="start node id")

    p_finite = sub.add_parser("finite", help="optimal total reward over a horizon")
    common(p_finite)
    p_finite.add_argument("--horizon", type=int, required=True)
    p_finite.add_argument(
        "--decay", action="store_true", help="use explicit decay profiles"
    )
    p_finite.set_defaults(func=cmd_finite)

    p_inf = sub.add_parser("infinite", help="bracket the optimal long-run average")
    common(p_inf)
    p_inf.add_argument("--epsilon", type=float, required=True)
    p_inf.set_defaults(func=cmd_infinite)

    p_dec = sub.add_parser("decide", help="threshold decision for the long-run average")
    common(p_dec)
    p_dec.add_argument("--threshold", type=float, required=True)
    p_dec.add_argument("--epsilon", type=float, required=True)
    p_dec.set_defaults(func=cmd_decide)

    p_non = sub.add_parser("nondiscounted", help="exact solver when nothing decays")
    common(p_non)
    p_non.set_defaults(func=cmd_nondiscounted)

    p_bnd = sub.add_parser("bounded", help="best strategy with bounded memory")
    common(p_bnd)
    p_bnd.add_argument("--memory", type=int, required=True)
    p_bnd.set_defaults(func=cmd_bounded)

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of a route's reward")
    p_sim.add_argument("--graph", required=True)
    p_sim.add_argument("--path", help="comma-separated node ids (finite total)")
    p_sim.add_argument("--prefix", help="comma-separated node ids before the cycle")
    p_sim.add_argument("--cycle", help="comma-separated node ids (long-run average)")
    p_sim.add_argument("--trials", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--mode", choices=("poisson", "deterministic"), default="poisson"
    )
    p_sim.add_argument("--horizon", type=int, help="steps for the average mode")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def _check_numbers(args: argparse.Namespace) -> None:
    """Refuse bad numeric arguments before the graph loads.

    ``--threshold`` and ``--epsilon`` get the library's own checks;
    ``--memory``/``--trials`` below 1 raise a message naming the flag.
    """
    _check_threshold(getattr(args, "threshold", 0.0))
    infinite._check_epsilon(getattr(args, "epsilon", 1.0))
    for name in ("memory", "trials"):
        if getattr(args, name, 1) < 1:
            raise InvalidInputError(f"{name} must be at least 1")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (status 2) or help (status 0).
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        _check_numbers(args)
        model = load_graph_file(args.graph)
        started = time.perf_counter()
        fields, code = args.func(args, model)
        elapsed = time.perf_counter() - started
        _emit(
            {
                "command": args.subcommand,
                "arguments": {
                    key: value
                    for key, value in sorted(vars(args).items())
                    if key != "func" and value is not None
                },
                "node_order": list(model.ids),
                **fields,
                "wall_time_seconds": elapsed,
            }
        )
        return code
    except StateBudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SolverContractError as exc:
        print(f"error: internal solver fault: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RewardRoutingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        # Not the input's fault: keep the traceback, but never exit 1 ("no").
        traceback.print_exc()
        print(f"error: internal fault: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
