from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reward_routing import (
    Graph,
    InvalidInputError,
    Lasso,
    NoCycleError,
    NotStronglyConnectedError,
    RewardSpec,
    RewardValue,
    SolverContractError,
    StateBudgetExceededError,
    average_reward,
    build_truncated,
    decide_infinite_value,
    karp_mean_cycle,
    scc_decompose,
    solve_infinite_approx,
    solve_nondiscounted,
    truncation_depth,
    validate_lasso,
    weight_pair,
)
from reward_routing import infinite
from reward_routing.infinite import (
    ValueBracket,
    _component_karp,
    _cycle_bearing_components,
    _cycle_to_lasso,
    _howard_max_mean_cycle,
    _live_graph,
)
from reward_routing.rewards import TOLERANCE

import oracles
from conftest import (
    edge_arrays,
    parse_route,
    random_graph,
    ring_graph,
    spell,
    two_cycles_graph,
)

TWO_CYCLES = two_cycles_graph()


def _scaled(spec: RewardSpec, scale: float) -> RewardSpec:
    return RewardSpec(tuple(lam * scale for lam in spec.lam), spec.gamma)


def solve_caps(g: Graph, spec: RewardSpec, epsilon: float, v0: int = 0) -> tuple[int, ...]:
    """The age caps a solve builds with.

    Each node the start reaches on the live graph is capped at its own
    depth, every other node at 1.
    """
    reached = {v for comp in scc_decompose(_live_graph(g, v0), v0) for v in comp}
    return tuple(
        truncation_depth(RewardSpec((spec.lam[v],), (spec.gamma[v],)), epsilon)
        if v in reached
        else 1
        for v in range(g.node_count)
    )


def global_depth_bracket(
    g: Graph, spec: RewardSpec, epsilon: float, v0: int = 0
) -> ValueBracket:
    """The bracket of a solve that caps every node at ``truncation_depth``."""
    depth = truncation_depth(spec, epsilon)
    tg = build_truncated(_live_graph(g, v0), v0, depth)
    unit = max(spec.lam) or 1.0
    table = tg.weights(RewardSpec(tuple(lam / unit for lam in spec.lam), spec.gamma))
    mean_over, over = _howard_max_mean_cycle(*tg.edge_arrays, table.reward_over, tg.initial)
    witness = _cycle_to_lasso(tg, over)
    r_under = average_reward(spec, witness).value
    if tg.age_matrix[tg.node_array[over], over].all():
        r_over = r_under
    else:
        r_over = max(mean_over * unit, r_under)
    return ValueBracket(
        r_under, r_over, witness, witness, depth, r_over - r_under, tg.state_count
    )


@st.composite
def heterogeneous_instances(draw) -> tuple[Graph, RewardSpec, float]:
    """A 2-4-node graph, possibly with dead ends, a per-node spec and an epsilon."""
    n = draw(st.integers(2, 4))
    node = st.integers(0, n - 1)
    succs = draw(st.lists(st.sets(node, max_size=3), min_size=n, max_size=n))
    g = Graph.from_edges(n, [(v, w) for v in range(n) for w in succs[v]])
    lam = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 1.75]), min_size=n, max_size=n))
    gamma = draw(st.lists(st.floats(0.2, 0.6), min_size=n, max_size=n))
    epsilon = draw(st.sampled_from([0.05, 0.2, 1.0]))
    return g, RewardSpec(tuple(lam), tuple(gamma)), epsilon


def primitive_rotation(cycle: tuple[int, ...]) -> tuple[int, ...]:
    n = len(cycle)
    for period in range(1, n + 1):
        if n % period == 0 and cycle == cycle[period:] + cycle[:period]:
            cycle = cycle[:period]
            break
    return min(tuple(cycle[i:] + cycle[:i]) for i in range(len(cycle)))


class TestTruncationDepth:
    def test_worked_value(self):
        spec = RewardSpec.uniform(1, 1.0, 0.5)
        assert truncation_depth(spec, 1 / 64) == 7

    def test_generous_epsilon_clamps_to_one(self):
        spec = RewardSpec.uniform(1, 1.0, 0.5)
        assert truncation_depth(spec, 10.0) == 1

    def test_node_variant_takes_the_max(self):
        spec = RewardSpec((1.0, 1.0), (0.5, 0.9))
        expected = max(
            math.ceil(math.log(0.01 * (1 - g)) / math.log(g)) for g in (0.5, 0.9)
        )
        assert truncation_depth(spec, 0.01) == expected

    def test_silent_nodes_are_ignored(self):
        spec = RewardSpec((0.0, 1.0), (0.99, 0.5))
        assert truncation_depth(spec, 1 / 64) == 7

    def test_caps_every_node_where_a_solve_caps_only_the_reached_ones(self):
        # Node 2's self-loop is out of reach from 0, and only it needs 88.
        g = Graph.from_edges(3, [(0, 1), (1, 0), (2, 2)])
        spec = RewardSpec((1.0, 1.0, 1.0), (0.5, 0.5, 0.9))
        assert truncation_depth(spec, 1e-3) == 88
        bracket = solve_infinite_approx(g, spec, 0, 1e-3)
        assert (bracket.depth, bracket.state_count) == (11, 3)

    def test_underflowing_ratio_is_taken_in_log_space(self):
        # epsilon * (1 - gamma) / lam is 5e-601, below the smallest float.
        spec = RewardSpec((1e300, 1.0), (0.5, 0.5))
        depth = truncation_depth(spec, 1e-300)
        log_ratio = math.log(1e-300) + math.log(0.5) - math.log(1e300)
        assert depth * math.log(0.5) <= log_ratio < (depth - 1) * math.log(0.5)
        assert depth == 1995

    def test_no_decay_rejected(self):
        spec = RewardSpec.uniform(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            truncation_depth(spec, 0.1)

    def test_epsilon_must_be_positive(self):
        spec = RewardSpec.uniform(1, 1.0, 0.5)
        with pytest.raises(ValueError):
            truncation_depth(spec, 0.0)


class TestBuildTruncated:
    def test_self_loop_reaches_a_fixed_point(self):
        g = Graph.from_edges(1, [(0, 0)])
        for depth in (1, 3, 8):
            tg = build_truncated(g, 0, depth)
            assert tg.states == ((0, (1,)),)
            assert tg.state_graph.adjacency == ((0,),)

    def test_initial_state_is_all_ones(self, two_cycles):
        tg = build_truncated(two_cycles, 0, 5)
        assert tg.states[tg.initial] == (0, (1, 1, 1, 1))

    def test_reachable_count_within_age_space(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, 3)
            tg = build_truncated(g, 0, 2)
            assert tg.state_count <= 3 * 3**3

    def test_state_budget(self, two_cycles):
        with pytest.raises(StateBudgetExceededError):
            build_truncated(two_cycles, 0, 5, state_budget=10)

    def test_edges_follow_the_age_update_rule(self, two_cycles):
        tg = build_truncated(two_cycles, 0, 3)
        for src, succs in enumerate(tg.state_graph.adjacency):
            v, ages = tg.states[src]
            for dst in succs:
                w, new_ages = tg.states[dst]
                assert two_cycles.has_edge(v, w)
                assert new_ages[v] == 1
                for u in range(4):
                    if u == v:
                        continue
                    if ages[u] == 0 or ages[u] + 1 > 3:
                        assert new_ages[u] == 0
                    else:
                        assert new_ages[u] == ages[u] + 1


class TestTieOrder:
    """States are numbered in BFS discovery order; ties still go by node."""

    # From 0, node 1 leads to a loop at 3 and node 2 is a loop itself.
    BRANCHES = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 2), (3, 3)])

    @pytest.mark.parametrize("depth", [1, 3])
    def test_tied_cycles_go_to_the_smaller_node(self, depth):
        # Equal weights tie every cycle. The loop at 2 is found a level
        # earlier, so its states have the smaller BFS indices, yet Howard
        # and the witness take node 1, the smaller of the start's choices.
        tg = build_truncated(self.BRANCHES, 0, depth)
        loop_at = {v: max(np.flatnonzero(tg.node_array == v)) for v in (2, 3)}
        assert loop_at[2] < loop_at[3]
        mean, cycle = _howard_max_mean_cycle(
            *tg.edge_arrays, np.ones(tg.state_count), tg.initial
        )
        assert (mean, cycle) == (1.0, [loop_at[3]])
        assert _cycle_to_lasso(tg, cycle) == Lasso((0, 1) + (3,) * depth, (3,))

    def test_silent_solve_takes_the_smaller_node(self):
        spec = RewardSpec.uniform(4, 0.0, 0.5)
        bracket = solve_infinite_approx(self.BRANCHES, spec, 0, 0.1)
        assert bracket.pi_under == Lasso((0, 1, 3), (3,))

    def test_witness_cycle_starts_at_its_lowest_node_and_ages(self):
        # Alternating 0 and 1 through 2 is optimal. The cycle's lowest BFS
        # index is a state at node 2; the witness still starts at its
        # lowest state in (node, ages) order, the one at node 0.
        g = Graph.from_edges(3, [(0, 2), (1, 2), (2, 0), (2, 1)])
        spec = RewardSpec.uniform(3, 1.0, 0.5)
        bracket = solve_infinite_approx(g, spec, 2, 0.5)
        assert bracket.pi_under == Lasso((2, 1, 2), (0, 2, 1, 2))
        tg = build_truncated(_live_graph(g, 2), 2, solve_caps(g, spec, 0.5, 2))
        table = tg.weights(spec)
        _, cycle = _howard_max_mean_cycle(*tg.edge_arrays, table.reward_over, tg.initial)
        assert tg.node_array[min(cycle)] == 2
        assert _cycle_to_lasso(tg, cycle) == bracket.pi_under


class TestWeightPairs:
    def test_exact_age_weights(self):
        spec = RewardSpec.uniform(2, 1.0, 0.5)
        pair = weight_pair(spec, (0, (2, 1)), depth=4)
        assert pair.cost_over == pair.cost_under == 0.25
        assert pair.reward_under == pair.reward_over == pytest.approx(1.5)

    def test_overflowed_age_weights(self):
        spec = RewardSpec.uniform(2, 1.0, 0.5)
        pair = weight_pair(spec, (0, (0, 1)), depth=4)
        assert pair.cost_over == pytest.approx(0.5**4)
        assert pair.cost_under == 0.0
        assert pair.reward_under == pytest.approx((1 - 0.5**4) / 0.5)
        assert pair.reward_over == pytest.approx(2.0)

    def test_bracketing_inequalities_on_reachable_states(self, two_cycles):
        spec = RewardSpec.uniform(4, 1.3, 0.4)
        depth = 4
        tg = build_truncated(two_cycles, 0, depth)
        for state in tg.states:
            pair = weight_pair(spec, state, depth)
            assert 0.0 <= pair.cost_under <= pair.cost_over
            assert pair.cost_over - pair.cost_under <= 0.4**depth + 1e-15
            assert pair.reward_under <= pair.reward_over
            assert (
                pair.reward_over - pair.reward_under
                <= 1.3 * 0.4**depth / 0.6 + 1e-12
            )


class TestKarpMeanCycle:
    def test_two_state_loop(self):
        mean, cycle = karp_mean_cycle(2, [(0, 1), (1, 0)], [1.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert sorted(cycle) == [0, 1]

    def test_min_picks_the_cheap_loop(self):
        edges = [(0, 1), (1, 0), (1, 1)]
        mean, cycle = karp_mean_cycle(2, edges, [5.0, 1.0])
        assert mean == pytest.approx(1.0)
        assert cycle == [1]

    def test_max_mode_negates(self):
        edges = [(0, 1), (1, 0), (1, 1)]
        mean, cycle = karp_mean_cycle(2, edges, [5.0, 1.0], mode="max")
        assert mean == pytest.approx(3.0)
        assert sorted(cycle) == [0, 1]
        negated_min, min_cycle = karp_mean_cycle(2, edges, [-5.0, -1.0])
        assert (mean, cycle) == (-negated_min, min_cycle)

    def test_oversized_table_is_refused(self):
        # A ring just past the cell limit fails cleanly before allocating.
        m = 7800
        assert (m + 1) * m > infinite._KARP_CELL_LIMIT
        edges = [(u, (u + 1) % m) for u in range(m)]
        with pytest.raises(StateBudgetExceededError):
            karp_mean_cycle(m, edges, [1.0] * m, "max")

    def test_not_strongly_connected_rejected(self):
        with pytest.raises(NotStronglyConnectedError):
            karp_mean_cycle(2, [(0, 1)], [1.0, 1.0])
        with pytest.raises(NotStronglyConnectedError):
            karp_mean_cycle(1, [], [1.0])

    def test_witness_mean_matches_reported_mean(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(1, 7)
            g = self._random_strongly_connected(rng, n)
            weights = [rng.uniform(-2, 2) for _ in range(n)]
            edges = list(g.edges())
            mean, cycle = karp_mean_cycle(n, edges, weights)
            achieved = sum(weights[v] for v in cycle) / len(cycle)
            assert achieved == pytest.approx(mean, abs=1e-9)
            for i, state in enumerate(cycle):
                assert g.has_edge(state, cycle[(i + 1) % len(cycle)])

    @staticmethod
    def _random_strongly_connected(rng: random.Random, n: int) -> Graph:
        edges = [(i, (i + 1) % n) for i in range(n)]
        for _ in range(rng.randint(0, 2 * n)):
            edges.append((rng.randrange(n), rng.randrange(n)))
        return Graph.from_edges(n, edges)

    def test_matches_cycle_enumeration(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(1, 7)
            g = self._random_strongly_connected(rng, n)
            weights = [rng.uniform(0, 3) for _ in range(n)]
            edges = list(g.edges())
            mean, _ = karp_mean_cycle(n, edges, weights)
            expected = oracles.min_mean_cycle_by_enumeration(n, edges, weights)
            assert mean == pytest.approx(expected, abs=1e-9)


def random_digraph(rng: random.Random, n: int, density: int) -> list[tuple[int, int]]:
    """Random edges that may leave states without successors."""
    return sorted(
        {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, density * n))}
    )


def howard_on_live_part(g: Graph, weights, start: int = 0) -> tuple[float, list[int]]:
    """Howard on the nodes of ``g`` with an infinite path onward, ids mapped back."""
    live = _live_graph(g, start)
    kept = [v for v in range(g.node_count) if live.adjacency[v]]
    index = {v: i for i, v in enumerate(kept)}
    edges = [(index[u], index[v]) for u, v in live.edges()]
    mean, cycle = _howard_max_mean_cycle(
        *edge_arrays(edges), [weights[v] for v in kept], index[start]
    )
    return mean, [kept[i] for i in cycle]


@st.composite
def howard_instances(draw) -> tuple[np.ndarray, np.ndarray, list[float], int]:
    """Edge arrays, weights and a start for Howard, in shuffled state order.

    One to three strongly connected components, each a ring with chords,
    linked onward to later components by an edge or through a gateway
    state, with transient states in front. A component's weights are a
    level plus an offset that makes its mean tie another's, or differ from
    it within Howard's margin or just past it; some components vary their
    weights around that. A light gateway to a better component is a switch
    that only the cycle mean reached can make. Where every policy cycle
    has one mean, as in a single component of uniform weights, Howard
    skips the switch on the mean.
    """
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    comps, edges, weights = [], set(), []
    for size in sizes:
        comp = range(len(weights), len(weights) + size)
        comps.append(comp)
        edges |= {(u, comp[(i + 1) % size]) for i, u in enumerate(comp)}
        chords = st.tuples(st.sampled_from(comp), st.sampled_from(comp))
        edges |= set(draw(st.lists(chords, max_size=2 * size)))
        level = draw(st.sampled_from([0.0, 1.0])) + draw(
            st.sampled_from([0.0, 1e-13, 1e-7, 1e-3])
        )
        spread = draw(st.sampled_from([0.0, 0.0, 0.5]))
        weights += [level + spread * draw(st.sampled_from([-1, 0, 1])) for _ in comp]
    lighter = st.sampled_from([-1.0, 0.0, 3.0])
    for i, comp in enumerate(comps):
        for later in comps[i + 1 :]:
            link = draw(st.sampled_from(["none", "edge", "gateway"]))
            if link == "none":
                continue
            u, w = draw(st.sampled_from(comp)), draw(st.sampled_from(later))
            if link == "gateway":
                edges |= {(u, len(weights)), (len(weights), w)}
                weights.append(draw(lighter))
            else:
                edges.add((u, w))
    # Transient states point only to lower states, so they close no cycle.
    for t in range(len(weights), len(weights) + draw(st.integers(0, 3))):
        ahead = st.integers(0, t - 1)
        edges |= {(t, w) for w in draw(st.lists(ahead, min_size=1, max_size=3))}
        weights.append(draw(lighter))
    n = len(weights)
    label = draw(st.permutations(range(n)))
    # Within a source, edge order is tie order: ascending or descending.
    sign = draw(st.sampled_from([1, -1]))
    pairs = sorted((label[u], sign * label[w]) for u, w in edges)
    src = np.array([u for u, _ in pairs], dtype=np.intp)
    dst = np.array([sign * w for _, w in pairs], dtype=np.intp)
    relabeled = [0.0] * n
    for u, weight in enumerate(weights):
        relabeled[label[u]] = weight
    return src, dst, relabeled, draw(st.integers(0, n - 1))


class TestHowardMaxMeanCycle:
    @settings(max_examples=300)
    @given(howard_instances())
    def test_matches_the_reference_without_shortcuts(self, instance):
        # The skipped switches cannot fire, so the answer is bit-identical.
        def outcome(howard):
            try:
                return howard(*instance)
            except SolverContractError as exc:
                return str(exc)

        assert outcome(_howard_max_mean_cycle) == outcome(oracles.howard_reference)

    def test_matches_karp_on_strongly_connected_graphs(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 25)
            g = TestKarpMeanCycle._random_strongly_connected(rng, n)
            edges = list(g.edges())
            # Integer weights make exact ties between cycles common.
            weights = [
                rng.choice([rng.uniform(-2, 2), float(rng.randint(0, 2))])
                for _ in range(n)
            ]
            start = rng.randrange(n)
            mean, cycle = _howard_max_mean_cycle(*edge_arrays(edges), weights, start)
            expected, _ = karp_mean_cycle(n, edges, weights, "max")
            assert mean == pytest.approx(expected, abs=1e-9)
            achieved = sum(weights[v] for v in cycle) / len(cycle)
            assert achieved == pytest.approx(mean, abs=1e-12)
            assert len(set(cycle)) == len(cycle)
            for i, state in enumerate(cycle):
                assert g.has_edge(state, cycle[(i + 1) % len(cycle)])

    def test_best_reachable_component_with_dead_ends(self):
        rng = random.Random(32)
        for _ in range(80):
            n = rng.randint(2, 20)
            edges = random_digraph(rng, n, 2)
            g = Graph.from_edges(n, edges)
            weights = [rng.uniform(-1, 3) for _ in range(n)]
            start = rng.randrange(n)
            closure = oracles.reachability_closure(g)
            reach = closure[start]
            cyclic = [
                comp
                for comp in oracles.sccs_by_closure(g)
                if len(comp) > 1 or g.has_edge(comp[0], comp[0])
            ]
            # The peel keeps exactly the nodes that reach a cycle.
            ahead = [any(closure[v][c[0]] for c in cyclic) for v in range(n)]
            if ahead[start]:
                live = _live_graph(g, start)
                assert [bool(succs) for succs in live.adjacency] == ahead
            best = None
            for comp in cyclic:
                if not reach[comp[0]]:
                    continue
                local = {s: i for i, s in enumerate(comp)}
                inner = [(local[u], local[v]) for u, v in edges if u in local and v in local]
                mean, _ = karp_mean_cycle(
                    len(comp), inner, [weights[s] for s in comp], "max"
                )
                best = mean if best is None else max(best, mean)
            if best is None:
                with pytest.raises(NoCycleError):
                    _live_graph(g, start)
                continue
            mean, cycle = howard_on_live_part(g, weights, start)
            assert mean == pytest.approx(best, abs=1e-9)
            assert reach[cycle[0]]

    def test_matches_simple_cycle_enumeration(self):
        rng = random.Random(33)
        for _ in range(150):
            n = rng.randint(1, 5)
            edges = random_digraph(rng, n, 3)
            g = Graph.from_edges(n, edges)
            weights = [rng.uniform(0, 3) for _ in range(n)]
            reach = oracles.reachability_closure(g)[0]
            means = [
                sum(weights[v] for v in cyc) / len(cyc)
                for cyc in oracles.simple_cycles(g)
                if reach[cyc[0]]
            ]
            if not means:
                with pytest.raises(NoCycleError):
                    _live_graph(g, 0)
                continue
            mean, _ = howard_on_live_part(g, weights)
            assert mean == pytest.approx(max(means), abs=1e-9)

    def test_a_mean_just_past_the_margin_is_reached_through_a_light_state(self):
        # The start's self-loop weighs 1; through a gateway of weight -1 it
        # reaches a self-loop only 1e-7 heavier, 100 times Howard's margin.
        # Only the switch on the cycle mean reached takes the gateway.
        edges = [(0, 0), (0, 1), (1, 2), (2, 2)]
        weights = [1.0, -1.0, 1.0 + 1e-7]
        got = _howard_max_mean_cycle(*edge_arrays(edges), weights)
        assert got == (1.0 + 1e-7, [2])
        assert got == oracles.howard_reference(*edge_arrays(edges), weights)

    def test_ties_go_to_the_lowest_successor(self):
        # Three equal self-loops behind the start; the first one wins.
        edges = [(0, 3), (0, 2), (0, 1), (1, 1), (2, 2), (3, 3)]
        weights = [0.0, 1.0, 1.0, 1.0]
        assert _howard_max_mean_cycle(*edge_arrays(edges), weights) == (1.0, [1])
        # Listed backwards, the first edge still wins, whatever its index.
        src = np.array([0, 0, 0, 1, 2, 3], dtype=np.intp)
        dst = np.array([3, 2, 1, 1, 2, 3], dtype=np.intp)
        assert _howard_max_mean_cycle(src, dst, weights) == (1.0, [3])

    def test_bad_start_is_refused(self):
        src, dst = edge_arrays([(0, 1), (1, 0)])
        with pytest.raises(InvalidInputError, match="start state 2 out of range"):
            _howard_max_mean_cycle(src, dst, [1.0, 2.0], 2)

    @pytest.mark.parametrize(
        "edges, dead", [([(0, 0), (0, 1)], 1), ([(0, 2), (2, 2)], 1), ([], 0)]
    )
    def test_state_without_out_edge_is_refused(self, edges, dead):
        weights = [1.0] * 3
        with pytest.raises(InvalidInputError, match=f"^state {dead} has no out-edge$"):
            _howard_max_mean_cycle(*edge_arrays(edges), weights)

    def test_iteration_cap_raises(self, monkeypatch):
        # The heavier successor leads into the worse cycle, so the first
        # policy must improve once.
        edges = [(0, 0), (0, 1), (1, 2), (2, 0)]
        weights = [0.0, 5.0, -10.0]
        monkeypatch.setattr(infinite, "_HOWARD_MAX_ITERATIONS", 1)
        assert _howard_max_mean_cycle(*edge_arrays(edges), weights) == (0.0, [0])
        monkeypatch.setattr(infinite, "_HOWARD_MAX_ITERATIONS", 0)
        with pytest.raises(SolverContractError):
            _howard_max_mean_cycle(*edge_arrays(edges), weights)

    def test_long_tail_does_not_hide_a_slightly_better_cycle(self):
        # States 0..L-1 form a tail of weight 1 into a 0-weight self-loop at
        # L, so biases grow to about L. The 2-cycle 1 <-> X beats that loop
        # by only delta, and must still be found: the improvement margin is
        # absolute, not relative to the bias.
        tail, delta = 2000, 1e-7
        loop, extra = tail, tail + 1
        edges = [(u, u + 1) for u in range(tail)]
        edges += [(loop, loop), (1, extra), (extra, 1)]
        weights = [1.0] * tail + [0.0, -1.0 + 2 * delta]
        mean, cycle = _howard_max_mean_cycle(*edge_arrays(edges), weights)
        expected, _ = karp_mean_cycle(2, [(0, 1), (1, 0)], [1.0, weights[extra]], "max")
        assert mean == pytest.approx(expected, abs=1e-12)
        assert sorted(cycle) == [1, extra]

    def test_matches_component_karp_on_truncated_graphs(self):
        rng = random.Random(34)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 4), min_out=0, max_out=2)
            spec = RewardSpec.uniform(g.node_count, 1.0, rng.uniform(0.2, 0.6))
            depth = rng.randint(2, 5)
            try:
                live = _live_graph(g, 0)
            except NoCycleError:
                full = build_truncated(g, 0, depth)
                assert not _cycle_bearing_components(full.state_graph)
                continue
            tg = build_truncated(live, 0, depth)
            table = tg.weights(spec)
            components = _cycle_bearing_components(tg.state_graph)
            edges = edge_arrays(tg.state_graph.edges())
            for weights in (table.reward_under, table.reward_over):
                mean, _ = _howard_max_mean_cycle(*edges, weights, tg.initial)
                best = max(
                    _component_karp(tg, comp, weights, "max")[0] for comp in components
                )
                assert mean == pytest.approx(best, abs=1e-9)


class TestSolveInfiniteApprox:
    def test_three_survival_regimes(self, two_cycles):
        expectations = {
            0.1: ("abc", lambda g: (1 - g**3) / (1 - g)),
            0.26: (
                "abcabcad",
                lambda g: (1 - (g**2 + 4 * g**3 + 2 * g**5 + g**8) / 8) / (1 - g),
            ),
            0.9: (
                "abcad",
                lambda g: (1 - (g**2 + g**3 + 3 * g**5) / 5) / (1 - g),
            ),
        }
        for gamma, (cycle_text, formula) in expectations.items():
            spec = RewardSpec.uniform(4, 1.0, gamma)
            bracket = solve_infinite_approx(two_cycles, spec, 0, 1e-4)
            optimum = formula(gamma)
            assert bracket.r_under - 1e-12 <= optimum <= bracket.r_over + 1e-12
            got = primitive_rotation(bracket.pi_under.cycle)
            want = primitive_rotation(tuple(parse_route(two_cycles, cycle_text)))
            assert got == want

    def test_self_loop_bracket_collapses(self):
        g = Graph.from_edges(1, [(0, 0)])
        spec = RewardSpec.uniform(1, 1.4, 0.3)
        bracket = solve_infinite_approx(g, spec, 0, 1e-6)
        assert bracket.r_under == pytest.approx(1.4, abs=1e-12)
        assert bracket.r_over == pytest.approx(1.4, abs=1e-12)

    def test_witness_replay_is_exact(self, two_cycles):
        spec = RewardSpec.uniform(4, 1.0, 0.26)
        bracket = solve_infinite_approx(two_cycles, spec, 0, 1e-3)
        replay = average_reward(spec, bracket.pi_under).value
        assert replay == bracket.r_under

    def test_no_decay_delegates_to_exact_solver(self, two_cycles):
        spec = RewardSpec.uniform(4, 1.0, 1.0)
        bracket = solve_infinite_approx(two_cycles, spec, 0, 1e-3)
        assert bracket.r_under == bracket.r_over == 4.0
        assert bracket.epsilon_achieved == 0.0

    def test_mixed_decay_rejected(self, two_cycles):
        spec = RewardSpec((1.0,) * 4, (0.5, 1.0, 0.5, 0.5))
        with pytest.raises(ValueError):
            solve_infinite_approx(two_cycles, spec, 0, 1e-3)

    def test_infinite_optimistic_weight_is_solved(self):
        # Waiting at a overflows b's age; that state's optimistic weight
        # lam / (1 - gamma) = 1e309 is inf, but Howard weighs in units of
        # the largest rate, and the optimum, the a-b cycle, fits in a float.
        g = Graph(2, ((0, 1), (0,)))
        spec = RewardSpec.uniform(2, 1e307, 0.99)
        bracket = solve_infinite_approx(g, spec, 0, 1e307)
        assert bracket.r_under == pytest.approx(1.99e307)
        assert bracket.r_under <= bracket.r_over <= bracket.r_under + 1e307
        scaled = solve_infinite_approx(g, RewardSpec.uniform(2, 1e305, 0.99), 0, 1e305)
        assert scaled.r_under == pytest.approx(1.99e305)

    def test_upper_mean_past_float_range_is_refused(self):
        # At unit scale the witness is the 0-1 cycle, which replays to 1.5,
        # and the upper mean is 2.
        g = Graph.from_edges(3, [(u, v) for u in range(3) for v in range(3)])
        spec = RewardSpec((1.0, 1.0, 0.25), (0.5,) * 3)
        bracket = solve_infinite_approx(g, spec, 0, 1.0)
        assert (bracket.r_under, bracket.r_over) == (1.5, 2.0)
        assert bracket.pi_under.cycle == (0, 1)
        # A 2-ring capped at 1: its witness replays to 3.61e307 and fits a
        # float, but the upper mean lam / (1 - gamma) = 1.9e308 does not.
        ring = Graph.from_edges(2, [(0, 1), (1, 0)])
        huge = RewardSpec.uniform(2, 1.9e307, 0.9)
        replay = average_reward(huge, validate_lasso(ring, [], [0, 1])).value
        assert replay == pytest.approx(3.61e307)
        with pytest.raises(InvalidInputError, match="^collected reward overflows a float"):
            solve_infinite_approx(ring, huge, 0, 1.75e308)

    def test_witnesses_follow_the_exact_or_fallback_rule(self):
        # The solve runs Howard once, on the optimistic weights, and that
        # cycle's lasso stands for both witnesses. A cycle with no
        # overflowed own age is exact; otherwise r_over is its mean. Both
        # cases must match an independent optimistic run and its replay.
        rng = random.Random(36)
        seen = set()
        for _ in range(40):
            n = rng.randint(2, 5)
            g = random_graph(rng, n, min_out=0, max_out=min(n, 3))
            spec = RewardSpec.uniform(g.node_count, 1.0, rng.uniform(0.2, 0.6))
            # Coarse truncations make overflowed optimistic cycles common.
            epsilon = rng.choice((0.05, 1.0))
            depth = truncation_depth(spec, epsilon)
            try:
                bracket = solve_infinite_approx(g, spec, 0, epsilon)
            except NoCycleError:
                full = build_truncated(g, 0, depth)
                assert not _cycle_bearing_components(full.state_graph)
                continue
            tg = build_truncated(_live_graph(g, 0), 0, solve_caps(g, spec, epsilon))
            table = tg.weights(spec)
            mean_over, over = _howard_max_mean_cycle(
                *tg.edge_arrays, table.reward_over, tg.initial
            )
            exact = bool(tg.age_matrix[tg.node_array[over], over].all())
            seen.add(exact)
            assert bracket.pi_over == _cycle_to_lasso(tg, over)
            assert bracket.pi_under is bracket.pi_over
            assert bracket.r_under == average_reward(spec, bracket.pi_over).value
            if exact:
                assert bracket.r_under == pytest.approx(mean_over, abs=TOLERANCE)
            # An exact solve reports its replay as both ends.
            r_over = bracket.r_under if exact else max(mean_over, bracket.r_under)
            assert bracket.r_over == r_over
            assert bracket.depth == depth and bracket.state_count == tg.state_count
        assert seen == {True, False}

    @pytest.mark.parametrize(
        "epsilon, depth, width",
        [(1e-5, 9, 0.0), (1e-3, 6, 3.5275e-6)],
        ids=["exact", "fallback"],
    )
    def test_solve_runs_howard_once(
        self, monkeypatch, two_cycles, epsilon, depth, width
    ):
        # At depth 9 the optimistic cycle of the gamma 0.26 fixture visits
        # no overflowed age; at depth 6 it does, and its replay is r_under.
        calls = []
        howard = infinite._howard_max_mean_cycle

        def spy(*args):
            calls.append(args)
            return howard(*args)

        monkeypatch.setattr(infinite, "_howard_max_mean_cycle", spy)
        spec = RewardSpec.uniform(4, 1.0, 0.26)
        bracket = solve_infinite_approx(two_cycles, spec, 0, epsilon)
        assert (bracket.depth, len(calls)) == (depth, 1)
        assert bracket.pi_under is bracket.pi_over
        assert bracket.epsilon_achieved == pytest.approx(width, rel=1e-4)

    def test_overflowed_optimistic_cycle_is_both_witnesses(self):
        # The optimistic cycle waits at 0 and overflows its age at depth 2.
        # Its replay, 1.52, is the lower end, below the 0-1 cycle's 1.6 and
        # within epsilon of the upper mean 1.7.
        g = Graph.from_edges(2, [(0, 0), (0, 1), (1, 0)])
        bracket = solve_infinite_approx(g, RewardSpec.uniform(2, 1.0, 0.6), 0, 1.0)
        assert bracket.pi_under is bracket.pi_over
        assert bracket.pi_over.cycle == (0, 1, 0)
        assert bracket.r_under == pytest.approx(1.52, abs=1e-12)
        assert bracket.r_over == pytest.approx(1.7, abs=1e-12)

    def test_exact_solve_reports_the_optimistic_tie(self):
        # The self-loops at 0 and 1 both collect 0.2 per step. The
        # optimistic run settles on 1's loop and, being exact, names it
        # as both witnesses (a pessimistic run would pick 0's loop).
        g = Graph.from_edges(2, [(0, 0), (0, 1), (1, 1)])
        bracket = solve_infinite_approx(g, RewardSpec((0.2, 0.2), (0.6, 0.5)), 0, 1.0)
        assert bracket.pi_under == bracket.pi_over == Lasso((0, 1), (1,))
        assert bracket.r_under == bracket.r_over == pytest.approx(0.2, abs=1e-12)

    def test_matches_one_optimistic_run_on_heterogeneous_specs(self):
        rng = random.Random(38)
        for _ in range(40):
            n = rng.randint(2, 5)
            g = random_graph(rng, n, max_out=min(n, 3))
            spec = RewardSpec(
                tuple(rng.uniform(0.0, 2.0) for _ in range(n)),
                tuple(rng.uniform(0.2, 0.6) for _ in range(n)),
            )
            epsilon = rng.choice((0.05, 1.0))
            bracket = solve_infinite_approx(g, spec, 0, epsilon)
            tg = build_truncated(g, 0, solve_caps(g, spec, epsilon))
            # The solve weighs in units of the largest rate; so does this.
            unit = max(spec.lam)
            units = RewardSpec(tuple(lam / unit for lam in spec.lam), spec.gamma)
            table = tg.weights(units)
            mean_over, over = _howard_max_mean_cycle(
                *tg.edge_arrays, table.reward_over, tg.initial
            )
            assert bracket.pi_under is bracket.pi_over == _cycle_to_lasso(tg, over)
            r_under = average_reward(spec, bracket.pi_over).value
            assert bracket.r_under == r_under
            if tg.age_matrix[tg.node_array[over], over].all():
                assert bracket.r_over == bracket.r_under
            else:
                assert bracket.r_over == max(mean_over * unit, r_under)

    def test_budget_error_reports_feasible_epsilon(self, two_cycles):
        spec = RewardSpec.uniform(4, 1.0, 0.5)
        with pytest.raises(StateBudgetExceededError) as err:
            solve_infinite_approx(two_cycles, spec, 0, 1e-9, state_budget=20)
        # The suggestion is above the epsilon that failed.
        assert str(err.value) == (
            "truncated graph at depth 31 exceeds 20 states; "
            "epsilon around 1 should fit the budget"
        )

    def test_advised_epsilon_fits_the_budget(self):
        # Retrying at the advised epsilon, with the same budget, fits.
        rng = random.Random(11)
        advised = 0
        for _ in range(300):
            n = rng.randint(2, 5)
            g = random_graph(rng, n)
            spec = RewardSpec(
                tuple(rng.uniform(0.1, 2.0) for _ in range(n)),
                tuple(rng.uniform(0.05, 0.95) for _ in range(n)),
            )
            budget = rng.choice([20, 50, 200, 1000, 3000])
            try:
                solve_infinite_approx(
                    g, spec, 0, rng.choice([1e-2, 1e-3, 1e-4]), state_budget=budget
                )
                continue
            except StateBudgetExceededError as exc:
                advice = re.search(r"epsilon around (\S+) should fit", str(exc))
            if advice:
                advised += 1
                solve_infinite_approx(g, spec, 0, float(advice[1]), state_budget=budget)
        assert advised > 150

    @pytest.mark.parametrize(
        "budget, advice",
        [(25, "raise the state budget"), (26, "epsilon around 1 should fit the budget")],
    )
    def test_depth_one_advice_counts_the_edges(self, budget, advice):
        # K5 with self-loops: at depth 1, one state per edge and the start,
        # 26 in all; no age grid of 5 nodes fits either budget.
        g = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(5)])
        spec = RewardSpec.uniform(5, 1.0, 0.5)
        with pytest.raises(StateBudgetExceededError) as err:
            solve_infinite_approx(g, spec, 0, 1e-3, state_budget=budget)
        assert str(err.value) == (
            f"truncated graph at depth 11 exceeds {budget} states; {advice}"
        )
        if budget == 26:
            assert solve_infinite_approx(g, spec, 0, 1.0, state_budget=26).state_count == 26

    @pytest.mark.parametrize("lam", [(0.0, 0.0, 0.0), (1e-12, 0.0, 0.0)])
    def test_budget_error_at_depth_one_asks_for_a_larger_budget(self, lam):
        # Every cap is already 1, so no epsilon shrinks the build; the
        # estimate (0, or 1e-12) is below the epsilon that failed.
        g = Graph.from_edges(3, [(u, v) for u in range(3) for v in range(3) if u != v])
        with pytest.raises(StateBudgetExceededError) as err:
            solve_infinite_approx(g, RewardSpec(lam, (0.5,) * 3), 0, 0.1, state_budget=3)
        assert str(err.value) == (
            "truncated graph at depth 1 exceeds 3 states; raise the state budget"
        )

    def test_no_infinite_path_is_found_before_the_budget(self):
        # Every path of a complete DAG ends, which the input graph shows;
        # the truncated graph alone would overflow this budget.
        g = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        spec = RewardSpec.uniform(6, 1.0, 0.5)
        with pytest.raises(StateBudgetExceededError):
            build_truncated(g, 0, truncation_depth(spec, 1e-3), state_budget=20)
        with pytest.raises(NoCycleError, match="^no infinite path starts at node 0$"):
            solve_infinite_approx(g, spec, 0, 1e-3, state_budget=20)

    def test_bracket_contract_on_random_instances(self):
        rng = random.Random(77)
        done = 0
        while done < 12:
            g = random_graph(rng, rng.randint(2, 4), max_out=2)
            gamma = rng.uniform(0.2, 0.5)
            lam = rng.uniform(0.5, 2.0)
            spec = RewardSpec.uniform(g.node_count, lam, gamma)
            epsilon = 1e-3
            bracket = solve_infinite_approx(g, spec, 0, epsilon)
            done += 1
            assert bracket.r_under <= bracket.r_over
            assert bracket.epsilon_achieved <= epsilon
            replay = average_reward(spec, bracket.pi_under).value
            assert replay == bracket.r_under
            validate_lasso(g, bracket.pi_under.prefix, bracket.pi_under.cycle)
            validate_lasso(g, bracket.pi_over.prefix, bracket.pi_over.cycle)
            assert bracket.pi_under.prefix[:1] in ((0,), ())
            head = (bracket.pi_under.prefix or bracket.pi_under.cycle)[0]
            assert head == 0

    def test_lower_bound_dominates_simple_cycles(self, two_cycles):
        # The bracket's lower end cannot be beaten by any single cycle.
        spec = RewardSpec.uniform(4, 1.0, 0.3)
        bracket = solve_infinite_approx(two_cycles, spec, 0, 1e-5)
        for cyc in oracles.simple_cycles(two_cycles):
            value = average_reward(spec, validate_lasso(two_cycles, [], cyc)).value
            assert value <= bracket.r_under + 1e-9

    def test_under_value_monotone_in_depth(self, two_cycles):
        # Deeper truncation can only help the pessimistic witness and only
        # lower the optimistic bound.
        spec = RewardSpec.uniform(4, 1.0, 0.1)
        from reward_routing.infinite import _cycle_to_lasso

        previous_under = -1.0
        previous_over = float("inf")
        for depth in range(2, 9):
            tg = build_truncated(two_cycles, 0, depth)
            table = tg.weights(spec)
            best_under = None
            best_over = None
            for comp in _cycle_bearing_components(tg.state_graph):
                mean, cycle = _component_karp(tg, comp, table.reward_under, "max")
                if best_under is None or mean > best_under[0]:
                    best_under = (mean, cycle)
                mean_over, _ = _component_karp(tg, comp, table.reward_over, "max")
                if best_over is None or mean_over > best_over:
                    best_over = mean_over
            value = average_reward(spec, _cycle_to_lasso(tg, best_under[1])).value
            assert value >= previous_under - 1e-12
            assert best_over <= previous_over + 1e-12
            previous_under = value
            previous_over = best_over

    def test_cost_and_reward_weightings_are_dual(self, two_cycles):
        # With node-invariant parameters the optimistic/pessimistic cycle
        # means in reward space are affine images of the cost-space ones.
        lam, gamma, depth = 1.0, 0.1, 5
        spec = RewardSpec.uniform(4, lam, gamma)
        tg = build_truncated(two_cycles, 0, depth)
        table = tg.weights(spec)
        pairs = [weight_pair(spec, state, depth) for state in tg.states]
        cost_over = np.array([pair.cost_over for pair in pairs])
        cost_under = np.array([pair.cost_under for pair in pairs])

        for comp in _cycle_bearing_components(tg.state_graph):
            reward_under, _ = _component_karp(tg, comp, table.reward_under, "max")
            min_cost_over, _ = _component_karp(tg, comp, cost_over, "min")
            assert reward_under == pytest.approx(
                lam / (1 - gamma) * (1 - min_cost_over), abs=1e-12
            )
            reward_over, _ = _component_karp(tg, comp, table.reward_over, "max")
            min_cost_under, _ = _component_karp(tg, comp, cost_under, "min")
            assert reward_over == pytest.approx(
                lam / (1 - gamma) * (1 - min_cost_under), abs=1e-12
            )

    def test_bracket_intersects_the_closed_form_bounds(self, two_cycles):
        from reward_routing import average_reward_bounds

        for gamma in (0.1, 0.26, 0.5):
            spec = RewardSpec.uniform(4, 1.0, gamma)
            lower, upper = average_reward_bounds(two_cycles, spec)
            bracket = solve_infinite_approx(two_cycles, spec, 0, 1e-4)
            assert max(bracket.r_under, lower) <= min(bracket.r_over, upper) + 1e-9


class TestPerNodeCaps:
    """Each node's age is capped at its own depth, where the start can go."""

    def test_heterogeneous_state_count_pin(self, two_cycles):
        spec = RewardSpec((1.0, 0.5, 2.0, 0.25), (0.5, 0.3, 0.6, 0.4))
        bracket = solve_infinite_approx(two_cycles, spec, 0, 0.01)
        assert solve_caps(two_cycles, spec, 0.01) == (8, 4, 13, 5)
        assert (bracket.depth, bracket.state_count) == (13, 39)
        assert build_truncated(two_cycles, 0, 13).state_count == 62

    def test_uniform_specs_solve_as_with_one_depth(self):
        # A ring through every node keeps them all reached and live, so
        # every cap is the one global depth: same bracket, bit for bit.
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(2, 5)
            edges = [(i, (i + 1) % n) for i in range(n)]
            edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
            g = Graph.from_edges(n, edges)
            spec = RewardSpec.uniform(n, rng.choice((0.0, 0.5, 1.0)), rng.uniform(0.2, 0.7))
            epsilon = rng.choice((1e-3, 0.05, 1.0))
            assert solve_infinite_approx(g, spec, 0, epsilon) == global_depth_bracket(
                g, spec, epsilon
            )

    @settings(max_examples=60, deadline=None)
    @given(heterogeneous_instances())
    def test_bracket_holds_and_overlaps_the_global_depth_bracket(self, instance):
        g, spec, epsilon = instance
        try:
            bracket = solve_infinite_approx(g, spec, 0, epsilon)
        except NoCycleError:
            assume(False)
        # r_under is a real path's exact value, so at most the optimum.
        assert average_reward(spec, bracket.pi_under).value == bracket.r_under
        assert bracket.r_over - bracket.r_under <= epsilon
        # r_over is at least every enumerated lasso's value.
        for length in range(1, 6):
            for walk in oracles.enumerate_paths(g, 0, length):
                head = walk.index(walk[-1])
                if head == length:
                    continue
                cycle = walk[head:-1]
                total = oracles.explicit_path_total(spec.lam, spec.gamma, cycle * 2)
                total -= oracles.explicit_path_total(spec.lam, spec.gamma, cycle)
                assert total / len(cycle) <= bracket.r_over * (1.0 + TOLERANCE)
        wide = global_depth_bracket(g, spec, epsilon)
        assert wide.r_over - wide.r_under <= epsilon
        low = max(bracket.r_under, wide.r_under)
        assert low <= min(bracket.r_over, wide.r_over) * (1.0 + TOLERANCE)
        assert bracket.depth <= wide.depth
        assert bracket.state_count <= wide.state_count

    def test_overflowed_silent_node_keeps_the_solve_exact(self, monkeypatch):
        # The only cycle passes the silent node 1 at age 2, past its cap of
        # 1; that visit weighs 0 either way, so one Howard run is enough.
        calls = []
        howard = infinite._howard_max_mean_cycle

        def spy(*args):
            calls.append(args)
            return howard(*args)

        monkeypatch.setattr(infinite, "_howard_max_mean_cycle", spy)
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        spec = RewardSpec((1.0, 0.0), (0.6, 0.6))
        bracket = solve_infinite_approx(g, spec, 0, 1e-3)
        assert solve_caps(g, spec, 1e-3) == (16, 1)
        assert len(calls) == 1 and bracket.pi_under is bracket.pi_over
        assert bracket.r_under == bracket.r_over == pytest.approx(0.8, abs=1e-15)

    def test_unreachable_large_rate_does_not_size_the_caps(self):
        # Rates and epsilon near 1e-9 beside a self-loop node of rate 1 the
        # start cannot reach. With that node's depth as every cap, these
        # solves went 31-38 deep, and one passed this budget.
        rng = random.Random(6)
        scale = 2.0**-30
        for _ in range(30):
            n = rng.randint(2, 4)
            g = random_graph(rng, n, max_out=min(n, 3))
            spec = RewardSpec(
                tuple(rng.uniform(0.0, 2.0) * scale for _ in range(n)),
                tuple(rng.uniform(0.2, 0.6) for _ in range(n)),
            )
            epsilon = rng.choice((0.01, 0.1, 1.0)) * scale
            alone = solve_infinite_approx(g, spec, 0, epsilon, state_budget=100_000)
            beside = solve_infinite_approx(
                Graph(n + 1, g.adjacency + ((n,),)),
                RewardSpec(spec.lam + (1.0,), spec.gamma + (0.5,)),
                0,
                epsilon,
                state_budget=100_000,
            )
            assert (beside.depth, beside.state_count) == (alone.depth, alone.state_count)
            assert beside.r_over - beside.r_under <= epsilon

    def test_bracket_check_slack_is_relative(self, monkeypatch):
        # A 2-ring at rates near 1e-9, every visit overflowed at cap 1: its
        # width is 0.9e-9 of 1.6e-9. Widening the optimistic mean by
        # epsilon / 2 breaks the contract by less than an absolute 1e-9.
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        spec = RewardSpec.uniform(2, 1e-9, 0.6)
        epsilon = 1.6e-9
        bracket = solve_infinite_approx(g, spec, 0, epsilon)
        assert bracket.depth == 1 and bracket.pi_under is bracket.pi_over
        assert bracket.epsilon_achieved == pytest.approx(0.9e-9, rel=1e-12)
        howard = infinite._howard_max_mean_cycle

        def widened(*args):
            mean, cycle = howard(*args)
            return mean + epsilon / 2 / max(spec.lam), cycle

        monkeypatch.setattr(infinite, "_howard_max_mean_cycle", widened)
        with pytest.raises(SolverContractError, match="violates its contract"):
            solve_infinite_approx(g, spec, 0, epsilon)


class TestOneHowardRun:
    """The optimistic witness's replay is the lower end of every bracket."""

    def test_replay_covers_the_pessimistic_mean_of_its_cycle(self, monkeypatch):
        # An overflowed visit collects at least its pessimistic weight, so
        # the replay of pi_over is at least its state cycle's pessimistic
        # mean, which is within epsilon of the optimistic mean.
        runs = []
        howard = infinite._howard_max_mean_cycle

        def spy(*args):
            runs.append((args, howard(*args)))
            return runs[-1][1]

        monkeypatch.setattr(infinite, "_howard_max_mean_cycle", spy)
        rng = random.Random(22)
        fallbacks = 0
        for _ in range(80):
            n = rng.randint(2, 6)
            g = random_graph(rng, n, max_out=min(n, 3))
            spec = RewardSpec(
                tuple(rng.choice((0.0, 0.2, 1.0, 3.0)) for _ in range(n)),
                tuple(rng.choice((0.2, 0.4, 0.6, 0.8)) for _ in range(n)),
            )
            epsilon = rng.choice((1.0, 0.1, 0.03))
            runs.clear()
            bracket = solve_infinite_approx(g, spec, 0, epsilon)
            assert len(runs) == 1 and bracket.pi_under is bracket.pi_over
            assert bracket.r_over - bracket.r_under <= epsilon
            (src, dst, _, _), (_, cycle) = runs[0]
            tg = build_truncated(_live_graph(g, 0), 0, solve_caps(g, spec, epsilon))
            assert np.array_equal(src, tg.edge_arrays[0])
            assert np.array_equal(dst, tg.edge_arrays[1])
            on_cycle = tg.node_array[cycle]
            overflowed = tg.age_matrix[on_cycle, cycle] == 0
            if not np.asarray(spec.lam)[on_cycle[overflowed]].any():
                continue
            fallbacks += 1
            pessimistic = math.fsum(tg.weights(spec).reward_under[cycle]) / len(cycle)
            assert pessimistic <= bracket.r_under * (1.0 + TOLERANCE)
        assert fallbacks >= 15


class TestRateUnits:
    """The bracket's guarantees hold alike in any unit of the rates."""

    def test_power_of_two_units_scale_the_bracket_exactly(self):
        rng = random.Random(20)
        for _ in range(30):
            n = rng.randint(2, 5)
            g = random_graph(rng, n, max_out=min(n, 3))
            spec = RewardSpec(
                tuple(rng.uniform(0.0, 2.0) for _ in range(n)),
                tuple(rng.uniform(0.2, 0.8) for _ in range(n)),
            )
            epsilon = rng.choice((1e-2, 0.1, 1.0))
            base = solve_infinite_approx(g, spec, 0, epsilon)
            for k in range(-40, 41, 10):
                scale = 2.0**k
                got = solve_infinite_approx(g, _scaled(spec, scale), 0, epsilon * scale)
                assert got.r_under == base.r_under * scale
                assert got.r_over == base.r_over * scale
                assert (got.pi_under, got.pi_over) == (base.pi_under, base.pi_over)
                assert (got.depth, got.state_count) == (base.depth, base.state_count)

    @pytest.mark.parametrize("unreachable", [False, True], ids=["alone", "unreachable"])
    def test_small_unit_upper_bound_covers_every_enumerated_lasso(self, unreachable):
        # Rates near 1e-9; with ``unreachable`` a node of rate 1 that the
        # start cannot reach is the largest rate, the unit Howard weighs in.
        rng = random.Random(21)
        scale = 2.0**-30
        for _ in range(20):
            n = rng.randint(2, 4)
            g = random_graph(rng, n, max_out=min(n, 3))
            lam = tuple(rng.uniform(0.1, 2.0) * scale for _ in range(n))
            gamma = tuple(rng.uniform(0.2, 0.8) for _ in range(n))
            if unreachable:
                g = Graph(n + 1, g.adjacency + ((n,),))
                lam, gamma = lam + (1.0,), gamma + (0.01,)
            epsilon = 1e-2 * scale
            bracket = solve_infinite_approx(g, RewardSpec(lam, gamma), 0, epsilon)
            assert bracket.r_over - bracket.r_under <= epsilon
            for length in range(1, 7):
                for walk in oracles.enumerate_paths(g, 0, length):
                    head = walk.index(walk[-1])
                    if head == length:
                        continue
                    # The steady period: the second lap of the cycle.
                    cycle = walk[head:-1]
                    total = oracles.explicit_path_total(lam, gamma, cycle * 2)
                    total -= oracles.explicit_path_total(lam, gamma, cycle)
                    value = total / len(cycle)
                    assert value <= bracket.r_over * (1.0 + TOLERANCE), spell(g, walk)


class TestSolveNondiscounted:
    def test_disagreeing_replay_is_a_contract_failure(self, monkeypatch, two_cycles):
        replay = infinite.decayed_average_reward

        def disagreeing(*args):
            value = replay(*args)
            return RewardValue(value.value - 1.0, value.kind)

        monkeypatch.setattr(infinite, "decayed_average_reward", disagreeing)
        with pytest.raises(SolverContractError, match="witness re-scores to"):
            solve_nondiscounted(two_cycles, [1.0] * 4, 0)
        # The gamma = 1 handover of the bracket solver inherits the check.
        with pytest.raises(SolverContractError, match="witness re-scores to"):
            solve_infinite_approx(two_cycles, RewardSpec.uniform(4, 1.0, 1.0), 0, 0.1)

    def test_two_cycles_covers_everything(self, two_cycles):
        solution = solve_nondiscounted(two_cycles, [1.0] * 4, 0)
        assert solution.value.value == 4.0
        assert set(solution.witness.cycle) == {0, 1, 2, 3}
        spec = RewardSpec.uniform(4, 1.0, 1.0)
        assert average_reward(spec, solution.witness).value == 4.0

    def test_single_self_loop(self):
        g = Graph.from_edges(1, [(0, 0)])
        solution = solve_nondiscounted(g, [2.5], 0)
        assert solution.value.value == 2.5

    def test_unreachable_component_is_ignored(self):
        g = Graph.from_edges(3, [(0, 0), (1, 2), (2, 1)])
        solution = solve_nondiscounted(g, [1.0, 5.0, 5.0], 0)
        assert solution.value.value == 1.0

    def test_prefers_heavier_component(self):
        # Start can reach both loops; the heavier one wins.
        g = Graph.from_edges(4, [(0, 1), (1, 1), (0, 2), (2, 3), (3, 2)])
        solution = solve_nondiscounted(g, [0.0, 1.0, 0.6, 0.6], 0)
        assert solution.value.value == pytest.approx(1.2)
        assert set(solution.witness.cycle) == {2, 3}

    def test_no_cycle_reachable(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(NoCycleError):
            solve_nondiscounted(g, [1.0, 1.0], 0)

    @pytest.mark.parametrize(
        "lam, message",
        [
            ([-1.0, -1.0], r"^lam\[0\] must be non-negative$"),
            ([float("nan"), 1.0], r"^lam\[0\] must be a finite number$"),
            ([True, 1.0], r"^lam\[0\] must be a finite number$"),
            ([1.0, float("inf")], r"^lam\[1\] must be a finite number$"),
        ],
        ids=["negative", "nan", "boolean", "infinite"],
    )
    def test_bad_rates_are_refused(self, lam, message):
        ring = Graph.from_edges(2, [(0, 1), (1, 0)])
        with pytest.raises(InvalidInputError, match=message):
            solve_nondiscounted(ring, lam, 0)

    def test_matches_component_enumeration(self):
        rng = random.Random(15)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 6))
            lam = [rng.uniform(0, 2) for _ in range(g.node_count)]
            v0 = rng.randrange(g.node_count)
            reach = oracles.reachability_closure(g)[v0]
            best = None
            for comp in oracles.sccs_by_closure(g):
                if not reach[comp[0]]:
                    continue
                if len(comp) == 1 and not g.has_edge(comp[0], comp[0]):
                    continue
                total = sum(lam[v] for v in comp)
                best = total if best is None else max(best, total)
            if best is None:
                with pytest.raises(NoCycleError):
                    solve_nondiscounted(g, lam, v0)
                continue
            solution = solve_nondiscounted(g, lam, v0)
            assert solution.value.value == pytest.approx(best, abs=1e-12)
            spec = RewardSpec.uniform(g.node_count, 1.0, 1.0)
            replay = average_reward(
                RewardSpec(tuple(lam), (1.0,) * g.node_count), solution.witness
            ).value
            assert replay == pytest.approx(solution.value.value, abs=1e-12)

    def test_average_value_bounded_by_visited_rates(self):
        # Long-run average never beats the total rate of the nodes it loops.
        rng = random.Random(21)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 4))
            nodes = [rng.randrange(g.node_count)]
            for _ in range(rng.randint(1, 5)):
                nodes.append(rng.choice(g.successors(nodes[-1])))
            head = nodes[-1]
            cycle = [head]
            ok = True
            while True:
                nxt = rng.choice(g.successors(cycle[-1]))
                if nxt == head:
                    break
                cycle.append(nxt)
                if len(cycle) > 10:
                    ok = False
                    break
            if not ok:
                continue
            lam = tuple(rng.uniform(0, 2) for _ in range(g.node_count))
            spec = RewardSpec(lam, (1.0,) * g.node_count)
            lasso = validate_lasso(g, nodes[:-1], cycle)
            value = average_reward(spec, lasso).value
            assert value <= sum(lam[v] for v in set(cycle)) + 1e-9


class TestDecideInfiniteValue:
    def test_ring_reaches_its_own_optimum(self):
        gamma = 0.2
        spec = RewardSpec.uniform(4, 1.0, gamma)
        threshold = (1 - gamma**4) / (1 - gamma)
        decision, _ = decide_infinite_value(ring_graph(4), spec, 0, threshold, 1e-4)
        assert decision == "yes"

    def test_zero_threshold(self, two_cycles):
        spec = RewardSpec.uniform(4, 1.0, 0.3)
        decision, _ = decide_infinite_value(two_cycles, spec, 0, 0.0, 1e-3)
        assert decision == "yes"

    def test_missing_full_tour_shows_up_as_no(self, two_cycles):
        # The two-cycle graph has no single tour of all four nodes, so the
        # four-node optimum is unreachable for small survival rates.
        gamma = 0.2
        spec = RewardSpec.uniform(4, 1.0, gamma)
        threshold = (1 - gamma**4) / (1 - gamma)
        decision, bracket = decide_infinite_value(
            two_cycles, spec, 0, threshold, 1e-3
        )
        assert decision == "no"
        assert bracket.r_over < threshold

    def test_unknown_inside_a_wide_bracket(self, two_cycles):
        spec = RewardSpec.uniform(4, 1.0, 0.26)
        exact = average_reward(
            spec, validate_lasso(two_cycles, [], parse_route(two_cycles, "abcabcad"))
        ).value
        decision, bracket = decide_infinite_value(
            two_cycles, spec, 0, exact + 1e-7, 1.0
        )
        assert decision == "unknown"
        assert bracket.r_under <= exact + 1e-7 <= bracket.r_over

    def test_threshold_slack_is_relative(self):
        # The optimum is 1.5 * 2**-30, about 1.397e-9; a threshold 50% above
        # it is out of reach, however small the unit.
        spec = RewardSpec.uniform(2, 2.0**-30, 0.5)
        decision, bracket = decide_infinite_value(
            ring_graph(2), spec, 0, 2.095e-9, 2.0**-30 * 1e-3
        )
        assert bracket.r_over == 1.5 * 2.0**-30
        assert decision == "no"
