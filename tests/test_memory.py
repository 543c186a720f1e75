from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from reward_routing import (
    ChoiceNotEdgeError,
    FiniteStrategy,
    Graph,
    InstanceTooLargeError,
    InvalidInputError,
    Lasso,
    MemoryStructure,
    NoCycleError,
    RewardSpec,
    average_reward,
    outcome,
    solve_bounded_memory,
    validate_lasso,
)

import oracles
from conftest import parse_route, random_graph, spell, two_cycles_graph

TWO_CYCLES = two_cycles_graph()
SPEC_26 = RewardSpec.uniform(4, 1.0, 0.26)


@st.composite
def sparse_instances(draw) -> tuple[Graph, RewardSpec, int]:
    """A 1-4 node graph with at most 2n+1 edges, its rewards, and a start.

    Self-loops and dead ends may occur. Rates and survivals come from short
    lists so that ties between different lassos are common. Denser graphs
    are left out because the reference takes seconds on them at memory 3.
    """
    n = draw(st.integers(1, 4))
    node = st.integers(0, n - 1)
    size = draw(st.integers(0, 2 * n + 1))
    edges = draw(
        st.lists(st.tuples(node, node), min_size=size, max_size=size, unique=True)
    )
    lam = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n))
    gamma = draw(st.lists(st.sampled_from([0.26, 0.5, 1.0]), min_size=n, max_size=n))
    return Graph.from_edges(n, edges), RewardSpec(tuple(lam), tuple(gamma)), draw(node)


def memoryless(g: Graph, choices: dict[int, int], start: int) -> FiniteStrategy:
    memory = MemoryStructure(1, 1, {(1, v): 1 for v in range(g.node_count)})
    return FiniteStrategy(memory, {(v, 1): w for v, w in choices.items()}, start)


class TestOutcome:
    def test_memoryless_triangle(self):
        strategy = memoryless(TWO_CYCLES, {0: 1, 1: 2, 2: 0}, 0)
        path = outcome(TWO_CYCLES, strategy, 7)
        assert spell(TWO_CYCLES, path.nodes) == "abcabcab"

    def test_single_slot_self_loop(self):
        g = Graph.from_edges(1, [(0, 0)])
        strategy = memoryless(g, {0: 0}, 0)
        assert outcome(g, strategy, 4).nodes == (0,) * 5

    def test_three_slot_strategy_alternates_the_loops(self):
        # Two triangle rounds, then the short loop, forever.
        update = {}
        choice = {}
        for slot in (1, 2, 3):
            for v in range(4):
                update[(slot, v)] = slot
                choice[(v, slot)] = {0: 1, 1: 2, 2: 0, 3: 0}[v]
        update[(1, 2)] = 2  # after leaving c the first time, advance
        update[(2, 2)] = 3  # after leaving c the second time, advance
        update[(3, 3)] = 1  # leaving d resets
        choice[(0, 1)] = 1
        choice[(0, 2)] = 1
        choice[(0, 3)] = 3
        strategy = FiniteStrategy(MemoryStructure(3, 1, update), choice, 0)
        path = outcome(TWO_CYCLES, strategy, 15)
        assert spell(TWO_CYCLES, path.nodes) == "abcabcadabcabcad"

    def test_choice_off_the_edge_set_is_rejected_eagerly(self):
        strategy = memoryless(TWO_CYCLES, {0: 2, 1: 2, 2: 0, 3: 0}, 0)
        with pytest.raises(ChoiceNotEdgeError):
            outcome(TWO_CYCLES, strategy, 3)

    def test_missing_choice_on_a_reachable_node(self):
        strategy = memoryless(TWO_CYCLES, {0: 1, 1: 2}, 0)
        with pytest.raises(ChoiceNotEdgeError):
            outcome(TWO_CYCLES, strategy, 5)


class TestSolveBoundedMemory:
    def test_three_slots_beat_memoryless(self):
        three = solve_bounded_memory(TWO_CYCLES, SPEC_26, 0, 3)
        one = solve_bounded_memory(TWO_CYCLES, SPEC_26, 0, 1)
        assert spell(TWO_CYCLES, three.witness.cycle) in (
            "abcabcad", "bcabcada", "cabcadab", "abcadabc",
            "bcadabca", "cadabcab", "adabcabc", "dabcabca",
        )
        expected = average_reward(
            SPEC_26,
            validate_lasso(TWO_CYCLES, [], parse_route(TWO_CYCLES, "abcabcad")),
        ).value
        assert three.value.value == pytest.approx(expected, abs=1e-12)
        assert three.value.value > one.value.value + 1e-6

    def test_memoryless_on_gentle_decay_stays_in_the_triangle(self):
        spec = RewardSpec.uniform(4, 1.0, 0.1)
        best = solve_bounded_memory(TWO_CYCLES, spec, 0, 1)
        assert spell(TWO_CYCLES, best.witness.cycle) == "abc"
        assert best.value.value == pytest.approx((1 - 0.1**3) / 0.9, abs=1e-12)

    def test_self_loop_any_memory(self):
        g = Graph.from_edges(1, [(0, 0)])
        spec = RewardSpec.uniform(1, 1.9, 0.5)
        for slots in (1, 2, 3):
            solution = solve_bounded_memory(g, spec, 0, slots)
            assert solution.value.value == pytest.approx(1.9, abs=1e-12)

    def test_value_monotone_in_memory(self):
        previous = -1.0
        for slots in (1, 2, 3):
            value = solve_bounded_memory(TWO_CYCLES, SPEC_26, 0, slots).value.value
            assert value >= previous - 1e-12
            previous = value

    def test_guard(self):
        g = random_graph(random.Random(0), 5)
        spec = RewardSpec.uniform(5, 1.0, 0.5)
        with pytest.raises(
            InstanceTooLargeError,
            match=r"limited to 4 nodes and the graph has 5; pass max_nodes=",
        ):
            solve_bounded_memory(g, spec, 0, 2)
        with pytest.raises(
            InstanceTooLargeError,
            match=r"limited to memory 3 and 4 was asked for; pass max_memory=",
        ):
            solve_bounded_memory(TWO_CYCLES, SPEC_26, 0, 4)
        with pytest.raises(InvalidInputError, match=r"^memory size must be at least 1$"):
            solve_bounded_memory(TWO_CYCLES, SPEC_26, 0, 0)

    @settings(max_examples=80)
    @given(sparse_instances(), st.integers(1, 3))
    def test_matches_the_full_enumeration(self, instance, slots):
        g, spec, v0 = instance

        def result(solve):
            try:
                return solve(g, spec, v0, slots)
            except NoCycleError as exc:
                return type(exc)

        # Exact equality: value bits, choice map, memory update and witness.
        assert result(solve_bounded_memory) == result(
            oracles.bounded_memory_reference
        )

    @pytest.mark.parametrize(
        "node_count, edges, cycle",
        [(2, [(0, 0), (0, 1)], (0,)), (3, [(0, 1), (1, 0), (0, 2)], (0, 1))],
    )
    def test_dead_end_branches_are_skipped(self, node_count, edges, cycle):
        g = Graph.from_edges(node_count, edges)
        spec = RewardSpec.uniform(node_count, 1.0, 0.5)
        for slots in (1, 2):
            solution = solve_bounded_memory(g, spec, 0, slots)
            assert solution.witness == Lasso((), cycle)
            assert solution.value == average_reward(spec, solution.witness)

    def test_no_infinite_path_is_no_cycle(self):
        g = Graph.from_edges(1, [])
        with pytest.raises(NoCycleError, match="no infinite path starts at node 0"):
            solve_bounded_memory(g, RewardSpec.uniform(1, 1.0, 0.5), 0, 1)

    def test_strategy_outcome_replays_the_witness(self):
        solution = solve_bounded_memory(TWO_CYCLES, SPEC_26, 0, 3)
        total = len(solution.witness.prefix) + 3 * len(solution.witness.cycle)
        replay = outcome(TWO_CYCLES, solution.strategy, total)
        expected = solution.witness.unroll(total)
        assert replay.nodes == expected

    def test_matches_full_strategy_enumeration_on_a_tiny_instance(self):
        # Exhaustive (choice, update) enumeration as an independent oracle.
        g = Graph.from_edges(2, [(0, 1), (1, 0), (1, 1)])
        spec = RewardSpec((1.0, 0.5), (0.4, 0.7))
        slots = 2
        best = -1.0
        node_slots = [(v, m) for v in range(2) for m in (1, 2)]
        choice_space = [g.successors(v) for v, _ in node_slots]
        update_space = [(1, 2)] * len(node_slots)
        for picks in itertools.product(*choice_space):
            for updates in itertools.product(*update_space):
                strategy = FiniteStrategy(
                    MemoryStructure(
                        slots,
                        1,
                        {
                            (m, v): updates[i]
                            for i, (v, m) in enumerate(node_slots)
                        },
                    ),
                    {
                        (v, m): picks[i]
                        for i, (v, m) in enumerate(node_slots)
                    },
                    0,
                )
                # Unroll far enough to read off the limiting cycle.
                path = outcome(g, strategy, 12)
                tail = path.nodes[-5:]
                # Find the cycle by locating the repeat of the last state.
                seen = {}
                cycle = None
                states = []
                node, slot = 0, 1
                for _ in range(10):
                    key = (node, slot)
                    if key in seen:
                        cycle = states[seen[key]:]
                        break
                    seen[key] = len(states)
                    states.append(key)
                    nxt = strategy.next_node(node, slot)
                    slot = strategy.memory.next_slot(slot, node)
                    node = nxt
                assert cycle is not None
                value = average_reward(
                    spec, Lasso((), tuple(v for v, _ in cycle))
                ).value
                best = max(best, value)
        solution = solve_bounded_memory(g, spec, 0, slots, max_nodes=2, max_memory=2)
        assert solution.value.value == pytest.approx(best, abs=1e-12)


class TestVisitationOrderInsufficiency:
    def test_counting_beats_every_order_based_route(self):
        # Remembering only the order of last visits can only produce these
        # six routes; counting repeat visits does strictly better.
        order_based = [
            ("", "abc"),
            ("abc", "ad"),
            ("", "abcad"),
            ("", "ad"),
            ("ad", "abc"),
            ("", "adabc"),
        ]
        best_order = max(
            average_reward(
                SPEC_26,
                validate_lasso(
                    TWO_CYCLES,
                    parse_route(TWO_CYCLES, prefix),
                    parse_route(TWO_CYCLES, cycle),
                ),
            ).value
            for prefix, cycle in order_based
        )
        counting = average_reward(
            SPEC_26,
            validate_lasso(TWO_CYCLES, [], parse_route(TWO_CYCLES, "abcabcad")),
        ).value
        assert counting > best_order + 1e-6
