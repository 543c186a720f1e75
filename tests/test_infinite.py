from __future__ import annotations

import math
import random

import numpy as np
import pytest

from reward_routing import (
    Graph,
    InvalidInputError,
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
    solve_infinite_approx,
    solve_nondiscounted,
    truncation_depth,
    validate_lasso,
    weight_pair,
)
from reward_routing import infinite
from reward_routing.infinite import (
    _component_karp,
    _cycle_bearing_components,
    _cycle_to_lasso,
    _howard_max_mean_cycle,
)

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


class TestHowardMaxMeanCycle:
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
            [(mean, cycle)] = _howard_max_mean_cycle(*edge_arrays(edges), [weights], start)
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
            reach = oracles.reachability_closure(g)[start]
            best = None
            for comp in oracles.sccs_by_closure(g):
                if not reach[comp[0]]:
                    continue
                if len(comp) == 1 and not g.has_edge(comp[0], comp[0]):
                    continue
                local = {s: i for i, s in enumerate(comp)}
                inner = [(local[u], local[v]) for u, v in edges if u in local and v in local]
                mean, _ = karp_mean_cycle(
                    len(comp), inner, [weights[s] for s in comp], "max"
                )
                best = mean if best is None else max(best, mean)
            if best is None:
                with pytest.raises(NoCycleError):
                    _howard_max_mean_cycle(*edge_arrays(edges), [weights], start)
                continue
            [(mean, cycle)] = _howard_max_mean_cycle(*edge_arrays(edges), [weights], start)
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
                    _howard_max_mean_cycle(*edge_arrays(edges), [weights])
                continue
            [(mean, _)] = _howard_max_mean_cycle(*edge_arrays(edges), [weights])
            assert mean == pytest.approx(max(means), abs=1e-9)

    def test_ties_go_to_the_lowest_successor(self):
        # Three equal self-loops behind the start; the first one wins.
        edges = [(0, 3), (0, 2), (0, 1), (1, 1), (2, 2), (3, 3)]
        weights = [0.0, 1.0, 1.0, 1.0]
        assert _howard_max_mean_cycle(*edge_arrays(edges), [weights]) == [(1.0, [1])]

    def test_bad_weightings_and_start_are_refused(self):
        src, dst = edge_arrays([(0, 1), (1, 0)])
        for weightings in ([], [[1.0, 2.0], [1.0]]):
            with pytest.raises(InvalidInputError, match="of one length"):
                _howard_max_mean_cycle(src, dst, weightings)
        with pytest.raises(InvalidInputError, match="start state 2 out of range"):
            _howard_max_mean_cycle(src, dst, [[1.0, 2.0]], 2)

    def test_iteration_cap_raises(self, monkeypatch):
        # The heavier successor leads into the worse cycle, so the first
        # policy must improve once.
        edges = [(0, 0), (0, 1), (1, 2), (2, 0)]
        weights = [0.0, 5.0, -10.0]
        monkeypatch.setattr(infinite, "_HOWARD_MAX_ITERATIONS", 1)
        assert _howard_max_mean_cycle(*edge_arrays(edges), [weights]) == [(0.0, [0])]
        monkeypatch.setattr(infinite, "_HOWARD_MAX_ITERATIONS", 0)
        with pytest.raises(SolverContractError):
            _howard_max_mean_cycle(*edge_arrays(edges), [weights])

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
        [(mean, cycle)] = _howard_max_mean_cycle(*edge_arrays(edges), [weights])
        expected, _ = karp_mean_cycle(2, [(0, 1), (1, 0)], [1.0, weights[extra]], "max")
        assert mean == pytest.approx(expected, abs=1e-12)
        assert sorted(cycle) == [1, extra]

    def test_matches_component_karp_on_truncated_graphs(self):
        rng = random.Random(34)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 4), min_out=0, max_out=2)
            spec = RewardSpec.uniform(g.node_count, 1.0, rng.uniform(0.2, 0.6))
            tg = build_truncated(g, 0, rng.randint(2, 5))
            table = tg.weights(spec)
            components = _cycle_bearing_components(tg.state_graph)
            edges = edge_arrays(tg.state_graph.edges())
            weightings = (table.reward_under, table.reward_over)
            if not components:
                with pytest.raises(NoCycleError):
                    _howard_max_mean_cycle(*edges, weightings, tg.initial)
                continue
            results = _howard_max_mean_cycle(*edges, weightings, tg.initial)
            for weights, (mean, _) in zip(weightings, results):
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

    def test_infinite_optimistic_weight_is_refused(self):
        # Waiting at a overflows b's age; that state's optimistic weight
        # lam / (1 - gamma) = 1e309 is inf, though the optimum, the a-b
        # cycle at about 1.99e307, fits in a float.
        g = Graph(2, ((0, 1), (0,)))
        spec = RewardSpec.uniform(2, 1e307, 0.99)
        with pytest.raises(InvalidInputError, match=r"lambda/\(1-gamma\) overflows"):
            solve_infinite_approx(g, spec, 0, 1e307)
        scaled = solve_infinite_approx(g, RewardSpec.uniform(2, 1e305, 0.99), 0, 1e305)
        assert scaled.r_under == pytest.approx(1.99e305)

    def test_shared_policy_graph_matches_independent_runs(self):
        # The solve runs both weightings in one Howard call on one trimmed
        # graph; that must equal two one-weighting calls, and the solve's
        # witnesses must be the cycles it finds.
        rng = random.Random(36)
        for _ in range(40):
            n = rng.randint(2, 5)
            g = random_graph(rng, n, min_out=0, max_out=min(n, 3))
            spec = RewardSpec.uniform(g.node_count, 1.0, rng.uniform(0.2, 0.6))
            depth = truncation_depth(spec, 0.05)
            tg = build_truncated(g, 0, depth)
            table = tg.weights(spec)
            weightings = (table.reward_under, table.reward_over)
            try:
                bracket = solve_infinite_approx(g, spec, 0, 0.05)
            except NoCycleError:
                for weights in weightings:
                    with pytest.raises(NoCycleError):
                        _howard_max_mean_cycle(*tg.edge_arrays, [weights], tg.initial)
                continue
            both = _howard_max_mean_cycle(*tg.edge_arrays, weightings, tg.initial)
            assert both == [
                _howard_max_mean_cycle(*tg.edge_arrays, [weights], tg.initial)[0]
                for weights in weightings
            ]
            (_, under), (mean_over, over) = both
            assert bracket.pi_under == _cycle_to_lasso(tg, under)
            assert bracket.pi_over == _cycle_to_lasso(tg, over)
            assert bracket.r_over == max(mean_over, bracket.r_under)
            assert bracket.depth == depth and bracket.state_count == tg.state_count

    def test_budget_error_reports_feasible_epsilon(self, two_cycles):
        spec = RewardSpec.uniform(4, 1.0, 0.5)
        with pytest.raises(StateBudgetExceededError) as err:
            solve_infinite_approx(two_cycles, spec, 0, 1e-9, state_budget=20)
        assert "epsilon" in str(err.value)

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
