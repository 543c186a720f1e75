from __future__ import annotations

import random

import pytest

from reward_routing import (
    DecayProfile,
    Graph,
    InstanceTooLargeError,
    InvalidInputError,
    NoPathError,
    RewardSpec,
    RewardValue,
    SolverContractError,
    StateBudgetExceededError,
    decayed_path_reward,
    decide_finite_value,
    path_reward,
    solve_finite,
    solve_finite_decay,
    validate_path,
)
from reward_routing import finite

import oracles
from conftest import random_graph, ring_graph, two_cycles_graph

TWO_CYCLES = two_cycles_graph()


def all_graphs(node_count: int):
    """Every digraph on the node set, as successor-set combinations."""
    pairs = [(u, v) for u in range(node_count) for v in range(node_count)]
    for mask in range(2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield Graph.from_edges(node_count, edges)


class TestSolveFinite:
    def test_two_cycles_without_decay(self):
        spec = RewardSpec.uniform(4, 1.0, 1.0)
        solution = solve_finite(TWO_CYCLES, spec, 0, 6)
        assert solution.value.value >= 22.0
        replay = path_reward(spec, solution.witness)
        assert replay.value == solution.value.value
        assert solution.witness.nodes[0] == 0
        assert solution.witness.length == 6

    def test_self_loop_collects_rate_every_step(self):
        g = Graph.from_edges(1, [(0, 0)])
        spec = RewardSpec.uniform(1, 2.0, 0.5)
        for horizon in (0, 1, 5):
            solution = solve_finite(g, spec, 0, horizon)
            assert solution.value.value == pytest.approx(2.0 * (horizon + 1))
            assert solution.witness.nodes == (0,) * (horizon + 1)

    def test_horizon_zero_collects_at_the_start(self):
        spec = RewardSpec.uniform(4, 1.5, 0.5)
        solution = solve_finite(TWO_CYCLES, spec, 2, 0)
        assert solution.value.value == pytest.approx(1.5)

    def test_dead_end_raises(self):
        g = Graph.from_edges(2, [(0, 1)])
        spec = RewardSpec.uniform(2, 1.0, 0.5)
        with pytest.raises(NoPathError):
            solve_finite(g, spec, 0, 3)

    def test_budget_guard(self):
        spec = RewardSpec.uniform(4, 1.0, 0.5)
        with pytest.raises(StateBudgetExceededError):
            solve_finite(TWO_CYCLES, spec, 0, 6, state_budget=5)

    def test_horizon_cap(self):
        spec = RewardSpec.uniform(4, 1.0, 0.5)
        with pytest.raises(InstanceTooLargeError):
            solve_finite(TWO_CYCLES, spec, 0, 10**7)

    def test_overflowing_value_is_refused(self):
        spec = RewardSpec.uniform(2, 1e308, 0.5)
        with pytest.raises(InvalidInputError, match="scale lambda down"):
            solve_finite(ring_graph(2), spec, 0, 3)

    def test_deterministic_witness(self):
        spec = RewardSpec.uniform(4, 1.0, 0.3)
        first = solve_finite(TWO_CYCLES, spec, 0, 6)
        second = solve_finite(TWO_CYCLES, spec, 0, 6)
        assert first.witness.nodes == second.witness.nodes

    def test_monotone_in_horizon(self):
        rng = random.Random(5)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 4))
            spec = RewardSpec.uniform(
                g.node_count, rng.uniform(0.1, 2), rng.uniform(0.1, 1.0)
            )
            v0 = rng.randrange(g.node_count)
            previous = -1.0
            for horizon in range(5):
                value = solve_finite(g, spec, v0, horizon).value.value
                assert value >= previous - 1e-12
                previous = value

    def test_matches_exhaustive_enumeration_on_small_graphs(self):
        # Spot sweep; the full corpus runs in the acceptance suite.
        count = 0
        for g in all_graphs(3):
            if not g.successors(0):
                continue
            count += 1
            if count % 7:  # thin the sweep, keep it representative
                continue
            for gamma in (0.3, 1.0):
                spec = RewardSpec.uniform(3, 1.0, gamma)
                for horizon in (2, 4):
                    expected = oracles.brute_best_total(
                        g, spec.lam, spec.gamma, 0, horizon
                    )
                    if expected is None:
                        with pytest.raises(NoPathError):
                            solve_finite(g, spec, 0, horizon)
                        continue
                    got = solve_finite(g, spec, 0, horizon)
                    assert got.value.value == pytest.approx(expected, abs=1e-9)
                    replay = path_reward(spec, got.witness).value
                    assert replay == pytest.approx(got.value.value, abs=1e-12)

    def test_node_variant_parameters(self):
        rng = random.Random(9)
        for _ in range(10):
            g = random_graph(rng, 3)
            lam = tuple(rng.uniform(0, 2) for _ in range(3))
            gamma = tuple(rng.choice([0.2, 0.6, 1.0]) for _ in range(3))
            spec = RewardSpec(lam, gamma)
            expected = oracles.brute_best_total(g, lam, gamma, 0, 4)
            got = solve_finite(g, spec, 0, 4).value.value
            assert got == pytest.approx(expected, abs=1e-9)


class TestSolveFiniteDecay:
    def test_geometric_profiles_match_plain_solver(self):
        gamma = 0.5
        spec = RewardSpec.uniform(4, 1.0, gamma)
        profiles = [DecayProfile.geometric(gamma)] * 4
        for horizon in range(7):
            plain = solve_finite(TWO_CYCLES, spec, 0, horizon)
            decayed = solve_finite_decay(
                TWO_CYCLES, [1.0] * 4, profiles, 0, horizon
            )
            assert decayed.value.value == pytest.approx(
                plain.value.value, abs=1e-9
            )

    def test_ring_prefers_fresh_nodes_under_any_decay(self):
        g = ring_graph(4)
        profiles = [DecayProfile((1.0, 0.8, 0.5, 0.3), tail="zero")] * 4
        solution = solve_finite_decay(g, [1.0] * 4, profiles, 0, 3)
        assert solution.witness.nodes == (0, 1, 2, 3)
        expected = sum(profiles[0].sum_first(i + 1) for i in range(4))
        assert solution.value.value == pytest.approx(expected, abs=1e-12)

    def test_zero_tail_star_matches_brute_force(self):
        # Hub with two petals; staying fresh beats hammering the hub.
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 2), (2, 0)])
        profiles = [DecayProfile((1.0, 0.6), tail="zero")] * 3
        lam = [1.0, 2.0, 0.5]
        solution = solve_finite_decay(g, lam, profiles, 0, 5)
        best = None
        for nodes in oracles.enumerate_paths(g, 0, 5):
            total = oracles.per_unit_decay_total(profiles, lam, nodes)
            best = total if best is None else max(best, total)
        assert solution.value.value == pytest.approx(best, abs=1e-9)
        replay = decayed_path_reward(profiles, lam, solution.witness).value
        assert replay == pytest.approx(solution.value.value, abs=1e-12)

    @pytest.mark.parametrize(
        "rate, decay, message",
        [
            (float("nan"), 0.5, r"lam\[1\] must be a finite number"),
            (float("inf"), 0.5, r"lam\[1\] must be a finite number"),
            (True, 0.5, r"lam\[1\] must be a finite number"),
            (-1.0, 0.5, r"lam\[1\] must be non-negative"),
            (1.0, float("nan"), r"gamma\[1\] must be a finite number"),
            (1.0, float("inf"), r"gamma\[1\] must be a finite number"),
            (1.0, -float("inf"), r"gamma\[1\] must be a finite number"),
            (1.0, True, r"gamma\[1\] must be a finite number"),
            (1.0, "x", r"gamma\[1\] must be a finite number"),
            (1.0, 0.0, r"gamma\[1\] must lie in \(0, 1\]"),
            (1.0, 2.0, r"gamma\[1\] must lie in \(0, 1\]"),
        ],
        ids=[
            "nan", "inf", "bool", "negative", "gamma-nan", "gamma-inf",
            "gamma-minus-inf", "gamma-bool", "gamma-str", "gamma-zero", "gamma-two",
        ],
    )
    def test_rates_are_checked_like_a_spec(self, rate, decay, message):
        # Node 0 keeps a profile: a graph may mix profiles and gamma values.
        decays = [DecayProfile.geometric(0.5), decay, 0.5, 0.5]
        with pytest.raises(ValueError, match=message):
            solve_finite_decay(TWO_CYCLES, [1.0, rate, 1.0, 1.0], decays, 0, 3)


    @pytest.mark.parametrize("decay", ["gamma", "profile"])
    def test_disagreeing_replay_is_a_contract_failure(self, monkeypatch, decay):
        replay = finite.decayed_path_reward

        def disagreeing(*args):
            value = replay(*args)
            return RewardValue(value.value + 1.0, value.kind, value.horizon)

        monkeypatch.setattr(finite, "decayed_path_reward", disagreeing)
        spec = RewardSpec.uniform(4, 1.0, 0.5)
        with pytest.raises(SolverContractError, match="witness re-scores to"):
            if decay == "gamma":
                solve_finite(TWO_CYCLES, spec, 0, 4)
            else:
                profiles = [DecayProfile.geometric(0.5)] * 4
                solve_finite_decay(TWO_CYCLES, spec.lam, profiles, 0, 4)


class TestDecideFiniteValue:
    @staticmethod
    def hamiltonian_threshold(node_count: int, gamma: float) -> float:
        return (
            node_count
            - (node_count + 1) * gamma
            + gamma ** (node_count + 1)
        ) / (1 - gamma) ** 2

    def test_threshold_separates_hamiltonian_paths(self):
        gamma = 0.5
        threshold = self.hamiltonian_threshold(4, gamma)
        spec = RewardSpec.uniform(4, 1.0, gamma)
        assert decide_finite_value(ring_graph(4), spec, 0, 3, threshold)
        assert not decide_finite_value(TWO_CYCLES, spec, 0, 3, threshold)

    def test_zero_threshold_is_always_reachable(self):
        spec = RewardSpec.uniform(4, 1.0, 0.5)
        assert decide_finite_value(TWO_CYCLES, spec, 0, 4, 0.0)

    def test_above_optimum_is_rejected(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 4))
            spec = RewardSpec.uniform(g.node_count, 1.0, 0.4)
            value = solve_finite(g, spec, 0, 3).value.value
            assert decide_finite_value(g, spec, 0, 3, value)
            assert not decide_finite_value(g, spec, 0, 3, value + 1.0)

    def test_no_path_means_no(self):
        g = Graph.from_edges(2, [(0, 1)])
        spec = RewardSpec.uniform(2, 1.0, 0.5)
        assert not decide_finite_value(g, spec, 0, 3, 0.0)

    def test_threshold_slack_is_relative(self):
        # The best 3-step ring walk collects 5.5 * 2**-30, about 5.12e-9.
        spec = RewardSpec.uniform(2, 2.0**-30, 0.5)
        assert solve_finite(ring_graph(2), spec, 0, 3).value.value == 5.5 * 2.0**-30
        assert decide_finite_value(ring_graph(2), spec, 0, 3, 5.12e-9)
        assert not decide_finite_value(ring_graph(2), spec, 0, 3, 6e-9)
