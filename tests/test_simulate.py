from __future__ import annotations

import pytest

from reward_routing import (
    Graph,
    InvalidInputError,
    Path,
    RewardSpec,
    SimConfig,
    average_reward,
    path_reward,
    simulate_average_reward,
    simulate_finite_reward,
    validate_lasso,
    validate_path,
)

from conftest import parse_route, two_cycles_graph

TWO_CYCLES = two_cycles_graph()
ROUTE = validate_path(TWO_CYCLES, parse_route(TWO_CYCLES, "adabcad"))
SPEC = RewardSpec.uniform(4, 1.0, 0.5)


class TestFiniteSimulation:
    def test_deterministic_mode_reproduces_the_closed_form(self):
        cfg = SimConfig(trials=7, seed=3, generation="deterministic")
        result = simulate_finite_reward(TWO_CYCLES, SPEC, ROUTE, cfg)
        assert result.stderr == 0.0
        assert result.mean == pytest.approx(
            path_reward(SPEC, ROUTE).value, abs=1e-9
        )

    def test_poisson_mode_is_unbiased(self):
        cfg = SimConfig(trials=100_000, seed=42)
        result = simulate_finite_reward(TWO_CYCLES, SPEC, ROUTE, cfg)
        expected = path_reward(SPEC, ROUTE).value
        assert abs(result.mean - expected) <= 4 * result.stderr

    def test_self_loop_counts_generations(self):
        g = Graph.from_edges(1, [(0, 0)])
        spec = RewardSpec.uniform(1, 2.0, 1.0)
        route = validate_path(g, [0] * 10)
        cfg = SimConfig(trials=50_000, seed=11)
        result = simulate_finite_reward(g, spec, route, cfg)
        assert abs(result.mean - 20.0) <= 4 * result.stderr

    def test_node_variant_parameters(self):
        spec = RewardSpec((0.5, 2.0, 1.0, 0.0), (0.3, 0.9, 1.0, 0.5))
        cfg = SimConfig(trials=60_000, seed=9)
        result = simulate_finite_reward(TWO_CYCLES, spec, ROUTE, cfg)
        expected = path_reward(spec, ROUTE).value
        assert abs(result.mean - expected) <= 4 * result.stderr

    def test_identical_configs_give_identical_bits(self):
        cfg = SimConfig(trials=5_000, seed=123)
        first = simulate_finite_reward(TWO_CYCLES, SPEC, ROUTE, cfg)
        second = simulate_finite_reward(TWO_CYCLES, SPEC, ROUTE, cfg)
        assert first == second

    def test_different_seeds_differ(self):
        a = simulate_finite_reward(
            TWO_CYCLES, SPEC, ROUTE, SimConfig(trials=2_000, seed=1)
        )
        b = simulate_finite_reward(
            TWO_CYCLES, SPEC, ROUTE, SimConfig(trials=2_000, seed=2)
        )
        assert a.mean != b.mean

    def test_horizon_mismatch(self):
        cfg = SimConfig(trials=10, seed=0, horizon=3)
        with pytest.raises(
            InvalidInputError, match="config horizon 3 but the path has length 6"
        ):
            simulate_finite_reward(TWO_CYCLES, SPEC, ROUTE, cfg)

    def test_matching_horizon_accepted(self):
        cfg = SimConfig(trials=10, seed=0, horizon=6, generation="deterministic")
        result = simulate_finite_reward(TWO_CYCLES, SPEC, ROUTE, cfg)
        assert result.mean == pytest.approx(11.5, abs=1e-9)


class TestAverageSimulation:
    def test_triangle_average(self):
        lasso = validate_lasso(TWO_CYCLES, [], parse_route(TWO_CYCLES, "abc"))
        cfg = SimConfig(trials=1_500, seed=7, horizon=3_000)
        result = simulate_average_reward(TWO_CYCLES, SPEC, lasso, cfg)
        assert abs(result.mean - 1.75) <= 4 * result.stderr + 1e-3

    def test_self_loop_average_is_the_rate(self):
        g = Graph.from_edges(1, [(0, 0)])
        spec = RewardSpec.uniform(1, 1.3, 0.6)
        lasso = validate_lasso(g, [], [0])
        cfg = SimConfig(trials=1_000, seed=5, horizon=500)
        result = simulate_average_reward(g, spec, lasso, cfg)
        assert abs(result.mean - 1.3) <= 4 * result.stderr + 1e-2

    def test_no_decay_five_cycle(self):
        spec = RewardSpec.uniform(4, 1.0, 1.0)
        lasso = validate_lasso(TWO_CYCLES, [], parse_route(TWO_CYCLES, "abcad"))
        cfg = SimConfig(trials=600, seed=13, horizon=5_000)
        result = simulate_average_reward(TWO_CYCLES, spec, lasso, cfg)
        # Finite-horizon bias shrinks like 1/horizon.
        assert abs(result.mean - 4.0) <= 4 * result.stderr + 0.01

    def test_deterministic_average_converges(self):
        lasso = validate_lasso(TWO_CYCLES, [], parse_route(TWO_CYCLES, "abc"))
        cfg = SimConfig(
            trials=1, seed=0, horizon=3_000, generation="deterministic"
        )
        result = simulate_average_reward(TWO_CYCLES, SPEC, lasso, cfg)
        exact = average_reward(SPEC, lasso).value
        assert result.mean == pytest.approx(exact, abs=1e-3)

    @pytest.mark.parametrize("generation", ["poisson", "deterministic"])
    def test_is_the_scaled_finite_simulation_of_the_unrolled_lasso(self, generation):
        spec = RewardSpec((0.5, 2.0, 1.0, 0.3), (0.3, 0.9, 0.7, 0.5))
        lasso = validate_lasso(
            TWO_CYCLES, parse_route(TWO_CYCLES, "ad"), parse_route(TWO_CYCLES, "abc")
        )
        cfg = SimConfig(trials=300, seed=17, generation=generation, horizon=400)
        average = simulate_average_reward(TWO_CYCLES, spec, lasso, cfg)
        total = simulate_finite_reward(TWO_CYCLES, spec, Path(lasso.unroll(400)), cfg)
        assert average.mean == total.mean / 401
        assert average.stderr == total.stderr / 401
        assert (average.trials, average.seed) == (300, 17)

    def test_horizon_must_cover_the_cycle(self):
        lasso = validate_lasso(TWO_CYCLES, [], parse_route(TWO_CYCLES, "abcad"))
        with pytest.raises(ValueError):
            simulate_average_reward(
                TWO_CYCLES, SPEC, lasso, SimConfig(trials=10, seed=0, horizon=100)
            )
        with pytest.raises(
            InvalidInputError, match="average-reward simulation needs a horizon"
        ):
            simulate_average_reward(
                TWO_CYCLES, SPEC, lasso, SimConfig(trials=10, seed=0)
            )


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(trials=1, seed=1, generation="uniform")
