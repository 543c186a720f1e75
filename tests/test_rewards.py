from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from reward_routing import (
    DecayProfile,
    Graph,
    Lasso,
    InvalidInputError,
    ProfileTableExhaustedError,
    RewardSpec,
    average_reward,
    average_reward_bounds,
    decayed_path_reward,
    geometric_series,
    path_reward,
    validate_lasso,
    validate_path,
)
from reward_routing.rewards import _steady_cycle_ages, _visit_ages, make_step_reward

import oracles
from conftest import (
    parse_route,
    random_graph,
    random_lasso,
    ring_graph,
    two_cycles_graph,
)

TWO_CYCLES = two_cycles_graph()
ROUTE = validate_path(TWO_CYCLES, parse_route(TWO_CYCLES, "adabcad"))


def lasso(text: str, prefix: str = "") -> Lasso:
    return validate_lasso(
        TWO_CYCLES, parse_route(TWO_CYCLES, prefix), parse_route(TWO_CYCLES, text)
    )


class TestGeometricSeries:
    def test_plain_values(self):
        assert geometric_series(0.5, 3) == pytest.approx(1.75)
        assert geometric_series(0.5, 0) == 0.0

    def test_no_decay_counts_steps(self):
        assert geometric_series(1.0, 7) == 7.0

    def test_near_one_stays_accurate(self):
        gamma = 1.0 - 1e-9
        assert geometric_series(gamma, 5) == pytest.approx(
            sum(gamma**j for j in range(5)), abs=1e-14
        )


class TestVisitAges:
    def test_worked_values(self):
        ages = _visit_ages(parse_route(TWO_CYCLES, "adabcad"))
        assert (ages[0], ages[2], ages[5]) == (1, 2, 3)

    def test_start_of_path(self):
        assert _visit_ages([0, 0]) == [1, 1]

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    def test_matches_backward_scan(self, nodes):
        ages = _visit_ages(nodes)
        for t, v in enumerate(nodes):
            assert ages[t] == oracles.backward_scan_age(nodes, t, v)
            assert 1 <= ages[t] <= t + 1


class TestAccumulatedReward:
    """The step reward of a visit: what accumulated since the last one."""

    def test_one_step_accumulation_on_self_loop(self):
        step = make_step_reward((2.5,), (0.7,))
        ages = _visit_ages([0, 0, 0])
        for t in (1, 2):
            assert step(0, ages[t]) == pytest.approx(2.5)

    def test_three_step_accumulation(self):
        # Steady state of the triangle: three steps since the last visit.
        step = make_step_reward((1.0,) * 4, (0.4,) * 4)
        ages = _visit_ages(parse_route(TWO_CYCLES, "abcabc"))
        assert step(0, ages[3]) == pytest.approx(1 + 0.4 + 0.4**2)

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=10),
        st.data(),
    )
    def test_closed_form_matches_explicit_sum(self, raw, data):
        lam = tuple(data.draw(st.floats(0, 4)) for _ in range(4))
        gamma = tuple(data.draw(st.sampled_from([0.1, 0.5, 0.9, 1.0])) for _ in range(4))
        t = data.draw(st.integers(0, len(raw) - 1))
        v = data.draw(st.integers(0, 3))
        age = oracles.backward_scan_age(raw, t, v)
        assert make_step_reward(lam, gamma)(v, age) == pytest.approx(
            oracles.explicit_accumulated(lam, gamma, raw, t, v), abs=1e-12
        )


class TestPathReward:
    def test_worked_route_without_decay(self):
        spec = RewardSpec.uniform(4, 1.0, 1.0)
        assert path_reward(spec, ROUTE).value == 22.0

    def test_worked_route_with_decay(self):
        gamma = 0.5
        spec = RewardSpec.uniform(4, 1.0, gamma)
        exponents = [1, 2, 2, 4, 5, 3, 5]
        expected = (7 - sum(gamma**e for e in exponents)) / (1 - gamma)
        value = path_reward(spec, ROUTE).value
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(11.5, abs=1e-9)

    def test_self_loop_collects_every_step(self):
        g = Graph.from_edges(1, [(0, 0)])
        p = validate_path(g, [0] * 8)
        spec = RewardSpec.uniform(1, 3.0, 0.5)
        assert path_reward(spec, p).value == pytest.approx(8 * 3.0)

    def test_kind_and_horizon(self):
        spec = RewardSpec.uniform(4, 1.0, 0.5)
        value = path_reward(spec, ROUTE)
        assert value.kind == "finite_sum" and value.horizon == 6

    @given(st.data())
    def test_monotone_in_rates_and_survival(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_graph(rng, 4)
        nodes = [rng.randrange(4)]
        for _ in range(6):
            nodes.append(rng.choice(g.successors(nodes[-1])))
        p = validate_path(g, nodes)
        lam = [rng.uniform(0, 2) for _ in range(4)]
        gamma = [rng.uniform(0.1, 0.9) for _ in range(4)]
        base = path_reward(RewardSpec(tuple(lam), tuple(gamma)), p).value
        bump = rng.randrange(4)
        lam2 = list(lam)
        lam2[bump] += 0.5
        assert path_reward(RewardSpec(tuple(lam2), tuple(gamma)), p).value >= base - 1e-12
        gamma2 = list(gamma)
        gamma2[bump] = min(1.0, gamma2[bump] + 0.05)
        assert path_reward(RewardSpec(tuple(lam), tuple(gamma2)), p).value >= base - 1e-12

    @given(st.data())
    def test_cost_reward_duality_is_exact(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_graph(rng, rng.randint(2, 5))
        nodes = [rng.randrange(g.node_count)]
        for _ in range(rng.randint(1, 8)):
            nodes.append(rng.choice(g.successors(nodes[-1])))
        p = validate_path(g, nodes)
        lam, gamma = rng.uniform(0.1, 3), rng.uniform(0.05, 0.95)
        spec = RewardSpec.uniform(g.node_count, lam, gamma)
        # The cost sum(gamma ** age) is the reward's exact complement.
        cost = sum(gamma ** oracles.backward_scan_age(nodes, t, v) for t, v in enumerate(nodes))
        left = path_reward(spec, p).value + lam / (1 - gamma) * cost
        assert left == pytest.approx((p.length + 1) * lam / (1 - gamma), abs=1e-9)


class TestAverageReward:
    def test_triangle_cycle(self):
        for gamma in (0.1, 0.26, 0.5, 0.9):
            spec = RewardSpec.uniform(4, 1.0, gamma)
            expected = (1 - gamma**3) / (1 - gamma)
            assert average_reward(spec, lasso("abc")).value == pytest.approx(
                expected, abs=1e-12
            )
        spec1 = RewardSpec.uniform(4, 1.0, 1.0)
        assert average_reward(spec1, lasso("abc")).value == 3.0

    def test_five_cycle(self):
        for gamma in (0.26, 0.9):
            spec = RewardSpec.uniform(4, 1.0, gamma)
            expected = (1 - (gamma**2 + gamma**3 + 3 * gamma**5) / 5) / (1 - gamma)
            assert average_reward(spec, lasso("abcad")).value == pytest.approx(
                expected, abs=1e-12
            )
        spec1 = RewardSpec.uniform(4, 1.0, 1.0)
        assert average_reward(spec1, lasso("abcad")).value == 4.0

    def test_eight_cycle(self):
        gamma = 0.26
        spec = RewardSpec.uniform(4, 1.0, gamma)
        expected = (
            1 - (gamma**2 + 4 * gamma**3 + 2 * gamma**5 + gamma**8) / 8
        ) / (1 - gamma)
        assert average_reward(spec, lasso("abcabcad")).value == pytest.approx(
            expected, abs=1e-12
        )

    def test_prefix_never_changes_the_value(self):
        spec = RewardSpec.uniform(4, 1.0, 0.26)
        plain = average_reward(spec, lasso("abcad")).value
        with_prefix = average_reward(spec, lasso("abcad", prefix="abc")).value
        assert plain == with_prefix

    def test_self_loop_average_is_the_rate(self):
        g = Graph.from_edges(1, [(0, 0)])
        for gamma in (0.2, 0.9, 1.0):
            spec = RewardSpec.uniform(1, 1.7, gamma)
            value = average_reward(spec, validate_lasso(g, [], [0])).value
            assert value == pytest.approx(1.7, abs=1e-12)

    @given(st.data())
    def test_matches_long_horizon_average(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_graph(rng, rng.randint(2, 4))
        l = random_lasso(rng, g)
        if l is None:
            return  # walk failed to close; skip this draw
        lam = tuple(rng.uniform(0, 2) for _ in range(g.node_count))
        gamma = tuple(rng.uniform(0.2, 0.8) for _ in range(g.node_count))
        spec = RewardSpec(lam, gamma)
        exact = average_reward(spec, l).value
        approx = oracles.long_horizon_average(lam, gamma, l.prefix, l.cycle, 4000)
        assert exact == pytest.approx(approx, abs=1e-2)

    @given(st.data())
    def test_steady_ages_match_backward_scan(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_graph(rng, rng.randint(1, 5))
        l = random_lasso(rng, g)
        if l is None:
            return  # walk failed to close; skip this draw
        # Any suffix of the prefix, the empty one included, still leads
        # into the cycle.
        l = Lasso(l.prefix[rng.randint(0, len(l.prefix)) :], l.cycle)
        period = len(l.cycle)
        nodes = l.unroll(len(l.prefix) + 5 * period - 1)
        fifth = range(len(l.prefix) + 4 * period, len(nodes))
        assert _steady_cycle_ages(l) == [
            oracles.backward_scan_age(nodes, t, nodes[t]) for t in fifth
        ]

    def test_average_cost_duality(self):
        gamma = 0.26
        spec = RewardSpec.uniform(4, 1.0, gamma)
        for text in ("abc", "abcad", "abcabcad", "ad"):
            value = average_reward(spec, lasso(text)).value
            # Mean of gamma ** age over the steady second period.
            period = len(text)
            nodes = lasso(text).unroll(2 * period - 1)
            cost = sum(
                gamma ** oracles.backward_scan_age(nodes, t, nodes[t])
                for t in range(period, 2 * period)
            ) / period
            assert value == pytest.approx(
                (1 - cost) / (1 - gamma), abs=1e-12
            )


class TestRegimeBoundaries:
    """The best repeating route flips at two survival probabilities."""

    def candidates(self, gamma: float) -> dict[str, float]:
        spec = RewardSpec.uniform(4, 1.0, gamma)
        return {
            text: average_reward(spec, lasso(text)).value
            for text in ("abc", "abcabcad", "abcad")
        }

    @staticmethod
    def bisect(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
        flo = fn(lo)
        assert flo * fn(hi) < 0
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if fn(mid) * flo > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    def test_switch_points_are_polynomial_roots(self):
        diff_1 = lambda g: self.candidates(g)["abcabcad"] - self.candidates(g)["abc"]
        diff_2 = lambda g: self.candidates(g)["abcad"] - self.candidates(g)["abcabcad"]
        switch_1 = self.bisect(diff_1, 0.2, 0.27)
        switch_2 = self.bisect(diff_2, 0.25, 0.3)
        root_1 = self.bisect(lambda g: g**6 + 2 * g**3 - 4 * g + 1, 0.2, 0.3)
        root_2 = self.bisect(lambda g: 5 * g**6 - 14 * g**3 + 12 * g - 3, 0.2, 0.3)
        assert switch_1 == pytest.approx(root_1, abs=1e-9)
        assert switch_2 == pytest.approx(root_2, abs=1e-9)
        assert switch_1 == pytest.approx(0.2587, abs=1e-3)
        assert switch_2 == pytest.approx(0.2738, abs=1e-3)

    def test_regime_winners(self):
        assert max(self.candidates(0.1), key=self.candidates(0.1).get) == "abc"
        assert (
            max(self.candidates(0.26), key=self.candidates(0.26).get) == "abcabcad"
        )
        assert max(self.candidates(0.9), key=self.candidates(0.9).get) == "abcad"


class TestDecayProfile:
    def test_table_must_start_at_one_and_decrease(self):
        with pytest.raises(ValueError):
            DecayProfile((0.9, 0.5))
        with pytest.raises(ValueError):
            DecayProfile((1.0, 0.5, 0.5))
        with pytest.raises(ValueError):
            DecayProfile((1.0, 0.5), tail="geometric")  # missing ratio

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), True, False])
    def test_non_finite_and_boolean_values_are_named(self, bad):
        with pytest.raises(ValueError, match=r"table\[1\] must be a finite number"):
            DecayProfile((1.0, bad))
        with pytest.raises(ValueError, match=r"^ratio must be a finite number"):
            DecayProfile((1.0, 0.5), tail="geometric", ratio=bad)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"table": ("1.0",)}, r"table\[0\]"),
            ({"table": (1.0, None)}, r"table\[1\]"),
            ({"table": (1.0, 0.5), "tail": "geometric", "ratio": "0.5"}, "ratio"),
        ],
    )
    def test_non_numbers_are_named(self, kwargs, field):
        with pytest.raises(InvalidInputError, match=f"^{field} must be a finite number$"):
            DecayProfile(**kwargs)

    def test_boolean_first_entry_is_named(self):
        with pytest.raises(ValueError, match=r"table\[0\]"):
            DecayProfile((True, 0.5))

    def test_zero_tail(self):
        profile = DecayProfile((1.0, 0.5, 0.25), tail="zero")
        assert profile.value(1) == 0.5
        assert profile.value(10) == 0.0
        assert profile.sum_first(2) == 1.5
        assert profile.sum_first(100) == 1.75

    def test_geometric_tail(self):
        profile = DecayProfile((1.0, 0.5), tail="geometric", ratio=0.5)
        assert profile.value(3) == pytest.approx(0.125)
        assert profile.sum_first(4) == pytest.approx(1 + 0.5 + 0.25 + 0.125)

    def test_exhausted_table_without_tail(self):
        profile = DecayProfile((1.0, 0.5))
        assert profile.value(1) == 0.5
        with pytest.raises(ProfileTableExhaustedError):
            profile.value(2)
        with pytest.raises(ProfileTableExhaustedError):
            profile.sum_first(3)


class TestDecayedPathReward:
    def test_geometric_profile_recovers_multiplicative(self):
        gamma = 0.5
        spec = RewardSpec.uniform(4, 1.0, gamma)
        profiles = [DecayProfile.geometric(gamma)] * 4
        got = decayed_path_reward(profiles, [1.0] * 4, ROUTE)
        assert got.value == pytest.approx(path_reward(spec, ROUTE).value, abs=1e-12)

    def test_zero_tail_self_loop(self):
        g = Graph.from_edges(1, [(0, 0)])
        p = validate_path(g, [0, 0, 0, 0])
        profile = DecayProfile((1.0, 0.5, 0.25), tail="zero")
        assert decayed_path_reward([profile], [1.0], p).value == pytest.approx(4.0)

    @given(st.data())
    def test_matches_per_unit_bookkeeping(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_graph(rng, rng.randint(2, 4))
        nodes = [rng.randrange(g.node_count)]
        for _ in range(rng.randint(1, 7)):
            nodes.append(rng.choice(g.successors(nodes[-1])))
        p = validate_path(g, nodes)
        profiles = []
        for _ in range(g.node_count):
            if rng.random() < 0.5:
                profiles.append(DecayProfile.geometric(rng.uniform(0.2, 0.8)))
            else:
                profiles.append(
                    DecayProfile((1.0, rng.uniform(0.3, 0.9) * 0.9), tail="zero")
                )
        lam = [rng.uniform(0, 2) for _ in range(g.node_count)]
        got = decayed_path_reward(profiles, lam, p).value
        want = oracles.per_unit_decay_total(profiles, lam, nodes)
        assert got == pytest.approx(want, abs=1e-12)


class TestAverageRewardBounds:
    def test_two_cycles_bounds(self):
        gamma = 0.5
        spec = RewardSpec.uniform(4, 1.0, gamma)
        lo, hi = average_reward_bounds(TWO_CYCLES, spec)
        assert lo == pytest.approx((1 - gamma**3) / (1 - gamma))
        assert hi == pytest.approx((1 - gamma**4) / (1 - gamma))

    def test_ring_bounds_coincide(self):
        gamma = 0.3
        spec = RewardSpec.uniform(4, 1.0, gamma)
        lo, hi = average_reward_bounds(ring_graph(4), spec)
        assert lo == hi == pytest.approx((1 - gamma**4) / (1 - gamma))

    def test_no_decay_limit(self):
        spec = RewardSpec.uniform(4, 2.0, 1.0)
        lo, hi = average_reward_bounds(TWO_CYCLES, spec)
        assert (lo, hi) == (6.0, 8.0)
        near = RewardSpec.uniform(4, 2.0, 1.0 - 1e-9)
        lo2, hi2 = average_reward_bounds(TWO_CYCLES, near)
        assert lo2 == pytest.approx(6.0, abs=1e-6)
        assert hi2 == pytest.approx(8.0, abs=1e-6)

    def test_simple_cycle_values_against_bounds(self):
        # No simple cycle beats the upper bound, and the best simple cycle
        # attains the lower bound exactly.
        rng = random.Random(31)
        checked = 0
        while checked < 20:
            g = random_graph(rng, rng.randint(2, 6))
            cycles = list(oracles.simple_cycles(g))
            if not cycles:
                continue
            checked += 1
            gamma = rng.uniform(0.1, 0.9)
            spec = RewardSpec.uniform(g.node_count, 1.0, gamma)
            lo, hi = average_reward_bounds(g, spec)
            best = max(
                average_reward(spec, validate_lasso(g, [], cyc)).value
                for cyc in cycles
            )
            for cyc in cycles:
                value = average_reward(spec, validate_lasso(g, [], cyc)).value
                assert value <= hi + 1e-9
            assert best == pytest.approx(lo, abs=1e-9)

    def test_node_variant_rejected(self):
        spec = RewardSpec((1.0, 1.0, 1.0, 1.0), (0.5, 0.6, 0.5, 0.5))
        with pytest.raises(InvalidInputError, match="gamma differs between nodes"):
            average_reward_bounds(TWO_CYCLES, spec)


class TestRewardSpecValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RewardSpec((-1.0,), (0.5,))

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            RewardSpec((1.0,), (0.0,))
        with pytest.raises(ValueError):
            RewardSpec((1.0,), (1.1,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            RewardSpec((1.0, 1.0), (0.5,))

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), -float("inf"), True, 10**400],
        ids=["nan", "inf", "-inf", "True", "10**400"],
    )
    def test_non_finite_and_boolean_values_are_named(self, bad):
        with pytest.raises(ValueError, match=r"lam\[1\]"):
            RewardSpec((1.0, bad), (0.5, 0.5))
        with pytest.raises(ValueError, match=r"gamma\[1\]"):
            RewardSpec((1.0, 1.0), (0.5, bad))
