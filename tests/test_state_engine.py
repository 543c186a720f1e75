"""The vectorized visit-age engine against the per-state loops it replaced.

``oracles.layered_dp_reference`` and ``oracles.truncated_bfs_reference``
are the dict- and tuple-per-state expansions; the engine must reproduce
them bit for bit: values, witnesses, state counts, state order, edges and
weights, and the type of any error raised.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reward_routing import (
    DecayProfile,
    Graph,
    NoCycleError,
    NoPathError,
    ProfileTableExhaustedError,
    RewardSpec,
    StateBudgetExceededError,
    build_truncated,
    shortest_path,
    solve_finite,
    solve_finite_decay,
    weight_pair,
)
from reward_routing.finite import (
    DEFAULT_HORIZON_CAP,
    DEFAULT_STATE_BUDGET,
    _age_dtype,
    _csr,
    _expand,
)
from reward_routing.infinite import _cycle_to_lasso, _howard_max_mean_cycle
from reward_routing.rewards import make_step_reward

import oracles


@st.composite
def graphs(draw, max_nodes: int = 6) -> tuple[Graph, int]:
    """A graph, at most one of whose nodes is a dead end, and a start node."""
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    succs = draw(st.lists(st.sets(node, min_size=1), min_size=n, max_size=n))
    dead = draw(st.one_of(st.none(), node))
    edges = [(v, w) for v in range(n) if v != dead for w in succs[v]]
    return Graph.from_edges(n, edges), draw(node)


rates = st.sampled_from([0.0, 0.5, 1.0, 1.75])
gammas = st.one_of(st.just(1.0), st.floats(0.05, 0.99))


@st.composite
def profiles(draw) -> DecayProfile:
    table = [1.0]
    for _ in range(draw(st.integers(0, 3))):
        table.append(table[-1] * draw(st.floats(0.2, 0.95)))
    tail = draw(st.sampled_from(["geometric", "zero", None]))
    ratio = draw(st.floats(0.1, 0.9)) if tail == "geometric" else None
    return DecayProfile(tuple(table), tail, ratio)


def outcome(solve):
    """The solution, or the type of the error the solve raised."""
    try:
        return solve()
    except (NoPathError, ProfileTableExhaustedError, StateBudgetExceededError) as exc:
        return type(exc)


def reference(g: Graph, v0: int, horizon: int, lam, decays):
    step = make_step_reward(lam, decays)
    return outcome(
        lambda: oracles.layered_dp_reference(
            g, v0, horizon, step, DEFAULT_STATE_BUDGET, DEFAULT_HORIZON_CAP
        )
    )


def assert_same_outcome(got, expected) -> None:
    if isinstance(expected, type) or isinstance(got, type):
        assert got is expected
        return
    assert got.value.value == expected.value.value
    assert got.value == expected.value
    assert got.witness == expected.witness
    assert got.states_expanded == expected.states_expanded


def assert_same_truncated(g: Graph, v0: int, depth: int):
    tg = build_truncated(g, v0, depth)
    states, initial, state_graph = oracles.truncated_bfs_reference(
        g, v0, depth, state_budget=DEFAULT_STATE_BUDGET
    )
    assert tg.states == states
    assert tg.initial == initial
    assert tg.state_graph.adjacency == state_graph.adjacency
    return tg


class TestFiniteAgainstReference:
    @settings(max_examples=100)
    @given(graphs(), st.integers(0, 7), st.data())
    def test_gamma_specs(self, instance, horizon, data):
        g, v0 = instance
        n = g.node_count
        # Specs over {0, 1} x {0.5, 1} make equal states tie on value often.
        lams, decays = data.draw(st.sampled_from([
            (rates, gammas),
            (st.sampled_from([0.0, 1.0]), st.sampled_from([0.5, 1.0])),
        ]))
        spec = RewardSpec(
            tuple(data.draw(st.lists(lams, min_size=n, max_size=n))),
            tuple(data.draw(st.lists(decays, min_size=n, max_size=n))),
        )
        got = outcome(lambda: solve_finite(g, spec, v0, horizon))
        assert_same_outcome(
            got, reference(g, v0, horizon, spec.lam, spec.gamma)
        )

    @settings(max_examples=40)
    @given(graphs(), st.integers(0, 7), st.data())
    def test_decay_profiles(self, instance, horizon, data):
        g, v0 = instance
        n = g.node_count
        lam = data.draw(st.lists(rates, min_size=n, max_size=n))
        decays = data.draw(st.lists(profiles(), min_size=n, max_size=n))
        got = outcome(lambda: solve_finite_decay(g, lam, decays, v0, horizon))
        assert_same_outcome(
            got, reference(g, v0, horizon, lam, decays)
        )


class TestMergeTieRule:
    """Equal states keep the first predecessor, in state order, of best value."""

    def test_best_predecessor_is_neither_first_nor_unique(self):
        # The final state (at 0, node 1 left at step 5, node 0 last seen at
        # step 4 and node 2 at step 3) has three predecessors at node 1
        # that differ only in node 1's own age: 3, 4 and 6, in state order.
        # Through their best histories 0 1 1 2 0 1, 0 1 0 2 0 1 and
        # 0 2 0 2 0 1 it collects 20.75, 23 and 23, so the age-4 one is kept.
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2)])
        spec = RewardSpec((2.0, 2.0, 0.0), (0.5, 1.0, 0.5))
        got = solve_finite(g, spec, 0, 6)
        assert_same_outcome(got, reference(g, 0, 6, spec.lam, spec.gamma))
        assert got.value.value == 23.0
        assert got.witness.nodes == (0, 1, 0, 2, 0, 1, 0)


class TestRowMajorAges:
    """Age matrices stay C-ordered, one contiguous row per node."""

    @settings(max_examples=30)
    @given(graphs(), st.sampled_from([None, 1, 3]))
    def test_expand_emits_c_ordered_ages(self, instance, depth):
        g, _ = instance
        n = g.node_count
        # A column slice, as a BFS frontier is, is not contiguous.
        ages = np.ones((n, 2 * n), dtype=_age_dtype(8))[:, ::2]
        _, succ, succ_ages = _expand(_csr(g), np.arange(n, dtype=np.uint8), ages, depth)
        assert succ_ages.shape == (n, len(succ))
        assert succ_ages.flags.c_contiguous

    @settings(max_examples=30)
    @given(graphs(), st.integers(1, 4))
    def test_truncated_age_matrix_is_c_ordered(self, instance, depth):
        tg = build_truncated(*instance, depth)
        assert tg.age_matrix.flags.c_contiguous


class TestTruncatedAgainstReference:
    @settings(max_examples=40)
    @given(graphs(), st.integers(1, 4))
    def test_states_initial_and_edges(self, instance, depth):
        assert_same_truncated(*instance, depth)

    @settings(max_examples=40)
    @given(graphs(), st.integers(1, 4))
    def test_edge_arrays_are_sorted_and_match(self, instance, depth):
        g, v0 = instance
        src, dst = build_truncated(g, v0, depth).edge_arrays
        _, _, state_graph = oracles.truncated_bfs_reference(
            g, v0, depth, state_budget=DEFAULT_STATE_BUDGET
        )
        assert src.dtype == dst.dtype == np.intp
        assert list(zip(src.tolist(), dst.tolist())) == list(state_graph.edges())
        increasing = (src[1:] > src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] > dst[:-1]))
        assert increasing.all()

    @settings(max_examples=30)
    @given(graphs(max_nodes=5), st.integers(1, 4), st.data())
    def test_weight_table_matches_weight_pair(self, instance, depth, data):
        g, v0 = instance
        n = g.node_count
        spec = RewardSpec(
            tuple(data.draw(st.lists(rates, min_size=n, max_size=n))),
            tuple(data.draw(st.lists(st.floats(0.05, 0.99), min_size=n, max_size=n))),
        )
        tg = build_truncated(g, v0, depth)
        table = tg.weights(spec)
        pairs = [weight_pair(spec, state, depth) for state in tg.states]
        for name in ("reward_under", "reward_over"):
            expected = np.array([getattr(p, name) for p in pairs])
            column = getattr(table, name)
            assert column.dtype == expected.dtype
            assert column.tobytes() == expected.tobytes()


def bfs_tree_path(tg, state: int) -> tuple[int, ...]:
    """The states from the initial one to ``state`` along ``tg.parent``."""
    walk = [state]
    while walk[-1] != tg.initial:
        assert len(walk) <= tg.state_count, "parent walk does not reach initial"
        walk.append(int(tg.parent[walk[-1]]))
    return tuple(reversed(walk))


class TestBfsTree:
    """``TruncatedGraph.parent`` is the BFS tree that witness prefixes use."""

    @settings(max_examples=40)
    @given(graphs(max_nodes=5), st.integers(1, 4))
    def test_parent_walk_is_the_shortest_path(self, instance, depth):
        tg = build_truncated(*instance, depth)
        for state in range(tg.state_count):
            expected = shortest_path(tg.state_graph, tg.initial, state).nodes
            assert bfs_tree_path(tg, state) == expected

    @settings(max_examples=40)
    @given(graphs(max_nodes=5), st.integers(1, 4))
    def test_parents_are_edges(self, instance, depth):
        tg = build_truncated(*instance, depth)
        assert tg.parent[tg.initial] == tg.initial
        for state, parent in enumerate(tg.parent.tolist()):
            if state != tg.initial:
                assert tg.state_graph.has_edge(parent, state)

    @settings(max_examples=30)
    @given(graphs(max_nodes=5), st.integers(1, 4))
    def test_solving_builds_no_tuple_views(self, instance, depth):
        g, v0 = instance
        tg = build_truncated(g, v0, depth)
        table = tg.weights(RewardSpec.uniform(g.node_count, 1.0, 0.5))
        weightings = (table.reward_under, table.reward_over)
        try:
            results = _howard_max_mean_cycle(*tg.edge_arrays, weightings, tg.initial)
        except NoCycleError:
            results = []
        for _, cycle in results:
            _cycle_to_lasso(tg, cycle)
        assert "states" not in vars(tg) and "state_graph" not in vars(tg)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(n) if u != v])


class TestEdgeCases:
    def test_finite_budget_boundary(self):
        g = complete_graph(4)
        spec = RewardSpec.uniform(4, 1.0, 0.5)
        states = solve_finite(g, spec, 0, 5).states_expanded
        assert solve_finite(g, spec, 0, 5, state_budget=states).states_expanded == states
        with pytest.raises(
            StateBudgetExceededError, match=f"^state budget of {states - 1} states exceeded$"
        ):
            solve_finite(g, spec, 0, 5, state_budget=states - 1)

    def test_truncated_budget_boundary(self):
        g = complete_graph(4)
        states = build_truncated(g, 0, 4).state_count
        assert build_truncated(g, 0, 4, state_budget=states).state_count == states
        with pytest.raises(
            StateBudgetExceededError,
            match=f"^truncated graph at depth 4 exceeds {states - 1} states$",
        ):
            build_truncated(g, 0, 4, state_budget=states - 1)

    def test_ties_keep_the_smallest_predecessor(self):
        # Without decay, 0 0 1 0 2 and 0 1 1 0 2 both collect 12 and meet in
        # one final state; its predecessors differ only in node 0's own
        # age, 2 against 3, so the first path is the witness.
        g = Graph.from_edges(3, [(0, 0), (0, 1), (1, 1), (1, 0), (0, 2)])
        spec = RewardSpec.uniform(3, 1.0, 1.0)
        got = solve_finite(g, spec, 0, 4)
        assert_same_outcome(got, reference(g, 0, 4, spec.lam, spec.gamma))
        assert got.value.value == 12.0
        assert got.witness.nodes == (0, 0, 1, 0, 2)

    def test_tailless_profile_within_its_table(self):
        # A 2-ring only ever reaches ages 1 and 2, far below the horizon.
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        short = [DecayProfile((1.0, 0.5))] * 2
        got = solve_finite_decay(g, [1.0, 2.0], short, 0, 40)
        assert_same_outcome(
            got, reference(g, 0, 40, [1.0, 2.0], short)
        )
        assert got.value.value == 1.0 + 3.0 + 20 * 1.5 + 19 * 3.0

    def test_tailless_profile_past_its_table(self):
        # A first visit at step t collects t + 1 steps, one past the table
        # at t = 2.
        g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        short = [DecayProfile((1.0, 0.5))] * 3
        assert solve_finite_decay(g, [1.0] * 3, short, 0, 1).value.value == 2.5
        with pytest.raises(ProfileTableExhaustedError):
            solve_finite_decay(g, [1.0] * 3, short, 0, 2)
        assert reference(g, 0, 2, [1.0] * 3, short) is (
            ProfileTableExhaustedError
        )

    def test_horizon_past_uint8_ages(self):
        # Node 1 is never visited, so its age climbs to horizon + 1 = 301.
        g = Graph.from_edges(3, [(0, 0), (0, 2), (2, 0)])
        spec = RewardSpec((1.0, 1.0, 1.5), (0.9, 0.5, 0.7))
        got = solve_finite(g, spec, 0, 300)
        assert_same_outcome(
            got, reference(g, 0, 300, spec.lam, spec.gamma)
        )

    def test_depth_past_uint8_ages(self):
        g = Graph.from_edges(2, [(0, 0), (0, 1), (1, 0)])
        tg = assert_same_truncated(g, 0, 300)
        assert max(max(ages) for _, ages in tg.states) == 300

    def test_single_node_self_loop(self):
        g = Graph.from_edges(1, [(0, 0)])
        spec = RewardSpec.uniform(1, 2.0, 0.5)
        got = solve_finite(g, spec, 0, 4)
        assert_same_outcome(got, reference(g, 0, 4, spec.lam, spec.gamma))
        assert got.states_expanded == 5
        tg = assert_same_truncated(g, 0, 3)
        assert tg.states == ((0, (1,)),) and tg.state_graph.adjacency == ((0,),)

    def test_horizon_zero(self):
        g = complete_graph(3)
        spec = RewardSpec.uniform(3, 1.5, 0.5)
        got = solve_finite(g, spec, 2, 0)
        assert_same_outcome(got, reference(g, 2, 0, spec.lam, spec.gamma))
        assert got.witness.nodes == (2,) and got.states_expanded == 1

    def test_dead_end(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        spec = RewardSpec.uniform(3, 1.0, 0.5)
        assert outcome(lambda: solve_finite(g, spec, 0, 3)) is NoPathError
        assert reference(g, 0, 3, spec.lam, spec.gamma) is NoPathError
        assert solve_finite(g, spec, 0, 2).witness.nodes == (0, 1, 2)
        tg = assert_same_truncated(g, 0, 2)
        assert tg.state_graph.adjacency[-1] == ()
