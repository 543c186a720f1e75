"""The vectorized visit-age engine against the per-state loops it replaced.

``oracles.layered_dp_reference`` and ``oracles.truncated_bfs_reference``
are the dict- and tuple-per-state expansions; the engine must reproduce
them bit for bit: values, witnesses, state counts, state order, edges and
weights, and the type of any error raised.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reward_routing import (
    DecayProfile,
    Graph,
    NoCycleError,
    NoPathError,
    ProfileTableExhaustedError,
    RewardSpec,
    StateBudgetExceededError,
    build_truncated,
    geometric_series,
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
    _post_visit,
    _sort_columns,
    _successors,
)
from reward_routing import infinite
from reward_routing.infinite import (
    _cycle_bearing_components,
    _cycle_to_lasso,
    _howard_max_mean_cycle,
    _live_graph,
    _node_caps,
)
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


def assert_same_truncated(g: Graph, v0: int, depth: int | tuple[int, ...]):
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


class TestNearTies:
    """Sums that round alike tie, even where the values they add to differ.

    A state's predecessors all leave its post-visit vector, and each adds
    the same step. Two of them whose values lie within a rounding step of
    each other can reach equal sums; the smaller one in state order wins,
    though its value is smaller.
    """

    def test_one_ulp_apart_values_tie_on_their_sums(self):
        g = Graph.from_edges(2, [(0, 0), (0, 1), (1, 0)])
        lam, decays = [2.0, 1.187240340634804], [1.0, 1.0]
        got = solve_finite_decay(g, lam, decays, 1, 7)
        assert_same_outcome(got, reference(g, 1, 7, lam, decays))
        assert got.witness.nodes == (1, 0, 1, 0, 1, 0, 1, 0)

    @settings(max_examples=150)
    @given(graphs(3), st.integers(4, 10), st.sampled_from([0.5, 1.0]), st.data())
    def test_short_decimal_rates(self, instance, horizon, gamma, data):
        # Sums of 0.1, 0.2, 0.3 and 0.7 times ages, or times halvings,
        # land one ulp apart often.
        g, v0 = instance
        n = g.node_count
        lam = data.draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7]), min_size=n, max_size=n))
        spec = RewardSpec(tuple(lam), (gamma,) * n)
        got = outcome(lambda: solve_finite(g, spec, v0, horizon))
        assert_same_outcome(got, reference(g, v0, horizon, spec.lam, spec.gamma))


class TestRowMajorAges:
    """Age matrices stay C-ordered, one contiguous row per node."""

    @settings(max_examples=30)
    @given(graphs(), st.sampled_from([None, 1, 3]))
    def test_expand_emits_c_ordered_ages(self, instance, depth):
        g, _ = instance
        n = g.node_count
        # A column slice, as a BFS frontier is, is not contiguous.
        ages = np.ones((n, 2 * n), dtype=_age_dtype(8))[:, ::2]
        post = _post_visit(np.arange(n, dtype=np.uint8), ages, depth)
        # One post-visit column per state, which its successors share.
        assert post.shape == (n, n)
        assert post.flags.c_contiguous
        position, succ = _successors(_csr(g), np.arange(n))
        assert len(position) == len(succ) == g.edge_count

    @settings(max_examples=30)
    @given(graphs(), st.integers(1, 4))
    def test_truncated_age_matrix_is_c_ordered(self, instance, depth):
        tg = build_truncated(*instance, depth)
        assert tg.age_matrix.flags.c_contiguous


def closed_form_weights(tg, spec: RewardSpec) -> tuple[np.ndarray, np.ndarray]:
    """The reward columns by the closed forms, state by state.

    ``lam * geometric_series(gamma, age)`` at the state's own age, or at
    its node's cap where that age overflowed (0); the optimistic column
    has ``lam / (1 - gamma)`` there instead.
    """
    under, over = [], []
    for v, ages in tg.states:
        lam, gamma, age = spec.lam[v], spec.gamma[v], ages[v]
        under.append(lam * geometric_series(gamma, age or int(tg.caps[v])))
        over.append(under[-1] if age else lam / (1.0 - gamma))
    return np.array(under), np.array(over)


def assert_closed_form_weights(tg, spec: RewardSpec) -> None:
    """``tg.weights`` and :func:`weight_pair` match the closed forms bit for bit."""
    table = tg.weights(spec)
    pairs = [weight_pair(spec, state, int(tg.caps[state[0]])) for state in tg.states]
    names = ("reward_under", "reward_over")
    for name, expected in zip(names, closed_form_weights(tg, spec)):
        column = getattr(table, name)
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes()
        paired = np.array([getattr(p, name) for p in pairs])
        assert paired.tobytes() == expected.tobytes()


class TestTruncatedAgainstReference:
    @settings(max_examples=40)
    @given(graphs(), st.integers(1, 4))
    def test_states_initial_and_edges(self, instance, depth):
        assert_same_truncated(*instance, depth)

    @settings(max_examples=40)
    @given(graphs(), st.integers(1, 4))
    def test_edge_arrays_are_sorted_and_match(self, instance, depth):
        g, v0 = instance
        tg = build_truncated(g, v0, depth)
        src, dst = tg.edge_arrays
        _, _, state_graph = oracles.truncated_bfs_reference(
            g, v0, depth, state_budget=DEFAULT_STATE_BUDGET
        )
        assert src.dtype == dst.dtype == np.intp
        assert list(zip(src.tolist(), dst.tolist())) == list(state_graph.edges())
        increasing = (src[1:] > src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] > dst[:-1]))
        assert increasing.all()
        # Within a source, the target nodes ascend as the indices do: in
        # BFS order a state's successors are first found together.
        same = src[1:] == src[:-1]
        target_nodes = tg.node_array[dst]
        assert (target_nodes[1:][same] > target_nodes[:-1][same]).all()

    @settings(max_examples=60)
    @given(graphs(), st.data())
    def test_per_node_caps(self, instance, data):
        # Unequal caps: states, edges and parents as the reference lays
        # them out, and each state weighed at its own node's cap.
        g, v0 = instance
        n = g.node_count
        caps = tuple(data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
        assume(len(set(caps)) > 1)
        tg = assert_same_truncated(g, v0, caps)
        assert (tg.depth, tg.caps.tolist()) == (max(caps), list(caps))
        for state in range(tg.state_count):
            expected = shortest_path(tg.state_graph, tg.initial, state).nodes
            assert bfs_tree_path(tg, state) == expected
        spec = RewardSpec(
            tuple(data.draw(st.lists(rates, min_size=n, max_size=n))),
            tuple(data.draw(st.lists(st.floats(0.05, 0.99), min_size=n, max_size=n))),
        )
        assert_closed_form_weights(tg, spec)

    @settings(max_examples=30)
    @given(graphs(max_nodes=5), st.integers(1, 4), st.data())
    def test_weight_table_matches_weight_pair(self, instance, depth, data):
        g, v0 = instance
        n = g.node_count
        spec = RewardSpec(
            tuple(data.draw(st.lists(rates, min_size=n, max_size=n))),
            tuple(data.draw(st.lists(st.floats(0.05, 0.99), min_size=n, max_size=n))),
        )
        assert_closed_form_weights(build_truncated(g, v0, depth), spec)


def bfs_tree_path(tg, state: int) -> tuple[int, ...]:
    """The states from the initial one to ``state`` along ``tg.parent``."""
    walk = [state]
    while walk[-1] != tg.initial:
        assert len(walk) <= tg.state_count, "parent walk does not reach initial"
        walk.append(int(tg.parent[walk[-1]]))
    return tuple(reversed(walk))


def bfs_levels(tg) -> np.ndarray:
    """Each state's BFS level: its distance from the initial state."""
    level = np.zeros(tg.state_count, dtype=np.intp)
    for state, parent in enumerate(tg.parent.tolist()[1:], start=1):
        level[state] = level[parent] + 1
    return level


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
    @given(graphs(), st.integers(1, 4))
    def test_numbering_is_bfs_discovery_order(self, instance, depth):
        # The start is state 0 and every other state comes after its parent.
        tg = build_truncated(*instance, depth)
        assert tg.initial == 0 and tg.parent[0] == 0
        assert (tg.parent[1:] < np.arange(1, tg.state_count)).all()

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
        try:
            live = _live_graph(g, v0)
        except NoCycleError:
            return
        tg = build_truncated(live, v0, depth)
        table = tg.weights(RewardSpec.uniform(g.node_count, 1.0, 0.5))
        for weights in (table.reward_under, table.reward_over):
            _, cycle = _howard_max_mean_cycle(*tg.edge_arrays, weights, tg.initial)
            _cycle_to_lasso(tg, cycle)
        assert "states" not in vars(tg) and "state_graph" not in vars(tg)

    @settings(max_examples=60)
    @given(graphs(max_nodes=5), st.integers(1, 4))
    def test_live_graph_build_drops_only_states_without_a_cycle_ahead(
        self, instance, depth
    ):
        # The states that reach a cycle, found on the full build, are the
        # live graph's build: same order, edges and BFS parents.
        g, v0 = instance
        full = build_truncated(g, v0, depth)
        preds: list[list[int]] = [[] for _ in range(full.state_count)]
        for u, v in full.state_graph.edges():
            preds[v].append(u)
        stack = [s for comp in _cycle_bearing_components(full.state_graph) for s in comp]
        ahead = set(stack)
        while stack:
            for u in preds[stack.pop()]:
                if u not in ahead:
                    ahead.add(u)
                    stack.append(u)
        if full.initial not in ahead:
            with pytest.raises(NoCycleError):
                _live_graph(g, v0)
            return
        tg = build_truncated(_live_graph(g, v0), v0, depth)
        kept = sorted(ahead)
        index = {s: k for k, s in enumerate(kept)}
        assert tg.states == tuple(full.states[s] for s in kept)
        assert tg.initial == index[full.initial]
        assert tg.state_graph.adjacency == tuple(
            tuple(index[v] for v in full.state_graph.adjacency[s] if v in index)
            for s in kept
        )
        assert tg.parent.tolist() == [index[int(full.parent[s])] for s in kept]


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

    def test_deep_cap_build_matches_the_reference(self):
        # One BFS level per age up to node 1's cap of 4,603.
        g = Graph.from_edges(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        spec = RewardSpec((0.2, 3.0), (0.3, 0.999))
        caps = tuple(_node_caps(spec, 30.0, range(2)).tolist())
        tg = assert_same_truncated(g, 0, caps)
        assert (tg.depth, tg.state_count) == (4603, 9209)
        assert bfs_levels(tg).max() == 4603

    @pytest.mark.parametrize(
        "g, depth",
        [
            (complete_graph(4), 3),
            (Graph.from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 0), (2, 1)]), (2, 4, 3)),
        ],
    )
    def test_budget_refusal_comes_after_the_level_that_passes_it(
        self, monkeypatch, g, depth
    ):
        # Each refusal comes right after expanding the level that takes
        # the count past the budget, and names the largest cap.
        tg = build_truncated(g, 0, depth)
        reached = np.bincount(bfs_levels(tg)).cumsum()
        calls = []

        def counted(*args):
            calls.append(1)
            return _post_visit(*args)

        monkeypatch.setattr(infinite, "_post_visit", counted)
        for budget in range(1, tg.state_count):
            calls.clear()
            message = f"^truncated graph at depth {tg.depth} exceeds {budget} states$"
            with pytest.raises(StateBudgetExceededError, match=message):
                build_truncated(g, 0, depth, state_budget=budget)
            assert len(calls) == np.searchsorted(reached, budget, side="right")
            with pytest.raises(StateBudgetExceededError, match=message):
                oracles.truncated_bfs_reference(g, 0, depth, state_budget=budget)

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
        for horizon in (4, 5):
            got = solve_finite(g, spec, 0, horizon)
            assert_same_outcome(got, reference(g, 0, horizon, spec.lam, spec.gamma))
            assert got.states_expanded == horizon + 1
        # Leaving the start of a one-node graph gives back the start's own
        # ages, so its self-loop leads back to it: one state, not two.
        for depth in (1, 3):
            tg = assert_same_truncated(g, 0, depth)
            assert tg.states == ((0, (1,)),) and tg.state_graph.adjacency == ((0,),)

    def test_every_state_of_a_level_leaves_one_known_vector(self):
        # At depth 1 every age but the one just reset overflows to 0, so
        # the two states at node 0 on level 2 both leave (1, 0, 0), the
        # start's vector: the sort sees three equal columns and no key.
        # No DP layer of two or more states on a 2- or 3-node graph leaves
        # one vector up to horizon 6, so the case comes from the build.
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 0), (2, 0)])
        tg = assert_same_truncated(g, 0, 1)
        assert tg.states == (
            (0, (1, 1, 1)), (1, (1, 0, 0)), (2, (1, 0, 0)), (0, (0, 1, 0)), (0, (0, 0, 1))
        )
        equal = np.full((3, 4), 2, dtype=np.uint8)
        order, fresh = _sort_columns(equal)
        assert order.tolist() == [0, 1, 2, 3]
        assert fresh.tolist() == [True, False, False, False]

    def test_profile_error_comes_before_the_budget(self):
        # Layer 4 would take the count past 40, and it also asks for
        # profile entries past the tables: the profile error wins.
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)])
        lam = [0.0, 2.7038855643795645, 2.390489973992343]
        profiles = [
            DecayProfile((1.0, 0.2927001611519172, 0.1873364042287161, 0.152751952335329)),
            DecayProfile((1.0, 0.4947755620958164, 0.25402015210918655)),
            DecayProfile((1.0, 0.7891630250308297, 0.44663797716645876, 0.2705725435575218)),
        ]
        assert solve_finite_decay(g, lam, profiles, 1, 3).states_expanded == 28
        with pytest.raises(ProfileTableExhaustedError):
            solve_finite_decay(g, lam, profiles, 1, 8, state_budget=40)
        with pytest.raises(ProfileTableExhaustedError):
            oracles.layered_dp_reference(
                g, 1, 8, make_step_reward(lam, profiles), 40, DEFAULT_HORIZON_CAP
            )

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
