from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from reward_routing import (
    BadEdgeError,
    EmptyPathError,
    Graph,
    InstanceTooLargeError,
    InvalidInputError,
    NoCycleError,
    NotStronglyConnectedError,
    Path,
    RewardSpec,
    covering_cycle,
    longest_simple_cycle,
    scc_decompose,
    solve_bounded_memory,
    solve_finite,
    solve_finite_decay,
    solve_infinite_approx,
    solve_nondiscounted,
    validate_lasso,
    validate_path,
)

import oracles
from conftest import parse_route, random_graph, ring_graph, spell


def small_graphs(max_nodes: int = 6, min_out: int = 0):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_nodes))
        edges = []
        for v in range(n):
            degree = draw(st.integers(min_out, n))
            succs = draw(
                st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree)
            )
            edges.extend((v, w) for w in succs)
        return Graph.from_edges(n, edges)

    return build()


def adjacency_error(n: int, adjacency) -> str | None:
    """The message the original per-target adjacency check raised, if any."""
    for v, succs in enumerate(adjacency):
        if list(succs) != sorted(set(succs)):
            return f"adjacency of node {v} must be sorted and deduplicated"
        for w in succs:
            if not 0 <= w < n:
                return f"edge ({v}, {w}) endpoint out of range"
    return None


class TestAdjacencyCheck:
    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(-2, n + 2), max_size=4).map(tuple),
                min_size=n,
                max_size=n,
            ),
        )
    ))
    def test_accepts_and_names_what_the_full_check_did(self, instance):
        n, adjacency = instance
        expected = adjacency_error(n, adjacency)
        if expected is None:
            assert Graph(n, tuple(adjacency)).adjacency == tuple(adjacency)
        else:
            with pytest.raises(ValueError) as err:
                Graph(n, tuple(adjacency))
            assert str(err.value) == expected

    def test_first_out_of_range_target_is_named(self):
        with pytest.raises(ValueError, match=r"^edge \(1, 3\) endpoint out of range$"):
            Graph(3, ((0,), (1, 3, 4), ()))
        with pytest.raises(ValueError, match="must be sorted and deduplicated"):
            Graph(3, ((0, 0), (), ()))


class TestValidatePath:
    def test_worked_route_is_valid(self, two_cycles):
        p = validate_path(two_cycles, parse_route(two_cycles, "adabcad"))
        assert p.length == 6

    def test_self_loop_route(self):
        g = Graph.from_edges(1, [(0, 0)])
        assert validate_path(g, [0, 0, 0]).length == 2

    def test_first_bad_step_is_reported(self, two_cycles):
        with pytest.raises(BadEdgeError) as err:
            validate_path(two_cycles, parse_route(two_cycles, "abd"))
        assert err.value.step == 1

    def test_empty_sequence_rejected(self, two_cycles):
        with pytest.raises(EmptyPathError):
            validate_path(two_cycles, [])

    def test_out_of_range_node_rejected(self, two_cycles):
        with pytest.raises(ValueError):
            validate_path(two_cycles, [0, 9])

    def test_lasso_needs_the_closing_edge(self, two_cycles):
        validate_lasso(two_cycles, [], parse_route(two_cycles, "abc"))
        with pytest.raises(BadEdgeError):
            validate_lasso(two_cycles, [], parse_route(two_cycles, "ab"))


# Every public solver, called on the 4-node two-cycles graph from ``v0``;
# solve_infinite_approx hands a graph without decay to solve_nondiscounted.
DECAYING, NO_DECAY = RewardSpec.uniform(4, 1.0, 0.5), RewardSpec.uniform(4, 1.0, 1.0)
SOLVERS = {
    "finite": lambda g, v0: solve_finite(g, DECAYING, v0, 3),
    "finite_decay": lambda g, v0: solve_finite_decay(g, [1.0] * 4, [0.5] * 4, v0, 3),
    "infinite": lambda g, v0: solve_infinite_approx(g, DECAYING, v0, 1e-2),
    "infinite_no_decay": lambda g, v0: solve_infinite_approx(g, NO_DECAY, v0, 1e-2),
    "nondiscounted": lambda g, v0: solve_nondiscounted(g, [1.0] * 4, v0),
    "bounded": lambda g, v0: solve_bounded_memory(g, DECAYING, v0, 2),
}


class TestStartNode:
    @pytest.mark.parametrize("solver", list(SOLVERS.values()), ids=list(SOLVERS))
    @pytest.mark.parametrize("v0", [-1, 4], ids=["minus_one", "node_count"])
    def test_out_of_range_start_is_refused(self, two_cycles, solver, v0):
        with pytest.raises(ValueError, match=rf"^start node {v0} out of range$"):
            solver(two_cycles, v0)


class TestSCC:
    def test_two_cycles_is_one_component(self, two_cycles):
        assert scc_decompose(two_cycles) == ((0, 1, 2, 3),)

    def test_two_loops_and_a_bridge(self):
        g = Graph.from_edges(2, [(0, 0), (1, 1), (0, 1)])
        assert scc_decompose(g) == scc_decompose(g, 0) == ((0,), (1,))
        assert scc_decompose(g, 1) == ((1,),)

    @given(small_graphs(max_nodes=8))
    def test_matches_reachability_closure(self, g):
        assert list(scc_decompose(g)) == oracles.sccs_by_closure(g)

    @given(small_graphs(max_nodes=8))
    def test_rooted_call_keeps_the_reachable_components(self, g):
        closure = oracles.reachability_closure(g)
        components = oracles.sccs_by_closure(g)
        for root in range(g.node_count):
            reachable = [c for c in components if closure[root][c[0]]]
            assert list(scc_decompose(g, root)) == reachable

    @pytest.mark.parametrize("root", [-1, 2])
    def test_root_out_of_range_is_refused(self, root):
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        with pytest.raises(InvalidInputError, match=f"^start node {root} out of range$"):
            scc_decompose(g, root)

    @given(small_graphs(max_nodes=8))
    def test_components_partition_the_nodes(self, g):
        seen = sorted(v for comp in scc_decompose(g) for v in comp)
        assert seen == list(range(g.node_count))

    @pytest.mark.parametrize("closed", [False, True], ids=["path", "ring"])
    def test_long_graphs_need_no_recursion(self, closed):
        n = 20_000
        edges = [(v, v + 1) for v in range(n - 1)] + ([(n - 1, 0)] if closed else [])
        g = Graph.from_edges(n, edges)
        middle = n // 2
        if closed:
            assert scc_decompose(g) == scc_decompose(g, middle) == (tuple(range(n)),)
        else:
            assert scc_decompose(g) == tuple((v,) for v in range(n))
            assert scc_decompose(g, middle) == tuple((v,) for v in range(middle, n))


class TestNondiscountedComponent:
    """:func:`solve_nondiscounted` against the whole-graph rule it replaced."""

    def test_unreachable_heavy_component_is_ignored(self):
        # 0 -> 1 only; the heavy loop at 2 cannot be reached.
        g = Graph.from_edges(3, [(0, 1), (1, 0), (2, 2)])
        solution = solve_nondiscounted(g, [1.0, 1.0, 50.0], 0)
        assert solution.component == (0, 1)
        assert solution.value.value == 2.0
        assert oracles.heaviest_reachable_component(g, [1.0, 1.0, 50.0], 0) == (
            (0, 1),
            2.0,
        )

    def test_equal_sums_go_to_the_smallest_node(self):
        # Tarjan completes the loop at 2 first; the loop at 1 still wins.
        g = Graph.from_edges(3, [(0, 1), (1, 1), (1, 2), (2, 2)])
        solution = solve_nondiscounted(g, [5.0, 1.0, 1.0], 0)
        assert solution.component == (1,)
        assert oracles.heaviest_reachable_component(g, [5.0, 1.0, 1.0], 0) == ((1,), 1.0)

    @given(small_graphs(max_nodes=8), st.data())
    def test_matches_the_whole_graph_rule(self, g, data):
        v0 = data.draw(st.integers(0, g.node_count - 1))
        # Few distinct rates, so equal sums are common.
        lam = data.draw(
            st.lists(
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                min_size=g.node_count,
                max_size=g.node_count,
            )
        )
        expected = oracles.heaviest_reachable_component(g, lam, v0)
        if expected is None:
            with pytest.raises(NoCycleError):
                solve_nondiscounted(g, lam, v0)
            return
        solution = solve_nondiscounted(g, lam, v0)
        assert (solution.component, solution.value.value) == expected


class TestCoveringCycle:
    def test_two_cycles_cover(self, two_cycles):
        walk = covering_cycle(two_cycles, (0, 1, 2, 3))
        assert spell(two_cycles, walk.nodes) == "abcada"

    def test_singleton_with_self_loop(self):
        g = Graph.from_edges(1, [(0, 0)])
        assert covering_cycle(g, (0,)).nodes == (0, 0)

    def test_singleton_without_self_loop(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        with pytest.raises(NotStronglyConnectedError):
            covering_cycle(g, (0,))

    def test_not_strongly_connected_rejected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
        with pytest.raises(NotStronglyConnectedError):
            covering_cycle(g, (0, 1, 2))

    def test_random_components_are_covered(self):
        rng = random.Random(4)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 6))
            for comp in scc_decompose(g):
                if len(comp) == 1 and not g.has_edge(comp[0], comp[0]):
                    continue
                walk = covering_cycle(g, comp)
                validate_path(g, walk.nodes)
                assert walk.nodes[0] == walk.nodes[-1]
                assert set(walk.nodes) == set(comp)
                assert walk.length <= len(comp) ** 2

    @given(small_graphs(max_nodes=8))
    def test_legs_go_to_a_nearest_uncovered_node(self, g):
        for comp in scc_decompose(g):
            if len(comp) == 1 and not g.has_edge(comp[0], comp[0]):
                continue
            walk = covering_cycle(g, comp).nodes
            validate_path(g, walk)
            assert walk[0] == walk[-1] == min(comp)
            assert set(walk) == set(comp)
            assert len(walk) - 1 <= len(comp) ** 2
            if len(comp) == 1:
                assert walk == (comp[0], comp[0])
                continue
            # Split the walk where it first reaches a node; each leg must be
            # as short as the distance, inside the component, from its start
            # to the nearest node still uncovered (the start, for the last).
            covered, leg_start = {walk[0]}, 0
            for i in range(1, len(walk)):
                last = i == len(walk) - 1
                if walk[i] in covered and not last:
                    continue
                dist = oracles.distances_within(g, walk[leg_start], set(comp))
                targets = set(comp) - covered or {walk[0]}
                assert i - leg_start == min(dist[v] for v in targets)
                covered.add(walk[i])
                leg_start = i

    @given(small_graphs(max_nodes=8), st.data())
    def test_matches_the_reference_walk(self, g, data):
        # A component, or any node set, which may not be strongly connected.
        nodes = data.draw(
            st.sampled_from(scc_decompose(g))
            | st.sets(st.integers(0, g.node_count - 1))
        )

        def walk(cover):
            try:
                return cover(g, nodes).nodes
            except NotStronglyConnectedError as exc:
                return str(exc)

        assert walk(covering_cycle) == walk(oracles.covering_cycle_reference)

    def test_shuffled_ring_is_walked_once(self):
        rng = random.Random(60)
        ids = list(range(60))
        rng.shuffle(ids)
        g = Graph.from_edges(60, [(ids[k], ids[(k + 1) % 60]) for k in range(60)])
        walk = covering_cycle(g, range(60))
        assert walk.length == 60
        assert walk.nodes[0] == walk.nodes[-1] == 0
        assert sorted(walk.nodes[:-1]) == list(range(60))


class TestExactCycleSearch:
    def test_directed_ring(self):
        assert longest_simple_cycle(ring_graph(4)).length == 4

    def test_two_cycles_has_no_hamiltonian_cycle(self, two_cycles):
        longest = longest_simple_cycle(two_cycles)
        assert longest.length == 3 < two_cycles.node_count
        assert spell(two_cycles, longest.nodes) == "abca"

    def test_acyclic_graph_has_no_cycle(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(NoCycleError):
            longest_simple_cycle(g)

    def test_guard_refuses_large_instances(self):
        g = Graph.from_edges(20, [(i, (i + 1) % 20) for i in range(20)])
        with pytest.raises(InstanceTooLargeError):
            longest_simple_cycle(g)
        assert longest_simple_cycle(g, max_nodes=20).length == 20

    def test_matches_permutation_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 6), min_out=0)
            longest = oracles.longest_cycle_by_enumeration(g)
            if longest == 0:
                with pytest.raises(NoCycleError):
                    longest_simple_cycle(g)
            else:
                assert longest_simple_cycle(g).length == longest

    def test_hamiltonian_iff_longest_spans_all_nodes(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 5), min_out=1)
            try:
                longest = longest_simple_cycle(g).length
            except NoCycleError:
                longest = 0
            hamiltonian = oracles.hamiltonian_cycle_by_permutation(g)
            assert (hamiltonian is not None) == (longest == g.node_count)


class TestPathType:
    def test_length_counts_edges(self):
        assert Path((0,)).length == 0
        assert Path((0, 1, 2)).length == 2

    def test_indexing(self):
        p = Path((3, 1, 2))
        assert p[0] == 3 and p[2] == 2
