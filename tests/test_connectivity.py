"""Flow-based connectivity against brute force, plus the package oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupgraphs import (
    SimpleGraph,
    TooLargeForOracleError,
    commuting_graph,
    complete_graph,
    cycle_graph,
    edge_connectivity,
    edge_connectivity_oracle,
    non_inverse_graph,
    order_sum_graph,
    star_graph,
    vertex_connectivity,
    vertex_connectivity_oracle,
)
from conftest import (
    brute_edge_connectivity,
    brute_vertex_connectivity,
    path_graph,
    without_edge,
)
from test_graphs import small_graphs


class TestEdgeConnectivity:
    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_complete(self, n):
        assert edge_connectivity(complete_graph(n)) == n - 1

    def test_star(self):
        assert edge_connectivity(star_graph(6)) == 1

    def test_commuting_d3(self, d3):
        g = commuting_graph(d3)
        assert edge_connectivity(g) == 1
        assert brute_edge_connectivity(g) == 1

    def test_disconnected_and_trivial(self):
        assert edge_connectivity(SimpleGraph(np.zeros((4, 4), dtype=bool))) == 0
        assert edge_connectivity(SimpleGraph(np.zeros((1, 1), dtype=bool))) == 0

    def test_cycle(self):
        assert edge_connectivity(cycle_graph(6)) == 2


class TestVertexConnectivity:
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_complete_convention(self, n):
        expected = 0 if n == 1 else n - 1
        assert vertex_connectivity(complete_graph(n)) == expected

    def test_c4(self):
        assert vertex_connectivity(cycle_graph(4)) == 2

    def test_order_sum_z4(self, z4):
        g = order_sum_graph(z4)
        assert vertex_connectivity(g) == 2
        assert brute_vertex_connectivity(g) == 2

    def test_disconnected(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        assert vertex_connectivity(g) == 0


class TestOracles:
    def test_path(self):
        assert edge_connectivity_oracle(path_graph(3)) == 1

    def test_k4(self):
        assert edge_connectivity_oracle(complete_graph(4)) == 3

    def test_k3_vertex(self):
        assert vertex_connectivity_oracle(complete_graph(3)) == 2

    def test_star_vertex(self):
        assert vertex_connectivity_oracle(star_graph(5)) == 1

    def test_non_inverse_z5(self, z5):
        g = non_inverse_graph(z5)
        assert edge_connectivity_oracle(g) == 3
        assert vertex_connectivity_oracle(g) == 3
        assert edge_connectivity(g) == 3
        assert vertex_connectivity(g) == 3

    def test_edge_guard(self):
        with pytest.raises(TooLargeForOracleError):
            edge_connectivity_oracle(complete_graph(21))

    def test_vertex_guard(self):
        with pytest.raises(TooLargeForOracleError):
            vertex_connectivity_oracle(complete_graph(13))

    @pytest.mark.parametrize(
        "graph, expected",
        [
            (complete_graph(20), 19),
            (path_graph(20), 1),
            (
                SimpleGraph.from_edges(
                    20,
                    [(u + base, v + base) for base in (0, 10)
                     for u in range(10) for v in range(u + 1, 10)],
                ),
                0,
            ),
            (SimpleGraph(np.zeros((1, 1), dtype=bool)), 0),
            (SimpleGraph(np.zeros((2, 2), dtype=bool)), 0),
            (complete_graph(2), 1),
        ],
        ids=["K20", "P20", "two-K10", "n1", "n2-no-edge", "n2-edge"],
    )
    def test_edge_oracle_at_the_edges(self, graph, expected):
        assert edge_connectivity_oracle(graph) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_edge_oracle_matches_brute_force_above_small_graphs(self, seed):
        # two dense halves joined by a few edges, so the minimum cut is often
        # the join and not a single vertex's edges
        rng = np.random.default_rng(seed)
        n = 13 + seed % 2
        half = np.arange(n) < n // 2
        density = np.where(half[:, None] == half[None, :], 0.8, rng.uniform(0.02, 0.1))
        upper = np.triu(rng.random((n, n)) < density, 1)
        g = SimpleGraph(upper | upper.T)
        assert edge_connectivity_oracle(g) == brute_edge_connectivity(g)

    def test_disconnected_oracles(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        assert edge_connectivity_oracle(g) == 0
        assert vertex_connectivity_oracle(g) == 0


class TestConnectivityValues:
    def test_whitney_order(self, q8):
        for build in (commuting_graph, non_inverse_graph, order_sum_graph):
            g = build(q8)
            assert vertex_connectivity(g) <= edge_connectivity(g) <= g.degrees().min()


@settings(max_examples=80, deadline=None)
@given(small_graphs)
def test_flow_equals_brute_force(g):
    assert edge_connectivity(g) == brute_edge_connectivity(g)
    assert vertex_connectivity(g) == brute_vertex_connectivity(g)


@settings(max_examples=80, deadline=None)
@given(small_graphs)
def test_package_oracles_agree_with_flow(g):
    assert edge_connectivity_oracle(g) == edge_connectivity(g)
    assert vertex_connectivity_oracle(g) == vertex_connectivity(g)


@settings(max_examples=50, deadline=None)
@given(small_graphs)
def test_whitney_chain(g):
    assert vertex_connectivity(g) <= edge_connectivity(g) <= g.degrees().min()


@settings(max_examples=50, deadline=None)
@given(small_graphs, st.data())
def test_single_deletion_bounds(g, data):
    if not g.edge_list:
        return
    edge = data.draw(st.sampled_from(g.edge_list))
    h = without_edge(g, *edge)
    ke, kv = edge_connectivity(g), vertex_connectivity(g)
    assert ke - 1 <= edge_connectivity(h) <= ke
    assert kv - 1 <= vertex_connectivity(h) <= kv
