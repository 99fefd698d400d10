"""SimpleGraph mechanics, shape profiles, and exports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupgraphs import (
    EdgeNotPresentError,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    shape_profile,
    star_graph,
    to_dot,
    to_edge_csv,
)


def random_adjacency(n, bits):
    adj = np.zeros((n, n), dtype=bool)
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if bits[idx]:
                adj[u, v] = adj[v, u] = True
            idx += 1
    return adj


small_graphs = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                             max_size=n * (n - 1) // 2)
    )
).map(lambda t: SimpleGraph(random_adjacency(t[0], t[1])))


class TestConstruction:
    def test_rejects_asymmetric(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            SimpleGraph(adj)

    def test_rejects_loops(self):
        adj = np.eye(2, dtype=bool)
        with pytest.raises(ValueError, match="loops"):
            SimpleGraph(adj)

    def test_from_edges(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (2, 1)])
        assert g.edge_list == ((0, 1), (1, 2))
        assert g.edge_count == 2


class TestShape:
    def test_complete_k4(self):
        s = shape_profile(complete_graph(4))
        assert s.is_complete and s.is_regular
        assert s.min_degree == 3
        assert s.diameter == 1
        assert s.dominating_vertices == (0, 1, 2, 3)

    def test_star(self):
        s = shape_profile(star_graph(9))
        assert s.is_star and s.star_center == 0
        assert s.min_degree == 1
        assert s.diameter == 2
        assert not s.is_complete

    def test_cycle_4(self):
        s = shape_profile(cycle_graph(4))
        assert s.is_regular and not s.is_complete and not s.is_star
        assert s.min_degree == 2
        assert s.diameter == 2
        assert s.dominating_vertices == ()

    def test_single_vertex(self):
        s = shape_profile(SimpleGraph(np.zeros((1, 1), dtype=bool)))
        assert s.is_connected and s.diameter == 0
        assert s.is_complete

    def test_disconnected_diameter(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        s = shape_profile(g)
        assert not s.is_connected
        assert s.diameter is None

    def test_k2_is_both_complete_and_star(self):
        s = shape_profile(complete_graph(2))
        assert s.is_complete and s.is_star

    def test_isolated_vertex_disconnects(self):
        g = SimpleGraph.from_edges(5, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert not g.is_connected()

    def test_degree_sequence_sorted(self):
        g = star_graph(4)
        assert shape_profile(g).degree_sequence == (3, 1, 1, 1)


class TestDeleteEdge:
    def test_k3_minus_edge_is_path(self):
        g = complete_graph(3).delete_edge(0, 1)
        assert g.edge_list == ((0, 2), (1, 2))
        assert shape_profile(g).degree_sequence == (2, 1, 1)

    def test_star_minus_edge_disconnects(self):
        g = star_graph(5).delete_edge(0, 3)
        assert not g.is_connected()

    def test_c4_minus_edge_is_path(self):
        g = cycle_graph(4).delete_edge(0, 3)
        s = shape_profile(g)
        assert s.is_connected and s.degree_sequence == (2, 2, 1, 1)

    def test_original_untouched(self):
        g = complete_graph(3)
        g.delete_edge(0, 1)
        assert g.edge_count == 3

    def test_readding_restores_edge_list(self):
        g = cycle_graph(5)
        h = g.delete_edge(1, 2)
        adj = h.adjacency.copy()
        adj[1, 2] = adj[2, 1] = True
        assert SimpleGraph(adj).edge_list == g.edge_list

    def test_missing_edge_raises(self):
        with pytest.raises(EdgeNotPresentError):
            path_graph(3).delete_edge(0, 2)


class TestExports:
    def test_dot(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)], kind_tag="commuting")
        dot = to_dot(g, labels=["e", "a", "b"])
        assert dot.splitlines() == [
            'graph "commuting" {',
            '  0 [label="e"];',
            '  1 [label="a"];',
            '  2 [label="b"];',
            "  0 -- 1;",
            "  1 -- 2;",
            "}",
        ]

    def test_edge_csv(self):
        g = SimpleGraph.from_edges(3, [(1, 2), (0, 1)])
        assert to_edge_csv(g) == "u,v\n0,1\n1,2\n"

    def test_csv_header_only_for_null_graph(self):
        g = SimpleGraph(np.zeros((3, 3), dtype=bool))
        assert to_edge_csv(g) == "u,v\n"


@settings(max_examples=60, deadline=None)
@given(small_graphs)
def test_degree_sum_is_twice_edges(g):
    assert int(g.degrees().sum()) == 2 * g.edge_count


@settings(max_examples=60, deadline=None)
@given(small_graphs)
def test_dominating_vertex_forces_diameter_le_2(g):
    s = shape_profile(g)
    if s.dominating_vertices and g.n >= 2:
        assert s.diameter <= 2


@settings(max_examples=60, deadline=None)
@given(small_graphs)
def test_edge_list_consistent_with_adjacency(g):
    for u, v in g.edge_list:
        assert u < v and g.has_edge(u, v) and g.has_edge(v, u)
    assert len(set(g.edge_list)) == g.edge_count
