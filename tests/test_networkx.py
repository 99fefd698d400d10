"""networkx as a third opinion on global and local connectivity."""

from itertools import combinations

import pytest

from groupgraphs import GRAPH_KINDS, build_family, build_graph, default_corpus
from groupgraphs.connectivity import (
    edge_connectivity,
    local_edge_connectivity,
    local_vertex_connectivity,
    vertex_connectivity,
)

nx = pytest.importorskip("networkx")

# every pair of every corpus graph up to this order is also compared locally
LOCAL_MAX_N = 12


@pytest.mark.parametrize("spec", default_corpus(), ids=lambda spec: spec.label())
def test_connectivity_matches_networkx_on_corpus(spec):
    group = build_family(spec)
    for kind in sorted(GRAPH_KINDS):
        g = build_graph(group, kind)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edge_list)
        where = f"{spec.label()} [{kind}]"
        assert edge_connectivity(g) == nx.edge_connectivity(h), where
        assert vertex_connectivity(g) == nx.node_connectivity(h), where
        if g.n > LOCAL_MAX_N:
            continue
        local_edge = local_edge_connectivity(g)
        local_vertex = local_vertex_connectivity(g)
        for u, v in combinations(range(g.n), 2):
            assert local_edge(u, v) == nx.connectivity.local_edge_connectivity(h, u, v), (
                where, u, v,
            )
            assert local_vertex(u, v) == nx.connectivity.local_node_connectivity(h, u, v), (
                where, u, v,
            )
