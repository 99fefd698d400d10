"""Local-flow minimality sweeps, checked against the deletion-sweep oracle,
and the dominating-vertex criterion."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupgraphs import (
    GRAPH_KINDS,
    SimpleGraph,
    build_family,
    build_graph,
    commuting_graph,
    complete_graph,
    coprime_graph,
    cycle_graph,
    default_corpus,
    dominating_vertex_criterion,
    edge_connectivity,
    is_minimally_connected,
    is_minimally_edge_connected,
    non_inverse_graph,
    order_sum_graph,
    star_graph,
    vertex_connectivity,
)
from conftest import (
    brute_edge_connectivity,
    brute_minimality,
    brute_vertex_connectivity,
    without_edge,
)
from test_graphs import small_graphs


class TestEdgeSweep:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_complete_holds(self, n):
        v = is_minimally_edge_connected(complete_graph(n))
        assert v.applicable and v.holds
        assert v.base_value == n - 1
        assert v.violating_edges == ()

    def test_star_holds(self):
        v = is_minimally_edge_connected(star_graph(7))
        assert v.holds and v.base_value == 1

    def test_commuting_d3_fails(self, d3):
        v = is_minimally_edge_connected(commuting_graph(d3))
        assert not v.holds
        assert (1, 2) in v.violating_edges  # deleting {r, r^2} keeps kappa' = 1
        # complete violating set cross-checked against the brute-force sweep
        _, expected, _ = brute_minimality(commuting_graph(d3), brute_edge_connectivity)
        assert v.violating_edges == expected

    def test_non_inverse_z5_holds(self, z5):
        g = non_inverse_graph(z5)
        v = is_minimally_edge_connected(g)
        assert v.holds and v.base_value == 3
        assert all(val == 2 for val in v.per_edge_values.values())
        holds, _, _ = brute_minimality(g, brute_edge_connectivity)
        assert holds

    def test_cycle_holds(self):
        v = is_minimally_edge_connected(cycle_graph(5))
        assert v.holds and v.base_value == 2  # kappa' 2 -> 1 for every edge

    def test_lollipop_fails(self):
        # triangle with a pendant vertex: deleting triangle edges keeps kappa' = 1
        g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        v = is_minimally_edge_connected(g)
        assert not v.holds
        assert v.violating_edges == ((0, 1), (0, 2), (1, 2))

    def test_not_applicable_cases(self):
        null = SimpleGraph(np.zeros((4, 4), dtype=bool))
        v = is_minimally_edge_connected(null)
        assert not v.applicable and not v.holds and v.base_value == 0
        single = SimpleGraph(np.zeros((1, 1), dtype=bool))
        assert not is_minimally_edge_connected(single).applicable


class TestVertexSweep:
    def test_star_holds(self):
        v = is_minimally_connected(star_graph(6))
        assert v.holds and v.base_value == 1

    def test_k4_holds(self):
        v = is_minimally_connected(complete_graph(4))
        assert v.holds and v.base_value == 3
        assert all(val == 2 for val in v.per_edge_values.values())

    def test_order_sum_z4_fails(self, z4):
        g = order_sum_graph(z4)
        v = is_minimally_connected(g)
        assert not v.holds
        assert v.violating_edges == ((1, 3),)  # K4 minus {e,a^2}: deleting {a,a^3} leaves C4
        assert v.per_edge_values[(1, 3)] == 2
        _, expected, _ = brute_minimality(g, brute_vertex_connectivity)
        assert v.violating_edges == expected


def test_flow_decides_edges_the_degree_bound_cannot():
    # two triangles joined by the bridge {2, 3}: every endpoint has degree >= 2
    # but kappa = kappa' = 1, so only the local flow shows the bridge is critical
    g = SimpleGraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    for sweep, connectivity in (
        (is_minimally_edge_connected, brute_edge_connectivity),
        (is_minimally_connected, brute_vertex_connectivity),
    ):
        v = sweep(g)
        assert v.base_value == 1
        assert v.per_edge_values[(2, 3)] == 0
        assert (2, 3) not in v.violating_edges
        assert v.per_edge_values == brute_minimality(g, connectivity)[2]


# corpus graphs up to this order are swept edge by edge against the oracle; the
# larger ones (n = 17-32) get SAMPLED_EDGES seeded edges per mode
FULL_ORACLE_MAX_N = 16
SAMPLED_EDGES = 2

SWEEPS = (
    ("edge", is_minimally_edge_connected, edge_connectivity),
    ("vertex", is_minimally_connected, vertex_connectivity),
)


@pytest.mark.parametrize("spec", default_corpus(), ids=lambda spec: spec.label())
def test_sweeps_match_deletion_oracle_on_corpus(spec):
    group = build_family(spec)
    for kind in sorted(GRAPH_KINDS):
        g = build_graph(group, kind)
        for mode, sweep, connectivity in SWEEPS:
            v = sweep(g)
            where = f"{spec.label()} [{kind}] {mode}"
            if g.n <= FULL_ORACLE_MAX_N:
                holds, violating, values = brute_minimality(g, connectivity)
                assert v.holds == holds, where
                assert v.violating_edges == violating, where
                assert list(v.per_edge_values.items()) == list(values.items()), where
                continue
            assert v.base_value == connectivity(g), where
            rng = random.Random(f"{spec.label()}/{kind}/{mode}")
            for edge in rng.sample(g.edge_list, min(SAMPLED_EDGES, g.edge_count)):
                assert v.per_edge_values[edge] == connectivity(without_edge(g, *edge)), (
                    f"{where} {edge}"
                )


class TestDominatingCriterion:
    def test_coprime_z9_applies_true(self, z9):
        c = dominating_vertex_criterion(coprime_graph(z9))
        assert c.applies and c.answer
        assert c.unique_dominating and c.rest_regular

    def test_order_sum_z6_two_dominating(self, z6):
        c = dominating_vertex_criterion(order_sum_graph(z6))
        assert c.applies and not c.answer
        assert c.dominating_vertices == (1, 5)
        assert not c.unique_dominating

    def test_coprime_z6_not_regular(self, z6):
        g = coprime_graph(z6)
        c = dominating_vertex_criterion(g)
        assert c.applies and not c.answer
        assert c.unique_dominating and not c.rest_regular
        rest = g.adjacency[1:, 1:]  # G - x for the dominating vertex x = 0
        assert sorted(int(d) for d in rest.sum(axis=1)) == [0, 0, 1, 1, 2]

    def test_complete_not_applicable(self):
        c = dominating_vertex_criterion(complete_graph(4))
        assert not c.applies and "complete" in c.reason

    def test_no_dominating_vertex_not_applicable(self):
        c = dominating_vertex_criterion(cycle_graph(5))
        assert not c.applies and "dominating" in c.reason


@settings(max_examples=60, deadline=None)
@given(small_graphs)
def test_per_edge_values_drop_by_at_most_one(g):
    v = is_minimally_edge_connected(g)
    if v.applicable:
        for value in v.per_edge_values.values():
            assert value in (v.base_value - 1, v.base_value)
        assert v.holds == (not v.violating_edges)


@settings(max_examples=40, deadline=None)
@given(small_graphs)
def test_edge_sweep_matches_brute_force(g):
    v = is_minimally_edge_connected(g)
    holds, violating, values = brute_minimality(g, brute_edge_connectivity)
    if v.applicable:
        assert v.holds == holds
        assert v.violating_edges == violating
        assert v.per_edge_values == values


@settings(max_examples=30, deadline=None)
@given(small_graphs)
def test_vertex_sweep_matches_brute_force(g):
    v = is_minimally_connected(g)
    holds, violating, values = brute_minimality(g, brute_vertex_connectivity)
    if v.applicable:
        assert v.holds == holds
        assert v.violating_edges == violating
        assert v.per_edge_values == values


@settings(max_examples=40, deadline=None)
@given(small_graphs)
def test_criterion_agrees_with_sweep(g):
    c = dominating_vertex_criterion(g)
    if c.applies:
        assert is_minimally_edge_connected(g).holds == c.answer
