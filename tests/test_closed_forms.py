"""Closed forms for the non-inverse and order-sum graphs, computed from element
orders and inverses alone, against the flow route at every corpus order.

Non-inverse: the graph is K_n minus the matching of the m inverse pairs
{x, x^-1} with x != x^-1.  If m = 0 it is K_n.  Otherwise two non-adjacent
vertices x, x^-1 have the other n - 2 vertices as common neighbours, so
kappa = kappa' = n - 2.  An edge at a vertex of degree n - 2 is critical by
degree; deleting an edge between two self-inverse elements leaves K_n minus
a larger matching, still of connectivity n - 2.  So the violating edges, in
both modes, are exactly the pairs of self-inverse elements.

Order-sum: a proper divisor of n is at most n/2, so o(x) + o(y) > n needs
one of the two orders to equal n.  A non-cyclic group gives the null graph.
Z_n gives its a = phi(n) generators as a clique joined to an independent set
of the other n - a elements; for prime n that is K_n.  Otherwise every
separator contains all generators and the non-generators have degree a, so
kappa = kappa' = a.  An edge at a non-generator is critical by degree; two
generators have local value n - 1 > a.  So the violating edges, in both
modes, are exactly the pairs of generators.
"""

from itertools import combinations

import pytest

from groupgraphs import (
    build_family,
    default_corpus,
    edge_connectivity,
    is_minimally_connected,
    is_minimally_edge_connected,
    non_inverse_graph,
    order_sum_graph,
    parse_group_spec,
    vertex_connectivity,
)

# the groups of order 64-199 the large benchmark workload draws from
LARGE_POOL_SPECS = (
    "cyclic:193",
    "cyclic:197",
    "dihedral:34",
    "dihedral:35",
    "dicyclic:17",
    "dicyclic:18",
    "ea:11,2",
    "ea:5,3",
    "product:cyclic:2*dicyclic:8",
    "product:cyclic:2*dihedral:16",
    "symmetric:5",
)


def non_inverse_form(group):
    """(kappa, kappa', violating edges) of the non-inverse graph, n >= 2."""
    n = group.order
    self_inverse = [x for x in range(n) if group.inverses[x] == x]
    if len(self_inverse) == n:
        return n - 1, n - 1, ()
    return n - 2, n - 2, tuple(combinations(self_inverse, 2))


def order_sum_form(group):
    """(kappa, kappa', violating edges) of the order-sum graph, n >= 2; the
    edges are None where the sweeps do not apply (the null graph)."""
    n = group.order
    generators = [x for x in range(n) if group.element_orders[x] == n]
    if not generators:
        return 0, 0, None
    if len(generators) == n - 1:
        return n - 1, n - 1, ()
    return len(generators), len(generators), tuple(combinations(generators, 2))


FORMS = ((non_inverse_graph, non_inverse_form), (order_sum_graph, order_sum_form))


@pytest.mark.parametrize("spec", default_corpus(), ids=lambda spec: spec.label())
def test_forms_match_flows_and_sweeps_on_corpus(spec):
    group = build_family(spec)
    for builder, form in FORMS:
        g = builder(group)
        kappa, kappa_edge, violating = form(group)
        where = f"{spec.label()} [{g.kind_tag}]"
        assert vertex_connectivity(g) == kappa, where
        assert edge_connectivity(g) == kappa_edge, where
        for sweep in (is_minimally_edge_connected, is_minimally_connected):
            v = sweep(g)
            if violating is None:
                assert not v.applicable, where
            else:
                assert v.applicable and v.violating_edges == violating, where
                assert v.holds == (not violating), where


@pytest.mark.parametrize("text", LARGE_POOL_SPECS)
def test_forms_match_flows_on_large_pools(text):
    group = build_family(parse_group_spec(text))
    for builder, form in FORMS:
        g = builder(group)
        kappa, kappa_edge, _ = form(group)
        assert vertex_connectivity(g) == kappa, f"{text} [{g.kind_tag}]"
        assert edge_connectivity(g) == kappa_edge, f"{text} [{g.kind_tag}]"
