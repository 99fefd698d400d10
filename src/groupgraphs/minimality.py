"""Minimal (edge) connectivity predicates decided by one local max-flow per
edge, plus the fast dominating-vertex criterion.

A graph is minimally edge connected when deleting any single edge lowers the
edge connectivity by exactly 1, and minimally connected when the same holds
for vertex connectivity.  Deleting one edge e = uv can lower either value by
at most 1, and a cut of G - e that is not a cut of G must separate u from v
(Menger).  The edge uv is itself one of the disjoint u-v paths of G, so in
both modes the connectivity of G - e is min(base value, local u-v
connectivity of G - 1), the local value coming from one max-flow on the
original graph (:mod:`groupgraphs.connectivity`).

Local connectivity never exceeds the smaller endpoint degree, and the base
value never exceeds the minimum degree, so an edge with an endpoint of degree
equal to the base value drops without any flow.  The exhaustive deletion
sweep (recompute the connectivity of every G - e) is kept in the tests as the
oracle for this route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .connectivity import (
    edge_connectivity,
    local_edge_connectivity,
    local_vertex_connectivity,
    vertex_connectivity,
)
from .graphs import SimpleGraph

__all__ = [
    "MinimalityVerdict",
    "DominatingVertexCriterion",
    "is_minimally_edge_connected",
    "is_minimally_connected",
    "dominating_vertex_criterion",
]


@dataclass(frozen=True)
class MinimalityVerdict:
    """Outcome of one per-edge minimality check.

    ``applicable`` is False on disconnected or single-vertex graphs, where the
    predicate is not meaningful; such graphs never "hold".  Violating edges
    are reported completely and in canonical edge order, so two runs are
    diffable.  ``per_edge_values`` maps each edge uv to the connectivity of
    the graph with that edge deleted: the smaller of base_value and the local
    u-v connectivity of the original graph minus 1.  Every value is
    base_value or base_value - 1.
    """

    mode: str  # "edge" or "vertex"
    applicable: bool
    base_value: int
    holds: bool
    violating_edges: tuple[tuple[int, int], ...]
    per_edge_values: dict[tuple[int, int], int]


def _sweep(
    graph: SimpleGraph,
    mode: str,
    connectivity: Callable[[SimpleGraph], int],
    local_connectivity: Callable[[SimpleGraph], Callable[[int, int], int]],
) -> MinimalityVerdict:
    if graph.n < 2 or not graph.is_connected():
        return MinimalityVerdict(mode, False, 0, False, (), {})
    base = connectivity(graph)
    degrees = graph.degrees()
    local = local_connectivity(graph)
    per_edge: dict[tuple[int, int], int] = {}
    violating = []
    for u, v in graph.edge_list:
        if min(degrees[u], degrees[v]) == base:
            value = base - 1  # the local value is at most base - 1 already
        else:
            value = local(u, v) - 1
            if value < base - 1:
                raise RuntimeError(
                    f"local {mode} connectivity of {(u, v)} is {value} with base "
                    f"{base}; this is an internal bug"
                )
            value = min(base, value)
        per_edge[(u, v)] = value
        if value != base - 1:
            violating.append((u, v))
    return MinimalityVerdict(
        mode=mode,
        applicable=True,
        base_value=base,
        holds=not violating,
        violating_edges=tuple(violating),
        per_edge_values=per_edge,
    )


def is_minimally_edge_connected(graph: SimpleGraph) -> MinimalityVerdict:
    """Does deleting any single edge lower the edge connectivity by exactly 1?"""
    return _sweep(graph, "edge", edge_connectivity, local_edge_connectivity)


def is_minimally_connected(graph: SimpleGraph) -> MinimalityVerdict:
    """Does deleting any single edge lower the vertex connectivity by exactly 1?"""
    return _sweep(graph, "vertex", vertex_connectivity, local_vertex_connectivity)


@dataclass(frozen=True)
class DominatingVertexCriterion:
    """Shortcut test for minimal edge connectivity of dominated graphs.

    Applies only to non-complete graphs with at least one dominating vertex;
    there the graph is minimally edge connected iff the dominating vertex x
    is unique and the graph minus x is regular.  ``rest_regular`` refers to
    the smallest-index dominating vertex.
    """

    applies: bool
    reason: Optional[str] = None
    answer: Optional[bool] = None
    unique_dominating: Optional[bool] = None
    rest_regular: Optional[bool] = None
    dominating_vertices: tuple[int, ...] = ()


def dominating_vertex_criterion(graph: SimpleGraph) -> DominatingVertexCriterion:
    """Evaluate the dominating-vertex shortcut, or report it inapplicable."""
    deg = graph.degrees()
    dominating = tuple(int(v) for v in np.flatnonzero(deg == graph.n - 1))
    if len(dominating) == graph.n:
        return DominatingVertexCriterion(applies=False, reason="graph is complete")
    if not dominating:
        return DominatingVertexCriterion(applies=False, reason="no dominating vertex")
    unique = len(dominating) == 1
    x = dominating[0]
    # degrees in G - x: drop x itself, and the edge to x from every other vertex
    rest = np.delete(deg - graph.adjacency[x], x)
    rest_regular = bool(rest.min() == rest.max())
    return DominatingVertexCriterion(
        applies=True,
        answer=unique and rest_regular,
        unique_dominating=unique,
        rest_regular=rest_regular,
        dominating_vertices=dominating,
    )
