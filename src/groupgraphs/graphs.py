"""Simple undirected graphs on integer vertices plus their elementary shape
invariants (degree, dominating vertices, diameter, star/complete detection).

Vertex i of a group-derived graph is element index i of the group, so the
identity element is always vertex 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "SimpleGraph",
    "GraphShape",
    "EdgeNotPresentError",
    "shape_profile",
    "complete_graph",
    "star_graph",
    "cycle_graph",
    "path_graph",
    "to_dot",
    "to_edge_csv",
]


class EdgeNotPresentError(ValueError):
    """Attempt to delete an edge the graph does not contain."""


class SimpleGraph:
    """Loop-free undirected graph stored as a boolean adjacency matrix.

    Immutable: edge deletion returns a fresh graph.  ``kind_tag`` records
    which builder produced the graph, when any did.
    """

    def __init__(self, adjacency: np.ndarray, kind_tag: Optional[str] = None):
        adj = np.array(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] == 0:
            raise ValueError("graph needs at least one vertex")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if adj.trace() != 0:
            raise ValueError("no loops allowed")
        adj.setflags(write=False)
        self.adjacency = adj
        self.n = adj.shape[0]
        self.kind_tag = kind_tag

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], kind_tag: Optional[str] = None
    ) -> "SimpleGraph":
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) not allowed")
            adj[u, v] = adj[v, u] = True
        return cls(adj, kind_tag=kind_tag)

    @cached_property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """All edges as (i, j) with i < j, lexicographically sorted."""
        rows, cols = np.nonzero(np.triu(self.adjacency))
        return tuple((int(u), int(v)) for u, v in zip(rows, cols))

    @property
    def edge_count(self) -> int:
        return len(self.edge_list)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u, v])

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def delete_edge(self, u: int, v: int) -> "SimpleGraph":
        """New graph with edge {u, v} removed; the original is untouched."""
        if u == v or not self.adjacency[u, v]:
            raise EdgeNotPresentError(f"edge ({u}, {v}) not present")
        adj = self.adjacency.copy()
        adj[u, v] = adj[v, u] = False
        return SimpleGraph(adj, kind_tag=self.kind_tag)

    def is_connected(self) -> bool:
        """True iff a single search from vertex 0 reaches every vertex."""
        if self.n <= 1:
            return True
        reached = np.zeros(self.n, dtype=bool)
        reached[0] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = self.adjacency[frontier].any(axis=0) & ~reached
            reached |= frontier
        return bool(reached.all())

    def bfs_distances(self, source: int) -> np.ndarray:
        """Hop distances from source; -1 marks unreachable vertices."""
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.zeros(self.n, dtype=bool)
        frontier[source] = True
        d = 0
        while frontier.any():
            d += 1
            frontier = self.adjacency[frontier].any(axis=0) & (dist < 0)
            dist[frontier] = d
        return dist

    def __repr__(self) -> str:
        tag = f", kind={self.kind_tag!r}" if self.kind_tag else ""
        return f"SimpleGraph(n={self.n}, edges={self.edge_count}{tag})"


@dataclass(frozen=True)
class GraphShape:
    """Degree-level invariants of one graph; diameter is None when infinite."""

    n: int
    min_degree: int
    max_degree: int
    degree_sequence: tuple[int, ...]
    is_regular: bool
    is_complete: bool
    is_star: bool
    star_center: Optional[int]
    dominating_vertices: tuple[int, ...]
    is_connected: bool
    diameter: Optional[int]


def shape_profile(graph: SimpleGraph) -> GraphShape:
    """Compute every GraphShape field; n = 1 counts as connected, diameter 0."""
    n = graph.n
    deg = graph.degrees()
    connected = graph.is_connected()
    if connected:
        diameter = max(int(graph.bfs_distances(s).max()) for s in range(n))
    else:
        diameter = None
    dominating = tuple(int(v) for v in np.flatnonzero(deg == n - 1))
    is_complete = len(dominating) == n
    star_center = None
    if n >= 2 and graph.edge_count == n - 1 and len(dominating) >= 1:
        star_center = dominating[0]
    return GraphShape(
        n=n,
        min_degree=int(deg.min()),
        max_degree=int(deg.max()),
        degree_sequence=tuple(sorted((int(d) for d in deg), reverse=True)),
        is_regular=bool(deg.min() == deg.max()),
        is_complete=is_complete,
        is_star=star_center is not None,
        star_center=star_center,
        dominating_vertices=dominating,
        is_connected=connected,
        diameter=diameter,
    )


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(~np.eye(n, dtype=bool))


def star_graph(n: int, center: int = 0) -> SimpleGraph:
    """Star on n vertices: center adjacent to all others, no other edges."""
    adj = np.zeros((n, n), dtype=bool)
    adj[center, :] = True
    adj[:, center] = True
    adj[center, center] = False
    return SimpleGraph(adj)


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def to_dot(graph: SimpleGraph, labels: Optional[Sequence[str]] = None) -> str:
    """Graphviz DOT for an undirected graph; labels default to vertex indices."""
    name = graph.kind_tag or "graph"
    lines = [f'graph "{name}" {{']
    for i in range(graph.n):
        label = labels[i] if labels is not None else str(i)
        lines.append(f'  {i} [label="{label}"];')
    for u, v in graph.edge_list:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_edge_csv(graph: SimpleGraph) -> str:
    """Edge list as CSV with a u,v header, one row per edge, i < j order."""
    lines = ["u,v"]
    lines.extend(f"{u},{v}" for u, v in graph.edge_list)
    return "\n".join(lines) + "\n"
