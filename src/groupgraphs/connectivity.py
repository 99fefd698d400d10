"""Exact edge and vertex connectivity via unit-capacity max-flow, with
independent brute-force oracles for cross-checking.

Conventions, applied consistently by both routes:
  - a disconnected graph (n >= 2) and the one-vertex graph report 0;
  - the complete graph K_n reports vertex connectivity n - 1 (a cut-set may
    leave "just one vertex", and no non-adjacent pair exists).

The flow route fixes source 0 for edge connectivity and scans sinks (resp.
non-adjacent pairs) in lexicographic order, so results never depend on
scheduling.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .graphs import SimpleGraph

__all__ = [
    "TooLargeForOracleError",
    "edge_connectivity",
    "vertex_connectivity",
    "edge_connectivity_oracle",
    "vertex_connectivity_oracle",
    "EDGE_ORACLE_LIMIT",
    "VERTEX_ORACLE_LIMIT",
]

EDGE_ORACLE_LIMIT = 20
VERTEX_ORACLE_LIMIT = 12


class TooLargeForOracleError(ValueError):
    """Graph exceeds the brute-force oracle's vertex guard."""


def _unit_capacity_csr(graph: SimpleGraph) -> csr_matrix:
    return csr_matrix(graph.adjacency.astype(np.int32))


def edge_connectivity(graph: SimpleGraph) -> int:
    """Size of a minimum edge cut, via max-flow from vertex 0 to every sink.

    Each undirected edge carries capacity 1 in both directions; the minimum
    over sinks of max-flow(0 -> t) is the global minimum cut.  The scan stops
    early at 1, the least value a connected graph can have.
    """
    n = graph.n
    if n == 1 or not graph.is_connected():
        return 0
    cap = _unit_capacity_csr(graph)
    best: Optional[int] = None
    for t in range(1, n):
        flow = int(maximum_flow(cap, 0, t, method="dinic").flow_value)
        if best is None or flow < best:
            best = flow
            if best <= 1:
                break
    return int(best)


def _split_capacity_csr(graph: SimpleGraph) -> csr_matrix:
    """Vertex-split digraph: node v enters at v, exits at n + v.

    The internal arc v -> n+v has capacity 1; each edge {u, v} contributes
    arcs n+u -> v and n+v -> u with capacity n (effectively infinite), so any
    unit of flow consumes exactly the internal vertices it passes through.
    """
    n = graph.n
    cap = np.zeros((2 * n, 2 * n), dtype=np.int32)
    cap[np.arange(n), np.arange(n, 2 * n)] = 1
    out_u, in_v = np.nonzero(graph.adjacency)
    cap[n + out_u, in_v] = n
    return csr_matrix(cap)


def vertex_connectivity(graph: SimpleGraph) -> int:
    """Size of a minimum vertex cut-set; n - 1 for complete graphs.

    For every non-adjacent pair (u, v), scanned lexicographically, computes
    the vertex-split max-flow from u's exit to v's entry; the minimum over
    pairs is the vertex connectivity.  As in :func:`edge_connectivity`, the
    scan stops early at 1.
    """
    n = graph.n
    if n == 1 or not graph.is_connected():
        return 0
    nonedges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if not graph.adjacency[u, v]
    ]
    if not nonedges:
        return n - 1
    cap = _split_capacity_csr(graph)
    best: Optional[int] = None
    for u, v in nonedges:
        flow = int(maximum_flow(cap, n + u, v, method="dinic").flow_value)
        if best is None or flow < best:
            best = flow
            if best <= 1:
                break
    return int(best)


def edge_connectivity_oracle(graph: SimpleGraph, *, limit: int = EDGE_ORACLE_LIMIT) -> int:
    """Minimum crossing-edge count over all 2^(n-1) proper bipartitions.

    Independent of the flow route: works on neighbor bitmasks only.
    """
    n = graph.n
    if n > limit:
        raise TooLargeForOracleError(f"n = {n} exceeds edge-oracle guard {limit}")
    if n == 1:
        return 0
    masks = [0] * n
    for u, v in graph.edge_list:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    full = (1 << n) - 1
    best = None
    # vertex 0 always on the S side: each proper bipartition counted once
    for half in range(2 ** (n - 1)):
        side = (half << 1) | 1
        other = full ^ side
        if other == 0:
            continue
        cut = 0
        s = side
        while s:
            i = (s & -s).bit_length() - 1
            cut += (masks[i] & other).bit_count()
            s &= s - 1
            if best is not None and cut >= best:
                break
        if best is None or cut < best:
            best = cut
            if best == 0:
                break
    return best


def _connected_after_removal(graph: SimpleGraph, removed: frozenset[int]) -> bool:
    n = graph.n
    remaining = [v for v in range(n) if v not in removed]
    if len(remaining) <= 1:
        return True
    adj = graph.adjacency
    reached = {remaining[0]}
    frontier = [remaining[0]]
    keep_set = set(remaining)
    while frontier:
        nxt = []
        for v in frontier:
            for w in np.flatnonzero(adj[v]):
                w = int(w)
                if w in keep_set and w not in reached:
                    reached.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(reached) == len(remaining)


def vertex_connectivity_oracle(
    graph: SimpleGraph, *, limit: int = VERTEX_ORACLE_LIMIT
) -> int:
    """Smallest |S| whose removal disconnects the graph or leaves one vertex.

    Enumerates vertex subsets by increasing size; entirely independent of the
    max-flow route.
    """
    n = graph.n
    if n > limit:
        raise TooLargeForOracleError(f"n = {n} exceeds vertex-oracle guard {limit}")
    for size in range(n):
        for subset in combinations(range(n), size):
            removed = frozenset(subset)
            if n - size == 1:
                return size
            if not _connected_after_removal(graph, removed):
                return size
    return n - 1
