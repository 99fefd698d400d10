"""Exact edge and vertex connectivity via unit-capacity max-flow, with
independent brute-force oracles for cross-checking.

The flow route rests on one local value per mode: the largest number of
edge-disjoint (resp. internally vertex-disjoint) u-v paths, an edge uv
counting as one.  kappa' is its least value from vertex 0 to every sink,
kappa its least value over non-adjacent pairs, both scanned in lexicographic
order so results never depend on scheduling; the minimality sweeps read it
edge by edge.

Conventions, applied consistently by both routes:
  - a disconnected graph (n >= 2) and the one-vertex graph report 0;
  - the complete graph K_n reports vertex connectivity n - 1 (a cut-set may
    leave "just one vertex", and no non-adjacent pair exists).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .graphs import SimpleGraph

__all__ = [
    "TooLargeForOracleError",
    "local_edge_connectivity",
    "local_vertex_connectivity",
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


def _local_flow(capacity: np.ndarray, exit_offset: int) -> Callable[[int, int], int]:
    """(u, v) -> max-flow from node exit_offset + u to node v of the network."""
    network = csr_matrix(capacity)

    def local(u: int, v: int) -> int:
        return int(maximum_flow(network, exit_offset + u, v, method="dinic").flow_value)

    return local


def local_edge_connectivity(graph: SimpleGraph) -> Callable[[int, int], int]:
    """(u, v) -> the largest number of edge-disjoint u-v paths, u != v.

    Each undirected edge carries capacity 1 in both directions, so the u -> v
    max-flow counts edge-disjoint paths; an edge uv is one of them.
    """
    return _local_flow(graph.adjacency.astype(np.int32), 0)


def local_vertex_connectivity(graph: SimpleGraph) -> Callable[[int, int], int]:
    """(u, v) -> the largest number of internally vertex-disjoint u-v paths,
    u != v, with an edge uv counting as one path.

    Vertex-split network, all capacities 1: node v enters at v and exits at
    n + v through an internal arc, and each edge {a, b} gives arcs n+a -> b
    and n+b -> a.  The flow runs from u's exit to v's entry.  A unit crossing
    n+a -> b also crosses a's internal arc (a != u) or b's (b != v), so a cut
    through an edge arc moves onto an internal arc at the same cost; only
    n+u -> v, the edge uv itself, is cut on its own.
    """
    n = graph.n
    capacity = np.zeros((2 * n, 2 * n), dtype=np.int32)
    capacity[np.arange(n), np.arange(n, 2 * n)] = 1
    capacity[n:, :n] = graph.adjacency
    return _local_flow(capacity, n)


def _least(values: Iterable[int]) -> int:
    """Smallest of values; stops reading at 1, the least value a connected
    graph can have."""
    best = None
    for value in values:
        if best is None or value < best:
            best = value
            if best <= 1:
                break
    return best


def edge_connectivity(graph: SimpleGraph) -> int:
    """Size of a minimum edge cut: the least local edge connectivity from
    vertex 0 to every other vertex, since vertex 0 lies on one side of every
    cut."""
    n = graph.n
    if n == 1 or not graph.is_connected():
        return 0
    local = local_edge_connectivity(graph)
    return _least(local(0, t) for t in range(1, n))


def vertex_connectivity(graph: SimpleGraph) -> int:
    """Size of a minimum vertex cut-set; n - 1 for complete graphs.

    The least local vertex connectivity over non-adjacent pairs, scanned
    lexicographically.
    """
    n = graph.n
    if n == 1 or not graph.is_connected():
        return 0
    if graph.edge_count == n * (n - 1) // 2:
        return n - 1
    local = local_vertex_connectivity(graph)
    pairs = combinations(range(n), 2)
    return _least(local(u, v) for u, v in pairs if not graph.adjacency[u, v])


def _neighbour_masks(graph: SimpleGraph) -> list[int]:
    """Bit w of entry v is set iff vw is an edge."""
    masks = [0] * graph.n
    for u, v in graph.edge_list:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def edge_connectivity_oracle(graph: SimpleGraph) -> int:
    """Minimum crossing-edge count over all 2^(n-1) proper bipartitions.

    Vertex 0 stays on side S, so each bipartition is counted once.  The cuts
    are built by doubling: S = {0} cuts deg(0) edges, and for each vertex
    i = 1 .. n-1 every side built so far is copied with i added.  The copy
    cuts deg(i) - 2 |N(i) & S| edges more than the original, as i's edges
    into S stop crossing and its other edges start to.  The last side is
    S = V, which is no bipartition (it cuts nothing), so it is left out of
    the minimum.  Independent of the flow route: works on neighbour bitmasks
    only.
    """
    n = graph.n
    if n > EDGE_ORACLE_LIMIT:
        raise TooLargeForOracleError(f"n = {n} exceeds edge-oracle guard {EDGE_ORACLE_LIMIT}")
    if n == 1:
        return 0
    masks = _neighbour_masks(graph)
    sides = np.arange(1, 1 << n, 2, dtype=np.uint32)  # every S that holds 0
    cuts = np.empty(len(sides), dtype=np.int16)
    cuts[0] = masks[0].bit_count()
    for i in range(1, n):
        built = slice(0, 1 << (i - 1))
        into_s = np.bitwise_count(sides[built] & masks[i])
        # add to the int16 cuts first: deg(i) - 2 * into_s alone would wrap in uint8
        cuts[1 << (i - 1) : 1 << i] = cuts[built] + masks[i].bit_count() - 2 * into_s
    return int(cuts[:-1].min())


def vertex_connectivity_oracle(graph: SimpleGraph) -> int:
    """Smallest |S| whose removal disconnects the graph or leaves one vertex.

    Enumerates vertex subsets by increasing size and grows the reached set
    over neighbour bitmasks; entirely independent of the max-flow route.
    """
    n = graph.n
    if n > VERTEX_ORACLE_LIMIT:
        raise TooLargeForOracleError(
            f"n = {n} exceeds vertex-oracle guard {VERTEX_ORACLE_LIMIT}"
        )
    masks = _neighbour_masks(graph)
    full = (1 << n) - 1
    # removing n - 1 vertices always leaves one, so only smaller sets can cut
    for size in range(n - 1):
        for subset in combinations(range(n), size):
            kept = full ^ sum(1 << v for v in subset)
            reached = frontier = kept & -kept
            while frontier:
                grown = 0
                while frontier:
                    low = frontier & -frontier
                    grown |= masks[low.bit_length() - 1]
                    frontier ^= low
                frontier = grown & kept & ~reached
                reached |= frontier
            if reached != kept:
                return size
    return n - 1
