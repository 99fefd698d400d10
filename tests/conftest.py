"""Shared fixtures and independent brute-force helpers.

The helpers here deliberately avoid the package's cached/vectorized paths:
they work straight off raw tables and edge sets so they can serve as a second
opinion in tests.
"""

from __future__ import annotations

import pytest

from groupgraphs import FamilySpec, SimpleGraph, build_family


# --- raw-table group oracles -------------------------------------------------

def raw_element_order(table, i):
    """Order of element i by explicit repeated multiplication."""
    x, k = i, 1
    while x != 0:
        x = table[x][i]
        k += 1
    return k


def raw_commutes(table, i, j):
    return table[i][j] == table[j][i]


def raw_inverse(table, i):
    n = len(table)
    return next(j for j in range(n) if table[i][j] == 0 and table[j][i] == 0)


# --- edge-set graph oracles --------------------------------------------------

def path_graph(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def without_edge(graph, u, v):
    """G - uv, built from a copy of the adjacency matrix."""
    adj = graph.adjacency.copy()
    assert adj[u, v], f"({u}, {v}) is not an edge"
    adj[u, v] = adj[v, u] = False
    return SimpleGraph(adj)


def edges_connected(n, edges):
    """Connectivity by plain DFS over an edge set."""
    if n <= 1:
        return True
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def cut_edges(n, edges, side):
    """Number of edges crossing the bipartition (side, rest)."""
    return sum(1 for u, v in edges if (u in side) != (v in side))


def brute_edge_connectivity(graph):
    """Independent bipartition enumeration (distinct from the package oracle's
    bitmask implementation)."""
    n, edges = graph.n, graph.edge_list
    if n == 1:
        return 0
    best = None
    for mask in range(2 ** (n - 1)):
        side = {0} | {v for v in range(1, n) if mask & (1 << (v - 1))}
        if len(side) == n:
            continue
        cut = cut_edges(n, edges, side)
        if best is None or cut < best:
            best = cut
    return best


def brute_vertex_connectivity(graph):
    """Independent subset enumeration over removal sets."""
    from itertools import combinations

    n, edges = graph.n, graph.edge_list
    for size in range(n):
        for subset in combinations(range(n), size):
            removed = set(subset)
            remaining = [v for v in range(n) if v not in removed]
            if len(remaining) <= 1:
                return size
            kept = [
                (u, v) for u, v in edges if u not in removed and v not in removed
            ]
            relabel = {v: i for i, v in enumerate(remaining)}
            if not edges_connected(
                len(remaining), [(relabel[u], relabel[v]) for u, v in kept]
            ):
                return size
    return n - 1


def brute_minimality(graph, connectivity_fn):
    """Deletion sweep driven by an arbitrary connectivity function.

    Returns ``(holds, violating, per_edge_values)``: the connectivity of the
    graph minus each edge, recomputed from scratch, in canonical edge order.
    """
    if graph.n < 2 or not graph.is_connected():
        return False, (), {}
    base = connectivity_fn(graph)
    values = {edge: connectivity_fn(without_edge(graph, *edge)) for edge in graph.edge_list}
    violating = tuple(edge for edge, value in values.items() if value != base - 1)
    return not violating, violating, values


# --- fixtures ----------------------------------------------------------------

@pytest.fixture(scope="session")
def z4():
    return build_family(FamilySpec.cyclic(4))


@pytest.fixture(scope="session")
def z5():
    return build_family(FamilySpec.cyclic(5))


@pytest.fixture(scope="session")
def z6():
    return build_family(FamilySpec.cyclic(6))


@pytest.fixture(scope="session")
def z9():
    return build_family(FamilySpec.cyclic(9))


@pytest.fixture(scope="session")
def d3():
    return build_family(FamilySpec.dihedral(3))


@pytest.fixture(scope="session")
def q8():
    return build_family(FamilySpec.dicyclic(2))


@pytest.fixture(scope="session")
def klein():
    return build_family(FamilySpec.elementary_abelian(2, 2))


@pytest.fixture(scope="session")
def s3():
    return build_family(FamilySpec.symmetric(3))
