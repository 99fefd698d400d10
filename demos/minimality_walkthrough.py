"""Why one edge can refuse to lower the connectivity.

A graph is minimally (edge) connected when deleting any single edge drops the
vertex (edge) connectivity by exactly 1.  This walkthrough dissects two
instructive cases:

  * the order-sum graph of Z_4: K_4 minus one edge, where deleting {a, a^3}
    leaves a 4-cycle whose vertex connectivity is still 2;
  * the commuting graph of the dihedral group of order 6, where the edge
    between the two rotations never matters for edge connectivity.

It finishes with the dominating-vertex shortcut and a check that the shortcut
and the per-edge sweep agree.

Run:  python demos/minimality_walkthrough.py
"""

from groupgraphs import (
    build_family,
    build_graph,
    dominating_vertex_criterion,
    edge_connectivity,
    is_minimally_connected,
    is_minimally_edge_connected,
    parse_group_spec,
    vertex_connectivity,
)


def sweep_story(spec_text, kind, mode):
    group = build_family(parse_group_spec(spec_text))
    graph = build_graph(group, kind)
    print(f"\n=== {mode} sweep on {kind} graph of {spec_text} ===")
    print(f"n={graph.n}, edges={list(map(list, graph.edge_list))}")
    if mode == "vertex":
        verdict = is_minimally_connected(graph)
        base = vertex_connectivity(graph)
    else:
        verdict = is_minimally_edge_connected(graph)
        base = edge_connectivity(graph)
    print(f"base connectivity: {base}")
    for edge, value in verdict.per_edge_values.items():
        note = "drops" if value == base - 1 else "STAYS, violates minimality"
        print(f"  delete {list(edge)} -> {value}  ({note})")
    print(f"minimally {'connected' if mode == 'vertex' else 'edge connected'}: "
          f"{verdict.holds}")
    return graph


def main():
    # K_4 minus {e, a^2}: the deletion of {a, a^3} leaves C_4, kappa stays 2
    sweep_story("cyclic:4", "ordersum", "vertex")

    # star at the identity plus the rotation edge {r, r^2}: kappa' = 1 and
    # deleting a non-bridge edge cannot lower it
    graph = sweep_story("dihedral:3", "commuting", "edge")

    print("\n=== dominating-vertex shortcut ===")
    for spec_text, kind in (("cyclic:9", "coprime"), ("cyclic:6", "coprime"),
                            ("cyclic:6", "ordersum")):
        g = build_graph(build_family(parse_group_spec(spec_text)), kind)
        c = dominating_vertex_criterion(g)
        sweep = is_minimally_edge_connected(g)
        print(
            f"{kind} graph of {spec_text}: dominating={list(c.dominating_vertices)} "
            f"unique={c.unique_dominating} rest-regular={c.rest_regular} "
            f"-> criterion={c.answer}, sweep={sweep.holds}"
        )
        assert c.answer == sweep.holds


if __name__ == "__main__":
    main()
