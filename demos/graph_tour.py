"""Tour of the four group-derived graphs on three contrasting groups.

Builds the cyclic group Z_6, the dihedral group of order 6, and the
quaternion group Q8, then shows how differently the commuting, co-prime,
order-sum, and non-inverse graphs come out for each.

Run:  python demos/graph_tour.py
"""

from groupgraphs import (
    ALL_KINDS,
    build_family,
    build_graph,
    parse_group_spec,
    shape_profile,
    to_dot,
)


def describe(spec_text):
    group = build_family(parse_group_spec(spec_text))
    profile = group.profile()
    print(f"\n=== {spec_text}  (order {group.order}) ===")
    print(f"element orders: {sorted(int(o) for o in group.element_orders)}")
    print(
        f"abelian={profile.is_abelian}  p-group={profile.is_p_group}  "
        f"exponent={profile.exponent}  full-exponent={profile.is_full_exponent}"
    )
    for kind in ALL_KINDS:
        graph = build_graph(group, kind)
        shape = shape_profile(graph)
        tags = []
        if shape.is_complete:
            tags.append("complete")
        if shape.is_star:
            tags.append("star")
        if graph.edge_count == 0:
            tags.append("null")
        diameter = "inf" if shape.diameter is None else shape.diameter
        print(
            f"  {kind:<10} edges={graph.edge_count:<4} "
            f"degrees={shape.degree_sequence} diameter={diameter} "
            f"{'(' + ', '.join(tags) + ')' if tags else ''}"
        )
    return group


def main():
    describe("cyclic:6")        # abelian: commuting graph complete
    d3 = describe("dihedral:3")  # the smallest non-abelian group
    describe("dicyclic:2")      # Q8: a non-abelian 2-group of full exponent

    # the commuting graph of the dihedral group, as Graphviz DOT
    graph = build_graph(d3, "commuting")
    labels = [f"{i} (o={d3.element_order(i)})" for i in range(d3.order)]
    print("\ncommuting graph of dihedral:3 in DOT form:")
    print(to_dot(graph, labels))


if __name__ == "__main__":
    main()
