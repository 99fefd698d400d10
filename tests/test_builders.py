"""The four group-derived graphs against hand-derived and brute-forced facts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupgraphs import (
    ALL_KINDS,
    FamilySpec,
    build_family,
    build_graph,
    commuting_graph,
    coprime_graph,
    non_inverse_graph,
    order_sum_graph,
    shape_profile,
)
from conftest import raw_commutes, raw_inverse


class TestCommuting:
    def test_abelian_gives_complete(self, z6):
        assert shape_profile(commuting_graph(z6)).is_complete

    def test_d3_star_plus_rotation_edge(self, d3):
        g = commuting_graph(d3)
        assert shape_profile(g).degree_sequence == (5, 2, 2, 1, 1, 1)
        assert g.adjacency[1, 2]  # the two non-trivial rotations commute

    def test_q8_min_degree_at_least_3(self, q8):
        g = commuting_graph(q8)
        assert shape_profile(g).min_degree >= 3

    def test_matches_raw_commuting_relation(self, d3):
        g = commuting_graph(d3)
        raw = d3.table.tolist()
        for i in range(6):
            for j in range(6):
                expected = i != j and raw_commutes(raw, i, j)
                assert g.adjacency[i, j] == expected


class TestCoprime:
    def test_p_group_gives_star(self, z9):
        s = shape_profile(coprime_graph(z9))
        assert s.is_star

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.cyclic(8),
            FamilySpec.dicyclic(2),
            FamilySpec.elementary_abelian(2, 3),
            FamilySpec.elementary_abelian(3, 2),
            FamilySpec.dihedral(4),
        ],
    )
    def test_every_p_group_gives_star(self, spec):
        group = build_family(spec)
        assert group.profile().is_p_group
        s = shape_profile(coprime_graph(group))
        assert s.is_star

    def test_z6_degrees(self, z6):
        g = coprime_graph(z6)
        # (e, a^3, a^2, a^4, a, a^5) have degrees (5, 3, 2, 2, 1, 1)
        assert [int(d) for d in g.degrees()] == [5, 1, 2, 3, 2, 1]
        assert shape_profile(g).degree_sequence == (5, 3, 2, 2, 1, 1)

    def test_order_le_2_complete(self):
        z2 = build_family(FamilySpec.cyclic(2))
        assert shape_profile(coprime_graph(z2)).is_complete

    def test_gcd_relation(self, z6):
        g = coprime_graph(z6)
        import math

        for i in range(6):
            for j in range(6):
                expected = i != j and math.gcd(
                    z6.element_order(i), z6.element_order(j)
                ) == 1
                assert g.adjacency[i, j] == expected


class TestOrderSum:
    def test_prime_cyclic_complete(self, z5):
        assert shape_profile(order_sum_graph(z5)).is_complete

    def test_klein_null(self, klein):
        g = order_sum_graph(klein)
        assert g.edge_count == 0

    def test_z4_is_k4_minus_one_edge(self, z4):
        g = order_sum_graph(z4)
        assert shape_profile(g).degree_sequence == (3, 3, 2, 2)
        assert not g.adjacency[0, 2]  # o(e) + o(a^2) = 3, not > 4
        assert g.edge_count == 5

    def test_strict_inequality(self):
        # in Klein four, o(x) + o(y) = 4 = |G| for involution pairs: no edge
        klein = build_family(FamilySpec.elementary_abelian(2, 2))
        g = order_sum_graph(klein)
        assert not g.adjacency[1, 2]


class TestNonInverse:
    def test_exponent_two_complete(self, klein):
        assert shape_profile(non_inverse_graph(klein)).is_complete

    def test_z5_is_k5_minus_matching(self, z5):
        g = non_inverse_graph(z5)
        assert shape_profile(g).degree_sequence == (4, 3, 3, 3, 3)
        assert not g.adjacency[1, 4] and not g.adjacency[2, 3]
        assert g.edge_count == 8

    def test_z4_dominating_vertices(self, z4):
        g = non_inverse_graph(z4)
        assert not g.adjacency[1, 3]
        assert shape_profile(g).dominating_vertices == (0, 2)

    def test_dominating_iff_self_inverse(self, q8):
        g = non_inverse_graph(q8)
        s = shape_profile(g)
        self_inverse = tuple(i for i in range(8) if q8.inverse(i) == i)
        assert s.dominating_vertices == self_inverse

    def test_non_edges_count(self, z9):
        g = non_inverse_graph(z9)
        non_self_inverse = sum(1 for i in range(9) if z9.inverse(i) != i)
        missing = 9 * 8 // 2 - g.edge_count
        assert missing == non_self_inverse // 2

    def test_matches_raw_inverse_relation(self, z6):
        g = non_inverse_graph(z6)
        raw = z6.table.tolist()
        for i in range(6):
            for j in range(6):
                expected = i != j and j != raw_inverse(raw, i)
                assert g.adjacency[i, j] == expected


SPECS = st.one_of(
    st.integers(2, 10).map(FamilySpec.cyclic),
    st.integers(1, 5).map(FamilySpec.dihedral),
    st.integers(1, 3).map(FamilySpec.dicyclic),
    st.sampled_from(
        [FamilySpec.symmetric(3), FamilySpec.elementary_abelian(2, 3),
         FamilySpec.elementary_abelian(3, 2)]
    ),
)


@settings(max_examples=40, deadline=None)
@given(SPECS, st.sampled_from(ALL_KINDS))
def test_graphs_are_simple_and_tagged(spec, kind):
    group = build_family(spec)
    g = build_graph(group, kind)
    assert g.kind_tag == kind
    assert g.n == group.order
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert g.adjacency.trace() == 0


@settings(max_examples=40, deadline=None)
@given(SPECS, st.sampled_from(["commuting", "coprime", "noninverse"]))
def test_identity_dominates_except_order_sum(spec, kind):
    group = build_family(spec)
    g = build_graph(group, kind)
    assert int(g.degrees()[0]) == group.order - 1


@settings(max_examples=40, deadline=None)
@given(SPECS)
def test_commuting_complete_iff_abelian(spec):
    group = build_family(spec)
    assert shape_profile(commuting_graph(group)).is_complete == group.is_abelian


@settings(max_examples=40, deadline=None)
@given(SPECS)
def test_order_sum_null_for_non_cyclic(spec):
    group = build_family(spec)
    if not group.profile().is_cyclic:
        assert order_sum_graph(group).edge_count == 0


def test_unknown_kind_rejected(z4):
    with pytest.raises(ValueError, match="unknown graph kind"):
        build_graph(z4, "power")
