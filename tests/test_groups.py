"""Cayley-table validation, element arithmetic, and group profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupgraphs import (
    FamilySpec,
    FiniteGroup,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    build_family,
)
from groupgraphs.groups import prime_factors
from conftest import raw_element_order, raw_inverse

# Latin square with two-sided inverses that fails associativity at (1, 1, 2):
# (x1 x1) x2 = x0 x2 = x2 but x1 (x1 x2) = x1 x3 = x4.  Found by exhaustive
# search over reduced order-5 squares.
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# Latin square with identity whose element 2 has right inverse 3 but left
# inverse 4.
NO_TWO_SIDED_INVERSE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


class TestValidation:
    def test_trivial_group(self):
        g = FiniteGroup([[0]])
        assert g.order == 1
        assert list(g.element_orders) == [1]
        assert g.inverse(0) == 0

    def test_mod3_addition(self):
        g = FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        assert list(g.element_orders) == [1, 3, 3]

    def test_out_of_range_entry(self):
        with pytest.raises(NotClosedError, match=r"table\[1\]\[1\] = 9"):
            FiniteGroup([[0, 1, 2], [1, 9, 0], [2, 0, 1]])
        # identity at index 2: closure is checked before the identity is
        # relocated, which would otherwise index with the negative entry
        with pytest.raises(NotClosedError, match=r"table\[1\]\[1\] = -1"):
            FiniteGroup([[1, 2, 0], [2, -1, 1], [0, 1, 2]])

    @pytest.mark.parametrize(
        "table",
        [
            [[0, 2**70], [2**70, 0]],
            [[0, 1], [1]],
            [["a"]],
            # each of these would truncate or cast to Z_2 under int64 conversion
            [[0, 1.7], [1.2, 0.9]],
            np.array([[True, False], [False, True]]),
            [["0", "1"], ["1", "0"]],
        ],
    )
    def test_not_an_integer_table(self, table):
        with pytest.raises(NotClosedError, match="not a rectangular integer table"):
            FiniteGroup(table)

    def test_non_square(self):
        with pytest.raises(NotClosedError, match="square"):
            FiniteGroup([[0, 1], [1, 0], [0, 1]])

    def test_no_identity(self):
        # subtraction mod 4: a Latin square with no two-sided identity
        n = 4
        table = [[(i - j) % n for j in range(n)] for i in range(n)]
        with pytest.raises(NoIdentityError):
            FiniteGroup(table)

    def test_no_two_sided_inverse(self):
        with pytest.raises(NoInverseError, match="element 2"):
            FiniteGroup(NO_TWO_SIDED_INVERSE)

    def test_non_associative_loop(self):
        # independent confirmation by triple enumeration first
        t = NONASSOCIATIVE_LOOP
        violations = [
            (i, j, k)
            for i in range(5)
            for j in range(5)
            for k in range(5)
            if t[t[i][j]][k] != t[i][t[j][k]]
        ]
        assert violations, "fixture must violate associativity"
        with pytest.raises(NotAssociativeError):
            FiniteGroup(t)

    def test_identity_relocation(self):
        # Z_3 with elements listed so the identity sits at index 2
        table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
        g = FiniteGroup(table)
        assert np.array_equal(g.table[0], [0, 1, 2])
        assert np.array_equal(g.table[:, 0], [0, 1, 2])
        assert sorted(g.element_orders) == [1, 3, 3]


class TestElementOps:
    def test_element_order_z6(self, z6):
        assert z6.element_order(3) == 2  # a^3
        assert z6.element_order(2) == 3  # a^2

    def test_element_order_reflection(self, d3):
        # reflections live at indices 3, 4, 5; check against raw powering
        for i in (3, 4, 5):
            assert d3.element_order(i) == 2
            assert raw_element_order(d3.table.tolist(), i) == 2

    def test_element_order_index_error(self, z6):
        with pytest.raises(IndexError):
            z6.element_order(6)

    def test_inverse_identity(self, z6):
        assert z6.inverse(0) == 0

    def test_inverse_z5(self, z5):
        assert z5.inverse(1) == 4

    def test_inverse_q8_order_two(self, q8):
        (i,) = [i for i in range(8) if q8.element_order(i) == 2]
        assert q8.inverse(i) == i

    def test_inverse_matches_raw(self, d3):
        raw = d3.table.tolist()
        for i in range(d3.order):
            assert d3.inverse(i) == raw_inverse(raw, i)


class TestProfile:
    def test_s3_eppo_not_p_group(self, s3):
        # every element order is a prime power, but the group order is not
        assert all(len(prime_factors(int(o))) == 1 for o in s3.element_orders[1:])
        assert not s3.profile().is_p_group

    def test_klein_exponent_two(self, klein):
        p = klein.profile()
        assert p.all_nonidentity_self_inverse
        assert p.exponent == 2
        assert sorted(klein.element_orders) == [1, 2, 2, 2]

    def test_z6_profile(self, z6):
        p = z6.profile()
        assert p.is_full_exponent
        assert p.is_even_order
        assert not p.is_p_group
        assert not p.no_nonidentity_self_inverse
        assert p.is_cyclic

    def test_q8_profile(self, q8):
        p = q8.profile()
        assert p.is_p_group
        assert p.is_full_exponent and p.exponent == 4
        assert not p.is_abelian

    def test_prime_order_chain(self, z5):
        p = z5.profile()
        assert p.is_prime_order and p.is_p_group


SMALL_SPECS = st.one_of(
    st.integers(2, 12).map(FamilySpec.cyclic),
    st.integers(1, 6).map(FamilySpec.dihedral),
    st.integers(1, 3).map(FamilySpec.dicyclic),
    st.sampled_from([FamilySpec.symmetric(3), FamilySpec.elementary_abelian(2, 3),
                     FamilySpec.elementary_abelian(3, 2)]),
    st.tuples(st.integers(2, 4), st.integers(2, 4)).map(
        lambda t: FamilySpec.product(FamilySpec.cyclic(t[0]), FamilySpec.cyclic(t[1]))
    ),
)


@settings(max_examples=40, deadline=None)
@given(SMALL_SPECS)
def test_lagrange_and_exponent(spec):
    g = build_family(spec)
    for i in range(g.order):
        assert g.order % g.element_order(i) == 0
        assert g.exponent % g.element_order(i) == 0


@settings(max_examples=40, deadline=None)
@given(SMALL_SPECS)
def test_profile_implication_chain(spec):
    g = build_family(spec)
    p = g.profile()
    orders = [int(o) for o in g.element_orders]
    if p.is_prime_order:
        assert p.is_p_group
    if p.is_p_group:
        # Lagrange: every element order divides |G| = p^k
        (prime,) = prime_factors(p.order)
        assert all(prime_factors(o) in ([], [prime]) for o in orders)
    assert p.all_nonidentity_self_inverse == (p.exponent <= 2)
    assert p.no_nonidentity_self_inverse == (orders.count(2) == 0)


@settings(max_examples=40, deadline=None)
@given(SMALL_SPECS)
def test_order_two_count_matches_profile(spec):
    g = build_family(spec)
    p = g.profile()
    involutions = sum(1 for i in range(g.order) if g.element_order(i) == 2)
    assert p.no_nonidentity_self_inverse == (involutions == 0)
    if p.is_even_order:
        # pairing argument: even order forces an odd number of involutions
        assert involutions % 2 == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6))
def test_product_orders_are_lcms(a, b):
    g = build_family(FamilySpec.product(FamilySpec.cyclic(a), FamilySpec.cyclic(b)))
    assert g.order == a * b
    ga = build_family(FamilySpec.cyclic(a))
    gb = build_family(FamilySpec.cyclic(b))
    import math

    for i in range(a):
        for j in range(b):
            idx = i * b + j
            expected = math.lcm(ga.element_order(i), gb.element_order(j))
            assert g.element_order(idx) == expected
