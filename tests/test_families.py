"""Family builders, the group-spec grammar, and the table file format."""

import pytest

from groupgraphs import (
    FamilySpec,
    InvalidParameterError,
    NotAssociativeError,
    OrderCapExceededError,
    build_family,
    parse_group_spec,
)


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text,kind,params",
        [
            ("cyclic:6", "cyclic", (6,)),
            ("dihedral:5", "dihedral", (5,)),
            ("dicyclic:2", "dicyclic", (2,)),
            ("symmetric:4", "symmetric", (4,)),
            ("ea:2,3", "ea", (2, 3)),
        ],
    )
    def test_plain_families(self, text, kind, params):
        spec = parse_group_spec(text)
        assert spec.kind == kind
        assert spec.params == params
        assert spec.label() == text

    def test_product(self):
        spec = parse_group_spec("product:cyclic:3*cyclic:5")
        assert spec.kind == "product"
        assert [f.label() for f in spec.factors] == ["cyclic:3", "cyclic:5"]
        assert spec.label() == "product:cyclic:3*cyclic:5"

    def test_file(self):
        spec = parse_group_spec("file:/some/path.txt")
        assert spec.kind == "file"
        assert spec.path == "/some/path.txt"

    @pytest.mark.parametrize(
        "text",
        ["", "cyclic", "cyclic:", "cyclic:x", "weird:3", "ea:2", "ea:2,3,4",
         "product:cyclic:3", "product:file:/x*cyclic:2"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(InvalidParameterError):
            parse_group_spec(text)


class TestBuilders:
    def test_cyclic_5(self):
        g = build_family(FamilySpec.cyclic(5))
        assert g.order == 5
        assert sorted(g.element_orders) == [1, 5, 5, 5, 5]

    def test_dihedral_3(self):
        g = build_family(FamilySpec.dihedral(3))
        assert g.order == 6
        assert not g.is_abelian
        assert sorted(g.element_orders) == [1, 2, 2, 2, 3, 3]

    def test_dicyclic_2_is_quaternion(self):
        g = build_family(FamilySpec.dicyclic(2))
        assert g.order == 8
        assert g.exponent == 4
        assert sum(1 for o in g.element_orders if o == 2) == 1

    def test_symmetric_3_matches_dihedral_3(self):
        s3 = build_family(FamilySpec.symmetric(3))
        d3 = build_family(FamilySpec.dihedral(3))
        assert sorted(s3.element_orders) == sorted(d3.element_orders)
        assert not s3.is_abelian

    def test_elementary_abelian(self):
        g = build_family(FamilySpec.elementary_abelian(3, 2))
        assert g.order == 9
        assert g.is_abelian
        assert sorted(set(int(o) for o in g.element_orders)) == [1, 3]

    def test_product_order(self):
        spec = FamilySpec.product(FamilySpec.cyclic(4), FamilySpec.dihedral(3))
        g = build_family(spec)
        assert g.order == 4 * 6

    def test_dihedral_1_is_z2(self):
        g = build_family(FamilySpec.dihedral(1))
        assert g.order == 2
        assert sorted(g.element_orders) == [1, 2]

    def test_order_cap(self):
        with pytest.raises(OrderCapExceededError, match="720"):
            build_family(FamilySpec.symmetric(6))
        # the cap is configurable
        build_family(FamilySpec.symmetric(6), order_cap=720)

    def test_cap_prevents_table_construction(self):
        # S_9 would be 362880 elements; must fail before building anything
        with pytest.raises(OrderCapExceededError):
            build_family(FamilySpec.symmetric(9))

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.cyclic(0),
            FamilySpec.dihedral(-1),
            FamilySpec.elementary_abelian(4, 2),  # 4 not prime
            FamilySpec.elementary_abelian(2, 0),
            FamilySpec("weird", (3,)),  # unknown kind
            FamilySpec("cyclic", ()),  # wrong parameter count
            FamilySpec("ea", (2,)),  # wrong parameter count
            FamilySpec("file"),  # no path
        ],
    )
    def test_invalid_parameters(self, spec):
        with pytest.raises(InvalidParameterError):
            build_family(spec)


class TestTableFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "z3.txt"
        path.write_text(
            "# addition mod 3\n"
            "3\n"
            "0 1 2\n"
            "1 2 0   # second row\n"
            "2 0 1\n"
        )
        g = build_family(FamilySpec.from_file(path))
        assert g.order == 3
        assert sorted(g.element_orders) == [1, 3, 3]
        assert g.label == f"file:{path}"

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("3\n0 1 2\n1 2\n2 0 1\n")
        with pytest.raises(ValueError, match="expected 3 entries, found 2"):
            build_family(FamilySpec.from_file(path))

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3\n0 1 2\n1 2 0\n")
        with pytest.raises(ValueError, match="expected 3 table rows"):
            build_family(FamilySpec.from_file(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 3\n0 1 2\n1 2 0\n2 0 1\n")
        with pytest.raises(ValueError, match="single positive integer"):
            build_family(FamilySpec.from_file(path))

    def test_missing_file(self):
        with pytest.raises(ValueError, match="cannot read"):
            build_family(FamilySpec.from_file("/nonexistent/table.txt"))

    def test_file_respects_cap(self, tmp_path):
        path = tmp_path / "z5.txt"
        rows = [" ".join(str((i + j) % 5) for j in range(5)) for i in range(5)]
        path.write_text("5\n" + "\n".join(rows) + "\n")
        with pytest.raises(OrderCapExceededError):
            build_family(FamilySpec.from_file(path), order_cap=4)

    def test_cap_checked_on_header_before_validation(self, tmp_path):
        # closed, with identity and inverses, but not associative: without
        # the header check this fails the O(n^3) associativity check instead
        n = 201
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        table[1][2] = 4
        path = tmp_path / "big.txt"
        path.write_text(f"{n}\n" + "\n".join(" ".join(map(str, row)) for row in table) + "\n")
        with pytest.raises(OrderCapExceededError, match="order 201 exceeds cap 200"):
            build_family(FamilySpec.from_file(path))
        with pytest.raises(NotAssociativeError):
            build_family(FamilySpec.from_file(path), order_cap=n)
