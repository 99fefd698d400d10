"""Claim registry semantics, corpus runs, reports, and sanity invariants."""

import json

import jsonschema
import pytest

from groupgraphs import (
    ALL_KINDS,
    CLAIM_REGISTRY,
    ClaimId,
    FamilySpec,
    REPORT_SCHEMA,
    build_family,
    coprime_graph,
    default_corpus,
    evaluate_claim,
    non_inverse_graph,
    order_sum_graph,
    run_corpus,
    sanity_invariants,
)
from conftest import brute_minimality, brute_vertex_connectivity


class TestRegistry:
    def test_every_claim_defined_once(self):
        assert set(CLAIM_REGISTRY) == set(ClaimId)
        for claim, definition in CLAIM_REGISTRY.items():
            assert definition.claim == claim
            assert definition.form in ("iff", "if", "holds")
            assert definition.kinds
            assert all(k in ALL_KINDS for k in definition.kinds)

    def test_forms_with_rhs(self):
        for definition in CLAIM_REGISTRY.values():
            if definition.form == "holds":
                assert definition.rhs is None
            else:
                assert definition.rhs is not None


class TestEvaluateClaim:
    def test_commuting_edge_on_d3(self, d3):
        (v,) = evaluate_claim(ClaimId.T_C_EDGE_IFF_ABELIAN, d3)
        assert (v.lhs, v.rhs, v.consistent) == (False, False, True)
        assert v.kind == "commuting"
        assert v.details["edge_sweep_holds"] is False

    def test_order_sum_edge_on_z5(self, z5):
        (v,) = evaluate_claim(ClaimId.T_OS_EDGE_IFF_PRIME, z5)
        assert (v.lhs, v.rhs, v.consistent) == (True, True, True)

    def test_order_sum_edge_skipped_on_non_cyclic(self, d3):
        (v,) = evaluate_claim(ClaimId.T_OS_EDGE_IFF_PRIME, d3)
        assert v.skipped == "claim scoped to cyclic groups"
        assert v.lhs is None and v.rhs is None and v.consistent is None

    def test_full_exponent_scope(self, d3, z6):
        # D_3 has exponent 6 but no element of order 6
        (v,) = evaluate_claim(ClaimId.P_CP_FULL_EXP_IFF_P_GROUP, d3)
        assert v.skipped == "claim scoped to full-exponent groups"
        (v,) = evaluate_claim(ClaimId.P_CP_FULL_EXP_IFF_P_GROUP, z6)
        assert v.skipped is None
        assert (v.lhs, v.rhs, v.consistent) == (False, False, True)

    def test_coprime_even_implication(self, z6, q8):
        (v,) = evaluate_claim(ClaimId.T_CP_EVEN_NOT_MINIMAL, z6)
        assert (v.lhs, v.rhs, v.consistent) == (True, True, True)
        # Q8 is an even-order p-group: hypothesis false, vacuously consistent
        (v,) = evaluate_claim(ClaimId.T_CP_EVEN_NOT_MINIMAL, q8)
        assert v.rhs is False and v.consistent is True

    def test_pure_graph_claims_cover_four_kinds(self, z4):
        verdicts = evaluate_claim(ClaimId.WHITNEY, z4)
        assert tuple(v.kind for v in verdicts) == ALL_KINDS
        assert all(v.consistent for v in verdicts)

    def test_os_vertex_discrepancy_on_z4_not_suppressed(self, z4):
        (v,) = evaluate_claim(ClaimId.T_OS_VERTEX_IFF_PRIME_POWER, z4)
        assert v.rhs is True  # 4 = 2^2
        # lhs comes from the sweep; confirm it independently with the
        # brute-force vertex connectivity
        holds, _, _ = brute_minimality(order_sum_graph(z4), brute_vertex_connectivity)
        assert v.lhs == holds == False
        assert v.consistent is False

    def test_tree_claim_inconsistent_on_complete_graph(self, z4):
        verdicts = {v.kind: v for v in evaluate_claim(ClaimId.X_TREE_CLAIM, z4)}
        commuting = verdicts["commuting"]  # K_4: minimally connected, not a tree
        assert commuting.lhs is True and commuting.rhs is False
        assert commuting.consistent is False

    def test_dominating_criterion_claim(self, z9, z4):
        verdicts = {v.kind: v for v in evaluate_claim(ClaimId.P_DOMINATING_CRITERION, z9)}
        assert verdicts["coprime"].consistent is True
        assert verdicts["commuting"].skipped is not None  # complete graph
        verdicts = {v.kind: v for v in evaluate_claim(ClaimId.P_DOMINATING_CRITERION, z4)}
        assert verdicts["ordersum"].consistent is True

    def test_ni_kappa_equality(self, q8):
        (v,) = evaluate_claim(ClaimId.L_NI_KAPPA_EQ, q8)
        assert v.lhs is True and v.consistent is True


class TestRunCorpus:
    def test_cyclic_commuting_lemma(self):
        corpus = [FamilySpec.cyclic(n) for n in range(2, 9)]
        report = run_corpus(corpus, [ClaimId.L32_COMMUTING_COMPLETE_IFF_ABELIAN])
        assert len(report.verdicts) == 7
        assert all(v.consistent for v in report.verdicts)

    def test_non_inverse_completeness_lemma(self):
        corpus = [FamilySpec.elementary_abelian(2, 2), FamilySpec.cyclic(4)]
        report = run_corpus(corpus, [ClaimId.L35_NI_COMPLETE_IFF_SELF_INVERSE])
        by_group = {v.group_label: v for v in report.verdicts}
        assert by_group["ea:2,2"].lhs is True
        assert by_group["cyclic:4"].lhs is False
        assert all(v.consistent for v in report.verdicts)

    def test_empty_claims_still_runs_invariants(self):
        report = run_corpus([FamilySpec.cyclic(3)], [])
        assert report.verdicts == ()
        assert len(report.invariant_rows) == 4 * 4  # four kinds, four invariants
        payload = json.loads(report.to_json())
        assert payload["claims"] == []
        assert payload["invariants"]["WHITNEY"]["checked"] == 4

    def test_builder_errors_name_the_spec(self):
        with pytest.raises(ValueError, match="cyclic:0"):
            run_corpus([FamilySpec.cyclic(0)], [])

    def test_order_cap_propagates(self):
        with pytest.raises(ValueError, match="exceeds cap"):
            run_corpus([FamilySpec.symmetric(5)], [], order_cap=100)

    def test_report_schema_and_csv_shape(self):
        corpus = [FamilySpec.cyclic(4), FamilySpec.dihedral(3)]
        report = run_corpus(corpus)
        payload = json.loads(report.to_json())
        jsonschema.validate(payload, REPORT_SCHEMA)
        rows = report.to_csv().splitlines()
        assert rows[0] == "claim,group,kind,lhs,rhs,consistent,skipped"
        assert len(rows) - 1 == len(report.verdicts)
        evaluated = sum(c["evaluated"] for c in payload["claims"])
        skipped = sum(c["skipped"] for c in payload["claims"])
        assert len(report.verdicts) == evaluated + skipped

    def test_deterministic_output(self):
        corpus = [FamilySpec.cyclic(5), FamilySpec.dicyclic(2)]
        r1 = run_corpus(corpus)
        r2 = run_corpus(corpus)
        assert r1.to_json() == r2.to_json()
        assert r1.to_csv() == r2.to_csv()

    def test_ordering_is_claim_major_label_minor(self):
        corpus = [FamilySpec.cyclic(3), FamilySpec.cyclic(2)]
        report = run_corpus(corpus, [ClaimId.WHITNEY, ClaimId.L_NI_KAPPA_EQ])
        keys = [(v.claim.value, v.group_label) for v in report.verdicts]
        assert keys == sorted(
            keys, key=lambda kv: (["WHITNEY", "L_NI_KAPPA_EQ"].index(kv[0]), kv[1])
        )

    def test_every_claim_has_in_scope_group_in_default_corpus(self):
        # cheap surrogate for the full run: check scope predicates directly
        from groupgraphs import GroupAnalysis

        corpus = default_corpus()
        groups = [GroupAnalysis(build_family(spec, order_cap=64)) for spec in corpus]
        for claim, definition in CLAIM_REGISTRY.items():
            in_scope = 0
            for ga in groups:
                for kind in definition.kinds:
                    if definition.skip is None:
                        in_scope += 1
                        continue
                    if claim == ClaimId.P_DOMINATING_CRITERION:
                        # needs graph analysis; only check a cheap subset
                        continue
                    if definition.skip(ga.profile, None) is None:
                        in_scope += 1
            if claim == ClaimId.P_DOMINATING_CRITERION:
                z9 = build_family(FamilySpec.cyclic(9))
                assert evaluate_claim(claim, z9)[1].skipped is None
                continue
            assert in_scope > 0, f"{claim} never evaluated in the default corpus"


class TestSanityInvariants:
    def test_coprime_z9_star(self, z9):
        checks = {c.invariant: c for c in sanity_invariants(coprime_graph(z9))}
        assert checks["WHITNEY"].passed
        assert "kappa=1 <= kappa_edge=1 <= min_degree=1" in checks["WHITNEY"].evidence
        assert checks["DIAM2"].passed
        assert checks["ORACLE_EDGE"].passed
        assert checks["ORACLE_VERTEX"].passed

    def test_null_graph_skips_diam2(self, klein):
        checks = {c.invariant: c for c in sanity_invariants(order_sum_graph(klein))}
        assert checks["WHITNEY"].passed
        assert "0 <= kappa_edge=0" in checks["WHITNEY"].evidence
        assert checks["DIAM2"].passed is None
        assert "disconnected" in checks["DIAM2"].evidence

    def test_non_inverse_z5_all_pass(self, z5):
        checks = sanity_invariants(non_inverse_graph(z5))
        assert all(c.passed for c in checks)

    def test_oracle_checks_skipped_above_guards(self):
        g = build_family(FamilySpec.cyclic(25))
        checks = {c.invariant: c for c in sanity_invariants(coprime_graph(g))}
        assert checks["ORACLE_EDGE"].passed is None
        assert checks["ORACLE_VERTEX"].passed is None
        assert checks["WHITNEY"].passed is True
