"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive full-corpus
report is computed once per session and shared; criterion 8 performs the
second, byte-comparison run itself.
"""

import json
import random
import time

import pytest

from groupgraphs import (
    ALL_KINDS,
    ClaimId,
    FamilySpec,
    build_family,
    build_graph,
    default_corpus,
    edge_connectivity,
    edge_connectivity_oracle,
    run_corpus,
    vertex_connectivity,
    vertex_connectivity_oracle,
)
from groupgraphs.cli import _random_graph, _structured_cases
from conftest import brute_edge_connectivity, brute_minimality, brute_vertex_connectivity

ORDER_CAP = 64
ORACLE_N = 12


@pytest.fixture(scope="session")
def full_run():
    started = time.monotonic()
    report = run_corpus(default_corpus(), order_cap=ORDER_CAP)
    elapsed = time.monotonic() - started
    return report, elapsed


def _claim_rows(report, claim):
    return [v for v in report.verdicts if v.claim == claim]


def _lhs(report, claim, label, kind=None):
    for v in _claim_rows(report, claim):
        if v.group_label == label and (kind is None or v.kind == kind):
            return v.lhs
    raise AssertionError(f"no verdict for {claim} on {label}")


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20260811)
    graphs = list(_structured_cases(9))
    graphs.extend(_random_graph(rng, 9) for _ in range(200))
    for spec in default_corpus():
        group = build_family(spec, order_cap=ORDER_CAP)
        if group.order > ORACLE_N:
            continue
        graphs.extend(build_graph(group, kind) for kind in ALL_KINDS)
    random_count = 200
    for graph in graphs:
        assert edge_connectivity(graph) == edge_connectivity_oracle(graph)
        assert vertex_connectivity(graph) == vertex_connectivity_oracle(graph)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"oracle equivalence took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 1 (oracle equivalence): PASS: {len(graphs)} graphs "
        f"({random_count} random, seed 20260811) in {elapsed:.1f}s"
    )


def test_criterion_2_whitney_suite(full_run):
    report, _ = full_run
    summary = report.invariant_summary()["WHITNEY"]
    assert summary["failed"] == 0
    assert summary["checked"] == len(default_corpus()) * 4
    print(
        f"ACCEPTANCE 2 (Whitney chain): PASS: {summary['checked']} graphs, "
        f"0 violations"
    )


def test_criterion_3_diameter_two_suite(full_run):
    report, _ = full_run
    summary = report.invariant_summary()["DIAM2"]
    assert summary["failed"] == 0
    assert summary["checked"] > 0
    print(
        f"ACCEPTANCE 3 (diameter <= 2 forces kappa' = min degree): PASS: "
        f"{summary['checked']} graphs checked, 0 violations"
    )


def test_criterion_4_lemma_reproductions(full_run):
    report, _ = full_run
    lemmas = (
        ClaimId.L32_COMMUTING_COMPLETE_IFF_ABELIAN,
        ClaimId.L_CP_COMPLETE_IFF_ORDER_LE_2,
        ClaimId.L34_OS_COMPLETE_IFF_PRIME,
        ClaimId.L35_NI_COMPLETE_IFF_SELF_INVERSE,
        ClaimId.L_NI_KAPPA_EQ,
        ClaimId.P_OS_NULL_IF_NONCYCLIC,
    )
    total = 0
    for claim in lemmas:
        rows = [v for v in _claim_rows(report, claim) if v.skipped is None]
        assert rows, f"{claim} never evaluated"
        bad = [v for v in rows if not v.consistent]
        assert not bad, f"{claim} inconsistent on {[v.group_label for v in bad]}"
        total += len(rows)
    # L3.4 within the cyclic corpus specifically: complete iff prime order
    cyclic_rows = [
        v
        for v in _claim_rows(report, ClaimId.L34_OS_COMPLETE_IFF_PRIME)
        if v.group_label.startswith("cyclic:")
    ]
    assert all(v.consistent for v in cyclic_rows)
    print(
        f"ACCEPTANCE 4 (completeness lemmas, NI kappa equality, null order-sum): "
        f"PASS: {total} exact boolean checks, 0 violations"
    )


def test_criterion_5_dominating_criterion_agreement(full_run):
    report, _ = full_run
    rows = [
        v
        for v in _claim_rows(report, ClaimId.P_DOMINATING_CRITERION)
        if v.skipped is None
    ]
    assert rows
    bad = [(v.group_label, v.kind) for v in rows if not v.consistent]
    assert not bad, f"criterion vs sweep disagreement on {bad}"
    print(
        f"ACCEPTANCE 5 (dominating-vertex criterion vs sweep): PASS: "
        f"{len(rows)} dominated non-complete graphs, 0 disagreements"
    )


def _oracle_backed_edge_holds(group, kind):
    graph = build_graph(group, kind)
    holds, _, _ = brute_minimality(graph, brute_edge_connectivity)
    return holds


def _oracle_backed_vertex_holds(group, kind):
    graph = build_graph(group, kind)
    holds, _, _ = brute_minimality(graph, brute_vertex_connectivity)
    return holds


def test_criterion_6_theorem_characteristic_instances(full_run):
    report, _ = full_run
    checks = 0

    def expect(claim, label, expected_lhs, kind=None):
        nonlocal checks
        assert _lhs(report, claim, label, kind) is expected_lhs, (
            f"{claim} lhs on {label} expected {expected_lhs}"
        )
        checks += 1

    for n in (2, 3, 5, 6, 8, 9, 12, 16):
        expect(ClaimId.T_C_EDGE_IFF_ABELIAN, f"cyclic:{n}", True)
    for label in ("dihedral:3", "dihedral:4", "symmetric:4"):
        expect(ClaimId.T_C_EDGE_IFF_ABELIAN, label, False)
    for label in ("ea:2,2", "ea:2,3", "cyclic:5"):
        expect(ClaimId.T_NI_EDGE_IFF_UNIFORM_INVERSE, label, True)
    expect(ClaimId.T_NI_EDGE_IFF_UNIFORM_INVERSE, "cyclic:4", False)
    for p in (2, 3, 5, 7):
        expect(ClaimId.T_OS_EDGE_IFF_PRIME, f"cyclic:{p}", True)
    for label in ("cyclic:4", "cyclic:6"):
        expect(ClaimId.T_OS_EDGE_IFF_PRIME, label, False)
    for label in ("cyclic:9", "dicyclic:2"):
        expect(ClaimId.P_CP_FULL_EXP_IFF_P_GROUP, label, True)
    expect(ClaimId.P_CP_FULL_EXP_IFF_P_GROUP, "cyclic:6", False)
    cyclic6 = [
        v
        for v in _claim_rows(report, ClaimId.P_CP_FULL_EXP_IFF_P_GROUP)
        if v.group_label == "cyclic:6"
    ]
    assert cyclic6[0].consistent is True  # claim and computation agree here

    even_rows = [
        v
        for v in _claim_rows(report, ClaimId.T_CP_EVEN_NOT_MINIMAL)
        if v.skipped is None
    ]
    assert all(v.consistent for v in even_rows), "even-order co-prime counterexample"
    checks += len(even_rows)

    # oracle cross-checks for every instance small enough (n <= 12)
    oracle_cases = [
        (ClaimId.T_C_EDGE_IFF_ABELIAN, "cyclic:8", "commuting", _oracle_backed_edge_holds),
        (ClaimId.T_C_EDGE_IFF_ABELIAN, "dihedral:3", "commuting", _oracle_backed_edge_holds),
        (ClaimId.T_C_EDGE_IFF_ABELIAN, "dihedral:4", "commuting", _oracle_backed_edge_holds),
        (ClaimId.T_NI_EDGE_IFF_UNIFORM_INVERSE, "ea:2,3", "noninverse", _oracle_backed_edge_holds),
        (ClaimId.T_NI_EDGE_IFF_UNIFORM_INVERSE, "cyclic:5", "noninverse", _oracle_backed_edge_holds),
        (ClaimId.T_NI_EDGE_IFF_UNIFORM_INVERSE, "cyclic:4", "noninverse", _oracle_backed_edge_holds),
        (ClaimId.T_OS_EDGE_IFF_PRIME, "cyclic:7", "ordersum", _oracle_backed_edge_holds),
        (ClaimId.T_OS_EDGE_IFF_PRIME, "cyclic:6", "ordersum", _oracle_backed_edge_holds),
        (ClaimId.P_CP_FULL_EXP_IFF_P_GROUP, "cyclic:9", "coprime", _oracle_backed_edge_holds),
        (ClaimId.P_CP_FULL_EXP_IFF_P_GROUP, "dicyclic:2", "coprime", _oracle_backed_edge_holds),
        (ClaimId.P_CP_FULL_EXP_IFF_P_GROUP, "cyclic:6", "coprime", _oracle_backed_edge_holds),
    ]
    from groupgraphs import parse_group_spec

    for claim, label, kind, oracle_fn in oracle_cases:
        group = build_family(parse_group_spec(label))
        assert group.order <= ORACLE_N
        assert _lhs(report, claim, label, kind) == oracle_fn(group, kind)
        checks += 1
    print(
        f"ACCEPTANCE 6 (characteristic theorem instances, oracle-backed): PASS: "
        f"{checks} instance checks"
    )


def test_criterion_7_discrepancy_surfacing(full_run):
    report, _ = full_run
    payload = json.loads(report.to_json())

    def failures_of(claim_id):
        (entry,) = [c for c in payload["claims"] if c["id"] == claim_id.value]
        return {(f["group"], f["kind"]) for f in entry["failures"]}

    # order-sum minimal connectivity on cyclic:4, lhs oracle-backed
    (v,) = [
        v
        for v in _claim_rows(report, ClaimId.T_OS_VERTEX_IFF_PRIME_POWER)
        if v.group_label == "cyclic:4"
    ]
    z4 = build_family(FamilySpec.cyclic(4))
    assert v.lhs == _oracle_backed_vertex_holds(z4, "ordersum")
    in_failures = ("cyclic:4", "ordersum") in failures_of(
        ClaimId.T_OS_VERTEX_IFF_PRIME_POWER
    )
    assert in_failures == (v.lhs != v.rhs)

    # tree claim on at least one complete graph, lhs oracle-backed
    z3 = build_family(FamilySpec.cyclic(3))
    (tree_v,) = [
        v
        for v in _claim_rows(report, ClaimId.X_TREE_CLAIM)
        if v.group_label == "cyclic:3" and v.kind == "commuting"
    ]
    assert tree_v.details["is_complete"] is True
    assert tree_v.lhs == _oracle_backed_vertex_holds(z3, "commuting")
    assert (("cyclic:3", "commuting") in failures_of(ClaimId.X_TREE_CLAIM)) == (
        tree_v.lhs != tree_v.rhs
    )

    # the suite reports computed truth, not assumed agreement: with this
    # corpus the two statements above disagree with Lemma-3.1-style verdicts
    assert report.inconsistent_verdicts(), "expected at least one discrepancy"
    l31_rows = [
        v
        for v in _claim_rows(report, ClaimId.L31_COMPLETE_STAR_MINIMAL)
        if v.group_label == "cyclic:3" and v.kind == "commuting"
    ]
    assert l31_rows[0].consistent is True and tree_v.consistent is False
    print(
        "ACCEPTANCE 7 (discrepancy surfacing): PASS: order-sum minimal "
        f"connectivity on cyclic:4 inconsistent={not v.consistent}; tree claim "
        f"vs complete graph inconsistent={not tree_v.consistent}; both oracle-backed"
    )


def test_criterion_8_determinism_and_runtime(full_run):
    report, elapsed = full_run
    assert elapsed < 600, f"full corpus run took {elapsed:.0f}s at cap {ORDER_CAP}"
    second = run_corpus(default_corpus(), order_cap=ORDER_CAP)
    assert second.to_json() == report.to_json()
    assert second.to_csv() == report.to_csv()
    print(
        f"ACCEPTANCE 8 (determinism + runtime): PASS: byte-identical reports; "
        f"first run {elapsed:.0f}s < 600s"
    )
