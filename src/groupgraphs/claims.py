"""Machine-checkable classification claims over (group, graph) pairs.

Every claim pairs a graph-side computation (lhs) with a predicate (rhs) under
an explicit logical form:

  - ``iff``    claims check lhs <-> rhs;
  - ``if``     claims check rhs -> lhs (rhs is the hypothesis side);
  - ``holds``  claims check an unconditional graph invariant (no rhs).

Claims are hypotheses, not tests of this package: an inconsistent verdict is
a first-class report outcome.  Nothing here hard-codes an expected answer;
every lhs flows out of the connectivity and minimality modules and every rhs
out of the group profile.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy

from ._version import __version__ as _package_version
from .builders import GRAPH_KINDS, build_graph
from .connectivity import (
    EDGE_ORACLE_LIMIT,
    VERTEX_ORACLE_LIMIT,
    edge_connectivity,
    edge_connectivity_oracle,
    vertex_connectivity,
    vertex_connectivity_oracle,
)
from .families import DEFAULT_ORDER_CAP, FamilySpec, build_family
from .graphs import GraphShape, SimpleGraph, shape_profile
from .groups import FiniteGroup, GroupProfile
from .minimality import (
    DominatingVertexCriterion,
    MinimalityVerdict,
    dominating_vertex_criterion,
    is_minimally_connected,
    is_minimally_edge_connected,
)

__all__ = [
    "ClaimId",
    "ClaimDefinition",
    "ClaimVerdict",
    "CorpusReport",
    "InvariantCheck",
    "GraphAnalysis",
    "GroupAnalysis",
    "CLAIM_REGISTRY",
    "REPORT_SCHEMA",
    "ALL_KINDS",
    "default_corpus",
    "evaluate_claim",
    "run_corpus",
    "sanity_invariants",
]

ALL_KINDS = tuple(GRAPH_KINDS)


class ClaimId(str, Enum):
    """Registry keys; each maps to exactly one (scope, lhs, rhs, form) triple."""

    DIAM2_EDGE_EQ_MINDEG = "DIAM2_EDGE_EQ_MINDEG"
    WHITNEY = "WHITNEY"
    L31_COMPLETE_STAR_MINIMAL = "L31_COMPLETE_STAR_MINIMAL"
    L32_COMMUTING_COMPLETE_IFF_ABELIAN = "L32_COMMUTING_COMPLETE_IFF_ABELIAN"
    L_CP_COMPLETE_IFF_ORDER_LE_2 = "L_CP_COMPLETE_IFF_ORDER_LE_2"
    L34_OS_COMPLETE_IFF_PRIME = "L34_OS_COMPLETE_IFF_PRIME"
    L35_NI_COMPLETE_IFF_SELF_INVERSE = "L35_NI_COMPLETE_IFF_SELF_INVERSE"
    L_NI_KAPPA_EQ = "L_NI_KAPPA_EQ"
    P_DOMINATING_CRITERION = "P_DOMINATING_CRITERION"
    P_OS_NULL_IF_NONCYCLIC = "P_OS_NULL_IF_NONCYCLIC"
    T_OS_EDGE_IFF_PRIME = "T_OS_EDGE_IFF_PRIME"
    T_NI_EDGE_IFF_UNIFORM_INVERSE = "T_NI_EDGE_IFF_UNIFORM_INVERSE"
    T_C_EDGE_IFF_ABELIAN = "T_C_EDGE_IFF_ABELIAN"
    T_C_VERTEX_IFF_ABELIAN = "T_C_VERTEX_IFF_ABELIAN"
    T_OS_VERTEX_IFF_PRIME_POWER = "T_OS_VERTEX_IFF_PRIME_POWER"
    T_NI_VERTEX_IFF_UNIFORM_INVERSE = "T_NI_VERTEX_IFF_UNIFORM_INVERSE"
    P_CP_FULL_EXP_IFF_P_GROUP = "P_CP_FULL_EXP_IFF_P_GROUP"
    T_CP_EVEN_NOT_MINIMAL = "T_CP_EVEN_NOT_MINIMAL"
    T_CP_VERTEX_IFF_P_GROUP = "T_CP_VERTEX_IFF_P_GROUP"
    X_TREE_CLAIM = "X_TREE_CLAIM"


class GraphAnalysis:
    """Lazy per-graph cache of everything the claim registry can ask for."""

    def __init__(self, graph: SimpleGraph):
        self.graph = graph

    @cached_property
    def shape(self) -> GraphShape:
        return shape_profile(self.graph)

    @cached_property
    def kappa_edge(self) -> int:
        return edge_connectivity(self.graph)

    @cached_property
    def kappa_vertex(self) -> int:
        return vertex_connectivity(self.graph)

    @cached_property
    def edge_sweep(self) -> MinimalityVerdict:
        return is_minimally_edge_connected(self.graph)

    @cached_property
    def vertex_sweep(self) -> MinimalityVerdict:
        return is_minimally_connected(self.graph)

    @cached_property
    def criterion(self) -> DominatingVertexCriterion:
        return dominating_vertex_criterion(self.graph)

    @property
    def is_null(self) -> bool:
        return self.graph.edge_count == 0

    @property
    def is_tree(self) -> bool:
        return self.shape.is_connected and self.graph.edge_count == self.graph.n - 1


class GroupAnalysis:
    """One corpus entry: a group, its profile, and its four graph analyses."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.label = group.label
        self._graphs: dict[str, GraphAnalysis] = {}

    @cached_property
    def profile(self) -> GroupProfile:
        return self.group.profile()

    def analysis(self, kind: str) -> GraphAnalysis:
        if kind not in self._graphs:
            self._graphs[kind] = GraphAnalysis(build_graph(self.group, kind))
        return self._graphs[kind]


LhsFn = Callable[[GraphAnalysis], bool]
RhsFn = Callable[[GroupProfile, GraphAnalysis], bool]
SkipFn = Callable[[GroupProfile, GraphAnalysis], Optional[str]]
EvidenceFn = Callable[[GraphAnalysis], dict]


@dataclass(frozen=True)
class ClaimDefinition:
    claim: ClaimId
    statement: str
    kinds: tuple[str, ...]
    form: str  # "iff" | "if" | "holds"
    lhs: LhsFn
    rhs: Optional[RhsFn] = None
    skip: Optional[SkipFn] = None
    evidence: EvidenceFn = lambda a: {}


@dataclass(frozen=True)
class ClaimVerdict:
    """Consistency record for one (claim, group, graph kind) evaluation."""

    claim: ClaimId
    group_label: str
    kind: str
    lhs: Optional[bool]
    rhs: Optional[bool]
    consistent: Optional[bool]
    skipped: Optional[str] = None
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "claim": self.claim.value,
            "group": self.group_label,
            "kind": self.kind,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "consistent": self.consistent,
            "skipped": self.skipped,
            "details": self.details,
        }


@dataclass(frozen=True)
class InvariantCheck:
    """One structural invariant on one graph; passed is None when skipped."""

    invariant: str
    passed: Optional[bool]
    evidence: str


def _shape_evidence(a: GraphAnalysis) -> dict:
    s = a.shape
    return {
        "n": s.n,
        "edges": a.graph.edge_count,
        "min_degree": s.min_degree,
        "is_complete": s.is_complete,
        "is_star": s.is_star,
        "is_connected": s.is_connected,
        "diameter": s.diameter,
    }


def _connectivity_evidence(a: GraphAnalysis) -> dict:
    return {
        "kappa_vertex": a.kappa_vertex,
        "kappa_edge": a.kappa_edge,
        "min_degree": a.shape.min_degree,
    }


def _sweep_evidence(verdict: MinimalityVerdict, prefix: str) -> dict:
    return {
        f"{prefix}_applicable": verdict.applicable,
        f"{prefix}_base": verdict.base_value,
        f"{prefix}_holds": verdict.holds,
        f"{prefix}_violations": len(verdict.violating_edges),
        f"{prefix}_violating_sample": [list(e) for e in verdict.violating_edges[:6]],
    }


def _edge_sweep_evidence(a: GraphAnalysis) -> dict:
    return _sweep_evidence(a.edge_sweep, "edge_sweep")


def _vertex_sweep_evidence(a: GraphAnalysis) -> dict:
    return _sweep_evidence(a.vertex_sweep, "vertex_sweep")


def _criterion_evidence(a: GraphAnalysis) -> dict:
    c = a.criterion
    return {
        "dominating_vertices": list(c.dominating_vertices),
        "unique_dominating": c.unique_dominating,
        "rest_regular": c.rest_regular,
        "criterion_answer": c.answer,
    }


def _merge(*fns: EvidenceFn) -> EvidenceFn:
    def merged(a: GraphAnalysis) -> dict:
        out: dict = {}
        for fn in fns:
            out.update(fn(a))
        return out

    return merged


def _uniform_inverse(p: GroupProfile, a: GraphAnalysis) -> bool:
    return p.all_nonidentity_self_inverse or p.no_nonidentity_self_inverse


def _skip_trivial_graph(p: GroupProfile, a: GraphAnalysis) -> Optional[str]:
    if p.order < 2:
        return "single-vertex graph"
    return None


def _skip_criterion(p: GroupProfile, a: GraphAnalysis) -> Optional[str]:
    if not a.criterion.applies:
        return f"criterion not applicable: {a.criterion.reason}"
    return None


_DEFINITIONS: tuple[ClaimDefinition, ...] = (
    ClaimDefinition(
        claim=ClaimId.DIAM2_EDGE_EQ_MINDEG,
        statement="a connected graph with diameter at most 2 has edge connectivity "
        "equal to its minimum degree",
        kinds=ALL_KINDS,
        form="if",
        lhs=lambda a: a.kappa_edge == a.shape.min_degree,
        rhs=lambda p, a: a.shape.is_connected
        and a.shape.diameter is not None
        and a.shape.diameter <= 2,
        evidence=_merge(_shape_evidence, _connectivity_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.WHITNEY,
        statement="vertex connectivity <= edge connectivity <= minimum degree",
        kinds=ALL_KINDS,
        form="holds",
        lhs=lambda a: a.kappa_vertex <= a.kappa_edge <= a.shape.min_degree,
        evidence=_merge(_shape_evidence, _connectivity_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.L31_COMPLETE_STAR_MINIMAL,
        statement="complete graphs and star graphs are minimally edge connected "
        "and minimally connected",
        kinds=ALL_KINDS,
        form="if",
        lhs=lambda a: a.edge_sweep.holds and a.vertex_sweep.holds,
        rhs=lambda p, a: a.shape.is_complete or a.shape.is_star,
        skip=_skip_trivial_graph,
        evidence=_merge(_shape_evidence, _edge_sweep_evidence, _vertex_sweep_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.L32_COMMUTING_COMPLETE_IFF_ABELIAN,
        statement="the commuting graph is complete iff the group is abelian",
        kinds=("commuting",),
        form="iff",
        lhs=lambda a: a.shape.is_complete,
        rhs=lambda p, a: p.is_abelian,
        evidence=_shape_evidence,
    ),
    ClaimDefinition(
        claim=ClaimId.L_CP_COMPLETE_IFF_ORDER_LE_2,
        statement="the co-prime graph is complete iff the group order is at most 2",
        kinds=("coprime",),
        form="iff",
        lhs=lambda a: a.shape.is_complete,
        rhs=lambda p, a: p.order <= 2,
        evidence=_shape_evidence,
    ),
    ClaimDefinition(
        claim=ClaimId.L34_OS_COMPLETE_IFF_PRIME,
        statement="the order-sum graph is complete iff the group is cyclic of "
        "prime order",
        kinds=("ordersum",),
        form="iff",
        lhs=lambda a: a.shape.is_complete,
        rhs=lambda p, a: p.is_cyclic and p.is_prime_order,
        evidence=_shape_evidence,
    ),
    ClaimDefinition(
        claim=ClaimId.L35_NI_COMPLETE_IFF_SELF_INVERSE,
        statement="the non-inverse graph is complete iff every element is "
        "self-inverse",
        kinds=("noninverse",),
        form="iff",
        lhs=lambda a: a.shape.is_complete,
        rhs=lambda p, a: p.all_nonidentity_self_inverse,
        evidence=_shape_evidence,
    ),
    ClaimDefinition(
        claim=ClaimId.L_NI_KAPPA_EQ,
        statement="vertex and edge connectivity of the non-inverse graph are "
        "always equal",
        kinds=("noninverse",),
        form="holds",
        lhs=lambda a: a.kappa_vertex == a.kappa_edge,
        evidence=_connectivity_evidence,
    ),
    ClaimDefinition(
        claim=ClaimId.P_DOMINATING_CRITERION,
        statement="a non-complete graph with a dominating vertex x is minimally "
        "edge connected iff x is the only dominating vertex and the graph minus "
        "x is regular",
        kinds=ALL_KINDS,
        form="iff",
        lhs=lambda a: a.edge_sweep.holds,
        rhs=lambda p, a: bool(a.criterion.answer),
        skip=_skip_criterion,
        evidence=_merge(_shape_evidence, _edge_sweep_evidence, _criterion_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.P_OS_NULL_IF_NONCYCLIC,
        statement="the order-sum graph of a non-cyclic group has no edges",
        kinds=("ordersum",),
        form="if",
        lhs=lambda a: a.is_null,
        rhs=lambda p, a: not p.is_cyclic,
        evidence=_shape_evidence,
    ),
    ClaimDefinition(
        claim=ClaimId.T_OS_EDGE_IFF_PRIME,
        statement="for cyclic groups: the order-sum graph is minimally edge "
        "connected iff the order is prime",
        kinds=("ordersum",),
        form="iff",
        lhs=lambda a: a.edge_sweep.holds,
        rhs=lambda p, a: p.is_prime_order,
        skip=lambda p, a: None if p.is_cyclic else "claim scoped to cyclic groups",
        evidence=_merge(_shape_evidence, _edge_sweep_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.T_NI_EDGE_IFF_UNIFORM_INVERSE,
        statement="the non-inverse graph is minimally edge connected iff the "
        "non-identity elements are all self-inverse or all non-self-inverse",
        kinds=("noninverse",),
        form="iff",
        lhs=lambda a: a.edge_sweep.holds,
        rhs=_uniform_inverse,
        evidence=_merge(_shape_evidence, _edge_sweep_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.T_C_EDGE_IFF_ABELIAN,
        statement="the commuting graph is minimally edge connected iff the group "
        "is abelian",
        kinds=("commuting",),
        form="iff",
        lhs=lambda a: a.edge_sweep.holds,
        rhs=lambda p, a: p.is_abelian,
        evidence=_merge(_shape_evidence, _edge_sweep_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.T_C_VERTEX_IFF_ABELIAN,
        statement="the commuting graph is minimally connected iff the group is "
        "abelian",
        kinds=("commuting",),
        form="iff",
        lhs=lambda a: a.vertex_sweep.holds,
        rhs=lambda p, a: p.is_abelian,
        evidence=_merge(_shape_evidence, _vertex_sweep_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.T_OS_VERTEX_IFF_PRIME_POWER,
        statement="the order-sum graph is minimally connected iff the group has "
        "prime power order",
        kinds=("ordersum",),
        form="iff",
        lhs=lambda a: a.vertex_sweep.holds,
        rhs=lambda p, a: p.is_p_group,
        evidence=_merge(_shape_evidence, _vertex_sweep_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.T_NI_VERTEX_IFF_UNIFORM_INVERSE,
        statement="the non-inverse graph is minimally connected iff the "
        "non-identity elements are all self-inverse or all non-self-inverse",
        kinds=("noninverse",),
        form="iff",
        lhs=lambda a: a.vertex_sweep.holds,
        rhs=_uniform_inverse,
        evidence=_merge(_shape_evidence, _vertex_sweep_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.P_CP_FULL_EXP_IFF_P_GROUP,
        statement="for groups with an element of exponent order: the co-prime "
        "graph is minimally edge connected iff the group is a p-group",
        kinds=("coprime",),
        form="iff",
        lhs=lambda a: a.edge_sweep.holds,
        rhs=lambda p, a: p.is_p_group,
        skip=lambda p, a: None
        if p.is_full_exponent
        else "claim scoped to full-exponent groups",
        evidence=_merge(_shape_evidence, _edge_sweep_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.T_CP_EVEN_NOT_MINIMAL,
        statement="an even-order group that is not a p-group has a co-prime "
        "graph that is not minimally edge connected",
        kinds=("coprime",),
        form="if",
        lhs=lambda a: not a.edge_sweep.holds,
        rhs=lambda p, a: p.is_even_order and not p.is_p_group,
        evidence=_merge(_shape_evidence, _edge_sweep_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.T_CP_VERTEX_IFF_P_GROUP,
        statement="the co-prime graph is minimally connected iff the group is a "
        "p-group",
        kinds=("coprime",),
        form="iff",
        lhs=lambda a: a.vertex_sweep.holds,
        rhs=lambda p, a: p.is_p_group,
        evidence=_merge(_shape_evidence, _vertex_sweep_evidence),
    ),
    ClaimDefinition(
        claim=ClaimId.X_TREE_CLAIM,
        statement="a graph is minimally connected iff it is a tree",
        kinds=ALL_KINDS,
        form="iff",
        lhs=lambda a: a.vertex_sweep.holds,
        rhs=lambda p, a: a.is_tree,
        evidence=_merge(_shape_evidence, _vertex_sweep_evidence),
    ),
)

CLAIM_REGISTRY: dict[ClaimId, ClaimDefinition] = {d.claim: d for d in _DEFINITIONS}


def evaluate_claim(
    claim: ClaimId, group: Union[FiniteGroup, GroupAnalysis]
) -> tuple[ClaimVerdict, ...]:
    """Evaluate one claim against one group.

    Returns one verdict per graph kind the claim ranges over: a single verdict
    for kind-specific claims, four for pure-graph claims.
    """
    analysis = group if isinstance(group, GroupAnalysis) else GroupAnalysis(group)
    definition = CLAIM_REGISTRY[claim]
    profile = analysis.profile
    verdicts = []
    for kind in definition.kinds:
        a = analysis.analysis(kind)
        reason = definition.skip(profile, a) if definition.skip else None
        if reason is not None:
            verdicts.append(
                ClaimVerdict(claim, analysis.label, kind, None, None, None, reason)
            )
            continue
        lhs = bool(definition.lhs(a))
        rhs = bool(definition.rhs(profile, a)) if definition.rhs is not None else None
        if definition.form == "iff":
            consistent = lhs == rhs
        elif definition.form == "if":
            consistent = lhs or not rhs
        elif definition.form == "holds":
            consistent = lhs
        else:
            raise AssertionError(definition.form)
        verdicts.append(
            ClaimVerdict(
                claim,
                analysis.label,
                kind,
                lhs,
                rhs,
                consistent,
                None,
                definition.evidence(a),
            )
        )
    return tuple(verdicts)


def _sanity_checks(a: GraphAnalysis) -> tuple[InvariantCheck, ...]:
    kv, ke, delta = a.kappa_vertex, a.kappa_edge, a.shape.min_degree
    whitney = CLAIM_REGISTRY[ClaimId.WHITNEY]
    diam2 = CLAIM_REGISTRY[ClaimId.DIAM2_EDGE_EQ_MINDEG]
    checks = [
        InvariantCheck(
            "WHITNEY", whitney.lhs(a), f"kappa={kv} <= kappa_edge={ke} <= min_degree={delta}"
        )
    ]
    # the DIAM2 hypothesis reads only the graph, so it needs no group profile
    if diam2.rhs(None, a):
        checks.append(
            InvariantCheck(
                "DIAM2",
                diam2.lhs(a),
                f"diameter={a.shape.diameter}: kappa_edge={ke}, min_degree={delta}",
            )
        )
    elif not a.shape.is_connected:
        checks.append(InvariantCheck("DIAM2", None, "skipped: graph disconnected"))
    else:
        checks.append(
            InvariantCheck("DIAM2", None, f"skipped: diameter {a.shape.diameter} > 2")
        )
    n = a.graph.n
    for name, flow, oracle, limit in (
        ("ORACLE_EDGE", ke, edge_connectivity_oracle, EDGE_ORACLE_LIMIT),
        ("ORACLE_VERTEX", kv, vertex_connectivity_oracle, VERTEX_ORACLE_LIMIT),
    ):
        if n <= limit:
            value = oracle(a.graph)
            checks.append(InvariantCheck(name, flow == value, f"flow={flow} oracle={value}"))
        else:
            checks.append(InvariantCheck(name, None, f"skipped: n={n} exceeds guard {limit}"))
    return tuple(checks)


def sanity_invariants(graph: SimpleGraph) -> tuple[InvariantCheck, ...]:
    """Structural invariants every graph must satisfy, with oracle agreement
    checked whenever the graph is small enough for the brute-force routes."""
    return _sanity_checks(GraphAnalysis(graph))


def default_corpus() -> list[FamilySpec]:
    """The stock corpus: enough families to give every claim in-scope groups
    of both truth values where possible (abelian and not, p-group and not,
    full exponent and not, mixed and uniform inverse structure)."""
    specs = [FamilySpec.cyclic(n) for n in range(2, 33)]
    specs += [FamilySpec.dihedral(n) for n in range(2, 17)]
    specs += [FamilySpec.dicyclic(n) for n in range(2, 9)]
    specs += [FamilySpec.symmetric(n) for n in (3, 4)]
    specs += [
        FamilySpec.elementary_abelian(p, k)
        for p, k in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2))
    ]
    specs += [
        FamilySpec.product(FamilySpec.cyclic(p), FamilySpec.cyclic(q))
        for p, q in ((2, 3), (2, 5), (2, 7), (2, 11), (2, 13), (3, 5), (3, 7))
    ]
    return specs


@dataclass(frozen=True)
class CorpusReport:
    """Aggregate of all claim verdicts and invariant checks over one corpus."""

    config: dict
    verdicts: tuple[ClaimVerdict, ...]
    invariant_rows: tuple[tuple[str, str, InvariantCheck], ...]

    def claim_ids(self) -> list[ClaimId]:
        return [ClaimId(name) for name in self.config["claims"]]

    def verdicts_for(self, claim: ClaimId) -> list[ClaimVerdict]:
        return [v for v in self.verdicts if v.claim == claim]

    def inconsistent_verdicts(self) -> list[ClaimVerdict]:
        return [v for v in self.verdicts if v.consistent is False]

    def claim_summary(self, claim: ClaimId) -> dict:
        rows = self.verdicts_for(claim)
        evaluated = [v for v in rows if v.skipped is None]
        failures = [v.to_record() for v in rows if v.consistent is False]
        return {
            "id": claim.value,
            "statement": CLAIM_REGISTRY[claim].statement,
            "evaluated": len(evaluated),
            "consistent": sum(1 for v in evaluated if v.consistent),
            "inconsistent": sum(1 for v in evaluated if not v.consistent),
            "skipped": len(rows) - len(evaluated),
            "failures": failures,
        }

    def invariant_summary(self) -> dict:
        out: dict = {}
        for name in ("WHITNEY", "DIAM2", "ORACLE_EDGE", "ORACLE_VERTEX"):
            rows = [
                (label, kind, chk)
                for label, kind, chk in self.invariant_rows
                if chk.invariant == name
            ]
            out[name] = {
                "checked": sum(1 for _, _, c in rows if c.passed is not None),
                "passed": sum(1 for _, _, c in rows if c.passed is True),
                "failed": sum(1 for _, _, c in rows if c.passed is False),
                "skipped": sum(1 for _, _, c in rows if c.passed is None),
                "failures": [
                    {"group": label, "kind": kind, "evidence": c.evidence}
                    for label, kind, c in rows
                    if c.passed is False
                ],
            }
        return out

    def to_payload(self) -> dict:
        return {
            "config": self.config,
            "claims": [self.claim_summary(c) for c in self.claim_ids()],
            "invariants": self.invariant_summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["claim", "group", "kind", "lhs", "rhs", "consistent", "skipped"])
        for v in self.verdicts:
            writer.writerow(
                [
                    v.claim.value,
                    v.group_label,
                    v.kind,
                    _csv_bool(v.lhs),
                    _csv_bool(v.rhs),
                    _csv_bool(v.consistent),
                    v.skipped or "",
                ]
            )
        return buf.getvalue()


def _csv_bool(value: Optional[bool]) -> str:
    if value is None:
        return ""
    return "true" if value else "false"


def run_corpus(
    corpus: Sequence[FamilySpec],
    claims: Optional[Sequence[ClaimId]] = None,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> CorpusReport:
    """Evaluate claims over every corpus group and run the invariant suite on
    every built graph.  Output ordering is claim-major, group label minor,
    graph kind in fixed order, so two runs produce identical reports."""
    claim_ids = list(ClaimId) if claims is None else list(claims)
    repeated = sorted({c.value for c in claim_ids if claim_ids.count(c) > 1})
    if repeated:
        raise ValueError(f"claims listed more than once: {', '.join(repeated)}")
    groups = [GroupAnalysis(build_family(spec, order_cap=order_cap)) for spec in corpus]
    groups.sort(key=lambda ga: ga.label)
    verdicts: list[ClaimVerdict] = []
    for claim in claim_ids:
        for ga in groups:
            verdicts.extend(evaluate_claim(claim, ga))
    invariant_rows = []
    for ga in groups:
        for kind in ALL_KINDS:
            for check in _sanity_checks(ga.analysis(kind)):
                invariant_rows.append((ga.label, kind, check))
    config = {
        "package": "groupgraphs",
        "version": _package_version,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "order_cap": order_cap,
        "corpus_size": len(groups),
        "corpus": [ga.label for ga in groups],
        "claims": [c.value for c in claim_ids],
    }
    return CorpusReport(
        config=config, verdicts=tuple(verdicts), invariant_rows=tuple(invariant_rows)
    )


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["config", "claims", "invariants"],
    "properties": {
        "config": {
            "type": "object",
            "required": ["package", "version", "order_cap", "corpus", "claims"],
            "properties": {
                "package": {"type": "string"},
                "version": {"type": "string"},
                "python": {"type": "string"},
                "numpy": {"type": "string"},
                "scipy": {"type": "string"},
                "order_cap": {"type": "integer"},
                "corpus_size": {"type": "integer"},
                "corpus": {"type": "array", "items": {"type": "string"}},
                "claims": {"type": "array", "items": {"type": "string"}},
            },
        },
        "claims": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "id",
                    "statement",
                    "evaluated",
                    "consistent",
                    "inconsistent",
                    "skipped",
                    "failures",
                ],
                "properties": {
                    "id": {"type": "string"},
                    "statement": {"type": "string"},
                    "evaluated": {"type": "integer", "minimum": 0},
                    "consistent": {"type": "integer", "minimum": 0},
                    "inconsistent": {"type": "integer", "minimum": 0},
                    "skipped": {"type": "integer", "minimum": 0},
                    "failures": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["claim", "group", "kind", "consistent"],
                            "properties": {
                                "claim": {"type": "string"},
                                "group": {"type": "string"},
                                "kind": {"type": "string"},
                                "lhs": {"type": ["boolean", "null"]},
                                "rhs": {"type": ["boolean", "null"]},
                                "consistent": {"type": ["boolean", "null"]},
                                "skipped": {"type": ["string", "null"]},
                                "details": {"type": "object"},
                            },
                        },
                    },
                },
            },
        },
        "invariants": {
            "type": "object",
            "patternProperties": {
                ".*": {
                    "type": "object",
                    "required": ["checked", "passed", "failed", "skipped", "failures"],
                    "properties": {
                        "checked": {"type": "integer", "minimum": 0},
                        "passed": {"type": "integer", "minimum": 0},
                        "failed": {"type": "integer", "minimum": 0},
                        "skipped": {"type": "integer", "minimum": 0},
                        "failures": {"type": "array"},
                    },
                },
            },
        },
    },
}
