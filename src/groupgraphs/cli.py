"""Command-line frontend: build graphs, print invariants, run minimality
sweeps, screen claims over a corpus, and cross-check flow against oracles.

Claim inconsistencies are findings, not failures: ``verify`` exits 0 whenever
the run itself succeeded.  Only ``oracle`` disagreements and genuine errors
exit nonzero.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._version import __version__
from .builders import GRAPH_KINDS, build_graph
from .claims import ClaimId, default_corpus, run_corpus
from .connectivity import (
    VERTEX_ORACLE_LIMIT,
    edge_connectivity,
    edge_connectivity_oracle,
    vertex_connectivity,
    vertex_connectivity_oracle,
)
from .families import DEFAULT_ORDER_CAP, build_family, parse_group_spec
from .graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    shape_profile,
    star_graph,
    to_dot,
    to_edge_csv,
)
from .minimality import is_minimally_connected, is_minimally_edge_connected

ORDER_CAP_ENV = "GROUPGRAPHS_ORDER_CAP"


def _default_order_cap() -> int:
    raw = os.environ.get(ORDER_CAP_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"{ORDER_CAP_ENV} must be an integer, got {raw!r}")


def _build(spec_text: str, order_cap: int):
    return build_family(parse_group_spec(spec_text), order_cap=order_cap)


def _add_group_kind_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--group",
        required=True,
        help="group spec: cyclic:6, dihedral:5, dicyclic:2, symmetric:4, "
        "ea:2,3, product:cyclic:3*cyclic:5, file:PATH",
    )
    parser.add_argument(
        "--kind", required=True, choices=sorted(GRAPH_KINDS), help="graph kind"
    )
    parser.add_argument(
        "--order-cap",
        type=int,
        default=None,
        help=f"group order cap (default {DEFAULT_ORDER_CAP}, or ${ORDER_CAP_ENV})",
    )


def _cmd_graph(args: argparse.Namespace) -> int:
    group = _build(args.group, args.order_cap)
    graph = build_graph(group, args.kind)
    labels = [f"{i} (o={group.element_order(i)})" for i in range(group.order)]
    wrote = False
    if args.dot:
        Path(args.dot).write_text(to_dot(graph, labels))
        print(f"wrote DOT to {args.dot}")
        wrote = True
    if args.csv:
        Path(args.csv).write_text(to_edge_csv(graph))
        print(f"wrote edge CSV to {args.csv}")
        wrote = True
    if not wrote:
        sys.stdout.write(to_dot(graph, labels))
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    group = _build(args.group, args.order_cap)
    graph = build_graph(group, args.kind)
    shape = shape_profile(graph)
    print(f"group = {group.label}")
    print(f"kind = {args.kind}")
    print(f"n = {graph.n}")
    print(f"edges = {graph.edge_count}")
    print(f"min_degree = {shape.min_degree}")
    print(f"kappa = {vertex_connectivity(graph)}")
    print(f"kappa_edge = {edge_connectivity(graph)}")
    diameter = "inf" if shape.diameter is None else shape.diameter
    print(f"diameter = {diameter}")
    print(f"dominating_vertices = {list(shape.dominating_vertices)}")
    print(f"is_regular = {shape.is_regular}")
    print(f"is_complete = {shape.is_complete}")
    print(f"is_star = {shape.is_star}")
    return 0


def _print_verdict(verdict, per_edge: bool) -> None:
    print(f"mode = {verdict.mode}")
    print(f"applicable = {verdict.applicable}")
    print(f"base_value = {verdict.base_value}")
    print(f"holds = {verdict.holds}")
    print(f"violating_edges = {[list(e) for e in verdict.violating_edges]}")
    if per_edge:
        for edge, value in verdict.per_edge_values.items():
            print(f"  delete {list(edge)} -> {value}")


def _cmd_minimality(args: argparse.Namespace) -> int:
    group = _build(args.group, args.order_cap)
    graph = build_graph(group, args.kind)
    if args.mode in ("edge", "both"):
        _print_verdict(is_minimally_edge_connected(graph), args.per_edge)
    if args.mode in ("vertex", "both"):
        _print_verdict(is_minimally_connected(graph), args.per_edge)
    return 0


def _read_corpus_file(path: str):
    specs = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            specs.append(parse_group_spec(stripped))
        except ValueError as exc:
            raise SystemExit(f"{path}:{lineno}: {exc}")
    if not specs:
        raise SystemExit(f"{path}: no group specs found")
    return specs


def _parse_claims(text: str) -> list[ClaimId]:
    claims = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            claims.append(ClaimId(name))
        except ValueError:
            known = ", ".join(c.value for c in ClaimId)
            raise SystemExit(f"unknown claim {name!r}; known claims: {known}")
    if not claims:
        raise SystemExit("--claims names no claim")
    return claims


def _cmd_verify(args: argparse.Namespace) -> int:
    corpus = _read_corpus_file(args.corpus) if args.corpus else default_corpus()
    claims = None if args.claims is None else _parse_claims(args.claims)
    report = run_corpus(corpus, claims, order_cap=args.order_cap)
    payload = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    bad = report.inconsistent_verdicts()
    summary = (
        f"verify: {len(report.verdicts)} verdicts over {report.config['corpus_size']} "
        f"groups; {len(bad)} inconsistent"
    )
    print(summary, file=sys.stderr)
    for v in bad:
        print(
            f"  inconsistent: {v.claim.value} on {v.group_label} [{v.kind}] "
            f"lhs={v.lhs} rhs={v.rhs}",
            file=sys.stderr,
        )
    invariant_failures = [
        (label, kind, chk)
        for label, kind, chk in report.invariant_rows
        if chk.passed is False
    ]
    if invariant_failures:
        for label, kind, chk in invariant_failures:
            print(
                f"  INVARIANT FAILURE: {chk.invariant} on {label} [{kind}]: {chk.evidence}",
                file=sys.stderr,
            )
        return 1  # an invariant failure means the artifact itself is broken
    return 0


def _random_graph(rng: random.Random, max_n: int) -> SimpleGraph:
    n = rng.randint(2, max_n)
    p = rng.choice((0.2, 0.5, 0.8))
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u, v] = adj[v, u] = True
    return SimpleGraph(adj)


def _structured_cases(max_n: int) -> list[SimpleGraph]:
    cases = []
    for n in range(2, max_n + 1):
        cases.append(complete_graph(n))
        cases.append(star_graph(n))
        if n >= 3:
            cases.append(cycle_graph(n))
        # complete graph minus a perfect-ish matching
        km = ~np.eye(n, dtype=bool)
        for u in range(0, n - 1, 2):
            km[u, u + 1] = km[u + 1, u] = False
        cases.append(SimpleGraph(km))
    return cases


def _cmd_oracle(args: argparse.Namespace) -> int:
    if not 2 <= args.max_n <= VERTEX_ORACLE_LIMIT:
        raise SystemExit(f"--max-n must be in [2, {VERTEX_ORACLE_LIMIT}] for the vertex oracle")
    if args.trials < 0:
        raise SystemExit("--trials must be >= 0")
    rng = random.Random(args.seed)
    graphs = _structured_cases(args.max_n)
    graphs.extend(_random_graph(rng, args.max_n) for _ in range(args.trials))
    disagreements = 0
    for i, graph in enumerate(graphs):
        flow_edge = edge_connectivity(graph)
        oracle_edge = edge_connectivity_oracle(graph)
        flow_vertex = vertex_connectivity(graph)
        oracle_vertex = vertex_connectivity_oracle(graph)
        if flow_edge != oracle_edge or flow_vertex != oracle_vertex:
            disagreements += 1
            print(
                f"disagreement on graph {i} (n={graph.n}, edges={graph.edge_count}): "
                f"edge flow={flow_edge} oracle={oracle_edge}; "
                f"vertex flow={flow_vertex} oracle={oracle_vertex}"
            )
    print(
        f"oracle: checked {len(graphs)} graphs "
        f"({len(graphs) - args.trials} structured + {args.trials} random, "
        f"seed={args.seed}, max_n={args.max_n}); {disagreements} disagreements"
    )
    return 1 if disagreements else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupgraphs",
        description="group-derived graphs, exact connectivity, and claim screening",
    )
    parser.add_argument("--version", action="version", version=f"groupgraphs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="build a graph and export DOT / edge CSV")
    _add_group_kind_args(p_graph)
    p_graph.add_argument("--dot", help="write DOT to this path")
    p_graph.add_argument("--csv", help="write edge CSV to this path")
    p_graph.set_defaults(func=_cmd_graph)

    p_inv = sub.add_parser("invariants", help="print shape and connectivity invariants")
    _add_group_kind_args(p_inv)
    p_inv.set_defaults(func=_cmd_invariants)

    p_min = sub.add_parser("minimality", help="decide minimality per edge: local connectivity - 1")
    _add_group_kind_args(p_min)
    p_min.add_argument("--mode", choices=("edge", "vertex", "both"), default="both")
    p_min.add_argument(
        "--per-edge", action="store_true", help="also print per-edge values"
    )
    p_min.set_defaults(func=_cmd_minimality)

    p_verify = sub.add_parser("verify", help="screen claims over a corpus of groups")
    p_verify.add_argument("--corpus", help="file with one group spec per line")
    p_verify.add_argument("--claims", help="comma-separated claim ids (default: all)")
    p_verify.add_argument("--out", help="write the report here instead of stdout")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--order-cap", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser(
        "oracle", help="cross-check flow connectivity against brute force"
    )
    p_oracle.add_argument("--trials", type=int, default=200)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--max-n", type=int, default=9)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every subcommand but oracle builds groups and takes --order-cap
    if getattr(args, "order_cap", DEFAULT_ORDER_CAP) is None:
        args.order_cap = _default_order_cap()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
