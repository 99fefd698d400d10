"""One traced in-process ``verify`` pass: spans per layer, work counts, sidecar.

The pass does what ``groupgraphs verify --corpus FILE --claims IDS`` does
(parse the corpus, ``run_corpus``, serialise JSON and CSV) with each public
call wrapped in a span: name, start, end, parent span and the (group, kind)
it works on.  Spans stay in memory and are written to the sidecar at the end,
together with the per-layer self times (a span minus its children) and the
work counts.  Nothing inside the package is edited: the wrappers replace the
names the ``claims`` module looks up at call time and are removed afterwards.

Run as a script (``PYTHONPATH=src python3 benchmarks/traced.py --corpus FILE
--claims IDS --sidecar OUT.json``) so that it starts cold, like the CLI.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from groupgraphs import ClaimId, FiniteGroup, parse_group_spec, run_corpus
from groupgraphs import claims as claims_module

ROOT_SPAN = "cli.verify"


class Tracer:
    """In-memory span recorder; spans nest by call order (single thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, id]
        self._stack: list[int] = []
        self.graph_ids: dict[int, str] = {}
        self.counts: Counter = Counter(dict.fromkeys((
            "claims.graphs", "connectivity.nonedge_pairs",
            "minimality.edges_swept", "minimality.violating_edges"), 0))

    def span(self, name: str, ident: str | None, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, ident]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, ident_of, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, ident_of(*args, **kwargs), fn, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return traced

    def graph_id(self, graph) -> str | None:
        return self.graph_ids.get(id(graph))


def _patches(tracer: Tracer) -> list[tuple[object, str, str, object, object]]:
    """(owner, attribute, span name, id function, after hook) per wrapped call."""
    on_graph = lambda graph, *a, **k: tracer.graph_id(graph)  # noqa: E731

    def build_graph_id(group, kind, *a, **k):
        return f"{group.label} [{kind}]"

    def register_graph(graph, group, kind):
        tracer.graph_ids[id(graph)] = build_graph_id(group, kind)
        tracer.counts["claims.graphs"] += 1

    def count_nonedges(kappa, graph):
        # kappa is 0 exactly when the graph is disconnected or a single vertex,
        # the cases that return before scanning any pair
        if kappa > 0:
            tracer.counts["connectivity.nonedge_pairs"] += (
                graph.n * (graph.n - 1) // 2 - graph.edge_count
            )

    def count_sweep(verdict, graph):
        tracer.counts["minimality.edges_swept"] += len(verdict.per_edge_values)
        tracer.counts["minimality.violating_edges"] += len(verdict.violating_edges)

    return [
        (claims_module, "build_family", "families.build_family",
         lambda spec, *a, **k: spec.label(), None),
        (FiniteGroup, "profile", "groups.profile", lambda group: group.label, None),
        (claims_module, "build_graph", "builders.build_graph", build_graph_id, register_graph),
        (claims_module, "shape_profile", "graphs.shape_profile", on_graph, None),
        (claims_module, "edge_connectivity", "connectivity.edge_connectivity", on_graph, None),
        (claims_module, "vertex_connectivity", "connectivity.vertex_connectivity",
         on_graph, count_nonedges),
        (claims_module, "is_minimally_edge_connected", "minimality.edge_sweep",
         on_graph, count_sweep),
        (claims_module, "is_minimally_connected", "minimality.vertex_sweep",
         on_graph, count_sweep),
        (claims_module, "dominating_vertex_criterion", "minimality.criterion", on_graph, None),
        (claims_module, "edge_connectivity_oracle", "connectivity.edge_oracle", on_graph, None),
        (claims_module, "vertex_connectivity_oracle", "connectivity.vertex_oracle",
         on_graph, None),
        (claims_module, "evaluate_claim", "claims.evaluate",
         lambda claim, group: group.label, None),
        (claims_module, "_sanity_checks", "claims.sanity",
         lambda analysis: tracer.graph_id(analysis.graph), None),
    ]


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def traced_verify(corpus: list[str], claims: list[str]) -> dict:
    """Run one traced verify pass and return the sidecar document."""
    tracer = Tracer()
    patches = _patches(tracer)
    saved = []
    unwrapped = []
    for owner, attr, name, ident_of, after in patches:
        if not hasattr(owner, attr):
            unwrapped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            continue
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, ident_of, after))

    def verify():
        specs = [parse_group_spec(text) for text in corpus]
        claim_ids = [ClaimId(c) for c in claims]
        report = tracer.span("claims.run_corpus", None, run_corpus, specs, claim_ids)
        payload_json = tracer.span("claims.report", None, report.to_json)
        payload_csv = tracer.span("claims.report", None, report.to_csv)
        return report, payload_json, payload_csv

    try:
        report, payload_json, payload_csv = tracer.span(ROOT_SPAN, None, verify)
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    spans = tracer.spans
    own = _self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    per_graph: dict[str, float] = defaultdict(float)
    for (name, _, _, _, ident), seconds in zip(spans, own):
        self_s[name] += seconds
        if ident is not None and ident.endswith("]"):
            per_graph[ident] += seconds
    invariants = report.invariant_summary()
    counts = dict(tracer.counts)
    counts["claims.groups"] = report.config["corpus_size"]
    counts["claims.verdicts"] = len(report.verdicts)
    for layer, row in (("edge", invariants["ORACLE_EDGE"]), ("vertex", invariants["ORACLE_VERTEX"])):
        counts[f"connectivity.{layer}_oracle_runs"] = row["checked"]
        counts[f"connectivity.{layer}_oracle_skips"] = row["skipped"]
    graph_ms = sorted(1000.0 * s for s in per_graph.values())
    origin = spans[0][1]
    return {
        "total_s": spans[0][2] - spans[0][1],
        "self_s": dict(self_s),
        "counts": counts,
        "graph_ms": {
            "p50": statistics.median(graph_ms),
            "p90": _nearest_rank(graph_ms, 0.9),
            "max": graph_ms[-1],
            "count": len(graph_ms),
        },
        "slowest_graphs_ms": dict(
            sorted(((k, 1000.0 * v) for k, v in per_graph.items()), key=lambda kv: -kv[1])[:5]
        ),
        "json_sha256": hashlib.sha256(payload_json.encode()).hexdigest(),
        "csv_sha256": hashlib.sha256(payload_csv.encode()).hexdigest(),
        "inconsistent_claims": sorted({v.claim.value for v in report.inconsistent_verdicts()}),
        "invariant_failures": sum(row["failed"] for row in invariants.values()),
        "unwrapped": unwrapped,
        "spans": [
            {"name": name, "start": start - origin, "end": end - origin,
             "parent": parent, "id": ident}
            for name, start, end, parent, ident in spans
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True, help="file with one group spec per line")
    parser.add_argument("--claims", required=True, help="comma-separated claim ids")
    parser.add_argument("--sidecar", required=True, help="write the trace JSON here")
    args = parser.parse_args(argv)
    corpus = [line.strip() for line in Path(args.corpus).read_text().splitlines() if line.strip()]
    sidecar = traced_verify(corpus, args.claims.split(","))
    Path(args.sidecar).write_text(json.dumps(sidecar, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
