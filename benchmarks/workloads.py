"""The benchmark's three workloads: a corpus of group specs plus a claim list.

Why these three (each stresses a different layer and bypasses the others):

* ``stock-sweep``: the stock corpus cut to groups of order <= 12, all 20
  claims.  The per-edge minimality sweeps do most of the work; the
  brute-force oracles do most of the rest.
* ``stock-nosweep``: the same groups, only the eight claims that read no
  sweep.  Sweeps are bypassed, so a sweep change must not move it; the
  brute-force oracles and many small max-flow calls do the work.
* ``large-nosweep``: one group per family drawn from the seed, of order
  64-199, plus ``symmetric:5``, with the same eight claims.  Few graphs, all
  above the oracle guards, so vertex and edge connectivity at large n do
  nearly all of the work.

The full stock corpus (69 groups) takes minutes per ``verify`` and would not
fit the benchmark's time budget, hence the order-12 cut.  Each draw pool of
``large-nosweep`` holds two specs of one family whose analyses cost about the
same, so the seed changes the groups but barely the amount of work; with
five pools every seed maps to one of 32 corpora, and the report digests of
all 32 are recorded in ``expected.json``.
"""

from __future__ import annotations

import random

from groupgraphs import ClaimId, build_family, default_corpus, parse_group_spec

STOCK_ORDER_LIMIT = 12

NOSWEEP_CLAIMS = (
    ClaimId.DIAM2_EDGE_EQ_MINDEG,
    ClaimId.WHITNEY,
    ClaimId.L32_COMMUTING_COMPLETE_IFF_ABELIAN,
    ClaimId.L_CP_COMPLETE_IFF_ORDER_LE_2,
    ClaimId.L34_OS_COMPLETE_IFF_PRIME,
    ClaimId.L35_NI_COMPLETE_IFF_SELF_INVERSE,
    ClaimId.L_NI_KAPPA_EQ,
    ClaimId.P_OS_NULL_IF_NONCYCLIC,
)

LARGE_POOLS = (
    ("cyclic:193", "cyclic:197"),
    ("dihedral:34", "dihedral:35"),
    ("dicyclic:17", "dicyclic:18"),
    ("ea:11,2", "ea:5,3"),
    ("product:cyclic:2*dicyclic:8", "product:cyclic:2*dihedral:16"),
)
LARGE_FIXED = ("symmetric:5",)

WORKLOADS = ("stock-sweep", "stock-nosweep", "large-nosweep")


def stock_corpus() -> list[str]:
    """Labels of the stock corpus groups of order <= STOCK_ORDER_LIMIT."""
    return [
        spec.label()
        for spec in default_corpus()
        if build_family(spec).order <= STOCK_ORDER_LIMIT
    ]


def large_corpus(seed: int) -> list[str]:
    """One spec per draw pool, chosen by ``seed``, then the fixed specs.

    Every spec is built once here, so a spec over the default order cap
    fails before any timing starts.
    """
    rng = random.Random(seed)
    specs = [rng.choice(pool) for pool in LARGE_POOLS] + list(LARGE_FIXED)
    for text in specs:
        build_family(parse_group_spec(text))
    return specs


def workload_inputs(name: str, seed: int) -> tuple[list[str], list[str]]:
    """(corpus spec labels, claim ids) for one workload and seed."""
    if name == "stock-sweep":
        return stock_corpus(), [c.value for c in ClaimId]
    if name == "stock-nosweep":
        return stock_corpus(), [c.value for c in NOSWEEP_CLAIMS]
    if name == "large-nosweep":
        return large_corpus(seed), [c.value for c in NOSWEEP_CLAIMS]
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def expected_key(name: str, corpus: list[str]) -> str:
    """Key of a workload's recorded digests and counts in expected.json."""
    if name == "large-nosweep":
        return name + ":" + " ".join(corpus)
    return name
