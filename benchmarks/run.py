"""Benchmark of ``groupgraphs verify``, end to end and per layer.

    python3 benchmarks/run.py --workload stock-sweep --seed 1 --seconds 35 --trace 0

The workloads and why each was chosen are in ``workloads.py``.

Run from the root of a checkout; nothing needs building or installing, the
CLI runs from ``src/`` through ``PYTHONPATH``.

``--trace 0`` (end to end): for ``--seconds``, run ``groupgraphs verify`` on
the workload again and again, one subprocess at a time, with a
``groupgraphs --version`` (interpreter start plus imports: the set-up time)
before each of the first five.
Verify runs alternate ``--format json`` and ``--format csv``.  Reported:
median ``verify_s``, median ``setup_s``, ``graphs_per_s`` = 4 x groups /
(verify_s - setup_s), and the largest peak RSS of a verify process.

``--trace 1`` (per layer): the same loop, with one traced pass
(``traced.py``, also a fresh subprocess) after each verify run.  Reported:
the median self time of each layer over the traced passes, the work counts,
per-graph times, and ``trace.overhead_s`` = traced total - (verify_s -
setup_s).

Every verify run and traced pass is checked: exit code 0, the JSON report
valid against ``REPORT_SCHEMA``, no invariant failures, report digests and
the set of inconsistent claims equal to ``expected.json`` (recorded at the
seed commit by ``record.py``), and the work counts equal to the recorded
ones.  A run that fails any check counts in ``failed``.

The last line of stdout is the result object; the human-readable tables go
to stderr, and the full result (machine, corpus, samples, problems) and the
last trace sidecar go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import jsonschema

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_VERIFY_RUNS = 3  # end-to-end runs; a traced run needs one
MIN_SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0


def _machine(np_version: str, scipy_version: str) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np_version,
        "scipy": scipy_version,
        "commit": _git_commit(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Child:
    """Runs one subprocess at a time and measures its wall time and peak RSS."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("GROUPGRAPHS_ORDER_CAP", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, argv: list[str], stdout_path: Path) -> tuple[float, int, float, str]:
        """(wall seconds, exit code, peak RSS in MB, stderr text)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        stderr_path = stdout_path.with_suffix(".stderr")
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss / 1024.0, stderr_path.read_text()


def check_report(payload: bytes, fmt: str, expected: dict, schema: dict) -> list[str]:
    """Problems with one report; empty when it matches the recorded one."""
    problems = []
    if hashlib.sha256(payload).hexdigest() != expected[f"{fmt}_sha256"]:
        problems.append(f"{fmt} report sha256 differs from the recorded digest")
    counts = expected["counts"]
    if fmt == "json":
        try:
            doc = json.loads(payload)
            jsonschema.validate(doc, schema)
        except (ValueError, jsonschema.ValidationError) as exc:
            return problems + [f"json report invalid: {str(exc).splitlines()[0]}"]
        failed = sum(row["failed"] for row in doc["invariants"].values())
        inconsistent = sorted(c["id"] for c in doc["claims"] if c["inconsistent"])
        found = {
            "claims.groups": doc["config"]["corpus_size"],
            "claims.verdicts": sum(c["evaluated"] + c["skipped"] for c in doc["claims"]),
        }
        for layer in ("edge", "vertex"):
            row = doc["invariants"][f"ORACLE_{layer.upper()}"]
            found[f"connectivity.{layer}_oracle_runs"] = row["checked"]
            found[f"connectivity.{layer}_oracle_skips"] = row["skipped"]
        if failed:
            problems.append(f"{failed} invariant failures")
    else:
        rows = list(csv.reader(io.StringIO(payload.decode())))[1:]
        inconsistent = sorted({row[0] for row in rows if row[5] == "false"})
        found = {"claims.verdicts": len(rows)}
    if inconsistent != expected["inconsistent_claims"]:
        problems.append(f"inconsistent claims {inconsistent} != {expected['inconsistent_claims']}")
    for name, value in found.items():
        if value != counts[name]:
            problems.append(f"{name} = {value}, recorded {counts[name]}")
    return problems


def check_trace(sidecar: dict, expected: dict) -> list[str]:
    problems = []
    for fmt in ("json", "csv"):
        if sidecar[f"{fmt}_sha256"] != expected[f"{fmt}_sha256"]:
            problems.append(f"traced {fmt} report sha256 differs from the recorded digest")
    if sidecar["inconsistent_claims"] != expected["inconsistent_claims"]:
        problems.append("traced pass: inconsistent claims differ from the recorded set")
    if sidecar["invariant_failures"]:
        problems.append(f"traced pass: {sidecar['invariant_failures']} invariant failures")
    for name, value in expected["counts"].items():
        if sidecar["counts"].get(name) != value:
            problems.append(f"traced {name} = {sidecar['counts'].get(name)}, recorded {value}")
    return problems


LAYER_TIMES = (
    "cli.verify", "claims.run_corpus", "families.build_family", "groups.profile",
    "builders.build_graph", "graphs.shape_profile", "connectivity.edge_connectivity",
    "connectivity.vertex_connectivity", "minimality.edge_sweep", "minimality.vertex_sweep",
    "minimality.criterion", "connectivity.edge_oracle", "connectivity.vertex_oracle",
    "claims.sanity", "claims.evaluate", "claims.report",
)


def per_layer_metrics(sidecars: list[dict], verify_s: float, setup_s: float) -> dict:
    def median_of(get) -> float:
        return statistics.median(get(s) for s in sidecars)

    metrics = {}
    for layer in LAYER_TIMES:
        metrics[f"{layer}_s"] = (median_of(lambda s: s["self_s"].get(layer, 0.0)), "s")
    for name, value in sidecars[0]["counts"].items():
        metrics[name] = (value, "count")
    for stat in ("p50", "p90", "max"):
        metrics[f"claims.graph_ms.{stat}"] = (median_of(lambda s: s["graph_ms"][stat]), "ms")
    metrics["claims.graph_ms.count"] = (sidecars[0]["graph_ms"]["count"], "count")
    total = median_of(lambda s: s["total_s"])
    metrics["trace.total_s"] = (total, "s")
    metrics["trace.overhead_s"] = (total - (verify_s - setup_s), "s")
    return metrics


def _print_tables(workload: str, corpus: list[str], metrics: dict, info: dict) -> None:
    err = sys.stderr
    print(f"== {workload}: {len(corpus)} groups; machine {json.dumps(info['machine'])}", file=err)
    print(f"   corpus: {' '.join(corpus)}", file=err)
    for name, (value, unit) in info["end_to_end"].items():
        print(f"   {name:<34} {value:>12.4f} {unit}", file=err)
    if not info["trace"]:
        return
    total = metrics["trace.total_s"][0]
    print(f"   per-layer self time (median of {info['traced_passes']} traced passes):", file=err)
    rows = sorted(((n, v) for n, (v, u) in metrics.items()
                   if u == "s" and n[:-2] in LAYER_TIMES), key=lambda r: -r[1])
    for name, value in rows:
        print(f"   {name:<40} {value:>10.4f} s  {100 * value / total:5.1f}%", file=err)
    print(f"   {'sum of self times':<40} {sum(v for _, v in rows):>10.4f} s", file=err)
    print(f"   {'verify_s - setup_s (untraced)':<40} "
          f"{info['end_to_end']['verify_s'][0] - info['end_to_end']['setup_s'][0]:>10.4f} s",
          file=err)
    print(f"   {'trace.overhead_s':<40} {metrics['trace.overhead_s'][0]:>10.4f} s", file=err)
    for name, (value, unit) in metrics.items():
        if unit != "s":
            print(f"   {name:<40} {value:>10} {unit}", file=err)


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark groupgraphs verify")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "groupgraphs" / "cli.py").is_file():
        print(f"run.py: {SRC / 'groupgraphs'} not found; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from groupgraphs import REPORT_SCHEMA
    from workloads import expected_key, workload_inputs

    try:
        corpus, claims = workload_inputs(args.workload, args.seed)
    except ValueError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    key = expected_key(args.workload, corpus)
    recorded = json.loads((HERE / "expected.json").read_text())["workloads"]
    if key not in recorded:
        print(f"run.py: no recorded report for {key!r}", file=sys.stderr)
        return 2
    expected = recorded[key]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    corpus_file = OUT / f"{stem}.corpus"
    corpus_file.write_text("".join(spec + "\n" for spec in corpus))
    sidecar_file = OUT / f"{stem}.trace.json"
    child = Child(deadline)
    cli = [sys.executable, "-m", "groupgraphs.cli"]
    verify_argv = [*cli, "verify", "--corpus", str(corpus_file), "--claims", ",".join(claims)]
    trace_argv = [sys.executable, str(HERE / "traced.py"), "--corpus", str(corpus_file),
                  "--claims", ",".join(claims), "--sidecar", str(sidecar_file)]

    setup, verify, rss, sidecars, problems = [], [], [], [], []
    attempted = failed = 0

    def attempt(found: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if found:
            failed += 1
            problems.extend(found)

    def sample_setup() -> bool:
        seconds, code, _, _ = child.run([*cli, "--version"], OUT / f"{stem}.version.out")
        if code != 0:
            problems.append(f"groupgraphs --version exited {code}")
            return False
        setup.append(seconds)
        return True

    def iteration() -> bool:
        """A set-up sample (the first few times), a checked verify run and,
        traced, a traced pass."""
        if len(setup) < MIN_SETUP_SAMPLES and not sample_setup():
            return False
        fmt = ("json", "csv")[len(verify) % 2]
        out_file = OUT / f"{stem}.report.{fmt}"
        seconds, code, peak_mb, stderr = child.run([*verify_argv, "--format", fmt], out_file)
        verify.append(seconds)
        rss.append(peak_mb)
        if code != 0:
            attempt([f"verify --format {fmt} exited {code}: {stderr.strip()[-300:]}"])
            return False
        attempt(check_report(out_file.read_bytes(), fmt, expected, REPORT_SCHEMA))
        if args.trace:
            _, code, _, stderr = child.run(trace_argv, OUT / f"{stem}.traced.out")
            if code != 0:
                attempt([f"traced pass exited {code}: {stderr.strip()[-300:]}"])
                return False
            sidecars.append(json.loads(sidecar_file.read_text()))
            attempt(check_trace(sidecars[-1], expected))
        return True

    min_runs = 1 if args.trace else MIN_VERIFY_RUNS
    start = time.monotonic()
    previous = 0.0  # duration of the last iteration
    # start another iteration only while it should still end within --seconds
    while time.monotonic() < deadline and (
        len(verify) < min_runs or time.monotonic() - start + previous <= args.seconds
    ):
        began = time.monotonic()
        if not iteration():
            break
        previous = time.monotonic() - began
    while len(setup) < MIN_SETUP_SAMPLES and time.monotonic() < deadline and sample_setup():
        pass
    if not verify or not setup or (args.trace and not sidecars):
        print(f"run.py: no complete measurement: {problems}", file=sys.stderr)
        return 1

    verify_s = statistics.median(verify)
    setup_s = statistics.median(setup)
    end_to_end = {
        "verify_s": (verify_s, "s"),
        "setup_s": (setup_s, "s"),
        "graphs_per_s": (4 * len(corpus) / (verify_s - setup_s), "1/s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    metrics = per_layer_metrics(sidecars, verify_s, setup_s) if args.trace else end_to_end
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": _machine(numpy.__version__, scipy.__version__),
        "corpus": corpus,
        "claims": claims,
        "counts": expected["counts"],
        "end_to_end": end_to_end,
        "failed_frac": failed / attempted,
        "samples": {"verify_s": verify, "setup_s": setup, "peak_rss_mb": rss},
        "traced_passes": len(sidecars),
        "problems": problems,
    }
    _print_tables(args.workload, corpus, metrics, info)
    print(f"   {'failed_frac':<34} {failed / attempted:>12.4f} ({failed}/{attempted})",
          file=sys.stderr)
    for problem in problems:
        print(f"   FAILED CHECK: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{stem}.result.json").write_text(json.dumps({**info, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
