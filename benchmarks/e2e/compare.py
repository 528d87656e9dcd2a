"""Compare two directories of benchmark results.

    python3 benchmarks/e2e/compare.py A B

``A`` is the base (parent commit), ``B`` the change.  Each directory
holds the ``<workload>.run<i>.json`` files ``run.py --out`` wrote, any
number of runs per workload.  Prints one row per workload x end-to-end
metric — both medians, the ratio B/A, the wider of the two sides'
run-to-run spreads and a verdict — and the per-layer deltas below,
unjudged.  Exits 1 when any row is ``worse``.

Verdicts use the bound ``BENCHMARK.json`` fixes for the metric:
``worse``: B's median is worse than A's by more than the bound and by
more than the spread; ``better``: B improves by more than both;
``unresolved``: the spread is wider than the bound, so "no worse"
cannot be shown; ``same`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from spec import Spec

Index = dict[tuple[str, int], dict[str, list[float]]]


def load_index(directory: Path) -> Index:
    """``(workload, trace)`` -> metric -> one value per run."""
    index: Index = {}
    for path in sorted(directory.glob("*.run*.json")):
        record = json.loads(path.read_text())
        if record.get("schema") != "e2e/v1":
            continue
        metrics = index.setdefault((record["workload"], record["trace"]), {})
        for name, value in record["values"].items():
            metrics.setdefault(name, []).append(value)
    return index


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    range with four or more runs, the full range with fewer."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(median)
    return (max(values) - min(values)) / abs(median)


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    a, b = statistics.median(base), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    if a == 0:
        return "same" if b == 0 else ("worse" if sign * b > 0 else "better")
    worse_by = sign * (b - a) / abs(a)
    noise = max(spread(base), spread(change))
    if worse_by > bound:
        return "worse" if worse_by > noise else "unresolved"
    if -worse_by > max(noise, bound):
        return "better"
    return "unresolved" if noise > bound else "same"


def compare(base: Index, change: Index, spec: Spec) -> list[str]:
    """The report's lines; a line ending in ``worse`` is a regression."""
    lines = [
        f"{'workload':22s} {'metric':30s} {'A median':>12s} {'B median':>12s} "
        f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict"
    ]
    for workload in spec.workloads:
        a_runs, b_runs = base.get((workload, 0), {}), change.get((workload, 0), {})
        for metric in sorted(set(a_runs) & set(b_runs)):
            if not spec.user_visible(metric):
                continue
            a, b = a_runs[metric], b_runs[metric]
            # failed_share has no bound: any failure is a regression.
            bound = spec.bound(metric) or 0.0
            better = "lower" if metric == "failed_share" else spec.better(metric)
            a_med, b_med = statistics.median(a), statistics.median(b)
            ratio = f"{b_med / a_med:7.3f}" if a_med else f"{'-':>7s}"
            lines.append(
                f"{workload:22s} {metric:30s} {a_med:12.5g} {b_med:12.5g} {ratio} "
                f"{max(spread(a), spread(b)):7.3f} {bound:6.2f}  {verdict(a, b, better, bound)}"
            )
    lines.append("")
    lines.append(f"{'workload':22s} {'per-layer metric':42s} {'A median':>12s} {'B median':>12s} {'B/A':>7s}")
    for workload in spec.workloads:
        a_runs, b_runs = base.get((workload, 1), {}), change.get((workload, 1), {})
        for metric in spec.per_layer:
            if metric not in a_runs or metric not in b_runs:
                continue
            a_med, b_med = statistics.median(a_runs[metric]), statistics.median(b_runs[metric])
            ratio = f"{b_med / a_med:7.3f}" if a_med else f"{'-':>7s}"
            lines.append(f"{workload:22s} {metric:42s} {a_med:12.5g} {b_med:12.5g} {ratio}")
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    lines = compare(load_index(Path(argv[0])), load_index(Path(argv[1])), Spec())
    print("\n".join(lines))
    return 1 if any(line.endswith(" worse") for line in lines) else 0


if __name__ == "__main__":
    raise SystemExit(main())
