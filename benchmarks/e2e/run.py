"""End-to-end benchmark driver.

    python3 benchmarks/e2e/run.py --workload <name|all> [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--rows N]

Prints every metric as ``workload metric value unit`` and, as the last
line of each workload, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding the metrics ``BENCHMARK.json`` declares:
the end-to-end ones untraced, the per-layer ones with ``--trace``.  A
result file per run goes under ``--out``.  Exits non-zero when any
output check fails.  See METRICS.md for what each number means.
"""

from __future__ import annotations

import os

# One closed-loop client on a 2-core box: BLAS threads would contend
# with the interpreter thread and double the run-to-run spread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    raise SystemExit(f"{SRC}/repro not found: the benchmark runs the engine from a checkout")
for _path in (HERE, SRC):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402

from datagen import DIM, K  # noqa: E402
from spec import Spec  # noqa: E402
from trace import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    AM_FAMILY_ROWS,
    COUNTERS,
    Floor,
    RECALL_FLOOR,
    TABLE,
    WORKLOADS,
    WRITE_KINDS,
    Instance,
    Phase,
    Workload,
    am_family_sweep,
    kernel_floor_ms,
)

#: A p95 is reported only with at least ten samples beyond it.
P95_MIN_SAMPLES = 200
#: Inserts acknowledged between the last checkpoint and the crash.
CRASH_TAIL_INSERTS = 200
SCALING_STATEMENTS = 300
KERNEL_FLOOR_QUERIES = 50
#: Statement kinds a client issues (maintenance kinds are the rest).
CLIENT_KINDS = ("knn", "filtered", "insert", "modify")
ALL_KINDS = CLIENT_KINDS + ("vacuum", "checkpoint")
DEFAULT_OUT = Path("bench-results") / "e2e"


def percentile(samples: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def timing_summary(phase: Phase, spec: Spec) -> tuple[dict[str, float], dict[str, dict]]:
    """``<kind>_p50_ms`` / ``_p95_ms`` and ``ops_per_s`` as medians over
    the phase's windows, plus per kind the sample count and split-half
    medians that say whether the run was steady."""
    values = {
        "ops_per_s": statistics.median(w.attempted / w.busy_s for w in phase.windows),
    }
    details: dict[str, dict] = {}
    for kind, samples in phase.samples().items():
        per_window = [w.samples[kind] for w in phase.windows if w.samples.get(kind)]
        p50 = statistics.median(statistics.median(s) for s in per_window) * 1e3
        values[f"{kind}_p50_ms"] = p50
        # KNN is what every workload is sized for (>= 200 samples at the
        # default run length) and the driver wants its p95 from every run.
        if kind == "knn" or len(samples) >= P95_MIN_SAMPLES:
            values[f"{kind}_p95_ms"] = (
                statistics.median(percentile(s, 0.95) for s in per_window) * 1e3
            )
        half = len(samples) // 2
        first = statistics.median(samples[:half] or samples) * 1e3
        second = statistics.median(samples[half:]) * 1e3
        bound = spec.bound(f"{kind}_p50_ms")
        details[kind] = {
            "samples": len(samples),
            "p50_ms": p50,
            "first_half_p50_ms": first,
            "second_half_p50_ms": second,
            "unstable": bound is not None and abs(second - first) > bound * min(first, second),
        }
    return values, details


def layer_values(inst: Instance, tracer: Tracer, traced: Phase, untraced: Phase) -> dict[str, float]:
    """Per-layer metrics of one traced phase (see METRICS.md)."""
    count = traced.count

    def ms(kind: str, span: str) -> float:
        return tracer.self_ms((kind,), span, count(kind))

    def per_stmt(kind: str, counter: str) -> float:
        sums = traced.counters.get(kind)
        return sums[COUNTERS.index(counter)] / count(kind) if sums else 0.0

    def counted(counter: str) -> int:
        index = COUNTERS.index(counter)
        return sum(sums[index] for sums in traced.counters.values())

    statements = traced.attempted
    writes = count(*WRITE_KINDS)
    vacuums = len(traced.vacuum_s)
    accesses = counted("hits") + counted("misses")
    knn_rows = traced.rows_returned.get("knn", 0)
    strategy = {
        row[0]: row
        for row in inst.db.execute("SELECT * FROM pg_stat_filtered_search").rows
    }
    chosen = sum(row[1] for row in strategy.values())
    client_self_s = sum(
        seconds for (kind, _), seconds in tracer.self_s.items() if kind in CLIENT_KINDS
    )
    traced_samples = traced.samples()
    client_wall_s = sum(sum(samples) for samples in traced_samples.values())
    values = {
        "sql.parse_ms": ms("knn", "sql.parse"),
        "sql.parse_ms.insert": ms("insert", "sql.parse"),
        "planner.plan_ms": ms("knn", "planner.plan"),
        "planner.plan_ms.filtered": ms("filtered", "planner.plan"),
        "planner.fallbacks": float(sum(row[2] for row in strategy.values())),
        "session.self_ms": ms("knn", "session"),
        "executor.self_ms": ms("knn", "executor"),
        "executor.self_ms.filtered": ms("filtered", "executor"),
        "executor.self_ms.modify": ms("modify", "executor"),
        "executor.candidates_per_row": (
            per_stmt("knn", "candidates") * count("knn") / knn_rows if knn_rows else 0.0
        ),
        "am.search_ms": ms("knn", "am.search"),
        "am.search_ms.filtered": ms("filtered", "am.search"),
        "am.candidates_per_stmt": per_stmt("knn", "candidates"),
        "am.insert_ms": ms("insert", "am.insert"),
        "am.bulkdelete_ms": tracer.self_ms(("vacuum",), "am.bulkdelete", vacuums),
        "am.build_s": tracer.total_s.get(("build", "am.build"), 0.0),
        "heapam.fetch_ms": ms("knn", "heapam.fetch"),
        "heapam.fetches_per_stmt": per_stmt("knn", "tuples_fetched"),
        "heapam.insert_ms": ms("insert", "heapam.insert"),
        "heapam.scan_ms.modify": ms("modify", "heapam.scan"),
        "heapam.scan_ms.filtered": ms("filtered", "heapam.scan"),
        "heapam.vacuum_ms": tracer.self_ms(("vacuum",), "heapam.vacuum", vacuums),
        "buffer.self_ms": ms("knn", "buffer"),
        "buffer.accesses_per_stmt": per_stmt("knn", "hits") + per_stmt("knn", "misses"),
        "buffer.hit_ratio": counted("hits") / accesses if accesses else 0.0,
        "buffer.evictions_per_stmt": counted("evictions") / statements,
        "buffer.dirty_writebacks_per_stmt": counted("dirty_writebacks") / statements,
        "wal.append_ms": tracer.self_ms(WRITE_KINDS, "wal.append", writes),
        "wal.flush_ms": tracer.self_ms(WRITE_KINDS, "wal.flush", writes),
        "wal.bytes_per_write_stmt": (
            sum(per_stmt(kind, "wal_bytes") * count(kind) for kind in WRITE_KINDS) / writes
            if writes else 0.0
        ),
        "wal.flushes_per_write_stmt": (
            sum(per_stmt(kind, "wal_flushes") * count(kind) for kind in WRITE_KINDS) / writes
            if writes else 0.0
        ),
        "storage.read_ms": tracer.self_ms(ALL_KINDS, "storage.read", statements),
        "storage.write_ms": tracer.self_ms(ALL_KINDS, "storage.write", statements),
        "storage.reads_per_stmt": tracer.span_count(ALL_KINDS, "storage.read") / statements,
        "storage.writes_per_stmt": tracer.span_count(ALL_KINDS, "storage.write") / statements,
        "trace.overhead_ratio": (
            statistics.median(traced_samples["knn"])
            / statistics.median(untraced.samples()["knn"])
        ),
        "trace.coverage": client_self_s / client_wall_s,
    }
    for short, name in (("pre", "pre-filter"), ("post", "post-filter"), ("in", "in-filter")):
        picked = strategy[name][1] if name in strategy else 0
        values[f"planner.strategy_{short}_share"] = picked / chosen if chosen else 0.0
    return values


def traced_values(inst: Instance, tracer: Tracer, seconds: float, untraced: Phase,
                  rows: int) -> tuple[Phase, dict[str, float]]:
    """The traced half of a ``--trace`` run and what only it measures."""
    workload = inst.workload
    tracer.install([workload.am])
    try:
        traced = inst.run_phase(seconds)
    finally:
        tracer.uninstall()
    values = layer_values(inst, tracer, traced, untraced)
    if workload.durable:
        values["session.scaling_2c"], values["session.lock_wait_ms_per_stmt"] = (
            inst.scaling_probe(min(SCALING_STATEMENTS, max(traced.attempted // 2, 2)))
        )
    if workload.sweeps_am_family:
        values.update(am_family_sweep(inst, min(AM_FAMILY_ROWS, rows)))
    values["kernel.floor_ms"] = kernel_floor_ms(
        inst, round(values["am.candidates_per_stmt"]),
        untraced.recall_queries[:KERNEL_FLOOR_QUERIES],
    )
    values["am.kernel_floor_ratio"] = values["am.search_ms"] / values["kernel.floor_ms"]
    return traced, values


def measure(inst: Instance, seconds: float, spec: Spec) -> tuple[dict, dict, list[Phase], list[str]]:
    """Everything one run measures on a set-up instance: values by
    metric name, per-kind timing details, the phases, check failures."""
    workload, tracer = inst.workload, inst.tracer
    untraced = inst.run_phase(seconds / 2 if tracer else seconds)
    values, timings = timing_summary(untraced, spec)
    values["setup_s"] = inst.setup_s
    values["index_build_s"] = inst.index_build_s
    values["recall_at_10"] = untraced.recall_hits / (K * len(untraced.recall_queries))
    values["failed_share"] = untraced.failed / untraced.attempted
    if untraced.user_bytes:
        values["wal_bytes_per_user_byte"] = untraced.wal_bytes / untraced.user_bytes
    values["specialized.search_p50_ms"] = (
        statistics.median(s for w in untraced.windows for s in w.floor_s) * 1e3
    )
    values["specialized.build_s"] = inst.floor.build_s
    values["specialized.index_bytes"] = float(inst.floor.index.size_info().allocated_bytes)
    # Ratios to the specialized engine, window by window: the machine's
    # speed at that moment is in both terms and cancels.
    values["gap_vs_specialized"] = statistics.median(
        statistics.median(w.samples["knn"]) / statistics.median(w.floor_s)
        for w in untraced.windows
    )
    values["throughput_vs_specialized"] = statistics.median(
        w.attempted / w.busy_s * statistics.median(w.floor_s) for w in untraced.windows
    )
    phases = [untraced]
    if tracer:
        traced, layer = traced_values(inst, tracer, seconds / 2, untraced, inst.rows)
        phases.append(traced)
        values.update(layer)
    vacuum_s = [s for p in phases for s in p.vacuum_s]
    if vacuum_s:
        values["maintenance.vacuum_s"] = statistics.mean(vacuum_s)
        values["maintenance.checkpoint_s"] = statistics.mean(
            s for p in phases for s in p.checkpoint_s
        )
        values["maintenance.index_entries_removed"] = float(
            sum(p.index_entries_removed for p in phases)
        )
    if workload.durable:
        # Space is reported at its steady state, after a VACUUM.
        inst.db.execute(f"VACUUM {TABLE}")
    values["index_bytes_per_vector_byte"] = inst.am.size_info().allocated_bytes / (
        inst.live.count() * DIM * 4
    )
    errors = [failure for phase in phases for failure in phase.failures]
    if values["recall_at_10"] < RECALL_FLOOR:
        errors.append(f"recall_at_10 {values['recall_at_10']:.3f} < {RECALL_FLOOR}")
    if workload.durable:
        values["recovery_s"], recovery_errors = inst.crash_and_recover(CRASH_TAIL_INSERTS)
        errors += recovery_errors
        if tracer:
            values["recovery.wal_replay_s"] = tracer.total_s[("recovery", "recovery.wal_replay")]
            values["recovery.index_rebuild_s"] = tracer.total_s[("recovery", "am.build")]
    return values, timings, phases, errors


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 rows: int, out_dir: Path, spec: Spec) -> dict:
    """One run of one workload; writes and returns the result record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(prefix="data-", dir=out_dir) as data_dir:
        inst = Instance(workload, seed, rows, Path(data_dir), tracer)
        try:
            inst.floor = Floor(workload, inst)
            values, timings, phases, errors = measure(inst, seconds, spec)
        finally:
            if tracer is not None:
                tracer.uninstall()
            inst.close()
    declared = spec.per_layer if trace else spec.end_to_end
    # Per-layer names that do not apply to this workload read 0.
    metrics = {
        name: {"value": values.get(name, 0.0) if trace else values[name], "unit": m["unit"]}
        for name, m in declared.items()
    }
    record = {
        "schema": "e2e/v1",
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "rows": rows,
        "trace": int(trace),
        "correct": not errors,
        "errors": errors,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
        # Everything measured, declared for this mode or not.
        "values": {name: values[name] for name in sorted(values)},
        "timings": timings,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if trace:
        tracer.write_chrome_trace(out_dir / f"TRACE_{workload.name}.json")
    index = 0
    while (out_dir / f"{workload.name}.run{index}.json").exists():
        index += 1
    (out_dir / f"{workload.name}.run{index}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict, spec: Spec) -> None:
    """``workload metric value unit`` lines, then the contract's JSON."""
    name = record["workload"]
    if record["trace"]:
        shown = {metric: entry["value"] for metric, entry in record["metrics"].items()}
    else:
        shown = {m: v for m, v in record["values"].items() if spec.user_visible(m)}
    for metric, value in shown.items():
        print(f"{name} {metric} {value:.6g} {spec.unit(metric)}")
    for kind, detail in record["timings"].items():
        if detail["unstable"]:
            print(
                f"{name} {kind}_p50_ms unstable: first half {detail['first_half_p50_ms']:.3f} ms, "
                f"second half {detail['second_half_p50_ms']:.3f} ms"
            )
    for error in record["errors"]:
        print(f"{name} ERROR {error}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="engine time of the timed phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--rows", type=int, default=None,
                        help="table size override (default: the workload's own)")
    args = parser.parse_args(argv)
    spec = Spec()
    if set(spec.workloads) != set(WORKLOADS):
        raise SystemExit("BENCHMARK.json and workloads.py disagree on the workloads")
    seconds = args.seconds if args.seconds is not None else spec.run_seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        workload = WORKLOADS[name]
        record = run_workload(workload, args.seed, seconds, bool(args.trace),
                              args.rows or workload.rows, args.out, spec)
        report(record, spec)
        correct = correct and record["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
