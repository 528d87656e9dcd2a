"""Concurrent mixed workload: open-loop multi-session throughput.

Four worker threads, each with its own `Session`, drive a precomputed
open-loop arrival schedule (target QPS) of mixed traffic -- vector
k-NN searches, autocommit inserts, and deletes of each client's own
rows -- against one `PgSimDatabase`.  Latency is measured against the
*scheduled* arrival time (completion minus arrival), so queueing
behind the global statement lock counts, exactly like an overloaded
server would show it.  The statement-lock contention recorded by the
session layer is reported alongside the latency percentiles.

Emits ``BENCH_concurrent_mixed.json`` (repro-bench/v1, uploaded as a
CI artifact) with p50/p99 overall and per-operation-type, achieved vs target
QPS, and the wait-event breakdown.
"""

import threading
import time

from conftest import emit_bench, metrics_extras
from repro.bench.report import write_report
from repro.common.datasets import tiny_dataset
from repro.pgsim import PgSimDatabase
from repro.pgsim.xact import SerializationError

N = 400
DIM = 16
K = 10
NPROBE = 8
N_THREADS = 4
N_OPS = 160
TARGET_QPS = 200.0

#: op-kind wheel: 6 searches, 1 insert, 1 delete per 8 ops.
INSERT_SLOT = 3
DELETE_SLOT = 7


def _build_db() -> tuple[PgSimDatabase, list[str]]:
    dataset = tiny_dataset(n=N, dim=DIM, n_queries=8, seed=99)
    db = PgSimDatabase(buffer_pool_pages=512)
    db.execute("CREATE TABLE items (id INT4, vec FLOAT4[])")
    table = db.catalog.table("items")
    for i, vec in enumerate(dataset.base):
        table.heap.insert([i, vec], xid=1)
    db.wal.log_commit(1)
    db.execute(
        "CREATE INDEX ix ON items USING pase_ivfflat (vec) "
        "WITH (clusters = 16, sample_ratio = 0.5, seed = 42)"
    )
    db.execute("ANALYZE items")
    db.execute(f"SET pase.nprobe = {NPROBE}")
    literals = [",".join(f"{x:.6f}" for x in v) for v in dataset.base]
    return db, literals


def _op_kind(op: int) -> str:
    slot = op % 8
    if slot == INSERT_SLOT:
        return "insert"
    if slot == DELETE_SLOT:
        return "delete"
    return "search"


def test_concurrent_mixed_open_loop():
    db, literals = _build_db()
    search_sql = [
        f"SELECT id FROM items ORDER BY vec <-> '{lit}'::PASE LIMIT {K}"
        for lit in literals[:8]
    ]
    # Warm plans and buffers single-threaded before the clock starts.
    for sql in search_sql:
        db.query(sql)
    # Statement logging on for the contended phase: the slowest
    # statements land in pg_slow_queries and ride along in the BENCH
    # JSON.
    db.execute("SET log_min_duration_statement = 0")
    # Time-series layer on for the contended phase: the ASH sampler
    # snapshots backend states (including SessionStatementLock waits),
    # stat history records counter deltas, and estimation probes feed
    # pg_stat_estimation_errors — all of it lands in the workload
    # report attached as a CI artifact below.
    db.execute("SET ash_sampling_interval_ms = 2")
    db.execute("SET stat_history_interval_ms = 50")
    db.execute("SET estimation_probe_rate = 0.25")
    db.execute("SET ash_enable = on")

    samples: dict[str, list[float]] = {"search": [], "insert": [], "delete": []}
    lock = threading.Lock()
    errors: list[Exception] = []
    conflicts = [0]
    start = time.perf_counter()

    def worker(tid: int) -> None:
        session = db.session(f"client-{tid}")
        inserted: list[int] = []
        local: list[tuple[str, float]] = []
        try:
            for op in range(tid, N_OPS, N_THREADS):
                kind = _op_kind(op)
                if kind == "insert":
                    row_id = N + op
                    sql = f"INSERT INTO items VALUES ({row_id}, '{literals[op % N]}'::PASE)"
                elif kind == "delete" and inserted:
                    sql = f"DELETE FROM items WHERE id = {inserted.pop(0)}"
                elif kind == "delete":
                    kind = "search"
                    sql = search_sql[op % len(search_sql)]
                else:
                    sql = search_sql[op % len(search_sql)]
                arrival = op / TARGET_QPS
                delay = start + arrival - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    session.execute(sql)
                except SerializationError:
                    with lock:
                        conflicts[0] += 1
                    continue
                if kind == "insert":
                    inserted.append(N + op)
                local.append((kind, time.perf_counter() - (start + arrival)))
        except Exception as exc:  # pragma: no cover - failure detail
            with lock:
                errors.append(exc)
        with lock:
            for kind, latency in local:
                samples[kind].append(latency)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    db.execute("SET ash_enable = off")  # joins the sampler thread
    assert not errors, errors[0]

    all_samples = [lat for kinds in samples.values() for lat in kinds]
    n_done = len(all_samples)
    assert n_done + conflicts[0] == N_OPS

    # Serial oracle for the final committed state: the base load plus
    # every acknowledged insert minus every acknowledged delete.
    expected = N + len(samples["insert"]) - len(samples["delete"])
    count = db.execute("SELECT count(*) FROM items").scalar()
    assert count == expected, (count, expected)

    waits = {
        row[1]: {"type": row[0], "count": row[2], "total_ms": row[3]}
        for row in db.query(
            "SELECT wait_event_type, wait_event, count, total_ms FROM pg_stat_wait_events"
        )
    }
    contention = waits.get("SessionStatementLock", {"count": 0, "total_ms": 0.0})

    def pct(kind: str, q: float) -> float:
        ordered = sorted(samples[kind])
        if not ordered:
            return 0.0
        return ordered[min(int(q * len(ordered)), len(ordered) - 1)] * 1e3

    path = emit_bench(
        "concurrent_mixed",
        params={
            "n": N,
            "dim": DIM,
            "k": K,
            "nprobe": NPROBE,
            "threads": N_THREADS,
            "ops": N_OPS,
            "target_qps": TARGET_QPS,
        },
        latencies_seconds=all_samples,
        counters={
            "searches": len(samples["search"]),
            "inserts": len(samples["insert"]),
            "deletes": len(samples["delete"]),
            "serialization_conflicts": conflicts[0],
            "stmt_lock_waits": contention["count"],
        },
        extra={
            "achieved_qps": n_done / elapsed if elapsed > 0 else 0.0,
            "stmt_lock_wait_ms": contention["total_ms"],
            "per_kind_ms": {
                f"{kind}_p50_ms": pct(kind, 0.50) for kind in samples
            }
            | {f"{kind}_p99_ms": pct(kind, 0.99) for kind in samples},
            "wait_events": waits,
        }
        | metrics_extras(db)
        | {
            "ash_samples": db.ash.total_samples,
            "history_ticks": db.stat_history.total_ticks,
            "estimation_records": db.executor.estimation.total_recorded,
        },
    )
    assert path.exists()

    # Workload report artifact: the one-page join of ASH, stat
    # history, slow queries, estimation errors, and recall quality,
    # uploaded by CI next to the BENCH JSON.
    report_path = write_report(db, "concurrent_mixed")
    assert report_path.exists()
    report_text = report_path.read_text()
    assert "pg_wait_profile" in report_text
    assert "pg_stat_estimation_errors" in report_text
    db.close()
