"""Recall under streaming churn: the paper's missing maintenance axis.

The figures in the paper benchmark freshly built indexes; this bench
measures what a long-lived deployment sees instead.  For IVF_FLAT and
HNSW it bulk-loads a base table, builds the index, then drives an
interleaved UPDATE/DELETE/INSERT/k-NN stream (op count controlled by
``$CHURN_STRESS_OPS`` — CI's soak knob) and records recall@10 against
a brute-force oracle at four checkpoints:

- **fresh** — right after the build (the paper's number);
- **post_churn** — after the stream, tombstones still in the index
  (the snapshot filter hides them, at extra candidate cost);
- **post_vacuum** — after VACUUM compacts lists / repairs the graph;
- **rebuild** — a fresh index over the identical final data, the
  upper bound VACUUM is held to (within 2 points, same criterion as
  ``tests/test_churn.py``).

Search latency is sampled throughout the churn stream, so the emitted
``BENCH_recall_under_churn.json`` (repro-bench/v1, a CI artifact)
also tracks the p99 cost of searching through tombstones.
"""

import os
import time

import numpy as np

from conftest import emit_bench, metrics_extras
from repro.bench.report import write_report
from repro.common.datasets import tiny_dataset
from repro.pgsim import PgSimDatabase

N = 400
DIM = 16
K = 10
NPROBE = 6
N_QUERIES = 16
CHURN_OPS = int(os.environ.get("CHURN_STRESS_OPS", "120"))

AMS = {
    "pase_ivfflat": "WITH (clusters = 12, sample_ratio = 0.5, seed = 42)",
    "pase_hnsw": "WITH (bnn = 8, efb = 40, seed = 42)",
}

#: op-kind wheel per 8 churn ops: 3 updates, 2 deletes, 1 insert, 2 searches.
WHEEL = (
    "update", "delete", "search", "update",
    "insert", "delete", "update", "search",
)


def _lit(vec: np.ndarray) -> str:
    return ",".join(f"{x:.6f}" for x in np.asarray(vec, dtype=np.float32))


def _recall(db: PgSimDatabase, live: dict[int, np.ndarray], queries) -> float:
    hits = 0
    for q in queries:
        got = [
            r[0]
            for r in db.query(
                f"SELECT id FROM items ORDER BY vec <-> '{_lit(q)}'::PASE LIMIT {K}"
            )
        ]
        truth = sorted(live, key=lambda i: (float(np.sum((live[i] - q) ** 2)), i))[:K]
        hits += len(set(got) & set(truth))
    return hits / (K * len(queries))


def _run_am(am: str, opts: str, latencies: list[float]) -> dict:
    dataset = tiny_dataset(n=N, dim=DIM, n_queries=N_QUERIES, seed=7)
    rng = np.random.default_rng(7)
    db = PgSimDatabase(buffer_pool_pages=512)
    db.execute("CREATE TABLE items (id INT4, vec FLOAT4[])")
    table = db.catalog.table("items")
    live: dict[int, np.ndarray] = {}
    for i, vec in enumerate(dataset.base):
        table.heap.insert([i, vec], xid=1)
        live[i] = np.asarray(vec, dtype=np.float32)
    db.wal.log_commit(1)
    db.execute(f"CREATE INDEX ix ON items USING {am} (vec) {opts}")
    db.execute("ANALYZE items")
    db.execute(f"SET pase.nprobe = {NPROBE}")
    db.execute("SET enable_seqscan = off")
    # Live observability on for the whole churn run: every statement
    # logs (the top-5 ride along in the BENCH JSON), and a quarter of
    # the top-k scans are re-answered by the brute-force oracle into
    # pg_stat_vector_quality — the online counterpart of the explicit
    # recall checkpoints below.
    db.execute("SET log_min_duration_statement = 0")
    db.execute("SET vector_quality_probe_rate = 0.25")
    db.execute("SET vector_quality_probe_seed = 7")
    # Time-series layer on as well: the ASH sampler and stat-history
    # ring run across the whole churn stream and land in the workload
    # report artifact written by the test body.
    db.execute("SET ash_sampling_interval_ms = 2")
    db.execute("SET stat_history_interval_ms = 50")
    db.execute("SET estimation_probe_rate = 0.25")
    db.execute("SET estimation_probe_seed = 7")
    db.execute("SET ash_enable = on")
    queries = [np.asarray(q, dtype=np.float32) for q in dataset.queries]

    def churn_vector() -> np.ndarray:
        # Stay in-distribution: perturb a random base row rather than
        # sampling fresh noise, like re-embedding a drifting document.
        base = dataset.base[int(rng.integers(0, len(dataset.base)))]
        return (base + 0.05 * rng.normal(size=DIM)).astype(np.float32)

    result = {"recall_fresh": _recall(db, live, queries)}
    next_id = N
    counts = {"update": 0, "delete": 0, "insert": 0, "search": 0}
    for op in range(CHURN_OPS):
        kind = WHEEL[op % len(WHEEL)]
        if kind in ("update", "delete") and not live:
            kind = "insert"
        if kind == "update":
            target = int(rng.choice(list(live)))
            vec = churn_vector()
            db.execute(f"UPDATE items SET vec = '{_lit(vec)}'::PASE WHERE id = {target}")
            live[target] = vec
        elif kind == "delete":
            target = int(rng.choice(list(live)))
            db.execute(f"DELETE FROM items WHERE id = {target}")
            del live[target]
        elif kind == "insert":
            vec = churn_vector()
            db.execute(f"INSERT INTO items VALUES ({next_id}, '{_lit(vec)}'::PASE)")
            live[next_id] = vec
            next_id += 1
        else:
            q = queries[op % len(queries)]
            start = time.perf_counter()
            db.query(
                f"SELECT id FROM items ORDER BY vec <-> '{_lit(q)}'::PASE LIMIT {K}"
            )
            latencies.append(time.perf_counter() - start)
        counts[kind] += 1

    result["recall_post_churn"] = _recall(db, live, queries)
    result["n_dead_before_vacuum"] = table.heap.n_dead_tup
    db.execute("VACUUM items")
    result["recall_post_vacuum"] = _recall(db, live, queries)
    db.execute("DROP INDEX ix")
    db.execute(f"CREATE INDEX ix ON items USING {am} (vec) {opts}")
    result["recall_rebuild"] = _recall(db, live, queries)
    result.update({f"ops_{kind}": n for kind, n in counts.items()})
    # Columns: index, am, probes, mean_recall, min_recall, last_recall
    # ("index" is reserved in the SQL grammar, hence SELECT *).
    result["online_quality"] = [
        {"index": row[0], "am": row[1], "probes": row[2], "mean_recall": row[3]}
        for row in db.query("SELECT * FROM pg_stat_vector_quality")
    ]
    result.update(metrics_extras(db))
    db.execute("SET ash_enable = off")  # joins the sampler thread
    result["ash_samples"] = db.ash.total_samples
    # Per-AM workload report artifact (uploaded by CI): joins the ASH
    # wait profile, stat history, slow queries, estimation errors and
    # online recall for this churn run.
    report_path = write_report(db, f"churn_{am}")
    assert report_path.exists()
    db.close()
    return result


def test_recall_under_churn():
    latencies: list[float] = []
    per_am = {am: _run_am(am, opts, latencies) for am, opts in AMS.items()}

    for am, r in per_am.items():
        # The acceptance bar from tests/test_churn.py, re-checked at
        # bench scale: VACUUM restores recall to ~rebuild quality.
        assert r["recall_post_vacuum"] >= r["recall_rebuild"] - 0.02, (am, r)

    path = emit_bench(
        "recall_under_churn",
        params={
            "n": N,
            "dim": DIM,
            "k": K,
            "nprobe": NPROBE,
            "churn_ops": CHURN_OPS,
            "n_queries": N_QUERIES,
            "ams": sorted(AMS),
        },
        latencies_seconds=latencies,
        counters={
            f"{am}_{key}": r[key]
            for am, r in per_am.items()
            for key in ("n_dead_before_vacuum", "ops_update", "ops_delete")
        },
        extra=per_am,
    )
    assert path.exists()
