"""Hybrid filtered vector search: three-way strategy sweep.

Sweeps ``WHERE a < cut ORDER BY vec <-> q LIMIT k`` over filter
selectivities of 0.1%, 1%, 10%, 50% and 90%, timing each of the three
filtered-search strategies (pre-filter, post-filter, in-filter) forced
through the ``filtered_search_strategy`` GUC plus the planner's
cost-based ``auto`` pick.  Asserts the crossover the optimizer exists
to exploit — pre-filter empirically fastest at <= 1% selectivity,
post- or in-filter fastest at >= 50% — and that auto's regret stays
within 25% at every swept selectivity.  Regret is a paired ratio
measured in this process: query by query, auto and the per-point
fastest forced strategy run back to back (alternating which goes
first), and the median of the per-query ratios is gated, so a noisy
moment on a shared machine spoils one pair rather than the verdict.
Reports pooled auto-mode per-query latency through the repro-bench/v1
schema plus per-strategy medians, the regrets and the strategy each
selectivity chose.
"""

import statistics
import time

from conftest import emit_bench
from repro.common.datasets import tiny_dataset
from repro.pgsim import PgSimDatabase

N = 2000
DIM = 16
#: k equals the 1%-selectivity match count (20 of 2000 rows), so the
#: in-filter traversal cannot stop early at the low end of the sweep —
#: surfacing every match means widening across nearly all lists, which
#: is exactly the regime where pre-filter's single heap pass wins.
K = 20
N_QUERIES = 6
#: Fraction of rows satisfying ``a < cut`` (a is uniform 0..999).
SELECTIVITIES = (0.001, 0.01, 0.10, 0.50, 0.90)
STRATEGIES = ("pre-filter", "post-filter", "in-filter")
#: Auto's median per-query regret over the fastest forced strategy.
AUTO_WINDOW = 1.25
#: Passes over the queries for the paired regret (one ratio per query
#: per pass).
PAIRED_ROUNDS = 3

INDEX_OPTIONS = "clusters = 16, sample_ratio = 1.0, seed = 42"


def _build_db() -> tuple[PgSimDatabase, list[str]]:
    """Load the shared micro dataset, index it, ANALYZE, return queries."""
    dataset = tiny_dataset(n=N, dim=DIM, n_queries=N_QUERIES, seed=1234)
    db = PgSimDatabase(buffer_pool_pages=512)
    db.execute("CREATE TABLE items (a INT4, vec FLOAT4[])")
    table = db.catalog.table("items")
    for i, vec in enumerate(dataset.base):
        table.heap.insert([i % 1000, vec], xid=1)
    db.wal.log_commit(1)
    db.execute(f"CREATE INDEX ix ON items USING pase_ivfflat (vec) WITH ({INDEX_OPTIONS})")
    db.execute("ANALYZE items")
    db.execute("SET pase.nprobe = 4")
    queries = [",".join(f"{x:.6f}" for x in q) for q in dataset.queries]
    return db, queries


def _hybrid_sql(literal: str, cut: int) -> str:
    return (
        f"SELECT a FROM items WHERE a < {cut} "
        f"ORDER BY vec <-> '{literal}'::PASE LIMIT {K}"
    )


def _median_latency(db: PgSimDatabase, queries: list[str], cut: int) -> float:
    """Median per-query latency (seconds) after one warm-up pass."""
    for literal in queries:
        db.execute(_hybrid_sql(literal, cut))
    samples: list[float] = []
    for literal in queries:
        sql = _hybrid_sql(literal, cut)
        start = time.perf_counter()
        rows = db.query(sql)
        samples.append(time.perf_counter() - start)
        # Exact-k acceptance: each value of a occurs N/1000 times, so
        # cut * N/1000 rows match the filter.
        matching = cut * N // 1000
        assert len(rows) == min(K, matching), (cut, len(rows))
        assert all(a < cut for (a,) in rows)
    return statistics.median(samples)


def _paired_regret(
    db: PgSimDatabase, queries: list[str], cut: int, fastest: str
) -> tuple[float, list[float]]:
    """Median of auto's latency over ``fastest``'s, per query, each pair
    run back to back in alternating order; also auto's latencies."""
    ratios: list[float] = []
    auto_latencies: list[float] = []
    try:
        for round_no in range(PAIRED_ROUNDS):
            for i, literal in enumerate(queries):
                sql = _hybrid_sql(literal, cut)
                order = ("auto", fastest) if (round_no + i) % 2 == 0 else (fastest, "auto")
                seconds = {}
                for strategy in order:
                    db.execute(f"SET filtered_search_strategy = '{strategy}'")
                    start = time.perf_counter()
                    db.query(sql)
                    seconds[strategy] = time.perf_counter() - start
                ratios.append(seconds["auto"] / seconds[fastest])
                auto_latencies.append(seconds["auto"])
    finally:
        db.execute("SET filtered_search_strategy = 'auto'")
    return statistics.median(ratios), auto_latencies


def _auto_strategy(db: PgSimDatabase, sql: str) -> str:
    for line in db.explain(sql).splitlines():
        line = line.strip().lstrip("-> ")
        if line.startswith("Strategy:"):
            return line.split(":", 1)[1].strip()
    raise AssertionError("EXPLAIN output has no Strategy line")


def test_hybrid_filtered_search_sweep():
    """Time the three-way sweep, check the crossover, emit bench JSON."""
    db, queries = _build_db()
    auto_latencies: list[float] = []
    medians: dict[str, float] = {}
    regrets: dict[str, float] = {}
    picks: dict[str, str] = {}
    for sel in SELECTIVITIES:
        cut = max(1, round(sel * 1000))
        per_strategy: dict[str, float] = {}
        for strategy in STRATEGIES:
            db.execute(f"SET filtered_search_strategy = '{strategy}'")
            try:
                per_strategy[strategy] = _median_latency(db, queries, cut)
            finally:
                db.execute("SET filtered_search_strategy = 'auto'")
        picks[f"sel{sel:g}"] = _auto_strategy(db, _hybrid_sql(queries[0], cut))
        # Warm pass inside _median_latency keeps auto's numbers honest.
        auto_median = _median_latency(db, queries, cut)

        fastest = min(per_strategy, key=per_strategy.get)
        for strategy, median in per_strategy.items():
            medians[f"sel{sel:g}_{strategy}_ms"] = median * 1e3
        medians[f"sel{sel:g}_auto_ms"] = auto_median * 1e3

        # The three-way crossover itself.
        if sel <= 0.01:
            assert fastest == "pre-filter", (sel, per_strategy)
        if sel >= 0.50:
            assert fastest in ("post-filter", "in-filter"), (sel, per_strategy)
        # Auto's paired regret against the per-point fastest.
        regret, paired_auto = _paired_regret(db, queries, cut, fastest)
        auto_latencies += paired_auto
        regrets[f"sel{sel:g}"] = regret
        assert regret <= AUTO_WINDOW, (sel, picks[f"sel{sel:g}"], fastest, regret, per_strategy)

    path = emit_bench(
        "hybrid_filtered_search",
        params={
            "n": N,
            "dim": DIM,
            "k": K,
            "n_queries": N_QUERIES,
            "selectivities": list(SELECTIVITIES),
            "strategies": list(STRATEGIES),
            "index": f"pase_ivfflat ({INDEX_OPTIONS}), nprobe = 4",
        },
        latencies_seconds=auto_latencies,
        extra={"per_strategy_median_ms": medians, "auto_regret": regrets, "auto_picks": picks},
    )
    assert path.exists()
