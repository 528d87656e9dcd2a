"""Overhead of per-query stats tracking (``track_query_stats`` GUC)
and of span recording (``Profiler(max_spans=DEFAULT_MAX_SPANS)``).

The observability layer's acceptance bar: snapshot/delta accounting
around every statement must stay well under 10% of a Fig. 14-style SQL
search, and recording real spans for every profiler section must stay
under 10% on the batch search path. Measured as best-of-N batch times
on vs off; the assertion bounds are deliberately looser than the
target (CI timers are noisy) and the measured ratios land in
``BENCH_obs_overhead.json`` for the CI artifact.
"""

import time

from conftest import emit_bench
from repro.bench import SMOKE
from repro.common.profiling import DEFAULT_MAX_SPANS, NULL_PROFILER, Profiler

K, NPROBE, N_QUERIES = SMOKE.search.k, SMOKE.search.nprobe, SMOKE.search.n_queries

REPEATS = 7


def _probe_sqls(study):
    sqls = []
    for q in study.dataset.queries[:N_QUERIES]:
        literal = ",".join(f"{x:.6f}" for x in q)
        sqls.append(
            f"SELECT id FROM vectors ORDER BY vec <-> '{literal}'::pase LIMIT {K}"
        )
    return sqls


def _best_batch_seconds(db, sqls):
    best = float("inf")
    for __ in range(REPEATS):
        start = time.perf_counter()
        for sql in sqls:
            db.execute(sql)
        best = min(best, time.perf_counter() - start)
    return best


def test_tracking_overhead(ivf_study):
    db = ivf_study.generalized.db
    db.execute(f"SET pase.nprobe = {NPROBE}")
    sqls = _probe_sqls(ivf_study)
    for sql in sqls:  # warm the buffer pool and plan paths
        db.execute(sql)

    db.execute("SET track_query_stats = on")
    tracked = _best_batch_seconds(db, sqls)
    db.execute("SET track_query_stats = off")
    untracked = _best_batch_seconds(db, sqls)
    db.execute("SET track_query_stats = on")

    ratio = tracked / untracked if untracked > 0 else 1.0
    emit_bench(
        "obs_overhead",
        params={"k": K, "nprobe": NPROBE, "n_queries": N_QUERIES, "repeats": REPEATS},
        latency={
            "tracked_ms": tracked / len(sqls) * 1e3,
            "untracked_ms": untracked / len(sqls) * 1e3,
        },
        extra={"overhead_ratio": ratio},
    )
    # Target is <1.10; the gate leaves headroom for shared-runner noise.
    assert ratio < 1.35, f"stats tracking overhead too high: {ratio:.2f}x"


def test_tracing_overhead(ivf_study):
    """Span recording must stay cheap on the batch search path.

    Compares best-of-N batch search times with a span-recording
    profiler installed on the PASE AM against no profiler at all — the
    full price of observability (sections + spans), not just the
    span increment.
    """
    db = ivf_study.generalized.db
    am = ivf_study.generalized.am
    db.execute(f"SET pase.nprobe = {NPROBE}")
    db.execute("SET enable_batch_exec = on")
    sqls = _probe_sqls(ivf_study)
    try:
        for sql in sqls:  # warm the buffer pool and plan paths
            db.execute(sql)

        profiler = Profiler(max_spans=DEFAULT_MAX_SPANS)
        am.profiler = profiler
        traced = _best_batch_seconds(db, sqls)
        span_count = len(profiler.spans)
        am.profiler = NULL_PROFILER
        untraced = _best_batch_seconds(db, sqls)
    finally:
        am.profiler = NULL_PROFILER
        db.execute("SET enable_batch_exec = off")

    ratio = traced / untraced if untraced > 0 else 1.0
    assert span_count > 0, "profiler recorded no spans"
    emit_bench(
        "tracing_overhead",
        params={"k": K, "nprobe": NPROBE, "n_queries": N_QUERIES, "repeats": REPEATS},
        latency={
            "traced_ms": traced / len(sqls) * 1e3,
            "untraced_ms": untraced / len(sqls) * 1e3,
        },
        counters={"spans": span_count},
        extra={"overhead_ratio": ratio},
    )
    # Target is <1.10; the gate leaves headroom for shared-runner noise.
    assert ratio < 1.35, f"span tracing overhead too high: {ratio:.2f}x"


def test_live_layer_overhead(ivf_study):
    """The live serving-observability layer must stay under 10%.

    "Live layer" = everything the PR arms on the hot path even when
    nothing fires: pg_stat_activity bookkeeping around each statement,
    a 1% recall-probe sampling decision per top-k scan, an armed (but
    never crossed) ``log_min_duration_statement`` threshold, plus one
    ``metrics_text()`` scrape per batch — the always-on production
    configuration.  Compared against every surface disabled.
    """
    db = ivf_study.generalized.db
    db.execute(f"SET pase.nprobe = {NPROBE}")
    db.execute("SET track_query_stats = off")
    sqls = _probe_sqls(ivf_study)
    try:
        for sql in sqls:  # warm the buffer pool and plan paths
            db.execute(sql)

        db.execute("SET vector_quality_probe_rate = 0")
        db.execute("SET log_min_duration_statement = -1")
        baseline = _best_batch_seconds(db, sqls)

        db.execute("SET vector_quality_probe_rate = 0.01")
        db.execute("SET log_min_duration_statement = 10000")
        live = float("inf")
        for __ in range(REPEATS):
            start = time.perf_counter()
            for sql in sqls:
                db.execute(sql)
            db.metrics_text()
            live = min(live, time.perf_counter() - start)
        scrape_bytes = len(db.metrics_text())
    finally:
        db.execute("SET vector_quality_probe_rate = 0")
        db.execute("SET log_min_duration_statement = -1")
        db.execute("SET track_query_stats = on")

    ratio = live / baseline if baseline > 0 else 1.0
    emit_bench(
        "live_obs_overhead",
        params={
            "k": K,
            "nprobe": NPROBE,
            "n_queries": N_QUERIES,
            "repeats": REPEATS,
            "probe_rate": 0.01,
        },
        latency={
            "live_ms": live / len(sqls) * 1e3,
            "baseline_ms": baseline / len(sqls) * 1e3,
        },
        counters={"scrape_bytes": scrape_bytes},
        extra={"overhead_ratio": ratio},
    )
    # Target is <1.10; the gate leaves headroom for shared-runner noise.
    assert ratio < 1.35, f"live observability overhead too high: {ratio:.2f}x"


def test_ash_sampler_overhead(ivf_study):
    """The time-series layer (ASH sampler + stat history) stays under 10%.

    Runs the search batch with the background sampler snapshotting
    every 5ms and stat-history deltas every 50ms — far more aggressive
    than the 10ms/1s production defaults — against the sampler fully
    off.  The sampler reads backend fields without taking the
    statement lock, so its cost should be near-zero for the foreground
    path; this gate catches any future regression that adds a lock
    handshake to the hot path.
    """
    db = ivf_study.generalized.db
    db.execute(f"SET pase.nprobe = {NPROBE}")
    sqls = _probe_sqls(ivf_study)
    try:
        for sql in sqls:  # warm the buffer pool and plan paths
            db.execute(sql)

        db.execute("SET ash_enable = off")
        baseline = _best_batch_seconds(db, sqls)

        db.execute("SET ash_sampling_interval_ms = 5")
        db.execute("SET stat_history_interval_ms = 50")
        db.execute("SET ash_enable = on")
        sampled = _best_batch_seconds(db, sqls)
        samples_taken = db.ash.total_samples
        ticks_taken = db.stat_history.total_ticks
    finally:
        # ivf_study's database is session-scoped: leave the sampler off
        # and the intervals back at their defaults for later benches.
        db.execute("SET ash_enable = off")
        db.execute("SET ash_sampling_interval_ms = 10")
        db.execute("SET stat_history_interval_ms = 1000")

    ratio = sampled / baseline if baseline > 0 else 1.0
    emit_bench(
        "ash_sampler_overhead",
        params={
            "k": K,
            "nprobe": NPROBE,
            "n_queries": N_QUERIES,
            "repeats": REPEATS,
            "sampling_interval_ms": 5,
            "history_interval_ms": 50,
        },
        latency={
            "sampled_ms": sampled / len(sqls) * 1e3,
            "baseline_ms": baseline / len(sqls) * 1e3,
        },
        counters={"ash_samples": samples_taken, "history_ticks": ticks_taken},
        extra={"overhead_ratio": ratio},
    )
    # Target is <1.10; the gate leaves headroom for shared-runner noise.
    assert ratio < 1.35, f"ASH sampler overhead too high: {ratio:.2f}x"
