"""Overhead of the observability layers on a Fig. 14-style SQL search.

Four gates, each an on/off pair: per-query stats tracking
(``track_query_stats``), span recording
(``Profiler(max_spans=DEFAULT_MAX_SPANS)``), the live layer (activity
bookkeeping, armed probes and logging, one scrape per batch) and the
ASH sampler.  Every gate is a :func:`~repro.common.metrics.paired`
in-process ratio: each repeat times the "on" and the "off" batch back
to back, alternating which goes first, and the gate is the median of
the per-pair ratios, so drift in the machine's speed (a cold cache, a
neighbour's load) cancels inside each pair instead of landing on one
side; an "off" batch that reads 0 s gives an infinite ratio, a failed
gate.  The target is < 1.10; the bound leaves headroom for
shared-runner noise.  The ratios and the per-pair values land in
``BENCH_*.json`` for the CI artifact.
"""

import statistics
import time

from conftest import emit_bench
from repro.bench import SMOKE
from repro.common.metrics import paired, pairs_detail
from repro.common.profiling import DEFAULT_MAX_SPANS, NULL_PROFILER, Profiler

K, NPROBE, N_QUERIES = SMOKE.search.k, SMOKE.search.nprobe, SMOKE.search.n_queries

#: On/off pairs per gate (odd, so the median is one pair's ratio).
PAIRS = 15

#: Gate on the median per-pair on/off ratio.
BOUND = 1.35


def _probe_sqls(study):
    sqls = []
    for q in study.dataset.queries[:N_QUERIES]:
        literal = ",".join(f"{x:.6f}" for x in q)
        sqls.append(
            f"SELECT id FROM vectors ORDER BY vec <-> '{literal}'::pase LIMIT {K}"
        )
    return sqls


def _batch_seconds(db, sqls, then=None):
    """Wall time of one pass over ``sqls`` (plus ``then()``, if given)."""
    start = time.perf_counter()
    for sql in sqls:
        db.execute(sql)
    if then is not None:
        then()
    return time.perf_counter() - start


def _gate(workload, what, sqls, on_key, off_key, pairs, counters=None, **params):
    """Write ``workload``'s BENCH json from the on (``a``) / off (``b``)
    :func:`paired` batches, print every pair, and gate the median
    per-pair ratio."""
    overhead = pairs.median()
    emit_bench(
        workload,
        params={"k": K, "nprobe": NPROBE, "n_queries": N_QUERIES, "pairs": PAIRS, **params},
        latency={
            on_key: statistics.median(pairs.a) / len(sqls) * 1e3,
            off_key: statistics.median(pairs.b) / len(sqls) * 1e3,
        },
        counters=counters,
        extra={"overhead_ratio": overhead, "pair_ratios": pairs.ratios()},
    )
    message = f"{what} overhead: median {overhead:.2f}x ({pairs_detail(pairs.ratios())})"
    print(message)
    assert overhead < BOUND, message


def _warm(db, sqls):
    for sql in sqls:  # warm the buffer pool and plan paths
        db.execute(sql)


def test_tracking_overhead(ivf_study):
    db = ivf_study.generalized.db
    db.execute(f"SET pase.nprobe = {NPROBE}")
    sqls = _probe_sqls(ivf_study)
    _warm(db, sqls)

    def tracked():
        db.execute("SET track_query_stats = on")
        return _batch_seconds(db, sqls)

    def untracked():
        db.execute("SET track_query_stats = off")
        return _batch_seconds(db, sqls)

    try:
        pairs = paired(tracked, untracked, PAIRS)
    finally:
        db.execute("SET track_query_stats = on")

    _gate("obs_overhead", "stats tracking", sqls, "tracked_ms", "untracked_ms", pairs)


def test_tracing_overhead(ivf_study):
    """Span recording must stay cheap on the batch search path.

    Compares batch search with a span-recording profiler installed on
    the PASE AM against no profiler at all — the full price of
    observability (sections + spans), not just the span increment.
    """
    db = ivf_study.generalized.db
    am = ivf_study.generalized.am
    db.execute(f"SET pase.nprobe = {NPROBE}")
    db.execute("SET enable_batch_exec = on")
    sqls = _probe_sqls(ivf_study)
    span_counts = []

    def traced():
        profiler = am.profiler = Profiler(max_spans=DEFAULT_MAX_SPANS)
        seconds = _batch_seconds(db, sqls)
        span_counts.append(len(profiler.spans))
        return seconds

    def untraced():
        am.profiler = NULL_PROFILER
        return _batch_seconds(db, sqls)

    try:
        _warm(db, sqls)
        pairs = paired(traced, untraced, PAIRS)
    finally:
        am.profiler = NULL_PROFILER
        db.execute("SET enable_batch_exec = off")

    assert min(span_counts) > 0, "profiler recorded no spans"
    _gate(
        "tracing_overhead", "span tracing", sqls, "traced_ms", "untraced_ms", pairs,
        counters={"spans": span_counts[0]},
    )


def test_live_layer_overhead(ivf_study):
    """The live serving-observability layer must stay under 10%.

    "Live layer" = everything armed on the hot path even when nothing
    fires: pg_stat_activity bookkeeping around each statement, a 1%
    recall-probe sampling decision per top-k scan, an armed (but never
    crossed) ``log_min_duration_statement`` threshold, plus one
    ``metrics_text()`` scrape per batch — the always-on production
    configuration.  Compared against every surface disabled.
    """
    db = ivf_study.generalized.db
    db.execute(f"SET pase.nprobe = {NPROBE}")
    db.execute("SET track_query_stats = off")
    sqls = _probe_sqls(ivf_study)

    def live():
        db.execute("SET vector_quality_probe_rate = 0.01")
        db.execute("SET log_min_duration_statement = 10000")
        return _batch_seconds(db, sqls, then=db.metrics_text)

    def baseline():
        db.execute("SET vector_quality_probe_rate = 0")
        db.execute("SET log_min_duration_statement = -1")
        return _batch_seconds(db, sqls)

    try:
        _warm(db, sqls)
        pairs = paired(live, baseline, PAIRS)
        scrape_bytes = len(db.metrics_text())
    finally:
        db.execute("SET vector_quality_probe_rate = 0")
        db.execute("SET log_min_duration_statement = -1")
        db.execute("SET track_query_stats = on")

    _gate(
        "live_obs_overhead", "live observability", sqls, "live_ms", "baseline_ms", pairs,
        counters={"scrape_bytes": scrape_bytes}, probe_rate=0.01,
    )


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
    db.execute("SET ash_sampling_interval_ms = 5")
    db.execute("SET stat_history_interval_ms = 50")
    sqls = _probe_sqls(ivf_study)
    samples0, ticks0 = db.ash.total_samples, db.stat_history.total_ticks

    def sampled():
        db.execute("SET ash_enable = on")
        return _batch_seconds(db, sqls)

    def unsampled():
        db.execute("SET ash_enable = off")
        return _batch_seconds(db, sqls)

    try:
        _warm(db, sqls)
        pairs = paired(sampled, unsampled, PAIRS)
    finally:
        # ivf_study's database is session-scoped: leave the sampler off
        # and the intervals back at their defaults for later benches.
        db.execute("SET ash_enable = off")
        db.execute("SET ash_sampling_interval_ms = 10")
        db.execute("SET stat_history_interval_ms = 1000")

    _gate(
        "ash_sampler_overhead", "ASH sampler", sqls, "sampled_ms", "baseline_ms", pairs,
        counters={
            "ash_samples": db.ash.total_samples - samples0,
            "history_ticks": db.stat_history.total_ticks - ticks0,
        },
        sampling_interval_ms=5, history_interval_ms=50,
    )
