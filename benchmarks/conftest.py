"""Shared fixtures for the benchmark suite.

``bench_paper_figures.py`` runs every paper figure at :data:`repro.bench.SMOKE`
(SIFT1M -> 1000 rows); the other ``bench_*`` files measure workloads
beyond the paper on the same preset.  The session-scoped studies are
the preset's memoized builds (:meth:`repro.bench.Scale.study`), so the
figures and these benches share one build of each index.

Run with::

    pytest benchmarks/ -k shape
"""

from __future__ import annotations

import pytest

from repro.bench import SMOKE
from repro.common.datasets import Dataset
from repro.common.obs import write_bench_json
from repro.core.study import ComparativeStudy


@pytest.fixture(scope="session")
def sift() -> Dataset:
    return SMOKE.dataset("sift1m")


@pytest.fixture(scope="session")
def ivf_study() -> ComparativeStudy:
    """IVF_FLAT built on both engines (shared with the search/size figures)."""
    return SMOKE.study("sift1m", "ivf_flat")[0]


@pytest.fixture(scope="session")
def hnsw_study() -> ComparativeStudy:
    return SMOKE.study("sift1m", "hnsw")[0]


def emit_bench(workload: str, **kwargs):
    """Write the unified ``BENCH_<workload>.json`` result file.

    Thin alias for :func:`repro.common.obs.write_bench_json` so every
    bench module reports through one schema; the output directory
    follows ``$BENCH_RESULTS_DIR`` (CI sets it to the artifact dir).
    """
    return write_bench_json(workload, **kwargs)


def metrics_extras(db) -> dict:
    """Observability attachment for a bench's ``extra`` block.

    ``metrics_snapshot`` is the final scrape flattened to plain
    counters/gauges; ``slow_queries`` is the top-5 of ``pg_slow_queries`` with
    plan text omitted, so a bench's uploaded result carries the
    statements that were slowest in it.
    """
    from repro.common.metrics_export import parse_exposition

    snapshot: dict[str, float] = {}
    for sample in parse_exposition(db.metrics_text()).samples:
        key = sample.name
        if sample.labels:
            key += "{" + ",".join(f"{k}={v}" for k, v in sorted(sample.labels.items())) + "}"
        snapshot[key] = sample.value
    slow = [
        {
            "query": rec.query,
            "kind": rec.kind,
            "session": rec.session,
            "elapsed_ms": rec.elapsed_ms,
            "rows": rec.rows,
            "rc_top": rec.rc_top(),
        }
        for rec in db.slowlog.top(5)
    ]
    return {"metrics_snapshot": snapshot, "slow_queries": slow}
