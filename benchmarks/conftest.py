"""Shared fixtures for the per-figure/table benchmark suite.

Each ``bench_*`` file regenerates one artifact of the paper at a
micro scale chosen so the whole suite runs in minutes.  Builds that
several figures share (notably the slow page-backed HNSW build) are
session-scoped fixtures.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.common.datasets import Dataset, load_dataset
from repro.common.obs import write_bench_json
from repro.common.profiling import Profiler
from repro.common.types import BuildStats
from repro.core.study import ComparativeStudy, GeneralizedVectorDB, SpecializedVectorDB

#: Scale relative to the paper's dataset sizes (SIFT1M -> 1000 rows).
BENCH_SCALE = 1e-3

#: Smaller still for graph builds, which dominate suite runtime.
HNSW_SCALE = 6e-4

IVF_PARAMS = {"clusters": 24, "sample_ratio": 0.25, "seed": 42}
PQ_PARAMS = {"clusters": 24, "m": 16, "c_pq": 32, "sample_ratio": 0.5, "seed": 42}
HNSW_PARAMS = {"bnn": 12, "efb": 32, "seed": 42}

#: PASE/Faiss build pairs behind each paired HNSW build-time gate.
BUILD_PAIRS = 3

K = 20
NPROBE = 8
EFS = 60
N_QUERIES = 8


@pytest.fixture(scope="session")
def sift() -> Dataset:
    return load_dataset("sift1m", scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def deep() -> Dataset:
    return load_dataset("deep1m", scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def sift_hnsw() -> Dataset:
    return load_dataset("sift1m", scale=HNSW_SCALE)


def build_study(dataset: Dataset, index_type: str, params: dict) -> ComparativeStudy:
    study = ComparativeStudy(dataset, index_type, dict(params))
    study.compare_build()
    return study


@pytest.fixture(scope="session")
def ivf_study(sift) -> ComparativeStudy:
    """IVF_FLAT built on both engines (shared by search/size benches)."""
    return build_study(sift, "ivf_flat", IVF_PARAMS)


@pytest.fixture(scope="session")
def pq_study(sift) -> ComparativeStudy:
    return build_study(sift, "ivf_pq", PQ_PARAMS)


@pytest.fixture(scope="session")
def hnsw_study(sift_hnsw) -> ComparativeStudy:
    return build_study(sift_hnsw, "hnsw", HNSW_PARAMS)


def alternating_hnsw_builds(
    dataset: Dataset, profiled: bool = False
) -> list[dict[str, tuple[BuildStats, Profiler | None]]]:
    """:data:`BUILD_PAIRS` PASE and Faiss HNSW builds of ``dataset`` in
    this process, alternating which engine builds first, so that a slow
    spell on a shared machine lands on both sides of a ratio.  Returns,
    per pair, engine name -> (build stats, its profiler when ``profiled``)."""
    engines = {"PASE": GeneralizedVectorDB, "Faiss": SpecializedVectorDB}
    out = []
    for i in range(BUILD_PAIRS):
        pair = {}
        for name in ("PASE", "Faiss") if i % 2 == 0 else ("Faiss", "PASE"):
            profiler = Profiler() if profiled else None
            engine = engines[name](profiler=profiler)
            engine.load(dataset.base)
            pair[name] = (engine.create_index("hnsw", **HNSW_PARAMS), profiler)
        out.append(pair)
    return out


def search_batch(engine, queries, k=K, **opts) -> None:
    """One timed unit of work: a small query batch on one engine."""
    for q in queries:
        engine.search(q, k, **opts)


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
    counters/gauges (histogram series dropped — they would bloat the
    JSON); ``slow_queries`` is the top-5 of ``pg_slow_queries`` with
    plan text omitted, so a bench's uploaded result carries the
    statements that were slowest in it.
    """
    from repro.common.metrics_export import parse_exposition

    snapshot: dict[str, float] = {}
    for sample in parse_exposition(db.metrics_text()).samples:
        if sample.name.endswith(("_bucket", "_sum", "_count")):
            continue
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
