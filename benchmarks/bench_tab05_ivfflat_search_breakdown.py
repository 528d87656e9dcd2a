"""Table V: IVF_FLAT search-time breakdown.

Paper shape: Faiss spends ~95% in fvec_L2sqr; PASE's distance share is
much lower, with large Tuple Access and Min-heap shares.

Both profilers also keep spans: the same run yields the breakdown and
the RC#1–RC#7 attribution (from the section totals) and a chrome-trace
timeline (from the spans) emitted next to the ``BENCH_*.json`` results
for CI artifact upload.
"""

import json
import os
from pathlib import Path

import pytest

from conftest import IVF_PARAMS, K, N_QUERIES, NPROBE, emit_bench
from repro.common.obs import BENCH_DIR_ENV
from repro.common.profiling import DEFAULT_MAX_SPANS, Profiler
from repro.core.rc_attribution import attribute_profile, format_rc_breakdown
from repro.core.root_causes import RootCause
from repro.core.study import ComparativeStudy, GeneralizedVectorDB, SpecializedVectorDB


@pytest.fixture(scope="module")
def profilers(sift):
    profs = {
        "PASE": Profiler(max_spans=DEFAULT_MAX_SPANS),
        "Faiss": Profiler(max_spans=DEFAULT_MAX_SPANS),
    }
    study = ComparativeStudy(
        sift,
        "ivf_flat",
        dict(IVF_PARAMS),
        generalized=GeneralizedVectorDB(profiler=profs["PASE"]),
        specialized=SpecializedVectorDB(profiler=profs["Faiss"]),
    )
    study.compare_search(k=K, nprobe=NPROBE, n_queries=N_QUERIES)
    return profs


@pytest.fixture(scope="module")
def profiles(profilers):
    """Table V breakdown rows per engine."""
    return {
        name: {r.name: r for r in prof.breakdown()}
        for name, prof in profilers.items()
    }


def test_tab5_profiled_search(benchmark, ivf_study):
    prof = Profiler()
    ivf_study.generalized.am.profiler = prof

    def run():
        for q in ivf_study.dataset.queries[:N_QUERIES]:
            ivf_study.generalized.search(q, K, nprobe=NPROBE)

    benchmark(run)
    ivf_study.generalized.am.profiler = Profiler(enabled=False)


def test_tab5_shape_faiss_distance_dominates(profiles):
    faiss = profiles["Faiss"]
    assert faiss["fvec_L2sqr"].fraction > 0.35
    assert faiss["fvec_L2sqr"].fraction == max(r.fraction for r in faiss.values())


def test_tab5_shape_pase_tuple_access_large(profiles):
    pase = profiles["PASE"]
    assert pase["Tuple Access"].fraction > 0.2
    assert pase["Min-heap"].fraction > 0.05
    # PASE's distance share is well below Faiss's.
    assert pase["fvec_L2sqr"].fraction < profiles["Faiss"]["fvec_L2sqr"].fraction


def test_tab5_spans_agree_with_aggregate(profilers):
    """The root spans cover exactly the time the section totals hold."""
    for prof in profilers.values():
        assert prof.spans and not prof.dropped_spans
        span_total = sum(s.end - s.start for s in prof.spans if s.parent_id == 0)
        assert span_total == pytest.approx(prof.total_seconds(), rel=1e-6)


def test_tab5_rc_attribution_from_spans(profilers):
    """The paper's Table V conclusions, restated as an RC attribution."""
    pase = profilers["PASE"]
    attribution = attribute_profile(pase)
    assert attribution.buckets
    # Buckets partition the recorded span time exactly.
    assert sum(b.seconds for b in attribution.buckets) == pytest.approx(
        attribution.total_seconds
    )
    # PASE search pays RC#2 (page indirection) and RC#6 (size-n heap).
    assert attribution.seconds_for(RootCause.MEMORY_MANAGEMENT) > 0
    assert attribution.seconds_for(RootCause.HEAP_SIZE) > 0
    report = format_rc_breakdown(attribution, title="Table V (PASE, from spans):")
    assert "RC#2" in report and "RC#6" in report

    out_dir = Path(os.environ.get(BENCH_DIR_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "TRACE_tab05_ivfflat_search.json"
    trace_path.write_text(pase.to_chrome_trace() + "\n")
    json.loads(trace_path.read_text())  # artifact must be valid JSON
    emit_bench(
        "tab05_rc_breakdown",
        params=dict(IVF_PARAMS, k=K, nprobe=NPROBE, n_queries=N_QUERIES),
        counters={"spans": len(pase.spans)},
        extra={
            "rc_attribution": attribution.as_dict(),
            "report": report,
            "chrome_trace": trace_path.name,
        },
    )
