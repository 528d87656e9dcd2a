"""Every paper figure's shape, at smoke scale.

Each registered experiment id (Figs. 2-19, Tables III-V, the ablation
sweep, the recall check) is built once by the same ``build`` that
``repro-bench -e ID`` runs, at :data:`repro.bench.SMOKE` (SIFT1M ->
1000 rows), and every verdict of its ``shape`` must hold.  Fig. 14
and Table V also write their CI artifacts (``BENCH_*.json`` and a
chrome trace) to ``$BENCH_RESULTS_DIR``.

Run with::

    pytest benchmarks/bench_paper_figures.py
    pytest benchmarks/bench_paper_figures.py -k "fig14 or tab5"
"""

import json
import os
from pathlib import Path

import pytest

from conftest import emit_bench
from repro.bench import EXPERIMENTS, SMOKE
from repro.common.obs import BENCH_DIR_ENV


@pytest.fixture(scope="module")
def rows():
    """Figure id -> its rows at SMOKE, built on first use."""
    built: dict = {}

    def get(exp_id: str) -> dict:
        if exp_id not in built:
            built[exp_id] = EXPERIMENTS[exp_id].build(SMOKE)
        return built[exp_id]

    return get


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_shape(exp_id, rows):
    verdicts = EXPERIMENTS[exp_id].shape(rows(exp_id))
    assert verdicts, f"{exp_id} has no shape verdicts"
    assert all(v.ok for v in verdicts), "\n".join(map(str, verdicts))


def test_fig14_bench_json():
    """Report the PASE side of the Fig. 14 index through the unified
    BENCH_*.json schema, with the counter deltas the observability
    layer attributes to the query batch."""
    search = SMOKE.search
    study, __ = SMOKE.study(SMOKE.datasets[0], "ivf_flat")
    gen = study.generalized
    queries = study.dataset.queries[: search.n_queries]
    buffers_before = gen.db.buffer.stats.snapshot()
    scans_before = gen.am.scan_stats.snapshot()
    latencies = [gen.search(q, search.k, nprobe=search.nprobe).elapsed_seconds for q in queries]
    path = emit_bench(
        "fig14_ivfflat_search",
        params={
            "engine": gen.name,
            "dataset": study.dataset.name,
            "k": search.k,
            "nprobe": search.nprobe,
            "n_queries": len(queries),
        },
        latencies_seconds=latencies,
        counters={
            "buffer": gen.db.buffer.stats.delta(buffers_before),
            "index": gen.am.scan_stats.delta(scans_before),
        },
    )
    assert path.exists()


def test_tab5_artifacts(rows):
    """Table V's PASE spans as a chrome trace, and its RC attribution
    through the BENCH_*.json schema."""
    tab5 = rows("tab5")
    search = SMOKE.search
    out_dir = Path(os.environ.get(BENCH_DIR_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "TRACE_tab05_ivfflat_search.json"
    trace_path.write_text(tab5["chrome_trace"] + "\n")
    json.loads(trace_path.read_text())  # artifact must be valid JSON
    emit_bench(
        "tab05_rc_breakdown",
        params=dict(
            SMOKE.params["ivf_flat"], k=search.k, nprobe=search.nprobe, n_queries=search.n_queries
        ),
        counters={"spans": tab5["spans"]["PASE"]["kept"]},
        extra={
            "rc_attribution": tab5["rc_attribution"],
            "report": tab5["rc_report"],
            "chrome_trace": trace_path.name,
        },
    )
