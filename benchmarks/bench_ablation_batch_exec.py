"""RC#3 ablation: tuple-at-a-time vs batch (amgetbatch) execution.

The paper pins part of the search gap on PostgreSQL's ``amgettuple``
interface: one index-AM call, one heap round trip, one heap-tuple
decode per candidate.  ``SET enable_batch_exec = on`` switches pgsim
to the ``get_batch`` contract (candidates as NumPy arrays, heap
fetches grouped by block), quantified here on the Fig. 14 (IVF_FLAT)
and Fig. 17 (HNSW) search workloads.

The two Fig. 14 gates are paired in-process ratios, as in
``bench_obs_overhead.py``: each pair times the tuple and the batch pass
back to back, alternating which goes first, and the gate is the median
of the per-pair ratios, so drift in the machine's speed cancels inside
each pair instead of landing on one side.

Run with::

    pytest benchmarks/bench_ablation_batch_exec.py --benchmark-only
"""

import statistics
import time

from repro.bench import SMOKE

K, NPROBE, EFS, N_QUERIES = (
    SMOKE.search.k, SMOKE.search.nprobe, SMOKE.search.efs, SMOKE.search.n_queries
)

#: Tuple/batch pairs per Fig. 14 gate (odd, so the median is one pair's ratio).
PAIRS = 7


def _search_all(engine, queries, **opts) -> list[list[int]]:
    return [
        [n.vector_id for n in engine.search(q, K, **opts).neighbors]
        for q in queries
    ]


def _with_batch_exec(study, enabled: bool):
    study.generalized.db.execute(
        f"SET enable_batch_exec = {'on' if enabled else 'off'}"
    )


def _paired_speedup(study, run) -> tuple[float, float, float, list[float]]:
    """``PAIRS`` tuple/batch pairs of ``run()``, alternating which side
    goes first.  Returns the median per-pair tuple/batch ratio, the
    median seconds of each side and the per-pair ratios; leaves the
    tuple path selected."""

    def seconds(batch: bool) -> float:
        _with_batch_exec(study, batch)
        start = time.perf_counter()
        run()
        return time.perf_counter() - start

    tuple_s, batch_s, ratios = [], [], []
    try:
        for pair in range(PAIRS):
            if pair % 2 == 0:
                t, b = seconds(False), seconds(True)
            else:
                b, t = seconds(True), seconds(False)
            tuple_s.append(t)
            batch_s.append(b)
            ratios.append(t / b)
    finally:
        _with_batch_exec(study, False)
    return statistics.median(ratios), statistics.median(tuple_s), statistics.median(batch_s), ratios


def _gate_message(where: str, result) -> str:
    speedup, tuple_t, batch_t, ratios = result
    return (
        f"batch execution should be >=2x {where}: median of {PAIRS} pairs {speedup:.2f}x "
        f"(tuple {tuple_t * 1e3:.1f} ms, batch {batch_t * 1e3:.1f} ms; "
        f"pairs {', '.join(f'{r:.2f}' for r in ratios)})"
    )


# ----------------------------------------------------------------------
# Fig. 14 workload (IVF_FLAT on SIFT)
# ----------------------------------------------------------------------
def test_ivfflat_search_tuple_path(benchmark, ivf_study):
    _with_batch_exec(ivf_study, False)
    benchmark(
        _search_all,
        ivf_study.generalized,
        ivf_study.dataset.queries[:N_QUERIES],
        nprobe=NPROBE,
    )


def test_ivfflat_search_batch_path(benchmark, ivf_study):
    _with_batch_exec(ivf_study, True)
    try:
        benchmark(
            _search_all,
            ivf_study.generalized,
            ivf_study.dataset.queries[:N_QUERIES],
            nprobe=NPROBE,
        )
    finally:
        _with_batch_exec(ivf_study, False)


# ----------------------------------------------------------------------
# Fig. 17 workload (HNSW on SIFT)
# ----------------------------------------------------------------------
def test_hnsw_search_tuple_path(benchmark, hnsw_study):
    _with_batch_exec(hnsw_study, False)
    benchmark(
        _search_all,
        hnsw_study.generalized,
        hnsw_study.dataset.queries[:N_QUERIES],
        efs=EFS,
    )


def test_hnsw_search_batch_path(benchmark, hnsw_study):
    _with_batch_exec(hnsw_study, True)
    try:
        benchmark(
            _search_all,
            hnsw_study.generalized,
            hnsw_study.dataset.queries[:N_QUERIES],
            efs=EFS,
        )
    finally:
        _with_batch_exec(hnsw_study, False)


# ----------------------------------------------------------------------
# Shape: the batch path is a pure win on Fig. 14
# ----------------------------------------------------------------------
def test_batch_exec_shape(ivf_study):
    """>=2x faster on the IVF_FLAT Fig. 14 workload, identical rows."""
    queries = ivf_study.dataset.queries[:N_QUERIES]
    gen = ivf_study.generalized

    _with_batch_exec(ivf_study, False)
    tuple_ids = _search_all(gen, queries, nprobe=NPROBE)
    _with_batch_exec(ivf_study, True)
    batch_ids = _search_all(gen, queries, nprobe=NPROBE)
    _with_batch_exec(ivf_study, False)
    assert batch_ids == tuple_ids, "batch path changed search results"

    result = _paired_speedup(ivf_study, lambda: _search_all(gen, queries, nprobe=NPROBE))
    # Printed on a pass too (CI runs with -rA): the record of how far
    # RC#3's factor sits above the gate.
    message = _gate_message("on Fig. 14", result)
    print(message)
    assert result[0] >= 2.0, message


def test_batch_exec_shape_sql(ivf_study):
    """The same gate through the executor: ``engine.search`` above calls
    the AM directly, so this is what shows the toggle still selects the
    per-tuple interface once a statement is parsed, planned and run."""
    gen = ivf_study.generalized
    gen.db.execute(f"SET pase.nprobe = {NPROBE}")
    statements = [
        f"SELECT id FROM {gen.table_name} ORDER BY vec <-> "
        f"'{','.join(f'{x:.6f}' for x in q)}'::PASE LIMIT {K}"
        for q in ivf_study.dataset.queries[:N_QUERIES]
    ]

    def run_all() -> list[list[tuple]]:
        return [gen.db.query(sql) for sql in statements]

    try:
        _with_batch_exec(ivf_study, False)
        tuple_rows = run_all()
        _with_batch_exec(ivf_study, True)
        assert run_all() == tuple_rows, "batch path changed query results"
    finally:
        _with_batch_exec(ivf_study, False)
    result = _paired_speedup(ivf_study, run_all)
    message = _gate_message("through SQL on Fig. 14", result)
    print(message)
    assert result[0] >= 2.0, message


def test_batch_exec_shape_hnsw(hnsw_study):
    """HNSW gains less (graph walk stays tuple-wise) but must not
    regress, and results stay identical."""
    queries = hnsw_study.dataset.queries[:N_QUERIES]
    gen = hnsw_study.generalized

    _with_batch_exec(hnsw_study, False)
    tuple_ids = _search_all(gen, queries, efs=EFS)
    _with_batch_exec(hnsw_study, True)
    batch_ids = _search_all(gen, queries, efs=EFS)
    assert batch_ids == tuple_ids

    def best_of(flag: bool, reps: int = 5) -> float:
        _with_batch_exec(hnsw_study, flag)
        best = float("inf")
        for __ in range(reps):
            start = time.perf_counter()
            _search_all(gen, queries, efs=EFS)
            best = min(best, time.perf_counter() - start)
        return best

    tuple_t = best_of(False)
    batch_t = best_of(True)
    _with_batch_exec(hnsw_study, False)
    assert batch_t < tuple_t * 1.2, (
        f"batch path regressed HNSW search: tuple {tuple_t * 1e3:.1f} ms, "
        f"batch {batch_t * 1e3:.1f} ms"
    )
