"""RC#3 ablation: tuple-at-a-time vs batch (amgetbatch) execution.

The paper pins part of the search gap on PostgreSQL's ``amgettuple``
interface: one index-AM call, one heap round trip, one heap-tuple
decode per candidate.  ``SET enable_batch_exec = on`` switches pgsim
to the ``get_batch`` contract (candidates as NumPy arrays, heap
fetches grouped by block), quantified here on the Fig. 14 (IVF_FLAT)
and Fig. 17 (HNSW) search workloads.

Run with::

    pytest benchmarks/bench_ablation_batch_exec.py --benchmark-only
"""

import time

from conftest import EFS, K, N_QUERIES, NPROBE


def _search_all(engine, queries, **opts) -> list[list[int]]:
    return [
        [n.vector_id for n in engine.search(q, K, **opts).neighbors]
        for q in queries
    ]


def _with_batch_exec(study, enabled: bool):
    study.generalized.db.execute(
        f"SET enable_batch_exec = {'on' if enabled else 'off'}"
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
    assert batch_ids == tuple_ids, "batch path changed search results"

    def best_of(flag: bool, reps: int = 5) -> float:
        _with_batch_exec(ivf_study, flag)
        best = float("inf")
        for __ in range(reps):
            start = time.perf_counter()
            _search_all(gen, queries, nprobe=NPROBE)
            best = min(best, time.perf_counter() - start)
        return best

    tuple_t = best_of(False)
    batch_t = best_of(True)
    _with_batch_exec(ivf_study, False)
    speedup = tuple_t / batch_t
    assert speedup >= 2.0, (
        f"batch execution should be >=2x on Fig. 14: tuple {tuple_t * 1e3:.1f} ms, "
        f"batch {batch_t * 1e3:.1f} ms ({speedup:.2f}x)"
    )


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

    def best_of(flag: bool, reps: int = 5) -> float:
        _with_batch_exec(ivf_study, flag)
        best = float("inf")
        for __ in range(reps):
            start = time.perf_counter()
            run_all()
            best = min(best, time.perf_counter() - start)
        return best

    try:
        _with_batch_exec(ivf_study, False)
        tuple_rows = run_all()
        _with_batch_exec(ivf_study, True)
        assert run_all() == tuple_rows, "batch path changed query results"
        tuple_t = best_of(False)
        batch_t = best_of(True)
    finally:
        _with_batch_exec(ivf_study, False)
    speedup = tuple_t / batch_t
    assert speedup >= 2.0, (
        f"batch execution should be >=2x through SQL on Fig. 14: tuple "
        f"{tuple_t * 1e3:.1f} ms, batch {batch_t * 1e3:.1f} ms ({speedup:.2f}x)"
    )


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
