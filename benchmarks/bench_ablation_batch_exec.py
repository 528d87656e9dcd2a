"""RC#3 ablation: tuple-at-a-time vs batch (amgetbatch) execution.

The paper pins part of the search gap on PostgreSQL's ``amgettuple``
interface: one index-AM call, one heap round trip, one heap-tuple
decode per candidate.  ``SET enable_batch_exec = on`` switches pgsim
to the ``get_batch`` contract (candidates as NumPy arrays, heap
fetches grouped by block), quantified here on the Fig. 14 (IVF_FLAT)
and Fig. 17 (HNSW) search workloads.

The three shape gates are :func:`~repro.common.metrics.paired`
in-process ratios: each pair times the tuple and the batch pass back to
back, alternating which goes first, and the gate is the median of the
per-pair ratios, so drift in the machine's speed cancels inside each
pair instead of landing on one side.

Run with::

    pytest benchmarks/bench_ablation_batch_exec.py -k shape -rA
"""

import statistics
import time

from repro.bench import SMOKE
from repro.common.metrics import paired, pairs_detail

K, NPROBE, EFS, N_QUERIES = (
    SMOKE.search.k, SMOKE.search.nprobe, SMOKE.search.efs, SMOKE.search.n_queries
)

#: Tuple/batch pairs per shape gate (odd, so the median is one pair's ratio).
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


def _seconds(study, batch: bool, run) -> float:
    _with_batch_exec(study, batch)
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _speedup(study, run, claim: str) -> tuple[float, str]:
    """``PAIRS`` paired tuple/batch timings of ``run()``; leaves the
    tuple path selected.  Returns the median per-pair tuple/batch ratio
    and the gate's message, printed so that a pass records it too (CI
    runs with -rA): how far RC#3's factor sits from the gate."""
    try:
        pairs = paired(
            lambda: _seconds(study, False, run), lambda: _seconds(study, True, run), PAIRS
        )
    finally:
        _with_batch_exec(study, False)
    message = (
        f"{claim}: median of {PAIRS} pairs {pairs.median():.2f}x "
        f"(tuple {statistics.median(pairs.a) * 1e3:.1f} ms, "
        f"batch {statistics.median(pairs.b) * 1e3:.1f} ms; {pairs_detail(pairs.ratios())})"
    )
    print(message)
    return pairs.median(), message


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

    speedup, message = _speedup(
        ivf_study, lambda: _search_all(gen, queries, nprobe=NPROBE),
        "batch execution should be >=2x on Fig. 14",
    )
    assert speedup >= 2.0, message


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
    speedup, message = _speedup(
        ivf_study, run_all, "batch execution should be >=2x through SQL on Fig. 14"
    )
    assert speedup >= 2.0, message


def test_batch_exec_shape_hnsw(hnsw_study):
    """HNSW gains less (graph walk stays tuple-wise) but must not
    regress, and results stay identical."""
    queries = hnsw_study.dataset.queries[:N_QUERIES]
    gen = hnsw_study.generalized

    _with_batch_exec(hnsw_study, False)
    tuple_ids = _search_all(gen, queries, efs=EFS)
    _with_batch_exec(hnsw_study, True)
    batch_ids = _search_all(gen, queries, efs=EFS)
    _with_batch_exec(hnsw_study, False)
    assert batch_ids == tuple_ids

    speedup, message = _speedup(
        hnsw_study, lambda: _search_all(gen, queries, efs=EFS),
        "batch path should not regress HNSW search (batch < 1.2x tuple)",
    )
    # batch < 1.2 x tuple  <=>  tuple/batch > 1/1.2
    assert speedup > 1 / 1.2, message
