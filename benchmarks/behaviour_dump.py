"""Deterministic behaviour dump of the seven vector access methods and
of hybrid search and DML through SQL.

    PYTHONPATH=src python benchmarks/behaviour_dump.py [--rows N] [--queries Q]
        [--pool-pages P] > dump.txt

Builds one seeded table per IVF access method (``pase_ivfflat``,
``pase_ivfpq``, ``pase_ivfsq8``, pgvector's ``ivfflat``,
``bridged_ivfflat``) and index metric (``distance_type`` 0 / 1 / 2:
L2, inner product, cosine; ``pase_ivfpq`` and ``pase_ivfsq8`` score in L2
only and refuse the others), and one per HNSW access method
(``pase_hnsw``, ``bridged_hnsw``; L2 only, at a fixed ``pase.efs``), and
walks it through three states — fresh, after
200 single-row INSERTs, after DELETE of 30 % of the rows + VACUUM — and
in each state drives every AM search entry point directly: ``scan``,
``get_batch``, ``amrescan_continue[_batch]`` and
``amsearch_filtered[_batch]`` at 1 / 10 / 50 % selectivity (the batch
form's mask takes packed TID keys, the tuple form's TIDs; both judge
by one verdict function).  Each call
prints one line: result TIDs, ``repr`` of every distance, candidates
scored, ``last_filtered_examined`` and buffer pins; each state adds a
``size_info`` line and a ``pages`` line: one SHA-256 over every block of
every fork in ``relations()`` order, as the buffer pool holds it (all
but the checksum field, which only write-back stamps), so a diff covers
the on-page bytes too.

The ``sql`` lines that follow come from one more table with an ``a``
column and a NULL ``note`` in every seventh row: ``WHERE a < s ORDER BY
vec <-> q LIMIT k`` at 1 / 10 / 50 % selectivity under each forced
filtered-search strategy and both ``enable_batch_exec`` values — output
rows, the examined / matched counts the statement feeds
``pg_stat_filtered_search``, buffer pins — then ``UPDATE`` / ``DELETE
... WHERE`` with single and compound predicates (command tag, pins, a
table checksum) and the hybrid statements again.

The ``spec`` lines close the dump: the specialized (Faiss-side)
``IVFFlatIndex`` / ``IVFPQIndex`` / ``IVFSQ8Index`` built on the same
rows for each ``distance_type`` the variant accepts x ``use_sgemm`` on /
off x ``kmeans_style`` faiss / pase, plus IVF_PQ with
``optimized_pctable`` off.  Each build prints SHA-256s of the centroids
and of every list's ids and codes in list order, ``bucket_sizes``, the
``size_info`` detail and the build's distance count; each query its ids,
``repr`` distances and distance count; one profiled search its section
names and entry counts (no seconds); IVF_FLAT and IVF_PQ also
``parallel_search``'s ids and each work unit's ``serial_ops``.  No
clock is read, so the output is a pure function of the arguments.

Use it as an oracle around a refactor: run it at the parent commit and
at the change and ``diff`` the two files — every differing line is a
behaviour change to explain.  Two runs at one commit must be
byte-identical, and so must a run with ``--pool-pages 16``, where every
reader works through eviction (CI checks both with ``cmp``).  The rows
are loaded under one transaction, the WAL flushed after each so that
even a small pool may evict them.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro.bridged  # noqa: E402,F401  — registers bridged_ivfflat, bridged_hnsw
import repro.pase  # noqa: E402,F401  — registers the pase_* access methods
import repro.pgvector  # noqa: E402,F401  — registers ivfflat
import repro.specialized.parallel as spec_parallel  # noqa: E402
from repro.common.profiling import Profiler  # noqa: E402
from repro.common.types import DistanceType  # noqa: E402
from repro.pgsim import PgSimDatabase  # noqa: E402
from repro.pgsim.heapam import TID  # noqa: E402
from repro.specialized import IVFFlatIndex, IVFPQIndex, IVFSQ8Index  # noqa: E402

#: AM name -> extra WITH options.
AMS = {
    "pase_ivfflat": "",
    "pase_ivfpq": ", m = 4, c_pq = 16",
    "pase_ivfsq8": "",
    "ivfflat": "",
    "bridged_ivfflat": "",
}
#: HNSW access method -> WITH options.  L2 only: the graph ranks by L2
#: and HNSW refuses any other ``distance_type``.
HNSW_AMS = {"pase_hnsw": "bnn = 8, efb = 32", "bridged_hnsw": "bnn = 8, efb = 32"}
EFS = 40
#: metric label -> ``distance_type``.  Inner product and cosine score
#: rows with BLAS sgemv, whose rounding depends on how many rows one
#: call holds, so they see drift the L2 kernel cannot.
METRICS = {"l2": 0, "ip": 1, "cosine": 2}
#: IVF access methods that refuse a non-L2 ``distance_type``.
L2_ONLY_AMS = {"pase_ivfpq", "pase_ivfsq8"}
K, K_CONTINUE, NPROBE = 10, 30, 4
SELECTIVITIES = (1, 10, 50)
INSERTS = 200
DIM, SEED = 32, 1


def _lit(vec: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in np.asarray(vec, dtype=np.float32))


def _data(rows: int, queries: int) -> tuple[np.ndarray, ...]:
    """Base rows, extra insert rows and queries from one Gaussian mixture."""
    rng = np.random.default_rng(SEED)
    centers = rng.normal(size=(max(rows // 100, 4), DIM)) * 4.0

    def draw(n: int) -> np.ndarray:
        picks = centers[rng.integers(0, centers.shape[0], n)]
        return (picks + rng.normal(size=(n, DIM))).astype(np.float32)

    return draw(rows), draw(INSERTS), draw(queries)


class Dump:
    """One access method's table, index and the lines it prints."""

    def __init__(
        self, name: str, am_name: str, options: str, base: np.ndarray, pool_pages: int
    ) -> None:
        self.name = name
        self.db = PgSimDatabase(page_size=2048, buffer_pool_pages=pool_pages)
        self.db.execute("CREATE TABLE t (id int, vec float[])")
        heap = self.db.catalog.table("t").heap
        for i, vec in enumerate(base):
            heap.insert([i, vec], xid=1)
            self.db.wal.flush()  # lets a small pool evict the loaded pages
        self.db.wal.log_commit(1)
        self.db.execute(f"CREATE INDEX ix ON t USING {am_name} (vec) WITH ({options})")
        self.db.execute(f"SET pase.nprobe = {NPROBE}")
        self.db.execute(f"SET pase.efs = {EFS}")
        self.db.execute("SET ivf_recluster_threshold = 0.05")
        self.heap = heap
        self.am = self.db.catalog.find_index("ix").am
        self.id_of: dict[Any, int] = {}

    def refresh_ids(self) -> None:
        self.id_of = {tid: values[0] for tid, values in self.heap.scan()}

    def call(self, state: str, qi: int, op: str, fn: Callable[[], Iterable]) -> None:
        """Run one entry point and print what it returned and cost."""
        stats, buffer = self.am.scan_stats, self.db.buffer.stats
        self.am.last_filtered_examined = -1
        candidates, pins = stats.candidates, buffer.hits + buffer.misses
        pairs = list(fn())
        candidates, pins = stats.candidates - candidates, buffer.hits + buffer.misses - pins
        tids = " ".join(f"{tid.blkno}:{tid.offset}" for tid, __ in pairs)
        dists = " ".join(repr(float(d)) for __, d in pairs)
        print(
            f"{self.name}\t{state}\tq{qi}\t{op}\ttids=[{tids}]\tdists=[{dists}]\t"
            f"candidates={candidates}\texamined={self.am.last_filtered_examined}\tpins={pins}"
        )

    def state(self, state: str, queries: np.ndarray) -> None:
        """Every entry point for every query, then the index size."""
        am = self.am
        self.refresh_ids()
        for qi, q in enumerate(queries):
            self.call(state, qi, "scan", lambda: am.scan(q, K))
            self.call(state, qi, "amrescan_continue", lambda: am.amrescan_continue(q, K_CONTINUE))
            self.call(state, qi, "get_batch", lambda: am.get_batch(q, K).pairs())
            self.call(
                state, qi, "amrescan_continue_batch",
                lambda: am.amrescan_continue_batch(q, K_CONTINUE).pairs(),
            )
            for pct in SELECTIVITIES:
                def mask_fn(tids, pct=pct):
                    return np.asarray([self.id_of.get(t, -1) % 100 < pct for t in tids], dtype=bool)

                def key_mask(keys, mask_fn=mask_fn):
                    return mask_fn([TID(key >> 16, key & 0xFFFF) for key in keys.tolist()])

                self.call(
                    state, qi, f"amsearch_filtered_{pct}",
                    lambda: am.amsearch_filtered(q, K, mask_fn),
                )
                self.call(
                    state, qi, f"amsearch_filtered_batch_{pct}",
                    lambda: am.amsearch_filtered_batch(q, K, key_mask).pairs(),
                )
        info = am.size_info()
        detail = " ".join(f"{key}={value}" for key, value in sorted(info.detail.items()))
        print(
            f"{self.name}\t{state}\tsize_info\tallocated={info.allocated_bytes}\t"
            f"used={info.used_bytes}\tpages={info.page_count}\t{detail}"
        )
        print(f"{self.name}\t{state}\tpages\tsha256={self.page_fingerprint()}")

    def page_fingerprint(self) -> str:
        """SHA-256 over every block of every fork, in ``relations()``
        order, as the buffer pool holds it (a scoped pin per block),
        the checksum field left out: write-back stamps it, so it tells
        an evicted page from one the pool never let go."""
        digest = hashlib.sha256()
        buffer = self.db.buffer
        for rel in self.am.relations():
            if not buffer.disk.relation_exists(rel):
                continue
            digest.update(rel.encode())
            for blkno in range(buffer.disk.n_blocks(rel)):
                with buffer.page(rel, blkno) as page:
                    digest.update(page.buf[:8])  # header bytes 8-9: checksum
                    digest.update(page.buf[10:])
        return digest.hexdigest()


#: ``UPDATE`` / ``DELETE`` of the SQL section: single and compound
#: predicates on ``a`` and ``id`` (never on the NULL-bearing ``note``).
SQL_DML = (
    "UPDATE s SET a = 1000 + a WHERE a = 3",
    "UPDATE s SET note = 'u' WHERE a >= 90 AND id < {half}",
    "DELETE FROM s WHERE id = 11",
    "DELETE FROM s WHERE a = 42 OR (a > 95 AND NOT id < {half})",
    "UPDATE s SET a = 7 WHERE a < 0 OR id = 17",
)
STRATEGIES = ("pre-filter", "post-filter", "in-filter")


class SqlDump:
    """The hybrid-search and DML statements, through SQL, on a table
    whose every seventh row has a NULL ``note`` (tuples the projected
    heap readers must deform with the walking decoder)."""

    def __init__(self, base: np.ndarray, pool_pages: int) -> None:
        from repro.pgsim.estimation import node_strategy

        self.db = PgSimDatabase(page_size=2048, buffer_pool_pages=pool_pages)
        self.db.execute("CREATE TABLE s (id int, a int, note text, vec float[])")
        heap = self.db.catalog.table("s").heap
        for i, vec in enumerate(base):
            heap.insert([i, i % 100, None if i % 7 == 0 else f"n{i % 3}", vec], xid=1)
            self.db.wal.flush()
        self.db.wal.log_commit(1)
        clusters = max(int(math.sqrt(base.shape[0])), 4)
        self.db.execute(
            f"CREATE INDEX s_ix ON s USING pase_ivfflat (vec) "
            f"WITH (clusters = {clusters}, sample_ratio = 0.5, seed = {SEED})"
        )
        self.db.execute("ANALYZE s")
        self.db.execute(f"SET pase.nprobe = {NPROBE}")
        # What each hybrid statement feeds pg_stat_filtered_search.
        self.recorded: list[str] = []
        executor = self.db.executor
        record_run = executor.record_run

        def recording(plan: Any, instrument: Any) -> Any:
            strategy = record_run(plan, instrument)
            node = plan
            while node is not None and node_strategy(node) is None:
                node = getattr(node, "child", None)
            if node is not None:
                self.recorded.append(
                    f"strategy={strategy}\texamined={node.actual_examined}\t"
                    f"matched={node.actual_matched}\t"
                    f"fell_back={bool(getattr(node, 'overfetch_fell_back', False))}"
                )
            return strategy

        executor.record_run = recording

    def execute(self, sql: str) -> tuple[Any, int]:
        """Run one statement; returns its result and buffer pins."""
        stats = self.db.buffer.stats
        pins = stats.hits + stats.misses
        result = self.db.execute(sql)
        return result, stats.hits + stats.misses - pins

    def state(self, state: str, queries: np.ndarray) -> None:
        for qi, q in enumerate(queries):
            for pct in SELECTIVITIES:
                for strategy in STRATEGIES:
                    for batch in ("off", "on"):
                        self.db.execute(f"SET filtered_search_strategy = '{strategy}'")
                        self.db.execute(f"SET enable_batch_exec = {batch}")
                        self.recorded.clear()
                        result, pins = self.execute(
                            f"SELECT id, a FROM s WHERE a < {pct} "
                            f"ORDER BY vec <-> '{_lit(q)}'::PASE LIMIT {K}"
                        )
                        recorded = "\t".join(self.recorded)
                        print(
                            f"sql\t{state}\tq{qi}\t{strategy}\tbatch={batch}\tsel={pct}\t"
                            f"rows={result.rows}\t{recorded}\tpins={pins}"
                        )

    def dml(self, rows: int) -> None:
        self.db.execute("SET filtered_search_strategy = 'auto'")
        for sql in SQL_DML:
            sql = sql.format(half=rows // 2)
            result, pins = self.execute(sql)
            print(f"sql\tdml\t{sql}\t{result.command}\tpins={pins}")
        checksum = [
            self.db.execute(f"SELECT {agg} FROM s{where}").scalar()
            for agg, where in (
                ("count(*)", ""), ("sum(id)", ""), ("sum(a)", ""), ("count(*)", " WHERE note = 'u'")
            )
        ]
        print(f"sql\tdml\ttable\tcount_sum_id_sum_a_updated_notes={checksum}")


#: Specialized variant -> (class, extra constructor arguments, the
#: metrics it accepts, whether ``parallel_search`` drives it here).
SPEC_VARIANTS = {
    "ivf_flat": (IVFFlatIndex, {}, ("l2", "ip", "cosine"), True),
    "ivf_pq": (IVFPQIndex, {"m": 4, "c_pq": 16}, ("l2",), True),
    "ivf_sq8": (IVFSQ8Index, {}, ("l2", "ip", "cosine"), False),
}


def _sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _spec_lists(index: Any) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(ids, codes)`` of every list, in list order (through the
    per-class arrays on trees older than ``IVFIndex.lists``)."""
    if hasattr(index, "lists"):
        return index.lists()
    index._finalize()
    payloads = getattr(index, "_bucket_vectors", None)
    if payloads is None:
        payloads = index._bucket_code_arrays
    return list(zip(index._bucket_id_arrays, payloads))


def spec_dump(base: np.ndarray, queries: np.ndarray, clusters: int) -> None:
    """The ``spec`` lines: one block per specialized build."""
    configs = [
        (variant, metric, sgemm, style, {})
        for variant, (__, __, metrics, __) in SPEC_VARIANTS.items()
        for metric in metrics
        for sgemm in (True, False)
        for style in ("faiss", "pase")
    ]
    configs.append(("ivf_pq", "l2", True, "faiss", {"optimized_pctable": False}))
    split = base.shape[0] * 3 // 5
    for variant, metric, sgemm, style, extra in configs:
        cls, args, __, parallel = SPEC_VARIANTS[variant]
        name = f"spec\t{variant}/{metric}/sgemm={int(sgemm)}/{style}" + "".join(
            f"/{key}={value}" for key, value in extra.items()
        )
        index = cls(
            DIM, n_clusters=clusters, sample_ratio=0.5, use_sgemm=sgemm, kmeans_style=style,
            seed=SEED, distance_type=DistanceType(METRICS[metric]), **args, **extra,
        )
        index.train(base)
        index.add(base[:split])
        index.add(base[split:])
        lists = _spec_lists(index)
        sizes = " ".join(str(int(n)) for n in index.bucket_sizes())
        detail = " ".join(
            f"{key}={value}" for key, value in sorted(index.size_info().detail.items())
        )
        print(
            f"{name}\tbuild\tcentroids={_sha(index.centroids)}\t"
            f"lists={_sha(*(arr for pair in lists for arr in pair))}\t"
            f"build_ndis={index.build_stats.distance_computations}"
        )
        print(f"{name}\tsizes\t[{sizes}]\t{detail}")
        for qi, q in enumerate(queries):
            result = index.search(q, K, nprobe=NPROBE)
            dists = " ".join(repr(float(n.distance)) for n in result.neighbors)
            print(
                f"{name}\tq{qi}\tsearch\tids={result.ids}\tdists=[{dists}]\t"
                f"ndis={result.distance_computations}"
            )
        index.profiler = Profiler()
        index.search(queries[0], K, nprobe=NPROBE)
        rows = sorted(index.profiler.breakdown(), key=lambda row: row.name)
        calls = " ".join(f"{row.name}={row.calls}" for row in rows)
        print(f"{name}\tprofile\t{calls}")
        if not parallel:
            continue
        scheduled: list[list[Any]] = []
        curve = spec_parallel.scaling_curve

        def record(units, *rest, **kwargs):
            scheduled.append(list(units))
            return curve(units, *rest, **kwargs)

        spec_parallel.scaling_curve = record
        try:
            for qi, q in enumerate(queries):
                result, __ = spec_parallel.parallel_search(index, q, K, NPROBE, [1, 2])
                serial_ops = [unit.serial_ops for unit in scheduled.pop()]
                print(f"{name}\tq{qi}\tparallel\tids={result.ids}\tserial_ops={serial_ops}")
        finally:
            spec_parallel.scaling_curve = curve


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=6)
    parser.add_argument(
        "--pool-pages", type=int, default=4096,
        help="buffer pool size of every database (a small pool evicts; "
        "the output must not change)",
    )
    args = parser.parse_args(argv)
    base, extra, queries = _data(args.rows, args.queries)
    clusters = max(int(math.sqrt(base.shape[0])), 4)
    runs = [
        (
            f"{am_name}/{metric}", am_name,
            f"clusters = {clusters}, sample_ratio = 0.5, seed = {SEED}, "
            f"distance_type = {METRICS[metric]}{AMS[am_name]}",
        )
        for am_name in AMS
        for metric in METRICS
        if metric == "l2" or am_name not in L2_ONLY_AMS
    ]
    runs += [(f"{am}/l2", am, f"{opts}, seed = {SEED}") for am, opts in HNSW_AMS.items()]
    for name, am_name, options in runs:
        dump = Dump(name, am_name, options, base, args.pool_pages)
        dump.state("fresh", queries)
        for j, vec in enumerate(extra):
            dump.db.execute(f"INSERT INTO t VALUES ({args.rows + j}, '{_lit(vec)}'::PASE)")
        dump.state(f"+{INSERTS}_inserts", queries)
        dump.db.execute(f"DELETE FROM t WHERE id < {int(args.rows * 0.3)}")
        dump.db.execute("VACUUM t")
        dump.state("delete30_vacuum", queries)
    sql = SqlDump(base, args.pool_pages)
    sql.state("fresh", queries)
    sql.dml(args.rows)
    sql.state("after_dml", queries)
    spec_dump(base, queries, clusters)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
