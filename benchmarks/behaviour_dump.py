"""Deterministic behaviour dump of the seven vector access methods and
of hybrid search and DML through SQL.

    PYTHONPATH=src python benchmarks/behaviour_dump.py [--rows N] [--queries Q] > dump.txt

Builds one seeded table per IVF access method (``pase_ivfflat``,
``pase_ivfpq``, ``pase_ivfsq8``, pgvector's ``ivfflat``,
``bridged_ivfflat``) and index metric (``distance_type`` 0 / 1 / 2:
L2, inner product, cosine), and one per HNSW access method
(``pase_hnsw``, ``bridged_hnsw``; L2 only, at a fixed ``pase.efs``), and
walks it through three states — fresh, after
200 single-row INSERTs, after DELETE of 30 % of the rows + VACUUM — and
in each state drives every AM search entry point directly: ``scan``,
``get_batch``, ``amrescan_continue[_batch]`` and
``amsearch_filtered[_batch]`` at 1 / 10 / 50 % selectivity.  Each call
prints one line: result TIDs, ``repr`` of every distance, candidates
scored, ``last_filtered_examined`` and buffer pins; each state adds a
``size_info`` line.

The ``sql`` lines that follow come from one more table with an ``a``
column and a NULL ``note`` in every seventh row: ``WHERE a < s ORDER BY
vec <-> q LIMIT k`` at 1 / 10 / 50 % selectivity under each forced
filtered-search strategy and both ``enable_batch_exec`` values — output
rows, the examined / matched counts the statement feeds
``pg_stat_filtered_search``, buffer pins — then ``UPDATE`` / ``DELETE
... WHERE`` with single and compound predicates (command tag, pins, a
table checksum) and the hybrid statements again.  No clock is read, so
the output is a pure function of the arguments.

Use it as an oracle around a refactor: run it at the parent commit and
at the change and ``diff`` the two files — every differing line is a
behaviour change to explain.  Two runs at one commit must be
byte-identical (CI checks this with ``cmp``).
"""

from __future__ import annotations

import argparse
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
from repro.pgsim import PgSimDatabase  # noqa: E402

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

    def __init__(self, name: str, am_name: str, options: str, base: np.ndarray) -> None:
        self.name = name
        self.db = PgSimDatabase(page_size=2048, buffer_pool_pages=4096)
        self.db.execute("CREATE TABLE t (id int, vec float[])")
        heap = self.db.catalog.table("t").heap
        for i, vec in enumerate(base):
            heap.insert([i, vec], xid=1)
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

                self.call(
                    state, qi, f"amsearch_filtered_{pct}",
                    lambda: am.amsearch_filtered(q, K, mask_fn),
                )
                self.call(
                    state, qi, f"amsearch_filtered_batch_{pct}",
                    lambda: am.amsearch_filtered_batch(q, K, mask_fn).pairs(),
                )
        info = am.size_info()
        detail = " ".join(f"{key}={value}" for key, value in sorted(info.detail.items()))
        print(
            f"{self.name}\t{state}\tsize_info\tallocated={info.allocated_bytes}\t"
            f"used={info.used_bytes}\tpages={info.page_count}\t{detail}"
        )


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

    def __init__(self, base: np.ndarray) -> None:
        from repro.pgsim.estimation import node_strategy

        self.db = PgSimDatabase(page_size=2048, buffer_pool_pages=4096)
        self.db.execute("CREATE TABLE s (id int, a int, note text, vec float[])")
        heap = self.db.catalog.table("s").heap
        for i, vec in enumerate(base):
            heap.insert([i, i % 100, None if i % 7 == 0 else f"n{i % 3}", vec], xid=1)
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=6)
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
    ]
    runs += [(f"{am}/l2", am, f"{opts}, seed = {SEED}") for am, opts in HNSW_AMS.items()]
    for name, am_name, options in runs:
        dump = Dump(name, am_name, options, base)
        dump.state("fresh", queries)
        for j, vec in enumerate(extra):
            dump.db.execute(f"INSERT INTO t VALUES ({args.rows + j}, '{_lit(vec)}'::PASE)")
        dump.state(f"+{INSERTS}_inserts", queries)
        dump.db.execute(f"DELETE FROM t WHERE id < {int(args.rows * 0.3)}")
        dump.db.execute("VACUUM t")
        dump.state("delete30_vacuum", queries)
    sql = SqlDump(base)
    sql.state("fresh", queries)
    sql.dml(args.rows)
    sql.state("after_dml", queries)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
