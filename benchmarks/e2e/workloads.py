"""The four benchmark workloads: set-up, statement stream, checks.

A workload is a table + index configuration and a seeded cycle of
statement kinds.  One closed-loop client drives it through
``PgSimDatabase.execute`` only; every statement carries its own vector
literal and is checked against :class:`datagen.LiveSet` as it returns.
Engine GUCs stay at their defaults except the ones a workload sets,
and the WAL flush policy is the engine's (fsync at commit).
"""

from __future__ import annotations

import gc
import statistics
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from datagen import A_MODULUS, DIM, K, LiveSet, Mixture, vector_literal
from repro.pgsim import PgSimDatabase
from repro.specialized import HNSWIndex, IVFFlatIndex
from trace import Tracer

TABLE = "items"
INDEX = "ix"
#: Untimed statements per kind before the timed phase.  UPDATE/DELETE
#: get two: each is a full sequential scan (no btree), ~170 ms at 20 k
#: rows, and has no cache of its own to warm.
WARMUP = {"knn": 50, "filtered": 50, "insert": 50, "update": 2, "delete": 2}
#: KNN statements whose result is compared with exact top-k.
RECALL_QUERIES = 200
RECALL_FLOOR = 0.85
#: A timed phase is cut into this many slices of equal engine time and
#: every timing is the median of the slices' values: a burst of noise
#: from the shared box spoils one slice, not the run's p95 or ops/s.
WINDOWS = 5
#: ``a < cut`` selectivities of the hybrid statements: 1 %, 10 %, 50 %.
CUTS = (10, 100, 500)
#: Bytes a user hands over per inserted/updated row (vector + id + a).
USER_ROW_BYTES = 4 * DIM + 8
#: Statement kinds that write; UPDATE and DELETE are timed together.
TIMED_KIND = {"knn": "knn", "filtered": "filtered", "insert": "insert",
              "update": "modify", "delete": "modify"}
WRITE_KINDS = ("insert", "modify")
#: Spans wrapped while an index is built or a database recovers.
BUILD_SPANS = frozenset({"am.build", "recovery.wal_replay"})
IVF_SAMPLE_RATIO = 0.2
HNSW_BNN, HNSW_EFB = 16, 40


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    am: str
    #: nprobe for the IVF workloads, efs for the HNSW one.
    search_param: int
    #: Statement kinds per cycle; the cycle's order is a seeded shuffle.
    cycle: tuple[tuple[str, int], ...]
    batch_exec: bool = False
    #: Mixture spread (see ``datagen``): tuned so recall@10 is below 1.
    spread: float = 1.8
    #: File-backed with a pool smaller than heap + index when set.
    durable: bool = False
    pool_pages: int = 65536
    #: VACUUM + checkpoint after this many timed statements (0 = never).
    maintenance_every: int = 0
    #: ``--trace`` also times the sibling IVF access methods on a side table.
    sweeps_am_family: bool = False

    def clusters(self, rows: int) -> int:
        return max(round(rows ** 0.5), 2)

    def index_sql(self, rows: int, seed: int) -> str:
        if self.am == "pase_hnsw":
            options = f"bnn = {HNSW_BNN}, efb = {HNSW_EFB}, seed = {seed}"
        else:
            options = (
                f"clusters = {self.clusters(rows)}, "
                f"sample_ratio = {IVF_SAMPLE_RATIO}, seed = {seed}"
            )
        return f"CREATE INDEX {INDEX} ON {TABLE} USING {self.am} (vec) WITH ({options})"

    def settings(self) -> list[str]:
        guc = "pase.efs" if self.am == "pase_hnsw" else "pase.nprobe"
        out = [f"SET {guc} = {self.search_param}"]
        if self.batch_exec:
            out.append("SET enable_batch_exec = on")
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ivfflat_tuple_knn",
            why=(
                "The paper's PASE configuration: tuple-at-a-time IVF scan with a buffer pin "
                "per tuple does ~99 % of the work, so AM/buffer changes show and front-end "
                "changes must not."
            ),
            rows=50_000,
            am="pase_ivfflat",
            search_param=20,
            cycle=(("knn", 1),),
        ),
        Workload(
            name="ivfflat_batch_hybrid",
            why=(
                "Same table through vectorised get_batch and the filtered-search strategies: "
                "per-tuple pins are bypassed and parse/plan/executor are 10-20 % of a "
                "statement, so kernel and front-end changes show."
            ),
            rows=50_000,
            am="pase_ivfflat",
            search_param=8,
            cycle=(("knn", 10), ("filtered", 3)),
            batch_exec=True,
            sweeps_am_family=True,
        ),
        Workload(
            name="hnsw_knn",
            why=(
                "Graph traversal over page-resident neighbor tuples: pointer chasing through "
                "the buffer manager, plus the build time and index blow-up only HNSW exposes."
            ),
            rows=1_500,
            am="pase_hnsw",
            search_param=100,
            cycle=(("knn", 1),),
            # HNSW at efs = 100 is near-exact on clustered data of this
            # size; a wide spread keeps recall@10 at ~0.98 rather than 1.
            spread=4.0,
        ),
        Workload(
            name="mixed_durable",
            why=(
                "Writes beside reads on a file-backed table larger than the buffer pool: WAL "
                "fsync, eviction, VACUUM/checkpoint stalls, crash recovery, and seq-scan "
                "UPDATE/DELETE that stress the executor, not the AM."
            ),
            rows=20_000,
            am="pase_ivfflat",
            search_param=8,
            cycle=(("knn", 100), ("filtered", 30), ("insert", 68), ("update", 1), ("delete", 1)),
            batch_exec=True,
            durable=True,
            pool_pages=2048,
            maintenance_every=250,
        ),
    )
}


@dataclass(slots=True)
class Statement:
    kind: str
    sql: str
    #: Query vector (knn/filtered) or the new vector (insert/update).
    vec: np.ndarray | None = None
    cut: int = 0
    row_id: int = -1


@dataclass
class Window:
    """One of the :data:`WINDOWS` equal slices of a timed phase."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    #: One search on the specialized engine after each statement.
    floor_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0


@dataclass
class Phase:
    """What one timed phase measured."""

    windows: list[Window] = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    recall_hits: int = 0
    recall_queries: list[np.ndarray] = field(default_factory=list)
    wal_bytes: int = 0
    user_bytes: int = 0
    vacuum_s: list[float] = field(default_factory=list)
    checkpoint_s: list[float] = field(default_factory=list)
    index_entries_removed: int = 0
    #: Traced phases only: timed kind -> summed counter deltas / rows.
    counters: dict[str, list[int]] = field(default_factory=dict)
    rows_returned: dict[str, int] = field(default_factory=dict)

    def samples(self) -> dict[str, list[float]]:
        """Timed kind -> per-statement latencies in seconds, in order."""
        merged: dict[str, list[float]] = {}
        for window in self.windows:
            for kind, latencies in window.samples.items():
                merged.setdefault(kind, []).extend(latencies)
        return merged

    def count(self, *kinds: str) -> int:
        return sum(len(w.samples.get(kind, ())) for w in self.windows for kind in kinds)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


#: Order of the values :meth:`Instance.read_counters` returns.
COUNTERS = ("hits", "misses", "evictions", "dirty_writebacks", "wal_bytes",
            "wal_flushes", "candidates", "tuples_fetched")


class Instance:
    """One set-up database, its oracle and its statement stream."""

    def __init__(self, workload: Workload, seed: int, rows: int, data_dir: Path,
                 tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.seed = seed
        self.rows = rows
        self.tracer = tracer
        #: Set by the caller once built; not part of set-up time.
        self.floor: Floor | None = None
        #: Where a durable workload keeps its files (the caller's to remove).
        self.data_dir = data_dir if workload.durable else None
        start = perf_counter()
        self.mixture = Mixture(seed, workload.spread)
        self.base = self.mixture.draw(rows)
        self.live = LiveSet(self.base)
        order = [kind for kind, count in workload.cycle for _ in range(count)]
        self.mixture.rng.shuffle(order)
        self._order = order
        self._position = 0
        self._filtered_seen = 0
        # UPDATE/DELETE victims: base ids, each used once.
        self._victims = self.mixture.rng.permutation(rows).tolist()
        self._next_id = rows
        self.db = self.open()
        self.db.execute(f"CREATE TABLE {TABLE} (id INT4, a INT4, vec FLOAT4[])")
        heap = self.db.catalog.table(TABLE).heap
        for row_id, vec in enumerate(self.base):
            heap.insert([row_id, row_id % A_MODULUS, vec], xid=1)
        self.db.wal.log_commit(1)
        if tracer is not None:
            tracer.install([workload.am], only=BUILD_SPANS)
            tracer.begin("build")
        try:
            build_start = perf_counter()
            self.db.execute(workload.index_sql(rows, seed))
            self.index_build_s = perf_counter() - build_start
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.db.execute(f"ANALYZE {TABLE}")
        self.am = self.db.catalog.find_index(INDEX).am
        warmup = Phase()
        for kind, _ in workload.cycle:
            for _ in range(WARMUP[kind]):
                self.execute(self.make(kind), warmup)
        if warmup.failed:
            raise RuntimeError(f"warm-up statements failed: {warmup.failures}")
        self.setup_s = perf_counter() - start

    def open(self) -> PgSimDatabase:
        """Open (or re-open) the database and apply the workload's GUCs."""
        db = PgSimDatabase(buffer_pool_pages=self.workload.pool_pages, data_dir=self.data_dir)
        for statement in self.workload.settings():
            db.execute(statement)
        return db

    def close(self) -> None:
        if self.db is not None:
            self.db.close()

    # ------------------------------------------------------------------
    # statement stream
    # ------------------------------------------------------------------
    def next_statement(self) -> Statement:
        kind = self._order[self._position % len(self._order)]
        self._position += 1
        return self.make(kind)

    def make(self, kind: str) -> Statement:
        if kind == "delete":
            row_id = self._victims.pop()
            return Statement(kind, f"DELETE FROM {TABLE} WHERE id = {row_id}", row_id=row_id)
        vec = self.mixture.draw_one()
        literal = vector_literal(vec)
        if kind == "knn":
            sql = f"SELECT id FROM {TABLE} ORDER BY vec <-> {literal} LIMIT {K}"
            return Statement(kind, sql, vec)
        if kind == "filtered":
            cut = CUTS[self._filtered_seen % len(CUTS)]
            self._filtered_seen += 1
            sql = (
                f"SELECT id, a FROM {TABLE} WHERE a < {cut} "
                f"ORDER BY vec <-> {literal} LIMIT {K}"
            )
            return Statement(kind, sql, vec, cut=cut)
        if kind == "insert":
            row_id = self._next_id
            self._next_id += 1
            sql = f"INSERT INTO {TABLE} VALUES ({row_id}, {row_id % A_MODULUS}, {literal})"
            return Statement(kind, sql, vec, row_id=row_id)
        if kind == "update":
            row_id = self._victims.pop()
            sql = f"UPDATE {TABLE} SET vec = {literal} WHERE id = {row_id}"
            return Statement(kind, sql, vec, row_id=row_id)
        raise ValueError(f"unknown statement kind {kind!r}")

    # ------------------------------------------------------------------
    # execution and checks
    # ------------------------------------------------------------------
    def execute(self, stmt: Statement, phase: Phase) -> float:
        """Run one statement, check its output, return its latency."""
        timed_kind = TIMED_KIND[stmt.kind]
        truth = None
        if stmt.kind == "knn" and len(phase.recall_queries) < RECALL_QUERIES:
            truth = self.live.topk(stmt.vec)
            phase.recall_queries.append(stmt.vec)
        traced = self.tracer is not None and self.tracer.installed
        if traced:
            self.tracer.begin(timed_kind)
            before = self.read_counters()
        start = perf_counter()
        try:
            result = self.db.execute(stmt.sql)
            error = None
        except Exception:  # a statement that raises is a failed operation
            result = None
            error = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        if traced:
            after = self.read_counters()
            sums = phase.counters.setdefault(timed_kind, [0] * len(COUNTERS))
            for i, (lo, hi) in enumerate(zip(before, after)):
                sums[i] += hi - lo
            if result is not None:
                phase.rows_returned[timed_kind] = (
                    phase.rows_returned.get(timed_kind, 0) + len(result.rows)
                )
        phase.attempted += 1
        if error is None:
            error = self.check(stmt, result)
        if error is not None:
            phase.fail(f"{stmt.kind}: {error}")
        elif truth is not None:
            phase.recall_hits += len(truth & {row[0] for row in result.rows})
        return elapsed

    def check(self, stmt: Statement, result: Any) -> str | None:
        """Compare one result with the oracle; apply writes to the oracle."""
        live = self.live
        if stmt.kind in ("knn", "filtered"):
            rows = result.rows
            ids = [row[0] for row in rows]
            if stmt.kind == "knn":
                expected = min(K, live.count())
            else:
                expected = min(K, live.matching(stmt.cut))
                for row_id, a in rows:
                    if a >= stmt.cut or a != row_id % A_MODULUS:
                        return f"row ({row_id}, {a}) violates a < {stmt.cut}"
            if len(rows) != expected:
                return f"returned {len(rows)} rows, expected {expected}"
            if len(set(ids)) != len(ids) or not all(live.is_alive(i) for i in ids):
                return f"duplicate or invisible ids in {ids}"
            dist = live.squared_distances(ids, stmt.vec)
            if np.any(np.diff(dist) < -1e-3 * (1.0 + dist[:-1])):
                return f"distances not non-decreasing: {dist.tolist()}"
            return None
        expected_tag = {"insert": "INSERT 0 1", "update": "UPDATE 1", "delete": "DELETE 1"}
        if result.command != expected_tag[stmt.kind]:
            return f"command tag {result.command!r}, expected {expected_tag[stmt.kind]!r}"
        if stmt.kind == "insert":
            live.insert(stmt.row_id, stmt.vec)
        elif stmt.kind == "update":
            live.update(stmt.row_id, stmt.vec)
        else:
            live.delete(stmt.row_id)
        return None

    def read_counters(self) -> tuple[int, ...]:
        """The engine's own public counters, in :data:`COUNTERS` order."""
        buf = self.db.buffer.stats
        wal = self.db.wal.stats
        heap = self.db.catalog.table(TABLE).heap
        return (buf.hits, buf.misses, buf.evictions, buf.dirty_writebacks,
                wal.bytes_written, wal.flushes, self.am.scan_stats.candidates,
                heap.stats.tuples_fetched)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def run_phase(self, seconds: float) -> Phase:
        """Closed loop, one client: statements until ``seconds`` of
        engine time (statements + maintenance, not the load generator's
        own work between them) have been spent."""
        phase = Phase()
        every = self.workload.maintenance_every
        wal_start = self.db.wal.stats.bytes_written
        # Untraced phases time the specialized engine after every
        # statement: both engines then see the same moments of the
        # shared machine, and their ratio is free of its mood.
        paired = self.floor is not None and not (self.tracer and self.tracer.installed)
        gc.collect()
        for _ in range(WINDOWS):
            window = Window()
            phase.windows.append(window)
            while window.busy_s < seconds / WINDOWS:
                stmt = self.next_statement()
                elapsed = self.execute(stmt, phase)
                window.samples.setdefault(TIMED_KIND[stmt.kind], []).append(elapsed)
                window.attempted += 1
                window.busy_s += elapsed
                if paired:
                    query = stmt.vec if stmt.vec is not None else self.base[0]
                    window.floor_s.append(self.floor.search(query))
                if stmt.kind in ("insert", "update"):
                    phase.user_bytes += USER_ROW_BYTES
                if every and phase.attempted % every == 0:
                    window.busy_s += self.maintain(phase)
            phase.busy_s += window.busy_s
        phase.wal_bytes = self.db.wal.stats.bytes_written - wal_start
        return phase

    def maintain(self, phase: Phase) -> float:
        """VACUUM + checkpoint, as a background worker would issue them."""
        if self.tracer is not None:
            self.tracer.begin("vacuum")
        start = perf_counter()
        self.db.execute(f"VACUUM {TABLE}")
        vacuumed = perf_counter()
        if self.tracer is not None:
            self.tracer.begin("checkpoint")
        self.db.checkpoint()
        end = perf_counter()
        phase.vacuum_s.append(vacuumed - start)
        phase.checkpoint_s.append(end - vacuumed)
        progress = self.db.execute("SELECT * FROM pg_stat_progress_vacuum")
        removed = progress.columns.index("index_entries_removed")
        phase.index_entries_removed += progress.rows[-1][removed]
        return end - start

    def scaling_probe(self, statements: int) -> tuple[float, float]:
        """Reads and inserts from one client, from two threaded clients,
        and from one again; each client issues ``statements``.

        Returns (2-client ops/s over the mean 1-client ops/s,
        statement-lock wait in ms per 2-client statement).  UPDATE and
        DELETE are left out: two of them racing for one row is a
        serialization failure, not a scaling number.
        """
        kinds = [kind for kind in self._order if kind not in ("update", "delete")]
        failures: list[str] = []

        def drive(session: Any, stmts: list[Statement]) -> None:
            for stmt in stmts:
                try:
                    session.execute(stmt.sql)
                except Exception:  # raised below, on the caller's thread
                    failures.append(traceback.format_exc(limit=3))

        def rate(clients: int) -> float:
            """Statements per second with ``clients`` concurrent sessions."""
            batches = [
                [self.make(kinds[i % len(kinds)]) for i in range(statements)]
                for _ in range(clients)
            ]
            sessions = [self.db.session() for _ in range(clients)]
            threads = [
                threading.Thread(target=drive, args=pair) for pair in zip(sessions, batches)
            ]
            gc.collect()
            start = perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = perf_counter() - start
            for session in sessions:
                session.close()
            for stmt in (stmt for batch in batches for stmt in batch):
                if stmt.kind == "insert":
                    self.live.insert(stmt.row_id, stmt.vec)
            return clients * statements / elapsed

        def lock_wait_ms() -> float:
            rows = self.db.execute("SELECT * FROM pg_stat_wait_events").rows
            return sum(row[3] for row in rows if row[1] == "SessionStatementLock")

        solo_before = rate(1)
        waited = lock_wait_ms()
        pair = rate(2)
        waited = lock_wait_ms() - waited
        solo_after = rate(1)
        if failures:
            raise RuntimeError(f"scaling probe statements failed: {failures[:3]}")
        return pair / statistics.mean((solo_before, solo_after)), waited / (2 * statements)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def exact_probe(self, db: PgSimDatabase, query: np.ndarray) -> list[int]:
        """Exact top-k ids by sequential scan (index scans switched off),
        so the answer depends on the table's rows only — a rebuilt index
        clusters differently and may rank approximate results otherwise."""
        db.execute("SET enable_indexscan = off")
        rows = db.execute(
            f"SELECT id FROM {TABLE} ORDER BY vec <-> {vector_literal(query)} LIMIT {K}"
        ).rows
        db.execute("SET enable_indexscan = on")
        return [row[0] for row in rows]

    def count_rows(self, db: PgSimDatabase) -> int:
        return db.execute(f"SELECT count(*) FROM {TABLE}").scalar()

    def crash_and_recover(self, acknowledged_inserts: int) -> tuple[float, list[str]]:
        """Acknowledge more inserts, drop the instance unflushed, re-open.

        Dropping the instance discards the buffer pool's dirty pages and
        skips checkpoint/close, so recovery sees only what WAL fsyncs and
        evictions already put on disk.  Returns the re-open time and the
        durability violations found.  With a tracer, WAL replay and the
        index rebuild are timed under it.
        """
        errors: list[str] = []
        tail = Phase()
        for _ in range(acknowledged_inserts):
            self.execute(self.make("insert"), tail)
        errors += tail.failures
        query = self.mixture.draw_one()
        expected_count = self.live.count()
        expected_ids = self.exact_probe(self.db, query)
        if self.count_rows(self.db) != expected_count:
            errors.append(f"count(*) before crash != oracle {expected_count}")
        if set(expected_ids) != self.live.topk(query):
            errors.append("exact probe before crash differs from the oracle's top-k")
        self.db.close()
        self.db = None
        gc.collect()
        if self.tracer is not None:
            self.tracer.install([self.workload.am], only=BUILD_SPANS)
            self.tracer.begin("recovery")
        try:
            start = perf_counter()
            self.db = self.open()
            seconds = perf_counter() - start
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        if self.count_rows(self.db) != expected_count:
            errors.append(f"count(*) after re-open != oracle {expected_count}")
        if self.exact_probe(self.db, query) != expected_ids:
            errors.append("KNN ids after re-open differ from before the crash")
        return seconds, errors


# ----------------------------------------------------------------------
# floors and side measurements
# ----------------------------------------------------------------------
class Floor:
    """The same search on ``repro.specialized`` (the paper's Faiss side):
    same base data, clusters/bnn/efb, nprobe/efs and k."""

    def __init__(self, workload: Workload, inst: Instance) -> None:
        start = perf_counter()
        if workload.am == "pase_hnsw":
            self.index = HNSWIndex(DIM, bnn=HNSW_BNN, efb=HNSW_EFB,
                                   efs=workload.search_param, seed=inst.seed)
            self.search_args = {"efs": workload.search_param}
        else:
            self.index = IVFFlatIndex(DIM, workload.clusters(inst.rows),
                                      sample_ratio=IVF_SAMPLE_RATIO, seed=inst.seed)
            self.index.train(inst.base)
            self.search_args = {"nprobe": workload.search_param}
        self.index.add(inst.base)
        self.build_s = perf_counter() - start
        for query in inst.base[: WARMUP["knn"]]:
            self.search(query)

    def search(self, query: np.ndarray) -> float:
        start = perf_counter()
        self.index.search(query, K, **self.search_args)
        return perf_counter() - start


def kernel_floor_ms(inst: Instance, candidates: int, queries: list[np.ndarray]) -> float:
    """One NumPy matmul from a query to ``candidates`` contiguous
    vectors plus the top-k pick: what the AM's search costs with no
    pages, tuples or heap in the way."""
    vectors = inst.live.vectors()[: max(candidates, K)]
    norms = np.einsum("ij,ij->i", vectors, vectors)
    samples = []
    for query in queries:
        start = perf_counter()
        dist = norms - 2.0 * (vectors @ query)
        np.argpartition(dist, K - 1)[:K]
        samples.append(perf_counter() - start)
    return statistics.median(samples) * 1e3


#: The IVF access methods ROADMAP item 2 merges, beside pase_ivfflat.
AM_FAMILY = {
    "pase_ivfpq": "clusters = 100, sample_ratio = 0.2, seed = {seed}",
    "pase_ivfsq8": "clusters = 100, sample_ratio = 0.2, seed = {seed}",
    "ivfflat": "lists = 100",
    "bridged_ivfflat": "clusters = 100, sample_ratio = 0.2, seed = {seed}",
}
AM_FAMILY_ROWS = 10_000
AM_FAMILY_QUERIES = 100


def am_family_sweep(inst: Instance, rows: int) -> dict[str, float]:
    """Build, query (``get_batch``) and drop each sibling IVF AM on a
    side table, so all five have a number at one scale."""
    db = inst.db
    db.execute("CREATE TABLE side (id INT4, a INT4, vec FLOAT4[])")
    heap = db.catalog.table("side").heap
    for row_id, vec in enumerate(inst.mixture.draw(rows)):
        heap.insert([row_id, row_id % A_MODULUS, vec], xid=1)
    db.wal.log_commit(1)
    queries = inst.mixture.draw(AM_FAMILY_QUERIES)
    out: dict[str, float] = {}
    for am_name, options in AM_FAMILY.items():
        start = perf_counter()
        db.execute(
            f"CREATE INDEX side_ix ON side USING {am_name} (vec) "
            f"WITH ({options.format(seed=inst.seed)})"
        )
        out[f"am_family.{am_name}.build_s"] = perf_counter() - start
        am = db.catalog.find_index("side_ix").am
        samples = []
        for query in queries:
            start = perf_counter()
            batch = am.get_batch(query, K)
            samples.append(perf_counter() - start)
            if len(batch) != K:
                raise RuntimeError(f"{am_name}.get_batch returned {len(batch)} rows")
        out[f"am_family.{am_name}.get_batch_ms"] = statistics.median(samples) * 1e3
        db.execute("DROP INDEX side_ix")
    db.execute("DROP TABLE side")
    return out
