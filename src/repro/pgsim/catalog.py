"""System catalog and GUC-style settings.

Tracks tables, their schemas, and their indexes — the role of
``pg_class``/``pg_attribute``/``pg_index`` — plus a settings store for
the runtime parameters PASE exposes through ``SET`` (e.g.
``pase.nprobe``, the paper's Table II search knobs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.pgsim.heapam import HeapTable
from repro.pgsim.tuple_format import Column


class CatalogError(RuntimeError):
    """Raised for catalog violations (duplicate names, missing objects)."""


@dataclass
class IndexInfo:
    """Catalog entry for one index."""

    name: str
    table_name: str
    column_name: str
    am_name: str
    options: dict[str, Any]
    am: Any  # the IndexAmRoutine instance (typed loosely to avoid cycles)


@dataclass
class TableInfo:
    """Catalog entry for one table."""

    name: str
    columns: list[Column]
    heap: HeapTable
    indexes: dict[str, IndexInfo] = field(default_factory=dict)
    #: Planner statistics (:class:`repro.pgsim.analyze.TableStats`),
    #: populated by ``ANALYZE`` — the pg_class/pg_statistic role.
    #: ``None`` until the table has been analyzed.
    stats: Any = None

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def projection(self, names: list[str]) -> tuple[list[str], list[int]]:
        """The ``names`` that are columns here, with their attribute
        numbers (a heap projection).  Other names are dropped: evaluating
        the expression that mentions them reports the missing column."""
        kept = [name for name in names if name in self.column_names()]
        return kept, [self.heap.column_index(name) for name in kept]


#: Default GUC values; names follow PASE's SQL examples and Table II,
#: plus PostgreSQL's planner cost constants (costsize.c defaults).
DEFAULT_SETTINGS: dict[str, Any] = {
    "pase.nprobe": 20,
    "pase.efs": 200,
    "pase.fixed_heap": False,  # RC#6 ablation: use a k-sized heap
    "pase.optimized_pctable": False,  # RC#7 ablation
    "enable_indexscan": True,
    "enable_seqscan": True,
    "enable_batch_exec": False,  # RC#3 ablation: batch-at-a-time executor
    # Hybrid filtered search: force one strategy ("pre-filter" /
    # "post-filter" / "in-filter") instead of costing all three;
    # "auto" keeps the cost-based choice.
    "filtered_search_strategy": "auto",
    # Hard cap on post-filter over-fetching, as a multiple of k: the
    # planner never sizes fetch_k above max_filtered_overfetch * k and
    # the executor's geometric rescan loop stops doubling there —
    # falling back to a brute-force pre-filter pass instead of
    # re-scanning the whole index on a mis-estimated rare predicate.
    "max_filtered_overfetch": 32,
    "track_query_stats": True,  # per-statement QueryStats + pg_stat_statements
    # Planner cost model (PostgreSQL costsize.c defaults).
    "seq_page_cost": 1.0,
    "random_page_cost": 4.0,
    "cpu_tuple_cost": 0.01,
    "cpu_index_tuple_cost": 0.005,
    "cpu_operator_cost": 0.0025,
    # ANALYZE sampling resolution: MCV list length and histogram buckets.
    "default_statistics_target": 100,
    # Autovacuum-style maintenance (checked after each statement when
    # ``autovacuum`` is on): vacuum a table once
    # ``n_dead_tup > threshold + scale_factor * n_live_tup``.
    "autovacuum": False,
    "autovacuum_vacuum_threshold": 50,
    "autovacuum_vacuum_scale_factor": 0.2,
    # IVF list maintenance: re-center a cluster's centroid during
    # VACUUM once (dead entries + post-build inserts) exceed this
    # fraction of the list's size.
    "ivf_recluster_threshold": 0.3,
    # Slow-query logging (PostgreSQL semantics): statements taking at
    # least this many milliseconds are recorded in the structured
    # slow-query ring; -1 disables, 0 logs everything.
    "log_min_duration_statement": -1,
    # auto_explain: statements crossing this threshold (ms) capture
    # their EXPLAIN (ANALYZE, BUFFERS) plan + RC attribution into the
    # slow-query record; -1 disables.
    "auto_explain_log_min_duration": -1,
    # Autovacuum runs taking at least this many ms are logged; -1 off.
    "log_autovacuum_min_duration": -1,
    # Capacity of the in-memory slow-query ring (applied at database
    # creation) and an optional JSONL file sink ("" = in-memory only).
    "slow_query_log_size": 256,
    "slow_query_log_file": "",
    # Online recall probes: fraction of top-k index scans re-answered
    # by the brute-force oracle (0.0 = off), with a deterministic
    # per-scan sampling seed.
    "vector_quality_probe_rate": 0.0,
    "vector_quality_probe_seed": 0,
    # Active Session History: a background thread samples every active
    # backend's state/query/wait-event into a bounded ring every
    # ``ash_sampling_interval_ms``, served as pg_ash/pg_wait_profile.
    "ash_enable": False,
    "ash_sampling_interval_ms": 10,
    "ash_ring_size": 4096,
    # Stat-history ring: the same sampler thread records deltas of the
    # cumulative counter families into pg_stat_history every
    # ``stat_history_interval_ms`` (ring size in rows, not ticks).
    "stat_history_interval_ms": 1000,
    "stat_history_ring_size": 512,
    # Planner estimate-vs-actual probes: fraction of ordinary SELECTs
    # executed with per-node instrumentation feeding
    # pg_stat_estimation_errors (EXPLAIN ANALYZE always records).
    # Deterministic per-statement sampling, like the recall probes.
    "estimation_probe_rate": 0.0,
    "estimation_probe_seed": 0,
}

_TRUTHY = {"on", "true", "yes", "1"}
_FALSY = {"off", "false", "no", "0"}


class Catalog:
    """In-memory catalog of tables, indexes and settings."""

    def __init__(self) -> None:
        self._tables: dict[str, TableInfo] = {}
        self._views: dict[str, Any] = {}
        self.settings: dict[str, Any] = dict(DEFAULT_SETTINGS)

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def add_table(self, info: TableInfo) -> None:
        if info.name in self._tables:
            raise CatalogError(f"table {info.name!r} already exists")
        if info.name in self._views:
            raise CatalogError(f"{info.name!r} is a reserved statistics view")
        self._tables[info.name] = info

    def drop_table(self, name: str) -> TableInfo:
        info = self.table(name)
        del self._tables[name]
        return info

    def table(self, name: str) -> TableInfo:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------
    # virtual tables (pg_stat_* views)
    # ------------------------------------------------------------------
    def register_view(self, view: Any) -> None:
        """Register a read-only virtual table (a ``StatView``).

        Views share the table namespace from the planner's point of
        view, so a view may not shadow a real table.
        """
        if view.name in self._tables:
            raise CatalogError(f"table {view.name!r} already exists")
        self._views[view.name] = view

    def has_view(self, name: str) -> bool:
        return name in self._views

    def view(self, name: str) -> Any:
        try:
            return self._views[name]
        except KeyError:
            raise CatalogError(f"no such view: {name!r}") from None

    def view_names(self) -> list[str]:
        return sorted(self._views)

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def add_index(self, info: IndexInfo) -> None:
        table = self.table(info.table_name)
        if self.find_index(info.name) is not None:
            raise CatalogError(f"index {info.name!r} already exists")
        table.indexes[info.name] = info

    def drop_index(self, name: str) -> IndexInfo:
        for table in self._tables.values():
            if name in table.indexes:
                return table.indexes.pop(name)
        raise CatalogError(f"no such index: {name!r}")

    def find_index(self, name: str) -> IndexInfo | None:
        for table in self._tables.values():
            if name in table.indexes:
                return table.indexes[name]
        return None

    def indexes_on(self, table_name: str, column_name: str | None = None) -> list[IndexInfo]:
        """Indexes of a table, optionally restricted to one column."""
        table = self.table(table_name)
        out = list(table.indexes.values())
        if column_name is not None:
            out = [ix for ix in out if ix.column_name == column_name]
        return out

    # ------------------------------------------------------------------
    # settings
    # ------------------------------------------------------------------
    def set_setting(self, name: str, value: Any) -> None:
        """SET name = value (names are case-insensitive)."""
        self.settings[name.lower()] = value

    def get_setting(self, name: str) -> Any:
        try:
            return self.settings[name.lower()]
        except KeyError:
            raise CatalogError(f"unrecognized configuration parameter: {name!r}") from None

    def get_bool(self, name: str) -> bool:
        """A setting as a boolean, accepting PostgreSQL's spellings.

        ``SET x = off`` reaches the catalog as the string ``"off"``
        (and ``on`` as ``True`` via the parser), so boolean GUCs must
        coerce rather than rely on Python truthiness.
        """
        value = self.get_setting(name)
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in _TRUTHY:
                return True
            if lowered in _FALSY:
                return False
        raise CatalogError(f"parameter {name!r} requires a Boolean value, got {value!r}")
