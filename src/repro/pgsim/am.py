"""Index access-method interface (PostgreSQL's ``IndexAmRoutine``).

The paper notes that for a new index "to be compatible with the
existing SQL query plan, the index implementation has to follow
certain rules": implement ``build()``, ``insert()``, ``delete()`` and
``scan()`` through the ``IndexAmRoutine`` interface, and lay its pages
out so the buffer manager can serve them (Sec. II-E).  This module is
that contract: the PASE and pgvector index types subclass
:class:`IndexAmRoutine` and register themselves in :data:`AM_REGISTRY`
so ``CREATE INDEX ... USING <am>`` can find them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.common.obs import NULL_PROGRESS, NULL_VACUUM_PROGRESS, IndexScanStats
from repro.common.profiling import NULL_PROFILER
from repro.common.types import IndexSizeInfo
from repro.pgsim.buffer import BufferManager
from repro.pgsim.catalog import Catalog
from repro.pgsim.heapam import TID, HeapTable


@dataclass(slots=True)
class ScanBatch:
    """One batch of index-scan candidates, nearest-first.

    The batched counterpart of the ``(tid, distance)`` stream that
    :meth:`IndexAmRoutine.scan` yields: three parallel NumPy arrays so
    the executor can consume a whole result set without one Python
    round trip per candidate (the paper's RC#3 interface cost).
    """

    blknos: np.ndarray  #: int64 heap block numbers
    offsets: np.ndarray  #: int64 1-based heap offsets
    distances: np.ndarray  #: float64 distances, ascending

    def __len__(self) -> int:
        return int(self.blknos.shape[0])

    def tids(self) -> list[TID]:
        return [
            TID(int(b), int(o))
            for b, o in zip(self.blknos.tolist(), self.offsets.tolist())
        ]

    def pairs(self) -> list[tuple[TID, float]]:
        """The batch as ``(tid, distance)`` pairs (tuple-stream form)."""
        return list(zip(self.tids(), self.distances.tolist()))

    @classmethod
    def empty(cls) -> "ScanBatch":
        return cls(
            blknos=np.empty(0, dtype=np.int64),
            offsets=np.empty(0, dtype=np.int64),
            distances=np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_pairs(cls, pairs: Iterator[tuple[TID, float]]) -> "ScanBatch":
        materialized = list(pairs)
        if not materialized:
            return cls.empty()
        return cls(
            blknos=np.array([t.blkno for t, __ in materialized], dtype=np.int64),
            offsets=np.array([t.offset for t, __ in materialized], dtype=np.int64),
            distances=np.array([d for __, d in materialized], dtype=np.float64),
        )


def topk_batch(tid_keys: np.ndarray, distances: np.ndarray, k: int) -> ScanBatch:
    """Select the k nearest candidates from packed-TID/distance arrays.

    ``tid_keys`` uses the AMs' ``(blkno << 16) | offset`` packing.  Ties
    break toward the smallest key — the same (distance, id) order the
    tuple-path heaps produce — so both executor paths agree exactly.
    Only the candidates at or below the k-th distance (found with one
    ``np.partition``) are sorted; ties at that distance all survive the
    cut, so the result equals a full sort's prefix.
    """
    tid_keys = np.asarray(tid_keys, dtype=np.int64)
    distances = np.asarray(distances, dtype=np.float64)
    if 0 < k < distances.shape[0]:
        # ``~(d > kth)`` rather than ``d <= kth``: NaNs stay in and sort last.
        keep = ~(distances > np.partition(distances, k - 1)[k - 1])
        tid_keys, distances = tid_keys[keep], distances[keep]
    order = np.lexsort((tid_keys, distances))
    if k < order.shape[0]:
        order = order[:k]
    keys = tid_keys[order]
    return ScanBatch(
        blknos=keys >> 16,
        offsets=keys & 0xFFFF,
        distances=distances[order],
    )


class IndexAmRoutine(abc.ABC):
    """One index instance bound to (table, column).

    Subclasses own their page layout; pgsim only requires the
    lifecycle below.  ``amname`` identifies the AM in SQL
    (``CREATE INDEX ... USING <amname>``).
    """

    amname: str = ""
    #: alternative SQL names for the AM (PASE exposes e.g.
    #: ``ivfflat_fun``, the name used in the paper's CREATE INDEX).
    aliases: tuple[str, ...] = ()
    #: True when the AM implements :meth:`amsearch_filtered` — in-filter
    #: traversal with the predicate pushed *inside* the index scan.  AMs
    #: that leave this False degrade to the post-filter strategy (the
    #: planner never generates an in-filter path for them).
    amcanfilter: bool = False
    #: Page files the index owns, in the order sizes are reported.
    FORKS: tuple[str, ...] = ()

    def __init__(
        self,
        index_name: str,
        table: HeapTable,
        column_index: int,
        buffer: BufferManager,
        catalog: Catalog,
        options: dict[str, Any],
    ) -> None:
        self.index_name = index_name
        self.table = table
        self.column_index = column_index
        self.buffer = buffer
        self.catalog = catalog
        self.options = dict(options)
        #: Cumulative scan/candidate counters (``pg_stat_indexes``).
        #: Subclasses bump ``candidates`` once per tuple they compute a
        #: distance for; the default :meth:`get_batch` inherits the
        #: counts from the :meth:`scan` it wraps.
        self.scan_stats = IndexScanStats()
        #: Section profiler for build/scan breakdowns.  Harnesses (and
        #: EXPLAIN (ANALYZE, TRACE)) replace this with a live one.
        self.profiler = NULL_PROFILER
        #: Build-progress reporter (``pg_stat_progress_create_index``);
        #: the executor installs a live one around :meth:`build`.
        self.progress = NULL_PROGRESS
        #: Vacuum-progress reporter (``pg_stat_progress_vacuum``); the
        #: executor installs a live one around :meth:`ambulkdelete`, and
        #: AMs tick ``tick_index_entries`` as they reclaim entries.
        self.vacuum_progress = NULL_VACUUM_PROGRESS

    # ------------------------------------------------------------------
    # lifecycle (ambuild / aminsert / ambulkdelete / amgettuple)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build(self) -> None:
        """Build the index over the table's current contents."""

    @abc.abstractmethod
    def insert(self, tid: TID, value: Any) -> None:
        """Index one newly inserted heap tuple."""

    @abc.abstractmethod
    def scan(self, query: np.ndarray, k: int) -> Iterator[tuple[TID, float]]:
        """Ordered scan: yield ``(tid, distance)`` nearest-first.

        This is the ``amgettuple`` path the executor pulls from for
        ``ORDER BY vec <-> q LIMIT k`` plans.
        """

    def get_batch(self, query: np.ndarray, k: int) -> ScanBatch:
        """Batched scan: the k nearest candidates as one :class:`ScanBatch`.

        The ``amgetbatch`` counterpart of :meth:`scan`: instead of one
        ``(tid, distance)`` per executor pull, the whole candidate set
        comes back in NumPy arrays.  The default implementation wraps
        :meth:`scan`, so every AM supports the batch executor path;
        vector AMs override it with genuinely vectorized versions.
        """
        return ScanBatch.from_pairs(self.scan(query, k))

    def delete(self, tid: TID) -> None:
        """Unindex a heap tuple (default: not supported)."""
        raise NotImplementedError(f"{self.amname} does not support deletes")

    def ambulkdelete(self, dead_tids: set[TID]) -> int:
        """Physically reclaim entries pointing at vacuumed heap tuples.

        Called by ``VACUUM`` after the heap pass with the TIDs it
        removed.  Until then searches merely *skip* dead entries via
        snapshot checks on the heap; this hook is where an AM compacts
        its structures (IVF list rewrite, HNSW neighbor repair) so dead
        entries stop costing distance computations.  Returns the number
        of index entries removed.  The default is a no-op: an AM that
        does nothing here stays correct, just slower under churn.
        """
        return 0

    # ------------------------------------------------------------------
    # planner contract (amcostestimate / amrescan)
    # ------------------------------------------------------------------
    def amcostestimate(self, ntuples: float, fetch_k: int, cost: Any) -> tuple[float, float]:
        """Estimate ``(startup, total)`` cost of an ordered k-NN scan.

        ``ntuples`` is the planner's row estimate for the base table,
        ``fetch_k`` the number of candidates the executor will request,
        and ``cost`` a :class:`repro.pgsim.paths.CostParams`.  pgsim's
        ordered scans materialize their whole candidate set before the
        first tuple comes back, so startup equals total.  The default
        assumes an exhaustive scan of the index (every indexed tuple
        gets a distance computation); AMs that prune — IVF probing a
        cluster subset, HNSW walking ``ef_search`` beams — override
        this with their actual candidate counts.
        """
        total = float(ntuples) * (cost.cpu_index_tuple_cost + cost.cpu_operator_cost)
        return total, total

    def amrescan_continue(self, query: np.ndarray, k: int) -> Iterator[tuple[TID, float]]:
        """Continue an ordered scan at a larger ``k`` (over-fetch rescan).

        The executor's adaptive over-fetch loop calls this when the
        first ``scan()`` did not yield enough predicate survivors: same
        query, geometrically larger ``k``.  The contract is merely that
        the result is the ordered prefix of size ``k`` — the default
        re-runs :meth:`scan` from scratch; AMs may override to reuse
        per-query state (e.g. IVF's ranked centroid order) across
        continuations.
        """
        return self.scan(query, k)

    def amrescan_continue_batch(self, query: np.ndarray, k: int) -> ScanBatch:
        """Batched counterpart of :meth:`amrescan_continue`."""
        return self.get_batch(query, k)

    # ------------------------------------------------------------------
    # in-filter contract (amsearch_filtered)
    # ------------------------------------------------------------------
    #: Candidates the last :meth:`amsearch_filtered`/``_batch`` call
    #: evaluated the predicate mask against (feeds the executor's
    #: actual-selectivity measurement for ``pg_stat_estimation_errors``).
    last_filtered_examined: int = 0

    def amsearch_filtered(
        self, query: np.ndarray, k: int, mask_fn: Any
    ) -> Iterator[tuple[TID, float]]:
        """In-filter ordered scan: yield the k nearest *matching* tuples.

        ``mask_fn`` takes a sequence of candidate TIDs and returns a
        boolean array — True where the heap row is visible and satisfies
        the pushed-down predicate.  The AM applies it *inside* its
        traversal: IVF list scans mask candidates before the distance
        top-k; HNSW neighbor expansion keeps routing through masked-out
        nodes but never admits them to the result heap.  When fewer than
        ``k`` candidates survive the AM widens its own search (more
        probe lists, larger ef) until k match or the index is exhausted.
        Only called when :attr:`amcanfilter` is True.
        """
        raise NotImplementedError(f"{self.amname} does not support in-filter search")

    def amsearch_filtered_batch(self, query: np.ndarray, k: int, mask_fn: Any) -> ScanBatch:
        """Batched counterpart of :meth:`amsearch_filtered`.

        The default wraps the tuple form; vectorized AMs override it.
        """
        return ScanBatch.from_pairs(self.amsearch_filtered(query, k, mask_fn))

    def amestimate_candidates(self, ntuples: float, fetch_k: int) -> float:
        """Candidates one scan pass examines (planner's in-filter model).

        The in-filter path charges the predicate mask per *examined*
        candidate (an attribute fetch + qual eval each), which for list-
        or beam-pruned AMs is far more than the ``fetch_k`` results
        returned.  The default assumes an exhaustive scan; pruning AMs
        override with the same candidate count their ``amcostestimate``
        uses.
        """
        return float(ntuples)

    def size_info(self) -> IndexSizeInfo:
        """Byte-level size accounting (drives the Figs. 11-13 benches).

        The default counts every page of every fork in :attr:`FORKS` and
        the live item bytes on them; AMs with memory-resident parts add
        those themselves.
        """
        disk = self.buffer.disk
        detail: dict[str, int] = {}
        pages = 0
        used = 0
        for fork in self.FORKS:
            rel = self.relation_name(fork)
            if not disk.relation_exists(rel):
                continue
            n = disk.n_blocks(rel)
            pages += n
            detail[f"{fork}_pages"] = n
            for blkno in range(n):
                with self.buffer.page(rel, blkno) as page:
                    for off in page.live_items():
                        used += len(page.get_item_view(off))
        return IndexSizeInfo(
            allocated_bytes=pages * disk.page_size,
            used_bytes=used,
            page_count=pages,
            detail=detail,
        )

    # ------------------------------------------------------------------
    # helpers shared by vector AMs
    # ------------------------------------------------------------------
    def relations(self) -> list[str]:
        """Page-file names owned by this index (for DROP cleanup)."""
        return [self.relation_name(fork) for fork in self.FORKS]

    def relation_name(self, fork: str) -> str:
        """Page-file name for one of this index's forks."""
        return f"{self.index_name}.{fork}"

    def create_fork(self, fork: str) -> str:
        """Create (or reuse) a page file for a fork; returns its name."""
        rel = self.relation_name(fork)
        if not self.buffer.disk.relation_exists(rel):
            self.buffer.disk.create_relation(rel)
        return rel


#: amname -> IndexAmRoutine subclass.  PASE/pgvector register here at
#: import time; ``CREATE INDEX ... USING <amname>`` looks the AM up.
AM_REGISTRY: dict[str, type[IndexAmRoutine]] = {}


def register_am(cls: type[IndexAmRoutine]) -> type[IndexAmRoutine]:
    """Class decorator adding an AM (and its aliases) to the registry."""
    if not cls.amname:
        raise ValueError(f"{cls.__name__} must set amname")
    for name in (cls.amname, *cls.aliases):
        if name in AM_REGISTRY:
            raise ValueError(f"access method {name!r} already registered")
        AM_REGISTRY[name] = cls
    return cls


def lookup_am(amname: str) -> type[IndexAmRoutine]:
    """Resolve an AM by name.

    Raises:
        KeyError: with the known AM names listed.
    """
    try:
        return AM_REGISTRY[amname]
    except KeyError:
        known = ", ".join(sorted(AM_REGISTRY)) or "(none)"
        raise KeyError(f"unknown access method {amname!r}; known: {known}") from None
