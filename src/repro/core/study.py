"""The comparative study: same index, same parameters, two engines.

:class:`ComparativeStudy` is the experimental apparatus of the paper:
it loads one dataset into both a :class:`GeneralizedVectorDB`
(PASE on the pgsim relational engine) and a
:class:`SpecializedVectorDB` (the Faiss-like engine), builds the same
index with the same parameters on both, and measures construction
time, index size and search latency side by side.  Both wrappers
expose the same surface so experiments and benches stay symmetric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.common.datasets import Dataset
from repro.common.metrics import LatencyStats, latency_stats, mean_recall_at_k
from repro.common.profiling import NULL_PROFILER, Profiler
from repro.common.types import BuildStats, IndexSizeInfo, SearchResult
from repro.pgsim import PgSimDatabase
from repro.pgsim.heapam import TID
from repro.specialized import IVFFlatIndex
from repro.specialized.base import VectorIndex
from repro.specialized.database import INDEX_TYPES as _SPEC_CLASSES

#: Index types the paper studies.
INDEX_TYPES = ("ivf_flat", "ivf_pq", "ivf_sq8", "hnsw")

#: index type -> PASE access-method name.
_PASE_AM = {
    "ivf_flat": "pase_ivfflat",
    "ivf_pq": "pase_ivfpq",
    "ivf_sq8": "pase_ivfsq8",
    "hnsw": "pase_hnsw",
}


class GeneralizedVectorDB:
    """PASE on pgsim, behind the study's uniform engine interface."""

    name = "PASE"

    def __init__(
        self,
        page_size: int = 8192,
        buffer_pool_pages: int = 16384,
        profiler: Profiler | None = None,
    ) -> None:
        self.db = PgSimDatabase(page_size=page_size, buffer_pool_pages=buffer_pool_pages)
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        # Indexes must profile from their build onward (Table III).
        self.db.executor.am_profiler = self.profiler
        self.table_name = "vectors"
        self.index_name = "vec_idx"
        self.am = None
        self._id_by_tid: dict[TID, int] = {}

    # ------------------------------------------------------------------
    # data loading
    # ------------------------------------------------------------------
    def load(self, vectors: np.ndarray) -> None:
        """Create the vectors table and bulk-load ``vectors``.

        Rows get ids 0..n-1.  Loading goes through the heap access
        method directly (the SQL INSERT path is exercised separately in
        tests/examples); index builds and searches still pay the full
        buffer-manager costs.  The WAL is flushed each time the load
        moves to a new heap block, so the filled pages may be evicted
        (no-steal only pins pages past the durable horizon) and a pool
        smaller than the table can still load it.
        """
        self.db.execute(f"CREATE TABLE {self.table_name} (id int, vec float[])")
        table = self.db.catalog.table(self.table_name)
        arr = np.ascontiguousarray(vectors, dtype=np.float32)
        blkno = None
        for i in range(arr.shape[0]):
            tid = table.heap.insert([i, arr[i]], xid=1)
            self._id_by_tid[tid] = i
            if tid.blkno != blkno:
                blkno = tid.blkno
                self.db.wal.flush()
        self.db.wal.log_commit(1)

    # ------------------------------------------------------------------
    # index lifecycle
    # ------------------------------------------------------------------
    def create_index(self, index_type: str, **params: Any) -> BuildStats:
        """Build a PASE index; returns its construction stats."""
        if index_type not in INDEX_TYPES:
            raise ValueError(f"unknown index type {index_type!r}")
        if self.am is not None:
            self.drop_index()
        options = _pase_options(index_type, params)
        with_clause = ""
        if options:
            parts = ", ".join(f"{k} = {_sql_literal(v)}" for k, v in options.items())
            with_clause = f" WITH ({parts})"
        self.db.execute(
            f"CREATE INDEX {self.index_name} ON {self.table_name} "
            f"USING {_PASE_AM[index_type]} (vec){with_clause}"
        )
        info = self.db.catalog.find_index(self.index_name)
        assert info is not None
        self.am = info.am
        self.am.profiler = self.profiler
        return self.am.build_stats

    def drop_index(self) -> None:
        """Drop the current index (for rebuild sweeps)."""
        self.db.execute(f"DROP INDEX IF EXISTS {self.index_name}")
        self.am = None

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int | None = None,
        efs: int | None = None,
    ) -> SearchResult:
        """Top-k search through the index AM, results mapped to row ids.

        Like a real ``SELECT id ... ORDER BY vec <-> q LIMIT k``, the
        result mapping fetches each hit's heap tuple, so the measured
        time includes the index-scan heap round trips.
        """
        if self.am is None:
            raise RuntimeError("create an index before searching")
        if nprobe is not None:
            self.db.execute(f"SET pase.nprobe = {int(nprobe)}")
        if efs is not None:
            self.db.execute(f"SET pase.efs = {int(efs)}")
        accesses_before = self.db.buffer.stats.accesses
        candidates_before = self.am.scan_stats.candidates
        table = self.db.catalog.table(self.table_name)
        use_batch = self.db.catalog.get_bool("enable_batch_exec")
        start = time.perf_counter()
        neighbors = []
        if use_batch:
            # RC#3 ablation: amgetbatch + block-grouped heap fetches.
            batch = self.am.get_batch(np.ascontiguousarray(query, dtype=np.float32), k)
            row_ids = table.heap.fetch_column_many(batch.tids(), 0)
            neighbors = [
                _neighbor(row_id, dist)
                for row_id, dist in zip(row_ids, batch.distances.tolist())
            ]
        else:
            for tid, dist in self.am.scan(np.ascontiguousarray(query, dtype=np.float32), k):
                row_id = table.heap.fetch_column(tid, 0)
                neighbors.append(_neighbor(row_id, dist))
        elapsed = time.perf_counter() - start
        return SearchResult(
            neighbors=neighbors,
            elapsed_seconds=elapsed,
            tuples_accessed=self.db.buffer.stats.accesses - accesses_before,
            distance_computations=self.am.scan_stats.candidates - candidates_before,
        )

    # ------------------------------------------------------------------
    # knobs & introspection
    # ------------------------------------------------------------------
    def set_fixed_heap(self, enabled: bool) -> None:
        """RC#6 ablation: use a k-sized heap instead of PASE's n-heap."""
        self.db.execute(f"SET pase.fixed_heap = {'true' if enabled else 'false'}")

    def set_optimized_pctable(self, enabled: bool) -> None:
        """RC#7 ablation: use the Faiss-style ADC table in PASE."""
        self.db.execute(f"SET pase.optimized_pctable = {'true' if enabled else 'false'}")

    def index_size(self) -> IndexSizeInfo:
        if self.am is None:
            raise RuntimeError("create an index before measuring its size")
        return self.am.size_info()

    def pase_centroids(self) -> np.ndarray:
        """Extract trained IVF centroids (the Fig. 15 transplant source)."""
        if self.am is None or not hasattr(self.am, "_iter_centroids"):
            raise RuntimeError("centroids are only available on IVF indexes")
        rows = [centroid.copy() for __, __, centroid in self.am._iter_centroids()]
        return np.vstack(rows)


class SpecializedVectorDB:
    """The Faiss-like engine, behind the same interface."""

    name = "Faiss"

    def __init__(self, profiler: Profiler | None = None) -> None:
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.vectors: np.ndarray | None = None
        self.index: VectorIndex | None = None

    def load(self, vectors: np.ndarray) -> None:
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)

    def create_index(self, index_type: str, **params: Any) -> BuildStats:
        if self.vectors is None:
            raise RuntimeError("load vectors before building an index")
        self.index = make_specialized_index(
            index_type, self.vectors.shape[1], params, profiler=self.profiler
        )
        if self.index.requires_training:
            self.index.train(self.vectors)
        self.index.add(self.vectors)
        return self.index.build_stats

    def drop_index(self) -> None:
        self.index = None

    def search(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int | None = None,
        efs: int | None = None,
    ) -> SearchResult:
        if self.index is None:
            raise RuntimeError("create an index before searching")
        given = {"nprobe": nprobe, "efs": efs}
        kwargs = {
            name: given[name] for name in self.index.search_params if given[name] is not None
        }
        return self.index.search(query, k, **kwargs)

    def index_size(self) -> IndexSizeInfo:
        if self.index is None:
            raise RuntimeError("create an index before measuring its size")
        return self.index.size_info()


#: Study parameter names understood per index type; parameters for
#: other index types are dropped silently so one common dict can
#: configure every index family.
_SPEC_PARAMS: dict[str, dict[str, Any]] = {
    "ivf_flat": {
        "clusters": 256,
        "sample_ratio": 0.01,
        "use_sgemm": True,
        "kmeans_style": "faiss",
        "kmeans_iterations": 10,
        "seed": None,
    },
    "ivf_pq": {
        "clusters": 256,
        "m": 16,
        "c_pq": 256,
        "sample_ratio": 0.01,
        "use_sgemm": True,
        "optimized_pctable": True,
        "kmeans_style": "faiss",
        "kmeans_iterations": 10,
        "seed": None,
    },
    "ivf_sq8": {
        "clusters": 256,
        "sample_ratio": 0.01,
        "use_sgemm": True,
        "kmeans_style": "faiss",
        "kmeans_iterations": 10,
        "seed": None,
    },
    "hnsw": {"bnn": 16, "efb": 40, "efs": 200, "seed": None},
}

#: Every parameter name any index type accepts (for typo detection).
_ALL_PARAM_NAMES = {name for defs in _SPEC_PARAMS.values() for name in defs} | {
    "distance_type"
}


def make_specialized_index(
    index_type: str, dim: int, params: dict[str, Any], profiler: Profiler | None = None
) -> VectorIndex:
    """Instantiate a specialized index from the study's common params.

    Parameters belonging to other index families are ignored; unknown
    names raise.
    """
    if index_type not in _SPEC_PARAMS:
        raise ValueError(f"unknown index type {index_type!r}")
    unknown = set(params) - _ALL_PARAM_NAMES
    if unknown:
        raise ValueError(f"unrecognized study parameters: {sorted(unknown)}")
    defaults = _SPEC_PARAMS[index_type]
    kwargs = {name: params.get(name, default) for name, default in defaults.items()}
    kwargs["profiler"] = profiler if profiler is not None else NULL_PROFILER
    if "distance_type" in params:
        kwargs["distance_type"] = params["distance_type"]
    if "clusters" in kwargs:  # every IVF variant
        kwargs["n_clusters"] = kwargs.pop("clusters")
    return _SPEC_CLASSES[index_type](dim, **kwargs)


def _pase_options(index_type: str, params: dict[str, Any]) -> dict[str, Any]:
    """Translate common study params to PASE WITH options.

    Specialized-only switches and parameters of other index families
    are dropped; unknown names raise.
    """
    unknown = set(params) - _ALL_PARAM_NAMES
    if unknown:
        raise ValueError(f"unrecognized study parameters: {sorted(unknown)}")
    options: dict[str, Any] = {}
    if index_type in ("ivf_flat", "ivf_pq", "ivf_sq8"):
        if "clusters" in params:
            options["clusters"] = int(params["clusters"])
        if "sample_ratio" in params:
            options["sample_ratio"] = float(params["sample_ratio"])
        if "kmeans_iterations" in params:
            options["kmeans_iterations"] = int(params["kmeans_iterations"])
    if index_type == "ivf_pq":
        if "m" in params:
            options["m"] = int(params["m"])
        if "c_pq" in params:
            options["c_pq"] = int(params["c_pq"])
    if index_type == "hnsw":
        if "bnn" in params:
            options["bnn"] = int(params["bnn"])
        if "efb" in params:
            options["efb"] = int(params["efb"])
    if params.get("seed") is not None:
        options["seed"] = int(params["seed"])
    if "distance_type" in params:
        options["distance_type"] = int(params["distance_type"])
    return options


def _sql_literal(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    return "'" + str(value).replace("'", "''") + "'"


def _neighbor(row_id: int, dist: float):
    from repro.common.types import Neighbor

    return Neighbor(vector_id=int(row_id), distance=float(dist))


# ----------------------------------------------------------------------
# comparison records
# ----------------------------------------------------------------------
@dataclass(slots=True)
class BuildComparison:
    """Construction-time comparison (Figs. 3-7 rows)."""

    dataset: str
    index_type: str
    generalized: BuildStats
    specialized: BuildStats

    @property
    def gap(self) -> float:
        """How many times slower the generalized build is."""
        if self.specialized.total_seconds == 0:
            return float("inf")
        return self.generalized.total_seconds / self.specialized.total_seconds


@dataclass(slots=True)
class SizeComparison:
    """Index-size comparison (Figs. 11-13 rows)."""

    dataset: str
    index_type: str
    generalized: IndexSizeInfo
    specialized: IndexSizeInfo

    @property
    def gap(self) -> float:
        """How many times larger the generalized index is."""
        if self.specialized.allocated_bytes == 0:
            return float("inf")
        return self.generalized.allocated_bytes / self.specialized.allocated_bytes


@dataclass(slots=True)
class SearchComparison:
    """Search-latency comparison (Figs. 14-17 rows)."""

    dataset: str
    index_type: str
    generalized: LatencyStats
    specialized: LatencyStats
    generalized_recall: float = 0.0
    specialized_recall: float = 0.0

    @property
    def gap(self) -> float:
        """How many times slower the generalized search is."""
        if self.specialized.mean == 0:
            return float("inf")
        return self.generalized.mean / self.specialized.mean


class ComparativeStudy:
    """Pair the two engines on one dataset + index + parameter set."""

    def __init__(
        self,
        dataset: Dataset,
        index_type: str,
        params: dict[str, Any] | None = None,
        generalized: GeneralizedVectorDB | None = None,
        specialized: SpecializedVectorDB | None = None,
    ) -> None:
        if index_type not in INDEX_TYPES:
            raise ValueError(f"unknown index type {index_type!r}")
        self.dataset = dataset
        self.index_type = index_type
        self.params = dict(params or {})
        self.generalized = generalized if generalized is not None else GeneralizedVectorDB()
        self.specialized = specialized if specialized is not None else SpecializedVectorDB()
        self._loaded = False
        self._built = False
        #: The specialized index a centroid transplant replaced.
        self.trained_index: VectorIndex | None = None

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Load the dataset into both engines (idempotent)."""
        if self._loaded:
            return
        self.generalized.load(self.dataset.base)
        self.specialized.load(self.dataset.base)
        self._loaded = True

    def compare_build(self) -> BuildComparison:
        """Build the index on both sides; returns timing comparison."""
        self.prepare()
        gen_stats = self.generalized.create_index(self.index_type, **self.params)
        spec_params = dict(self.params)
        spec_stats = self.specialized.create_index(self.index_type, **spec_params)
        self._built = True
        return BuildComparison(
            dataset=self.dataset.name,
            index_type=self.index_type,
            generalized=gen_stats,
            specialized=spec_stats,
        )

    def compare_size(self) -> SizeComparison:
        """Index sizes (builds first if needed)."""
        if not self._built:
            self.compare_build()
        return SizeComparison(
            dataset=self.dataset.name,
            index_type=self.index_type,
            generalized=self.generalized.index_size(),
            specialized=self.specialized.index_size(),
        )

    def compare_search(
        self,
        k: int = 100,
        nprobe: int | None = 20,
        efs: int | None = None,
        n_queries: int | None = None,
        recall: bool = False,
        specialized_first: bool = False,
    ) -> SearchComparison:
        """Run the query batch on both sides, query by query, and compare
        latencies; ``specialized_first`` swaps which side answers each
        query first."""
        if not self._built:
            self.compare_build()
        queries = self.dataset.queries
        if n_queries is not None:
            queries = queries[:n_queries]
        # The paper's protocol (Sec. IV-A): warm up once so data and
        # index are resident before timing.
        self.generalized.search(queries[0], k, nprobe=nprobe, efs=efs)
        self.specialized.search(queries[0], k, nprobe=nprobe, efs=efs)
        gen_lat: list[float] = []
        spec_lat: list[float] = []
        gen_ids: list[list[int]] = []
        spec_ids: list[list[int]] = []
        sides = [(self.generalized, gen_lat, gen_ids), (self.specialized, spec_lat, spec_ids)]
        if specialized_first:
            sides.reverse()
        for q in queries:
            for engine, latencies, ids in sides:
                r = engine.search(q, k, nprobe=nprobe, efs=efs)
                latencies.append(r.elapsed_seconds)
                ids.append(r.ids)
        comparison = SearchComparison(
            dataset=self.dataset.name,
            index_type=self.index_type,
            generalized=latency_stats(gen_lat),
            specialized=latency_stats(spec_lat),
        )
        if recall:
            truth = self.dataset.ground_truth(k)[: len(queries)]
            comparison.generalized_recall = mean_recall_at_k(gen_ids, truth, k)
            comparison.specialized_recall = mean_recall_at_k(spec_ids, truth, k)
        return comparison

    def transplant_centroids(self) -> None:
        """Fig. 15: rebuild the specialized index with PASE's centroids.

        Makes the two sides use identical clusters, isolating RC#5.  The
        first transplant keeps the index it replaces in
        :attr:`trained_index`.
        """
        if not self._built:
            self.compare_build()
        if self.index_type != "ivf_flat":
            raise ValueError("centroid transplant applies to IVF_FLAT only")
        if self.trained_index is None:
            self.trained_index = self.specialized.index
        centroids = self.generalized.pase_centroids()
        index = IVFFlatIndex(
            self.dataset.dim,
            n_clusters=centroids.shape[0],
            profiler=self.specialized.profiler,
        )
        index.set_centroids(centroids)
        assert self.specialized.vectors is not None
        index.add(self.specialized.vectors)
        self.specialized.index = index
