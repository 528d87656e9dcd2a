"""PASE IVF_PQ: the paged IVF core with product-quantized data pages.

Two PQ-specific pieces on top of :class:`repro.pase.ivf_core.PagedIVF`:

- a **codebook fork** storing the ``m * c_pq`` codeword sub-vectors as
  page tuples (``sub_space (u16) | codeword (u16) | sub-vector``);
  the decoded codebook is cached in memory after build/first load,
  like PASE's memory-resident PQ metadata — the paper's RC#7 is about
  how the *per-query table* is computed, not codebook storage;
- data tuples carry PQ codes instead of raw vectors:
  ``heap_blkno (u32) | heap_offset (u16) | pad | code (m bytes)``,
  and the meta tuple appends ``m`` and ``c_pq``.

Search builds the per-query ADC table the PASE way — one
``fvec_L2sqr`` per table cell (RC#7) — unless
``SET pase.optimized_pctable = true`` enables the Faiss-style
decomposition, then scores candidates by table lookups.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from repro.common import pq
from repro.common.types import DistanceType
from repro.pase.ivf_core import SEC_DISTANCE, PagedIVF, RowsScorer, TupleScorer
from repro.pase.options import parse_ivfpq_options
from repro.pgsim.am import register_am
from repro.pgsim.page import PageFullError

_META = struct.Struct("<IIIII")  # dim, clusters, distance_type, m, c_pq
_CODEBOOK_HEAD = struct.Struct("<HH")  # sub-space, codeword id

SEC_PCTABLE = "Pctable"


@register_am
class PaseIVFPQ(PagedIVF):
    """IVF_PQ access method (PASE page layout)."""

    amname = "pase_ivfpq"
    aliases = ("ivfpq_fun",)
    FORKS = ("meta", "centroid", "codebook", "data")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.opts = parse_ivfpq_options(self.options)
        self._codebook: pq.PQCodebook | None = None

    def _metric(self) -> DistanceType:
        # ADC tables hold squared L2 terms, so lists rank under L2 too.
        return DistanceType.L2

    # ------------------------------------------------------------------
    # codec: train, persist, load, encode
    # ------------------------------------------------------------------
    def _codec_training_floor(self) -> int:
        return self.opts.c_pq

    def _train_codec(self, sample: np.ndarray) -> None:
        if self.dim % self.opts.m != 0:
            raise ValueError(f"vector dim {self.dim} is not divisible by m={self.opts.m}")
        self._codebook = pq.train_codebook(
            sample,
            self.opts.m,
            min(self.opts.c_pq, sample.shape[0]),
            max_iterations=self.ivf.kmeans_iterations,
            seed=self.ivf.seed,
            style="pase",
        )

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return pq.encode(self._load_codebook(), vectors)

    def _meta_item(self, n_clusters: int) -> bytes:
        codebook = self._load_codebook()
        return _META.pack(
            self.dim, n_clusters, int(self.ivf.distance_type), codebook.m, codebook.c_pq
        )

    def _write_codec_fork(self) -> None:
        codebook = self._load_codebook()
        rel = self.create_fork("codebook")
        frame = None
        for j in range(codebook.m):
            for c in range(codebook.c_pq):
                item = _CODEBOOK_HEAD.pack(j, c) + codebook.codebooks[j, c].tobytes()
                if frame is not None:
                    try:
                        frame.page.insert_item(item)
                        continue
                    except PageFullError:
                        self.buffer.unpin(frame, dirty=True)
                        frame = None
                __, frame = self.buffer.new_page(rel)
                frame.page.insert_item(item)
        if frame is not None:
            self.buffer.unpin(frame, dirty=True)

    def _load_codebook(self) -> pq.PQCodebook:
        """Decode codebook pages once and cache (PASE keeps it resident)."""
        if self._codebook is not None:
            return self._codebook
        rel = self.relation_name("codebook")
        with self.buffer.page(self.relation_name("meta"), 0) as page:
            dim, __, __, m, c_pq = _META.unpack_from(page.get_item_view(1), 0)
        d_sub = dim // m
        books = np.empty((m, c_pq, d_sub), dtype=np.float32)
        for blkno in range(self.buffer.disk.n_blocks(rel)):
            with self.buffer.page(rel, blkno) as page:
                for off in page.live_items():
                    view = page.get_item_view(off)
                    j, c = _CODEBOOK_HEAD.unpack_from(view, 0)
                    books[j, c] = np.frombuffer(
                        view, dtype=np.float32, offset=_CODEBOOK_HEAD.size
                    )
        norms = np.stack(
            [np.einsum("ij,ij->i", books[j], books[j]) for j in range(m)]
        )
        self._codebook = pq.PQCodebook(codebooks=books, codeword_sq_norms=norms)
        return self._codebook

    # ------------------------------------------------------------------
    # scoring: per-query ADC table, then lookups
    # ------------------------------------------------------------------
    def _adc_table(self, query: np.ndarray) -> np.ndarray:
        if self.catalog.get_bool("pase.optimized_pctable"):
            build = pq.optimized_adc_table
        else:
            build = pq.naive_adc_table
        return self.profiler.timed(SEC_PCTABLE, build)(self._load_codebook(), query)

    def _tuple_scorer(self, query: np.ndarray) -> TupleScorer:
        table = self._adc_table(query)
        adc = self.profiler.timed(SEC_DISTANCE, pq.adc_distance_single)

        def score_one(_key, code):
            return adc(table, code)

        return score_one

    def _rows_scorer(self, query: np.ndarray) -> RowsScorer:
        """Bucket code matrices scored by array ADC lookups.

        Accumulates the ADC sum column-by-column in float64 — the same
        sub-space order and precision as
        :func:`repro.common.pq.adc_distance_single` — so both executor
        paths compute bit-identical distances.
        """
        table = self._adc_table(query)
        section = self.profiler.section

        def score_rows(keys, codes):
            with section(SEC_DISTANCE):
                acc = np.zeros(codes.shape[0], dtype=np.float64)
                for j in range(table.shape[0]):
                    acc += table[j, codes[:, j]]
                return keys, acc

        return score_rows

    # ------------------------------------------------------------------
    # planner cost estimate
    # ------------------------------------------------------------------
    def _query_setup_cost(self, cost: Any) -> float:
        """Building the per-query lookup table costs ``c_pq * m``
        operators up front."""
        return float(self.opts.c_pq * self.opts.m) * cost.cpu_operator_cost

    def _candidate_cost(self, cost: Any) -> float:
        """Each probed candidate's distance is ``m`` table lookups — far
        cheaper than a full float distance."""
        return cost.cpu_index_tuple_cost + 3.0 * cost.cpu_operator_cost
