"""PASE IVF_PQ: the paged IVF core with product-quantized data pages.

Two PQ-specific pieces on top of :class:`repro.pase.ivf_core.PagedIVF`:

- a **codebook fork** storing the ``m * c_pq`` codeword sub-vectors as
  page tuples; the decoded codebook is cached in memory after
  build/first load, like PASE's memory-resident PQ metadata — the
  paper's RC#7 is about how the *per-query table* is computed, not
  codebook storage;
- data tuples carry ``m``-byte PQ codes instead of raw vectors, and the
  meta tuple appends ``m`` and ``c_pq`` (formats: :mod:`repro.pase.layout`).

Search builds the per-query ADC table the PASE way — one
``fvec_L2sqr`` per table cell (RC#7) — unless
``SET pase.optimized_pctable = true`` enables the Faiss-style
decomposition, then scores candidates by table lookups.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common import pq
from repro.common.profiling import SEC_DISTANCE, SEC_PCTABLE
from repro.pase.ivf_core import PagedIVF, RowsScorer, TupleScorer
from repro.pase.layout import IVF_META, PQ_CODEBOOK
from repro.pase.options import parse_ivfpq_options
from repro.pgsim.am import register_am
from repro.specialized.ivf_pq import IVFPQIndex


@register_am
class PaseIVFPQ(PagedIVF):
    """IVF_PQ access method (PASE page layout)."""

    amname = "pase_ivfpq"
    aliases = ("ivfpq_fun",)
    FORKS = ("meta", "centroid", "codebook", "data")
    MODEL = IVFPQIndex

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.opts = parse_ivfpq_options(self.options)
        self._codebook: pq.PQCodebook | None = None

    # ------------------------------------------------------------------
    # codec: persist, load, encode
    # ------------------------------------------------------------------
    def _model_opts(self) -> dict[str, Any]:
        return {"m": self.opts.m, "c_pq": self.opts.c_pq}

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return pq.encode(self._load_codebook(), vectors)

    def _meta_tail(self) -> list[int]:
        codebook = self._load_codebook()
        return [codebook.m, codebook.c_pq]

    def _write_codec_fork(self, model: IVFPQIndex) -> None:
        self._codebook = model.codebook
        books = model.codebook.codebooks  # (m, c_pq, d_sub)
        m, c_pq, d_sub = books.shape
        layout = self.layouts["codebook"] = PQ_CODEBOOK.bind(d_sub)
        codewords = layout.pack(
            m * c_pq, sub_space=np.repeat(np.arange(m), c_pq),
            codeword=np.tile(np.arange(c_pq), m), payload=books.reshape(m * c_pq, d_sub),
        )
        layout.write(self.buffer, self.create_fork("codebook"), codewords)

    def _load_codebook(self) -> pq.PQCodebook:
        """Decode codebook pages once and cache (PASE keeps it resident)."""
        if self._codebook is not None:
            return self._codebook
        meta = IVF_META.bind(2).read_packed(self.buffer, self.relation_name("meta"))[0]
        m, c_pq = meta["payload"].tolist()
        layout = PQ_CODEBOOK.bind(int(meta["dim"]) // m)
        recs = layout.read_packed(self.buffer, self.relation_name("codebook"))
        books = np.empty((m, c_pq, layout.width), dtype=np.float32)
        books[recs["sub_space"], recs["codeword"]] = recs["payload"]
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
