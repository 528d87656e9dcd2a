"""PASE IVF_SQ8: the paged IVF core with scalar-quantized data pages.

Two SQ-specific pieces on top of :class:`repro.pase.ivf_core.PagedIVF`:
a **codec fork** holding the per-dimension quantization ranges (two
float32 rows), and data tuples that carry one-byte codes instead of raw
floats — a 4x space saving at a bounded recall cost (Sec. II-B's
IVF_SQ8).  All the PASE root causes apply unchanged: per-row
construction, buffer-managed tuple-at-a-time scans, size-*n* heap.
The batch interface dequantizes the gathered code matrix once and
scores it with one kernel call.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common import sq
from repro.common.distance import l2_sqr_rows
from repro.common.profiling import SEC_DISTANCE
from repro.pase.ivf_core import PagedIVF, RowsScorer, TupleScorer
from repro.pase.layout import SQ8_CODEC
from repro.pase.options import require_l2
from repro.pgsim.am import register_am
from repro.pgsim.paths import DISTANCE_OP_WEIGHT
from repro.specialized.ivf_sq8 import IVFSQ8Index


@register_am
class PaseIVFSQ8(PagedIVF):
    """IVF_SQ8 access method (PASE page layout)."""

    amname = "pase_ivfsq8"
    aliases = ("ivfsq8_fun",)
    FORKS = ("meta", "codec", "centroid", "data")
    MODEL = IVFSQ8Index

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        require_l2(self.options, "IVF_SQ8")  # codes are scored in squared L2
        self._codec: sq.SQ8Codec | None = None

    # ------------------------------------------------------------------
    # codec: persist, load, encode
    # ------------------------------------------------------------------
    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return sq.encode(self._load_codec(), vectors)

    def _write_codec_fork(self, model: IVFSQ8Index) -> None:
        codec = self._codec = model.codec
        layout = self.layouts["codec"] = SQ8_CODEC.bind(self.dim)
        rows = layout.pack(2, row=[0, 1], payload=[codec.vmin, codec.vdiff])
        layout.write(self.buffer, self.create_fork("codec"), rows)

    def _load_codec(self) -> sq.SQ8Codec:
        if self._codec is not None:
            return self._codec
        recs = SQ8_CODEC.bind(self.dim).read_packed(self.buffer, self.relation_name("codec"))
        parts = dict(zip(recs["row"].tolist(), recs["payload"].copy()))
        self._codec = sq.SQ8Codec(vmin=parts[0], vdiff=parts[1])
        return self._codec

    # ------------------------------------------------------------------
    # scoring and cost
    # ------------------------------------------------------------------
    def _tuple_scorer(self, query: np.ndarray) -> TupleScorer:
        codec = self._load_codec()
        scale = codec.vdiff / sq.LEVELS
        vmin = codec.vmin

        def score_one(_key, code):
            # Tuple-at-a-time dequantize + distance (PASE style).
            diff = code.astype(np.float32) * scale + vmin - query
            return float(diff.dot(diff))

        return self.profiler.timed(SEC_DISTANCE, score_one)

    def _rows_scorer(self, query: np.ndarray) -> RowsScorer:
        """The gathered code matrix dequantized once into a matrix the
        scorer owns — the tuple scorer's float32 arithmetic, row-wise,
        in place — then one row-kernel call, which subtracts the query in
        place too and reduces each row as the tuple scorer's
        ``diff.dot(diff)`` does: the same distances to the bit."""
        codec = self._load_codec()
        scale = codec.vdiff / sq.LEVELS
        vmin = codec.vmin
        section = self.profiler.section

        def score_rows(keys, codes):
            with section(SEC_DISTANCE):
                vectors = codes.astype(np.float32)
                vectors *= scale
                vectors += vmin
                return keys, l2_sqr_rows(query, vectors)

        return score_rows

    def _candidate_cost(self, cost: Any) -> float:
        """Each probed candidate also pays a tuple-at-a-time SQ8
        dequantization before its distance."""
        return cost.cpu_index_tuple_cost + (DISTANCE_OP_WEIGHT + 2.0) * cost.cpu_operator_cost
