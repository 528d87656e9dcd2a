"""PASE IVF_SQ8: the paged IVF core with scalar-quantized data pages.

Two SQ-specific pieces on top of :class:`repro.pase.ivf_core.PagedIVF`:
a **codec fork** holding the per-dimension quantization ranges (two
float32 rows), and data tuples that carry one-byte codes instead of raw
floats — a 4x space saving at a bounded recall cost (Sec. II-B's
IVF_SQ8).  All the PASE root causes apply unchanged: per-row
construction, buffer-managed tuple-at-a-time scans, size-*n* heap.
There is no vectorised scorer, so batch scans wrap the tuple scan.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from repro.common import sq
from repro.common.types import DistanceType
from repro.pase.ivf_core import SEC_DISTANCE, PagedIVF, TupleScorer
from repro.pgsim.am import register_am
from repro.pgsim.paths import DISTANCE_OP_WEIGHT

_CODEC_HEAD = struct.Struct("<H")  # 0 = vmin row, 1 = vdiff row


@register_am
class PaseIVFSQ8(PagedIVF):
    """IVF_SQ8 access method (PASE page layout)."""

    amname = "pase_ivfsq8"
    aliases = ("ivfsq8_fun",)
    FORKS = ("meta", "codec", "centroid", "data")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._codec: sq.SQ8Codec | None = None

    def _metric(self) -> DistanceType:
        # Dequantized candidates are scored under squared L2 only.
        return DistanceType.L2

    # ------------------------------------------------------------------
    # codec: train, persist, load, encode
    # ------------------------------------------------------------------
    def _train_codec(self, sample: np.ndarray) -> None:
        self._codec = sq.train_codec(sample)

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return sq.encode(self._load_codec(), vectors)

    def _write_codec_fork(self) -> None:
        codec = self._load_codec()
        __, frame = self.buffer.new_page(self.create_fork("codec"))
        try:
            frame.page.insert_item(_CODEC_HEAD.pack(0) + codec.vmin.tobytes())
            frame.page.insert_item(_CODEC_HEAD.pack(1) + codec.vdiff.tobytes())
        finally:
            self.buffer.unpin(frame, dirty=True)

    def _load_codec(self) -> sq.SQ8Codec:
        if self._codec is not None:
            return self._codec
        parts: dict[int, np.ndarray] = {}
        with self.buffer.page(self.relation_name("codec"), 0) as page:
            for off in page.live_items():
                view = page.get_item_view(off)
                (which,) = _CODEC_HEAD.unpack_from(view, 0)
                parts[which] = np.frombuffer(
                    view, dtype=np.float32, offset=_CODEC_HEAD.size
                ).copy()
        self._codec = sq.SQ8Codec(vmin=parts[0], vdiff=parts[1])
        return self._codec

    # ------------------------------------------------------------------
    # scoring and cost
    # ------------------------------------------------------------------
    def _tuple_scorer(self, query: np.ndarray) -> TupleScorer:
        codec = self._load_codec()
        scale = codec.vdiff / sq.LEVELS
        vmin = codec.vmin
        section = self.profiler.section

        def score_one(_tid, code):
            with section(SEC_DISTANCE):
                # Tuple-at-a-time dequantize + distance (PASE style).
                diff = code.astype(np.float32) * scale + vmin - query
                return float(np.dot(diff, diff))

        return score_one

    def _candidate_cost(self, cost: Any) -> float:
        """Each probed candidate also pays a tuple-at-a-time SQ8
        dequantization before its distance."""
        return cost.cpu_index_tuple_cost + (DISTANCE_OP_WEIGHT + 2.0) * cost.cpu_operator_cost
