"""IVF_PQ for the specialized engine (Faiss's ``IndexIVFPQ``).

Lists store ``m``-byte product-quantization codes (Sec. II-B).  Search
builds one asymmetric-distance table per query — by default the
*optimized* way (codeword norms cached at train time + inner products,
RC#7), or cell by cell with ``optimized_pctable=False`` for the
Sec. VII-B ablation — and scores a list by table lookups.  The tables
hold squared L2 terms, so L2 is the only metric.
"""

from __future__ import annotations

import numpy as np

from repro.common import pq
from repro.common.profiling import SEC_PCTABLE
from repro.common.types import DistanceType
from repro.specialized.ivf_core import IVFIndex, ListScorer


class IVFPQIndex(IVFIndex):
    """Inverted-file index with product-quantized lists.

    Args:
        dim: vector dimensionality (must be divisible by ``m``).
        n_clusters: the paper's ``c``.
        m: sub-vector count (paper's ``m``).
        c_pq: codewords per sub-space (paper's ``c_pq``).
        optimized_pctable: RC#7 switch — optimized vs. naive ADC table.
        **kwargs: the :class:`~repro.specialized.ivf_core.IVFIndex` options.
    """

    def __init__(
        self,
        dim: int,
        n_clusters: int,
        m: int,
        c_pq: int = 256,
        *,
        optimized_pctable: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(dim, n_clusters, **kwargs)
        if self.distance_type != DistanceType.L2:
            raise ValueError(f"IVF_PQ supports only L2 distance, got {self.distance_type.name}")
        if dim % m != 0:
            raise ValueError(f"dim {dim} not divisible by m={m}")
        self.m = m
        self.c_pq = c_pq
        self.optimized_pctable = optimized_pctable
        self.codebook: pq.PQCodebook | None = None

    def _codec_training_floor(self) -> int:
        return self.c_pq

    def _train_codec(self, sample: np.ndarray) -> None:
        # PASE's clamp: a table smaller than c_pq rows trains one
        # codeword per row rather than refusing.
        self.codebook = pq.train_codebook(
            sample,
            self.m,
            min(self.c_pq, sample.shape[0]),
            max_iterations=self.kmeans_iterations,
            seed=self.seed,
            style=self.kmeans_style,
        )

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        assert self.codebook is not None
        return pq.encode(self.codebook, vectors)

    def _list_scorer(self, query: np.ndarray) -> ListScorer:
        assert self.codebook is not None
        build = pq.optimized_adc_table if self.optimized_pctable else pq.naive_adc_table
        with self.profiler.section(SEC_PCTABLE):
            table = build(self.codebook, query)
        return lambda codes: pq.adc_distances(table, codes)

    def _payload_sizes(self) -> dict[str, int]:
        assert self.codebook is not None
        return {"codes": self.ntotal * self.m, "codebooks": self.codebook.nbytes()}
