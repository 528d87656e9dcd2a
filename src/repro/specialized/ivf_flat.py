"""IVF_FLAT for the specialized engine (Faiss's ``IndexIVFFlat``).

Lists store the raw float32 vectors; a probed list is scored with one
batched kernel call — the Faiss behaviour the paper contrasts with
PASE in Table V.  The skeleton is :class:`repro.specialized.ivf_core.IVFIndex`.
"""

from __future__ import annotations

import numpy as np

from repro.common.distance import batch_kernel
from repro.specialized.ivf_core import IVFIndex, ListScorer


class IVFFlatIndex(IVFIndex):
    """Inverted-file index with exact in-list distances."""

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return vectors

    def _list_scorer(self, query: np.ndarray) -> ListScorer:
        kernel = batch_kernel(self.distance_type)
        return lambda vectors: kernel(query, vectors)[0]

    def _payload_sizes(self) -> dict[str, int]:
        return {"vectors": self.ntotal * self.dim * 4}
