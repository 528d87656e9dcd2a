"""IVF_SQ8 for the specialized engine (Faiss's ``IndexIVFScalarQuantizer``).

Lists store one-byte scalar-quantized codes (Sec. II-B's third
quantization index) — 4 bytes/dim savings at a small, bounded recall
cost.  Search dequantizes a probed list in one vectorized step and
scores it with the batched kernel, both inside ``fvec_L2sqr``.
"""

from __future__ import annotations

import numpy as np

from repro.common import sq
from repro.common.distance import batch_kernel
from repro.specialized.ivf_core import IVFIndex, ListScorer


class IVFSQ8Index(IVFIndex):
    """Inverted-file index over scalar-quantized (1 byte/dim) codes."""

    codec: sq.SQ8Codec | None = None

    def _train_codec(self, sample: np.ndarray) -> None:
        self.codec = sq.train_codec(sample)

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        assert self.codec is not None
        return sq.encode(self.codec, vectors)

    def _list_scorer(self, query: np.ndarray) -> ListScorer:
        codec, kernel = self.codec, batch_kernel(self.distance_type)
        assert codec is not None
        return lambda codes: kernel(query, sq.decode(codec, codes))[0]

    def _payload_sizes(self) -> dict[str, int]:
        assert self.codec is not None
        return {"codes": self.ntotal * self.dim, "codec": self.codec.nbytes()}
