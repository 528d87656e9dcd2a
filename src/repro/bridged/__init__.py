"""The paper's future direction (Sec. IX-C), built: a *bridged* engine.

The paper closes with five actionable guidelines for a generalized
vector database that matches a specialized one.  This subpackage
implements that recipe as pgsim access methods, so the same SQL
surface (``CREATE INDEX ... USING bridged_ivfflat``) now runs with
every root cause neutralized:

- **Step#1 — in-memory layout (RC#2, RC#4):** indexes persist pages
  for durability but serve searches from a memory-resident
  *memory-optimized table* (the GaussDB-style design the paper
  recommends), bypassing the buffer manager on the hot path: the
  specialized engine's own structures (``IVFFlatIndex``,
  ``ArrayGraphStore``) keyed by heap TIDs.
- **Step#2 — SGEMM (RC#1):** construction assigns vectors to
  centroids with batched BLAS matmuls.
- **Step#3 — k-sized heap (RC#6):** top-k selection uses a bounded
  heap with single-comparison rejection.
- **Step#4 — parallelism (RC#3):** bucket scans partition into work
  units with per-thread local heaps
  (:meth:`repro.bridged.ivf_flat.BridgedIVFFlat.parallel_search`, over
  the one driver :func:`repro.common.parallel.parallel_search`).
- **Step#5 — optimized implementations (RC#5, RC#7):** Faiss-flavour
  k-means and the norm/inner-product ADC decomposition.

The ``bench_bridged_gap`` benchmark demonstrates the headline claim:
with these changes the generalized engine's search time lands within
a small factor of the specialized engine — i.e. *no fundamental
limitation*.
"""

from repro.bridged.hnsw import BridgedHNSW
from repro.bridged.ivf_flat import BridgedIVFFlat

__all__ = ["BridgedHNSW", "BridgedIVFFlat"]
