"""PASE: vector index access methods inside the relational engine.

This subpackage reproduces PASE (the paper's Sec. II-E system): three
vector index types implemented as pgsim access methods, each laid out
on PostgreSQL-style pages and accessed through the buffer manager.
Every design decision the paper traces a root cause to is implemented
as described:

- per-row (non-SGEMM) distance computation during construction (RC#1),
- all tuple and neighbor access through the buffer manager (RC#2),
- a global locked heap for intra-query parallelism (RC#3,
  ``PagedIVF.parallel_search`` over :mod:`repro.common.parallel`),
- 24-byte ``HNSWNeighborTuple`` entries and one fresh page per
  adjacency list (RC#4),
- PASE's own k-means flavour (RC#5),
- a size-*n* top-k heap (RC#6, switchable via ``SET pase.fixed_heap``),
- a naive per-cell ADC precomputed table in IVF_PQ (RC#7, switchable
  via ``SET pase.optimized_pctable``).

Importing the subpackage registers the AMs, so after
``import repro.pase`` a :class:`repro.pgsim.PgSimDatabase` understands
``CREATE INDEX ... USING pase_ivfflat | pase_ivfpq | pase_hnsw`` (and
the paper's ``*_fun`` aliases).
"""

from repro.pase.hnsw import PaseHNSW
from repro.pase.ivf_flat import PaseIVFFlat
from repro.pase.ivf_pq import PaseIVFPQ
from repro.pase.ivf_sq8 import PaseIVFSQ8

__all__ = ["PaseHNSW", "PaseIVFFlat", "PaseIVFPQ", "PaseIVFSQ8"]
