"""The specialized vector database (Faiss-like reference engine).

This subpackage is the reproduction's stand-in for Faiss: an
in-memory vector search engine that treats vectors as a first-class
citizen.  Vectors and index structures live in flat NumPy arrays and
are dereferenced directly (no buffer manager, no page indirection),
batched kernels run through BLAS SGEMM (:mod:`repro.common.distance`),
and top-k selection uses a size-``k`` bounded heap.

The three IVF variants are one index: :class:`~repro.specialized.ivf_core.IVFIndex`
trains, assigns, stores the lists, ranks the probes and runs the
search loop, and ``IVFFlatIndex`` / ``IVFPQIndex`` / ``IVFSQ8Index``
state only how a list entry is encoded and scored (raw floats, PQ codes
scored through an ADC table, SQ8 codes dequantised).  ``FlatIndex`` is
the exact baseline and ``HNSWIndex`` the graph index;
:mod:`repro.specialized.parallel` drives any IVF variant in parallel.

Every optimization the paper credits Faiss for is implemented *and
individually switchable* so the ablation experiments can turn it off:

==========================  ==============================  ==========
Paper root cause            Switch                          Default
==========================  ==============================  ==========
RC#1 SGEMM                  ``use_sgemm``                   on
RC#5 k-means flavour        ``kmeans_style``                ``faiss``
RC#6 heap size              (always size-k here)            —
RC#7 precomputed table      ``optimized_pctable``           on
==========================  ==============================  ==========
"""

from repro.specialized.database import SpecializedDatabase
from repro.specialized.flat import FlatIndex
from repro.specialized.hnsw import HNSWIndex
from repro.specialized.ivf_flat import IVFFlatIndex
from repro.specialized.ivf_pq import IVFPQIndex
from repro.specialized.ivf_sq8 import IVFSQ8Index

__all__ = [
    "FlatIndex",
    "HNSWIndex",
    "IVFFlatIndex",
    "IVFPQIndex",
    "IVFSQ8Index",
    "SpecializedDatabase",
]
