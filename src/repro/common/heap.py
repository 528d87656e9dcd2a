"""Top-k selection structures: the paper's RC#6.

Faiss keeps a *bounded max-heap of size k* while scanning candidates,
so each push is ``O(log k)`` and most candidates are rejected with a
single comparison against the heap root.  PASE instead pushes every
candidate into a *heap of size n* (all scanned vectors) and pops ``k``
at the end, which the paper identifies as root cause RC#6.

Both designs are implemented here so the engines — and the ablation
benchmarks — can switch between them:

* :class:`BoundedMaxHeap` — the Faiss design.
* :class:`NaiveTopK` — the PASE design.
* :class:`LockedGlobalHeap` — a bounded heap wrapped with a lock whose
  acquisitions are *counted*, feeding the parallel-contention model of
  RC#3 (PASE's intra-query parallelism shares one global heap).

Every top-k in the repo orders by ``(distance, id)``: among equal
distances the smaller id wins, whatever order candidates arrive in, so
the two heaps, the batch selection (``pgsim.am.topk_batch``) and the
brute-force oracles all return the same answer on tied data.
"""

from __future__ import annotations

import heapq
import math
import threading

import numpy as np

from repro.common.types import Neighbor


class BoundedMaxHeap:
    """Keep the ``k`` smallest ``(distance, id)`` pairs seen so far.

    Internally a max-heap on the pair (both stored negated for
    :mod:`heapq`'s min-heap semantics) so the current worst survivor is
    inspectable in O(1) via :attr:`worst_distance`.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self._heap: list[tuple[float, int]] = []
        self.pushes = 0
        self.rejections = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def worst_distance(self) -> float:
        """Largest distance currently kept; ``inf`` while not full."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    def push(self, distance: float, vector_id: int) -> bool:
        """Offer a candidate; returns True if it was kept (it beats the
        worst survivor's ``(distance, id)``, or the heap is not full)."""
        item = (-distance, -vector_id)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, item)
        elif item <= self._heap[0]:
            self.rejections += 1
            return False
        else:
            heapq.heapreplace(self._heap, item)
        self.pushes += 1
        return True

    def results(self) -> list[Neighbor]:
        """The kept neighbors in ``(distance, id)`` order."""
        ordered = sorted((-d, -vid) for d, vid in self._heap)
        return [Neighbor(vector_id=vid, distance=d) for d, vid in ordered]

    def merge(self, other: "BoundedMaxHeap") -> None:
        """Fold another heap's survivors into this one.

        This is the Faiss parallel-search pattern: each worker fills a
        *local* heap and local heaps are merged lock-free at the end
        (Sec. VII-D).
        """
        for neg_d, neg_id in other._heap:
            self.push(-neg_d, -neg_id)


class NaiveTopK:
    """PASE-style top-k: heap of size *n*, pop ``k`` at the end (RC#6).

    Every scanned candidate is pushed (``O(log n)`` each, no early
    rejection); :meth:`results` then pops the ``k`` smallest.  The
    extra work relative to :class:`BoundedMaxHeap` is exactly the
    "Min-heap" row of the paper's Table V.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self._heap: list[tuple[float, int]] = []
        self.pushes = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, distance: float, vector_id: int) -> bool:
        """Push a candidate; PASE never rejects, so always True."""
        heapq.heappush(self._heap, (distance, vector_id))
        self.pushes += 1
        return True

    def results(self) -> list[Neighbor]:
        """Pop the ``k`` smallest candidates, ascending."""
        out: list[Neighbor] = []
        for _ in range(min(self.k, len(self._heap))):
            distance, vid = heapq.heappop(self._heap)
            out.append(Neighbor(vector_id=vid, distance=distance))
        return out


class LockedGlobalHeap:
    """A shared bounded heap guarded by a lock, with contention counters.

    Models PASE's intra-query parallel search, where worker threads
    insert candidates into one *global* heap under a lock (Sec. VII-D).
    The counters (:attr:`lock_acquisitions`) feed the deterministic
    contention model in :mod:`repro.common.parallel`.
    """

    def __init__(self, k: int) -> None:
        self._inner = BoundedMaxHeap(k)
        self._lock = threading.Lock()
        self.lock_acquisitions = 0

    def push(self, distance: float, vector_id: int) -> bool:
        """Thread-safe push; every call takes the global lock."""
        with self._lock:
            self.lock_acquisitions += 1
            return self._inner.push(distance, vector_id)

    def results(self) -> list[Neighbor]:
        """Survivors sorted ascending by distance."""
        with self._lock:
            return self._inner.results()


def _cut(dists: np.ndarray, k: int, bound: float = math.inf) -> np.ndarray | None:
    """Mask of the candidates at or below both the k-th smallest
    distance and ``bound``, every one tied at the cut included, or None
    when nothing may be cut: at most k candidates, or fewer than k that
    are not NaN (partition sorts NaNs last, so the k-th is then NaN).
    NaNs below a numeric cut are dropped; no top-k keeps one over a
    number."""
    if k >= dists.shape[0]:
        return None
    kth = np.partition(dists, k - 1)[k - 1]
    return None if kth != kth else dists <= min(kth, bound)


def offer_topk(heap: BoundedMaxHeap, dists: np.ndarray, ids: np.ndarray) -> None:
    """Offer one list's nearest candidates to ``heap``.

    Partial-selects the list first, cut at its k-th distance and at the
    current worst survivor's, so at most ``k`` plus the ties at the cut
    reach the heap and none that one comparison would reject — the
    Faiss per-bucket pattern, with the ``(distance, id)`` rule intact.
    """
    worst = heap.worst_distance
    keep = _cut(dists, heap.k, worst)
    if keep is not None:
        dists, ids = dists[keep], ids[keep]
    push = heap.push
    for d, vid in zip(dists.tolist(), ids.tolist()):
        if d <= worst and push(d, vid):
            worst = heap.worst_distance


def exact_topk(distances, k: int) -> list[Neighbor]:
    """Exact top-k over a dense distance row, in ``(distance, index)``
    order.

    Utility used for ground truth and for the specialized engine's
    batch path, where distances for a whole bucket already live in one
    array.
    """
    dists = np.asarray(distances)
    keep = _cut(dists, k)
    idx = np.arange(dists.shape[0]) if keep is None else np.flatnonzero(keep)
    idx = idx[np.argsort(dists[idx], kind="stable")][:k]
    return [Neighbor(vector_id=int(i), distance=float(dists[i])) for i in idx]
