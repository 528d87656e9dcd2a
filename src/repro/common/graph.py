"""HNSW graph algorithm, parameterized over a storage backend.

The paper's central HNSW finding is that PASE and Faiss run the *same
algorithm* but on different substrates: Faiss dereferences in-memory
arrays while PASE goes through PostgreSQL's buffer manager and
page-structured tuples, which is where the construction-time (RC#2)
and index-size (RC#4) gaps come from (Secs. V-C, VI-C).

To make that comparison airtight, this module implements the HNSW
algorithm once, against the :class:`GraphStore` protocol.  The
specialized engine plugs in an array-backed store
(:class:`repro.specialized.hnsw.ArrayGraphStore`); the generalized
engine plugs in a page-backed store whose every access pays the buffer
manager toll (:class:`repro.pase.hnsw.PageGraphStore`).  Any
performance difference between the two engines is then attributable
purely to the substrate — the paper's experimental design, enforced by
construction.

Profiling section names follow the paper's Fig. 8 legend exactly
(``fvec_L2sqr``, ``Tuple Access``, ``HVTGet``, ``pasepfirst``) and its
Table III phases (``SearchNbToAdd``, ``AddLink``, ``GreedyUpdate``,
``ShrinkNbList``) so breakdown tables can be regenerated verbatim.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.common.heap import BoundedMaxHeap
from repro.common.profiling import (
    SEC_ADD_LINK,
    SEC_DISTANCE,
    SEC_GREEDY_UPDATE,
    SEC_NEIGHBOR_FETCH,
    SEC_SEARCH_NB_TO_ADD,
    SEC_SHRINK_NB_LIST,
    SEC_TUPLE_ACCESS,
    SEC_VISITED,
    Profiler,
)
from repro.common.types import Neighbor


@dataclass(slots=True)
class HNSWParams:
    """HNSW hyper-parameters, named as in the paper's Table II.

    Attributes:
        bnn: base neighbor count; level-0 nodes keep ``2 * bnn``
            neighbors, upper levels keep ``bnn`` (Sec. II-B).
        efb: priority-queue length during construction.
        efs: priority-queue length during search.
        level_mult: level-sampling multiplier; defaults to
            ``1 / ln(bnn)`` as in the HNSW paper.
    """

    bnn: int = 16
    efb: int = 40
    efs: int = 200
    level_mult: float | None = None

    def __post_init__(self) -> None:
        if self.bnn < 2:
            raise ValueError(f"bnn must be >= 2, got {self.bnn}")
        if self.efb < 1 or self.efs < 1:
            raise ValueError("efb and efs must be >= 1")

    def max_neighbors(self, level: int) -> int:
        """Neighbor-list capacity at ``level``."""
        return 2 * self.bnn if level == 0 else self.bnn

    def effective_level_mult(self) -> float:
        """Level multiplier, defaulting to ``1 / ln(bnn)``."""
        if self.level_mult is not None:
            return self.level_mult
        return 1.0 / math.log(self.bnn)

    def sample_level(self, rng: np.random.Generator) -> int:
        """Draw a node's top level from the HNSW geometric-ish law."""
        u = float(rng.random())
        u = max(u, 1e-12)  # guard against log(0)
        return int(-math.log(u) * self.effective_level_mult())


@dataclass(slots=True)
class GraphCounters:
    """Work counters accumulated by the algorithm."""

    distance_computations: int = 0
    hops: int = 0
    visited_checks: int = 0


class VisitedSet(Protocol):
    """Membership structure used during layer search.

    The array-backed store returns a flat boolean array; the
    page-backed store returns a deliberately indirect structure (the
    paper's ``HVTGet`` cost).
    """

    def add(self, node: int) -> None: ...

    def __contains__(self, node: int) -> bool: ...


class GraphStore(Protocol):
    """Storage backend contract for the HNSW algorithm."""

    profiler: Profiler
    counters: GraphCounters
    entry_point: int | None
    max_level: int

    def vector(self, node: int) -> np.ndarray:
        """Fetch one node's vector."""
        ...

    def vectors(self, nodes: Sequence[int]) -> np.ndarray:
        """Fetch several nodes' vectors as an ``(n, d)`` matrix."""
        ...

    def neighbors(self, node: int, level: int) -> list[int]:
        """Fetch a node's neighbor ids at ``level``."""
        ...

    def set_neighbors(self, node: int, level: int, ids: Sequence[int]) -> None:
        """Replace a node's neighbor list at ``level``."""
        ...

    def add_node(self, vector: np.ndarray, level: int) -> int:
        """Persist a new node with empty neighbor lists; returns its id."""
        ...

    def node_count(self) -> int:
        """Number of nodes stored."""
        ...

    def make_visited(self) -> VisitedSet:
        """Fresh visited-set for one layer search."""
        ...


def _distance_rows(store: GraphStore, query: np.ndarray, nodes: list[int]) -> np.ndarray:
    """Gather node vectors and compute their distances to ``query``.

    The gather is charged to ``Tuple Access`` and the arithmetic to
    ``fvec_L2sqr`` — the two shares the paper contrasts in Fig. 8.
    Both engines run this exact code, so any wall-clock difference
    between them comes from the store, not the kernel.
    """
    prof = store.profiler
    with prof.section(SEC_TUPLE_ACCESS):
        mat = store.vectors(nodes)
    with prof.section(SEC_DISTANCE):
        diff = mat - query
        dists = np.einsum("ij,ij->i", diff, diff)
    store.counters.distance_computations += len(nodes)
    return dists


def search_layer(
    store: GraphStore,
    query: np.ndarray,
    entry_points: list[tuple[float, int]],
    ef: int,
    level: int,
    admit: Callable[[list[int]], Sequence[bool]] | None = None,
) -> list[tuple[float, int]]:
    """Classic HNSW beam search within one layer.

    Args:
        entry_points: ``(distance, node)`` seeds, distances already
            computed against ``query``.
        ef: beam width (the paper's ``efb``/``efs``).
        admit: the in-filter predicate, or None to admit every node.  It
            takes a list of node ids and returns booleans (True = the
            node's heap row is visible and satisfies the pushed-down
            predicate).  Refused nodes still join the candidate frontier
            — they *route* — because dropping them would disconnect
            regions whose members all fail the predicate (the standard
            filtered-ANN design; see ACORN and the filter-agnostic
            PostgreSQL study).  Only admitted nodes enter the bounded
            result heap, so the beam keeps expanding until ``ef``
            admitted nodes bound it.

    A node enters the beam when its ``(distance, node)`` beats the
    worst kept pair — the tie rule every top-k in the repo shares — and
    a refused node routes when its distance is strictly inside the
    bound.  Returns up to ``ef`` ``(distance, node)`` pairs in that
    order.
    """
    prof = store.profiler
    visited = store.make_visited()
    candidates: list[tuple[float, int]] = []
    results = BoundedMaxHeap(ef)
    seeds = [node for __, node in entry_points]
    seed_admitted = repeat(True) if admit is None or not seeds else admit(seeds)
    for (dist, node), ok in zip(entry_points, seed_admitted):
        visited.add(node)
        heapq.heappush(candidates, (dist, node))
        if ok:
            results.push(dist, node)

    while candidates:
        dist_c, current = heapq.heappop(candidates)
        if dist_c > results.worst_distance:
            break
        store.counters.hops += 1
        with prof.section(SEC_NEIGHBOR_FETCH):
            nbrs = store.neighbors(current, level)
        with prof.section(SEC_VISITED):
            fresh = []
            for nb in nbrs:
                store.counters.visited_checks += 1
                if nb not in visited:
                    visited.add(nb)
                    fresh.append(nb)
        if not fresh:
            continue
        dists = _distance_rows(store, query, fresh)
        admitted = repeat(True) if admit is None else admit(fresh)
        push = results.push
        worst = results.worst_distance
        for d, nb, ok in zip(dists.tolist(), fresh, admitted):
            if d <= worst and (push(d, nb) if ok else d < worst):
                worst = results.worst_distance
                heapq.heappush(candidates, (d, nb))
    return [(n.distance, n.vector_id) for n in results.results()]


def greedy_descend(
    store: GraphStore,
    query: np.ndarray,
    start: tuple[float, int],
    from_level: int,
    to_level: int,
) -> tuple[float, int]:
    """Greedy 1-best descent through layers ``from_level .. to_level``.

    This is the paper's ``GreedyUpdate`` phase: at each upper layer,
    repeatedly hop to the closest neighbor until no improvement, then
    drop one layer.
    """
    prof = store.profiler
    best_dist, best_node = start
    for level in range(from_level, to_level - 1, -1):
        improved = True
        while improved:
            improved = False
            with prof.section(SEC_NEIGHBOR_FETCH):
                nbrs = store.neighbors(best_node, level)
            if not nbrs:
                continue
            dists = _distance_rows(store, query, nbrs)
            j = int(np.argmin(dists))
            if float(dists[j]) < best_dist:
                best_dist = float(dists[j])
                best_node = nbrs[j]
                improved = True
                store.counters.hops += 1
    return best_dist, best_node


def _shrink_neighbor_list(
    store: GraphStore,
    owner: int,
    candidate_ids: list[int],
    capacity: int,
) -> list[int]:
    """Shrink an over-full neighbor list with the HNSW heuristic.

    Keeps a diverse subset: a candidate survives only if it is closer
    to the owner than to every already-kept neighbor.  All pairwise
    distances come from one batched kernel call on the gathered
    vectors.
    """
    prof = store.profiler
    with prof.section(SEC_TUPLE_ACCESS):
        owner_vec = store.vector(owner)
        cand_mat = store.vectors(candidate_ids)
    with prof.section(SEC_DISTANCE):
        diff = cand_mat - owner_vec
        to_owner = np.einsum("ij,ij->i", diff, diff)
        sq = np.einsum("ij,ij->i", cand_mat, cand_mat)
        cross = sq[:, None] + sq[None, :] - 2.0 * (cand_mat @ cand_mat.T)
    store.counters.distance_computations += len(candidate_ids) * (len(candidate_ids) + 1)

    # ``closest[i]`` is candidate i's smallest distance to a kept
    # neighbor (inf while none is kept), so "no kept neighbor is closer
    # than the owner" is one comparison of the same float32 values a
    # pairwise test compares.  A NaN owner distance fails it even with
    # nothing kept; NaNs sort last, so the nearest-first fill below puts
    # such candidates exactly where admitting the first of them would.
    owner_dists = to_owner.tolist()
    order = np.argsort(to_owner, kind="stable").tolist()
    closest = np.full(len(candidate_ids), np.inf, dtype=cross.dtype)
    kept: list[int] = []
    kept_set: set[int] = set()
    for idx in order:
        if len(kept) >= capacity:
            break
        if closest[idx] >= owner_dists[idx]:
            kept.append(idx)
            kept_set.add(idx)
            np.minimum(closest, cross[:, idx], out=closest)
    # Fall back to nearest-first if the heuristic was too aggressive.
    for idx in order:
        if len(kept) >= capacity:
            break
        if idx not in kept_set:
            kept.append(idx)
            kept_set.add(idx)
    return [candidate_ids[i] for i in kept]


def repair_after_delete(
    store: GraphStore,
    params: HNSWParams,
    dead: set[int],
    node_levels: Sequence[int],
) -> int:
    """Unlink ``dead`` nodes from the graph, bridging around them.

    The VACUUM-side counterpart of :func:`insert`, shared by both HNSW
    substrates: survivors whose neighbor lists reference a dead node
    get the dead node's own surviving neighbors spliced in as bridge
    candidates (so the graph stays connected where the dead node was a
    hub), then the list is re-shrunk with the same diversity heuristic
    construction uses whenever it exceeds ``params.max_neighbors``.
    If the entry point died, the surviving node with the highest level
    takes over.  Dead nodes keep their ids (node ids are positional in
    both stores) but end with empty neighbor lists and are unreachable.

    Returns the number of nodes unlinked.
    """
    if not dead:
        return 0
    count = store.node_count()
    survivors = [n for n in range(count) if n not in dead]
    for node in survivors:
        for level in range(node_levels[node] + 1):
            nbrs = store.neighbors(node, level)
            if not any(nb in dead for nb in nbrs):
                continue
            candidates = [nb for nb in nbrs if nb not in dead]
            seen = set(candidates)
            seen.add(node)
            for nb in nbrs:
                if nb not in dead:
                    continue
                for bridge in store.neighbors(nb, level):
                    if bridge in dead or bridge in seen:
                        continue
                    seen.add(bridge)
                    candidates.append(bridge)
            capacity = params.max_neighbors(level)
            if len(candidates) > capacity:
                with store.profiler.section(SEC_SHRINK_NB_LIST):
                    candidates = _shrink_neighbor_list(store, node, candidates, capacity)
            store.set_neighbors(node, level, candidates)
    if store.entry_point is not None and store.entry_point in dead:
        if survivors:
            best = max(survivors, key=lambda n: node_levels[n])
            store.entry_point = best
            store.max_level = node_levels[best]
        else:
            store.entry_point = None
            store.max_level = -1
    for node in dead:
        if node < count:
            for level in range(node_levels[node] + 1):
                store.set_neighbors(node, level, [])
    return sum(1 for node in dead if node < count)


def insert(
    store: GraphStore,
    params: HNSWParams,
    vector: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """Insert one vector into the graph (the paper's build inner loop).

    Phases are wrapped in the Table III section names so a profiled
    build reproduces the paper's construction-time breakdown.
    """
    prof = store.profiler
    vector = np.ascontiguousarray(vector, dtype=np.float32)
    level = params.sample_level(rng)
    node = store.add_node(vector, level)

    if store.entry_point is None:
        store.entry_point = node
        store.max_level = level
        return node

    entry = store.entry_point
    entry_dist = float(_distance_rows(store, vector, [entry])[0])
    seed = (entry_dist, entry)

    if store.max_level > level:
        with prof.section(SEC_GREEDY_UPDATE):
            seed = greedy_descend(store, vector, seed, store.max_level, level + 1)

    eps = [seed]
    for lc in range(min(level, store.max_level), -1, -1):
        with prof.section(SEC_SEARCH_NB_TO_ADD):
            cands = search_layer(store, vector, eps, params.efb, lc)
        selected = cands[: params.bnn]
        with prof.section(SEC_ADD_LINK):
            store.set_neighbors(node, lc, [nid for _, nid in selected])
        for _, nb in selected:
            with prof.section(SEC_ADD_LINK):
                with prof.section(SEC_NEIGHBOR_FETCH):
                    lst = store.neighbors(nb, lc)
                lst.append(node)
            capacity = params.max_neighbors(lc)
            if len(lst) > capacity:
                # ShrinkNbList is a sibling phase of AddLink in the
                # paper's Table III, so it must not nest inside it.
                with prof.section(SEC_SHRINK_NB_LIST):
                    lst = _shrink_neighbor_list(store, nb, lst, capacity)
            with prof.section(SEC_ADD_LINK):
                store.set_neighbors(nb, lc, lst)
        eps = cands

    if level > store.max_level:
        store.max_level = level
        store.entry_point = node
    return node


def search(
    store: GraphStore,
    params: HNSWParams,
    query: np.ndarray,
    k: int,
    efs: int | None = None,
    admit: Callable[[list[int]], Sequence[bool]] | None = None,
) -> list[Neighbor]:
    """Top-``k`` HNSW search (skip-list style descent + beam at level 0).

    With ``admit`` this is the in-filter search: the descent still
    routes unfiltered (upper layers only navigate) and the level-0 beam
    admits only the nodes ``admit`` accepts (see :func:`search_layer`).
    Callers needing k matches at low selectivity widen ``efs`` and retry
    — the AM layer's expansion loop — rather than this function guessing
    a bound.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if store.entry_point is None:
        return []
    prof = store.profiler
    query = np.ascontiguousarray(query, dtype=np.float32)
    ef = max(efs if efs is not None else params.efs, k)

    entry = store.entry_point
    entry_dist = float(_distance_rows(store, query, [entry])[0])
    seed = (entry_dist, entry)
    if store.max_level > 0:
        with prof.section(SEC_GREEDY_UPDATE):
            seed = greedy_descend(store, query, seed, store.max_level, 1)

    with prof.section(SEC_SEARCH_NB_TO_ADD):
        found = search_layer(store, query, [seed], ef, 0, admit)
    return [Neighbor(vector_id=nid, distance=dist) for dist, nid in found[:k]]
