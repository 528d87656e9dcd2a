"""Microbench: size-k vs size-n top-k heaps (RC#6 in isolation).

Strips away everything but the two heap designs: push the same
precomputed distances through each and count the heap work.  This is
the pure data-structure cost Table V's Min-heap column samples in situ.
"""

import numpy as np
import pytest

from repro.common.heap import BoundedMaxHeap, NaiveTopK

N = 30_000
K = 100


@pytest.fixture(scope="module")
def dists():
    return np.random.default_rng(5).random(N).tolist()


def _run_bounded(dists):
    heap = BoundedMaxHeap(K)
    worst = heap.worst_distance
    for i, d in enumerate(dists):
        if d < worst:
            heap.push(d, i)
            worst = heap.worst_distance
    return heap.results()


def _run_naive(dists):
    heap = NaiveTopK(K)
    for i, d in enumerate(dists):
        heap.push(d, i)
    return heap.results()


def test_shape_same_answers(dists):
    assert [n.distance for n in _run_bounded(list(dists))] == [
        n.distance for n in _run_naive(list(dists))
    ]


def test_shape_work_asymmetry(dists):
    """The designs' *work* differs even where wall-clock is muddied by
    interpreter costs: the n-heap performs one push per candidate, the
    k-heap touches the heap a few hundred times."""
    bounded = BoundedMaxHeap(K)
    worst = bounded.worst_distance
    pushes = 0
    for i, d in enumerate(dists):
        if d < worst:
            bounded.push(d, i)
            worst = bounded.worst_distance
            pushes += 1
    naive = NaiveTopK(K)
    for i, d in enumerate(dists):
        naive.push(d, i)
    assert naive.pushes == N
    assert pushes < N // 20
