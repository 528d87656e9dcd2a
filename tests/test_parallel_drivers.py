"""Tests for the engine-level parallel drivers (RC#3 apparatus)."""

import numpy as np
import pytest

from repro.common import parallel
from repro.common.parallel import DEFAULT_LOCK_OP_SECONDS, WorkUnit, scaling_curve, speedups
from repro.core.study import ComparativeStudy
from repro.specialized import parallel as spec_parallel
from repro.specialized.ivf_flat import IVFFlatIndex


@pytest.fixture(scope="module")
def study(medium_dataset):
    s = ComparativeStudy(
        medium_dataset, "ivf_flat", {"clusters": 16, "sample_ratio": 0.3, "seed": 4}
    )
    s.compare_build()
    return s


def _faiss_search(study, query, nprobe: int, thread_counts: list[int]):
    """The one driver with local heaps over the specialized index."""
    index = study.specialized.index
    query = np.asarray(query, dtype=np.float32)
    probes, scores = index.probe_order(query, nprobe), index.list_scores(query)
    return parallel.parallel_search(probes, scores, 10, thread_counts)


def _spec_list_sizes(study, query, nprobe: int) -> list[int]:
    """Candidates in each list the specialized driver probes."""
    index = study.specialized.index
    probes = index.probe_order(np.asarray(query, dtype=np.float32), nprobe)
    return [len(index.lists()[b][0]) for b in probes]


def _record_units(monkeypatch) -> list[list[WorkUnit]]:
    """Capture the work units the driver hands to the scheduler."""
    scheduled: list[list[WorkUnit]] = []

    def record(units, thread_counts, *args, **kwargs):
        scheduled.append(list(units))
        return scaling_curve(units, thread_counts, *args, **kwargs)

    monkeypatch.setattr(parallel, "scaling_curve", record)
    return scheduled


def _counted_speedup(lists: list[int], units: list[WorkUnit]) -> float:
    """8-thread speedup of one unit per list, priced without a clock:
    one modelled lock-op cost per candidate scanned, plus the serial
    ops the driver counted for that list."""
    counted = [WorkUnit(n * DEFAULT_LOCK_OP_SECONDS, u.serial_ops) for n, u in zip(lists, units)]
    return speedups(scaling_curve(counted, [1, 8]))[8]


def test_unknown_heap_design_is_refused():
    with pytest.raises(ValueError, match="heap"):
        parallel.parallel_search([], lambda bucket: None, 10, [1], heap="shared")


class TestSpecializedParallel:
    def test_build_units_cover_all_vectors(self, medium_dataset):
        index = IVFFlatIndex(medium_dataset.dim, n_clusters=8, sample_ratio=0.3, seed=1)
        index.train(medium_dataset.base)
        units = spec_parallel.build_work_units(index, medium_dataset.base, n_chunks=8)
        assert len(units) == 8
        assert index.ntotal == medium_dataset.n
        assert all(u.serial_ops == 0 for u in units)

    def test_build_requires_training(self, medium_dataset):
        index = IVFFlatIndex(medium_dataset.dim, n_clusters=8)
        with pytest.raises(RuntimeError):
            spec_parallel.build_work_units(index, medium_dataset.base)

    def test_simulated_build_curve_monotone(self, medium_dataset):
        index = IVFFlatIndex(medium_dataset.dim, n_clusters=8, sample_ratio=0.3, seed=1)
        index.train(medium_dataset.base)
        curve = spec_parallel.simulate_parallel_build(
            index, medium_dataset.base, [1, 2, 4, 8]
        )
        assert curve[1] >= curve[2] >= curve[4] >= curve[8]

    def test_parallel_search_matches_serial(self, study):
        query = study.dataset.queries[0]
        result, curve = _faiss_search(study, query, 8, [1, 4])
        serial = study.specialized.search(query, 10, nprobe=8)
        assert result.ids == serial.ids
        assert set(curve) == {1, 4}

    def test_local_heap_design_scales(self, study, monkeypatch):
        """Faiss's design over the one driver: one serial merge per
        probed list, and — counted, not timed — the lists scheduled at
        a fixed cost per candidate scale past 2x."""
        query = study.dataset.queries[1]
        scheduled = _record_units(monkeypatch)
        __, curve = _faiss_search(study, query, 16, [1, 8])
        lists = _spec_list_sizes(study, query, 16)
        (units,) = scheduled
        assert [u.serial_ops for u in units] == [1] * len(lists)
        assert curve[1].serial_seconds == pytest.approx(len(lists) * DEFAULT_LOCK_OP_SECONDS)
        assert _counted_speedup(lists, units) > 2.0


class TestPaseParallel:
    def test_results_match_serial_scan(self, study):
        am = study.generalized.am
        query = study.dataset.queries[0]
        result, __ = am.parallel_search(query, 10, 8, [1, 2])
        # Serial AM scan at the same nprobe must return identical
        # distances (ids are packed TIDs on the parallel side, so the
        # distance sequence is the robust comparison).
        study.generalized.db.execute("SET pase.nprobe = 8")
        serial = list(am.scan(query, 10))
        assert [round(n.distance, 4) for n in result.neighbors] == [
            round(d, 4) for __, d in serial
        ]

    def test_lock_ops_counted_per_candidate(self, study):
        query = study.dataset.queries[2]
        __, curve = study.generalized.am.parallel_search(query, 10, 8, [1])
        result = curve[1]
        # Every scanned candidate acquired the global lock once.
        assert result.serial_seconds > 0

    def test_global_heap_scales_worse_than_local(self, study, monkeypatch):
        """PASE's design over the one driver, and the paper's central
        parallel finding (Fig. 18) from counts.

        The driver counts its serial sections — PASE takes the global
        heap lock once per candidate, Faiss once per probed list — and
        with both designs' lists scheduled at the same fixed cost per
        candidate, the locked heap scales worse.  The wall-clock curves
        are gated by the fig18 verdicts in
        ``benchmarks/bench_paper_figures.py``.
        """
        am = study.generalized.am
        query = study.dataset.queries[3]
        scheduled = _record_units(monkeypatch)
        __, spec_curve = _faiss_search(study, query, 16, [1, 8])
        __, pase_curve = am.parallel_search(query, 10, 16, [1, 8])
        spec_lists = _spec_list_sizes(study, query, 16)
        order, heads = am._rank_centroids(am._check_query(query))
        pase_lists = [
            sum(len(keys) for keys, __ in am._chain_pages(heads[b])) for b in order[:16]
        ]
        spec_units, pase_units = scheduled
        assert [u.serial_ops for u in spec_units] == [1] * len(spec_lists)
        assert [u.serial_ops for u in pase_units] == pase_lists
        lock = DEFAULT_LOCK_OP_SECONDS
        assert spec_curve[1].serial_seconds == pytest.approx(len(spec_lists) * lock)
        assert pase_curve[1].serial_seconds == pytest.approx(sum(pase_lists) * lock)
        assert _counted_speedup(pase_lists, pase_units) < _counted_speedup(spec_lists, spec_units)
