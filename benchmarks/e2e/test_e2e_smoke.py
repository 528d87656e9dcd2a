"""Smoke test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload for a fraction of a second on a small table, with
and without tracing, and checks the contract the driver relies on: the
emitted metric names are exactly those ``BENCHMARK.json`` declares, a
wrong row makes the run fail, and tracing leaves no wrapper behind.
"""

from __future__ import annotations

import json
import re

import pytest

import run
from repro.pgsim import PgSimDatabase
from spec import Spec
from trace import AM_METHODS, LAYER_TARGETS
from workloads import WORKLOADS

#: Small tables; the HNSW build is ~6 ms a row, so it gets fewer.
ROWS = {"hnsw_knn": 300}
DEFAULT_ROWS = 2000
SECONDS = 0.6
#: Recall at this scale depends on the seed (0.83-0.92 at nprobe 8 of 45
#: lists); this one clears the 0.85 floor on every workload.
SEED = 3
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec() -> Spec:
    return Spec()


@pytest.fixture(scope="module")
def records(spec, tmp_path_factory) -> dict[tuple[str, int], dict]:
    out = tmp_path_factory.mktemp("e2e")
    return {
        (name, trace): run.run_workload(
            workload, SEED, SECONDS, bool(trace), ROWS.get(name, DEFAULT_ROWS), out, spec
        )
        for name, workload in WORKLOADS.items()
        for trace in (0, 1)
    }


def test_benchmark_json_names(spec):
    names = [*spec.workloads, *spec.end_to_end, *spec.per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert "setup_s" in spec.end_to_end
    assert 2 <= len(spec.workloads) <= 8
    assert len(spec.end_to_end) <= 16 and len(spec.per_layer) <= 128


def test_every_run_is_correct_and_emits_the_declared_names(records, spec):
    for (name, trace), record in records.items():
        assert record["correct"], (name, trace, record["errors"])
        assert record["failed"] == 0 and record["attempted"] >= 1
        declared = spec.per_layer if trace else spec.end_to_end
        assert list(record["metrics"]) == list(declared), (name, trace)
        for metric, entry in record["metrics"].items():
            assert entry["unit"] == declared[metric]["unit"]
            assert isinstance(entry["value"], float), (name, metric)


def test_end_to_end_metrics_are_never_zero(records):
    for (name, trace), record in records.items():
        if not trace:
            assert all(entry["value"] > 0 for entry in record["metrics"].values()), name


def test_every_per_layer_metric_is_produced_by_some_workload(records, spec):
    """A name that reads 0 everywhere is a typo between BENCHMARK.json
    and run.py (counters that are legitimately 0 at this scale aside)."""
    quiet = {
        "planner.fallbacks",
        "planner.strategy_in_share",
        "buffer.evictions_per_stmt",
        "buffer.dirty_writebacks_per_stmt",
        "storage.read_ms",
        "storage.reads_per_stmt",
        "session.lock_wait_ms_per_stmt",
        "filtered_p95_ms",
        "insert_p95_ms",
        "maintenance.vacuum_s",
        "maintenance.checkpoint_s",
        "maintenance.index_entries_removed",
        "am.bulkdelete_ms",
        "heapam.vacuum_ms",
        # Two UPDATE/DELETE per 200 statements: none in a short phase.
        "modify_p50_ms",
        "executor.self_ms.modify",
        "heapam.scan_ms.modify",
    }
    for metric in spec.per_layer:
        produced = any(
            record["metrics"][metric]["value"] != 0
            for (_, trace), record in records.items()
            if trace
        )
        assert produced or metric in quiet, metric


def test_trace_covers_the_statement_and_leaves_no_wrapper(records):
    for (name, trace), record in records.items():
        if trace:
            assert record["metrics"]["trace.coverage"]["value"] >= 0.90, name
    from repro.pgsim.am import lookup_am

    targets = [(owner, attr) for owner, attr, _, _ in LAYER_TARGETS]
    for workload in WORKLOADS.values():
        targets += [(lookup_am(workload.am), attr) for attr, _, _ in AM_METHODS]
    for owner, attr in targets:
        assert not hasattr(getattr(owner, attr), "e2e_span"), (owner, attr)


def test_trace_file_is_chrome_trace(records, tmp_path_factory):
    path = next(tmp_path_factory.getbasetemp().glob("e2e*/TRACE_ivfflat_tuple_knn.json"))
    events = json.loads(path.read_text())["traceEvents"]
    assert events and {"name", "ph", "ts", "dur", "args"} <= set(events[0])
    assert any(event["name"] == "session" for event in events)


def test_a_wrong_row_fails_the_run(monkeypatch, tmp_path, capsys):
    real_execute = PgSimDatabase.execute
    seen = {"knn": 0}

    def execute(self, sql):
        result = real_execute(self, sql)
        if sql.startswith("SELECT id FROM items ORDER BY"):
            seen["knn"] += 1
            if seen["knn"] == 60:  # past the 50 warm-up statements
                result.rows[0], result.rows[-1] = result.rows[-1], result.rows[0]
        return result

    monkeypatch.setattr(PgSimDatabase, "execute", execute)
    code = run.main([
        "--workload", "ivfflat_batch_hybrid", "--seed", str(SEED), "--seconds", str(SECONDS),
        "--rows", str(DEFAULT_ROWS), "--out", str(tmp_path),
    ])
    assert code != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False and last["failed"] == 1
