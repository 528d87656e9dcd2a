"""Tests for the spans a section profiler keeps (``max_spans > 0``)."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.profiling import NULL_PROFILER, Profiler
from repro.core.rc_attribution import attribute_profile


@pytest.fixture()
def clock(monkeypatch):
    """Script ``time.perf_counter``: each call returns the next value."""

    def install(*values):
        ticks = iter(values)
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))

    return install


def _roots(prof):
    return [s for s in prof.spans if s.parent_id == 0]


class TestTracerCore:
    def test_nested_spans_record_tree(self):
        prof = Profiler(max_spans=10)
        with prof.section("query"):
            with prof.section("scan"):
                pass
            with prof.section("scan"):
                pass
        assert [s.name for s in prof.spans] == ["query", "scan", "scan"]
        root = prof.spans[0]
        assert root.parent_id == 0
        assert all(s.parent_id == root.span_id for s in prof.spans[1:])
        assert prof.spans[1].path == ("query", "scan")

    def test_span_ids_sequential_and_deterministic(self):
        def run():
            prof = Profiler(max_spans=10)
            with prof.section("a"):
                with prof.section("b"):
                    pass
            with prof.section("c"):
                pass
            return [(s.span_id, s.parent_id, s.name) for s in prof.spans]

        assert run() == run() == [(1, 0, "a"), (2, 1, "b"), (3, 0, "c")]

    def test_span_open_until_its_section_exits(self, clock):
        clock(10.0, 12.5)
        prof = Profiler(max_spans=10)
        section = prof.section("open")
        section.__enter__()
        (span,) = prof.spans
        assert span.end is None
        section.__exit__(None, None, None)
        assert span.end - span.start == pytest.approx(2.5)

    def test_total_seconds_sums_roots_only(self, clock):
        clock(0.0, 0.5, 1.5, 2.0, 3.0, 4.0)
        prof = Profiler(max_spans=10)
        with prof.section("a"):
            with prof.section("a.child"):
                pass
        with prof.section("b"):
            pass
        assert prof.total_seconds() == pytest.approx(3.0)
        assert [s.name for s in _roots(prof)] == ["a", "b"]
        assert sum(s.end - s.start for s in _roots(prof)) == pytest.approx(3.0)

    def test_reset_clears_and_restarts_ids(self):
        prof = Profiler(max_spans=1)
        for name in ("x", "y"):
            with prof.section(name):
                pass
        prof.reset()
        assert prof.spans == [] and prof.dropped_spans == 0
        with prof.section("y"):
            pass
        assert prof.spans[0].span_id == 1

    def test_reset_with_open_span_raises(self):
        prof = Profiler(max_spans=10)
        prof.section("open").__enter__()
        with pytest.raises(RuntimeError):
            prof.reset()

    def test_max_spans_drops_but_stays_balanced(self):
        prof = Profiler(max_spans=2)
        for __ in range(5):
            with prof.section("work"):
                pass
        assert len(prof.spans) == 2
        assert prof.dropped_spans == 3
        assert all(s.end is not None for s in prof.spans)
        assert not prof._open_spans  # stack stayed balanced
        assert {r.name: r.calls for r in prof.breakdown()} == {"work": 5}

    def test_disabled_tracer_records_nothing(self):
        prof = Profiler(enabled=False, max_spans=10)
        with prof.section("ignored"):
            pass
        assert prof.spans == [] and prof.dropped_spans == 0
        assert prof.breakdown() == []
        assert prof.section("x") is prof.section("y")  # shared null section


class TestAggregation:
    def _sample(self, clock):
        # query 0..10 holding scan 1..4 and scan 5..6
        clock(0.0, 1.0, 4.0, 5.0, 6.0, 10.0)
        prof = Profiler(max_spans=10)
        with prof.section("query"):
            for __ in range(2):
                with prof.section("scan"):
                    pass
        return prof

    def test_exclusive_subtracts_children(self, clock):
        rows = {r.name: r for r in self._sample(clock).breakdown(within="query")}
        assert rows["Others"].seconds == pytest.approx(6.0)
        assert rows["scan"].seconds == pytest.approx(4.0)
        assert (rows["Others"].calls, rows["scan"].calls) == (1, 2)

    def test_open_spans_excluded_from_aggregate(self):
        prof = Profiler(max_spans=10)
        prof.section("open").__enter__()
        assert len(prof.spans) == 1
        assert prof.total_seconds() == 0.0 and prof.breakdown() == []


class TestExports:
    def test_chrome_trace_real_timeline(self, clock):
        clock(100.0, 100.25, 100.75, 101.0)
        prof = Profiler(max_spans=10)
        with prof.section("query"):
            with prof.section("scan"):
                pass
        events = json.loads(prof.to_chrome_trace())["traceEvents"]
        assert [e["name"] for e in events] == ["query", "scan"]
        assert events[0]["ts"] == 0.0
        assert events[0]["dur"] == pytest.approx(1e6)
        assert events[1]["ts"] == pytest.approx(0.25e6)
        assert events[1]["args"]["parent_id"] == events[0]["args"]["span_id"]

    def test_chrome_trace_reports_drops(self):
        prof = Profiler(max_spans=1)
        for __ in range(3):
            with prof.section("w"):
                pass
        doc = json.loads(prof.to_chrome_trace())
        assert doc["metadata"]["dropped_spans"] == 2
        assert len(doc["traceEvents"]) == 1

    def test_collapsed_weights_by_exclusive_micros(self, clock):
        clock(0.0, 0.0, 0.25, 1.0)
        prof = Profiler(max_spans=10)
        with prof.section("a"):
            with prof.section("b"):
                pass
        lines = prof.to_collapsed().strip().splitlines()
        assert f"a {round(0.75e6)}" in lines
        assert f"a;b {round(0.25e6)}" in lines


class TestProfilerIntegration:
    def test_sections_open_spans(self):
        prof = Profiler(max_spans=10)
        with prof.section("query"):
            with prof.section("scan"):
                pass
        assert [s.path for s in prof.spans] == [("query",), ("query", "scan")]
        assert all(s.end is not None for s in prof.spans)

    def test_span_totals_match_profiler_totals(self):
        prof = Profiler(max_spans=1000)
        with prof.section("outer"):
            for __ in range(50):
                with prof.section("inner"):
                    sum(range(100))
        assert sum(s.end - s.start for s in _roots(prof)) == pytest.approx(
            prof.total_seconds(), rel=1e-9
        )
        inner = {r.name: r.calls for r in prof.breakdown(within="outer")}["inner"]
        assert inner == sum(s.name == "inner" for s in prof.spans) == 50

    def test_profiler_reset_cascades(self):
        prof = Profiler(max_spans=10)
        with prof.section("x"):
            pass
        prof.reset()
        assert prof.spans == []
        assert prof.total_seconds() == 0.0

    def test_exports_fall_back_without_spans(self):
        prof = Profiler()
        with prof.section("solo"):
            pass
        assert prof.spans == []
        assert "solo" in prof.to_collapsed()

    def test_chrome_trace_requires_spans(self):
        prof = Profiler()
        with prof.section("solo"):
            pass
        with pytest.raises(ValueError, match="max_spans"):
            prof.to_chrome_trace()


# ----------------------------------------------------------------------
# property: the span cap never changes what the totals say
# ----------------------------------------------------------------------

#: Paper region names spread over several RC buckets, plus one that
#: files under "Others".
_NAMES = ("Executor", "fvec_L2sqr", "Tuple Access", "Min-heap", "AddLink")


class _Boom(Exception):
    pass


def _programs(depth=4):
    leaf = st.tuples(st.sampled_from(_NAMES), st.booleans(), st.just(()))
    if depth == 1:
        return st.lists(leaf, max_size=4)
    node = st.tuples(st.sampled_from(_NAMES), st.booleans(), _programs(depth - 1))
    return st.lists(st.one_of(leaf, node), max_size=4)


def _run(prof, program):
    """Execute ``program`` and return the expected ``(path, parent)``
    of every section entered, in entry order (parent is a 1-based
    entry index, 0 for roots).  A raising node's exception unwinds to
    the top-level loop, closing every enclosing section."""
    entered = []

    def walk(nodes, path, parent):
        for name, raises, children in nodes:
            with prof.section(name):
                entered.append((path + (name,), parent))
                walk(children, path + (name,), len(entered))
                if raises:
                    raise _Boom

    for node in program:
        try:
            walk([node], (), 0)
        except _Boom:
            pass
    return entered


def _span_exclusive(prof):
    child = {}
    for s in prof.spans:
        if s.parent_id:
            child[s.parent_id] = child.get(s.parent_id, 0.0) + s.end - s.start
    out = {}
    for s in prof.spans:
        out[s.path] = out.get(s.path, 0.0) + s.end - s.start - child.get(s.span_id, 0.0)
    return out


@settings(max_examples=150, deadline=None)
@given(program=_programs())
def test_span_cap_never_changes_totals(program):
    ticks = iter(range(1_000_000))
    real = time.perf_counter
    time.perf_counter = lambda: float(next(ticks))
    try:
        first = Profiler(max_spans=10**9)
        entered = _run(first, program)
        n = len(entered)
        caps = sorted({0, 1, max(n - 1, 0), 10**9})
        profs = {}
        for cap in caps:
            ticks = iter(range(1_000_000))
            profs[cap] = Profiler(max_spans=cap)
            assert _run(profs[cap], program) == entered
        disabled = Profiler(enabled=False, max_spans=10**9)
        _run(disabled, program)
    finally:
        time.perf_counter = real

    want_rows = profs[10**9].breakdown()
    want_rc = attribute_profile(profs[10**9]).as_dict()
    for cap, prof in profs.items():
        assert prof.breakdown() == want_rows
        assert attribute_profile(prof).as_dict() == want_rc
        if cap == 0:
            assert prof.spans == [] and prof.dropped_spans == 0
        else:
            assert len(prof.spans) + prof.dropped_spans == n
            assert len(prof.spans) == min(cap, n)
        assert [s.span_id for s in prof.spans] == list(range(1, len(prof.spans) + 1))
        assert [(s.path, s.parent_id) for s in prof.spans] == entered[: len(prof.spans)]
        assert all(s.end is not None for s in prof.spans)
        if cap and not prof.dropped_spans:
            assert _span_exclusive(prof) == pytest.approx(dict(prof._exclusive))

    assert disabled.spans == [] and disabled.dropped_spans == 0
    assert disabled.breakdown() == [] and disabled.total_seconds() == 0.0
    with pytest.raises(TypeError):
        NULL_PROFILER.enabled = True
