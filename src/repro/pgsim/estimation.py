"""Planner estimate-vs-actual tracking (``pg_stat_estimation_errors``).

The adaptive filtered-search work (ROADMAP item 3) needs to know
*where the selectivity model is wrong* before strategy crossovers can
be costed honestly.  This module accumulates, per (normalized query,
plan-node type):

* estimated vs. actual row counts and their **q-error**
  ``max(est/actual, actual/est)`` — the standard cardinality-quality
  metric (both sides clamped to >= 1 row, matching the planner's own
  row-count floor);
* estimated vs. measured selectivity, where the plan carries one
  (``Filter`` over a seq scan; hybrid ``IndexScan`` with a pushed-down
  predicate, measured as emitted/examined).

Actual row counts come from the same per-node instrument dict both
executor paths feed ``EXPLAIN ANALYZE`` from, so the view reconciles
exactly with the ``actual rows=N`` annotations — differential-tested
in ``tests/test_timeseries_obs.py``.
"""

from __future__ import annotations

from typing import Any

from repro.common.obs import StatView, counter, gauge, label


def q_error(est_rows: float, actual_rows: float) -> float:
    """``max(est/actual, actual/est)`` with both sides clamped to 1."""
    est = max(float(est_rows), 1.0)
    act = max(float(actual_rows), 1.0)
    return max(est / act, act / est)


class EstimationEntry:
    """Accumulated estimate-vs-actual record for one (query, node,
    strategy) — strategy is the filtered-search strategy that executed
    the node ("pre-filter"/"post-filter"/"in-filter"), None elsewhere,
    so mis-estimates attribute to the strategy that suffered them."""

    __slots__ = (
        "query",
        "node",
        "strategy",
        "calls",
        "est_rows",
        "actual_rows",
        "sum_q_error",
        "max_q_error",
        "est_selectivity",
        "actual_selectivity",
    )

    def __init__(self, query: str, node: str, strategy: str | None = None) -> None:
        self.query = query
        self.node = node
        self.strategy = strategy
        self.calls = 0
        self.est_rows = 0.0
        self.actual_rows = 0
        self.sum_q_error = 0.0
        self.max_q_error = 0.0
        self.est_selectivity: float | None = None
        self.actual_selectivity: float | None = None

    def record(
        self,
        est_rows: float,
        actual_rows: int,
        est_selectivity: float | None,
        actual_selectivity: float | None,
    ) -> None:
        self.calls += 1
        self.est_rows = float(est_rows)
        self.actual_rows = int(actual_rows)
        q = q_error(est_rows, actual_rows)
        self.sum_q_error += q
        if q > self.max_q_error:
            self.max_q_error = q
        if est_selectivity is not None:
            self.est_selectivity = est_selectivity
        if actual_selectivity is not None:
            self.actual_selectivity = actual_selectivity


class EstimationStats:
    """Per-database accumulator behind ``pg_stat_estimation_errors``."""

    __slots__ = ("_entries", "total_recorded")

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str, str | None], EstimationEntry] = {}
        #: Lifetime recorded nodes; survives :meth:`reset`.
        self.total_recorded = 0

    def record(
        self,
        query: str,
        node: str,
        est_rows: float,
        actual_rows: int,
        est_selectivity: float | None = None,
        actual_selectivity: float | None = None,
        strategy: str | None = None,
    ) -> None:
        entry = self._entries.get((query, node, strategy))
        if entry is None:
            entry = self._entries[(query, node, strategy)] = EstimationEntry(
                query, node, strategy
            )
        entry.record(est_rows, actual_rows, est_selectivity, actual_selectivity)
        self.total_recorded += 1

    def entries(self) -> list[EstimationEntry]:
        # .copy(): read lock-free while another session records.
        return list(self._entries.copy().values())

    def entry(self, query: str, node: str) -> EstimationEntry | None:
        """First entry for (query, node), any strategy."""
        for entry in self.entries():
            if entry.query == query and entry.node == node:
                return entry
        return None

    def reset(self) -> None:
        """``pg_stat_reset()``: drop entries, keep the lifetime total."""
        self._entries.clear()

    def rows(self) -> list[tuple]:
        """``pg_stat_estimation_errors`` rows, worst offenders first."""
        rows = [
            (
                e.query,
                e.node,
                e.calls,
                e.est_rows,
                e.actual_rows,
                e.sum_q_error / e.calls if e.calls else 0.0,
                e.max_q_error,
                e.est_selectivity,
                e.actual_selectivity,
                e.strategy,
            )
            for e in self.entries()
        ]
        rows.sort(key=lambda r: (-r[6], r[0], r[1]))
        return rows


def record_plan(
    stats: EstimationStats, query: str, plan: Any, instrument: dict[int, list]
) -> int:
    """Walk an executed plan and record every estimated node.

    ``instrument`` is the per-node ``[rows, seconds, hits, misses]``
    dict the executor filled while running the plan — the identical
    source ``EXPLAIN ANALYZE`` renders, which is what makes the view
    reconcile exactly with the ``actual rows=N`` annotations.  Nodes
    the planner left uncosted (virtual-view scans) carry
    ``plan_rows is None`` and are skipped.  Returns the number of
    nodes recorded.
    """
    recorded = 0
    node = plan
    while node is not None:
        entry = instrument.get(id(node))
        if entry is not None and node.plan_rows is not None:
            actual = int(entry[0])
            actual_sel = _actual_selectivity(node, instrument, actual)
            stats.record(
                query,
                type(node).__name__,
                float(node.plan_rows),
                actual,
                node.est_selectivity,
                actual_sel,
                strategy=node_strategy(node),
            )
            recorded += 1
        node = getattr(node, "child", None)
    return recorded


def node_strategy(node: Any) -> str | None:
    """The filtered-search strategy a plan node executes under, if any."""
    strategy = getattr(node, "strategy", None)
    if isinstance(strategy, str):
        return strategy
    return None


def _actual_selectivity(node: Any, instrument: dict[int, list], actual: int) -> float | None:
    """Measured selectivity for nodes that carry an estimate.

    * Nodes stashing ``actual_matched``/``actual_examined`` (the three
      filtered-search scan strategies): matched / examined — the
      executor's own count of predicate survivors among the candidates
      it actually checked;
    * ``Filter``: rows out / rows in (the child's actual rows);
    * hybrid ``IndexScan`` without a matched stash: rows emitted /
      candidates examined (``actual_examined``).
    """
    if node.est_selectivity is None:
        return None
    matched = getattr(node, "actual_matched", None)
    examined = getattr(node, "actual_examined", None)
    if matched is not None and examined:
        return matched / examined
    child = getattr(node, "child", None)
    if child is not None:
        child_entry = instrument.get(id(child))
        if child_entry and child_entry[0]:
            return actual / child_entry[0]
        return None
    if examined:
        return actual / examined
    return None


class StrategyEntry:
    """Accumulated counters for one filtered-search strategy."""

    __slots__ = (
        "strategy",
        "chosen",
        "fallbacks",
        "sum_est_sel",
        "n_est",
        "sum_actual_sel",
        "n_actual",
    )

    def __init__(self, strategy: str) -> None:
        self.strategy = strategy
        self.chosen = 0
        self.fallbacks = 0
        self.sum_est_sel = 0.0
        self.n_est = 0
        self.sum_actual_sel = 0.0
        self.n_actual = 0


class StrategyStats:
    """Per-strategy filtered-search accounting (``pg_stat_filtered_search``).

    One record per hybrid-query execution: which strategy the plan
    ran, the planner's estimated selectivity, the selectivity the
    executor measured (predicate survivors / candidates checked), and
    whether a post-filter scan hit the ``max_filtered_overfetch`` cap
    and fell back to brute force.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict[str, StrategyEntry] = {}

    def record(
        self,
        strategy: str,
        est_selectivity: float | None = None,
        actual_matched: int | None = None,
        actual_examined: int | None = None,
        fell_back: bool = False,
    ) -> None:
        entry = self._entries.get(strategy)
        if entry is None:
            entry = self._entries[strategy] = StrategyEntry(strategy)
        entry.chosen += 1
        if fell_back:
            entry.fallbacks += 1
        if est_selectivity is not None:
            entry.sum_est_sel += float(est_selectivity)
            entry.n_est += 1
        if actual_matched is not None and actual_examined:
            entry.sum_actual_sel += actual_matched / actual_examined
            entry.n_actual += 1

    def entries(self) -> list[StrategyEntry]:
        return list(self._entries.copy().values())

    def entry(self, strategy: str) -> StrategyEntry | None:
        return self._entries.get(strategy)

    def reset(self) -> None:
        self._entries.clear()

    def rows(self) -> list[tuple]:
        """``pg_stat_filtered_search`` rows, one per strategy."""
        return [
            (
                e.strategy,
                e.chosen,
                e.fallbacks,
                e.sum_est_sel / e.n_est if e.n_est else None,
                e.sum_actual_sel / e.n_actual if e.n_actual else None,
            )
            for e in sorted(self.entries(), key=lambda e: e.strategy)
        ]


def install_estimation_view(catalog: Any, stats: EstimationStats) -> None:
    """Register ``pg_stat_estimation_errors`` on a catalog."""
    catalog.register_view(
        StatView(
            "pg_stat_estimation_errors",
            [
                label("query"),
                label("node"),
                counter("calls"),
                "est_rows",
                "actual_rows",
                gauge("mean_q_error"),
                gauge("max_q_error"),
                "est_selectivity",
                "actual_selectivity",
                label("strategy"),
            ],
            stats.rows,
        )
    )


def install_strategy_view(catalog: Any, stats: StrategyStats) -> None:
    """Register ``pg_stat_filtered_search`` on a catalog."""
    catalog.register_view(
        StatView(
            "pg_stat_filtered_search",
            [
                label("strategy"),
                counter("chosen"),
                counter("fallbacks"),
                gauge("est_selectivity"),
                gauge("actual_selectivity"),
            ],
            stats.rows,
        )
    )
