"""Planner statistics: the ANALYZE command and selectivity estimation.

This is pgsim's ``pg_statistic``/``analyze.c`` layer.  ``ANALYZE
[table]`` scans the heap and records, per table, ``reltuples`` and
``relpages`` (the ``pg_class`` fields) and, per scalar column, the
``pg_stats`` triple the PostgreSQL planner lives on:

* ``n_distinct`` — number of distinct non-null values,
* most-common values (MCVs) with their frequencies,
* an equi-depth histogram over the values *not* covered by the MCVs.

Vector columns (``float4[]``) are skipped, exactly as PostgreSQL's
default typanalyze skips types with no ordering operator it can use.

The second half of the module is clause selectivity estimation
(``restrictinfo.c``/``selfuncs.c`` in miniature): given a WHERE tree
and a table's statistics, estimate the fraction of rows that satisfy
it.  The path layer (:mod:`repro.pgsim.paths`) uses this both to cost
seq-scan quals and to size the adaptive over-fetch for filters pushed
into an ordered index scan.
"""

from __future__ import annotations

import bisect
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.pgsim.catalog import Catalog, TableInfo
from repro.pgsim.expr import column_refs, evaluate, is_constant
from repro.pgsim.sql import ast
from repro.pgsim.tuple_format import TypeOid

#: Default selectivities when no statistics apply (PostgreSQL's
#: selfuncs.h defaults).
DEFAULT_EQ_SEL = 0.005
DEFAULT_RANGE_SEL = 1.0 / 3.0
DEFAULT_UNK_SEL = 0.25

#: Rows kept in ANALYZE's joint-selectivity sample (a stride sample of
#: the scalar columns, consulted when a WHERE clause touches two or
#: more columns and the independence assumption would otherwise apply).
SAMPLE_TARGET = 300

#: Column types ANALYZE collects value statistics for.
_SCALAR_TYPES = {
    TypeOid.INT4,
    TypeOid.INT8,
    TypeOid.FLOAT4,
    TypeOid.FLOAT8,
    TypeOid.TEXT,
}


@dataclass
class ColumnStats:
    """``pg_stats`` row for one column."""

    null_frac: float
    n_distinct: int
    #: Most-common values, most frequent first.
    mcv_values: list[Any] = field(default_factory=list)
    #: Fraction of all rows holding each corresponding MCV.
    mcv_freqs: list[float] = field(default_factory=list)
    #: Equi-depth histogram bounds over the non-MCV values
    #: (``len(bounds) - 1`` equal-mass buckets); empty when the column
    #: had too few distinct non-MCV values to bucket.
    histogram_bounds: list[Any] = field(default_factory=list)
    #: Physical-order correlation (``pg_stats.correlation``): Spearman
    #: rank correlation between a value and its heap position, in
    #: [-1, 1].  Near ±1 means the column is laid out in value order —
    #: a skew signal for the filtered-search strategy crossover (a
    #: predicate on a correlated column concentrates its matches in a
    #: few IVF lists / graph regions instead of spreading uniformly).
    correlation: float = 0.0

    def mcv_mass(self) -> float:
        """Total row fraction covered by the MCV list."""
        return sum(self.mcv_freqs)


@dataclass
class TableStats:
    """``pg_class`` + ``pg_stats`` snapshot for one table."""

    reltuples: float
    relpages: int
    last_analyze: float
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    #: Heap ``n_dead_tup`` at ANALYZE time.  Deaths *since* then are
    #: ``heap.n_dead_tup - dead_at_analyze``; :func:`table_shape`
    #: discounts them so a bulk DELETE doesn't leave the planner
    #: costing scans over rows that no longer exist.
    dead_at_analyze: float = 0.0
    #: Stride sample of the scalar columns (row dicts, heap order) for
    #: joint-selectivity estimation of multi-column predicates.
    sample: list[dict[str, Any]] = field(default_factory=list)


def analyze_table(table: TableInfo, catalog: Catalog) -> TableStats:
    """Scan ``table`` and attach fresh statistics to its catalog entry.

    Reads every live tuple (pgsim tables are small enough that we skip
    PostgreSQL's row sampling) with a column-wise scan that decodes the
    scalar columns only, computes per-column stats, and stores the
    result on ``table.stats``.
    """
    target = int(catalog.get_setting("default_statistics_target"))
    scalar_cols = [
        (i, col) for i, col in enumerate(table.columns) if col.type_oid in _SCALAR_TYPES
    ]
    column_values: list[list[Any]] = [[] for _ in scalar_cols]
    ntuples = 0
    for chunk in table.heap.scan_batches(None, columns=[i for i, __ in scalar_cols]):
        ntuples += len(chunk)
        for values, (i, __) in zip(column_values, scalar_cols):
            values += chunk.values(i)
    values_by_col: list[list[Any]] = [[] for _ in table.columns]
    nulls_by_col = [0 for _ in table.columns]
    for values, (i, __) in zip(column_values, scalar_cols):
        values_by_col[i] = [value for value in values if value is not None]
        nulls_by_col[i] = len(values) - len(values_by_col[i])
    names = [col.name for __, col in scalar_cols]
    stats = TableStats(
        reltuples=float(ntuples),
        relpages=max(table.heap.n_blocks(), 1),
        last_analyze=time.time(),
        dead_at_analyze=float(table.heap.n_dead_tup),
        sample=_stride_sample(names, column_values, ntuples),
    )
    for i, col in scalar_cols:
        col_stats = _column_stats(values_by_col[i], nulls_by_col[i], ntuples, target)
        col_stats.correlation = _correlation(values_by_col[i])
        stats.columns[col.name] = col_stats
    table.stats = stats
    return stats


def _stride_sample(
    names: list[str], columns: list[list[Any]], n_rows: int
) -> list[dict[str, Any]]:
    """Every ``stride``-th of ``n_rows`` rows given column-wise, as row
    dicts, capped near :data:`SAMPLE_TARGET`.

    Deterministic (no RNG state to manage) and order-preserving; the
    stride makes the sample span the whole heap, so physically
    clustered values are represented proportionally.
    """
    stride = max(1, n_rows // SAMPLE_TARGET)
    return [
        {name: column[j] for name, column in zip(names, columns)}
        for j in range(0, n_rows, stride)
    ]


def _correlation(values: list[Any]) -> float:
    """Spearman rank correlation of value order vs heap order.

    This is ``pg_stats.correlation`` computed over the full column
    (pgsim skips row sampling): rank each value (average ranks on
    ties), then Pearson-correlate the ranks against the physical scan
    positions.  Returns 0.0 when the column is constant or too small.
    """
    n = len(values)
    if n < 2:
        return 0.0
    try:
        order = sorted(range(n), key=values.__getitem__)
    except TypeError:
        return 0.0
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    mean_pos = (n - 1) / 2.0
    mean_rank = sum(ranks) / n
    num = sum((p - mean_pos) * (r - mean_rank) for p, r in enumerate(ranks))
    den_pos = sum((p - mean_pos) ** 2 for p in range(n))
    den_rank = sum((r - mean_rank) ** 2 for r in ranks)
    if den_pos <= 0.0 or den_rank <= 0.0:
        return 0.0
    return num / math.sqrt(den_pos * den_rank)


def _column_stats(values: list[Any], nulls: int, ntuples: int, target: int) -> ColumnStats:
    """Compute one column's ``pg_stats`` row from its non-null values."""
    if ntuples == 0 or not values:
        return ColumnStats(null_frac=1.0 if ntuples else 0.0, n_distinct=0)
    counts = Counter(values)
    null_frac = nulls / ntuples
    n_distinct = len(counts)
    # MCVs: values that appear more than once, most frequent first,
    # capped at the statistics target.  A unique column gets no MCVs
    # (every value is equally "common"), matching PostgreSQL.
    mcv_values: list[Any] = []
    mcv_freqs: list[float] = []
    for value, count in counts.most_common(target):
        if count <= 1:
            break
        mcv_values.append(value)
        mcv_freqs.append(count / ntuples)
    # Equi-depth histogram over the non-MCV values.
    mcv_set = set(mcv_values)
    rest = sorted(v for v in values if v not in mcv_set)
    bounds: list[Any] = []
    if len(rest) >= 2:
        buckets = min(target, len(rest) - 1)
        bounds = [rest[(len(rest) - 1) * b // buckets] for b in range(buckets + 1)]
    return ColumnStats(
        null_frac=null_frac,
        n_distinct=n_distinct,
        mcv_values=mcv_values,
        mcv_freqs=mcv_freqs,
        histogram_bounds=bounds,
    )


def table_shape(table: TableInfo) -> tuple[float, int]:
    """``(reltuples, relpages)`` — from stats if analyzed, else live heap.

    PostgreSQL similarly falls back to the relation's current physical
    size when it has never been analyzed.  ANALYZE-time ``reltuples``
    goes stale the moment rows die, so deaths since the last ANALYZE
    (tracked via the heap's ``n_dead_tup``) are discounted — a bulk
    DELETE is reflected in cost estimates immediately, without waiting
    for the next ANALYZE (PostgreSQL leans on autovacuum's
    ``n_dead_tup`` bookkeeping for the same reason).
    """
    if table.stats is not None:
        died_since = max(0.0, float(table.heap.n_dead_tup) - table.stats.dead_at_analyze)
        return max(0.0, table.stats.reltuples - died_since), table.stats.relpages
    return float(table.heap.tuple_count), max(table.heap.n_blocks(), 1)


# ----------------------------------------------------------------------
# clause selectivity
# ----------------------------------------------------------------------
def clause_selectivity(expr: ast.Expr | None, table: TableInfo) -> float:
    """Estimated fraction of ``table``'s rows satisfying ``expr``.

    Composes like PostgreSQL's ``clauselist_selectivity`` under an
    attribute-independence assumption: AND multiplies, OR adds minus
    the overlap, NOT complements.  Unestimatable leaves fall back to
    :data:`DEFAULT_UNK_SEL`.

    Exception to independence: a boolean combination touching two or
    more distinct columns is estimated from ANALYZE's row sample when
    one is available — evaluating the predicate over the sampled rows
    captures cross-column correlation that multiplying per-column
    fractions cannot (the skew case the filtered-search strategy
    crossover depends on).
    """
    if expr is None:
        return 1.0
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("and", "or"):
            joint = _sampled_joint_selectivity(expr, table)
            if joint is not None:
                return joint
        if expr.op == "and":
            return _clamp(
                clause_selectivity(expr.left, table) * clause_selectivity(expr.right, table)
            )
        if expr.op == "or":
            s1 = clause_selectivity(expr.left, table)
            s2 = clause_selectivity(expr.right, table)
            return _clamp(s1 + s2 - s1 * s2)
        return _comparison_selectivity(expr, table)
    if isinstance(expr, ast.UnaryOp) and expr.op == "not":
        return _clamp(1.0 - clause_selectivity(expr.operand, table))
    if isinstance(expr, ast.Literal):
        if expr.value is True:
            return 1.0
        if expr.value in (False, None):
            return 0.0
    return DEFAULT_UNK_SEL


def _sampled_joint_selectivity(expr: ast.Expr, table: TableInfo) -> float | None:
    """Joint selectivity of a multi-column clause from the row sample.

    Returns None (caller falls back to independence) when no sample is
    available, the clause references fewer than two distinct columns
    (per-column MCV/histogram stats resolve finer than a ~300-row
    sample), a referenced column is missing from the sample (non-scalar
    type), or evaluation fails on the sample rows.
    """
    stats = table.stats
    if stats is None or not stats.sample:
        return None
    columns = set(column_refs(expr))
    if len(columns) < 2 or not columns.issubset(stats.sample[0].keys()):
        return None
    try:
        matched = sum(1 for row in stats.sample if evaluate(expr, row) is True)
    except Exception:
        return None
    # Add-half smoothing: an empty sample count estimates "rare", not
    # "impossible" — the over-fetch sizing divides by this number.
    return _clamp((matched + 0.5) / (len(stats.sample) + 1.0))


def _comparison_selectivity(expr: ast.BinaryOp, table: TableInfo) -> float:
    """Selectivity of ``column <op> constant`` (either operand order)."""
    split = _split_column_constant(expr)
    if split is None:
        return DEFAULT_UNK_SEL
    column, op, value = split
    col_stats = table.stats.columns.get(column) if table.stats is not None else None
    if op in ("=", "<>", "!="):
        sel = _eq_selectivity(col_stats, value)
        return _clamp(1.0 - sel) if op in ("<>", "!=") else sel
    if op in ("<", "<=", ">", ">="):
        return _range_selectivity(col_stats, op, value)
    return DEFAULT_UNK_SEL


def _split_column_constant(expr: ast.BinaryOp) -> tuple[str, str, Any] | None:
    """Normalize to ``(column, op, constant)``; None if not that shape."""
    flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "<>": "<>", "!=": "!="}
    if isinstance(expr.left, ast.ColumnRef) and is_constant(expr.right):
        return expr.left.name, expr.op, evaluate(expr.right, {})
    if isinstance(expr.right, ast.ColumnRef) and is_constant(expr.left):
        op = flipped.get(expr.op)
        if op is None:
            return None
        return expr.right.name, op, evaluate(expr.left, {})
    return None


def _eq_selectivity(col_stats: ColumnStats | None, value: Any) -> float:
    """``column = constant`` via MCVs, else spread over the distincts."""
    if col_stats is None or col_stats.n_distinct == 0:
        return DEFAULT_EQ_SEL
    for mcv, freq in zip(col_stats.mcv_values, col_stats.mcv_freqs):
        if _values_equal(mcv, value):
            return _clamp(freq)
    rest_distinct = col_stats.n_distinct - len(col_stats.mcv_values)
    if rest_distinct <= 0:
        # Every value is in the MCV list and ours was not among them.
        return 0.0
    rest_mass = 1.0 - col_stats.null_frac - col_stats.mcv_mass()
    return _clamp(rest_mass / rest_distinct)


def _range_selectivity(col_stats: ColumnStats | None, op: str, value: Any) -> float:
    """``column < constant`` and friends, combining MCVs and histogram.

    The histogram only covers rows *not* in the MCV list, so the
    qualifying fraction is the qualifying MCV mass plus the histogram
    fraction scaled by the histogram's share of the rows (PostgreSQL's
    ``mcv_selectivity`` + ``ineq_histogram_selectivity`` combination).
    """
    if col_stats is None:
        return DEFAULT_RANGE_SEL
    mcv_below = _mcv_mass_below(col_stats, value)
    if mcv_below is None:
        return DEFAULT_RANGE_SEL  # value not comparable with the MCVs
    bounds = col_stats.histogram_bounds
    hist_frac = _histogram_fraction_below(bounds, value)
    if hist_frac is None and len(bounds) >= 2:
        return DEFAULT_RANGE_SEL  # value not comparable with the bounds
    if hist_frac is None and not col_stats.mcv_values:
        return DEFAULT_RANGE_SEL  # no usable statistics at all
    nonnull = 1.0 - col_stats.null_frac
    hist_mass = max(0.0, nonnull - col_stats.mcv_mass())
    # Un-histogrammed leftover mass with no bounds: assume half
    # qualifies (a one-distinct-value remainder, vanishingly rare).
    below = mcv_below + (0.5 if hist_frac is None else hist_frac) * hist_mass
    sel = below if op in ("<", "<=") else nonnull - below
    return _clamp(sel)


def _histogram_fraction_below(bounds: list[Any], value: Any) -> float | None:
    """Fraction of histogrammed values ``< value`` (None if no histogram)."""
    if len(bounds) < 2:
        return None
    try:
        if value <= bounds[0]:
            return 0.0
        if value >= bounds[-1]:
            return 1.0
        bucket = bisect.bisect_right(bounds, value) - 1
        lo, hi = bounds[bucket], bounds[bucket + 1]
        try:
            frac_in = (value - lo) / (hi - lo) if hi > lo else 0.5
        except TypeError:  # non-numeric (text) — assume mid-bucket
            frac_in = 0.5
        return (bucket + frac_in) / (len(bounds) - 1)
    except TypeError:
        # value not comparable with the histogram's type
        return None


def _mcv_mass_below(col_stats: ColumnStats, value: Any) -> float | None:
    """Absolute row fraction held by MCVs ``< value``.

    0.0 when there are no MCVs (vacuously nothing below); None when the
    value does not compare against the MCV type.
    """
    try:
        return sum(
            freq
            for mcv, freq in zip(col_stats.mcv_values, col_stats.mcv_freqs)
            if mcv < value
        )
    except TypeError:
        return None


def _values_equal(a: Any, b: Any) -> bool:
    """Equality that tolerates int/float crossings but not 1 == True."""
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    try:
        return bool(a == b)
    except TypeError:
        return False


def _clamp(sel: float) -> float:
    """Clamp a selectivity into [0, 1]."""
    return min(1.0, max(0.0, sel))
