"""ASCII renderers matching the paper's figure/table formats.

Each figure in the paper is a grouped bar chart (systems x datasets)
and each table a relative/absolute breakdown; these helpers print the
same rows/series so a harness run can be compared to the paper at a
glance and EXPERIMENTS.md can be regenerated mechanically.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.common.profiling import BreakdownRow


def format_seconds(seconds: float) -> str:
    """Human scale: us / ms / s."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.2f}s"


def format_bytes(n: int | float) -> str:
    """Human scale: B / KiB / MiB / GiB."""
    value = float(n)
    for unit in ("B", "KiB", "MiB"):
        if value < 1024:
            return f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.2f}GiB"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_grouped_series(
    title: str,
    groups: Sequence[str],
    series: Mapping[str, Sequence[float]],
    unit: str = "s",
    gap_of: tuple[str, str] | None = None,
) -> str:
    """Render a paper-figure-style grouped series.

    Args:
        groups: x-axis labels (datasets, thread counts, ...).
        series: system name -> one value per group.
        unit: "s" (formatted via :func:`format_seconds`), "bytes", or
            a literal suffix.
        gap_of: optional ``(numerator, denominator)`` series names; a
            "gap" row is appended, matching how the paper annotates
            each figure with the slowdown factor.
    """
    headers = [title] + list(groups)
    rows: list[list[object]] = []
    for name, values in series.items():
        if len(values) != len(groups):
            raise ValueError(
                f"series {name!r} has {len(values)} values for {len(groups)} groups"
            )
        rows.append([name] + [_format_value(v, unit) for v in values])
    if gap_of is not None:
        num, den = gap_of
        gaps = []
        for a, b in zip(series[num], series[den]):
            gaps.append(f"{a / b:.1f}x" if b else "inf")
        rows.append([f"gap ({num}/{den})"] + gaps)
    return render_table(headers, rows)


def _format_value(value: float, unit: str) -> str:
    if unit == "s":
        return format_seconds(value)
    if unit == "bytes":
        return format_bytes(value)
    if unit == "x":
        return f"{value:.2f}x"
    return f"{value:.3g}{unit}"


def render_breakdown(
    title: str,
    rows_by_system: Mapping[str, Sequence[BreakdownRow]],
    columns: Sequence[str] | None = None,
    min_fraction: float = 0.01,
    other_label: str = "Others",
) -> str:
    """Render a Table III/V-style breakdown: relative % + absolute time.

    Args:
        columns: fixed column order (paper order); unnamed buckets are
            folded into ``other_label``.
        min_fraction: buckets below this share also fold into Others
            when ``columns`` is None.
    """
    folded: dict[str, dict[str, tuple[float, float]]] = {}
    names: list[str] = list(columns) if columns else []
    for system, rows in rows_by_system.items():
        total = sum(r.seconds for r in rows) or 1.0
        buckets: dict[str, float] = {}
        for r in rows:
            if columns is not None:
                key = r.name if r.name in columns else other_label
            else:
                key = r.name if r.fraction >= min_fraction else other_label
                if key != other_label and key not in names:
                    names.append(key)
            buckets[key] = buckets.get(key, 0.0) + r.seconds
        folded[system] = {k: (v / total, v) for k, v in buckets.items()}
    if other_label not in names and any(other_label in b for b in folded.values()):
        names.append(other_label)

    headers = [title] + names
    out_rows: list[list[object]] = []
    for system, buckets in folded.items():
        pct_row: list[object] = [system]
        abs_row: list[object] = [""]
        for name in names:
            frac, secs = buckets.get(name, (0.0, 0.0))
            pct_row.append(f"{frac * 100:.2f}%")
            abs_row.append(format_seconds(secs))
        out_rows.append(pct_row)
        out_rows.append(abs_row)
    return render_table(headers, out_rows)
