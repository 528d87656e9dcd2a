"""Prometheus text exposition generated from the ``pg_stat_*`` views.

:func:`render_metrics` walks the views a catalog registers (each a
:class:`~repro.common.obs.StatView`) and exports every column declared
``counter`` or ``gauge``; nothing here names a counter.  The naming
rule:

* the family is ``pgsim_<view>_<column>``, where ``<view>`` is the
  view name without its ``pg_stat_`` (or ``pg_``) prefix;
* a ``_ms`` column is divided by 1e3 and renamed ``_seconds``;
* a counter family gets ``_total``;
* the row's ``label`` columns become Prometheus labels, and ``None``
  cells are skipped.

Served by ``PgSimDatabase.metrics_text()`` and the ``repro-bench
metrics`` CLI.  A scrape is a read-only snapshot: it reads each view's
rows once through the same lock-free path SQL monitoring uses, never
executing a statement, so scraping from a monitoring thread is safe
alongside running statements.

:func:`parse_exposition` is the matching strict parser — tests
round-trip every scrape through it, and it validates histogram
bucket monotonicity, so "it parsed" means a real Prometheus scraper
would accept the payload.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from repro.common.obs import COUNTER, GAUGE

_METRIC_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")

#: Unit suffixes that violate the base-unit rule (prometheus.io/docs
#: naming): durations are ``_seconds``, sizes are ``_bytes``, ratios
#: are ``_ratio`` — never milliseconds, kilobytes, or percentages.
_NON_BASE_UNIT_SUFFIXES = (
    "_ms",
    "_millis",
    "_milliseconds",
    "_us",
    "_micros",
    "_microseconds",
    "_ns",
    "_nanos",
    "_nanoseconds",
    "_minutes",
    "_hours",
    "_days",
    "_kb",
    "_kib",
    "_mb",
    "_mib",
    "_gb",
    "_gib",
    "_kilobytes",
    "_megabytes",
    "_gigabytes",
    "_percent",
    "_pct",
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)$"
)


def check_family_name(name: str, metric_type: str) -> None:
    """Enforce Prometheus naming conventions on one metric family.

    Raises ``ValueError`` when a counter family does not end in
    ``_total``, or when any family carries a non-base-unit suffix
    (``_ms``, ``_kb``, ``_minutes``, ...).  Applied at both ends:
    :class:`_Writer` refuses to emit a non-conforming family, and
    :func:`parse_exposition` rejects payloads containing one.
    """
    if not _NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    if metric_type == "counter" and not name.endswith("_total"):
        raise ValueError(f"counter family {name!r} must end in '_total'")
    base = name[: -len("_total")] if name.endswith("_total") else name
    for suffix in _NON_BASE_UNIT_SUFFIXES:
        if base.endswith(suffix):
            raise ValueError(
                f"metric family {name!r} uses non-base unit suffix "
                f"{suffix!r}; use base units (_seconds, _bytes, _ratio)"
            )


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


class _Writer:
    """Accumulates one exposition payload family by family."""

    def __init__(self) -> None:
        self._lines: list[str] = []

    def family(self, name: str, metric_type: str, help_text: str) -> None:
        check_family_name(name, metric_type)
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {metric_type}")

    def sample(
        self, name: str, value: Any, labels: dict[str, Any] | None = None
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{k}="{_escape_label(str(v))}"' for k, v in labels.items()
            )
            self._lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
        else:
            self._lines.append(f"{name} {_format_value(value)}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def family_name(view: str, column: str, kind: str) -> str:
    """The family exporting ``view.column`` (see the module docstring)."""
    prefix = "pg_stat_" if view.startswith("pg_stat_") else "pg_"
    if column.endswith("_ms"):
        column = column[: -len("_ms")] + "_seconds"
    name = f"pgsim_{view.removeprefix(prefix)}_{column}"
    return name + "_total" if kind == COUNTER else name


def render_metrics(catalog: Any) -> str:
    """Every counter/gauge cell of ``catalog``'s views as exposition text."""
    w = _Writer()
    for view_name in catalog.view_names():
        view = catalog.view(view_name)
        metrics = view.columns_of(COUNTER, GAUGE)
        if not metrics:
            continue
        rows = view.rows()
        labels = [dict(view.row_labels(row)) for row in rows]
        for i, column in metrics:
            name = family_name(view_name, column, view.kinds[i])
            per_ms = column.endswith("_ms")
            w.family(name, view.kinds[i], f"{view_name}.{column}")
            for row, row_labels in zip(rows, labels):
                if row[i] is not None:
                    w.sample(name, row[i] / 1e3 if per_ms else row[i], row_labels)
    return w.render()


# ----------------------------------------------------------------------
# parser (test/CLI round-trip validation)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class Sample:
    """One parsed sample line."""

    name: str
    labels: dict[str, str]
    value: float


@dataclass
class Exposition:
    """Parsed text-format payload with lookup helpers."""

    samples: list[Sample] = field(default_factory=list)
    types: dict[str, str] = field(default_factory=dict)
    helps: dict[str, str] = field(default_factory=dict)

    def value(self, name: str, /, **labels: str) -> float | None:
        """The value of the sample matching ``name`` and ``labels`` exactly."""
        want = {k: str(v) for k, v in labels.items()}
        for s in self.samples:
            if s.name == name and s.labels == want:
                return s.value
        return None

    def family(self, name: str) -> list[Sample]:
        return [s for s in self.samples if s.name.startswith(name)]


def _parse_labels(raw: str) -> dict[str, str]:
    """Parse ``k="v",...`` handling ``\\\\``/``\\"``/``\\n`` escapes."""
    labels: dict[str, str] = {}
    i = 0
    n = len(raw)
    while i < n:
        match = _NAME_RE.match(raw, i)
        if match is None:
            raise ValueError(f"bad label name at {raw[i:]!r}")
        key = match.group(0)
        i = match.end()
        if raw[i : i + 2] != '="':
            raise ValueError(f"expected '=\"' after label {key!r}")
        i += 2
        out: list[str] = []
        while i < n and raw[i] != '"':
            ch = raw[i]
            if ch == "\\":
                esc = raw[i + 1 : i + 2]
                if esc == "n":
                    out.append("\n")
                elif esc in ('"', "\\"):
                    out.append(esc)
                else:
                    raise ValueError(f"bad escape \\{esc} in label {key!r}")
                i += 2
            else:
                out.append(ch)
                i += 1
        if i >= n:
            raise ValueError(f"unterminated label value for {key!r}")
        i += 1  # closing quote
        labels[key] = "".join(out)
        if i < n:
            if raw[i] != ",":
                raise ValueError(f"expected ',' between labels at {raw[i:]!r}")
            i += 1
    return labels


def _parse_number(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    return float(raw)  # raises ValueError on garbage, incl. "NaN" ok


def parse_exposition(text: str) -> Exposition:
    """Strictly parse a Prometheus text-format payload.

    Raises ``ValueError`` on any malformed line, on a ``# TYPE`` with
    an unknown metric type, on families violating Prometheus naming
    conventions (counters without ``_total``, non-base-unit suffixes —
    see :func:`check_family_name`), and on histogram families whose
    ``le`` buckets are not cumulative (non-decreasing with ascending
    bound, ``+Inf`` bucket equal to ``_count``).
    """
    exp = Exposition()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP ") :]
            name, _, help_text = rest.partition(" ")
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"line {lineno}: bad HELP metric name {name!r}")
            exp.helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE ") :]
            name, _, metric_type = rest.partition(" ")
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"line {lineno}: bad TYPE metric name {name!r}")
            if metric_type not in _METRIC_TYPES:
                raise ValueError(f"line {lineno}: unknown metric type {metric_type!r}")
            try:
                check_family_name(name, metric_type)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            exp.types[name] = metric_type
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels = _parse_labels(match.group("labels") or "")
        try:
            value = _parse_number(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {match.group('value')!r}"
            ) from None
        exp.samples.append(Sample(match.group("name"), labels, value))
    _validate_histograms(exp)
    return exp


def _validate_histograms(exp: Exposition) -> None:
    for name, metric_type in exp.types.items():
        if metric_type != "histogram":
            continue
        # Group buckets by their non-le labels (one series per group).
        series: dict[tuple, list[tuple[float, float]]] = {}
        counts: dict[tuple, float] = {}
        for s in exp.samples:
            base = tuple(sorted((k, v) for k, v in s.labels.items() if k != "le"))
            if s.name == f"{name}_bucket":
                series.setdefault(base, []).append(
                    (_parse_number(s.labels["le"]), s.value)
                )
            elif s.name == f"{name}_count":
                counts[base] = s.value
        for base, buckets in series.items():
            buckets.sort(key=lambda b: b[0])
            prev = 0.0
            for upper, seen in buckets:
                if seen < prev:
                    raise ValueError(
                        f"histogram {name}{dict(base)}: bucket le={upper} "
                        f"count {seen} < previous {prev}"
                    )
                prev = seen
            if not buckets or buckets[-1][0] != float("inf"):
                raise ValueError(f"histogram {name}{dict(base)}: missing +Inf bucket")
            expected = counts.get(base)
            if expected is not None and buckets[-1][1] != expected:
                raise ValueError(
                    f"histogram {name}{dict(base)}: +Inf bucket "
                    f"{buckets[-1][1]} != _count {expected}"
                )
