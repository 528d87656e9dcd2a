"""The benchmark's declared metrics, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single list of metric
names, units and regression bounds; ``run.py`` emits exactly those names
and ``compare.py`` judges with those bounds.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Per-kind latencies and write/recovery costs a user sees but only some
#: workloads produce.  The driver's contract wants every end-to-end
#: metric from every workload, so these are declared under ``per_layer``
#: (no bound there); ``compare.py`` judges them with these bounds.
UNGATED_BOUNDS = {
    "knn_p50_ms": 0.10,
    "knn_p95_ms": 0.15,
    "ops_per_s": 0.10,
    "index_build_s": 0.15,
    "filtered_p50_ms": 0.10,
    "filtered_p95_ms": 0.15,
    "insert_p50_ms": 0.10,
    "insert_p95_ms": 0.15,
    "modify_p50_ms": 0.10,
    "wal_bytes_per_user_byte": 0.02,
    "recovery_s": 0.20,
}


class Spec:
    def __init__(self) -> None:
        raw = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        self.run_seconds: int = raw["run_seconds"]
        self.workloads = [w["name"] for w in raw["workloads"]]
        self.end_to_end = {m["name"]: m for m in raw["end_to_end"]}
        self.per_layer = {m["name"]: m for m in raw["per_layer"]}

    def user_visible(self, name: str) -> bool:
        """End-to-end in the user's sense, gated by the driver or not."""
        return name in self.end_to_end or name in UNGATED_BOUNDS or name == "failed_share"

    def unit(self, name: str) -> str:
        if name == "failed_share":
            return "ratio"
        return (self.end_to_end.get(name) or self.per_layer[name])["unit"]

    def better(self, name: str) -> str:
        return (self.end_to_end.get(name) or self.per_layer[name])["better"]

    def bound(self, name: str) -> float | None:
        """Share by which ``name`` may worsen, or None when unbounded."""
        if name in self.end_to_end:
            return self.end_to_end[name]["bound"]
        return UNGATED_BOUNDS.get(name)
