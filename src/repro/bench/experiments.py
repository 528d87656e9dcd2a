"""Experiment registry: one :class:`~repro.bench.runner.Figure` per
paper figure/table id."""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.bench import exp_ablation, exp_build, exp_parallel, exp_recall, exp_search, exp_size
from repro.bench.runner import DEFAULT, ExperimentResult, Figure, Scale

#: experiment id -> its one definition (build, shape, render).
EXPERIMENTS: dict[str, Figure] = {
    fig.exp_id: fig
    for fig in (
        exp_search.FIG2,
        exp_build.FIG3,
        exp_build.FIG4,
        exp_build.FIG5,
        exp_build.FIG6,
        exp_build.FIG7,
        exp_build.TAB3,
        exp_build.FIG8,
        exp_parallel.FIG9,
        exp_build.FIG10,
        exp_size.FIG11,
        exp_size.FIG12,
        exp_size.FIG13,
        exp_size.TAB4,
        exp_search.FIG14,
        exp_search.TAB5,
        exp_search.FIG15,
        exp_search.FIG16,
        exp_search.FIG17,
        exp_parallel.FIG18,
        exp_search.FIG19,
        exp_ablation.ABLATION,
        exp_recall.RECALL,
    )
}


def run_experiment(
    exp_id: str,
    scale: float | Scale | None = None,
    datasets: Sequence[str] | None = None,
) -> ExperimentResult:
    """Run one registered experiment by id.

    ``scale`` is a preset, or a dataset scale applied to :data:`DEFAULT`
    (``None``: each profile's scale).  ``datasets`` replaces every
    dataset list of the preset.

    Raises:
        KeyError: with the known ids listed.
    """
    key = exp_id.lower()
    if key not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}")
    preset = scale if isinstance(scale, Scale) else DEFAULT.at(scale)
    if datasets is not None:
        names = tuple(datasets)
        preset = replace(preset, datasets=names, hnsw_datasets=names, pair_datasets=names)
    return EXPERIMENTS[key].run(preset)
