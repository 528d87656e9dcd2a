"""Benchmark harness regenerating every figure and table of the paper.

One definition per paper artifact (Figs. 2-19, Tables III-V, the
ablation sweep and the recall check): a
:class:`~repro.bench.runner.Figure` whose ``build(scale)`` measures
rows and whose ``shape(rows)`` judges them against the paper's claim.
All are registered in :data:`repro.bench.experiments.EXPERIMENTS` and
run via ``python -m repro.bench --experiment fig3`` or the
``repro-bench`` console script, which prints the rows and the
verdicts; ``benchmarks/bench_paper_figures.py`` runs the same ``build`` at
:data:`~repro.bench.runner.SMOKE` scale and asserts every verdict.
EXPERIMENTS.md records the comparison with the paper.
"""

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.runner import DEFAULT, SMOKE, ExperimentResult, Figure, Scale, Verdict

__all__ = [
    "DEFAULT",
    "EXPERIMENTS",
    "SMOKE",
    "ExperimentResult",
    "Figure",
    "Scale",
    "Verdict",
    "run_experiment",
]
