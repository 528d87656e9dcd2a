"""Experiment plumbing: scale presets, shape verdicts, result records.

Every figure reads its inputs from one :class:`Scale` preset.
:data:`DEFAULT` holds the values ``repro-bench`` has always used: each
dataset at its profile scale (or ``--scale``), Table II parameters via
:func:`default_params`, the paper's k / nprobe / efs.  :data:`SMOKE`
holds the small fixed configuration the pytest gates run
(``benchmarks/bench_paper_figures.py``).  A figure's ``shape`` turns its
rows into :class:`Verdict` records, each carrying the measured value
and the bound it is held to.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from repro.common.datasets import PROFILES, Dataset, load_dataset
from repro.common.metrics import Pairs, paired, pairs_detail, ratio
from repro.common.profiling import Profiler
from repro.common.types import BuildStats
from repro.core.report import render_grouped_series
from repro.core.study import (
    BuildComparison,
    ComparativeStudy,
    GeneralizedVectorDB,
    SearchComparison,
    SpecializedVectorDB,
)

#: Datasets used by default for quantization-index experiments — all
#: six, in the paper's order.
ALL_DATASETS = ("sift1m", "gist1m", "deep1m", "sift10m", "deep10m", "turing10m")

#: Graph builds are the slowest part of the harness; HNSW experiments
#: default to the three 1M-class datasets, like the paper's Table IV.
HNSW_DATASETS = ("sift1m", "gist1m", "deep1m")

#: Extra shrink factor applied to HNSW experiments (page-store builds
#: are tuple-at-a-time and dominate harness wall-clock).
HNSW_SCALE_FACTOR = 0.4


@dataclass(frozen=True, slots=True)
class Search:
    """One search configuration: top-k, IVF probes, HNSW beam, query count."""

    k: int
    nprobe: int | None
    efs: int | None
    n_queries: int

    def run(
        self, study: ComparativeStudy, recall: bool = False, **override: Any
    ) -> SearchComparison:
        """``study.compare_search`` at this configuration: ``nprobe`` for
        the IVF family, ``efs`` for HNSW, each field replaceable."""
        hnsw = study.index_type == "hnsw"
        opts = {
            "k": self.k,
            "nprobe": None if hnsw else self.nprobe,
            "efs": self.efs if hnsw else None,
            "n_queries": self.n_queries,
        }
        return study.compare_search(**{**opts, **override}, recall=recall)


@dataclass(frozen=True)
class Scale:
    """Every input the figures read, for one preset.

    ``None`` in ``scale`` means each dataset's profile scale; in
    ``hnsw_scale``, ``HNSW_SCALE_FACTOR`` times the dataset scale; in
    ``params``, :func:`default_params`; in ``fig10_c``, c around
    sqrt(n) as in the paper's {100, 500, 1000} on SIFT1M.
    """

    scale: float | None = None
    hnsw_scale: float | None = None
    #: Multi-dataset IVF figures; single-dataset figures use the first.
    datasets: tuple[str, ...] = ALL_DATASETS
    hnsw_datasets: tuple[str, ...] = HNSW_DATASETS
    #: Fig. 15 and the recall check.
    pair_datasets: tuple[str, ...] = ("sift1m", "deep1m")
    #: index type -> fixed index parameters.
    params: Mapping[str, Mapping[str, Any]] | None = None
    search: Search = Search(k=50, nprobe=20, efs=200, n_queries=15)
    recall_search: Search = Search(k=10, nprobe=10, efs=100, n_queries=12)
    ablation_search: Search = Search(k=10, nprobe=10, efs=None, n_queries=10)
    #: :func:`~repro.common.metrics.paired` PASE/Faiss build pairs behind
    #: the build-time figures (Figs. 3-8 and 10, Table III) and the
    #: ablation's build toggle (RC#1).
    build_pairs: int = 1
    #: Repeats behind the timed search gates that flap on noise, each
    #: gated on the median: the ablation's search toggles (RC#6, RC#7;
    #: with and without the cause alternating which runs first) and
    #: Table V's profiled shares (the engines alternating which answers
    #: each query first).
    search_pairs: int = 3
    #: Index types of the parallelism figures (Figs. 9 and 18).
    parallel_index_types: tuple[str, ...] = ("ivf_flat", "ivf_pq")
    #: Fig. 9 needs the adding phase to dominate (as at paper scale), so
    #: it grows the dataset: training cost is fixed, adding is linear.
    parallel_build_factor: float = 6.0
    fig10_c: tuple[int, ...] | None = None
    fig10_bnn: tuple[int, ...] = (8, 16, 32)
    #: index type -> Fig. 10 parameters the swept c / bnn is merged into.
    fig10_params: Mapping[str, Mapping[str, Any]] | None = None
    fig19_nprobe: tuple[int, ...] = (10, 20, 50)
    #: (efs, k) points of Fig. 19's HNSW sweep.
    fig19_efs: tuple[tuple[int, int], ...] = ((16, 16), (100, 50), (200, 50))

    def at(self, scale: float | None) -> "Scale":
        """This preset with its datasets at ``scale`` (``--scale``)."""
        return replace(self, scale=scale)

    def dataset_scale(self, name: str, hnsw: bool = False) -> float | None:
        """The scale ``name`` loads at (HNSW figures use a smaller one)."""
        if not hnsw:
            return self.scale
        if self.hnsw_scale is not None:
            return self.hnsw_scale
        base = self.scale if self.scale is not None else PROFILES[name].default_scale
        return base * HNSW_SCALE_FACTOR

    def dataset(self, name: str, hnsw: bool = False) -> Dataset:
        """Load ``name`` at this preset's scale (memoized)."""
        return bench_dataset(name, self.dataset_scale(name, hnsw))

    def index_params(self, dataset: Dataset, index_type: str) -> dict[str, Any]:
        """This preset's index parameters for ``dataset``."""
        if self.params is None:
            return default_params(dataset, index_type)
        return dict(self.params[index_type])

    def builds(
        self, name: str, index_type: str, pairs: int, profiled: bool = False, **override: Any
    ) -> tuple[Dataset, Pairs]:
        """``name`` at ``index_type``'s scale and ``pairs``
        :func:`~repro.common.metrics.paired` PASE (``a``) and Faiss
        (``b``) builds of it, with this preset's parameters and
        ``override`` over them.  Each build loads a fresh engine; each
        result is (build stats, its profiler when ``profiled``)."""
        ds = self.dataset(name, hnsw=index_type == "hnsw")
        params = {**self.index_params(ds, index_type), **override}

        def build(engine: type) -> tuple[BuildStats, Profiler | None]:
            profiler = Profiler() if profiled else None
            db = engine(profiler=profiler)
            db.load(ds.base)
            return db.create_index(index_type, **params), profiler

        return ds, paired(
            lambda: build(GeneralizedVectorDB), lambda: build(SpecializedVectorDB), pairs
        )

    def study(self, name: str, index_type: str) -> tuple[ComparativeStudy, BuildComparison]:
        """Both engines built on ``name`` with this preset's parameters.

        Memoized (the last three), so figures that measure the same
        index at one preset (sizes, searches, sweeps) and the benches'
        session fixtures share one build: a caller that changes a
        setting on it restores the setting.
        """
        hnsw = index_type == "hnsw"
        params = tuple(self.index_params(self.dataset(name, hnsw), index_type).items())
        return _built_study(name, self.dataset_scale(name, hnsw), index_type, params)


_SMOKE_IVF = {"clusters": 24, "sample_ratio": 0.25, "seed": 42}
_SMOKE_PQ = {"clusters": 24, "m": 16, "c_pq": 32, "sample_ratio": 0.5, "seed": 42}
_SMOKE_SEARCH = Search(k=20, nprobe=8, efs=60, n_queries=8)

#: The paper's figures at ``repro-bench``'s profile scales.
DEFAULT = Scale()

#: A micro scale (SIFT1M -> 1000 rows) at which every figure builds
#: in seconds; the pytest shape gates run here.
SMOKE = Scale(
    scale=1e-3,
    hnsw_scale=6e-4,
    datasets=("sift1m",),
    hnsw_datasets=("sift1m",),
    pair_datasets=("sift1m",),
    params={
        "ivf_flat": _SMOKE_IVF,
        "ivf_pq": _SMOKE_PQ,
        "hnsw": {"bnn": 12, "efb": 32, "seed": 42},
    },
    search=_SMOKE_SEARCH,
    recall_search=_SMOKE_SEARCH,
    ablation_search=_SMOKE_SEARCH,
    build_pairs=3,
    search_pairs=5,
    parallel_index_types=("ivf_flat",),
    parallel_build_factor=1.0,
    fig10_c=(8, 24, 48),
    fig10_bnn=(8, 16),
    fig10_params={
        "ivf_flat": {"sample_ratio": 0.3, "seed": 42},
        "ivf_pq": _SMOKE_PQ,
        "hnsw": {"efb": 24, "seed": 42},
    },
    fig19_nprobe=(4, 8, 16),
    fig19_efs=((16, 20), (60, 20)),
)


@dataclass(frozen=True, slots=True)
class Verdict:
    """One named shape predicate: a measured value against its bound."""

    name: str
    value: float
    bound: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        text = f"{'✓' if self.ok else '✗'} {self.name}: {self.value:.3g} {self.bound}"
        return f"{text} ({self.detail})" if self.detail else text


def within(
    name: str, value: float, lo: float | None = None, hi: float | None = None, detail: str = ""
) -> Verdict:
    """``lo < value < hi`` (either side optional), as a :class:`Verdict`."""
    ok = (lo is None or value > lo) and (hi is None or value < hi)
    if lo is not None and hi is not None:
        bound = f"in ({lo:g}, {hi:g})"
    else:
        bound = f"> {lo:g}" if lo is not None else f"< {hi:g}"
    return Verdict(name, value, bound, ok, detail)


def median_within(
    name: str, ratios: list[float], lo: float | None = None, hi: float | None = None
) -> Verdict:
    """:func:`within` on the median of a paired gate's per-pair ratios,
    every pair's ratio in the detail."""
    return within(f"median {name}", statistics.median(ratios), lo, hi, pairs_detail(ratios))


def ratios(
    rows: Mapping[str, Any], slower: str = "PASE", faster: str = "Faiss", key: str = "series"
) -> list[tuple[str, float]]:
    """Per group of a grouped-series figure: (label, slower / faster)."""
    series = rows[key]
    return [(g, ratio(a, b)) for g, a, b in zip(rows["groups"], series[slower], series[faster])]


def per_group(
    name: str, values: list[tuple[str, float]], lo: float | None = None, hi: float | None = None
) -> list[Verdict]:
    """One :func:`within` verdict per ``(group, value)``."""
    return [within(f"{group} {name}", value, lo, hi) for group, value in values]


def grouped(
    title: str, unit: str = "s", gap_of: tuple[str, str] = ("PASE", "Faiss")
) -> Callable[[Mapping[str, Any]], str]:
    """Render ``rows["groups"]`` x ``rows["series"]`` as the paper's grouped bars."""
    return lambda rows: render_grouped_series(
        title, rows["groups"], rows["series"], unit=unit, gap_of=gap_of
    )


@dataclass(slots=True)
class ExperimentResult:
    """Output of one experiment run."""

    exp_id: str
    title: str
    expected_shape: str
    rendered: str
    data: dict[str, Any] = field(default_factory=dict)
    verdicts: list[Verdict] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = "\n".join(f"  {v}" for v in self.verdicts)
        return (
            f"== {self.exp_id}: {self.title} ==\n"
            f"paper shape: {self.expected_shape}\n\n{self.rendered}\n\n"
            f"shape verdicts:\n{lines}"
        )


@dataclass(frozen=True, slots=True)
class Figure:
    """One paper figure: how it is measured and the shape it must show.

    ``build(scale) -> rows`` measures; ``shape(rows) -> verdicts`` and
    ``render(rows) -> text`` only read the rows.  ``repro-bench -e``
    and ``benchmarks/bench_paper_figures.py`` both call ``build``.
    """

    exp_id: str
    title: str
    paper_shape: str
    build: Callable[[Scale], dict[str, Any]]
    shape: Callable[[dict[str, Any]], list[Verdict]]
    render: Callable[[dict[str, Any]], str]

    def run(self, scale: Scale = DEFAULT) -> ExperimentResult:
        """Build, render and judge this figure at ``scale``."""
        rows = self.build(scale)
        return ExperimentResult(
            self.exp_id, self.title, self.paper_shape, self.render(rows), rows, self.shape(rows)
        )


@functools.lru_cache(maxsize=8)
def bench_dataset(name: str, scale: float | None = None, seed: int = 0) -> Dataset:
    """Load one synthetic dataset at bench scale (memoized: loads are seeded)."""
    return load_dataset(name, scale=scale, seed=seed)


@functools.lru_cache(maxsize=3)
def _built_study(
    name: str, scale: float | None, index_type: str, params: tuple
) -> tuple[ComparativeStudy, BuildComparison]:
    study = ComparativeStudy(bench_dataset(name, scale), index_type, dict(params))
    return study, study.compare_build()


def default_params(dataset: Dataset, index_type: str) -> dict[str, Any]:
    """Table II defaults, rescaled to the dataset's synthetic size.

    - ``clusters``: sqrt(n), the paper's convention for its 10M sets.
    - ``sample_ratio``: large enough that the k-means sample has a few
      rows per centroid (the paper's 0.01 of 1M ~ 10 rows/centroid).
    - ``m``: the paper's per-dataset value (divides the true dim).
    - ``c_pq``: 64 instead of 256 — scaled with the training sample
      the same way the paper's 256 relates to its 10k-row samples.
    """
    clusters = max(int(round(math.sqrt(dataset.n))), 4)
    # Keep the paper's train-vs-add proportions: the paper trains on
    # ~1% of the corpus (10 samples/centroid at its sizes); we keep a
    # few samples per centroid so the adding phase dominates, as in
    # Fig. 3.
    sample_rows = min(max(5 * clusters, 280), dataset.n)
    sample_ratio = min(max(sample_rows / dataset.n, 0.001), 1.0)
    params: dict[str, Any] = {"seed": 42}
    if index_type in ("ivf_flat", "ivf_pq"):
        params["clusters"] = clusters
        params["sample_ratio"] = round(sample_ratio, 4)
    if index_type == "ivf_pq":
        profile = PROFILES.get(dataset.name)
        params["m"] = profile.default_m if profile is not None else 8
        params["c_pq"] = 64
    if index_type == "hnsw":
        params["bnn"] = 16
        params["efb"] = 40
    return params
