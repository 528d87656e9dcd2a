"""Index WITH-option parsing for the PASE access methods.

The paper's CREATE INDEX example configures IVF_FLAT with a
``clustering_params`` string whose first number is the sampling ratio
in thousandths ("The parameter 10 means that the sampling ratio is
10/1000") and whose second is the cluster count, plus a
``distance_type`` integer (0 = Euclidean).  Both that compact style
and explicit named options are accepted::

    WITH (clustering_params = '10,256', distance_type = 0)
    WITH (clusters = 256, sample_ratio = 0.01, distance_type = 0)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.common.types import DistanceType


class IndexOptionError(ValueError):
    """Raised for malformed or out-of-range index options."""


@dataclass(frozen=True, slots=True)
class IVFOptions:
    """Options shared by IVF_FLAT and IVF_PQ."""

    clusters: int = 256
    sample_ratio: float = 0.01
    distance_type: DistanceType = DistanceType.L2
    kmeans_iterations: int = 10
    seed: int | None = None


@dataclass(frozen=True, slots=True)
class IVFPQOptions:
    """IVF_PQ adds product-quantization parameters (paper's m, c_pq)."""

    ivf: IVFOptions
    m: int = 16
    c_pq: int = 256


@dataclass(frozen=True, slots=True)
class HNSWOptions:
    """HNSW construction parameters (paper's bnn, efb)."""

    bnn: int = 16
    efb: int = 40
    seed: int | None = None


def _positive_int(options: Mapping[str, Any], key: str, default: int) -> int:
    value = options.get(key, default)
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise IndexOptionError(f"option {key!r} must be an integer, got {value!r}") from None
    if value <= 0:
        raise IndexOptionError(f"option {key!r} must be positive, got {value}")
    return value


def _distance_type(options: Mapping[str, Any]) -> DistanceType:
    raw = options.get("distance_type", 0)
    try:
        return DistanceType(int(raw))
    except (TypeError, ValueError):
        raise IndexOptionError(
            f"distance_type must be 0 (L2), 1 (inner product) or 2 (cosine), got {raw!r}"
        ) from None


def _seed(options: Mapping[str, Any]) -> int | None:
    raw = options.get("seed")
    return None if raw is None else int(raw)


def parse_ivf_options(options: Mapping[str, Any]) -> IVFOptions:
    """Parse IVF_FLAT options (both PASE-style and named styles)."""
    clusters = 256
    sample_ratio = 0.01
    if "clustering_params" in options:
        parts = str(options["clustering_params"]).split(",")
        if len(parts) != 2:
            raise IndexOptionError(
                f"clustering_params must be 'sr_thousandths,clusters', "
                f"got {options['clustering_params']!r}"
            )
        try:
            sample_ratio = int(parts[0]) / 1000.0
            clusters = int(parts[1])
        except ValueError:
            raise IndexOptionError(
                f"bad clustering_params: {options['clustering_params']!r}"
            ) from None
    clusters = _positive_int(options, "clusters", clusters)
    if "sample_ratio" in options:
        sample_ratio = float(options["sample_ratio"])
    if not 0.0 < sample_ratio <= 1.0:
        raise IndexOptionError(f"sample ratio must be in (0, 1], got {sample_ratio}")
    return IVFOptions(
        clusters=clusters,
        sample_ratio=sample_ratio,
        distance_type=_distance_type(options),
        kmeans_iterations=_positive_int(options, "kmeans_iterations", 10),
        seed=_seed(options),
    )


def require_l2(options: Mapping[str, Any], method: str) -> None:
    """Refuse a non-L2 ``distance_type`` for an index that ranks and
    scores in L2 only, rather than accept it and then serve the
    ``<#>`` / ``<=>`` operators in L2 order."""
    if _distance_type(options) != DistanceType.L2:
        raise IndexOptionError(
            f"{method} supports only distance_type = 0 (L2), got {options['distance_type']!r}"
        )


def parse_ivfpq_options(options: Mapping[str, Any]) -> IVFPQOptions:
    """Parse IVF_PQ options (IVF options plus m and c_pq); L2 only, as
    the ADC tables hold squared L2 terms."""
    require_l2(options, "IVF_PQ")
    ivf = parse_ivf_options(options)
    m = _positive_int(options, "m", 16)
    c_pq = _positive_int(options, "c_pq", 256)
    if c_pq > 256:
        raise IndexOptionError(f"c_pq must fit a uint8 code (<= 256), got {c_pq}")
    return IVFPQOptions(ivf=ivf, m=m, c_pq=c_pq)


def parse_hnsw_options(options: Mapping[str, Any]) -> HNSWOptions:
    """Parse HNSW options (paper defaults: bnn=16, efb=40); L2 only, as
    the graph is built and searched under L2."""
    require_l2(options, "HNSW")
    return HNSWOptions(
        bnn=_positive_int(options, "bnn", 16),
        efb=_positive_int(options, "efb", 40),
        seed=_seed(options),
    )
