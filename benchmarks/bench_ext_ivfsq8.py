"""Beyond the paper's evaluation: IVF_SQ8 (named in its Sec. II-B).

The paper's index taxonomy lists IVF_SQ8 among the quantization
indexes but does not benchmark it.  This bench completes the family:
the same engine comparison on scalar quantization, expecting IVF_FLAT-
like gaps (sequential access pattern) with 4x smaller code payloads.
"""

import pytest

from repro.bench import SMOKE
from repro.core.study import ComparativeStudy

IVF_PARAMS = dict(SMOKE.params["ivf_flat"])
K, NPROBE, N_QUERIES = SMOKE.search.k, SMOKE.search.nprobe, SMOKE.search.n_queries


@pytest.fixture(scope="module")
def sq8_study(sift):
    study = ComparativeStudy(sift, "ivf_sq8", dict(IVF_PARAMS))
    study.compare_build()
    return study


def test_sq8_shape_gap_like_flat(sq8_study):
    cmp = sq8_study.compare_search(k=K, nprobe=NPROBE, n_queries=N_QUERIES, recall=True)
    assert cmp.gap > 1.5
    # Recall at partial probing is set by nprobe, not by quantization
    # loss — and it matches across engines (modulo RC#5 centroids).
    assert cmp.generalized_recall > 0.6
    assert abs(cmp.generalized_recall - cmp.specialized_recall) < 0.2


def test_sq8_shape_codes_quarter_size(sq8_study):
    spec_info = sq8_study.specialized.index_size()
    assert spec_info.detail["codes"] * 4 == sq8_study.dataset.n * sq8_study.dataset.dim * 4
