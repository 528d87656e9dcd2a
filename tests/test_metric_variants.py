"""End-to-end tests for the inner-product and cosine metrics.

PASE's ``distance_type`` option (0 = L2, 1 = inner product,
2 = cosine — Sec. II-E) must flow from CREATE INDEX through the
planner's operator matching down to the scan kernels, on both engines.
"""

import numpy as np
import pytest

import repro.bridged  # noqa: F401  — registers bridged_hnsw
from repro.common import sq
from repro.common.types import DistanceType
from repro.pase.options import IndexOptionError
from repro.specialized import FlatIndex, HNSWIndex, IVFFlatIndex, IVFPQIndex, IVFSQ8Index


@pytest.fixture()
def ip_db(loaded_db):
    loaded_db.execute(
        "CREATE INDEX ipx ON items USING pase_ivfflat (vec) "
        "WITH (clusters = 8, sample_ratio = 0.5, seed = 1, distance_type = 1)"
    )
    loaded_db.execute("SET pase.nprobe = 8")
    return loaded_db


class TestInnerProductSQL:
    def test_planner_matches_operator_to_metric(self, ip_db, small_dataset, vec_lit):
        lit = vec_lit(small_dataset.queries[0])
        plan = ip_db.explain(
            f"SELECT id FROM items ORDER BY vec <#> '{lit}'::PASE LIMIT 5"
        )
        assert "Index Scan using ipx" in plan
        # The L2 operator must NOT use the IP index.
        plan = ip_db.explain(
            f"SELECT id FROM items ORDER BY vec <-> '{lit}'::PASE LIMIT 5"
        )
        assert "Index Scan" not in plan

    def test_ip_results_match_brute_force(self, ip_db, small_dataset, vec_lit):
        q = small_dataset.queries[0]
        rows = ip_db.query(
            f"SELECT id FROM items ORDER BY vec <#> '{vec_lit(q)}'::PASE LIMIT 5"
        )
        got = [r[0] for r in rows]
        truth = np.argsort(-(small_dataset.base @ q), kind="stable")[:5].tolist()
        # IVF with IP is approximate; the top hit must match and
        # overlap must be strong with all buckets probed.
        assert got[0] == truth[0]
        assert len(set(got) & set(truth)) >= 4

    def test_seqscan_ip_ordering(self, ip_db, small_dataset, vec_lit):
        q = small_dataset.queries[1]
        ip_db.execute("SET enable_indexscan = false")
        rows = ip_db.query(
            f"SELECT id FROM items ORDER BY vec <#> '{vec_lit(q)}'::PASE LIMIT 5"
        )
        truth = np.argsort(-(small_dataset.base @ q), kind="stable")[:5].tolist()
        assert [r[0] for r in rows] == truth


class TestSpecializedMetrics:
    def test_flat_cosine(self, small_dataset):
        index = FlatIndex(small_dataset.dim, distance_type=DistanceType.COSINE)
        index.add(small_dataset.base)
        q = small_dataset.queries[0]
        got = index.search(q, 5).ids
        norms = np.linalg.norm(small_dataset.base, axis=1) * np.linalg.norm(q)
        sims = (small_dataset.base @ q) / norms
        truth = np.argsort(-sims, kind="stable")[:5].tolist()
        assert got == truth

    def test_ivf_inner_product(self, small_dataset):
        index = IVFFlatIndex(
            small_dataset.dim,
            n_clusters=8,
            sample_ratio=0.5,
            seed=1,
            distance_type=DistanceType.INNER_PRODUCT,
        )
        index.train(small_dataset.base)
        index.add(small_dataset.base)
        q = small_dataset.queries[2]
        got = index.search(q, 5, nprobe=8).ids
        truth = np.argsort(-(small_dataset.base @ q), kind="stable")[:5].tolist()
        assert got[0] == truth[0]
        assert len(set(got) & set(truth)) >= 3

    def test_engines_agree_on_ip(self, ip_db, small_dataset, vec_lit):
        """Cross-engine agreement with transplanted centroids + IP."""
        am = ip_db.catalog.find_index("ipx").am
        centroids = np.vstack([c.copy() for __, __, c in am._iter_centroids()])
        spec = IVFFlatIndex(
            small_dataset.dim,
            n_clusters=centroids.shape[0],
            distance_type=DistanceType.INNER_PRODUCT,
        )
        spec.set_centroids(centroids)
        spec.add(small_dataset.base)
        q = small_dataset.queries[3]
        rows = ip_db.query(
            f"SELECT id FROM items ORDER BY vec <#> '{vec_lit(q)}'::PASE LIMIT 5"
        )
        assert [r[0] for r in rows] == spec.search(q, 5, nprobe=8).ids


class TestHNSWIsL2Only:
    """The HNSW graph is built and searched under L2 only, so a non-L2
    ``distance_type`` is refused on both engines — accepting it would
    let the planner serve ``<#>`` / ``<=>`` from an index ranking by L2."""

    @pytest.mark.parametrize("am", ["pase_hnsw", "bridged_hnsw"])
    @pytest.mark.parametrize("metric", [1, 2])
    def test_sql_index_refused(self, loaded_db, small_dataset, vec_lit, am, metric):
        with pytest.raises(IndexOptionError, match="distance_type"):
            loaded_db.execute(
                f"CREATE INDEX hx ON items USING {am} (vec) WITH (distance_type = {metric})"
            )
        assert loaded_db.catalog.find_index("hx") is None
        op = "<#>" if metric == 1 else "<=>"
        plan = loaded_db.explain(
            f"SELECT id FROM items ORDER BY vec {op} '{vec_lit(small_dataset.queries[0])}'::PASE "
            "LIMIT 5"
        )
        assert "Index Scan" not in plan

    @pytest.mark.parametrize("metric", [DistanceType.INNER_PRODUCT, DistanceType.COSINE])
    def test_specialized_index_refused(self, small_dataset, metric):
        with pytest.raises(ValueError, match="only L2"):
            HNSWIndex(small_dataset.dim, distance_type=metric)


class TestQuantizedIVFIsL2Only:
    """PASE's IVF_PQ scores ADC tables of squared L2 terms and its IVF_SQ8
    scores dequantized codes in squared L2, and the specialized IVF_PQ
    does the same, so each refuses a non-L2 ``distance_type`` — accepting
    it would let the planner serve ``<#>`` / ``<=>`` in L2 order."""

    @pytest.mark.parametrize("am", ["pase_ivfpq", "pase_ivfsq8"])
    @pytest.mark.parametrize("metric", [1, 2])
    def test_sql_index_refused(self, loaded_db, small_dataset, vec_lit, am, metric):
        codec = ", m = 4, c_pq = 16" if am == "pase_ivfpq" else ""
        with pytest.raises(IndexOptionError, match="distance_type"):
            loaded_db.execute(
                f"CREATE INDEX qx ON items USING {am} (vec) "
                f"WITH (clusters = 4{codec}, distance_type = {metric})"
            )
        assert loaded_db.catalog.find_index("qx") is None
        op = "<#>" if metric == 1 else "<=>"
        plan = loaded_db.explain(
            f"SELECT id FROM items ORDER BY vec {op} '{vec_lit(small_dataset.queries[0])}'::PASE "
            "LIMIT 5"
        )
        assert "Index Scan" not in plan

    @pytest.mark.parametrize("metric", [DistanceType.INNER_PRODUCT, DistanceType.COSINE])
    def test_specialized_pq_refused(self, small_dataset, metric):
        with pytest.raises(ValueError, match="only L2"):
            IVFPQIndex(small_dataset.dim, n_clusters=4, m=4, distance_type=metric)

    @pytest.mark.parametrize("metric", [DistanceType.INNER_PRODUCT, DistanceType.COSINE])
    def test_specialized_sq8_scores_other_metrics(self, small_dataset, metric):
        """The specialized IVF_SQ8 decodes before its batched kernel, so
        it keeps every metric: with every list probed it is the brute
        force over the decoded vectors."""
        index = IVFSQ8Index(
            small_dataset.dim, n_clusters=4, sample_ratio=0.5, seed=1, distance_type=metric
        )
        index.train(small_dataset.base)
        index.add(small_dataset.base)
        exact = FlatIndex(small_dataset.dim, distance_type=metric)
        exact.add(sq.decode(index.codec, sq.encode(index.codec, small_dataset.base)))
        q = small_dataset.queries[0]
        assert index.search(q, 5, nprobe=4).ids == exact.search(q, 5).ids
