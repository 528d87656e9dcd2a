"""Edge-case tests across modules (failure paths and boundaries)."""

import numpy as np
import pytest

from repro.common.datasets import tiny_dataset
from repro.common.graph import HNSWParams
from repro.common.heap import BoundedMaxHeap
from repro.common.profiling import Profiler
from repro.pgsim import PgSimDatabase
from repro.pgsim.page import Page, PageCorruptError, PageFullError
from repro.pgsim.sql.lexer import SqlSyntaxError
from repro.pgsim.wal import REC_CHECKPOINT, WriteAheadLog, replay
from repro.pgsim.storage import MemoryDisk
from repro.specialized import HNSWIndex, IVFFlatIndex


class TestSqlEdgeCases:
    def test_empty_sql_rejected(self, fresh_db):
        with pytest.raises(ValueError):
            fresh_db.execute("   ")

    def test_semicolons_only(self, fresh_db):
        with pytest.raises(ValueError):
            fresh_db.execute(";;;")

    def test_missing_semicolon_between_statements(self, fresh_db):
        with pytest.raises(SqlSyntaxError):
            fresh_db.execute("SELECT 1 SELECT 2")

    def test_insert_into_missing_table(self, fresh_db):
        from repro.pgsim.catalog import CatalogError

        with pytest.raises(CatalogError):
            fresh_db.execute("INSERT INTO ghost VALUES (1)")

    def test_select_unknown_column(self, fresh_db):
        from repro.pgsim.expr import ExpressionError

        fresh_db.execute("CREATE TABLE t (id int)")
        fresh_db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ExpressionError):
            fresh_db.execute("SELECT nope FROM t")

    def test_quoted_identifier(self, fresh_db):
        fresh_db.execute('CREATE TABLE "weird" (id int)')
        fresh_db.execute("INSERT INTO weird VALUES (3)")
        assert fresh_db.query("SELECT id FROM weird") == [(3,)]

    def test_null_handling_in_where(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int, name text)")
        fresh_db.execute("INSERT INTO t VALUES (1, NULL), (2, 'x')")
        rows = fresh_db.query("SELECT id FROM t WHERE name = 'x'")
        assert rows == [(2,)]

    #: WHERE keeps a row only when the predicate is TRUE; rows 2 and 4
    #: have ``a`` NULL, so every comparison on ``a`` is NULL for them.
    NULL_WHERE = [
        ("a < 10", [1, 3]),
        ("a <> 5", [3, 5]),
        ("NOT (a < 10)", [5]),
        ("a < 10 OR id = 2", [1, 2, 3]),
        ("a < 10 AND id < 4", [1, 3]),
        ("NOT (a < 10 AND id = 4)", [1, 2, 3, 5]),
        ("NOT (a < 10 OR id = 4)", [5]),
        ("a + 1 > 0", [1, 3, 5]),
        ("abs(a) >= 0", [1, 3, 5]),
        ("a = NULL OR a <> NULL", []),
    ]

    @staticmethod
    def _null_table(db):
        db.execute("CREATE TABLE t (id int, a int, note text)")
        db.execute(
            "INSERT INTO t VALUES (1, 5, 'x'), (2, NULL, 'y'), (3, 7, NULL), "
            "(4, NULL, NULL), (5, 20, 'z')"
        )

    @pytest.mark.parametrize("batch", ["off", "on"])
    @pytest.mark.parametrize("where,expected", NULL_WHERE)
    def test_null_comparisons_in_select(self, fresh_db, batch, where, expected):
        self._null_table(fresh_db)
        fresh_db.execute(f"SET enable_batch_exec = {batch}")
        assert fresh_db.query(f"SELECT id FROM t WHERE {where}") == [(i,) for i in expected]

    @pytest.mark.parametrize("where,expected", NULL_WHERE)
    def test_null_comparisons_in_delete(self, fresh_db, where, expected):
        self._null_table(fresh_db)
        assert fresh_db.execute(f"DELETE FROM t WHERE {where}").command == f"DELETE {len(expected)}"
        survivors = [(i,) for i in range(1, 6) if i not in expected]
        assert fresh_db.query("SELECT id FROM t") == survivors

    @pytest.mark.parametrize("where,expected", NULL_WHERE)
    def test_null_comparisons_in_update(self, fresh_db, where, expected):
        self._null_table(fresh_db)
        tag = fresh_db.execute(f"UPDATE t SET note = 'hit' WHERE {where}").command
        assert tag == f"UPDATE {len(expected)}"
        rows = fresh_db.query("SELECT id FROM t WHERE note = 'hit'")
        assert sorted(rows) == [(i,) for i in expected]

    def test_null_arithmetic_and_logic(self):
        from repro.pgsim.expr import evaluate
        from repro.pgsim.sql.parser import parse_sql

        def value(text, row):
            return evaluate(parse_sql(f"SELECT {text}")[0].targets[0].expr, row)

        row = {"a": None, "b": 3}
        assert value("a < b", row) is None
        assert value("a - b", row) is None
        assert value("-a", row) is None
        assert value("NOT a = b", row) is None
        assert value("a = b AND b = 4", row) is False
        assert value("a = b OR b = 3", row) is True
        assert value("a = b OR b = 4", row) is None
        assert value("a::float", row) is None

    def test_vector_dim_mismatch_in_query(self, loaded_db, small_dataset):
        loaded_db.execute(
            "CREATE INDEX ix ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 4, sample_ratio = 0.5, seed = 1)"
        )
        with pytest.raises(ValueError):
            loaded_db.query(
                "SELECT id FROM items ORDER BY vec <-> '1.0,2.0'::PASE LIMIT 3"
            )

    def test_limit_zero(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int)")
        fresh_db.execute("INSERT INTO t VALUES (1)")
        assert fresh_db.query("SELECT id FROM t LIMIT 0") == []


class TestWalEdgeCases:
    def test_checkpoint_record_ignored_by_replay(self):
        wal = WriteAheadLog()
        wal.log_checkpoint()
        wal.flush()
        disk = MemoryDisk()
        assert replay(wal, disk) == 0
        assert wal.records()[0].rec_type == REC_CHECKPOINT

    def test_replay_empty_wal(self):
        assert replay(WriteAheadLog(), MemoryDisk()) == 0

    def test_len(self):
        wal = WriteAheadLog()
        wal.log_insert(1, "r", 0, b"x")
        assert len(wal) == 1


class TestIndexEdgeCases:
    def test_single_vector_corpus(self):
        index = HNSWIndex(4, bnn=2, efb=4, seed=1)
        index.add(np.ones((1, 4), dtype=np.float32))
        result = index.search(np.ones(4, dtype=np.float32), 1)
        assert result.ids == [0]

    def test_clusters_capped_at_corpus_size(self, loaded_db):
        # 600 rows, 10000 clusters requested: the AM caps at n.
        loaded_db.execute(
            "CREATE INDEX big ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 10000, sample_ratio = 1.0, seed = 1)"
        )
        am = loaded_db.catalog.find_index("big").am
        count = sum(1 for __ in am._iter_centroids())
        assert count <= 600

    def test_ivf_k_larger_than_bucket_contents(self, small_dataset):
        index = IVFFlatIndex(small_dataset.dim, n_clusters=50, sample_ratio=0.5, seed=1)
        index.train(small_dataset.base)
        index.add(small_dataset.base)
        result = index.search(small_dataset.queries[0], 500, nprobe=1)
        assert 0 < len(result.neighbors) <= 500

    def test_duplicate_vectors_all_retrievable(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(10):
            fresh_db.execute(f"INSERT INTO t VALUES ({i}, '1.0,1.0'::PASE)")
        fresh_db.execute(
            "CREATE INDEX dup ON t USING pase_ivfflat (vec) "
            "WITH (clusters = 2, sample_ratio = 1.0, seed = 1)"
        )
        fresh_db.execute("SET pase.nprobe = 2")
        rows = fresh_db.query(
            "SELECT id FROM t ORDER BY vec <-> '1.0,1.0'::PASE LIMIT 10"
        )
        assert sorted(r[0] for r in rows) == list(range(10))

    def test_hnsw_params_validation(self):
        with pytest.raises(ValueError):
            HNSWParams(bnn=1)

    def test_empty_table_index_rejected(self, fresh_db):
        fresh_db.execute("CREATE TABLE empty (id int, vec float[])")
        with pytest.raises(RuntimeError):
            fresh_db.execute("CREATE INDEX e ON empty USING pase_ivfflat (vec)")


class TestPageEdgeCases:
    def test_minimum_page_size(self):
        page = Page.init(256)
        off = page.insert_item(b"x" * 100)
        assert page.get_item(off) == b"x" * 100
        with pytest.raises(PageFullError):
            page.insert_item(b"y" * 300)

    def test_exactly_fitting_item(self):
        page = Page.init(256)
        item = b"z" * page.free_space
        page.insert_item(item)
        assert page.free_space == 0

    def test_forged_tuple_area_raises_page_corrupt(self, loaded_db, small_dataset):
        """An IVF data page and an HNSW neighbour page whose tuple area
        is not exactly their items fail the readers' layout checks with
        ``PageCorruptError`` (a real check, not an ``assert`` that
        ``python -O`` strips) and leave nothing pinned."""
        db, query = loaded_db, small_dataset.queries[0]
        db.execute(
            "CREATE INDEX ix ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 4, sample_ratio = 1.0, seed = 1)"
        )
        db.execute(
            "CREATE INDEX hx ON items USING pase_hnsw (vec) WITH (bnn = 8, efb = 24, seed = 4)"
        )
        db.execute("SET pase.nprobe = 4")
        ivf, hnsw = db.catalog.find_index("ix").am, db.catalog.find_index("hx").am
        assert len(ivf.get_batch(query, 5)) == len(list(hnsw.scan(query, 5))) == 5

        store = hnsw.store
        entry = store._nodes[store.entry_point]
        for rel, blkno in (
            (ivf.relation_name("data"), 0),
            (store.neighbor_rel, entry.neighbor_heads[store.max_level]),
        ):
            with db.buffer.page(rel, blkno, dirty=True) as page:
                page.upper -= 4
        with pytest.raises(PageCorruptError, match="not packed"):
            ivf.get_batch(query, 5)
        with pytest.raises(PageCorruptError, match="not packed"):
            list(hnsw.scan(query, 5))
        assert db.buffer.pinned_pages() == 0

    def test_refill_overflow_raises_page_corrupt(self, loaded_db):
        """More survivors than a bucket chain holds is a corrupt chain:
        ``_refill_chain`` raises ``PageCorruptError`` (not an ``assert``
        that ``python -O`` strips) and leaves nothing pinned."""
        db = loaded_db
        db.execute(
            "CREATE INDEX ix ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 4, sample_ratio = 1.0, seed = 1)"
        )
        am = db.catalog.find_index("ix").am
        rel = am.relation_name("data")
        __, head, __ = next(am._iter_centroids())
        data = am.layouts["data"]
        per_page = db.disk.page_size // data.item_size
        survivors = np.zeros((db.disk.n_blocks(rel) + 1) * per_page, data.record)
        with pytest.raises(PageCorruptError, match="exceed"):
            am._refill_chain(rel, head, survivors)
        assert db.buffer.pinned_pages() == 0


class TestProfilerEdgeCases:
    def test_deep_nesting(self):
        prof = Profiler(max_spans=10)
        with prof.section("a"):
            with prof.section("b"):
                with prof.section("c"):
                    with prof.section("b"):  # repeated name at depth
                        pass
        assert [s.name for s in prof.spans].count("b") == 2
        assert prof.inclusive_seconds("a") >= prof.inclusive_seconds("c")

    def test_breakdown_within_missing_name(self):
        prof = Profiler()
        with prof.section("x"):
            pass
        assert prof.breakdown(within="ghost") == []


class TestHeapEdgeCases:
    def test_inf_distance(self):
        heap = BoundedMaxHeap(2)
        heap.push(float("inf"), 0)
        heap.push(1.0, 1)
        heap.push(2.0, 2)
        assert [n.vector_id for n in heap.results()] == [1, 2]

    def test_negative_distances(self):
        # Inner-product "distances" are negative; ordering must hold.
        heap = BoundedMaxHeap(2)
        for i, d in enumerate([-1.0, -5.0, -3.0]):
            heap.push(d, i)
        assert [n.vector_id for n in heap.results()] == [1, 2]
