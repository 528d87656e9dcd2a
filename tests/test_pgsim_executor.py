"""End-to-end SQL tests against PgSimDatabase (the pgsim surface)."""

import numpy as np
import pytest

from repro.pgsim import PgSimDatabase
from repro.pgsim.catalog import CatalogError
from repro.pgsim.executor import ExecutionError


class TestDDL:
    def test_create_drop_table(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int, name text)")
        assert fresh_db.catalog.has_table("t")
        fresh_db.execute("DROP TABLE t")
        assert not fresh_db.catalog.has_table("t")

    def test_duplicate_table_rejected(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int)")
        with pytest.raises(CatalogError):
            fresh_db.execute("CREATE TABLE t (id int)")
        fresh_db.execute("CREATE TABLE IF NOT EXISTS t (id int)")  # no error

    def test_drop_missing_table(self, fresh_db):
        with pytest.raises(CatalogError):
            fresh_db.execute("DROP TABLE ghost")
        fresh_db.execute("DROP TABLE IF EXISTS ghost")  # no error

    def test_duplicate_columns_rejected(self, fresh_db):
        with pytest.raises(CatalogError):
            fresh_db.execute("CREATE TABLE t (a int, a int)")

    def test_index_requires_vector_column(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int, vec float[])")
        fresh_db.execute("INSERT INTO t VALUES (1, '1,2'::PASE)")
        with pytest.raises(ExecutionError):
            fresh_db.execute("CREATE INDEX ix ON t USING pase_ivfflat (id)")

    def test_unknown_am_rejected(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int, vec float[])")
        with pytest.raises(KeyError):
            fresh_db.execute("CREATE INDEX ix ON t USING btree_gin (vec)")

    def test_drop_index_frees_storage(self, loaded_db):
        loaded_db.execute(
            "CREATE INDEX ix ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 8, sample_ratio = 0.5, seed = 1)"
        )
        assert loaded_db.disk.relation_exists("ix.centroid")
        loaded_db.execute("DROP INDEX ix")
        assert not loaded_db.disk.relation_exists("ix.centroid")
        assert loaded_db.catalog.find_index("ix") is None


class TestInsertSelect:
    def test_insert_and_select_star(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int, name text)")
        fresh_db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        result = fresh_db.execute("SELECT * FROM t")
        assert result.columns == ["id", "name"]
        assert result.rows == [(1, "a"), (2, "b")]

    def test_insert_column_subset(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int, name text, score float)")
        fresh_db.execute("INSERT INTO t (name, id) VALUES ('x', 3)")
        assert fresh_db.query("SELECT id, name, score FROM t") == [(3, "x", None)]

    def test_insert_arity_checked(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int, name text)")
        with pytest.raises(ExecutionError):
            fresh_db.execute("INSERT INTO t VALUES (1)")

    def test_where_filter(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int)")
        fresh_db.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
        assert fresh_db.query("SELECT id FROM t WHERE id > 2") == [(3,), (4,)]

    def test_order_by_and_limit(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int)")
        fresh_db.execute("INSERT INTO t VALUES (3), (1), (2)")
        assert fresh_db.query("SELECT id FROM t ORDER BY id DESC LIMIT 2") == [(3,), (2,)]

    def test_aggregates(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int)")
        fresh_db.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert fresh_db.execute("SELECT count(*) FROM t").scalar() == 3
        assert fresh_db.execute("SELECT sum(id) FROM t").scalar() == 6
        assert fresh_db.execute("SELECT min(id) FROM t").scalar() == 1
        assert fresh_db.execute("SELECT max(id) FROM t").scalar() == 3
        assert fresh_db.execute("SELECT avg(id) FROM t").scalar() == 2.0

    def test_aggregate_with_filter(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int)")
        fresh_db.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert fresh_db.execute("SELECT count(*) FROM t WHERE id >= 2").scalar() == 2

    def test_expression_targets(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int)")
        fresh_db.execute("INSERT INTO t VALUES (4)")
        assert fresh_db.query("SELECT id * 2 + 1 FROM t") == [(9,)]

    def test_select_without_table(self, fresh_db):
        assert fresh_db.query("SELECT 1 + 1") == [(2,)]

    def test_vector_roundtrip(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (vec float[])")
        fresh_db.execute("INSERT INTO t VALUES ('0.5,1.5,2.5'::PASE)")
        (vec,) = fresh_db.query("SELECT vec FROM t")[0]
        np.testing.assert_array_equal(vec, np.array([0.5, 1.5, 2.5], dtype=np.float32))

    def test_vacuum_statement(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int)")
        fresh_db.execute("INSERT INTO t VALUES (1)")
        result = fresh_db.execute("VACUUM t")
        assert result.command.startswith("VACUUM")


class TestSettings:
    def test_set_show(self, fresh_db):
        fresh_db.execute("SET pase.nprobe = 33")
        assert fresh_db.execute("SHOW pase.nprobe").scalar() == 33

    def test_unknown_setting(self, fresh_db):
        with pytest.raises(CatalogError):
            fresh_db.execute("SHOW pase.bogus")

    def test_boolean_setting(self, fresh_db):
        fresh_db.execute("SET pase.fixed_heap = true")
        assert fresh_db.execute("SHOW pase.fixed_heap").scalar() is True


class TestVectorSearchSQL:
    @pytest.fixture()
    def indexed_db(self, loaded_db):
        loaded_db.execute(
            "CREATE INDEX ix ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 12, sample_ratio = 0.5, seed = 1)"
        )
        loaded_db.execute("SET pase.nprobe = 12")
        return loaded_db

    def test_index_scan_matches_ground_truth(self, indexed_db, small_dataset, vec_lit):
        gt = small_dataset.ground_truth(5)
        for qi in range(3):
            rows = indexed_db.query(
                f"SELECT id FROM items ORDER BY vec <-> '{vec_lit(small_dataset.queries[qi])}'::PASE LIMIT 5"
            )
            assert [r[0] for r in rows] == gt[qi].tolist()

    def test_planner_uses_index(self, indexed_db, small_dataset, vec_lit):
        plan = indexed_db.explain(
            f"SELECT id FROM items ORDER BY vec <-> '{vec_lit(small_dataset.queries[0])}'::PASE LIMIT 3"
        )
        assert "Index Scan using ix" in plan

    def test_seqscan_when_disabled(self, indexed_db, small_dataset, vec_lit):
        indexed_db.execute("SET enable_indexscan = false")
        plan = indexed_db.explain(
            f"SELECT id FROM items ORDER BY vec <-> '{vec_lit(small_dataset.queries[0])}'::PASE LIMIT 3"
        )
        assert "Seq Scan" in plan

    def test_seqscan_and_indexscan_agree(self, indexed_db, small_dataset, vec_lit):
        lit = vec_lit(small_dataset.queries[1])
        sql = f"SELECT id FROM items ORDER BY vec <-> '{lit}'::PASE LIMIT 7"
        fast = indexed_db.query(sql)
        indexed_db.execute("SET enable_indexscan = false")
        slow = indexed_db.query(sql)
        assert fast == slow

    def test_no_index_without_limit(self, indexed_db, small_dataset, vec_lit):
        plan = indexed_db.explain(
            f"SELECT id FROM items ORDER BY vec <-> '{vec_lit(small_dataset.queries[0])}'::PASE"
        )
        assert "Index Scan" not in plan

    def test_desc_order_not_index_assisted(self, indexed_db, small_dataset, vec_lit):
        plan = indexed_db.explain(
            f"SELECT id FROM items ORDER BY vec <-> '{vec_lit(small_dataset.queries[0])}'::PASE DESC LIMIT 3"
        )
        assert "Index Scan" not in plan

    def test_distance_selectable(self, indexed_db, small_dataset, vec_lit):
        lit = vec_lit(small_dataset.queries[0])
        rows = indexed_db.query(
            f"SELECT id, vec <-> '{lit}'::PASE AS dist FROM items "
            f"ORDER BY vec <-> '{lit}'::PASE LIMIT 4"
        )
        dists = [r[1] for r in rows]
        assert dists == sorted(dists)

    def test_where_filter_on_index_scan(self, indexed_db, small_dataset, vec_lit):
        lit = vec_lit(small_dataset.queries[0])
        rows = indexed_db.query(
            f"SELECT id FROM items WHERE id < 100 "
            f"ORDER BY vec <-> '{lit}'::PASE LIMIT 50"
        )
        assert all(r[0] < 100 for r in rows)

    def test_insert_after_index_found_by_search(self, indexed_db, small_dataset, vec_lit):
        probe = small_dataset.base[0] + 50.0
        indexed_db.execute(f"INSERT INTO items VALUES (9999, '{vec_lit(probe)}'::PASE)")
        rows = indexed_db.query(
            f"SELECT id FROM items ORDER BY vec <-> '{vec_lit(probe)}'::PASE LIMIT 1"
        )
        assert rows == [(9999,)]


class TestPersistence:
    def test_file_backed_database(self, tmp_path, small_dataset, vec_lit):
        db = PgSimDatabase(data_dir=tmp_path, buffer_pool_pages=256)
        db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(20):
            db.execute(f"INSERT INTO t VALUES ({i}, '{vec_lit(small_dataset.base[i])}'::PASE)")
        db.checkpoint()
        assert (tmp_path / "t.heap.rel").exists()
        assert db.execute("SELECT count(*) FROM t").scalar() == 20


class TestAccessInterface:
    """``enable_batch_exec`` is the paper's RC#3 toggle: it must change
    which AM/heap interface the plan's leaves call, and nothing else.
    Pinned at the SQL level so tuple mode cannot silently become the
    batch path, sliced."""

    TUPLE_CALLS = {"scan", "amrescan_continue", "amsearch_filtered", "heap.fetch", "heap.scan"}
    BATCH_CALLS = {
        "get_batch",
        "amrescan_continue_batch",
        "amsearch_filtered_batch",
        "heap.fetch_many",
        "heap.scan_batches",
    }
    K = 5

    @pytest.fixture()
    def counted(self, loaded_db, small_dataset):
        """(db, calls): one AM instance and its heap behind counting wrappers."""
        from collections import Counter

        loaded_db.execute(
            "CREATE INDEX ix ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 12, sample_ratio = 0.5, seed = 1)"
        )
        loaded_db.execute("SET pase.nprobe = 12")
        # Dead index entries inside the query's top-K candidate prefix.
        nearest = small_dataset.ground_truth(self.K)[0]
        for row_id in (nearest[1], nearest[3]):
            loaded_db.execute(f"DELETE FROM items WHERE id = {int(row_id)}")
        table = loaded_db.catalog.table("items")
        calls = Counter()

        def count(obj, name, label):
            original = getattr(obj, name)

            def wrapper(*args, **kwargs):
                calls[label] += 1
                return original(*args, **kwargs)

            setattr(obj, name, wrapper)

        for label in self.TUPLE_CALLS | self.BATCH_CALLS:
            obj, name = (table.heap, label[5:]) if label.startswith("heap.") else (
                table.indexes["ix"].am,
                label,
            )
            count(obj, name, label)
        return loaded_db, calls

    def _sql(self, small_dataset, vec_lit, where=""):
        lit = vec_lit(small_dataset.queries[0])
        return f"SELECT id FROM items {where} ORDER BY vec <-> '{lit}'::PASE LIMIT {self.K}"

    def _examined_before_kth(self, db, small_dataset, keep):
        """Candidates the scan must look at until K rows survive."""
        table = db.catalog.table("items")
        survivors = 0
        for examined, (tid, __) in enumerate(
            table.indexes["ix"].am.scan(small_dataset.queries[0], 600), start=1
        ):
            try:
                row_id = table.heap.fetch(tid)[0]
            except KeyError:
                continue  # deleted above
            survivors += keep(row_id)
            if survivors == self.K:
                return examined
        raise AssertionError("fewer than K survivors")

    def _run(self, db, calls, sql, batch):
        db.execute(f"SET enable_batch_exec = {'on' if batch else 'off'}")
        calls.clear()
        rows = db.query(sql)
        used = {label for label, n in calls.items() if n}
        return rows, used

    def test_knn_tuple_mode_is_lazy_amgettuple(self, counted, small_dataset, vec_lit):
        db, calls = counted
        expected = self._examined_before_kth(db, small_dataset, keep=lambda i: True)
        assert expected > self.K  # the dead entries are in the way
        rows, used = self._run(db, calls, self._sql(small_dataset, vec_lit), batch=False)
        assert len(rows) == self.K
        # k candidates were not enough (two are dead), so the scan
        # continued — and did not fetch the first pass's TIDs again.
        assert used == {"scan", "amrescan_continue", "heap.fetch"}
        assert calls["heap.fetch"] == expected

    def test_post_filter_tuple_mode_is_lazy_amgettuple(self, counted, small_dataset, vec_lit):
        db, calls = counted
        db.execute("SET filtered_search_strategy = 'post-filter'")
        sql = self._sql(small_dataset, vec_lit, "WHERE id < 400")
        fetch_k = int(db.explain(sql).split("fetch_k=")[1].split()[0])
        expected = self._examined_before_kth(db, small_dataset, keep=lambda i: i < 400)
        assert expected < fetch_k  # lazy: stops at the k-th survivor, not at fetch_k
        rows, used = self._run(db, calls, sql, batch=False)
        assert len(rows) == self.K
        assert used == {"scan", "heap.fetch"}
        assert calls["heap.fetch"] == expected

    def test_in_filter_tuple_mode(self, counted, small_dataset, vec_lit):
        db, calls = counted
        db.execute("SET filtered_search_strategy = 'in-filter'")
        sql = self._sql(small_dataset, vec_lit, "WHERE id < 400")
        rows, used = self._run(db, calls, sql, batch=False)
        assert len(rows) == self.K
        assert used == {"amsearch_filtered", "heap.fetch"}

    def test_seq_scan_tuple_mode(self, counted):
        db, calls = counted
        __, used = self._run(db, calls, "SELECT id FROM items WHERE id < 5", batch=False)
        assert used == {"heap.scan"}

    def test_batch_mode_uses_only_the_batch_interface(self, counted, small_dataset, vec_lit):
        db, calls = counted
        tuple_rows, __ = self._run(db, calls, self._sql(small_dataset, vec_lit), batch=False)
        rows, used = self._run(db, calls, self._sql(small_dataset, vec_lit), batch=True)
        assert rows == tuple_rows
        assert used == {"get_batch", "amrescan_continue_batch", "heap.fetch_many"}
        # One block-grouped heap fetch per pass, not per candidate.
        assert calls["heap.fetch_many"] == calls["get_batch"] + calls["amrescan_continue_batch"]

        db.execute("SET filtered_search_strategy = 'post-filter'")
        hybrid = self._sql(small_dataset, vec_lit, "WHERE id < 400")
        __, used = self._run(db, calls, hybrid, batch=True)
        assert used == {"get_batch", "heap.fetch_many"}

        # In-filter: the AM call is the batched one.  The predicate
        # mask it calls back mid-traversal reads the unseen TIDs of each
        # call with one block-grouped heap.fetch_many, and the winners
        # are materialised with one more.
        db.execute("SET filtered_search_strategy = 'in-filter'")
        __, used = self._run(db, calls, hybrid, batch=True)
        assert used == {"amsearch_filtered_batch", "heap.fetch_many"}
        assert calls["heap.fetch"] == 0

        __, used = self._run(db, calls, "SELECT id FROM items WHERE id < 5", batch=True)
        assert used == {"heap.scan_batches"}

    def test_in_filter_batch_mask_pins_each_block_once(self, counted, small_dataset, vec_lit):
        db, calls = counted
        db.execute("SET filtered_search_strategy = 'in-filter'")
        am = db.catalog.table("items").indexes["ix"].am
        stats = db.buffer.stats
        per_call: list[tuple[int, int]] = []
        search = am.amsearch_filtered_batch

        def spy(query, k, mask_fn):
            def measured(tids):
                before = stats.hits + stats.misses
                verdicts = mask_fn(tids)
                pins = stats.hits + stats.misses - before
                per_call.append((pins, len({tid.blkno for tid in tids})))
                return verdicts
            return search(query, k, measured)

        am.amsearch_filtered_batch = spy
        sql = self._sql(small_dataset, vec_lit, "WHERE id < 400")
        rows, __ = self._run(db, calls, sql, batch=True)
        assert len(rows) == self.K
        assert any(pins for pins, __ in per_call)
        assert all(pins <= blocks for pins, blocks in per_call)

    def test_in_filter_batch_rereads_only_the_winners(self, counted, small_dataset, vec_lit):
        """``tuples_fetched`` counts heap reads.  Both masks read every
        examined TID once; the batch mask reads only the predicate's
        columns, so the K winners are read again, whole — K more reads
        than the tuple mask, which keeps the rows it read."""
        db, calls = counted
        db.execute("SET filtered_search_strategy = 'in-filter'")
        stats = db.catalog.table("items").heap.stats
        sql = self._sql(small_dataset, vec_lit, "WHERE id < 400")
        fetched = {}
        for batch in (False, True):
            before = stats.tuples_fetched
            rows, __ = self._run(db, calls, sql, batch)
            assert len(rows) == self.K
            fetched[batch] = stats.tuples_fetched - before
        assert fetched[True] == fetched[False] + self.K

    @pytest.mark.parametrize("batch", [False, True])
    def test_dml_target_scan_pins_each_heap_page_once(self, counted, batch):
        """UPDATE / DELETE ... WHERE find their targets with one projected
        page-at-a-time scan under either GUC value: every heap page is
        pinned once, and neither per-tuple heap call is made.  The scan
        reads every visible row once; UPDATE then reads its targets'
        whole rows, so ``tuples_fetched`` counts those a second time."""
        from collections import Counter

        db, calls = counted
        heap = db.catalog.table("items").heap
        pins: Counter = Counter()
        pin = db.buffer.pin

        def counting_pin(rel, blkno):
            if rel == heap.relation:
                pins[blkno] += 1
            return pin(rel, blkno)

        db.buffer.pin = counting_pin
        every_page_once = Counter(range(heap.n_blocks()))
        for sql in (
            "DELETE FROM items WHERE id = -1",
            "UPDATE items SET id = 0 WHERE id < -1 OR (id > 5 AND NOT id < 100000)",
        ):
            pins.clear()
            __, used = self._run(db, calls, sql, batch)
            assert pins == every_page_once
            assert used <= {"heap.scan_batches", "heap.fetch_many"}
        first, second = (row_id for (row_id,) in db.query("SELECT id FROM items LIMIT 2"))
        for sql, tag, rereads in (
            (f"UPDATE items SET id = 10000 WHERE id = {first}", "UPDATE 1", 1),
            (f"DELETE FROM items WHERE id = 10000 OR id = {second}", "DELETE 2", 0),
        ):
            db.execute(f"SET enable_batch_exec = {'on' if batch else 'off'}")
            (live,) = db.query("SELECT count(*) FROM items")[0]
            calls.clear()
            before = heap.stats.tuples_fetched
            assert db.execute(sql).command == tag
            assert heap.stats.tuples_fetched - before == live + rereads
            assert not {"heap.scan", "heap.fetch"} & {label for label, n in calls.items() if n}
        remaining = f"SELECT count(*) FROM items WHERE id = {first} OR id = {second} OR id = 10000"
        assert db.query(remaining) == [(0,)]


def test_every_plan_node_has_an_operator():
    """A new plan node must fail here, not raise ``unknown plan node``
    the first time a query reaches it.  Project is the root only
    (``PlanRun.execute`` runs it), never something a parent opens."""
    from repro.pgsim import plan as P
    from repro.pgsim.operators import OPERATORS

    nodes = {
        cls
        for cls in vars(P).values()
        if isinstance(cls, type) and issubclass(cls, P.PlanNode) and cls is not P.PlanNode
    }
    assert nodes - {P.Project} == set(OPERATORS)
