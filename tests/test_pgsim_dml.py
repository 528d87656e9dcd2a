"""Tests for DELETE/UPDATE statements and dead-tuple index behavior."""

import numpy as np
import pytest

from repro.pgsim import PgSimDatabase


@pytest.fixture()
def db(fresh_db):
    fresh_db.execute("CREATE TABLE t (id int, score float, vec float[])")
    for i in range(30):
        vec = ",".join(str(float(i + j)) for j in range(4))
        fresh_db.execute(f"INSERT INTO t VALUES ({i}, {i * 0.5}, '{vec}'::PASE)")
    return fresh_db


class TestDelete:
    def test_delete_with_where(self, db):
        result = db.execute("DELETE FROM t WHERE id >= 20")
        assert result.command == "DELETE 10"
        assert db.execute("SELECT count(*) FROM t").scalar() == 20

    def test_delete_all(self, db):
        db.execute("DELETE FROM t")
        assert db.execute("SELECT count(*) FROM t").scalar() == 0

    def test_delete_none_matching(self, db):
        result = db.execute("DELETE FROM t WHERE id > 1000")
        assert result.command == "DELETE 0"

    def test_delete_then_vacuum(self, db):
        db.execute("DELETE FROM t WHERE id < 10")
        result = db.execute("VACUUM t")
        assert result.command == "VACUUM 10"

    def test_deleted_rows_invisible_to_expressions(self, db):
        db.execute("DELETE FROM t WHERE id = 5")
        assert db.query("SELECT id FROM t WHERE id = 5") == []


class TestUpdate:
    def test_update_with_where(self, db):
        result = db.execute("UPDATE t SET score = 100.0 WHERE id < 3")
        assert result.command == "UPDATE 3"
        rows = db.query("SELECT score FROM t WHERE id < 3")
        assert all(r[0] == 100.0 for r in rows)

    def test_update_expression_references_old_row(self, db):
        db.execute("UPDATE t SET score = score + 1 WHERE id = 4")
        assert db.query("SELECT score FROM t WHERE id = 4") == [(3.0,)]

    def test_update_multiple_columns(self, db):
        db.execute("UPDATE t SET id = 1000, score = -1.0 WHERE id = 7")
        assert db.query("SELECT id, score FROM t WHERE id = 1000") == [(1000, -1.0)]

    def test_update_unknown_column_rejected(self, db):
        from repro.pgsim.executor import ExecutionError

        with pytest.raises(ExecutionError):
            db.execute("UPDATE t SET ghost = 1")

    def test_update_vector_column(self, db):
        db.execute("UPDATE t SET vec = '9,9,9,9'::PASE WHERE id = 2")
        (vec,) = db.query("SELECT vec FROM t WHERE id = 2")[0]
        np.testing.assert_array_equal(vec, np.array([9, 9, 9, 9], dtype=np.float32))


class TestDeadTuplesAndIndexes:
    @pytest.fixture()
    def indexed(self, loaded_db, small_dataset):
        loaded_db.execute(
            "CREATE INDEX ix ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 8, sample_ratio = 0.5, seed = 1)"
        )
        loaded_db.execute("SET pase.nprobe = 8")
        return loaded_db

    def _top(self, db, q, k, vec_lit):
        rows = db.query(
            f"SELECT id FROM items ORDER BY vec <-> '{vec_lit(q)}'::PASE LIMIT {k}"
        )
        return [r[0] for r in rows]

    def test_index_scan_skips_deleted(self, indexed, small_dataset, vec_lit):
        q = small_dataset.queries[0]
        before = self._top(indexed, q, 10, vec_lit)
        indexed.execute(f"DELETE FROM items WHERE id = {before[0]}")
        after = self._top(indexed, q, 10, vec_lit)
        assert before[0] not in after
        assert len(after) == 10  # widened re-scan compensates
        assert after[:9] == before[1:10]

    def test_mass_delete_still_fills_k(self, indexed, small_dataset, vec_lit):
        q = small_dataset.queries[1]
        top = self._top(indexed, q, 20, vec_lit)
        victims = ", ".join(str(i) for i in top[:15])
        for vid in top[:15]:
            indexed.execute(f"DELETE FROM items WHERE id = {vid}")
        after = self._top(indexed, q, 10, vec_lit)
        assert len(after) == 10
        assert not set(after) & set(top[:15])

    def test_delete_more_than_table_has(self, indexed, small_dataset, vec_lit):
        indexed.execute("DELETE FROM items WHERE id >= 10")
        after = self._top(indexed, small_dataset.queries[0], 50, vec_lit)
        # Only 10 live rows remain; the scan returns all of them.
        assert sorted(after) == list(range(10))

    def test_update_moves_row_in_index(self, indexed, small_dataset, vec_lit):
        q = small_dataset.queries[2]
        target = self._top(indexed, q, 1, vec_lit)[0]
        far = ",".join("99.0" for __ in range(small_dataset.dim))
        indexed.execute(f"UPDATE items SET vec = '{far}'::PASE WHERE id = {target}")
        assert self._top(indexed, q, 1, vec_lit)[0] != target
        # And its new location is findable.
        rows = indexed.query(
            f"SELECT id FROM items ORDER BY vec <-> '{far}'::PASE LIMIT 1"
        )
        assert rows[0][0] == target

    def test_seqscan_agrees_after_dml(self, indexed, small_dataset, vec_lit):
        q = small_dataset.queries[3]
        indexed.execute("DELETE FROM items WHERE id < 50")
        fast = self._top(indexed, q, 10, vec_lit)
        indexed.execute("SET enable_indexscan = false")
        slow = self._top(indexed, q, 10, vec_lit)
        assert fast == slow


class TestReindexAndShowAll:
    def test_reindex_drops_dead_entries(self, loaded_db, small_dataset, vec_lit):
        loaded_db.execute(
            "CREATE INDEX rx ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 8, sample_ratio = 0.5, seed = 1)"
        )
        loaded_db.execute("SET pase.nprobe = 8")
        loaded_db.execute("DELETE FROM items WHERE id < 300")
        loaded_db.execute("VACUUM items")
        loaded_db.execute("REINDEX rx")
        am = loaded_db.catalog.find_index("rx").am
        # After reindex, the index holds only live rows.
        total = 0
        for __, head, __ in am._iter_centroids():
            total += sum(n for n, __ in am._chain_pages(head))
        assert total == small_dataset.n - 300
        rows = loaded_db.query(
            f"SELECT id FROM items ORDER BY vec <-> "
            f"'{vec_lit(small_dataset.queries[0])}'::PASE LIMIT 10"
        )
        assert all(r[0] >= 300 for r in rows)

    def test_reindex_unknown_index(self, fresh_db):
        from repro.pgsim.catalog import CatalogError

        with pytest.raises(CatalogError):
            fresh_db.execute("REINDEX ghost")

    def test_reindex_preserves_options(self, loaded_db):
        loaded_db.execute(
            "CREATE INDEX rx2 ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 5, sample_ratio = 0.5, seed = 9)"
        )
        loaded_db.execute("REINDEX rx2")
        info = loaded_db.catalog.find_index("rx2")
        assert info.options["clusters"] == 5
        assert info.options["seed"] == 9

    def test_show_all_lists_settings(self, fresh_db):
        result = fresh_db.execute("SHOW ALL")
        names = [r[0] for r in result.rows]
        assert "pase.nprobe" in names
        assert "enable_indexscan" in names
        assert result.columns == ["name", "setting"]
