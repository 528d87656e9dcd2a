"""Recovery benchmark: checkpoint truncation bounds the WAL.

The same SQL workload runs with and without periodic ``checkpoint()``
calls, comparing WAL record counts, on-disk log size, and the redo
work left for a subsequent recovery.  Without truncation both grow
without bound; with it they stay within one checkpoint interval.  A
prerequisite for running pgsim under sustained write traffic.

Run with::

    pytest benchmarks/bench_recovery.py -s
"""

from repro.pgsim import PgSimDatabase
from repro.pgsim.storage import MemoryDisk
from repro.pgsim.wal import WriteAheadLog, replay

#: SQL workload for the truncation comparison.
N_ROWS = 200
CHECKPOINT_EVERY = 25


def _run_insert_workload(datadir, checkpoint_every: int | None) -> PgSimDatabase:
    db = PgSimDatabase(data_dir=datadir, buffer_pool_pages=64)
    db.execute("CREATE TABLE t (id int, vec float[])")
    for i in range(N_ROWS):
        db.execute(f"INSERT INTO t VALUES ({i}, '{i}.0,1.0,2.0,3.0'::PASE)")
        if checkpoint_every is not None and i % checkpoint_every == checkpoint_every - 1:
            db.checkpoint()
    return db


def test_shape_checkpoint_truncation_bounds_log(tmp_path):
    """WAL record count and on-disk size must shrink versus the
    no-truncation baseline, and recovery redo work along with them."""
    baseline = _run_insert_workload(tmp_path / "no-ckpt", None)
    truncated = _run_insert_workload(tmp_path / "ckpt", CHECKPOINT_EVERY)

    base_records, base_bytes = len(baseline.wal), baseline.wal.disk_size()
    trunc_records, trunc_bytes = len(truncated.wal), truncated.wal.disk_size()
    base_redo = replay(WriteAheadLog(tmp_path / "no-ckpt" / "wal.log"), MemoryDisk())
    trunc_redo = replay(WriteAheadLog(tmp_path / "ckpt" / "wal.log"), MemoryDisk())

    print("\n  recovery workload: "
          f"{N_ROWS} committed inserts, checkpoint every {CHECKPOINT_EVERY}")
    print(f"  {'':14}  {'records':>8}  {'log bytes':>10}  {'redo applied':>12}")
    print(f"  {'no checkpoint':14}  {base_records:8d}  {base_bytes:10d}  {base_redo:12d}")
    print(f"  {'checkpointed':14}  {trunc_records:8d}  {trunc_bytes:10d}  {trunc_redo:12d}")

    # Bounded: at most one checkpoint interval of records remains
    # (insert + commit per row, plus the checkpoint record itself).
    assert trunc_records <= 2 * CHECKPOINT_EVERY + 1
    assert base_records >= 2 * N_ROWS
    assert trunc_bytes < base_bytes
    assert trunc_redo <= base_redo
    # Both databases still answer identically after a crash + reopen.
    del baseline, truncated
    for sub in ("no-ckpt", "ckpt"):
        db = PgSimDatabase(data_dir=tmp_path / sub, buffer_pool_pages=64)
        assert db.execute("SELECT count(*) FROM t").scalar() == N_ROWS


def test_shape_recovery_time_scales_with_log(tmp_path):
    """Reopening the checkpointed database does strictly less redo, so
    end-to-end recovery (replay + catalog rebuild) must not be slower
    by more than noise; assert only the redo-work ordering, which is
    deterministic."""
    _run_insert_workload(tmp_path / "no-ckpt", None)
    _run_insert_workload(tmp_path / "ckpt", CHECKPOINT_EVERY)
    full = WriteAheadLog(tmp_path / "no-ckpt" / "wal.log")
    trunc = WriteAheadLog(tmp_path / "ckpt" / "wal.log")
    assert len(trunc) < len(full)
    assert trunc.disk_size() < full.disk_size()
