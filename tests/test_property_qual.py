"""Property tests for the column-at-a-time WHERE path.

(a) :func:`repro.pgsim.expr.evaluate_batch` must return, for random
predicates over columns holding NULLs, int32 extremes, big integers and
floats (NaN and infinities included), exactly the WHERE verdicts of
:func:`repro.pgsim.expr.evaluate` applied row by row — including the
shapes it does not vectorise (text, arithmetic, NULL literals), which
fall back to that very function.

(b) ``DELETE`` / ``UPDATE ... WHERE`` — whose targets come from a
projected page-at-a-time scan plus one ``evaluate_batch`` — must touch
exactly the rows a Python oracle selects: the committed rows visible to
the statement, after earlier deletes, an aborted transaction's inserts,
and while another session holds a repeatable-read snapshot (with its own
uncommitted inserts) open.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pgsim import PgSimDatabase
from repro.pgsim.expr import evaluate, evaluate_batch
from repro.pgsim.sql import ast
from repro.pgsim.sql.parser import parse_sql

INT32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
BIG = st.integers(min_value=-(2**62), max_value=2**62)
FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
TEXT = st.sampled_from(["x", "y", "z"])

#: Column name -> value strategy (each may also be NULL).
COLUMN_VALUES = {
    "i": st.one_of(INT32, st.sampled_from([0, 1, -1, 2**31 - 1, -(2**31)])),
    "j": st.integers(min_value=-5, max_value=5),
    "big": BIG,
    "f": FLOATS,
    "t": TEXT,
}

COMPARISONS = ["=", "<>", "!=", "<", ">", "<=", ">="]


def _numeric_literal() -> st.SearchStrategy[ast.Expr]:
    plain = st.one_of(INT32, BIG, FLOATS, st.integers(min_value=-5, max_value=5))
    return st.one_of(
        plain.map(ast.Literal),
        plain.map(lambda v: ast.UnaryOp("-", ast.Literal(v))),
    )


def _operand() -> st.SearchStrategy[ast.Expr]:
    numeric_columns = st.sampled_from(["i", "j", "big", "f"]).map(ast.ColumnRef)
    fallback = st.one_of(
        st.just(ast.ColumnRef("t")),
        TEXT.map(ast.Literal),
        st.just(ast.Literal(None)),
        st.builds(
            lambda col, v: ast.BinaryOp("+", ast.ColumnRef(col), ast.Literal(v)),
            st.sampled_from(["i", "j"]),
            st.integers(min_value=-3, max_value=3),
        ),
    )
    return st.one_of(numeric_columns, numeric_columns, _numeric_literal(), fallback)


COMPARISON = st.builds(
    lambda op, left, right: ast.BinaryOp(op, left, right),
    st.sampled_from(COMPARISONS),
    _operand(),
    _operand(),
)

PREDICATE = st.recursive(
    COMPARISON,
    lambda inner: st.one_of(
        st.builds(lambda l, r: ast.BinaryOp("and", l, r), inner, inner),
        st.builds(lambda l, r: ast.BinaryOp("or", l, r), inner, inner),
        inner.map(lambda e: ast.UnaryOp("not", e)),
    ),
    max_leaves=6,
)

ROWS = st.lists(
    st.fixed_dictionaries(
        {name: st.one_of(st.none(), values) for name, values in COLUMN_VALUES.items()}
    ),
    max_size=25,
)


def _verdicts(expr: ast.Expr, rows: list[dict]) -> list[bool]:
    return [bool(evaluate(expr, row)) for row in rows]


@settings(max_examples=300, deadline=None)
@given(expr=PREDICATE, rows=ROWS)
def test_evaluate_batch_matches_row_by_row(expr, rows) -> None:
    columns = {name: [row[name] for row in rows] for name in COLUMN_VALUES}
    try:
        expected = _verdicts(expr, rows)
    except Exception as exc:  # e.g. text < int: the batch path must fail alike
        with pytest.raises(type(exc)):
            evaluate_batch(expr, columns, len(rows))
        return
    got = evaluate_batch(expr, columns, len(rows))
    assert got.dtype == bool
    assert got.tolist() == expected


def test_evaluate_batch_vectorised_shapes_agree_at_the_edges() -> None:
    """Deterministic companions to the property: int32 bounds, ints too
    large for exact float64 next to floats, NaN, and a constant-only
    predicate."""
    rows = [
        {"i": 2**31 - 1, "f": math.nan, "big": 2**53 + 1},
        {"i": -(2**31), "f": 0.5, "big": -(2**62)},
        {"i": None, "f": None, "big": None},
        {"i": 0, "f": -0.0, "big": 2**53},
    ] * 2  # eight rows: below that evaluate_batch goes row by row
    columns = {name: [row[name] for row in rows] for name in ("i", "f", "big")}
    for sql in (
        "i >= 2147483647 OR i <= -2147483648",
        "NOT (f < 1) AND i <> 0",
        "big > 9007199254740992.0",
        "big = 9007199254740993",
        "f = 0 OR f <> f",
        "1 < 2",
        "-i > 0",
    ):
        expr = parse_sql(f"SELECT 1 FROM t WHERE {sql}")[0].where
        assert evaluate_batch(expr, columns, len(rows)).tolist() == _verdicts(expr, rows), sql


# ----------------------------------------------------------------------
# (b) DML target selection vs an oracle
# ----------------------------------------------------------------------
DML_PREDICATES = [
    "a < {n}",
    "a <> {n}",
    "a >= {n} AND b < {f}",
    "NOT (a = {n}) OR note = 'x'",
    "b > {f} OR a = a",
    "a + 1 > {n}",
    "id < {n} AND NOT (b >= {f} OR a < 0)",
]

ROW = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-20, max_value=20)),
    st.one_of(st.none(), st.floats(min_value=-10, max_value=10, width=32)),
    st.one_of(st.none(), TEXT),
)


def _sql_value(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(ROW, min_size=1, max_size=40),
    deleted=st.sets(st.integers(min_value=0, max_value=39), max_size=10),
    aborted=st.lists(ROW, max_size=5),
    held=st.lists(ROW, max_size=5),
    own=st.lists(ROW, max_size=5),
    late=st.lists(ROW, max_size=5),
    template=st.sampled_from(DML_PREDICATES),
    n=st.integers(min_value=-20, max_value=40),
    f=st.floats(min_value=-10, max_value=10, width=32),
    kind=st.sampled_from(["delete", "update"]),
    batch=st.sampled_from(["off", "on"]),
)
def test_dml_targets_match_oracle(
    rows, deleted, aborted, held, own, late, template, n, f, kind, batch
):
    """The statement runs in a transaction block: its targets are the
    rows its BEGIN snapshot sees plus its own inserts — not another
    session's uncommitted rows, not rows committed after its BEGIN."""
    db = PgSimDatabase(buffer_pool_pages=64, page_size=1024)
    db.execute("CREATE TABLE t (id int, a int, b real, note text)")

    def insert(session, first_id, new_rows):
        for j, row in enumerate(new_rows):
            values = ", ".join(_sql_value(v) for v in (first_id + j, *row))
            session.execute(f"INSERT INTO t VALUES ({values})")
        return {first_id + j: row for j, row in enumerate(new_rows)}

    visible = insert(db, 0, rows)
    # Prior deletes (committed), then an aborted transaction's inserts.
    for row_id in sorted(deleted):
        db.execute(f"DELETE FROM t WHERE id = {row_id}")
        visible.pop(row_id, None)
    loser = db.session("loser")
    loser.execute("BEGIN")
    insert(loser, 1000, aborted)
    loser.execute("ROLLBACK")
    # Another session holds a repeatable-read snapshot, with uncommitted
    # inserts of its own, while the statement runs.
    holder = db.session("holder")
    holder.execute("BEGIN")
    before = sorted(holder.query("SELECT id, a, b, note FROM t"))
    held_ids = list(insert(holder, 2000, held))
    writer = db.session("writer")
    writer.execute(f"SET enable_batch_exec = {batch}")
    writer.execute("BEGIN")
    visible.update(insert(writer, 3000, own))
    late_ids = list(insert(db, 4000, late))  # committed after the writer's BEGIN

    where = template.format(n=n, f=repr(f))
    expr = parse_sql(f"SELECT 1 FROM t WHERE {where}")[0].where
    names = ("id", "a", "b", "note")
    targets = sorted(
        row_id
        for row_id, row in visible.items()
        if evaluate(expr, dict(zip(names, (row_id, *row))))
    )
    if kind == "delete":
        assert writer.execute(f"DELETE FROM t WHERE {where}").command == f"DELETE {len(targets)}"
        survivors = sorted(set(visible) - set(targets))
    else:
        tag = writer.execute(f"UPDATE t SET note = 'hit' WHERE {where}").command
        assert tag == f"UPDATE {len(targets)}"
        hit = sorted(r[0] for r in writer.query("SELECT id FROM t WHERE note = 'hit'"))
        assert hit == targets
        survivors = sorted(visible)
    assert sorted(r[0] for r in writer.query("SELECT id FROM t")) == survivors
    writer.execute("COMMIT")
    # The held snapshot still sees the table as it was at its BEGIN.
    assert sorted(r for r in holder.query("SELECT id, a, b, note FROM t") if r[0] < 2000) == before
    holder.execute("COMMIT")
    after = sorted(r[0] for r in db.query("SELECT id FROM t"))
    assert after == sorted(survivors + held_ids + late_ids)
