"""Tests for the SQL lexer, parser, and expression evaluator."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pgsim import expr as E
from repro.pgsim.sql import ast, lexer, parse_sql
from repro.pgsim.sql.lexer import SqlSyntaxError, TokenType, tokenize


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT id FROM t;")
        kinds = [t.type for t in tokens]
        assert kinds == [
            TokenType.KEYWORD,
            TokenType.IDENT,
            TokenType.KEYWORD,
            TokenType.IDENT,
            TokenType.PUNCT,
            TokenType.EOF,
        ]

    def test_distance_operators(self):
        tokens = tokenize("a <-> b <#> c <=> d")
        ops = [t.value for t in tokens if t.type == TokenType.OPERATOR]
        assert ops == ["<->", "<#>", "<=>"]

    def test_operator_greediness(self):
        ops = [t.value for t in tokenize("a <= b <> c :: d") if t.type == TokenType.OPERATOR]
        assert ops == ["<=", "<>", "::"]

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_numbers(self):
        values = [t.value for t in tokenize("1 2.5 1e3 3.1e-2") if t.type == TokenType.NUMBER]
        assert values == ["1", "2.5", "1e3", "3.1e-2"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT 1 -- a comment\n;")
        assert len(tokens) == 4  # SELECT, 1, ;, EOF

    def test_keywords_case_insensitive(self):
        assert tokenize("select")[0].value == "select"
        assert tokenize("SeLeCt")[0].value == "select"

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @")


def _reference_string_literal(sql, i):
    """The character-at-a-time literal scan the lexer's quote-to-quote
    ``_string_literal`` replaced, kept verbatim as its oracle."""
    n = len(sql)
    end = i + 1
    parts = []
    while True:
        if end >= n:
            raise SqlSyntaxError("unterminated string literal", sql, i)
        if sql[end] == "'":
            if end + 1 < n and sql[end + 1] == "'":  # escaped quote
                parts.append(sql[i + 1 : end + 1])
                i = end + 1
                end += 2
                continue
            break
        end += 1
    parts.append(sql[i + 1 : end])
    return "".join(parts), i, end


def _lex_outcome(sql):
    """Every token's (type, value, pos), or the error's message and pos."""
    try:
        return [(t.type, t.value, t.pos) for t in tokenize(sql)]
    except SqlSyntaxError as exc:
        return ("error", str(exc), exc.pos)


_SQL_FRAGMENTS = st.lists(
    st.sampled_from(
        ["'", "''", "'''", "--", "\n", " ", "a", "it", "1.5,-2e3", "::PASE", '"', "<->", "@"]
    ),
    max_size=24,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_SQL_FRAGMENTS, st.text(alphabet="'-\n a1,\"", max_size=40)))
def test_string_literal_scan_matches_character_loop(sql):
    """Quote-to-quote scanning changes no token, value, position or
    error message: escapes, unterminated literals and comments included."""
    got = _lex_outcome(sql)
    with mock.patch.object(lexer, "_string_literal", _reference_string_literal):
        want = _lex_outcome(sql)
    assert got == want


class TestParser:
    def test_create_table(self):
        (stmt,) = parse_sql("CREATE TABLE t (id int, vec float[])")
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.name == "t"
        assert stmt.columns[1].type_name == "float[]"

    def test_create_table_if_not_exists(self):
        (stmt,) = parse_sql("CREATE TABLE IF NOT EXISTS t (id int)")
        assert stmt.if_not_exists

    def test_create_index_with_options(self):
        (stmt,) = parse_sql(
            "CREATE INDEX ix ON t USING ivfflat_fun (vec) "
            "WITH (clustering_params = '10,256', distance_type = 0)"
        )
        assert isinstance(stmt, ast.CreateIndex)
        assert stmt.am == "ivfflat_fun"
        assert dict(stmt.options) == {"clustering_params": "10,256", "distance_type": 0}

    def test_paper_query_shape(self):
        """The exact query form from the paper's Sec. II-E."""
        (stmt,) = parse_sql(
            "SELECT id FROM t ORDER BY vec <-> '0.1,0.2,0.3'::PASE ASC LIMIT 10"
        )
        assert isinstance(stmt, ast.Select)
        assert stmt.limit == 10
        order = stmt.order_by
        assert order is not None and order.ascending
        assert isinstance(order.expr, ast.BinaryOp) and order.expr.op == "<->"
        assert isinstance(order.expr.right, ast.Cast)
        assert order.expr.right.type_name == "pase"

    def test_insert_multi_row(self):
        (stmt,) = parse_sql("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert isinstance(stmt, ast.Insert)
        assert len(stmt.rows) == 2

    def test_insert_with_columns(self):
        (stmt,) = parse_sql("INSERT INTO t (id, vec) VALUES (1, ARRAY[1.0, 2.0])")
        assert stmt.columns == ("id", "vec")
        assert isinstance(stmt.rows[0][1], ast.ArrayLiteral)

    def test_where_and_or_precedence(self):
        (stmt,) = parse_sql("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        where = stmt.where
        assert isinstance(where, ast.BinaryOp) and where.op == "or"
        assert isinstance(where.right, ast.BinaryOp) and where.right.op == "and"

    def test_arithmetic_precedence(self):
        (stmt,) = parse_sql("SELECT 1 + 2 * 3")
        expr = stmt.targets[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_set_show(self):
        stmts = parse_sql("SET pase.nprobe = 20; SHOW pase.nprobe")
        assert isinstance(stmts[0], ast.SetStatement)
        assert stmts[0].name == "pase.nprobe"
        assert stmts[0].value == 20
        assert isinstance(stmts[1], ast.ShowStatement)

    def test_explain(self):
        (stmt,) = parse_sql("EXPLAIN SELECT * FROM t")
        assert isinstance(stmt, ast.Explain)

    def test_multiple_statements(self):
        stmts = parse_sql("CREATE TABLE a (x int); CREATE TABLE b (y int);")
        assert len(stmts) == 2

    def test_alias(self):
        (stmt,) = parse_sql("SELECT id AS key FROM t")
        assert stmt.targets[0].alias == "key"

    def test_count_star(self):
        (stmt,) = parse_sql("SELECT count(*) FROM t")
        call = stmt.targets[0].expr
        assert isinstance(call, ast.FuncCall)
        assert isinstance(call.args[0], ast.Star)

    def test_qualified_column(self):
        (stmt,) = parse_sql("SELECT t.id FROM t")
        ref = stmt.targets[0].expr
        assert ref.name == "id" and ref.table == "t"

    def test_negative_number(self):
        (stmt,) = parse_sql("SELECT -3.5")
        expr = stmt.targets[0].expr
        assert isinstance(expr, ast.UnaryOp)

    def test_syntax_errors(self):
        for bad in (
            "SELECT FROM",
            "CREATE t",
            "INSERT INTO",
            "SELECT * FROM t LIMIT x",
            "CREATE INDEX i ON t USING am",
        ):
            with pytest.raises(SqlSyntaxError):
                parse_sql(bad)


class TestExprEval:
    def test_literals(self):
        assert E.evaluate(ast.Literal(5)) == 5
        assert E.evaluate(ast.Literal(None)) is None

    def test_column_lookup(self):
        assert E.evaluate(ast.ColumnRef("x"), {"x": 3}) == 3
        with pytest.raises(E.ExpressionError):
            E.evaluate(ast.ColumnRef("y"), {"x": 3})
        with pytest.raises(E.ExpressionError):
            E.evaluate(ast.ColumnRef("x"), None)

    def test_vector_cast(self):
        expr = ast.Cast(ast.Literal("1.0,2.0,3.0"), "pase")
        vec = E.evaluate(expr)
        np.testing.assert_array_equal(vec, np.array([1, 2, 3], dtype=np.float32))

    def test_pgvector_bracket_literal(self):
        vec = E.parse_vector_text("[0.5, 1.5]")
        np.testing.assert_array_equal(vec, np.array([0.5, 1.5], dtype=np.float32))

    def test_bad_vector_literal(self):
        with pytest.raises(E.ExpressionError):
            E.parse_vector_text("a,b")
        with pytest.raises(E.ExpressionError):
            E.parse_vector_text("")

    def test_distance_operators(self):
        a = np.array([0.0, 0.0], dtype=np.float32)
        b = np.array([3.0, 4.0], dtype=np.float32)
        row = {"a": a, "b": b}
        l2 = E.evaluate(ast.BinaryOp("<->", ast.ColumnRef("a"), ast.ColumnRef("b")), row)
        assert l2 == pytest.approx(25.0)  # squared L2, like Faiss
        ip = E.evaluate(ast.BinaryOp("<#>", ast.ColumnRef("a"), ast.ColumnRef("b")), row)
        assert ip == pytest.approx(0.0)

    def test_distance_dim_mismatch(self):
        row = {"a": np.zeros(2, dtype=np.float32), "b": np.zeros(3, dtype=np.float32)}
        with pytest.raises(E.ExpressionError):
            E.evaluate(ast.BinaryOp("<->", ast.ColumnRef("a"), ast.ColumnRef("b")), row)

    def test_comparisons_and_logic(self):
        row = {"x": 5}
        t = ast.BinaryOp(
            "and",
            ast.BinaryOp(">", ast.ColumnRef("x"), ast.Literal(1)),
            ast.BinaryOp("<=", ast.ColumnRef("x"), ast.Literal(5)),
        )
        assert E.evaluate(t, row) is True

    def test_division_by_zero(self):
        with pytest.raises(E.ExpressionError):
            E.evaluate(ast.BinaryOp("/", ast.Literal(1), ast.Literal(0)))

    def test_functions(self):
        assert E.evaluate(ast.FuncCall("abs", (ast.Literal(-2),))) == 2
        assert E.evaluate(ast.FuncCall("sqrt", (ast.Literal(9),))) == 3.0
        dims = ast.FuncCall("vector_dims", (ast.Cast(ast.Literal("1,2"), "pase"),))
        assert E.evaluate(dims) == 2
        with pytest.raises(E.ExpressionError):
            E.evaluate(ast.FuncCall("nope", ()))

    def test_array_literal(self):
        arr = E.evaluate(ast.ArrayLiteral((ast.Literal(1), ast.Literal(2))))
        np.testing.assert_array_equal(arr, np.array([1, 2], dtype=np.float32))

    def test_is_constant(self):
        assert E.is_constant(ast.Cast(ast.Literal("1,2"), "pase"))
        assert not E.is_constant(ast.BinaryOp("+", ast.ColumnRef("x"), ast.Literal(1)))

    def test_vector_equality(self):
        a = np.array([1.0, 2.0], dtype=np.float32)
        assert E.evaluate(ast.BinaryOp("=", ast.Literal(a), ast.Literal(a.copy())))
