"""Recursive-descent SQL parser.

Grammar (statements separated by ``;``)::

    CREATE TABLE [IF NOT EXISTS] name ( col type [, ...] )
    DROP TABLE [IF EXISTS] name
    CREATE INDEX name ON table USING am ( column ) [WITH ( k = v, ... )]
    DROP INDEX [IF EXISTS] name
    INSERT INTO table [( cols )] VALUES ( exprs ) [, ( exprs ) ...]
    SELECT targets [FROM table] [WHERE expr]
        [ORDER BY expr [ASC|DESC]] [LIMIT n]
    SET name = value          SHOW name
    EXPLAIN [ANALYZE | ( ANALYZE | BUFFERS | TIMING | TRACE | COSTS [, ...] )]
        <select|insert|delete>
    VACUUM table              REINDEX index
    ANALYZE [table]

Expression precedence (loosest first): ``OR``, ``AND``, ``NOT``,
comparisons (``= < > <= >= <> != <-> <#> <=>``), ``+ -``, ``* /``,
unary ``-``, ``::`` cast, primary.
"""

from __future__ import annotations

from typing import Any

from repro.pgsim.sql import ast
from repro.pgsim.sql.lexer import SqlSyntaxError, Token, TokenType, tokenize

_COMPARISON_OPS = {"=", "<", ">", "<=", ">=", "<>", "!=", "<->", "<#>", "<=>"}
_ADDITIVE_OPS = {"+", "-"}
_MULTIPLICATIVE_OPS = {"*", "/"}


def parse_sql(sql: str, tokens: list[Token] | None = None) -> list[ast.Statement]:
    """Parse a SQL string into a list of statements (from ``tokens``,
    its :func:`tokenize` stream, when the caller already has it)."""
    return _Parser(sql, tokens).parse_statements()


class _Parser:
    def __init__(self, sql: str, tokens: list[Token] | None = None) -> None:
        self.sql = sql
        self.tokens = tokenize(sql) if tokens is None else tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != TokenType.EOF:
            self.pos += 1
        return tok

    def _error(self, message: str) -> SqlSyntaxError:
        return SqlSyntaxError(message, self.sql, self._peek().pos)

    def _expect_keyword(self, word: str) -> Token:
        tok = self._advance()
        if not tok.is_keyword(word):
            raise SqlSyntaxError(f"expected {word.upper()}", self.sql, tok.pos)
        return tok

    def _expect_punct(self, ch: str) -> Token:
        tok = self._advance()
        if tok.type != TokenType.PUNCT or tok.value != ch:
            raise SqlSyntaxError(f"expected {ch!r}", self.sql, tok.pos)
        return tok

    def _expect_operator(self, op: str) -> Token:
        tok = self._advance()
        if tok.type != TokenType.OPERATOR or tok.value != op:
            raise SqlSyntaxError(f"expected {op!r}", self.sql, tok.pos)
        return tok

    def _expect_ident(self) -> str:
        tok = self._advance()
        # Non-reserved usage of keywords as identifiers is not needed
        # by the paper's SQL, so keep it strict.
        if tok.type != TokenType.IDENT:
            raise SqlSyntaxError("expected identifier", self.sql, tok.pos)
        return tok.value

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self.pos += 1
            return True
        return False

    def _accept_punct(self, ch: str) -> bool:
        tok = self._peek()
        if tok.type == TokenType.PUNCT and tok.value == ch:
            self.pos += 1
            return True
        return False

    def _accept_operator(self, op: str) -> bool:
        tok = self._peek()
        if tok.type == TokenType.OPERATOR and tok.value == op:
            self.pos += 1
            return True
        return False

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse_statements(self) -> list[ast.Statement]:
        statements: list[ast.Statement] = []
        while self._peek().type != TokenType.EOF:
            if self._accept_punct(";"):
                continue
            statements.append(self._statement())
            if self._peek().type != TokenType.EOF:
                self._expect_punct(";")
        return statements

    def _statement(self) -> ast.Statement:
        tok = self._peek()
        if tok.is_keyword("create"):
            return self._create()
        if tok.is_keyword("drop"):
            return self._drop()
        if tok.is_keyword("insert"):
            return self._insert()
        if tok.is_keyword("delete"):
            return self._delete()
        if tok.is_keyword("update"):
            return self._update()
        if tok.is_keyword("select"):
            return self._select()
        if tok.is_keyword("set"):
            return self._set()
        if tok.is_keyword("show"):
            return self._show()
        if tok.is_keyword("explain"):
            self._advance()
            analyze, buffers, timing, trace, costs = self._explain_options()
            return ast.Explain(
                self._statement(),
                analyze=analyze,
                buffers=buffers,
                timing=timing,
                trace=trace,
                costs=costs,
            )
        if tok.is_keyword("begin"):
            self._advance()
            self._accept_transaction_noise()
            return ast.Begin()
        if tok.is_keyword("commit"):
            self._advance()
            self._accept_transaction_noise()
            return ast.Commit()
        if tok.is_keyword("rollback"):
            self._advance()
            self._accept_transaction_noise()
            return ast.Rollback()
        if tok.is_keyword("vacuum"):
            self._advance()
            return ast.Vacuum(self._expect_ident())
        if tok.is_keyword("analyze"):
            self._advance()
            nxt = self._peek()
            if nxt.type == TokenType.IDENT:
                return ast.Analyze(self._expect_ident())
            return ast.Analyze(None)
        if tok.is_keyword("reindex"):
            self._advance()
            return ast.Reindex(self._expect_ident())
        raise self._error(f"unsupported statement start {tok.value!r}")

    def _accept_transaction_noise(self) -> None:
        """Optional WORK/TRANSACTION after BEGIN/COMMIT/ROLLBACK."""
        if not self._accept_keyword("work"):
            self._accept_keyword("transaction")

    def _explain_options(self) -> tuple[bool, bool, bool | None, bool, bool]:
        """EXPLAIN's option syntax: bare ANALYZE or a parenthesized list.

        ``EXPLAIN (ANALYZE, BUFFERS, TIMING off, TRACE, COSTS off) ...``
        accepts the options in any order, each with an optional
        ON/OFF/TRUE/FALSE value, matching PostgreSQL's grammar.
        Returns ``(analyze, buffers, timing, trace, costs)``; ``timing``
        is ``None`` when the option was not given (its effective default
        follows ANALYZE, resolved at execution).  ``costs`` defaults on,
        as in PostgreSQL.
        """
        if self._accept_keyword("analyze"):
            return True, False, None, False, True
        if not self._accept_punct("("):
            return False, False, None, False, True
        analyze = buffers = trace = False
        costs = True
        timing: bool | None = None
        while True:
            tok = self._advance()
            if tok.type not in (TokenType.IDENT, TokenType.KEYWORD):
                raise SqlSyntaxError("expected EXPLAIN option name", self.sql, tok.pos)
            name = tok.value.lower()
            value = self._explain_option_value()
            if name == "analyze":
                analyze = value
            elif name == "buffers":
                buffers = value
            elif name == "timing":
                timing = value
            elif name == "trace":
                trace = value
            elif name == "costs":
                costs = value
            else:
                raise SqlSyntaxError(
                    f"unrecognized EXPLAIN option {name!r}", self.sql, tok.pos
                )
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return analyze, buffers, timing, trace, costs

    def _explain_option_value(self) -> bool:
        """Optional boolean after an EXPLAIN option name (default true)."""
        spellings = {"on": True, "true": True, "off": False, "false": False}
        tok = self._peek()
        if tok.type in (TokenType.IDENT, TokenType.KEYWORD) and tok.value.lower() in spellings:
            self._advance()
            return spellings[tok.value.lower()]
        if tok.type == TokenType.NUMBER and tok.value in ("0", "1"):
            self._advance()
            return tok.value == "1"
        return True

    def _create(self) -> ast.Statement:
        self._expect_keyword("create")
        if self._accept_keyword("table"):
            if_not_exists = self._if_not_exists()
            name = self._expect_ident()
            self._expect_punct("(")
            columns = []
            while True:
                col = self._expect_ident()
                type_name = self._type_name()
                columns.append(ast.ColumnDef(col, type_name))
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
            return ast.CreateTable(name, tuple(columns), if_not_exists)
        if self._accept_keyword("index"):
            name = self._expect_ident()
            self._expect_keyword("on")
            table = self._expect_ident()
            self._expect_keyword("using")
            am = self._expect_ident()
            self._expect_punct("(")
            column = self._expect_ident()
            self._expect_punct(")")
            options: list[tuple[str, Any]] = []
            if self._accept_keyword("with"):
                self._expect_punct("(")
                while True:
                    key = self._expect_ident()
                    self._expect_operator("=")
                    options.append((key, self._option_value()))
                    if not self._accept_punct(","):
                        break
                self._expect_punct(")")
            return ast.CreateIndex(name, table, am, column, tuple(options))
        raise self._error("expected TABLE or INDEX after CREATE")

    def _type_name(self) -> str:
        tok = self._advance()
        if tok.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise SqlSyntaxError("expected type name", self.sql, tok.pos)
        name = tok.value
        if self._accept_punct("["):
            self._expect_punct("]")
            name += "[]"
        return name

    def _if_not_exists(self) -> bool:
        if self._accept_keyword("if"):
            self._expect_keyword("not")
            self._expect_keyword("exists")
            return True
        return False

    def _if_exists(self) -> bool:
        if self._accept_keyword("if"):
            self._expect_keyword("exists")
            return True
        return False

    def _drop(self) -> ast.Statement:
        self._expect_keyword("drop")
        if self._accept_keyword("table"):
            if_exists = self._if_exists()
            return ast.DropTable(self._expect_ident(), if_exists)
        if self._accept_keyword("index"):
            if_exists = self._if_exists()
            return ast.DropIndex(self._expect_ident(), if_exists)
        raise self._error("expected TABLE or INDEX after DROP")

    def _insert(self) -> ast.Insert:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_ident()
        columns: tuple[str, ...] | None = None
        if self._accept_punct("("):
            cols = [self._expect_ident()]
            while self._accept_punct(","):
                cols.append(self._expect_ident())
            self._expect_punct(")")
            columns = tuple(cols)
        self._expect_keyword("values")
        rows = [self._value_row()]
        while self._accept_punct(","):
            rows.append(self._value_row())
        return ast.Insert(table, columns, tuple(rows))

    def _value_row(self) -> tuple[ast.Expr, ...]:
        self._expect_punct("(")
        exprs = [self._expr()]
        while self._accept_punct(","):
            exprs.append(self._expr())
        self._expect_punct(")")
        return tuple(exprs)

    def _delete(self) -> ast.Delete:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._expect_ident()
        where = self._expr() if self._accept_keyword("where") else None
        return ast.Delete(table, where)

    def _update(self) -> ast.Update:
        self._expect_keyword("update")
        table = self._expect_ident()
        self._expect_keyword("set")
        assignments = [self._assignment()]
        while self._accept_punct(","):
            assignments.append(self._assignment())
        where = self._expr() if self._accept_keyword("where") else None
        return ast.Update(table, tuple(assignments), where)

    def _assignment(self) -> tuple[str, ast.Expr]:
        column = self._expect_ident()
        self._expect_operator("=")
        return column, self._expr()

    def _select(self) -> ast.Select:
        self._expect_keyword("select")
        targets = [self._select_target()]
        while self._accept_punct(","):
            targets.append(self._select_target())
        table = None
        if self._accept_keyword("from"):
            table = self._expect_ident()
        where = self._expr() if self._accept_keyword("where") else None
        order_by = None
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            expr = self._expr()
            ascending = True
            if self._accept_keyword("desc"):
                ascending = False
            else:
                self._accept_keyword("asc")
            order_by = ast.OrderBy(expr, ascending)
        limit = None
        if self._accept_keyword("limit"):
            tok = self._advance()
            if tok.type != TokenType.NUMBER:
                raise SqlSyntaxError("expected a number after LIMIT", self.sql, tok.pos)
            limit = int(tok.value)
        return ast.Select(tuple(targets), table, where, order_by, limit)

    def _select_target(self) -> ast.SelectTarget:
        if self._accept_operator("*"):
            return ast.SelectTarget(ast.Star())
        expr = self._expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        return ast.SelectTarget(expr, alias)

    def _set(self) -> ast.SetStatement:
        self._expect_keyword("set")
        name = self._qualified_name()
        self._expect_operator("=")
        return ast.SetStatement(name, self._option_value())

    def _show(self) -> ast.ShowStatement:
        self._expect_keyword("show")
        if self._accept_keyword("all"):
            return ast.ShowStatement("all")
        return ast.ShowStatement(self._qualified_name())

    def _qualified_name(self) -> str:
        """Dotted name as used by GUC settings (``pase.nprobe``)."""
        parts = [self._expect_ident()]
        while self._accept_punct("."):
            parts.append(self._expect_ident())
        return ".".join(parts)

    def _option_value(self) -> Any:
        tok = self._advance()
        if tok.type == TokenType.NUMBER:
            return _number(tok.value)
        if tok.type == TokenType.STRING:
            return tok.value
        if tok.is_keyword("true") or tok.is_keyword("on"):
            return True
        if tok.is_keyword("false"):
            return False
        if tok.type == TokenType.IDENT:
            return tok.value
        if tok.type == TokenType.OPERATOR and tok.value == "-":
            nxt = self._advance()
            if nxt.type == TokenType.NUMBER:
                return -_number(nxt.value)
        raise SqlSyntaxError("expected a literal option value", self.sql, tok.pos)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._accept_keyword("or"):
            left = ast.BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._accept_keyword("and"):
            left = ast.BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._accept_keyword("not"):
            return ast.UnaryOp("not", self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        tok = self._peek()
        if tok.type == TokenType.OPERATOR and tok.value in _COMPARISON_OPS:
            self._advance()
            right = self._additive()
            return ast.BinaryOp(tok.value, left, right)
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            tok = self._peek()
            if tok.type == TokenType.OPERATOR and tok.value in _ADDITIVE_OPS:
                self._advance()
                left = ast.BinaryOp(tok.value, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            tok = self._peek()
            if tok.type == TokenType.OPERATOR and tok.value in _MULTIPLICATIVE_OPS:
                self._advance()
                left = ast.BinaryOp(tok.value, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expr:
        if self._accept_operator("-"):
            return ast.UnaryOp("-", self._unary())
        return self._postfix()

    def _postfix(self) -> ast.Expr:
        expr = self._primary()
        while self._accept_operator("::"):
            tok = self._advance()
            if tok.type not in (TokenType.IDENT, TokenType.KEYWORD):
                raise SqlSyntaxError("expected type name after ::", self.sql, tok.pos)
            type_name = tok.value
            if self._accept_punct("["):
                self._expect_punct("]")
                type_name += "[]"
            expr = ast.Cast(expr, type_name)
        return expr

    def _primary(self) -> ast.Expr:
        tok = self._advance()
        if tok.type == TokenType.NUMBER:
            return ast.Literal(_number(tok.value))
        if tok.type == TokenType.STRING:
            return ast.Literal(tok.value)
        if tok.is_keyword("null"):
            return ast.Literal(None)
        if tok.is_keyword("true"):
            return ast.Literal(True)
        if tok.is_keyword("false"):
            return ast.Literal(False)
        if tok.is_keyword("array"):
            self._expect_punct("[")
            items = [self._expr()]
            while self._accept_punct(","):
                items.append(self._expr())
            self._expect_punct("]")
            return ast.ArrayLiteral(tuple(items))
        if tok.type == TokenType.PUNCT and tok.value == "(":
            inner = self._expr()
            self._expect_punct(")")
            return inner
        if tok.type == TokenType.IDENT:
            if self._accept_punct("("):
                args: list[ast.Expr] = []
                if self._accept_operator("*"):
                    args.append(ast.Star())
                elif not (self._peek().type == TokenType.PUNCT and self._peek().value == ")"):
                    args.append(self._expr())
                    while self._accept_punct(","):
                        args.append(self._expr())
                self._expect_punct(")")
                return ast.FuncCall(tok.value, tuple(args))
            if self._accept_punct("."):
                column = self._expect_ident()
                return ast.ColumnRef(column, table=tok.value)
            return ast.ColumnRef(tok.value)
        raise SqlSyntaxError(f"unexpected token {tok.value!r}", self.sql, tok.pos)


def _number(text: str) -> int | float:
    if text.isdigit():
        return int(text)
    return float(text)
