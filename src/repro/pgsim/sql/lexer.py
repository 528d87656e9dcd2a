"""SQL tokenizer.

Hand-rolled scanner producing a flat token list.  The only unusual
tokens are the vector distance operators ``<->`` (Euclidean), ``<#>``
(inner product) and ``<=>`` (cosine) and the PostgreSQL cast operator
``::`` used by PASE's vector literals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TokenType(enum.Enum):
    """Lexical token categories."""

    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = {
    "create", "table", "drop", "index", "on", "using", "with",
    "insert", "into", "values", "select", "from", "where",
    "order", "by", "asc", "desc", "limit", "set", "show",
    "explain", "and", "or", "not", "null", "true", "false",
    "array", "as", "if", "exists", "vacuum", "begin", "commit",
    "distinct", "delete", "update", "analyze", "reindex", "all",
    "rollback", "work", "transaction",
}

# Multi-character operators, longest first so the scanner is greedy.
_OPERATORS = [
    "<->", "<#>", "<=>", "::", "<=", ">=", "<>", "!=", "=", "<", ">",
    "+", "-", "*", "/",
]

_PUNCT = set("(),;[].")


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    type: TokenType
    value: str
    pos: int

    def is_keyword(self, word: str) -> bool:
        return self.type == TokenType.KEYWORD and self.value == word


class SqlSyntaxError(ValueError):
    """Raised for lexical or grammatical errors, with position info."""

    def __init__(self, message: str, sql: str = "", pos: int = 0) -> None:
        context = ""
        if sql:
            start = max(pos - 20, 0)
            context = f" near ...{sql[start : pos + 10]!r}"
        super().__init__(f"{message}{context}")
        self.pos = pos


def _string_literal(sql: str, i: int) -> tuple[str, int, int]:
    """Scan the ``'...'`` literal opening at ``sql[i]``.

    Returns ``(value, token position, index of the closing quote)``.  It
    jumps from quote to quote, since a vector literal runs to ~1 000
    characters.  A doubled quote is an escaped one; the position moves
    to the second quote of the last such pair, and an unterminated
    literal is reported there too.
    """
    parts: list[str] = []
    while True:
        end = sql.find("'", i + 1)
        if end < 0:
            raise SqlSyntaxError("unterminated string literal", sql, i)
        if not sql.startswith("'", end + 1):
            break
        parts.append(sql[i + 1 : end + 1])
        i = end + 1
    parts.append(sql[i + 1 : end])
    return "".join(parts), i, end


def tokenize(sql: str) -> list[Token]:
    """Scan ``sql`` into tokens (always ends with an EOF token)."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):  # line comment
            nl = sql.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if ch == "'":
            value, pos, end = _string_literal(sql, i)
            tokens.append(Token(TokenType.STRING, value, pos))
            i = end + 1
            continue
        if ch == '"':  # quoted identifier
            end = sql.find('"', i + 1)
            if end < 0:
                raise SqlSyntaxError("unterminated quoted identifier", sql, i)
            tokens.append(Token(TokenType.IDENT, sql[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            end = i
            seen_dot = False
            seen_exp = False
            while end < n:
                c = sql[end]
                if c.isdigit():
                    end += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    end += 1
                elif c in "eE" and not seen_exp and end > i:
                    seen_exp = True
                    end += 1
                    if end < n and sql[end] in "+-":
                        end += 1
                else:
                    break
            tokens.append(Token(TokenType.NUMBER, sql[i:end], i))
            i = end
            continue
        if ch.isalpha() or ch == "_":
            end = i
            while end < n and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            word = sql[i:end]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, lowered, i))
            else:
                tokens.append(Token(TokenType.IDENT, lowered, i))
            i = end
            continue
        matched = False
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", sql, i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens
