"""SQL expression evaluation, including vector operators.

Distance semantics: like Faiss, all engines in this reproduction
return *squared* Euclidean distance for ``<->`` (ordering is identical
to true Euclidean, and the paper's figures compare times, not
distance values).  ``<#>`` returns the negated inner product and
``<=>`` the cosine distance, both "smaller is more similar".

NULL semantics follow PostgreSQL: ``None`` is SQL NULL, a comparison
or arithmetic operator with a NULL operand yields NULL, AND / OR / NOT
use three-valued logic, and a WHERE clause keeps a row only when its
predicate is TRUE.  :func:`evaluate` is the one definition;
:func:`evaluate_batch` computes the same WHERE verdicts column-wise.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

import numpy as np

from repro.common.distance import cosine_distance, inner_product, l2_sqr
from repro.pgsim.sql import ast


class ExpressionError(ValueError):
    """Raised when an expression cannot be evaluated."""


def parse_vector_text(text: str) -> np.ndarray:
    """Parse a SQL vector literal body.

    Accepts both PASE's bare form (``'0.1,0.2,0.3'``) and pgvector's
    bracketed form (``'[0.1,0.2,0.3]'``).
    """
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body:
        raise ExpressionError("empty vector literal")
    try:
        values = [float(part) for part in body.split(",")]
    except ValueError as exc:
        raise ExpressionError(f"bad vector literal {text!r}: {exc}") from None
    return np.asarray(values, dtype=np.float32)


#: SQL type names that coerce a string literal to a vector.
VECTOR_TYPE_NAMES = {"pase", "vector", "float[]", "float4[]"}


def coerce_vector(value: Any) -> np.ndarray:
    """Coerce an evaluated value to a float32 vector."""
    if isinstance(value, np.ndarray):
        return np.ascontiguousarray(value, dtype=np.float32)
    if isinstance(value, str):
        return parse_vector_text(value)
    if isinstance(value, (list, tuple)):
        return np.asarray(value, dtype=np.float32)
    raise ExpressionError(f"cannot interpret {type(value).__name__} as a vector")


def evaluate(expr: ast.Expr, row: Mapping[str, Any] | None = None) -> Any:
    """Evaluate ``expr`` against a row (column name -> value)."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        if row is None:
            raise ExpressionError(f"column {expr.name!r} referenced without a row")
        try:
            return row[expr.name]
        except KeyError:
            raise ExpressionError(f"no such column: {expr.name!r}") from None
    if isinstance(expr, ast.ArrayLiteral):
        return np.asarray(
            [evaluate(item, row) for item in expr.items], dtype=np.float32
        )
    if isinstance(expr, ast.Cast):
        value = evaluate(expr.operand, row)
        return None if value is None else _cast(value, expr.type_name)
    if isinstance(expr, ast.UnaryOp):
        value = evaluate(expr.operand, row)
        if expr.op == "-":
            return None if value is None else -value
        if expr.op == "not":
            return None if value is None else not value
        raise ExpressionError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.BinaryOp):
        return _binary(expr, row)
    if isinstance(expr, ast.FuncCall):
        return _call(expr, row)
    if isinstance(expr, ast.Star):
        raise ExpressionError("'*' is only valid as a SELECT target or in count(*)")
    raise ExpressionError(f"cannot evaluate {type(expr).__name__}")


def _cast(value: Any, type_name: str) -> Any:
    name = type_name.lower()
    if name in VECTOR_TYPE_NAMES:
        return coerce_vector(value)
    if name in ("int", "int4", "integer", "bigint", "int8"):
        return int(value)
    if name in ("float", "float4", "float8", "real", "double"):
        return float(value)
    if name in ("text", "varchar"):
        return str(value)
    raise ExpressionError(f"unknown cast target {type_name!r}")


#: Operators whose result is NULL when either operand is NULL.
_STRICT_OPERATORS = frozenset({"=", "<>", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/"})


def _binary(expr: ast.BinaryOp, row: Mapping[str, Any] | None) -> Any:
    op = expr.op
    # AND / OR follow SQL's three-valued logic: NULL is "unknown", so
    # FALSE AND NULL is FALSE, TRUE OR NULL is TRUE, and anything else
    # involving a NULL is NULL.
    if op == "and":
        left = evaluate(expr.left, row)
        if left is not None and not left:
            return False
        right = evaluate(expr.right, row)
        if right is not None and not right:
            return False
        return None if left is None or right is None else True
    if op == "or":
        left = evaluate(expr.left, row)
        if left:
            return True
        right = evaluate(expr.right, row)
        if right:
            return True
        return None if left is None or right is None else False

    left = evaluate(expr.left, row)
    right = evaluate(expr.right, row)
    if op in _STRICT_OPERATORS and (left is None or right is None):
        return None
    if op in ast.DISTANCE_OPERATORS:
        a = coerce_vector(left)
        b = coerce_vector(right)
        if a.shape != b.shape:
            raise ExpressionError(
                f"vector dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
            )
        metric = ast.DISTANCE_OPERATORS[op]
        if metric == "l2":
            return l2_sqr(a, b)
        if metric == "inner_product":
            return -inner_product(a, b)
        return cosine_distance(a, b)
    if op == "=":
        return _equals(left, right)
    if op in ("<>", "!="):
        return not _equals(left, right)
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExpressionError("division by zero")
        return left / right
    raise ExpressionError(f"unknown operator {op!r}")


def _equals(left: Any, right: Any) -> bool:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        a = coerce_vector(left)
        b = coerce_vector(right)
        return a.shape == b.shape and bool(np.array_equal(a, b))
    return left == right


_SCALAR_FUNCS = {
    "abs": abs,
    "sqrt": math.sqrt,
    "floor": math.floor,
    "ceil": math.ceil,
}


def _call(expr: ast.FuncCall, row: Mapping[str, Any] | None) -> Any:
    name = expr.name.lower()
    if name in _SCALAR_FUNCS:
        if len(expr.args) != 1:
            raise ExpressionError(f"{name}() takes exactly one argument")
        value = evaluate(expr.args[0], row)
        return None if value is None else _SCALAR_FUNCS[name](value)
    if name == "vector_dims":
        vec = coerce_vector(evaluate(expr.args[0], row))
        return int(vec.shape[0])
    if name in ("l2_distance", "inner_product", "cosine_distance"):
        if len(expr.args) != 2:
            raise ExpressionError(f"{name}() takes exactly two arguments")
        a = coerce_vector(evaluate(expr.args[0], row))
        b = coerce_vector(evaluate(expr.args[1], row))
        if name == "l2_distance":
            return l2_sqr(a, b)
        if name == "inner_product":
            return inner_product(a, b)
        return cosine_distance(a, b)
    raise ExpressionError(f"unknown function {expr.name!r}")


def is_constant(expr: ast.Expr) -> bool:
    """True when ``expr`` references no columns (planner utility)."""
    return not any(isinstance(e, ast.ColumnRef) for e in ast.walk(expr))


def column_refs(expr: ast.Expr | None) -> list[str]:
    """Distinct column names ``expr`` references, in first-seen order."""
    if expr is None:
        return []
    return list(dict.fromkeys(e.name for e in ast.walk(expr) if isinstance(e, ast.ColumnRef)))


# ----------------------------------------------------------------------
# column-at-a-time WHERE evaluation
# ----------------------------------------------------------------------
#: Comparison operator -> the NumPy ufunc computing it over a column.
_BATCH_COMPARISONS = {
    "=": np.equal,
    "<>": np.not_equal,
    "!=": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
}
#: Integers float64 holds exactly; an int compared with a float outside
#: this range could get a different answer in float64 than in Python.
_FLOAT_EXACT = 2**53
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
#: Fewer rows than this go row by row: the column-wise path costs about
#: 8 us per call before its first row (column conversion, ufunc set-up),
#: :func:`evaluate` about 1 us per row of a simple comparison.  HNSW's
#: in-filter mask asks about a handful of neighbours at a time.
_MIN_VECTORISED_ROWS = 8


def evaluate_batch(expr: ast.Expr, columns: Mapping[str, Sequence[Any]], n: int) -> np.ndarray:
    """WHERE verdicts for ``n`` rows given column-wise.

    ``columns`` maps each column ``expr`` references to its ``n`` values:
    a sequence of Python values, or an int64 / float64 array (a
    NULL-free numeric column, as the heap's column-wise scan hands them
    out).  Returns a bool mask whose ``i``-th entry is True exactly when
    ``evaluate(expr, row_i)`` is TRUE (FALSE and NULL both drop a row).

    ``= <> != < > <= >=`` between int / float columns and numeric
    literals, nested under AND / OR / NOT, are computed once per column
    in int64 / float64.  Any other expression (text, vectors, functions,
    arithmetic), every row holding a NULL in a referenced column, and
    batches too small to repay the column set-up go through
    :func:`evaluate` row by row, on Python values.
    """
    vectorised = None
    if n >= _MIN_VECTORISED_ROWS:
        vectorised = _vectorised(expr, column_refs(expr), columns, n)
    if vectorised is None:
        mask, row_by_row = np.zeros(n, dtype=bool), range(n)
    else:
        mask, row_by_row = vectorised
    if not len(row_by_row):
        return mask
    values = {
        name: column.tolist() if isinstance(column, np.ndarray) else column
        for name, column in columns.items()
    }
    for i in row_by_row:
        row = {name: column[i] for name, column in values.items()}
        mask[i] = bool(evaluate(expr, row))
    return mask


def _vectorised(
    expr: ast.Expr, names: list[str], columns: Mapping[str, Sequence[Any]], n: int
) -> tuple[np.ndarray, list[int]] | None:
    """The column-wise verdicts of ``expr`` and the rows they cannot
    speak for (a NULL in a referenced column), or None when ``expr`` or
    its columns are not of the vectorised kind."""
    if not _vectorisable(expr) or not all(name in columns for name in names):
        return None
    arrays: dict[str, np.ndarray] = {}
    null_rows: set[int] = set()
    for name in names:
        converted = _numeric_column(columns[name])
        if converted is None:
            return None
        arrays[name], nulls = converted
        null_rows.update(nulls)
    mask = _batch_qual(expr, arrays, n)
    return None if mask is None else (mask, sorted(null_rows))


def _vectorisable(expr: ast.Expr) -> bool:
    """Only AND / OR / NOT over numeric comparisons of columns and literals."""
    if isinstance(expr, ast.UnaryOp):
        return expr.op == "not" and _vectorisable(expr.operand)
    if not isinstance(expr, ast.BinaryOp):
        return False
    if expr.op in ("and", "or"):
        return _vectorisable(expr.left) and _vectorisable(expr.right)
    return expr.op in _BATCH_COMPARISONS and all(
        isinstance(side, ast.ColumnRef) or _numeric_literal(side) is not None
        for side in (expr.left, expr.right)
    )


def _numeric_literal(expr: ast.Expr) -> int | float | None:
    """The value of an int64 / float literal, possibly negated."""
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        value = _numeric_literal(expr.operand)
        value = None if value is None else -value
    elif isinstance(expr, ast.Literal) and type(expr.value) in (int, float):
        value = expr.value
    else:
        return None
    if type(value) is int and not _INT64_MIN <= value <= _INT64_MAX:
        return None
    return value


def _numeric_column(values: Sequence[Any]) -> tuple[np.ndarray, list[int]] | None:
    """``(array, NULL positions)`` of an all-int (int64) or all-float
    (float64) column, NULLs reading as 0 in the array; None for any other
    column, or ints beyond int64."""
    if isinstance(values, np.ndarray):
        return values, []
    kinds = set(map(type, values))
    null_rows: list[int] = []
    if type(None) in kinds:
        kinds.discard(type(None))
        null_rows = [i for i, value in enumerate(values) if value is None]
        values = [0 if value is None else value for value in values]
    if kinds not in ({int}, {float}, set()):
        return None
    try:
        return np.array(values, dtype=np.float64 if float in kinds else np.int64), null_rows
    except OverflowError:
        return None


def _batch_qual(expr: ast.Expr, arrays: Mapping[str, np.ndarray], n: int) -> np.ndarray | None:
    """Two-valued verdicts of a :func:`_vectorisable` expression over
    NULL-free columns; None if an int / float comparison is not exact."""
    if isinstance(expr, ast.UnaryOp):
        inner = _batch_qual(expr.operand, arrays, n)
        return None if inner is None else ~inner
    assert isinstance(expr, ast.BinaryOp)
    if expr.op in ("and", "or"):
        left = _batch_qual(expr.left, arrays, n)
        right = _batch_qual(expr.right, arrays, n)
        if left is None or right is None:
            return None
        return left & right if expr.op == "and" else left | right
    sides = [
        arrays[side.name] if isinstance(side, ast.ColumnRef) else _numeric_literal(side)
        for side in (expr.left, expr.right)
    ]
    ints = [_int_side(side) for side in sides]
    if ints[0] != ints[1] and not _float_exact(sides[ints.index(True)]):
        return None
    result = _BATCH_COMPARISONS[expr.op](*sides)
    return np.full(n, bool(result)) if np.ndim(result) == 0 else result


def _int_side(side: Any) -> bool:
    return side.dtype.kind == "i" if isinstance(side, np.ndarray) else type(side) is int


def _float_exact(side: Any) -> bool:
    """Every integer in ``side`` converts to float64 without rounding."""
    if isinstance(side, np.ndarray):
        if side.size == 0:
            return True
        return -_FLOAT_EXACT <= int(side.min()) and int(side.max()) <= _FLOAT_EXACT
    return -_FLOAT_EXACT <= side <= _FLOAT_EXACT
