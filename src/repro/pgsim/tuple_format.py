"""Binary tuple format: heap tuple headers and datum encoding.

Rows are serialized to PostgreSQL-flavoured heap tuples::

    +--------------------------+
    | header: xmin(4) xmax(4)  |
    |         natts(2) mask(2) |
    +--------------------------+
    | null bitmap (natts bits) |
    +--------------------------+
    | datum 0, datum 1, ...    |
    +--------------------------+

Fixed-width datums are stored raw (little-endian); variable-width
datums (``text``, ``float4[]``) carry a 4-byte length prefix, like
PostgreSQL varlenas.  Vectors are ``float4[]`` — PASE "is represented
using the array data type (e.g. float[]) provided by PostgreSQL"
(Sec. II-E).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Any, Callable, Collection, Sequence

import numpy as np

from repro.pgsim.constants import TUPLE_HEADER_SIZE

_HEADER = struct.Struct("<IIHH")  # xmin, xmax, natts, infomask
assert _HEADER.size == TUPLE_HEADER_SIZE

#: Infomask bit: the tuple has at least one NULL attribute.
MASK_HAS_NULLS = 0x0001

#: xmax value meaning "not deleted".
INVALID_XID = 0


class TypeOid(enum.IntEnum):
    """Supported column types (names follow PostgreSQL's)."""

    INT4 = 23
    INT8 = 20
    FLOAT4 = 700
    FLOAT8 = 701
    TEXT = 25
    FLOAT4_ARRAY = 1021


#: SQL type name -> TypeOid, as accepted by CREATE TABLE.
SQL_TYPE_NAMES: dict[str, TypeOid] = {
    "int": TypeOid.INT4,
    "int4": TypeOid.INT4,
    "integer": TypeOid.INT4,
    "bigint": TypeOid.INT8,
    "int8": TypeOid.INT8,
    "real": TypeOid.FLOAT4,
    "float4": TypeOid.FLOAT4,
    "float": TypeOid.FLOAT8,
    "float8": TypeOid.FLOAT8,
    "double": TypeOid.FLOAT8,
    "text": TypeOid.TEXT,
    "varchar": TypeOid.TEXT,
    "float[]": TypeOid.FLOAT4_ARRAY,
    "float4[]": TypeOid.FLOAT4_ARRAY,
    "vector": TypeOid.FLOAT4_ARRAY,
}

_FIXED = {
    TypeOid.INT4: struct.Struct("<i"),
    TypeOid.INT8: struct.Struct("<q"),
    TypeOid.FLOAT4: struct.Struct("<f"),
    TypeOid.FLOAT8: struct.Struct("<d"),
}


@dataclass(frozen=True, slots=True)
class Column:
    """One column of a table schema."""

    name: str
    type_oid: TypeOid

    @classmethod
    def from_sql(cls, name: str, type_name: str) -> "Column":
        """Build a column from a SQL type name.

        Raises:
            ValueError: for unknown type names.
        """
        key = type_name.strip().lower()
        if key not in SQL_TYPE_NAMES:
            known = ", ".join(sorted(SQL_TYPE_NAMES))
            raise ValueError(f"unknown SQL type {type_name!r}; known: {known}")
        return cls(name=name, type_oid=SQL_TYPE_NAMES[key])


Schema = Sequence[Column]


def _encode_datum(type_oid: TypeOid, value: Any) -> bytes:
    if type_oid in _FIXED:
        try:
            return _FIXED[type_oid].pack(value)
        except struct.error as exc:
            raise ValueError(f"cannot encode {value!r} as {type_oid.name}: {exc}") from None
    if type_oid == TypeOid.TEXT:
        data = str(value).encode("utf-8")
        return struct.pack("<I", len(data)) + data
    if type_oid == TypeOid.FLOAT4_ARRAY:
        arr = np.ascontiguousarray(value, dtype=np.float32)
        if arr.ndim != 1:
            raise ValueError(f"float4[] datum must be 1-D, got shape {arr.shape}")
        raw = arr.tobytes()
        return struct.pack("<I", len(raw)) + raw
    raise ValueError(f"unsupported type oid: {type_oid!r}")


def _decode_datum(type_oid: TypeOid, buf: memoryview, pos: int) -> tuple[Any, int]:
    if type_oid in _FIXED:
        fmt = _FIXED[type_oid]
        (value,) = fmt.unpack_from(buf, pos)
        return value, pos + fmt.size
    (length,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    raw = bytes(buf[pos : pos + length])
    pos += length
    if type_oid == TypeOid.TEXT:
        return raw.decode("utf-8"), pos
    if type_oid == TypeOid.FLOAT4_ARRAY:
        return np.frombuffer(raw, dtype=np.float32).copy(), pos
    raise ValueError(f"unsupported type oid: {type_oid!r}")


def encode_tuple(schema: Schema, values: Sequence[Any], xmin: int = 1) -> bytes:
    """Serialize a row to heap-tuple bytes.

    ``None`` values are recorded in the null bitmap and occupy no datum
    space.
    """
    natts = len(schema)
    if len(values) != natts:
        raise ValueError(f"schema has {natts} columns, row has {len(values)} values")
    bitmap = bytearray((natts + 7) // 8)
    has_nulls = False
    body = bytearray()
    for i, (col, value) in enumerate(zip(schema, values)):
        if value is None:
            bitmap[i // 8] |= 1 << (i % 8)
            has_nulls = True
            continue
        body += _encode_datum(col.type_oid, value)
    mask = MASK_HAS_NULLS if has_nulls else 0
    return _HEADER.pack(xmin, INVALID_XID, natts, mask) + bytes(bitmap) + bytes(body)


def _skip_datum(type_oid: TypeOid, buf: memoryview, pos: int) -> int:
    """Position just past the datum at ``pos``, without decoding it."""
    if type_oid in _FIXED:
        return pos + _FIXED[type_oid].size
    (length,) = struct.unpack_from("<I", buf, pos)
    return pos + 4 + length


def decode_tuple(
    schema: Schema, data: bytes | memoryview, columns: Collection[int] | None = None
) -> list[Any]:
    """Deserialize heap-tuple bytes back to a row of Python values.

    With ``columns`` (attribute numbers) only those attributes are
    decoded and the walk stops after the last of them; every other
    attribute comes back as ``None``.
    """
    buf = memoryview(data)
    __, xmax, natts, __ = _HEADER.unpack_from(buf, 0)
    del xmax
    if natts != len(schema):
        raise ValueError(f"tuple has {natts} attributes, schema has {len(schema)}")
    pos = TUPLE_HEADER_SIZE
    bitmap = bytes(buf[pos : pos + (natts + 7) // 8])
    pos += (natts + 7) // 8
    if columns is not None:
        values: list[Any] = [None] * natts
        last = max(columns, default=-1)
        for i, col in enumerate(schema[: last + 1]):
            if bitmap[i // 8] & (1 << (i % 8)):
                continue
            if i in columns:
                values[i], pos = _decode_datum(col.type_oid, buf, pos)
            else:
                pos = _skip_datum(col.type_oid, buf, pos)
        return values
    values = []
    for i, col in enumerate(schema):
        if bitmap[i // 8] & (1 << (i % 8)):
            values.append(None)
            continue
        value, pos = _decode_datum(col.type_oid, buf, pos)
        values.append(value)
    return values


#: ``tuple_reader``'s product: ``(tuple bytes, visible) -> row``, or
#: None when ``visible(xmin, xmax)`` says no.
TupleReader = Callable[[memoryview, Callable[[int, int], bool]], "list[Any] | None"]


def tuple_reader(schema: Schema, columns: Collection[int] | None) -> TupleReader:
    """A decoder for heap-tuple bytes that returns None, without
    decoding, when the ``visible(xmin, xmax)`` it is called with says
    no.  Everything it precomputes depends on ``schema`` and ``columns``
    alone, so one reader serves every read of that projection.

    Without ``columns`` every attribute is decoded.  With ``columns``
    (attribute numbers: a projection) only those are, the rest come back
    as None, and the tuple is deformed no further than the last of them.
    When every attribute up to that one is fixed-width, a tuple without
    NULLs has each of them at an offset known from the schema alone —
    PostgreSQL's ``attcacheoff`` — so one precompiled unpack reads the
    header and all of them.  A tuple with NULLs, a variable-width
    attribute on the way, or a foreign attribute count takes the
    walking decoder, :func:`decode_tuple`.
    """
    if columns is None:

        def read_all(view: memoryview, visible: Callable) -> list[Any] | None:
            xmin, xmax, __, __ = _HEADER.unpack_from(view)
            if not visible(xmin, xmax):
                return None
            return decode_tuple(schema, view)

        return read_all

    natts = len(schema)
    wanted = frozenset(columns)
    walked = _fixed_walk(schema, wanted)
    # Header fields 0-3 (xmin, xmax, natts, infomask), the null bitmap
    # skipped, then attributes 0..last at fields 4...
    prefix = None
    if walked is not None:
        prefix = struct.Struct(
            _HEADER.format
            + "x" * ((natts + 7) // 8)
            + "".join(_FIXED[col.type_oid].format[1:] for col in walked)
        )
    unpack_prefix = prefix.unpack_from if prefix is not None else None
    min_length = prefix.size if prefix is not None else -1
    picks = [(i, 4 + i) for i in sorted(wanted)]

    def read_projected(view: memoryview, visible: Callable) -> list[Any] | None:
        if unpack_prefix is not None and len(view) >= min_length:
            fields = unpack_prefix(view)
            if not visible(fields[0], fields[1]):
                return None
            if not fields[3] & MASK_HAS_NULLS and fields[2] == natts:
                values: list[Any] = [None] * natts
                for dst, src in picks:
                    values[dst] = fields[src]
                return values
        else:
            xmin, xmax, __, __ = _HEADER.unpack_from(view)
            if not visible(xmin, xmax):
                return None
        return decode_tuple(schema, view, wanted)

    return read_projected


def _fixed_walk(schema: Schema, wanted: Collection[int]) -> list[Column] | None:
    """Attributes ``0..max(wanted)`` — what a projection deforms — or
    None when one of them is variable-width, so that their offsets are
    not known from the schema alone.

    Raises:
        IndexError: for an attribute number outside the schema.
    """
    natts = len(schema)
    for i in wanted:
        if not 0 <= i < natts:
            raise IndexError(f"column index {i} out of range 0..{natts - 1}")
    walked = list(schema)[: max(wanted, default=-1) + 1]
    return walked if all(col.type_oid in _FIXED for col in walked) else None


#: The tuple header as a NumPy record, for reading many headers at once.
HEADER_DTYPE = np.dtype([("xmin", "<u4"), ("xmax", "<u4"), ("natts", "<u2"), ("infomask", "<u2")])
assert HEADER_DTYPE.itemsize == TUPLE_HEADER_SIZE


def prefix_dtype(schema: Schema, columns: Collection[int]) -> np.dtype | None:
    """:func:`tuple_reader`'s fixed-offset prefix as one NumPy record:
    the header fields of :data:`HEADER_DTYPE`, the null bitmap, then
    attributes ``0..max(columns)`` as fields ``a0``, ``a1``, ... at their
    ``attcacheoff`` offsets.  The heap's page-at-a-time reader gathers it
    from every tuple of a chunk in one call.  The fields hold a tuple's
    values only when it has no NULLs, carries the schema's attribute
    count and is at least ``itemsize`` bytes long.

    Every attribute on the way must be fixed-width, except that the
    last, ``max(columns)``, may be a ``float4[]``: its field is then the
    array's 4-byte length word, and its ``length / 4`` floats follow at
    ``itemsize`` (:func:`prefix_array` names that attribute).  None
    when any other variable-width attribute lies on the way.

    Raises:
        IndexError: for an attribute number outside the schema.
    """
    walked = _fixed_walk(schema, columns)
    array = prefix_array(schema, columns)
    if array is not None:
        walked = _fixed_walk(schema, range(array))
        walked = None if walked is None else [*walked, schema[array]]
    if walked is None:
        return None
    fields = HEADER_DTYPE.descr + [("nulls", f"V{(len(schema) + 7) // 8}")]
    fields += [(f"a{i}", _prefix_format(col)) for i, col in enumerate(walked)]
    return np.dtype(fields)


def prefix_array(schema: Schema, columns: Collection[int]) -> int | None:
    """The ``float4[]`` attribute a :func:`prefix_dtype` prefix of
    ``columns`` ends in (the last of ``columns``), or None when that
    attribute is fixed-width."""
    last = max(columns, default=-1)
    if last >= 0 and schema[last].type_oid == TypeOid.FLOAT4_ARRAY:
        return last
    return None


def _prefix_format(col: Column) -> str:
    """An attribute's field in :func:`prefix_dtype`: its datum, or a
    ``float4[]``'s length word."""
    return "<u4" if col.type_oid == TypeOid.FLOAT4_ARRAY else _FIXED[col.type_oid].format


def column_values(column: list[Any] | np.ndarray) -> list[Any]:
    """A column the heap's column-wise reader hands out, as a list of
    Python values: an int / float array's items, a ``(rows, d)``
    ``float4[]`` array's rows as the 1-D float32 arrays the tuple
    decoder returns, a list as it is."""
    if not isinstance(column, np.ndarray):
        return column
    return list(column) if column.ndim == 2 else column.tolist()


def tuple_xmin(data: bytes | memoryview) -> int:
    """Read the inserting transaction id."""
    return _HEADER.unpack_from(memoryview(data), 0)[0]


def tuple_xmax(data: bytes | memoryview) -> int:
    """Read the deleting transaction id (0 = live)."""
    return _HEADER.unpack_from(memoryview(data), 0)[1]


def tuple_header(data: bytes | memoryview) -> tuple[int, int]:
    """Read ``(xmin, xmax)`` in one unpack (the visibility hot path)."""
    xmin, xmax, __, __ = _HEADER.unpack_from(memoryview(data), 0)
    return xmin, xmax


def set_tuple_xmax(data: bytearray, xmax: int) -> None:
    """Stamp the deleting transaction id in place."""
    struct.pack_into("<I", data, 4, xmax)


def decode_column(
    schema: Schema, data: bytes | memoryview, column_index: int
) -> Any:
    """Decode a single column without materializing the whole row.

    This is the hot path for PASE's index scans, which only need the
    vector column out of each fetched tuple.
    """
    buf = memoryview(data)
    __, __, natts, __ = _HEADER.unpack_from(buf, 0)
    if natts != len(schema):
        raise ValueError(f"tuple has {natts} attributes, schema has {len(schema)}")
    if not 0 <= column_index < natts:
        raise IndexError(f"column index {column_index} out of range 0..{natts - 1}")
    pos = TUPLE_HEADER_SIZE
    bitmap = bytes(buf[pos : pos + (natts + 7) // 8])
    pos += (natts + 7) // 8
    for i, col in enumerate(schema):
        is_null = bool(bitmap[i // 8] & (1 << (i % 8)))
        if i == column_index:
            if is_null:
                return None
            value, __ = _decode_datum(col.type_oid, buf, pos)
            return value
        if not is_null:
            pos = _skip_datum(col.type_oid, buf, pos)
    raise AssertionError("unreachable")
