"""Immutable relational tables with primary keys, canonical serialization, and digests.

Tables are value objects: every operation returns a new table and never mutates
its input. A cell is either a text string or None (null). Rows are stored in
canonical order (sorted by their primary-key cells), so two tables holding the
same rows compare equal regardless of insertion order, serialize to identical
bytes, and share one SHA-256 digest.

Rows from outside the program (scenario files, dumps, a caller's rows and
changes) are validated once, by the `Table(...)` constructor or by the CRUD
operation that receives them. Tables the program derives from valid tables
(CRUD results, `with_id`, lens `get` and `put`) skip that check: CRUD splices
the one row it touches into the sorted rows and shares every other row with
its input, so an edit costs one validated row plus two C-level copies.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

Value = Optional[str]  # a cell: text, or None for null
Row = dict[str, Value]

ZERO_DIGEST = "0" * 64


def canonical_json(obj: object) -> bytes:
    """Compact UTF-8 JSON with sorted keys; stable across runs and platforms."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tuple_getter(attrs: Sequence[str]) -> Callable[[Mapping[str, Value]], tuple[Value, ...]]:
    """A function from a row to the tuple of its cells at `attrs`, in that order."""
    if len(attrs) == 1:
        (attr,) = attrs
        return lambda row: (row[attr],)
    return itemgetter(*attrs) if attrs else lambda row: ()


class RelationalError(Exception):
    """Base class for table errors."""


class SchemaMismatch(RelationalError):
    """A row, key binding, or change set does not fit the table's schema."""


class KeyConflict(RelationalError):
    """Two rows would share the same primary-key cells."""


class NotFound(RelationalError):
    """No row matches the given key."""


class KeyImmutable(RelationalError):
    """An update tried to change a primary-key attribute."""


class UnknownAttribute(RelationalError):
    """An attribute name is not part of the schema."""


@dataclass(frozen=True)
class Schema:
    """Ordered attribute names plus a primary key (non-empty subset of attrs)."""

    attrs: tuple[str, ...]
    key: tuple[str, ...]
    # Derived from `key`: maps a row to its primary-key tuple.
    key_of: Callable[[Mapping[str, Value]], tuple[Value, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        attrs = tuple(self.attrs)
        key = tuple(self.key)
        object.__setattr__(self, "attrs", attrs)
        object.__setattr__(self, "key", key)
        if not attrs:
            raise SchemaMismatch("schema needs at least one attribute")
        for a in attrs:
            if not isinstance(a, str) or not a:
                raise SchemaMismatch(f"bad attribute name: {a!r}")
        if len(set(attrs)) != len(attrs):
            raise SchemaMismatch(f"duplicate attribute names in {attrs}")
        if not key:
            raise SchemaMismatch("primary key must not be empty")
        if len(set(key)) != len(key):
            raise SchemaMismatch(f"duplicate key attributes in {key}")
        missing = [k for k in key if k not in attrs]
        if missing:
            raise UnknownAttribute(f"key attributes not in schema: {missing}")
        object.__setattr__(self, "key_of", tuple_getter(key))

    def to_json_dict(self) -> dict:
        return {"attrs": list(self.attrs), "key": list(self.key)}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Schema":
        return cls(tuple(d["attrs"]), tuple(d["key"]))


def _normalize_row(schema: Schema, row: Mapping[str, Value]) -> Row:
    """Validate a row against the schema and order its cells by schema attrs."""
    given = set(row)
    declared = set(schema.attrs)
    if given != declared:
        extra = sorted(given - declared)
        missing = sorted(declared - given)
        raise SchemaMismatch(f"row cells do not match schema (extra={extra}, missing={missing})")
    for a in schema.attrs:
        v = row[a]
        if v is not None and not isinstance(v, str):
            raise SchemaMismatch(f"cell {a!r} must be a string or null, got {type(v).__name__}")
    for k in schema.key:
        if row[k] is None:
            raise SchemaMismatch(f"primary-key cell {k!r} must not be null")
    return {a: row[a] for a in schema.attrs}


@dataclass(frozen=True)
class Table:
    """An immutable table: id, schema, and rows unique on the primary key.

    `Table(...)` validates, sorts and indexes every row; it is the entry point
    for rows from outside the program. Tables derived from a valid table skip
    it (`_derived`), and the operations below share unchanged row dicts with
    their input. Row dicts are owned by the table after construction; callers
    must not mutate them. All editing goes through the operations below, each
    of which returns a new table. The digest is computed once per table.
    """

    id: str
    schema: Schema
    rows: tuple[Row, ...] = ()
    # Derived from `rows`: the rows by primary-key tuple, and the digest once computed.
    _by_key: dict[tuple[Value, ...], Row] = field(init=False, repr=False, compare=False)
    _digest: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        normalized = [_normalize_row(self.schema, r) for r in self.rows]
        normalized.sort(key=self.schema.key_of)
        by_key: dict[tuple[Value, ...], Row] = {}
        for row in normalized:
            k = self.schema.key_of(row)
            if k in by_key:
                raise KeyConflict(f"duplicate primary key {k} in table {self.id!r}")
            by_key[k] = row
        object.__setattr__(self, "rows", tuple(normalized))
        object.__setattr__(self, "_by_key", by_key)

    @classmethod
    def _derived(
        cls, id: str, schema: Schema, rows: tuple[Row, ...], by_key: dict[tuple[Value, ...], Row]
    ) -> "Table":
        """A table from rows already valid for `schema`, in key order, with `by_key` their index.

        Nothing is checked: the caller guarantees what `__post_init__` would.
        The index may list its keys in any order.
        """
        table = object.__new__(cls)
        table.__dict__.update(id=id, schema=schema, rows=rows, _by_key=by_key)
        return table

    @classmethod
    def _sorted(cls, id: str, schema: Schema, rows: Sequence[Row]) -> "Table":
        """A table from valid rows with distinct keys, in any order; sorted and indexed only."""
        by_key = dict(sorted(zip(map(schema.key_of, rows), rows), key=itemgetter(0)))
        return cls._derived(id, schema, tuple(by_key.values()), by_key)

    def _bind_key(self, key: Mapping[str, Value]) -> tuple[str, ...]:
        if set(key) != set(self.schema.key) or not all(isinstance(v, str) for v in key.values()):
            raise SchemaMismatch(
                f"key must bind the primary-key attributes {self.schema.key} to strings, got {dict(key)}"
            )
        return tuple(key[k] for k in self.schema.key)  # type: ignore[return-value]

    def _position(self, k: tuple[str, ...]) -> int:
        """Where a row keyed `k` sits, or would sit, in the sorted rows."""
        return bisect_left(self.rows, k, key=self.schema.key_of)

    def get_row(self, key: Mapping[str, Value]) -> Optional[Row]:
        """The row matching the key, or None. The result must not be mutated."""
        return self._by_key.get(self._bind_key(key))

    def insert_row(self, row: Mapping[str, Value]) -> "Table":
        """Add one row; the key cells must be fresh."""
        normalized = _normalize_row(self.schema, row)
        k = self.schema.key_of(normalized)
        if k in self._by_key:
            raise KeyConflict(f"row with key {k} already in table {self.id!r}")
        i = self._position(k)
        by_key = {**self._by_key, k: normalized}
        return Table._derived(self.id, self.schema, self.rows[:i] + (normalized,) + self.rows[i:], by_key)

    def update_row(self, key: Mapping[str, Value], changes: Mapping[str, Value]) -> "Table":
        """Overwrite cells of the row matching `key`; key attributes are immutable."""
        k = self._bind_key(key)
        for a, v in changes.items():
            if a not in self.schema.attrs:
                raise SchemaMismatch(f"changed attribute {a!r} not in schema")
            if a in self.schema.key:
                raise KeyImmutable(f"cannot change primary-key attribute {a!r}")
            if v is not None and not isinstance(v, str):
                raise SchemaMismatch(f"cell {a!r} must be a string or null")
        old = self._by_key.get(k)
        if old is None:
            raise NotFound(f"no row with key {k} in table {self.id!r}")
        if not changes:
            return self
        new_row = {**old, **changes}
        i = self._position(k)
        by_key = {**self._by_key, k: new_row}
        return Table._derived(self.id, self.schema, self.rows[:i] + (new_row,) + self.rows[i + 1 :], by_key)

    def delete_row(self, key: Mapping[str, Value]) -> "Table":
        """Remove the row matching `key`."""
        k = self._bind_key(key)
        if k not in self._by_key:
            raise NotFound(f"no row with key {k} in table {self.id!r}")
        i = self._position(k)
        by_key = dict(self._by_key)
        del by_key[k]
        return Table._derived(self.id, self.schema, self.rows[:i] + self.rows[i + 1 :], by_key)

    def project(self, attrs: Sequence[str]) -> frozenset[tuple[Value, ...]]:
        """Project onto `attrs` with set semantics: duplicate rows collapse."""
        unknown = [a for a in attrs if a not in self.schema.attrs]
        if unknown:
            raise UnknownAttribute(f"cannot project on unknown attributes {unknown}")
        return frozenset(map(tuple_getter(attrs), self.rows))

    def check_fd(self, determinant: Iterable[str], dependent: Iterable[str]) -> bool:
        """True iff no two rows agree on `determinant` yet differ on `dependent`."""
        det = tuple(sorted(set(determinant)))
        dep = tuple(sorted(set(dependent)))
        unknown = [a for a in det + dep if a not in self.schema.attrs]
        if unknown:
            raise UnknownAttribute(f"unknown attributes in dependency check: {unknown}")
        if set(self.schema.key) <= set(det):
            return True  # the determinant covers the primary key, which is unique
        # It holds iff each determinant value comes with exactly one dependent
        # value, that is iff adding the dependent cells splits no determinant group.
        both = tuple(sorted(set(det) | set(dep)))
        return len(set(map(tuple_getter(both), self.rows))) == len(set(map(tuple_getter(det), self.rows)))

    def with_id(self, new_id: str) -> "Table":
        """The same table value under a different id; rows and index are shared."""
        return Table._derived(new_id, self.schema, self.rows, self._by_key)

    def to_json_dict(self) -> dict:
        """The persistence form: rows as value arrays in schema order, canonical row order."""
        return {
            "id": self.id,
            "schema": self.schema.to_json_dict(),
            "rows": list(map(list, map(tuple_getter(self.schema.attrs), self.rows))),
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Table":
        schema = Schema.from_json_dict(d["schema"])
        attrs, width = schema.attrs, len(schema.attrs)
        # zip would drop extra cells and split a string row into characters
        rows = [dict(zip(attrs, cells)) for cells in d["rows"] if type(cells) is list and len(cells) == width]
        if len(rows) != len(d["rows"]):
            raise SchemaMismatch(f"every row must be a list of {width} cells, one per schema attribute")
        return cls(d["id"], schema, tuple(rows))

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization; equal tables yield identical bytes."""
        return canonical_json(self.to_json_dict())

    def digest(self) -> str:
        """SHA-256 over the canonical bytes; equal digests iff equal tables.

        Computed on first use and kept on the table (the bytes are not kept).
        """
        digest = self._digest
        if digest is None:
            digest = sha256_hex(self.canonical_bytes())
            object.__setattr__(self, "_digest", digest)
        return digest
