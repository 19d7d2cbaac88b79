"""Immutable relational tables with primary keys, canonical serialization, and digests.

Tables are value objects: every operation returns a new table and never mutates
its input. A cell is either a text string or None (null). Rows are stored in
canonical order (sorted by their primary-key cells), so two tables holding the
same rows compare equal regardless of insertion order, serialize to identical
bytes, and share one SHA-256 digest.

Rows from outside the program (scenario files, dumps, a caller's rows and
changes) are validated once, by the `Table(...)` constructor or by the CRUD
operation that receives them. Tables the program derives from valid tables
(CRUD results, `with_id`, lens `get` and `put`) skip that check: they splice
the rows they change into the sorted rows (`_spliced`) and share every other
row with their input, so an edit costs its validated rows plus C-level copies.

A table's canonical JSON is a fixed prefix, its row fragments (each row's
cells, encoded without brackets) joined by `],[`, and a fixed suffix. The
first `digest()` of a table encodes all its rows in one encoder call and keeps
one fragment per row; a table spliced from it shares the fragments of the rows
it keeps and encodes only its new rows, so its digest joins and hashes.

Because derived tables share their unchanged rows, two versions of a table
differ only in the rows that are not the same object in both:
`Table.changes_since` is the one diff the lenses and peers use. A splice also
knows which keys it changed, so it logs them: the tables spliced one from the
next share one change log (a line), each holding its position in it. Between
two tables of one line, rows can differ only at the keys logged in between,
and the diff looks up only those, so it costs the rows an edit touched. A
branch (a splice from a table that is no longer the newest of its line) starts
a new line, and so does a splice once its line has logged as many keys as the
table has rows, which keeps a log O(rows). Any other pair of tables, such as a
table from `Table(...)` or `with_id` against its successors, is diffed by
scanning its rows. A log is bookkeeping, not part of any table's value.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress
from operator import is_not, itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

Value = Optional[str]  # a cell: text, or None for null
Row = dict[str, Value]

ZERO_DIGEST = "0" * 64
_ROW_SEP = b"],["  # between two row fragments in a table's canonical JSON


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode


def canonical_json(obj: object) -> bytes:
    """Compact UTF-8 JSON with sorted keys; stable across runs and platforms."""
    return _encode(obj).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fragments(rows_json: bytes, rows: Sequence[Row], cells_of: Callable[[Row], tuple[Value, ...]]) -> list[bytes]:
    """Each row's fragment in `rows_json`, the canonical JSON of `rows` as cell lists.

    A fragment is a row's encoding without its brackets, so the list encodes as
    `[[`, the fragments joined by `],[`, and `]]`. Splitting at `],[` yields
    one piece per row unless a cell holds `],[` itself; then each row is
    encoded on its own.
    """
    if not rows:
        return []
    fragments = rows_json[2:-2].split(_ROW_SEP)
    if len(fragments) != len(rows):
        fragments = [canonical_json(list(cells_of(row)))[1:-1] for row in rows]
    return fragments


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
    # Derived: maps a row to its primary-key tuple, and to its cells in `attrs` order.
    key_of: Callable[[Mapping[str, Value]], tuple[Value, ...]] = field(init=False, repr=False, compare=False)
    cells_of: Callable[[Mapping[str, Value]], tuple[Value, ...]] = field(init=False, repr=False, compare=False)
    _json: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

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
        object.__setattr__(self, "cells_of", tuple_getter(attrs))

    def to_json_dict(self) -> dict:
        return {"attrs": list(self.attrs), "key": list(self.key)}

    def canonical_bytes(self) -> bytes:
        """`canonical_json(self.to_json_dict())`, encoded on first use and kept."""
        if self._json is None:
            object.__setattr__(self, "_json", canonical_json(self.to_json_dict()))
        return self._json  # type: ignore[return-value]

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Schema":
        return cls(names_of(d["attrs"], "schema attrs"), names_of(d["key"], "schema key"))


def names_of(doc: object, what: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; a string would otherwise split into characters."""
    if type(doc) is not list or not all(isinstance(name, str) for name in doc):
        raise SchemaMismatch(f"{what} must be a list of strings, got {doc!r}")
    return tuple(doc)


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
    of which returns a new table. The digest is computed once per table, and
    with it the row fragments that tables spliced from this one share.
    """

    id: str
    schema: Schema
    rows: tuple[Row, ...] = ()
    # Derived from `rows`: the rows by primary-key tuple, the digest once computed,
    # and each row's canonical JSON fragment, aligned with `rows`, once encoded.
    _by_key: dict[tuple[Value, ...], Row] = field(init=False, repr=False, compare=False)
    _digest: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    _frags: Optional[tuple[bytes, ...]] = field(default=None, init=False, repr=False, compare=False)
    # The change log of the line of splices this table is on (None if it was not
    # spliced), and how many of its keys were logged when this table was made.
    _line: Optional[list[tuple[Value, ...]]] = field(default=None, init=False, repr=False, compare=False)
    _at: int = field(default=0, init=False, repr=False, compare=False)

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
        cls,
        id: str,
        schema: Schema,
        rows: tuple[Row, ...],
        by_key: dict[tuple[Value, ...], Row],
        frags: Optional[tuple[bytes, ...]] = None,
        line: Optional[list[tuple[Value, ...]]] = None,
        at: int = 0,
    ) -> "Table":
        """A table from rows already valid for `schema`, in key order, with `by_key` their index.

        Nothing is checked: the caller guarantees what `__post_init__` would.
        The index may list its keys in any order; `frags`, if given, holds the
        rows' fragments in row order; `line` and `at` place it in a change log.
        """
        table = object.__new__(cls)
        table.__dict__.update(id=id, schema=schema, rows=rows, _by_key=by_key, _frags=frags, _line=line, _at=at)
        return table

    def _spliced(self, id: str, changes: Mapping[tuple[Value, ...], Optional[Row]]) -> "Table":
        """This table under `id`, with the row at each key of `changes` replaced or
        inserted, or deleted where the change is None.

        The new rows must be valid for the schema, and every deleted key present.
        The rows this keeps, and their fragments if this table holds them, are
        shared; only the new rows are encoded.

        This is the only code that writes a change log. A splice from the newest
        table of a line logs the keys of `changes` and places the result after
        them. A splice from an older table (a branch), from a table on no line,
        or from a line that has logged as many keys as this table has rows
        starts a new line at the result, so a log holds O(rows) keys.
        """
        line = self._line
        if line is not None and self._at == len(line) < len(self.rows):  # the newest, with room left
            line += changes  # the keys of `changes`
        else:
            line = []
        if not self.rows:  # nothing to splice into: the new rows, sorted (keys are distinct)
            by_key = dict(sorted(filter(itemgetter(1), changes.items())))
            return Table._derived(id, self.schema, tuple(by_key.values()), by_key, None, line, len(line))
        key_of, old, frags = self.schema.key_of, self._by_key, self._frags
        by_key = dict(old)
        rows: list[Row] = []
        kept: list[Optional[bytes]] = []  # the fragments in row order, None for a new row
        fresh: list[int] = []  # where the new rows land
        pos = 0  # the old rows before `pos` are placed
        for k in sorted(changes):
            i = bisect_left(self.rows, k, lo=pos, key=key_of)
            rows += self.rows[pos:i]
            if frags is not None:
                kept += frags[pos:i]
            row = changes[k]
            if row is None:
                del by_key[k]
            else:
                by_key[k] = row
                fresh.append(len(rows))
                rows.append(row)
                kept.append(None)
            pos = i + 1 if k in old else i
        rows += self.rows[pos:]
        if frags is None:
            return Table._derived(id, self.schema, tuple(rows), by_key, None, line, len(line))
        kept += frags[pos:]
        cells_of = self.schema.cells_of
        new_rows = [rows[i] for i in fresh]
        encoded = _fragments(canonical_json([list(cells_of(row)) for row in new_rows]), new_rows, cells_of)
        for i, fragment in zip(fresh, encoded):
            kept[i] = fragment
        return Table._derived(id, self.schema, tuple(rows), by_key, tuple(kept), line, len(line))

    def changes_since(self, old: "Table") -> tuple[list, list[Row], list, list[Row]]:
        """Between `old` and this version of the table: the keys and rows of the
        rows that left or changed, and the keys and rows of those that arrived
        or changed.

        A row that is the same object in both is unchanged; only the others are
        looked at. When `old` is on this table's line and not newer, the rows can
        differ only at the keys logged since `old`, and only those are looked up,
        in key order. Otherwise the rows are scanned: tables of equal length
        usually hold the same keys, so row i of one is paired with row i of the
        other; the key index serves otherwise, and walks the old rows only if the
        row counts show that a key vanished.
        """
        line, since = self._line, old._at
        if line is not None and line is old._line and since <= self._at:
            old_rows, new_rows = old._by_key, self._by_key
            gone_keys, gone_rows, came_keys, came_rows = [], [], [], []
            for k in sorted(set(line[since : self._at])):
                gone, came = old_rows.get(k), new_rows.get(k)
                if gone is not came:
                    if gone is not None:
                        gone_keys.append(k)
                        gone_rows.append(gone)
                    if came is not None:
                        came_keys.append(k)
                        came_rows.append(came)
            return gone_keys, gone_rows, came_keys, came_rows
        key_of = self.schema.key_of
        if len(old.rows) == len(self.rows):
            differs = list(map(is_not, old.rows, self.rows))
            gone_rows, came_rows = list(compress(old.rows, differs)), list(compress(self.rows, differs))
            gone_keys, came_keys = list(map(key_of, gone_rows)), list(map(key_of, came_rows))
            if gone_keys == came_keys:
                return gone_keys, gone_rows, came_keys, came_rows
        old_rows, new_rows = old._by_key, self._by_key
        if not old_rows:
            return [], [], list(new_rows), list(new_rows.values())
        came = list(compress(new_rows.items(), map(is_not, map(old_rows.get, new_rows), new_rows.values())))
        came_keys, came_rows = [k for k, _ in came], [row for _, row in came]
        gone_keys = [k for k in came_keys if k in old_rows]  # the rows replaced in place
        if len(old_rows) - len(gone_keys) + len(came_keys) != len(new_rows):
            gone_keys += old_rows.keys() - new_rows.keys()
        return gone_keys, list(map(old_rows.__getitem__, gone_keys)), came_keys, came_rows

    def _bind_key(self, key: Mapping[str, Value]) -> tuple[str, ...]:
        if set(key) != set(self.schema.key) or not all(isinstance(v, str) for v in key.values()):
            raise SchemaMismatch(
                f"key must bind the primary-key attributes {self.schema.key} to strings, got {dict(key)}"
            )
        return tuple(key[k] for k in self.schema.key)  # type: ignore[return-value]

    def get_row(self, key: Mapping[str, Value]) -> Optional[Row]:
        """The row matching the key, or None. The result must not be mutated."""
        return self._by_key.get(self._bind_key(key))

    def insert_row(self, row: Mapping[str, Value]) -> "Table":
        """Add one row; the key cells must be fresh."""
        normalized = _normalize_row(self.schema, row)
        k = self.schema.key_of(normalized)
        if k in self._by_key:
            raise KeyConflict(f"row with key {k} already in table {self.id!r}")
        return self._spliced(self.id, {k: normalized})

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
        return self._spliced(self.id, {k: {**old, **changes}})

    def delete_row(self, key: Mapping[str, Value]) -> "Table":
        """Remove the row matching `key`."""
        k = self._bind_key(key)
        if k not in self._by_key:
            raise NotFound(f"no row with key {k} in table {self.id!r}")
        return self._spliced(self.id, {k: None})

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
        """The same table value under a different id; rows, index and fragments are shared."""
        return Table._derived(new_id, self.schema, self.rows, self._by_key, self._frags)

    def to_json_dict(self) -> dict:
        """The persistence form: rows as value arrays in schema order, canonical row order."""
        return {
            "id": self.id,
            "schema": self.schema.to_json_dict(),
            "rows": list(map(list, map(self.schema.cells_of, self.rows))),
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
        """Deterministic serialization; equal tables yield identical bytes.

        Joins the row fragments where the table holds them, else encodes the table.
        """
        frags = self._frags
        if frags is None:
            return canonical_json(self.to_json_dict())
        rows_json = b"[[" + _ROW_SEP.join(frags) + b"]]" if frags else b"[]"
        schema_json = self.schema.canonical_bytes()
        return b"".join((b'{"id":', canonical_json(self.id), b',"rows":', rows_json, b',"schema":', schema_json, b"}"))

    def digest(self) -> str:
        """SHA-256 over the canonical bytes; equal digests iff equal tables.

        Computed on first use and kept on the table, together with the row
        fragments of a table that held none (the bytes themselves are not kept).
        """
        digest = self._digest
        if digest is None:
            data = self.canonical_bytes()
            if self._frags is None:
                # The rows sit between `{"id":<id>,"rows":` and the last `,"schema":`
                # (a quote inside a string is escaped, so that key is not in one).
                start = len(b'{"id":,"rows":') + len(canonical_json(self.id))
                rows_json = data[start : data.rindex(b',"schema":')]
                frags = _fragments(rows_json, self.rows, self.schema.cells_of)
                object.__setattr__(self, "_frags", tuple(frags))
            digest = sha256_hex(data)
            object.__setattr__(self, "_digest", digest)
        return digest
