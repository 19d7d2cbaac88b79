"""Immutable relational tables with primary keys, canonical serialization, and digests.

Tables are value objects: every operation returns a new table and never mutates
its input. A cell is either a text string or None (null). Rows are kept in
canonical order (sorted by their primary-key cells), so two tables holding the
same rows compare equal regardless of insertion order, serialize to identical
bytes, and share one SHA-256 digest.

Inside a table a row is the tuple of its cells in schema order, its canonical
encoding. Row dicts exist only at the API edges (`Table(...)`, `insert_row`,
`update_row`'s changes, `get_row`, `Table.rows`), which copy cells in or out and
check a caller's dict one row at a time. Scenario files and dumps hold rows as
JSON cell lists, and `Table.from_json_dict` checks them in a few passes that run
in C: the rows form a list of lists one cell per attribute long, every cell's
type is text or null, and no key cell is null. Each list becomes a tuple, and
rows already in strictly increasing key order, as a dump writes them, are not
sorted again; a dump's tables must arrive in that order. A table or schema
object holding a key nothing reads is refused. Tables derived from valid
tables (CRUD, `with_id`, lens `get`/`put`) skip checks.

A table keeps its rows in one structure, a tuple of chunks. A chunk is a run of
at most `2 * CHUNK` rows consecutive in key order: a dict from each row's key
tuple to its cells, in key order, the first key, and, once a digest needed it,
the chunk's canonical JSON (`[cells],[cells]`). A lookup bisects the first keys,
then asks one dict. A splice (`_spliced`) copies the chunk tuple and rebuilds
only the chunks its keys fall in, so a derived table shares every other chunk,
and its encoding, with its input: path copying, as in Driscoll, Sarnak, Sleator
& Tarjan, "Making data structures persistent" (JCSS 1989). A digest encodes only
the chunks no earlier digest encoded, and hashes only from the first chunk no
earlier digest passed after the same bytes: SHA-256 reads its input left to
right (Merkle-Damgard; Merkle, Damgard, CRYPTO '89), so a chunk keeps the hash
state up to its end, and a digest resumes it with `copy()`.

Two tables derived from one another share the chunks neither changed, so they
differ only in the rows of the other chunks: `Table.changes_since`, the one diff
the lenses and peers use, skips shared chunks and pairs the remaining rows by
key. That holds along a line of splices, across branches, and between `with_id`
copies and the views a peer adopts, which share their chunks too. Two short
paths keep the diff of a small table as cheap as its rows: tables holding the
same chunk tuple differ in nothing, and two tables of one chunk each, as small
tables are, pair their chunks' dicts without looking for shared chunks first.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import FrozenInstanceError, dataclass, field
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter, lt
from typing import Callable, Iterable, Iterator, Optional, Union

Value = Optional[str]  # a cell: text, or None for null
Row = dict[str, Value]  # a row at the API edges, keyed by attribute name
Cells = tuple[Value, ...]  # a row inside a table: its cells in schema order
_CELL_TYPES = frozenset((str, type(None)))  # the types of a Value

ZERO_DIGEST = "0" * 64
# Rows per chunk as built; a splice splits a chunk past twice this. An edit
# diffs and encodes whole chunks, while a pass over a whole table pays per chunk.
CHUNK = 32


def _make_encode() -> Callable[[object], str]:
    """The canonical encoder: `json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)`.

    `JSONEncoder.encode` builds a new C encoder on every call; this builds it
    once, as `JSONEncoder.iterencode` would (markers, default, string encoder,
    indent, key and item separators, sort_keys, skipkeys, allow_nan). Without
    a markers dict nothing outlives a call, so a failed encode leaves no state
    behind; a cyclic value, which no caller builds, hits the recursion limit.
    """
    make = json.encoder.c_make_encoder
    if make is None:  # no C accelerator: the pure-Python encoder, as the stdlib falls back
        return json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode
    chunks = make(None, json.JSONEncoder().default, json.encoder.encode_basestring, None, ":", ",", True, False, True)
    join = "".join
    return lambda obj: join(chunks(obj, 0))


_encode = _make_encode()


def canonical_json(obj: object) -> bytes:
    """Compact UTF-8 JSON with sorted keys; stable across runs and platforms."""
    return _encode(obj).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tuple_getter(positions: Sequence[int]) -> Callable[[Cells], Cells]:
    """A function, running in C, from a row to the tuple of its cells at `positions`, in that order."""
    if len(positions) < 2:  # a slice of the row: one position would give the bare cell
        return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))
    return itemgetter(*positions)


def replaced(row: Cells, positions: Iterable[int], cells: Iterable[Value]) -> Cells:
    """`row` with the cell at each of `positions` replaced by the matching one of `cells`."""
    out = list(row)
    for at, cell in zip(positions, cells):
        out[at] = cell
    return tuple(out)


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
    # Derived: each attribute's position in `attrs`, and a row's primary-key tuple from its cells.
    at: dict[str, int] = field(init=False, repr=False, compare=False)
    key_of: Callable[[Cells], Cells] = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "at", {a: i for i, a in enumerate(attrs)})
        if len(self.at) != len(attrs):
            raise SchemaMismatch(f"duplicate attribute names in {attrs}")
        if not key:
            raise SchemaMismatch("primary key must not be empty")
        if len(set(key)) != len(key):
            raise SchemaMismatch(f"duplicate key attributes in {key}")
        missing = [k for k in key if k not in self.at]
        if missing:
            raise UnknownAttribute(f"key attributes not in schema: {missing}")
        object.__setattr__(self, "key_of", tuple_getter([self.at[k] for k in key]))

    def to_json_dict(self) -> dict:
        return {"attrs": list(self.attrs), "key": list(self.key)}

    def canonical_bytes(self) -> bytes:
        """`canonical_json(self.to_json_dict())`, encoded on first use and kept."""
        if self._json is None:
            object.__setattr__(self, "_json", canonical_json(self.to_json_dict()))
        return self._json  # type: ignore[return-value]

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Schema":
        _only_keys(d, _SCHEMA_KEYS, "a schema")
        return cls(names_of(d["attrs"], "schema attrs"), names_of(d["key"], "schema key"))


_SCHEMA_KEYS = frozenset({"attrs", "key"})
_TABLE_KEYS = frozenset({"id", "schema", "rows"})


def _only_keys(d: object, keys: frozenset[str], what: str) -> None:
    """Refuse a JSON object holding keys other than `keys`, which nothing would read, or lacking one.

    A JSON object decodes to a `dict`, so any other type, mapping or not, is refused."""
    if type(d) is not dict or d.keys() != keys:
        raise SchemaMismatch(f"{what} is an object with exactly the keys {', '.join(sorted(keys))}")


def _typed(d: Mapping, what: str, strs: Sequence[str] = (), ints: Sequence[str] = ()) -> None:
    """Refuse the decoded `what` unless `d` holds a string at each of `strs` and an int, not a
    bool, at each of `ints`: a value of another JSON type that compares equal would pass later checks."""
    for keys, kind in ((strs, str), (ints, int)):
        for k in keys:
            if type(d[k]) is not kind:
                named = [f"{name} {' and '.join(ks)}" for name, ks in (("integer", ints), ("string", strs)) if ks]
                raise SchemaMismatch(f"{what} has {', and '.join(named)}")


def names_of(doc: object, what: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; a string would otherwise split into characters."""
    if type(doc) is not list or not all(isinstance(name, str) for name in doc):
        raise SchemaMismatch(f"{what} must be a list of strings, got {doc!r}")
    return tuple(doc)


def _normalize_row(schema: Schema, row: Mapping[str, Value]) -> Cells:
    """Validate a row dict against the schema; its cells in schema order."""
    if set(row) != schema.at.keys():
        extra, missing = sorted(set(row) - schema.at.keys()), sorted(schema.at.keys() - set(row))
        raise SchemaMismatch(f"row cells do not match schema (extra={extra}, missing={missing})")
    cells = tuple(map(row.__getitem__, schema.attrs))
    for a, v in zip(schema.attrs, cells):
        if v is not None and not isinstance(v, str):
            raise SchemaMismatch(f"cell {a!r} must be a string or null, got {type(v).__name__}")
    if None in schema.key_of(cells):
        raise SchemaMismatch(f"primary-key cell {schema.key[schema.key_of(cells).index(None)]!r} must not be null")
    return cells


Key = tuple[Value, ...]


class _Chunk:
    """Rows consecutive in key order: a dict from key to cells in key order, the
    first key, and the rows' canonical JSON (`[cells],[cells]`) once encoded.

    `state` is the SHA-256 state of a digested table's canonical bytes up to
    this chunk's end, and `before` what it continues: the bytes before the rows
    for a first chunk, else the previous chunk's `state`. A chunk is never
    empty and its rows never change; its JSON is filled in once, and `state`
    and `before` are replaced, never updated. Tables share chunks.
    """

    __slots__ = ("rows", "first", "json", "state", "before")

    def __init__(self, rows: dict[Key, Cells], first: Key) -> None:
        self.rows, self.first, self.json, self.state, self.before = rows, first, None, None, None


_first, _rows = attrgetter("first"), attrgetter("rows")


def _increasing(keys: list[Key]) -> bool:
    """True iff the keys are strictly increasing, which also makes them unique."""
    return all(map(lt, keys, islice(keys, 1, None)))


def _chunked(items: Sequence[tuple[Key, Cells]]) -> list[_Chunk]:
    """Chunks of `CHUNK` rows from (key, row) pairs in key order."""
    return [_Chunk(dict(items[i : i + CHUNK]), items[i][0]) for i in range(0, len(items), CHUNK)]


def _joined(chunks: Iterable[_Chunk]) -> dict[Key, Cells]:
    """The rows of chunks consecutive in key order as one dict in key order."""
    dicts = list(map(_rows, chunks))
    return dicts[0] if len(dicts) == 1 else dict(chain.from_iterable(map(dict.items, dicts)))


def _apart(old: tuple[_Chunk, ...], new: tuple[_Chunk, ...]) -> tuple[dict[Key, Cells], dict[Key, Cells]]:
    """The rows of the chunks only `old` holds, and of those only `new` holds,
    each in key order. Shared chunks are not read."""
    only = set(old).symmetric_difference(new).__contains__
    return _joined(filter(only, old)), _joined(filter(only, new))


_set = object.__setattr__  # writes a field of a table, which `Table.__setattr__` refuses


def _encoded(rows: Sequence[Cells]) -> bytes:
    """`[cells],[cells]`: the canonical JSON of `rows` as cell lists, without its outer brackets."""
    return canonical_json(rows)[1:-1]


class _Rows(Sequence):
    """A table's rows in key order as dicts, built on each read; sizing reads no row."""

    __slots__ = ("_table",)

    def __init__(self, table: "Table") -> None:
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[Row]:
        return map(dict, map(zip, repeat(self._table.schema.attrs), self._table._cells()))

    def __getitem__(self, i: Union[int, slice]) -> Union[Row, list[Row]]:
        attrs = self._table.schema.attrs
        if isinstance(i, slice):  # dicts of the selected rows only
            return [dict(zip(attrs, cells)) for cells in list(self._table._cells())[i]]
        return dict(zip(attrs, next(islice(self._table._cells(), range(len(self))[i], None))))


class Table:
    """An immutable table: id, schema, and rows unique on the primary key.

    `Table(...)` on row dicts and `Table.from_json_dict` on JSON cell lists are
    the entry points for rows from outside the program; both key, sort and chunk
    the rows in `__post_init__`. Tables derived from a valid table skip it, and
    share the chunks they do not change with their input. All editing goes
    through the operations below, each of which returns a new table. The digest
    is computed once per table.
    """

    __slots__ = ("id", "schema", "_chunks", "_digest")

    def __init__(self, id: str, schema: Schema, rows: Iterable[Mapping[str, Value]] = ()) -> None:
        _set(self, "id", id)
        _set(self, "schema", schema)
        _set(self, "_digest", None)
        self.__post_init__([_normalize_row(schema, r) for r in rows])

    def __post_init__(self, rows: list[Cells], in_key_order: bool = False) -> None:
        """Key, sort and chunk cell tuples that are valid and in schema order,
        refusing a null or repeated key; rows already in strictly increasing key
        order are not sorted, and `in_key_order` refuses any others. Every table
        from outside the program is built here (the benchmark's tracer times
        builds here)."""
        keys = list(map(self.schema.key_of, rows))
        if None in chain.from_iterable(keys):  # before any comparison: None < str raises
            raise SchemaMismatch(f"a primary-key cell is null in table {self.id!r}")
        items = list(zip(keys, rows))
        if not _increasing(keys):
            if in_key_order:
                raise SchemaMismatch(f"the rows of table {self.id!r} are not in strictly increasing key order")
            items.sort(key=itemgetter(0))
            keys = list(map(itemgetter(0), items))
            if not _increasing(keys):  # sorted, so two neighbours are equal
                k = next(k for k, after in zip(keys, islice(keys, 1, None)) if k == after)
                raise KeyConflict(f"duplicate primary key {k} in table {self.id!r}")
        _set(self, "_chunks", tuple(_chunked(items)))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @classmethod
    def _of(cls, id: str, schema: Schema, chunks: tuple[_Chunk, ...]) -> "Table":
        """A table of chunks already valid for `schema`; nothing is checked."""
        table = object.__new__(cls)
        _set(table, "id", id)
        _set(table, "schema", schema)
        _set(table, "_chunks", chunks)
        _set(table, "_digest", None)
        return table

    @classmethod
    def empty(cls, id: str, schema: Schema) -> "Table":
        """The table with no rows."""
        return cls._of(id, schema, ())

    @property
    def rows(self) -> Sequence[Row]:
        """Every row in key order as a dict; a row is read only when it is asked for."""
        return _Rows(self)

    def _cells(self) -> Iterator[Cells]:
        """Every row's cells in key order."""
        return chain.from_iterable(map(dict.values, map(_rows, self._chunks)))

    def __len__(self) -> int:
        return sum(map(len, map(_rows, self._chunks)))

    def __repr__(self) -> str:
        return f"Table(id={self.id!r}, schema={self.schema!r}, rows={tuple(self.rows)!r})"

    def __eq__(self, other: object) -> bool:
        """Equal ids, schemas and cells; tables holding the same chunk tuple are
        equal without reading their rows."""
        if not isinstance(other, Table):
            return NotImplemented
        if self.id != other.id or (self.schema is not other.schema and self.schema != other.schema):
            return False
        return self._chunks is other._chunks or list(self._cells()) == list(other._cells())

    def lookup(self) -> Callable[..., Optional[Cells]]:
        """A function from a primary-key tuple (and a default) to its row's cells, or the default (None).

        For a table of one chunk it is that chunk's `dict.get`.
        """
        chunks = self._chunks
        if len(chunks) > 1:
            return lambda k, default=None: chunks[max(bisect_right(chunks, k, key=_first) - 1, 0)].rows.get(k, default)
        return chunks[0].rows.get if chunks else {}.get

    def _spliced(self, changes: Mapping[Key, Optional[Cells]]) -> "Table":
        """This table with the row at each key of `changes` replaced or
        inserted, or deleted where the change is None.

        The new rows must be valid for the schema, and every deleted key present.
        Only the chunks the keys fall in are rebuilt; a rebuilt chunk is dropped
        once empty and split once it holds more than `2 * CHUNK` rows.
        """
        chunks = self._chunks
        if not chunks:  # nothing to splice into: the new rows, sorted (keys are distinct)
            return Table._of(self.id, self.schema, tuple(_chunked(sorted(filter(itemgetter(1), changes.items())))))
        keys_at: dict[int, list[Key]] = {}  # chunk index -> the keys of `changes` it takes
        for k in sorted(changes):
            i = max(bisect_right(chunks, k, key=_first) - 1, 0) if len(chunks) > 1 else 0
            keys_at.setdefault(i, []).append(k)
        out: list[_Chunk] = []
        done = 0  # the chunks before `done` are placed
        for i, keys in keys_at.items():
            rows = dict(chunks[i].rows)
            added = False
            for k in keys:
                row = changes[k]
                if row is None:
                    del rows[k]
                else:
                    added = added or k not in rows
                    rows[k] = row
            out += chunks[done:i]
            if added:
                rows = dict(sorted(rows.items(), key=itemgetter(0)))
            if len(rows) > 2 * CHUNK:
                out += _chunked(list(rows.items()))
            elif rows:
                out.append(_Chunk(rows, next(iter(rows))))
            done = i + 1
        out += chunks[done:]
        return Table._of(self.id, self.schema, tuple(out))

    def changes_since(self, old: "Table") -> tuple[list[Key], list[Cells], list[Key], list[Cells]]:
        """Between `old` and this version of the table: the keys and cells of the
        rows that left or changed, and the keys and cells of those that arrived
        or changed, each in key order.

        Two tables holding one chunk tuple did not change. Otherwise chunks both
        tables hold are skipped and the rows of the others are paired by key; a
        row that is the same object on both sides is unchanged. Two tables of one
        chunk each pair their chunks' dicts directly.
        """
        old_chunks, chunks = old._chunks, self._chunks
        if old_chunks is chunks:
            return [], [], [], []
        if len(old_chunks) == 1 == len(chunks):  # pair the two dicts: no chunk to skip
            gone, came = old_chunks[0].rows, chunks[0].rows
        else:
            gone, came = _apart(old_chunks, chunks)
        gone_keys = [k for k, row in gone.items() if came.get(k) is not row]
        came_keys = [k for k, row in came.items() if gone.get(k) is not row]
        return gone_keys, list(map(gone.__getitem__, gone_keys)), came_keys, list(map(came.__getitem__, came_keys))

    def _bind_key(self, key: Mapping[str, Value]) -> tuple[str, ...]:
        if set(key) != set(self.schema.key) or not all(isinstance(v, str) for v in key.values()):
            raise SchemaMismatch(
                f"key must bind the primary-key attributes {self.schema.key} to strings, got {dict(key)}"
            )
        return tuple(key[k] for k in self.schema.key)  # type: ignore[return-value]

    def get_row(self, key: Mapping[str, Value]) -> Optional[Row]:
        """The row matching the key, as a new dict, or None."""
        cells = self.lookup()(self._bind_key(key))
        return None if cells is None else dict(zip(self.schema.attrs, cells))

    def insert_row(self, row: Mapping[str, Value]) -> "Table":
        """Add one row; the key cells must be fresh."""
        cells = _normalize_row(self.schema, row)
        k = self.schema.key_of(cells)
        if self.lookup()(k) is not None:
            raise KeyConflict(f"row with key {k} already in table {self.id!r}")
        return self._spliced({k: cells})

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
        old = self.lookup()(k)
        if old is None:
            raise NotFound(f"no row with key {k} in table {self.id!r}")
        if not changes:
            return self
        return self._spliced({k: replaced(old, map(self.schema.at.__getitem__, changes), changes.values())})

    def delete_row(self, key: Mapping[str, Value]) -> "Table":
        """Remove the row matching `key`."""
        k = self._bind_key(key)
        if self.lookup()(k) is None:
            raise NotFound(f"no row with key {k} in table {self.id!r}")
        return self._spliced({k: None})

    def project(self, attrs: Sequence[str]) -> frozenset[tuple[Value, ...]]:
        """Project onto `attrs` with set semantics: duplicate rows collapse."""
        unknown = [a for a in attrs if a not in self.schema.attrs]
        if unknown:
            raise UnknownAttribute(f"cannot project on unknown attributes {unknown}")
        return frozenset(map(tuple_getter([self.schema.at[a] for a in attrs]), self._cells()))

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
        at = self.schema.at
        groups = [set(map(tuple_getter([at[a] for a in attrs]), self._cells())) for attrs in (det, set(det) | set(dep))]
        return len(groups[0]) == len(groups[1])

    def with_id(self, new_id: str) -> "Table":
        """The same table value under a different id; the chunks are shared."""
        return Table._of(new_id, self.schema, self._chunks)

    def to_json_dict(self) -> dict:
        """The persistence form: rows as value arrays in schema order, canonical row order."""
        return {
            "id": self.id,
            "schema": self.schema.to_json_dict(),
            "rows": list(map(list, self._cells())),
        }

    @classmethod
    def from_json_dict(cls, d: Mapping, in_key_order: bool = False) -> "Table":
        """The table of a persistence form, validated in passes that run in C.

        `rows` must be a list of cell lists, one cell per schema attribute, each
        cell text or null. Each list is then the row's cell tuple as it stands,
        so the per-row `_normalize_row` is not needed. With `in_key_order` the
        rows must already be in strictly increasing key order, as `to_json_dict`
        writes them.
        """
        _only_keys(d, _TABLE_KEYS, "a table")
        schema = Schema.from_json_dict(d["schema"])
        attrs, rows = schema.attrs, d["rows"]
        # zip would drop extra cells and split a string row into characters
        if type(rows) is not list or not set(map(type, rows)) <= {list} or not set(map(len, rows)) <= {len(attrs)}:
            raise SchemaMismatch(f"rows must be a list of lists of {len(attrs)} cells, one per schema attribute")
        if not set(map(type, chain.from_iterable(rows))) <= _CELL_TYPES:
            raise SchemaMismatch("every cell must be a string or null")
        table = cls._of(d["id"], schema, ())
        table.__post_init__(list(map(tuple, rows)), in_key_order)
        return table

    def _encoded_chunks(self) -> tuple[_Chunk, ...]:
        """The chunks, each encoded to JSON the first time it is needed, and kept."""
        for chunk in self._chunks:
            if chunk.json is None:
                chunk.json = _encoded(tuple(chunk.rows.values()))
        return self._chunks

    def _ends(self) -> tuple[bytes, bytes]:
        """The canonical bytes before the rows' JSON and after it."""
        return b'{"id":' + canonical_json(self.id) + b',"rows":[', b'],"schema":' + self.schema.canonical_bytes() + b"}"

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization; equal tables yield identical bytes: `canonical_json(self.to_json_dict())`."""
        head, tail = self._ends()
        return head + b",".join(map(attrgetter("json"), self._encoded_chunks())) + tail

    def digest(self) -> str:
        """SHA-256 over the canonical bytes; equal digests iff equal tables.

        Computed on first use and kept on the table (the bytes are not kept).
        The walk takes each chunk's state while it continues the running one,
        and from the first chunk where it does not (one an edit rebuilt) hashes
        on, keeping new states on all chunks but the last. A table of at most
        one chunk is hashed at once.
        """
        if self._digest is None:
            chunks, (head, tail) = self._encoded_chunks(), self._ends()
            if len(chunks) < 2:
                state = hashlib.sha256(head + (chunks[0].json if chunks else b"") + tail)
            else:
                first = chunks[0]
                if first.before != head:  # None, a state object, or another id's bytes
                    first.state, first.before = hashlib.sha256(head + first.json), head
                state = first.state
                for chunk in islice(chunks, 1, len(chunks) - 1):
                    if chunk.before is not state:
                        after = state.copy()
                        after.update(b"," + chunk.json)
                        chunk.state, chunk.before = after, state
                    state = chunk.state
                state = state.copy()
                state.update(b"," + chunks[-1].json + tail)
            _set(self, "_digest", state.hexdigest())
        return self._digest
