"""Projection lenses: paired forward (get) and backward (put) transformations
between a source table and a key-aligned view.

`get` projects the source onto the view attributes with duplicate elimination:
a view row is the tuple of a source row's cells at the view attributes'
positions. `put` pushes an edited view back into the source: source rows
matched on the view key have their view cells overwritten by position (fanning
out over every matching source row), source rows whose view key vanished from
the view are deleted, and view rows matching no source row are inserted
null-padded (only when the source key lies inside the view; otherwise the
insert is refused).

Both directions require the functional dependency view_key -> view_attrs to
hold on the source; under it the pair is well-behaved:

    get(put(source, view)) == view        (PutGet)
    put(source, get(source)) == source    (GetPut)

Both directions are incremental (Horn, Perera & Cheney, "Incremental
relational lenses", ICFP 2018). A `LensCache` holds the source a lens last
saw, the view it derived, and, when several source rows can stand behind one
view row, the source keys behind each view key. `get` re-derives the view rows
only at the view keys of the source rows `Table.changes_since` reports against
the cached source, and checks the dependency and the view-key cells only there;
`put` takes the same diff of the incoming view against the cached view and
visits only the source rows behind the view keys it reports. Without a cache,
`put` starts from the empty table, while `get` applies the lens's definition
to the whole source and builds no cache: a lens keyed on the source key maps
each source chunk to one view chunk of the same keys (path copying reuses the
source's chunk layout), and any other lens projects, keys, checks, sorts and
chunks in whole-table passes. A share's first view is derived that way and
seeds its cache (`LensCache.seed`), so the incremental engine only ever
handles deltas; the convergence check derives its views that way too, so it
tests that engine against an independent derivation.

`compile_lens` does once what each call would otherwise redo: it builds the
getters of a source row's view cells and view key, and of a view row's source
key, decides whether `put` can rewrite a source key, and finds the view-key
attributes outside the source key, the only ones whose cells a view row can
leave null. A call on a small table then costs what its rows need.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import itemgetter, ne
from typing import Callable, Mapping, Optional

from .relational import (
    Cells,
    KeyConflict,
    Schema,
    SchemaMismatch,
    Table,
    UnknownAttribute,
    Value,
    _Chunk,
    _chunked,
    _increasing,
    _only_keys,
    _rows,
    _typed,
    names_of,
    replaced,
    tuple_getter,
)


class LensError(Exception):
    """Base class for lens compilation and execution errors."""


class EmptyViewKey(LensError):
    """A lens spec declared no view key."""


class FdViolation(LensError):
    """The source breaks the view_key -> view_attrs dependency; get/put would be ambiguous."""


class InsertNotSupported(LensError):
    """The view introduced a row but the lens cannot insert into the source."""


_LENS_KEYS = frozenset({"lens_id", "source", "view_attrs", "view_key"})


@dataclass(frozen=True)
class LensSpec:
    """Declarative lens: which source attributes the view carries, and its key."""

    lens_id: str
    source_table_id: str
    view_attrs: tuple[str, ...]
    view_key: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "view_attrs", tuple(self.view_attrs))
        object.__setattr__(self, "view_key", tuple(self.view_key))

    def to_json_dict(self) -> dict:
        return {
            "lens_id": self.lens_id,
            "source": self.source_table_id,
            "view_attrs": list(self.view_attrs),
            "view_key": list(self.view_key),
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "LensSpec":
        _only_keys(d, _LENS_KEYS, "a lens")
        _typed(d, "a lens", ("lens_id", "source"))
        view_attrs, view_key = names_of(d["view_attrs"], "view_attrs"), names_of(d["view_key"], "view_key")
        return cls(d["lens_id"], d["source"], view_attrs, view_key)


@dataclass(frozen=True)
class Lens:
    """A compiled lens: spec plus derived view schema, insert capability, whether a
    view row can stand for several source rows (the view key does not cover the
    source key), and the source positions of the view attributes.

    The rest is derived once here so that no call derives it again: whether `put`
    can rewrite a source key (a source-key attribute is a view attribute outside
    the view key), the view-key attributes outside the source key with their
    source positions (the only key cells a view can hold null), and the getters
    of a source row's view cells and view key, and of a view row's source key
    (None when the lens fans out, as the source key is then not in the view).
    The getters are not compared: two compilations of one spec are equal.
    """

    spec: LensSpec
    source_schema: Schema
    view_schema: Schema
    inserts_allowed: bool
    fans_out: bool
    view_at: tuple[int, ...]
    rekeys: bool
    nullable_key_at: tuple[tuple[str, int], ...]
    view_of: Callable[[Cells], Cells] = field(compare=False, repr=False)
    view_key_of: Callable[[Cells], Cells] = field(compare=False, repr=False)
    key_in_view: Optional[Callable[[Cells], Cells]] = field(compare=False, repr=False)


def compile_lens(spec: LensSpec, source_schema: Schema) -> Lens:
    """Check a spec against the source schema and derive the view schema.

    Inserts through put are possible only when the source primary key is fully
    visible in the view; the flag is fixed here at compile time.
    """
    if len(set(spec.view_attrs)) != len(spec.view_attrs):
        raise SchemaMismatch(f"duplicate view attributes in lens {spec.lens_id!r}")
    unknown = [a for a in spec.view_attrs if a not in source_schema.attrs]
    if unknown:
        raise UnknownAttribute(f"lens {spec.lens_id!r} projects unknown attributes {unknown}")
    if not spec.view_key:
        raise EmptyViewKey(f"lens {spec.lens_id!r} has no view key")
    outside = [k for k in spec.view_key if k not in spec.view_attrs]
    if outside:
        raise UnknownAttribute(f"lens {spec.lens_id!r} view key {outside} outside view attributes")
    view_schema = Schema(spec.view_attrs, spec.view_key)
    source_key, at = source_schema.key, source_schema.at
    inserts_allowed = set(source_key) <= set(spec.view_attrs)
    fans_out = not set(source_key) <= set(spec.view_key)
    view_at, key_at = tuple(map(at.__getitem__, spec.view_attrs)), tuple(map(at.__getitem__, spec.view_key))
    rekeys = any(a in source_key for a in spec.view_attrs if a not in spec.view_key)
    nullable_key_at = tuple((a, at[a]) for a in spec.view_key if a not in source_key)
    key_in_view = None if fans_out else tuple_getter([view_schema.at[a] for a in source_key])
    return Lens(
        spec, source_schema, view_schema, inserts_allowed, fans_out, view_at, rekeys, nullable_key_at,
        tuple_getter(view_at), tuple_getter(key_at), key_in_view,
    )


class LensCache:
    """What one lens derived last: a source, its view, and the support index.

    The view is a table equal to the lens's view of the source, not
    necessarily the object the lens built: a caller may set any equal table,
    such as a counterpart's copy of the same view, and `put` adopts the view
    it is given. The support index maps each view key to the keys of the
    source rows that carry it, in the order `get` filed them; it is kept only
    for a lens that fans out, since otherwise the source key is part of the
    view key. `get` and `put` advance the cache to the source they are given.
    A new cache holds the empty source and view; `seed` sets it to a source
    and a whole view of it derived elsewhere, so that the incremental engine
    only ever handles deltas.
    """

    __slots__ = ("source", "view", "support")

    def __init__(self, lens: Lens, view_id: Optional[str] = None) -> None:
        self.source = Table.empty(lens.spec.source_table_id, lens.source_schema)
        self.view = Table.empty(view_id or lens.spec.lens_id, lens.view_schema)
        self.support: Optional[defaultdict[tuple[Value, ...], list[tuple[Value, ...]]]] = (
            defaultdict(list) if lens.fans_out else None
        )

    def seed(self, lens: Lens, source: Table, view: Table) -> None:
        """Hold `source` and `view`, a table equal to the lens's view of it, as
        `get` from a new cache would: for a lens that fans out, the support
        index files every source row's key under its view key, in one pass in
        source-key order."""
        self.source, self.view = source, view
        if self.support is not None:
            self.support = defaultdict(list)
            skeys = chain.from_iterable(map(_rows, source._chunks))
            any(map(list.append, map(self.support.__getitem__, map(lens.view_key_of, source._cells())), skeys))


def _fd_violation(lens: Lens, source: Table) -> FdViolation:
    return FdViolation(
        f"source {source.id!r} violates {lens.spec.view_key} -> {lens.spec.view_attrs} "
        f"required by lens {lens.spec.lens_id!r}"
    )


def _wrong_source(lens: Lens, source: Table) -> SchemaMismatch:
    return SchemaMismatch(f"table {source.id!r} does not match the source schema of lens {lens.spec.lens_id!r}")


def _null_view_key(attr: str) -> SchemaMismatch:
    return SchemaMismatch(f"primary-key cell {attr!r} must not be null")


def _derived(lens: Lens, source: Table, view_id: str) -> Table:
    """The lens's view of the whole of `source`, from its definition.

    A lens keyed on the source key maps each source chunk to one view chunk of
    the same keys: no row is keyed, checked or sorted again, as the source's
    own chunks already are. Any other lens projects every row, keys it, checks
    the dependency and the view-key cells once, sorts unless the keys already
    increase, and chunks. No cache is built.
    """
    if source.schema is not lens.source_schema and source.schema != lens.source_schema:
        raise _wrong_source(lens, source)
    view_of = lens.view_of
    if lens.spec.view_key == lens.source_schema.key:
        chunks = tuple(_Chunk(dict(zip(c.rows, map(view_of, c.rows.values()))), c.first) for c in source._chunks)
        return Table._of(view_id, lens.view_schema, chunks)
    rows = list(source._cells())
    cells, keys = list(map(view_of, rows)), list(map(lens.view_key_of, rows))
    if lens.fans_out:  # rows agreeing on a view key collapse to one view row
        distinct = dict(zip(keys, cells))
        if len(distinct) != len(set(cells)):  # the cells include the view key
            raise _fd_violation(lens, source)
        keys, items = list(distinct), list(distinct.items())
    else:
        items = list(zip(keys, cells))
    for attr, at in lens.nullable_key_at:  # before sorting: None < str raises
        if None in map(itemgetter(at), rows):
            raise _null_view_key(attr)
    if not _increasing(keys):
        items.sort(key=itemgetter(0))
    return Table._of(view_id, lens.view_schema, tuple(_chunked(items)))


def _advance(lens: Lens, cache: LensCache, source: Table) -> None:
    """Bring `cache` to `source`, re-deriving the view rows at the view keys of
    the source rows that differ from the cached source.

    Source rows that are the same object in both sources are unchanged, and so
    is the view row they support. The dependency and the view-key cells are
    checked on the view keys touched; the rest held when the cache derived them.
    The cache changes only once every check has passed.
    """
    if source.schema is not lens.source_schema and source.schema != lens.source_schema:
        raise _wrong_source(lens, source)
    if source is cache.source:
        return
    support, view_of, view_key_of = cache.support, lens.view_of, lens.view_key_of
    gone_skeys, gone_rows, came_skeys, came_rows = source.changes_since(cache.source)
    if lens.spec.view_key == lens.source_schema.key:  # the view key is the source key
        gone_keys, came_keys = gone_skeys, came_skeys
    else:
        gone_keys, came_keys = list(map(view_key_of, gone_rows)), list(map(view_key_of, came_rows))
    came_cells = list(map(view_of, came_rows))
    if support is None:
        # Each view row stands for one source row, so the dependency holds, and
        # a view key no arriving row carries is no longer carried at all.
        keys, cells = came_keys, came_cells
        dropped = set(gone_keys).difference(came_keys) if gone_keys else ()
    else:
        # A view key keeps the cells its arriving rows agree on, or those of the
        # rows that stay, which agreed when the cache was derived. The cells
        # include the view key, so distinct cells mean distinct view rows.
        arriving, source_row = dict(zip(came_keys, came_cells)), source.lookup()
        if len(arriving) != len(set(came_cells)):
            raise _fd_violation(lens, source)
        leaving: dict[tuple[Value, ...], set[tuple[Value, ...]]] = {}
        for view_key, skey in zip(gone_keys, gone_skeys):
            leaving.setdefault(view_key, set()).add(skey)
        dropped = set()
        for view_key, skeys in leaving.items():
            staying = [skey for skey in support[view_key] if skey not in skeys]
            if staying:
                kept = view_of(source_row(staying[0]))
                if arriving.setdefault(view_key, kept) != kept:
                    raise _fd_violation(lens, source)
            elif view_key not in arriving:
                dropped.add(view_key)
        for view_key in arriving.keys() - leaving.keys():
            skeys = support.get(view_key)
            if skeys and arriving[view_key] != view_of(source_row(skeys[0])):
                raise _fd_violation(lens, source)
        keys, cells = list(arriving), list(arriving.values())
    for attr, at in lens.nullable_key_at:
        if None in map(itemgetter(at), came_rows):
            raise _null_view_key(attr)

    view = cache.view
    row_at = view.lookup()
    if view._chunks:  # take a new view row only where its cells differ from the cached row's
        differs = list(map(ne, map(row_at, keys), cells))
        keys, cells = compress(keys, differs), compress(cells, differs)
    changes: dict[tuple[Value, ...], Optional[Cells]] = dict(zip(keys, cells))
    changes.update((k, None) for k in dropped if row_at(k) is not None)
    if support is not None:
        for view_key, skey in zip(gone_keys, gone_skeys):
            skeys = support[view_key]
            skeys.remove(skey)
            if not skeys:
                del support[view_key]
        # support is a defaultdict(list): one C-level pass files every arriving key.
        any(map(list.append, map(support.__getitem__, came_keys), came_skeys))
    cache.source = source
    if changes:
        cache.view = view._spliced(changes)


def get(lens: Lens, source: Table, cache: Optional[LensCache] = None, view_id: Optional[str] = None) -> Table:
    """Project the source onto the view attributes, collapsing duplicates.

    The view is keyed by the lens view key; the functional-dependency
    precondition guarantees key uniqueness in the result. A view-key cell
    can be null only where the view key reaches outside the source key; such
    a view is refused. With a cache, only the view rows at the view keys of
    source rows that differ from the cached source are derived again, and the
    cache moves to `source`; the result carries the cache's view id. Without
    one, the view is the lens's definition applied in whole-table passes,
    independent of the incremental engine, and carries `view_id` (by default
    the lens id).
    """
    if cache is None:
        return _derived(lens, source, view_id or lens.spec.lens_id)
    _advance(lens, cache, source)
    return cache.view


def put(lens: Lens, source: Table, view: Table, cache: Optional[LensCache] = None) -> Table:
    """Embed an edited view back into the source.

    Destructive by design: a view row's cells overwrite every matching source
    row, and source rows absent from the view are dropped entirely. Source
    rows whose view cells did not change are carried over as they are. Only
    inserted rows and rows whose source key was rewritten can break the source
    schema or its key, so only they are checked.

    The view rows that differ are found by `Table.changes_since` against the
    cache's view of `source`, so only the source rows behind them are visited. The
    cache then holds the result and `view` itself, which derived views share
    chunks with from then on.
    """
    if view.schema is not lens.view_schema and view.schema != lens.view_schema:
        raise SchemaMismatch(
            f"table {view.id!r} does not match the view schema of lens {lens.spec.lens_id!r}"
        )
    if cache is None:
        cache = LensCache(lens)
    _advance(lens, cache, source)

    schema, view_at, key_of = source.schema, lens.view_at, source.schema.key_of
    rekeys, key_in_view = lens.rekeys, lens.key_in_view
    gone_keys, gone_rows, came_keys, came_rows = view.changes_since(cache.view)
    current = dict(zip(gone_keys, gone_rows))  # the cached view's rows where `view` differs
    came = dict(zip(came_keys, came_rows))
    edited = [(k, row) for k, row in came.items() if row != current.get(k)]
    added = [(k, row) for k, row in edited if k not in current]
    removed = [k for k in current if k not in came]
    source_row = source.lookup()

    def carriers(k: tuple[Value, ...]) -> list[tuple[Value, ...]]:
        """The keys of the source rows carrying view key `k`, in key order (with no support index, the view row's)."""
        return sorted(cache.support[k]) if key_in_view is None else [key_in_view(current[k])]

    changes: dict[tuple[Value, ...], Optional[Cells]] = {}
    rekeyed: list[tuple[tuple[Value, ...], Cells]] = []  # (old source key, row): checked below
    for k, vrow in edited:
        if k not in current:
            continue
        for skey in carriers(k):
            merged = replaced(source_row(skey), view_at, vrow)
            if rekeys and key_of(merged) != skey:
                changes[skey] = None
                rekeyed.append((skey, merged))
            else:
                changes[skey] = merged
    for k in removed:
        changes.update(dict.fromkeys(carriers(k)))
    moved = [row for _, row in sorted(rekeyed, key=itemgetter(0))]
    for k, vrow in added:
        if not lens.inserts_allowed:
            raise InsertNotSupported(
                f"lens {lens.spec.lens_id!r} cannot insert view row {k} into {source.id!r}: "
                f"source key {lens.source_schema.key} not covered by the view"
            )
        moved.append(replaced((None,) * len(schema.attrs), view_at, vrow))

    if any(None in key_of(row) for row in moved):  # only inserted and re-keyed rows can null a key cell
        raise SchemaMismatch(f"a primary-key cell of {source.id!r} must not be null")
    for row in moved:
        k = key_of(row)
        if changes.get(k) is not None or (k not in changes and source_row(k) is not None):
            raise KeyConflict(f"duplicate primary key {k} in table {source.id!r}")
        changes[k] = row
    result = source._spliced(changes) if changes else source
    cache.view = view
    if cache.support is None:  # one source row per view row: by PutGet, `view` is the view of `result`
        cache.source = result
    else:  # file the source rows put added, removed or re-keyed in the support index
        _advance(lens, cache, result)
    return result
