"""Projection lenses: paired forward (get) and backward (put) transformations
between a source table and a key-aligned view.

`get` projects the source onto the view attributes with duplicate elimination.
`put` pushes an edited view back into the source: source rows matched on the
view key have their view cells overwritten (fanning out over every matching
source row), source rows whose view key vanished from the view are deleted,
and view rows matching no source row are inserted null-padded (only when the
source primary key lies inside the view; otherwise the insert is refused).

Both directions require the functional dependency view_key -> view_attrs to
hold on the source; under it the pair is well-behaved:

    get(put(source, view)) == view        (PutGet)
    put(source, get(source)) == source    (GetPut)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter, ne
from typing import Mapping, Optional

from .relational import (
    KeyConflict,
    Row,
    Schema,
    SchemaMismatch,
    Table,
    UnknownAttribute,
    _normalize_row,
    tuple_getter,
)


_GONE = object()  # a cell no source row holds


class LensError(Exception):
    """Base class for lens compilation and execution errors."""


class EmptyViewKey(LensError):
    """A lens spec declared no view key."""


class FdViolation(LensError):
    """The source breaks the view_key -> view_attrs dependency; get/put would be ambiguous."""


class InsertNotSupported(LensError):
    """The view introduced a row but the lens cannot insert into the source."""


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
        return cls(d["lens_id"], d["source"], tuple(d["view_attrs"]), tuple(d["view_key"]))


@dataclass(frozen=True)
class Lens:
    """A compiled lens: spec plus derived view schema and insert capability."""

    spec: LensSpec
    source_schema: Schema
    view_schema: Schema
    inserts_allowed: bool


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
    inserts_allowed = set(source_schema.key) <= set(spec.view_attrs)
    return Lens(spec, source_schema, view_schema, inserts_allowed)


def _require_fd(lens: Lens, source: Table) -> None:
    if source.schema != lens.source_schema:
        raise SchemaMismatch(
            f"table {source.id!r} does not match the source schema of lens {lens.spec.lens_id!r}"
        )
    if not source.check_fd(lens.spec.view_key, lens.spec.view_attrs):
        raise FdViolation(
            f"source {source.id!r} violates {lens.spec.view_key} -> {lens.spec.view_attrs} "
            f"required by lens {lens.spec.lens_id!r}"
        )


def get(lens: Lens, source: Table) -> Table:
    """Project the source onto the view attributes, collapsing duplicates.

    The view is keyed by the lens view key; the functional-dependency
    precondition guarantees key uniqueness in the result. A view-key cell
    can be null only where the view key reaches outside the source key; such
    a view is refused.
    """
    _require_fd(lens, source)
    vattrs = lens.spec.view_attrs
    rows = list(map(dict, map(zip, repeat(vattrs), source.project(vattrs))))
    for a in lens.spec.view_key:
        if a not in source.schema.key and any(r[a] is None for r in rows):
            raise SchemaMismatch(f"primary-key cell {a!r} must not be null")
    return Table._sorted(lens.spec.lens_id, lens.view_schema, rows)


def put(lens: Lens, source: Table, view: Table) -> Table:
    """Embed an edited view back into the source.

    Destructive by design: a view row's cells overwrite every matching source
    row, and source rows absent from the view are dropped entirely. Source
    rows whose view cells did not change are carried over as they are. Only
    inserted rows and rows whose source key was rewritten can break the source
    schema or its key, so only they are checked.
    """
    if view.schema != lens.view_schema:
        raise SchemaMismatch(
            f"table {view.id!r} does not match the view schema of lens {lens.spec.lens_id!r}"
        )
    _require_fd(lens, source)

    vattrs = lens.spec.view_attrs
    schema = source.schema
    key_of = schema.key_of
    view_key_of = tuple_getter(lens.spec.view_key)
    view_cells = itemgetter(*vattrs)
    view_by_key = view._by_key
    rekeys = any(a in schema.key for a in vattrs if a not in lens.spec.view_key)

    srows = source.rows
    keys = list(map(view_key_of, srows))
    gone = dict.fromkeys(vattrs, _GONE)  # stands for a view row that was dropped
    vrows = list(map(view_by_key.get, keys, repeat(gone)))
    slots: list[Optional[Row]] = list(srows)  # None where a source row leaves its place
    by_key = dict(source._by_key)
    moved: list[Row] = []  # rewritten source key or inserted: checked below
    # Visit only the source rows whose view cells changed or whose view row is gone.
    for i in compress(range(len(srows)), map(ne, map(view_cells, srows), map(view_cells, vrows))):
        skey = key_of(srows[i])
        if vrows[i] is gone:  # the view dropped this key: delete all source rows carrying it
            slots[i] = None
            del by_key[skey]
            continue
        merged = {**srows[i], **{a: vrows[i][a] for a in vattrs}}
        if rekeys and key_of(merged) != skey:
            slots[i] = None
            del by_key[skey]
            moved.append(merged)
        else:
            slots[i] = by_key[skey] = merged
    rows = list(filter(None, slots))

    matched = set(keys)
    for k, vrow in view_by_key.items():
        if k in matched:
            continue
        if not lens.inserts_allowed:
            raise InsertNotSupported(
                f"lens {lens.spec.lens_id!r} cannot insert view row {k} into {source.id!r}: "
                f"source key {lens.source_schema.key} not covered by the view"
            )
        padded: Row = {a: None for a in schema.attrs}
        padded.update({a: vrow[a] for a in vattrs})
        moved.append(padded)

    if not moved:
        return Table._derived(source.id, schema, tuple(rows), by_key)
    moved = [_normalize_row(schema, r) for r in moved]
    for row in moved:
        k = key_of(row)
        if k in by_key:
            raise KeyConflict(f"duplicate primary key {k} in table {source.id!r}")
        by_key[k] = row
    return Table._sorted(source.id, schema, rows + moved)
