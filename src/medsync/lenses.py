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
from typing import Mapping

from .relational import Schema, SchemaMismatch, Table, UnknownAttribute


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
    precondition guarantees key uniqueness in the result.
    """
    _require_fd(lens, source)
    tuples = source.project(lens.spec.view_attrs)
    rows = [dict(zip(lens.spec.view_attrs, t)) for t in tuples]
    return Table(lens.spec.lens_id, lens.view_schema, tuple(rows))


def put(lens: Lens, source: Table, view: Table) -> Table:
    """Embed an edited view back into the source.

    Destructive by design: a view row's cells overwrite every matching source
    row, and source rows absent from the view are dropped entirely.
    """
    if view.schema != lens.view_schema:
        raise SchemaMismatch(
            f"table {view.id!r} does not match the view schema of lens {lens.spec.lens_id!r}"
        )
    _require_fd(lens, source)

    vkey = lens.spec.view_key
    vattrs = lens.spec.view_attrs
    view_by_key = {tuple(r[k] for k in vkey): r for r in view.rows}

    new_rows: list[dict] = []
    matched: set[tuple] = set()
    for srow in source.rows:
        k = tuple(srow[a] for a in vkey)
        vrow = view_by_key.get(k)
        if vrow is None:
            continue  # view dropped this key: delete all source rows carrying it
        matched.add(k)
        merged = dict(srow)
        merged.update({a: vrow[a] for a in vattrs})
        new_rows.append(merged)

    for k, vrow in view_by_key.items():
        if k in matched:
            continue
        if not lens.inserts_allowed:
            raise InsertNotSupported(
                f"lens {lens.spec.lens_id!r} cannot insert view row {k} into {source.id!r}: "
                f"source key {lens.source_schema.key} not covered by the view"
            )
        padded: dict = {a: None for a in lens.source_schema.attrs}
        padded.update({a: vrow[a] for a in vattrs})
        new_rows.append(padded)

    return Table(source.id, source.schema, tuple(new_rows))

