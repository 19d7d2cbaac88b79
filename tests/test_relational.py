"""Table CRUD, projection, dependency checks, and canonical serialization."""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import D3_SCHEMA, ROW1, ROW2, ROW3
from medsync.relational import (
    CHUNK,
    KeyConflict,
    KeyImmutable,
    NotFound,
    Schema,
    SchemaMismatch,
    Table,
    UnknownAttribute,
)


def row_set(table: Table) -> set:
    return {tuple(sorted(r.items())) for r in table.rows}


class TestSchema:
    def test_key_must_be_subset(self):
        with pytest.raises(UnknownAttribute):
            Schema(("a0", "a1"), ("a9",))

    def test_duplicates_rejected(self):
        with pytest.raises(SchemaMismatch):
            Schema(("a0", "a0"), ("a0",))

    def test_empty_key_rejected(self):
        with pytest.raises(SchemaMismatch):
            Schema(("a0",), ())

    def test_json_roundtrip(self):
        s = Schema(("a0", "a1"), ("a0",))
        assert Schema.from_json_dict(s.to_json_dict()) == s


class TestInsert:
    def test_insert_into_two_row_table(self, fixture_f_two_rows, fixture_f):
        # set-union oracle over raw row dicts
        expected = row_set(fixture_f_two_rows) | {tuple(sorted(ROW3.items()))}
        result = fixture_f_two_rows.insert_row(ROW3)
        assert row_set(result) == expected
        assert result == fixture_f

    def test_insert_into_empty_table(self):
        empty = Table("D3", D3_SCHEMA, ())
        assert len(empty.insert_row(ROW1).rows) == 1

    def test_insert_duplicate_key(self, fixture_f):
        clone = {**ROW1, "a2": "other"}
        with pytest.raises(KeyConflict):
            fixture_f.insert_row(clone)

    def test_insert_bad_schema(self, fixture_f):
        with pytest.raises(SchemaMismatch):
            fixture_f.insert_row({"a0": "P9"})

    def test_insert_null_key_cell(self, fixture_f):
        with pytest.raises(SchemaMismatch):
            fixture_f.insert_row({**ROW1, "a0": None, "a2": "x"})


class TestUpdate:
    def test_single_row_overwrite(self, fixture_f):
        result = fixture_f.update_row({"a0": "P1", "a1": "MedX"}, {"a5": "MeA2"})
        assert result.get_row({"a0": "P1", "a1": "MedX"})["a5"] == "MeA2"
        # only r1 changed; r2 and r3 intact
        assert result.get_row({"a0": "P2", "a1": "MedX"}) == ROW2
        assert result.get_row({"a0": "P1", "a1": "MedY"}) == ROW3
        assert len(result.rows) == 3

    def test_empty_changes_is_noop(self, fixture_f):
        assert fixture_f.update_row({"a0": "P1", "a1": "MedX"}, {}) == fixture_f

    def test_absent_key(self, fixture_f):
        with pytest.raises(NotFound):
            fixture_f.update_row({"a0": "P9", "a1": "MedZ"}, {"a5": "x"})

    def test_key_attribute_immutable(self, fixture_f):
        with pytest.raises(KeyImmutable):
            fixture_f.update_row({"a0": "P1", "a1": "MedX"}, {"a1": "MedZ"})

    def test_unknown_change_attribute(self, fixture_f):
        with pytest.raises(SchemaMismatch):
            fixture_f.update_row({"a0": "P1", "a1": "MedX"}, {"a9": "x"})

    def test_partial_key_binding(self, fixture_f):
        with pytest.raises(SchemaMismatch):
            fixture_f.update_row({"a0": "P1"}, {"a5": "x"})


class TestDelete:
    def test_delete_from_three_rows(self, fixture_f, fixture_f_two_rows):
        assert fixture_f.delete_row({"a0": "P1", "a1": "MedY"}) == fixture_f_two_rows

    def test_delete_then_insert_restores(self, fixture_f):
        assert fixture_f.delete_row({"a0": "P1", "a1": "MedY"}).insert_row(ROW3) == fixture_f

    def test_delete_absent_key(self, fixture_f):
        with pytest.raises(NotFound):
            fixture_f.delete_row({"a0": "P9", "a1": "MedZ"})


class TestProject:
    def test_collapses_duplicates(self, fixture_f):
        # brute-force dedup oracle over the raw rows
        oracle = {tuple(r[a] for a in ("a1", "a5")) for r in (ROW1, ROW2, ROW3)}
        assert oracle == {("MedX", "MeA1"), ("MedY", "MeA9")}
        assert fixture_f.project(("a1", "a5")) == oracle

    def test_identity_projection(self, fixture_f):
        full = fixture_f.project(D3_SCHEMA.attrs)
        assert full == {tuple(r[a] for a in D3_SCHEMA.attrs) for r in fixture_f.rows}
        assert len(full) == 3

    def test_empty_table(self):
        assert Table("D3", D3_SCHEMA, ()).project(("a1",)) == frozenset()

    def test_unknown_attribute(self, fixture_f):
        with pytest.raises(UnknownAttribute):
            fixture_f.project(("a9",))

    def test_idempotent_on_own_attrs(self, fixture_f):
        attrs = ("a1", "a5")
        once = fixture_f.project(attrs)
        view = Table("V", Schema(attrs, ("a1",)), tuple(dict(zip(attrs, t)) for t in once))
        assert view.project(attrs) == once


class TestCheckFd:
    def test_holds_on_fixture(self, fixture_f):
        assert fixture_f.check_fd({"a1"}, {"a5"}) is True

    def test_primary_key_determines_everything(self, fixture_f):
        assert fixture_f.check_fd(set(D3_SCHEMA.key), set(D3_SCHEMA.attrs)) is True

    def test_broken_after_divergent_update(self, fixture_f):
        broken = fixture_f.update_row({"a0": "P2", "a1": "MedX"}, {"a5": "MeA7"})
        assert broken.check_fd({"a1"}, {"a5"}) is False

    def test_matches_pairwise_oracle(self, fixture_f):
        def oracle(rows, det, dep):
            for x in rows:
                for y in rows:
                    if all(x[a] == y[a] for a in det) and any(x[a] != y[a] for a in dep):
                        return False
            return True

        for det, dep in [({"a1"}, {"a5"}), ({"a5"}, {"a1"}), ({"a2"}, {"a4"}), ({"a0"}, {"a1"})]:
            assert fixture_f.check_fd(det, dep) == oracle(fixture_f.rows, det, dep)

    def test_unknown_attribute(self, fixture_f):
        with pytest.raises(UnknownAttribute):
            fixture_f.check_fd({"a9"}, {"a5"})


class TestCanonicalForm:
    def test_insertion_order_irrelevant(self):
        a = Table("D3", D3_SCHEMA, (ROW1, ROW2, ROW3))
        b = Table("D3", D3_SCHEMA, (ROW3, ROW1, ROW2))
        assert a.canonical_bytes() == b.canonical_bytes()
        assert a.digest() == b.digest()
        assert a == b

    def test_one_cell_difference_changes_digest(self, fixture_f):
        changed = fixture_f.update_row({"a0": "P1", "a1": "MedX"}, {"a5": "MeA2"})
        assert changed.digest() != fixture_f.digest()
        assert changed != fixture_f and Table("D3", D3_SCHEMA, changed.rows) != fixture_f

    def test_canonicalize_is_pure(self, fixture_f):
        assert fixture_f.canonical_bytes() == fixture_f.canonical_bytes()

    def test_known_digest_is_stable_across_runs(self, fixture_f):
        # frozen from a prior run; guards against canonical-format drift
        assert fixture_f.digest() == (
            "e07a7cbb6060666872edd09ca0c93b75243d9f8093bc24f96e070e3853d08583"
        )

    def test_json_roundtrip(self, fixture_f):
        assert Table.from_json_dict(fixture_f.to_json_dict()) == fixture_f

    def test_json_rows_out_of_key_order_are_sorted(self, fixture_f):
        doc = fixture_f.to_json_dict()
        doc["rows"].reverse()
        assert Table.from_json_dict(doc) == fixture_f

    @pytest.mark.parametrize("rewrite", [list.reverse, lambda rows: rows.append(rows[-1])], ids=["reversed", "repeated"])
    def test_json_rows_in_key_order_are_required_when_asked(self, fixture_f, rewrite):
        doc = fixture_f.to_json_dict()
        assert Table.from_json_dict(doc, in_key_order=True) == fixture_f
        rewrite(doc["rows"])
        with pytest.raises(SchemaMismatch, match="not in strictly increasing key order"):
            Table.from_json_dict(doc, in_key_order=True)

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda rows: rows[0].__setitem__(4, 5),
            lambda rows: rows[0].__setitem__(4, True),
            lambda rows: rows[0].__setitem__(4, ["MeA1"]),
            lambda rows: rows[0].pop(),
            lambda rows: rows[0].append("x"),
            lambda rows: rows.__setitem__(0, "P1MedXclinNote15mgMeA1"),
            lambda rows: rows.reverse() or rows[1].__setitem__(0, None),  # null among unsorted keys
        ],
        ids=["number", "true", "list", "one cell short", "one cell long", "string row", "null key"],
    )
    def test_malformed_json_rows_are_refused(self, fixture_f, rewrite):
        doc = fixture_f.to_json_dict()
        rewrite(doc["rows"])
        with pytest.raises(SchemaMismatch):
            Table.from_json_dict(doc)

    def test_json_rows_must_be_a_list(self, fixture_f):
        with pytest.raises(SchemaMismatch):
            Table.from_json_dict({**fixture_f.to_json_dict(), "rows": ""})

    def test_a_read_only_mapping_is_refused_as_a_list_is(self, fixture_f):
        # A JSON object decodes to a dict; a mapping proxy of a valid document is no JSON object.
        doc = fixture_f.to_json_dict()
        assert Table.from_json_dict(doc) == fixture_f
        with pytest.raises(SchemaMismatch) as as_list:
            Table.from_json_dict(list(doc))
        with pytest.raises(SchemaMismatch) as as_proxy:
            Table.from_json_dict(MappingProxyType(doc))
        assert str(as_proxy.value) == str(as_list.value) == "a table is an object with exactly the keys id, rows, schema"

    def test_a_repeated_json_key_is_refused(self, fixture_f):
        doc = fixture_f.to_json_dict()
        doc["rows"].insert(0, list(doc["rows"][-1]))
        with pytest.raises(KeyConflict):
            Table.from_json_dict(doc)

    def test_sorted_json_rows_skip_the_row_check(self, monkeypatch):
        import medsync.relational as relational

        calls = []
        normalize = relational._normalize_row
        monkeypatch.setattr(relational, "_normalize_row", lambda *a: calls.append(1) or normalize(*a))
        schema = Schema(("k", "v"), ("k",))
        doc = {"id": "t", "schema": schema.to_json_dict(), "rows": [[f"{i:05}", None] for i in range(10_000)]}
        table = Table.from_json_dict(doc)
        assert len(table) == 10_000 and not calls
        assert Table("t", schema, table.rows) == table and len(calls) == 10_000  # the dict path still checks

    def test_id_participates_in_digest(self, fixture_f):
        assert fixture_f.with_id("D31").digest() != fixture_f.digest()
        assert fixture_f.with_id("D31").with_id("D3") == fixture_f

    @pytest.mark.parametrize("field", ["id", "schema", "_chunks", "_digest"])
    def test_fields_cannot_be_assigned_or_deleted(self, fixture_f, field):
        digest = fixture_f.digest()
        with pytest.raises(FrozenInstanceError):
            setattr(fixture_f, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(fixture_f, field)
        assert fixture_f.digest() == digest and fixture_f == Table("D3", D3_SCHEMA, (ROW1, ROW2, ROW3))


class TestRowDicts:
    """A table holds its rows as cell tuples; row dicts are copies made at the API edges."""

    def test_sizing_rows_reads_no_row(self, monkeypatch):
        schema = Schema(("k", "v"), ("k",))
        given = [{"k": f"{i:05}", "v": str(i)} for i in reversed(range(10_000))]
        table = Table("t", schema, given)

        def read(*_):
            raise AssertionError("a row was read")

        with monkeypatch.context() as patched:
            patched.setattr(Table, "_cells", read)  # every read of a row's cells goes through it
            assert len(table.rows) == 10_000 and bool(table.rows)
            assert not Table.empty("t", schema).rows
        expected = sorted(given, key=lambda row: row["k"])
        assert table.rows[0] == expected[0] and table.rows[-1] == expected[-1]
        assert list(table.rows) == expected
        with pytest.raises(IndexError):
            table.rows[10_000]

    def test_a_slice_is_the_list_of_the_row_dicts_it_selects(self):
        schema = Schema(("k", "v"), ("k",))
        table = Table("t", schema, [{"k": f"{i:03}", "v": str(i)} for i in range(3 * CHUNK + 5)])
        assert len(table._chunks) > 1
        rows = list(table.rows)
        for s in (slice(0, 0), slice(7, 3), slice(-5, None), slice(-70, -10), slice(None, None, 7),
                  slice(None, None, -9), slice(10, 90, 3), slice(200, None), slice(None)):
            assert table.rows[s] == rows[s], s
        one = Table("T", Schema(("a", "b"), ("a",)), [{"a": "1", "b": "x"}])
        assert one.rows[0:1] == [{"a": "1", "b": "x"}] and one.rows[1:] == []

    def test_caller_dicts_are_copied_in_and_out(self):
        given, inserted, changes = [dict(ROW1), dict(ROW2)], dict(ROW3), {"a2": "changed"}
        key1 = {a: ROW1[a] for a in D3_SCHEMA.key}
        table = Table("D3", D3_SCHEMA, given).insert_row(inserted).update_row(key1, changes)
        handed_out = [table.get_row(key1), table.rows[0], *table.rows]
        for d in [*given, inserted, changes, *handed_out]:
            d.update(dict.fromkeys(d, "mutated"), extra="x")
        reference = Table("D3", D3_SCHEMA, ({**ROW1, "a2": "changed"}, ROW2, ROW3))
        assert table == reference and table.digest() == reference.digest()
        for row in reference.rows:
            key = {a: row[a] for a in D3_SCHEMA.key}
            assert table.get_row(key) == reference.get_row(key) == row


# --- property tests -------------------------------------------------------------

values = st.one_of(st.none(), st.text(alphabet="abxyz", min_size=0, max_size=3))


@st.composite
def op_sequences(draw):
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["insert", "update", "delete"]))
        key = (draw(st.text(alphabet="pq", min_size=1, max_size=2)),)
        if kind == "insert":
            ops.append(("insert", key, draw(values)))
        elif kind == "update":
            ops.append(("update", key, draw(values)))
        else:
            ops.append(("delete", key, None))
    return ops


@settings(max_examples=200, deadline=None, derandomize=True)
@given(op_sequences())
def test_key_uniqueness_invariant(ops):
    schema = Schema(("k", "v"), ("k",))
    table = Table("t", schema, ())
    for kind, key, value in ops:
        try:
            if kind == "insert":
                table = table.insert_row({"k": key[0], "v": value})
            elif kind == "update":
                table = table.update_row({"k": key[0]}, {"v": value})
            else:
                table = table.delete_row({"k": key[0]})
        except (KeyConflict, NotFound):
            continue
        keys = [r["k"] for r in table.rows]
        assert len(keys) == len(set(keys))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet="abc", min_size=1, max_size=3), values, values)
def test_insert_delete_roundtrip(key, v1, v2):
    schema = Schema(("k", "v", "w"), ("k",))
    base = Table("t", schema, ({"k": "fixed", "v": v1, "w": v2},))
    row = {"k": key, "v": v2, "w": v1}
    if key == "fixed":
        with pytest.raises(KeyConflict):
            base.insert_row(row)
        return
    assert base.insert_row(row).delete_row({"k": key}) == base


def _chunk_bounds(table: Table) -> list:
    return [(chunk.first, list(chunk.rows)) for chunk in table._chunks]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.dictionaries(st.tuples(st.text(max_size=2), st.text(max_size=2)), st.tuples(values, values), max_size=150),
    st.sampled_from(["sorted", "reversed", "shuffled"]),
    st.data(),
)
def test_json_decode_builds_what_the_constructor_builds(rows, order, data):
    # the key attributes are neither first nor adjacent, so cells and keys differ in order
    schema = Schema(("v", "k0", "w", "k1"), ("k0", "k1"))
    cells = [[v, k0, w, k1] for (k0, k1), (v, w) in rows.items()]
    cells.sort(key=lambda c: (c[1], c[3]))
    if order == "reversed":
        cells.reverse()
    elif order == "shuffled":
        cells = data.draw(st.permutations(cells))
    expected = Table("t", schema, [dict(zip(schema.attrs, c)) for c in cells])
    decoded = Table.from_json_dict({"id": "t", "schema": schema.to_json_dict(), "rows": cells})
    assert decoded == expected
    assert decoded.canonical_bytes() == expected.canonical_bytes()
    assert decoded.digest() == expected.digest()
    assert _chunk_bounds(decoded) == _chunk_bounds(expected)


# --- the diff against a diff from scratch -----------------------------------------

DIFF_SCHEMA = Schema(("v", "k"), ("k",))
DIFF_CASES = ("same chunks", "one vs one", "one vs one, rebuilt", "one vs split", "many vs many", "from empty")


def _by_key(table: Table) -> dict:
    return {k: row for chunk in table._chunks for k, row in chunk.rows.items()}


def _dict_diff(old: Table, new: Table) -> tuple:
    """`changes_since` from scratch: the rows paired by key, a row unchanged iff it is the same object."""
    old_rows, new_rows = _by_key(old), _by_key(new)
    gone = sorted(k for k, row in old_rows.items() if new_rows.get(k) is not row)
    came = sorted(k for k, row in new_rows.items() if old_rows.get(k) is not row)
    return gone, [old_rows[k] for k in gone], came, [new_rows[k] for k in came]


@st.composite
def diff_pairs(draw):
    """A case of `DIFF_CASES` and two tables of the chunk counts it names, `new` edited from `old`."""
    case = draw(st.sampled_from(DIFF_CASES))
    low, high = {"one vs split": (CHUNK // 2, CHUNK), "many vs many": (2 * CHUNK, 4 * CHUNK)}.get(case, (1, CHUNK))
    n = draw(st.integers(low, high))
    keys = [3 * i + offset for i, offset in enumerate(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))]
    cells = draw(st.lists(values, min_size=n, max_size=n))
    old = Table("t", DIFF_SCHEMA, [{"k": f"{k:03}", "v": v} for k, v in zip(keys, cells)])
    if case == "same chunks":
        return case, old, old.with_id("u")
    if case == "one vs one, rebuilt":  # equal rows, each a distinct object
        return case, old, Table("t", DIFF_SCHEMA, list(old.rows))
    fresh = sorted(set(range(3 * high)) - set(keys))
    added = 2 * CHUNK + 1 - len(keys) if case == "one vs split" else 0
    inserts = draw(st.lists(st.sampled_from(fresh), min_size=added, max_size=added + 5, unique=True))
    edits = draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(["update", "delete"]), values), max_size=8))
    new = old
    for k in inserts:
        new = new.insert_row({"k": f"{k:03}", "v": draw(values)})
    for k, op, value in edits:
        if new.get_row({"k": f"{k:03}"}) is not None:
            new = new.update_row({"k": f"{k:03}"}, {"v": value}) if op == "update" else new.delete_row({"k": f"{k:03}"})
    if case == "from empty":
        return case, Table.empty("t", DIFF_SCHEMA), new
    return case, old, new


@settings(max_examples=150, deadline=None, derandomize=True)
@given(diff_pairs())
def test_the_diffs_short_paths_agree_with_a_diff_from_scratch(pair):
    case, old, new = pair
    if case == "same chunks":
        assert new._chunks is old._chunks
    elif case.startswith("one vs one"):
        assume(len(new._chunks) == 1)  # deletes may empty it
        assert len(old._chunks) == 1
    elif case == "one vs split":
        assert len(old._chunks) == 1 < len(new._chunks)
    elif case == "many vs many":
        assume(len(new._chunks) > 1)
        assert len(old._chunks) > 1
    else:
        assert not old._chunks
    for before, after in ((old, new), (new, old)):
        gone_keys, gone_rows, came_keys, came_rows = diff = after.changes_since(before)
        assert diff == _dict_diff(before, after)
        old_rows, new_rows = _by_key(before), _by_key(after)
        # The rows reported are the tables' own objects, and the diff rebuilds `after` from `before`.
        assert all(row is old_rows[k] for k, row in zip(gone_keys, gone_rows))
        assert all(row is new_rows[k] for k, row in zip(came_keys, came_rows))
        rebuilt = {k: row for k, row in old_rows.items() if k not in set(gone_keys)}
        rebuilt.update(zip(came_keys, came_rows))
        assert rebuilt == new_rows
        if case == "one vs one, rebuilt":
            assert gone_keys == came_keys == sorted(old_rows) and gone_rows == came_rows
        if case == "same chunks":
            assert diff == ([], [], [], [])
