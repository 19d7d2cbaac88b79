"""Tables the program derives (CRUD, `with_id`, lens `get` and `put`) skip the
constructor's checks; these tests hold each of them to the table the checking
constructor builds from the same rows, and count the work an edit does."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medsync.peer as peer_module
import medsync.relational as relational
from conftest import iter_law_cases, make_edited_view, make_lens_case
from medsync.contract import Verdict
from medsync.ledger import Receipt
from medsync.lenses import LensSpec, compile_lens, get, put
from medsync.peer import Edit, PeerNode, ShareBinding
from medsync.relational import KeyConflict, NotFound, Schema, SchemaMismatch, Table


def key_of(table: Table, row) -> tuple:
    return tuple(row[k] for k in table.schema.key)


def assert_matches_reference(table: Table, keys=()) -> None:
    """`table` equals, hashes and looks up like the table `Table(...)` builds from its rows.

    `keys` are extra key tuples to look up, such as those of deleted rows.
    """
    reference = Table(table.id, table.schema, table.rows)
    assert table == reference
    assert table.digest() == reference.digest()
    bindings = [dict(zip(table.schema.key, k)) for k in keys]
    bindings += [{a: row[a] for a in table.schema.key} for row in reference.rows]
    for key in bindings:
        assert table.get_row(key) == reference.get_row(key)


# --- CRUD over random schemas ----------------------------------------------------

cells = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
key_cells = st.sampled_from(["p", "q", "r", "s"])


@st.composite
def crud_cases(draw):
    n_attrs = draw(st.integers(1, 4))
    attrs = tuple(f"c{i}" for i in range(n_attrs))
    key = attrs[: draw(st.integers(1, n_attrs))]
    schema = Schema(attrs, key)

    def row():
        return {a: draw(key_cells) if a in key else draw(cells) for a in attrs}

    start = {tuple(r[k] for k in key): r for r in (row() for _ in range(draw(st.integers(0, 6))))}
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["insert", "update", "delete", "with_id", "digest"]))
        r = row()
        changes = {a: draw(cells) for a in attrs if a not in key and draw(st.booleans())}
        ops.append((kind, r, changes))
    return Table("t", schema, tuple(start.values())), ops


@settings(max_examples=300, deadline=None, derandomize=True)
@given(crud_cases())
def test_crud_results_match_the_reference_constructor(case):
    table, ops = case
    touched = set()
    for kind, row, changes in ops:
        key = {a: row[a] for a in table.schema.key}
        touched.add(key_of(table, row))
        try:
            if kind == "insert":
                table = table.insert_row(row)
            elif kind == "update":
                table = table.update_row(key, changes)
            elif kind == "delete":
                table = table.delete_row(key)
            elif kind == "with_id":
                table = table.with_id(table.id + "'")
            else:
                table.digest()  # memoised on this table; must not leak into what derives from it
        except (KeyConflict, NotFound):
            continue
        assert_matches_reference(table, touched)


# --- lens get and put ---------------------------------------------------------------


def _check_lens_case(lens, source, edited) -> None:
    view = get(lens, source)
    assert_matches_reference(view)
    assert_matches_reference(edited)
    result = put(lens, source, edited)
    assert_matches_reference(result, [key_of(source, r) for r in source.rows])
    assert_matches_reference(get(lens, result))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_get_and_put_results_match_the_reference_constructor(seed):
    rng = random.Random(seed)
    lens, source = make_lens_case(rng)
    edited, _ = make_edited_view(rng, lens, get(lens, source))
    _check_lens_case(lens, source, edited)


def test_lens_cases_cover_fan_out_deletes_inserts_and_rewritten_source_keys():
    seen: set[str] = set()
    for lens, source, edited, kinds in iter_law_cases(seed=7, count=400):
        _check_lens_case(lens, source, edited)
        seen |= kinds
        if len(source.rows) > len(get(lens, source).rows):
            seen.add("fan-out")
        view = get(lens, source)
        carried = [a for a in lens.spec.view_attrs if a in source.schema.key and a not in lens.spec.view_key]
        for row in edited.rows:
            old = view.get_row({k: row[k] for k in lens.spec.view_key})
            if old is not None and any(old[a] != row[a] for a in carried):
                seen.add("rewritten source key")
    assert seen >= {"update", "delete", "insert", "fan-out", "rewritten source key"}


# Source keyed on `id`; the view is keyed on `tag` and carries `id`, so a view
# edit can rewrite a source key, and inserts are allowed.
TAGGED = Schema(("id", "tag", "note"), ("id",))
BY_TAG = compile_lens(LensSpec("L", "s", ("tag", "id"), ("tag",)), TAGGED)
TAGGED_SOURCE = Table(
    "s", TAGGED, ({"id": "1", "tag": "a", "note": "x"}, {"id": "2", "tag": "b", "note": "y"})
)


def test_get_refuses_a_null_view_key_cell():
    schema = Schema(("k", "v"), ("k",))
    lens = compile_lens(LensSpec("L", "s", ("v",), ("v",)), schema)
    with pytest.raises(SchemaMismatch):
        get(lens, Table("s", schema, ({"k": "1", "v": None},)))


def test_put_refuses_a_rewritten_source_key_that_collides():
    view = get(BY_TAG, TAGGED_SOURCE).update_row({"tag": "b"}, {"id": "1"})
    with pytest.raises(KeyConflict):
        put(BY_TAG, TAGGED_SOURCE, view)


def test_put_accepts_rewritten_source_keys_that_swap():
    view = get(BY_TAG, TAGGED_SOURCE).update_row({"tag": "a"}, {"id": "2"}).update_row({"tag": "b"}, {"id": "1"})
    result = put(BY_TAG, TAGGED_SOURCE, view)
    assert_matches_reference(result, [("1",), ("2",)])
    assert result.get_row({"id": "1"}) == {"id": "1", "tag": "b", "note": "y"}


@pytest.mark.parametrize("edit", ["insert", "rewrite"])
def test_put_refuses_a_null_source_key_cell(edit):
    view = get(BY_TAG, TAGGED_SOURCE)
    if edit == "insert":
        view = view.insert_row({"tag": "c", "id": None})
    else:
        view = view.update_row({"tag": "a"}, {"id": None})
    with pytest.raises(SchemaMismatch):
        put(BY_TAG, TAGGED_SOURCE, view)


# --- cost shape: counted calls on a 1,000-row table -----------------------------------

BIG = Schema(("k", "v", "w"), ("k",))


def big_table() -> Table:
    return Table("big", BIG, tuple({"k": f"r{i:04d}", "v": str(i), "w": None} for i in range(1000)))


@pytest.fixture
def normalize_calls(monkeypatch):
    calls = []
    original = relational._normalize_row

    def counted(schema, row):
        calls.append(row)
        return original(schema, row)

    monkeypatch.setattr(relational, "_normalize_row", counted)
    return calls


@pytest.mark.parametrize(
    "op, most",
    [
        (lambda t: t.insert_row({"k": "r0500x", "v": "new", "w": None}), 1),
        (lambda t: t.update_row({"k": "r0500"}, {"v": "changed"}), 1),
        (lambda t: t.delete_row({"k": "r0500"}), 1),
        (lambda t: t.with_id("other"), 0),
    ],
    ids=["insert_row", "update_row", "delete_row", "with_id"],
)
def test_an_edit_validates_only_the_row_it_touches(normalize_calls, op, most):
    table = big_table()
    normalize_calls.clear()
    result = op(table)
    assert len(normalize_calls) <= most
    assert_matches_reference(result, [("r0500",), ("r0500x",)])


def test_a_second_digest_hashes_nothing(monkeypatch):
    table = big_table()
    calls = []
    original = relational.sha256_hex
    monkeypatch.setattr(relational, "sha256_hex", lambda data: calls.append(data) or original(data))
    first = table.digest()
    assert len(calls) == 1
    assert table.digest() == first
    assert len(calls) == 1


def test_an_accepted_receipt_on_an_unmoved_source_derives_no_view(monkeypatch):
    lens = compile_lens(LensSpec("L", "big", ("k", "v"), ("k",)), BIG)
    node = PeerNode("A", {"big": big_table()}, {"L": lens}, {"S": ShareBinding("S", "L", "B")})
    node.install_share("S")
    node.local_edit("big", Edit("update", key={"k": "r0500"}, changes={"v": "changed"}))
    tx = node.regenerate_and_propose("S")
    calls = []
    original = peer_module.lens_get
    monkeypatch.setattr(peer_module, "lens_get", lambda *args: calls.append(args) or original(*args))
    assert node.on_receipt(Receipt(tx, Verdict.accept(), "A")) == []
    assert calls == []
    assert node.read_shared("S").get_row({"k": "r0500"})["v"] == "changed"
    # Once the source moves, the receipt still leads to a follow-up proposal.
    node.local_edit("big", Edit("update", key={"k": "r0501"}, changes={"v": "again"}))
    tx = node.regenerate_and_propose("S")
    node.local_edit("big", Edit("update", key={"k": "r0502"}, changes={"v": "more"}))
    calls.clear()
    (follow_up,) = node.on_receipt(Receipt(tx, Verdict.accept(), "A"))
    assert len(calls) == 1
    assert follow_up.base_version == 2
