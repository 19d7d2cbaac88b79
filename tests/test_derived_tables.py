"""Tables the program derives (CRUD, `with_id`, lens `get` and `put`) skip the
constructor's checks; these tests hold each of them to the table the checking
constructor builds from the same rows, hold the lens caches' delta `get` and
`put` to a full recompute, and count the work an edit does."""

from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medsync.lenses as lenses
import medsync.peer as peer_module
import medsync.relational as relational
from conftest import BUNDLED_SCENARIOS, iter_law_cases, make_edited_view, make_lens_case, scenario_path
from medsync.contract import SharedTableMetadata, Verdict
from medsync.harness import (
    EditAction,
    ProposeAction,
    Scenario,
    ScheduledAction,
    ShareDeployment,
    World,
    load_scenario,
    verify_convergence,
)
from medsync.ledger import Receipt
from medsync.lenses import FdViolation, LensCache, LensSpec, compile_lens, get, put
from medsync.peer import DataResponse, Edit, PeerNode, ShareBinding
from medsync.relational import (
    KeyConflict,
    NotFound,
    Schema,
    SchemaMismatch,
    Table,
    canonical_json,
    sha256_hex,
)


def key_of(table: Table, row) -> tuple:
    return tuple(row[k] for k in table.schema.key)


def by_key(table: Table) -> dict:
    return {key_of(table, row): row for row in table.rows}


def cells_by_key(table: Table) -> dict:
    """Each row's key and the cell tuple the table holds for it, read from its chunks."""
    return {k: cells for chunk in table._chunks for k, cells in chunk.rows.items()}


def assert_chunks_hold(table: Table) -> None:
    """No chunk is empty or holds more than `2 * CHUNK` rows; keys, first keys
    included, strictly increase; each chunk files each row, a tuple of one cell
    per attribute, under its key, and keeps its first key and, once encoded,
    its rows' JSON."""
    attrs, keys = table.schema.attrs, []
    for chunk in table._chunks:
        assert 0 < len(chunk.rows) <= 2 * relational.CHUNK
        assert chunk.first == next(iter(chunk.rows))
        for k, cells in chunk.rows.items():
            assert type(cells) is tuple and len(cells) == len(attrs)
            assert k == key_of(table, dict(zip(attrs, cells)))
        if chunk.json is not None:
            assert b"[" + chunk.json + b"]" == canonical_json([list(cells) for cells in chunk.rows.values()])
        keys += chunk.rows
    assert keys == sorted(set(keys))


def assert_matches_reference(table: Table, keys=()) -> None:
    """`table` equals, hashes and looks up like the table `Table(...)` builds from
    its rows, and keeps the chunk invariants.

    `keys` are extra key tuples to look up, such as those of deleted rows.
    """
    assert_chunks_hold(table)
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
# Tables of a few rows span several chunks only when chunks are this small.
CHUNK_SIZES = (1, 2, relational.CHUNK)


@st.composite
def crud_cases(draw):
    n_attrs = draw(st.integers(1, 4))
    attrs = tuple(f"c{i}" for i in range(n_attrs))
    key = attrs[: draw(st.integers(1, n_attrs))]
    schema = Schema(attrs, key)

    def row():
        return {a: draw(key_cells) if a in key else draw(cells) for a in attrs}

    start = {tuple(r[k] for k in key): r for r in (row() for _ in range(draw(st.integers(0, 6))))}
    kinds = ["insert", "update", "delete", "with_id", "digest"]
    if draw(st.booleans()):
        kinds += ["delete"] * 3  # delete-heavy: chunks empty out and are dropped
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(kinds))
        r = row()
        changes = {a: draw(cells) for a in attrs if a not in key and draw(st.booleans())}
        ops.append((kind, r, changes))
    return draw(st.sampled_from(CHUNK_SIZES)), schema, tuple(start.values()), ops


@settings(max_examples=300, deadline=None, derandomize=True)
@given(crud_cases())
def test_crud_results_match_the_reference_constructor(case):
    chunk, schema, rows, ops = case
    with patch.object(relational, "CHUNK", chunk):
        table = Table("t", schema, rows)
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


# --- delta get and put against a full recompute ------------------------------------
#
# A LensCache re-derives only the view rows at the view keys of the source rows
# that changed. Random schemas and lenses (view keys inside and outside the
# source key), random CRUD, replace (a delete and an insert) and put steps;
# after each step the cached view must be what a cache-free get derives from
# the lens's definition in whole-table passes, an independent implementation,
# or both must refuse the source. Each pair of table versions a step diffs is
# also held to a reference diff by key and row identity, and so is
# the source against every earlier source of the case, its siblings, `with_id`
# copies and adopted views. A case runs at one of `CHUNK_SIZES`, so its tables
# span several chunks, which splices split and drop.

DELTA_CELLS = ["a", "b", "x],[y", None]  # "],[" in a cell reads like the boundary of two encoded rows
DELTA_KEYS = ["p", "q", "r"]


def make_delta_case(rng: random.Random):
    n_attrs = rng.randint(2, 4)
    attrs = tuple(f"c{i}" for i in range(n_attrs))
    key = attrs[: rng.randint(1, n_attrs - 1)]
    schema = Schema(attrs, key)
    view_attrs = tuple(a for a in attrs if rng.random() < 0.6) or attrs[-1:]
    view_key = tuple(a for a in view_attrs if rng.random() < 0.5) or view_attrs[:1]
    lens = compile_lens(LensSpec("L", "s", view_attrs, view_key), schema)

    def row():
        return {a: rng.choice(DELTA_KEYS) if a in key else rng.choice(DELTA_CELLS) for a in attrs}

    start = {tuple(r[k] for k in key): r for r in (row() for _ in range(rng.randint(0, 8)))}
    steps = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.choice(["insert", "update", "update", "delete", "put", "put"])
        changes = {a: rng.choice(DELTA_CELLS) for a in attrs if a not in key and rng.random() < 0.5}
        steps.append((kind, row(), changes))
    steps.append(("replace", steps[-1][1], {}))  # draws nothing, so the cases before it stay as they were
    return lens, Table("s", schema, tuple(start.values())), steps


def _outcome(fn):
    """What a lens call returns, or the type of the lens or table error it raises."""
    try:
        return fn()
    except (relational.RelationalError, lenses.LensError) as exc:
        return type(exc)


def check_diff(old: Table, new: Table, seen: set[str]) -> None:
    """`new.changes_since(old)` and `changed_view_attrs` against references built
    by key from every chunk's cell tuples, which pair a row with itself by identity."""
    gone_keys, gone_rows, came_keys, came_rows = new.changes_since(old)
    old_rows, new_rows = cells_by_key(old), cells_by_key(new)
    old_items = {(k, id(row)) for k, row in old_rows.items()}
    new_items = {(k, id(row)) for k, row in new_rows.items()}
    assert gone_keys == sorted(set(gone_keys)) and len(gone_rows) == len(gone_keys)
    assert came_keys == sorted(set(came_keys)) and len(came_rows) == len(came_keys)
    assert {(k, id(row)) for k, row in zip(gone_keys, gone_rows)} == old_items - new_items
    assert {(k, id(row)) for k, row in zip(came_keys, came_rows)} == new_items - old_items
    attrs = new.schema.attrs
    if old_rows.keys() != new_rows.keys():
        expected = frozenset(attrs)
    else:
        expected = frozenset(a for k, row in new_rows.items() for i, a in enumerate(attrs) if old_rows[k][i] != row[i])
    assert peer_module.changed_view_attrs(old, new) == expected
    old_chunks, new_chunks = set(old._chunks), set(new._chunks)
    if old_chunks & new_chunks and old_chunks != new_chunks:
        seen.add("diff skips shared chunks")
    if len(old_chunks - new_chunks) > 1 or len(new_chunks - old_chunks) > 1:
        seen.add("diff pairs rows across chunks")
    if not old.rows and new.rows:
        seen.add("empty old table")
    if len(old.rows) == len(new.rows) and old_rows.keys() != new_rows.keys():
        seen.add("equal-length insert and delete")


def run_delta_case(lens, source, steps, rng: random.Random) -> set[str]:
    """Apply `steps`, checking the cache against a full recompute after each; return what was seen."""
    seen: set[str] = set()
    def view_key_of(row: dict) -> tuple:
        return tuple(row[a] for a in lens.spec.view_key)

    cache = LensCache(lens)
    history = [source]  # every source the lens accepted, oldest first; a `Table(...)` root
    adopted = False  # the cached view is the one the last put adopted
    for kind, row, changes in [("start", None, None), *steps]:
        key = {a: row[a] for a in source.schema.key} if row else None
        before = source
        if kind == "put":
            try:
                edited, _ = make_edited_view(rng, lens, cache.view)
            except KeyConflict:  # the edit script reuses an inserted key across steps
                continue
            check_diff(cache.view, edited, seen)
            expected = _outcome(lambda: put(lens, source, edited))
            result = _outcome(lambda: put(lens, source, edited, cache))
            assert result == expected
            if isinstance(result, type):
                assert cache.source is source  # a refused put leaves the cache where it was
                seen.add("refused put")
                continue
            if expected is not source and result is not source:  # two splices of one parent
                check_diff(source, expected, seen)
                check_diff(expected, result, seen)
                check_diff(result, expected, seen)
                seen.add("sibling diff")
            source = result
            adopted = True
            seen.add("put")
        elif kind != "start":
            try:
                if kind == "insert":
                    source = source.insert_row(row)
                elif kind == "update":
                    source = source.update_row(key, changes)
                elif kind == "replace":
                    if not source.rows:
                        continue
                    first = {a: source.rows[0][a] for a in source.schema.key}
                    source = source.delete_row(first).insert_row(row)
                else:
                    source = source.delete_row(key)
            except (KeyConflict, NotFound):
                continue
            if 0 < len(before._chunks) < len(source._chunks):
                seen.add("chunk split")
            if len(source._chunks) < len(before._chunks):
                seen.add("chunk dropped")
            if before.rows and source is not before:  # a second child of `before`, spliced after `source`
                sibling = before.delete_row({a: before.rows[0][a] for a in before.schema.key})
                check_diff(before, sibling, seen)
                check_diff(source, sibling, seen)
                check_diff(sibling, source, seen)
                seen.add("sibling diff")
        assert_chunks_hold(source)
        full = _outcome(lambda: get(lens, source))
        held, held_view = cache.source, cache.view
        check_diff(held, source, seen)
        for older in history:
            check_diff(older, source, seen)
        check_diff(source, history[-1], seen)  # backwards
        check_diff(history[-1], source.with_id("copy"), seen)
        check_diff(source.with_id("copy"), source, seen)
        delta = _outcome(lambda: get(lens, source, cache))
        if isinstance(full, type):
            # The touched rows break the dependency or null a view-key cell:
            # the delta path refuses them too, and the cache stays as it was.
            assert delta is full
            assert cache.source is held
            seen.add({FdViolation: "fd violation", SchemaMismatch: "null view key"}[full])
            source = held  # carry on from the last source the lens accepted
            continue
        assert delta == full
        check_diff(held_view, delta, seen)
        if adopted:
            seen.add("diff from an adopted view")
            adopted = False
        history.append(source)
        assert delta.digest() == sha256_hex(canonical_json(delta.to_json_dict()))
        assert_matches_reference(delta)
        if len(source.rows) > len(delta.rows):
            seen.add("fan-out")
        if kind == "delete":
            gone = view_key_of(before.get_row(key))
            if not any(view_key_of(r) == gone for r in source.rows):
                assert gone not in by_key(delta)  # the group emptied: its view row is gone
                seen.add("emptied group")
    return seen


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_delta_get_and_put_match_a_full_recompute(seed):
    rng = random.Random(seed)
    with patch.object(relational, "CHUNK", CHUNK_SIZES[seed % len(CHUNK_SIZES)]):
        run_delta_case(*make_delta_case(rng), rng)


def test_delta_cases_cover_refusals_emptied_groups_puts_and_fan_out():
    rng = random.Random(11)
    seen: set[str] = set()
    for i in range(400):
        with patch.object(relational, "CHUNK", CHUNK_SIZES[i % len(CHUNK_SIZES)]):
            seen |= run_delta_case(*make_delta_case(rng), rng)
    assert seen >= {
        "fd violation",
        "null view key",
        "emptied group",
        "put",
        "refused put",
        "fan-out",
        "empty old table",
        "equal-length insert and delete",
        "diff skips shared chunks",
        "diff pairs rows across chunks",
        "chunk split",
        "chunk dropped",
        "sibling diff",
        "diff from an adopted view",
    }


def test_a_view_keyed_on_the_source_key_in_another_order_is_sorted():
    # The view key covers the source key, so no view row fans out, but a view
    # keyed (m, p) over a source keyed (p, m) holds its rows in another order;
    # random cases draw view keys in attribute order and never reach this.
    schema = Schema(("p", "m", "note"), ("p", "m"))
    lens = compile_lens(LensSpec("BY_MP", "s", ("m", "p", "note"), ("m", "p")), schema)
    n_rows = 5 * relational.CHUNK
    source = Table("s", schema, ({"p": f"P{i // 10:03d}", "m": f"M{i % 10}", "note": f"n{i}"} for i in range(n_rows)))
    assert list(map(lens.view_key_of, source._cells())) != sorted(map(lens.view_key_of, source._cells()))
    cache = LensCache(lens)
    for _ in range(2):  # the first derive, then one after an edit
        whole = get(lens, source)
        assert whole == get(lens, source, cache)
        assert len(whole) == n_rows and len(whole._chunks) > 2
        assert_matches_reference(whole)
        source = source.update_row({"p": "P007", "m": "M3"}, {"note": "changed"})


def _raised(fn) -> tuple[type, str]:
    """The type and message of the lens or table error `fn` raises."""
    with pytest.raises((relational.RelationalError, lenses.LensError)) as info:
        fn()
    return type(info.value), str(info.value)


# Source keyed on `k`. Lenses keyed on `v` fan out; one keyed (k, v) or (v, k)
# covers the source key but reaches outside it, so only `v` can be null.
KVW = Schema(("k", "v", "w"), ("k",))
BY_V = LensSpec("BY_V", "s", ("v", "w"), ("v",))


def _kvw(*rows: tuple) -> Table:
    return Table("s", KVW, (dict(zip(KVW.attrs, row)) for row in rows))


@pytest.mark.parametrize(
    "spec, source, error",
    [
        (BY_V, _kvw(("1", "x", "a"), ("2", "x", "b")), FdViolation),
        (BY_V, _kvw(("1", None, "a"), ("2", "x", "a")), SchemaMismatch),
        (LensSpec("BY_KV", "s", ("k", "v"), ("k", "v")), _kvw(("1", "x", "a"), ("2", None, "a")), SchemaMismatch),
        (
            LensSpec("BY_VK", "s", ("v", "k"), ("v", "k")),  # unsorted keys: a null must not reach a comparison
            _kvw(("1", "y", "a"), ("2", None, "a"), ("3", "x", "a")),
            SchemaMismatch,
        ),
        (BY_V, Table("s", Schema(("k", "v"), ("k",)), ({"k": "1", "v": "x"},)), SchemaMismatch),
        (BY_V, _kvw(("1", None, "a"), ("2", "x", "a"), ("3", "x", "b")), FdViolation),
    ],
    ids=["fd-break", "null-key-fan-out", "null-key", "null-key-unsorted", "other-schema", "fd-break-and-null-key"],
)
def test_the_whole_and_the_incremental_get_raise_the_same_error(spec, source, error):
    lens = compile_lens(spec, KVW)
    whole = _raised(lambda: get(lens, source))
    assert whole == _raised(lambda: get(lens, source, LensCache(lens)))
    assert whole[0] is error


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


def test_put_refuses_a_source_whose_view_get_refuses():
    # put derives the source's current view first, so it no longer drops the
    # rows whose view-key cell is null as if the incoming view had deleted them.
    schema = Schema(("k", "v"), ("k",))
    lens = compile_lens(LensSpec("L", "s", ("v",), ("v",)), schema)
    source = Table("s", schema, ({"k": "1", "v": None}, {"k": "2", "v": "x"}))
    with pytest.raises(SchemaMismatch):
        put(lens, source, Table("L", lens.view_schema, ({"v": "x"},)))


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


class _LoggedSha256:
    """A SHA-256 state that logs each input it is fed, and each copy made of it."""

    def __init__(self, log: list, state) -> None:
        self._log, self._state = log, state

    def update(self, data: bytes) -> None:
        self._log.append(("update", len(data)))
        self._state.update(data)

    def copy(self) -> "_LoggedSha256":
        self._log.append(("copy", 0))
        return _LoggedSha256(self._log, self._state.copy())

    def hexdigest(self) -> str:
        return self._state.hexdigest()


@pytest.fixture
def hashing(monkeypatch):
    """Each new SHA-256 state, update and copy `relational` makes, with the bytes it hashes."""
    log = []

    def sha256(data=b""):
        log.append(("new", len(data)))
        return _LoggedSha256(log, hashlib.sha256(data))

    monkeypatch.setattr(relational, "hashlib", SimpleNamespace(sha256=sha256))
    return log


def fed(log) -> int:
    return sum(n for _, n in log)


def test_a_second_digest_hashes_nothing(hashing):
    table = big_table()
    first = table.digest()
    assert fed(hashing) == len(table.canonical_bytes())
    hashing.clear()
    assert table.digest() == first
    assert hashing == []


def test_a_one_row_edit_hashes_from_its_chunk_to_the_end(hashing):
    table = Table("big", BIG, tuple({"k": f"r{i:05d}", "v": str(i), "w": None} for i in range(10_000)))
    table.digest()
    tail = len(b'],"schema":' + BIG.canonical_bytes() + b"}")
    for key in ("r09999", "r00000"):
        edited = table.update_row({"k": key}, {"v": "changed"})
        hashing.clear()
        digest = edited.digest()
        assert digest == hashlib.sha256(edited.canonical_bytes()).hexdigest()
        if key == "r09999":  # the last chunk's bytes, and its neighbour's were it split
            assert 0 < fed(hashing) <= sum(len(c.json) + 1 for c in edited._chunks[-2:]) + tail
        else:  # an edit in the first chunk hashes the whole table
            assert fed(hashing) == len(edited.canonical_bytes())


# An op on a table of the pool: (kind, which table, where, how many rows).
digest_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "with_id", "digest"]),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
        st.integers(1, 12),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from((1, 2, 4)), st.integers(0, 24), digest_ops)
def test_every_digest_is_the_hash_of_the_canonical_bytes(chunk, n_rows, ops):
    """Kept hash states are resumed only after the bytes they were made from:
    across edits that split or empty chunks, branches of one parent, `with_id`
    copies, and digests taken in any order."""

    def check(table: Table) -> None:
        assert table.digest() == sha256_hex(canonical_json(table.to_json_dict()))

    with patch.object(relational, "CHUNK", chunk):
        pool = [Table("tab", BIG, tuple({"k": f"{i:04d}", "v": str(i), "w": None} for i in range(0, 2 * n_rows, 2)))]
        for kind, which, where, n in ops:
            table = pool[which % len(pool)]
            keys = [{"k": row["k"]} for row in table.rows]
            if kind == "insert":  # a run of new keys lands in one chunk, which may split
                for j in range(n):
                    row = {"k": f"{where % 60:04d}.{j:02d}", "v": "new", "w": None}
                    if table.get_row({"k": row["k"]}) is None:
                        table = table.insert_row(row)
            elif kind == "update" and keys:
                table = table.update_row(keys[where % len(keys)], {"v": str(n)})
            elif kind == "delete" and keys:  # from the first row, this may empty the first chunk
                start = where % len(keys) if where % 2 else 0
                for key in keys[start : start + n]:
                    table = table.delete_row(key)
            elif kind == "with_id":  # another id, or an equal id held in a distinct string
                table = table.with_id("".join(("ta", "b")) if n % 2 else "other")
            elif kind == "digest":
                check(table)
                continue
            pool.append(table)
        for table in reversed(pool):
            check(table)


def test_an_accepted_receipt_on_an_unmoved_source_derives_no_view(monkeypatch):
    lens = compile_lens(LensSpec("L", "big", ("k", "v"), ("k",)), BIG)
    node = PeerNode("A", {"big": big_table()}, {"L": lens}, {"S": ShareBinding("S", "L", "B")})
    node.install_share("S")
    node.local_edit("big", Edit("update", key={"k": "r0500"}, changes={"v": "changed"}))
    tx = node.regenerate_and_propose("S")
    calls = []
    original = peer_module.lens_get
    monkeypatch.setattr(peer_module, "lens_get", lambda *args: calls.append(args) or original(*args))
    assert node.on_receipt(Receipt(tx, Verdict.accept(), "A")) is None
    assert calls == []
    assert node.shares["S"].copy.get_row({"k": "r0500"})["v"] == "changed"
    # Once the source moves, the receipt still leads to a follow-up proposal.
    node.local_edit("big", Edit("update", key={"k": "r0501"}, changes={"v": "again"}))
    tx = node.regenerate_and_propose("S")
    node.local_edit("big", Edit("update", key={"k": "r0502"}, changes={"v": "more"}))
    calls.clear()
    follow_up = node.on_receipt(Receipt(tx, Verdict.accept(), "A"))
    assert len(calls) == 1
    assert follow_up.base_version == 2


# --- cost shape: counted work of one edit on a 10,000-row table ----------------------

# D3-like source keyed on (p, m); L31-like view keyed on the source key, and an
# L32-like view keyed on m alone, so each of its rows stands for ten source rows.
WIDE = Schema(("p", "m", "note", "dose", "mech"), ("p", "m"))
BY_ROW = LensSpec("BY_ROW", "wide", ("p", "m", "note", "dose"), ("p", "m"))
BY_MED = LensSpec("BY_MED", "wide", ("m", "mech"), ("m",))


def wide_table() -> Table:
    rows = (
        {"p": f"P{i // 10:04d}", "m": f"M{i % 1000:03d}", "note": f"n{i}", "dose": f"d{i}", "mech": f"e{i % 1000}"}
        for i in range(10_000)
    )
    return Table("wide", WIDE, tuple(rows))


def wide_peer(name: str, counterpart: str) -> PeerNode:
    lenses_ = {"BY_ROW": compile_lens(BY_ROW, WIDE), "BY_MED": compile_lens(BY_MED, WIDE)}
    bindings = {"S": ShareBinding("S", "BY_ROW", counterpart), "T": ShareBinding("T", "BY_MED", counterpart)}
    node = PeerNode(name, {"wide": wide_table()}, lenses_, bindings)
    for sid in ("S", "T"):
        node.install_share(sid).digest()  # as at genesis, where the contract records each digest
    return node


def _meta(view: Table, version: int) -> SharedTableMetadata:
    """The contract entry of share `view.id` at `version`, registering `view`."""
    return SharedTableMetadata(
        shared_id=view.id,
        view_schema=view.schema,
        peers=frozenset({"A", "B"}),
        perm={attr: frozenset({"A"}) for attr in view.schema.attrs},
        authority="A",
        version=version,
        content_digest=view.digest(),
    )


@pytest.fixture
def counted(monkeypatch):
    """Counts of the view rows the lenses build into a view (new or changed
    rows a splice of a view takes in), the rows encoded for digests, the rows
    spliced, per table, and the rows diffs read: one entry per side of a
    `changes_since`, the rows of its chunks the other side lacks (from the
    empty table, every row)."""
    counts = {"view_rows": 0, "encoded": 0, "spliced": {}, "read": []}
    encoded, spliced, apart = relational._encoded, relational.Table._spliced, relational._apart

    def count_encoded(rows):
        counts["encoded"] += len(rows)
        return encoded(rows)

    def count_spliced(table, changes):
        counts["spliced"][table.id] = counts["spliced"].get(table.id, 0) + len(changes)
        if table.schema != WIDE:  # a view: its source tables are all "wide"
            counts["view_rows"] += sum(row is not None for row in changes.values())
        return spliced(table, changes)

    def count_read(old, new):
        gone, came = apart(old, new)
        counts["read"] += [len(gone), len(came)]
        return gone, came

    monkeypatch.setattr(relational, "_encoded", count_encoded)
    monkeypatch.setattr(relational.Table, "_spliced", count_spliced)
    monkeypatch.setattr(relational, "_apart", count_read)
    return counts


def test_a_one_row_edit_and_proposal_build_one_row_and_encode_one_chunk(counted):
    node = wide_peer("A", "B")
    counted.update(view_rows=0, encoded=0, spliced={})
    node.local_edit("wide", Edit("update", key={"p": "P0500", "m": "M000"}, changes={"note": "changed"}))
    tx = node.regenerate_and_propose("S")
    assert tx is not None and tx.changed_attrs == {"note"}
    assert tx.new_digest == sha256_hex(canonical_json(node.shares["S"].cache.view.to_json_dict()))
    assert counted["view_rows"] <= 1
    assert 0 < counted["encoded"] <= relational.CHUNK  # the proposed view's one changed chunk
    assert counted["spliced"] == {"wide": 1, "S": 1}


@pytest.mark.parametrize(
    "edit, attrs",
    [
        (Edit("update", key={"p": "P0501", "m": "M010"}, changes={"dose": "again"}), {"dose"}),
        (Edit("delete", key={"p": "P0501", "m": "M010"}), set(BY_ROW.view_attrs)),
    ],
    ids=["update", "delete"],
)
def test_a_one_row_edit_is_diffed_without_walking_the_table(counted, edit, attrs):
    node = wide_peer("A", "B")
    assert counted["read"] == []  # installation derives each view from the whole source and diffs nothing
    # A splice of a table built by `Table(...)` shares all its other chunks.
    node.local_edit("wide", Edit("update", key={"p": "P0500", "m": "M000"}, changes={"note": "changed"}))
    tx = node.regenerate_and_propose("S")
    assert counted["read"] and max(counted["read"]) <= relational.CHUNK
    assert node.on_receipt(Receipt(tx, Verdict.accept(), "A")) is None
    counted["read"].clear()
    node.local_edit("wide", edit)
    tx = node.regenerate_and_propose("S")
    assert tx is not None and tx.changed_attrs == attrs
    assert counted["read"] and max(counted["read"]) <= relational.CHUNK  # each diff reads one chunk a side
    assert node.shares["S"].cache.view == get(compile_lens(BY_ROW, WIDE), node.tables["wide"]).with_id("S")


def test_sibling_and_adopted_view_diffs_read_the_chunks_that_differ(counted):
    table = wide_table()
    first, second = ("P0100", "M000"), ("P0900", "M000")
    left = table.update_row(dict(zip(WIDE.key, first)), {"note": "left"})
    right = table.update_row(dict(zip(WIDE.key, second)), {"note": "right"})
    counted["read"].clear()
    gone_keys, gone_rows, came_keys, came_rows = right.changes_since(left)
    assert gone_keys == came_keys == [first, second]
    note = WIDE.at["note"]
    assert [r[note] for r in gone_rows] == ["left", "n9000"] and [r[note] for r in came_rows] == ["n1000", "right"]
    assert len(counted["read"]) == 2 and max(counted["read"]) <= 2 * relational.CHUNK  # two chunks a side

    # B adopts A's view; then each side's next one-row edit is diffed against the adopted view.
    a, b = wide_peer("A", "B"), wide_peer("B", "A")
    a.local_edit("wide", Edit("update", key={"p": "P0500", "m": "M000"}, changes={"dose": "a"}))
    tx = a.regenerate_and_propose("S")
    a.on_receipt(Receipt(tx, Verdict.accept(), "A"))
    assert b.on_data_response(DataResponse("S", 1, a.shares["S"].copy, "A", "B"), _meta(a.shares["S"].copy, 1)).applied
    counted["read"].clear()
    b.local_edit("wide", Edit("update", key={"p": "P0700", "m": "M000"}, changes={"dose": "b"}))
    tx = b.regenerate_and_propose("S")
    b.on_receipt(Receipt(tx, Verdict.accept(), "B"))
    assert tx.changed_attrs == {"dose"}
    assert a.on_data_response(DataResponse("S", 2, b.shares["S"].copy, "B", "A"), _meta(b.shares["S"].copy, 2)).applied
    assert a.tables["wide"].get_row({"p": "P0700", "m": "M000"})["dose"] == "b"
    assert counted["read"] and max(counted["read"]) <= 2 * relational.CHUNK


def test_derive_view_builds_no_cache_and_splices_nothing(counted, monkeypatch):
    node = wide_peer("A", "B")
    caches = []
    init = LensCache.__init__
    monkeypatch.setattr(LensCache, "__init__", lambda self, *a, **kw: caches.append(a) or init(self, *a, **kw))
    counted.update(spliced={})
    counted["read"].clear()
    for sid in ("S", "T"):  # keyed on the source key, and fanning out
        share = node.shares[sid]
        cache = share.cache
        held = cache.source, cache.view, cache.support
        assert node.derive_view(sid) == node.shares[sid].copy
        assert share.cache is cache
        assert all(now is then for now, then in zip((cache.source, cache.view, cache.support), held))
    assert caches == [] and counted["spliced"] == {} and counted["read"] == []


def test_a_whole_view_keyed_on_the_source_key_takes_one_chunk_per_source_chunk():
    lens = compile_lens(BY_ROW, WIDE)
    source = wide_table()
    cache = LensCache(lens)
    get(lens, source, cache)
    rows, built = list(source.rows), len(source._chunks)
    for i in range(32):  # fills P0100's chunk to exactly 2 * CHUNK rows
        source = source.insert_row({**rows[1000], "m": f"M009x{i:02d}"})
    for i in range(40):  # splits P0500's chunk
        source = source.insert_row({**rows[5000], "m": f"M009x{i:02d}"})
    for row in rows[6401:6432]:  # shrinks the chunk from P0640 to its first row
        source = source.delete_row({k: row[k] for k in WIDE.key})
    sizes = [len(chunk.rows) for chunk in source._chunks]
    assert min(sizes) == 1 and max(sizes) == 2 * relational.CHUNK and len(sizes) > built

    view = get(lens, source)
    assert view == get(lens, source, cache)
    assert view == Table("BY_ROW", lens.view_schema, [{a: row[a] for a in BY_ROW.view_attrs} for row in source.rows])
    assert [len(chunk.rows) for chunk in view._chunks] == sizes  # none empty, none over 2 * CHUNK
    assert_chunks_hold(view)
    assert view.digest() == sha256_hex(canonical_json(view.to_json_dict()))


def _seeded_shares():
    """(peer, share) for every share of a world built from each bundled scenario, and of the `wide` peer."""
    for name in BUNDLED_SCENARIOS:
        world = World(load_scenario(scenario_path(name)))
        yield from ((node, share) for node in world.peers.values() for share in node.shares.values())
    node = wide_peer("A", "B")
    yield from ((node, share) for share in node.shares.values())


def test_installation_seeds_each_cache_as_the_engine_would_leave_it():
    fanned = 0
    for node, share in _seeded_shares():
        cache, source = share.cache, node.tables[share.source_id]
        assert cache.source is source and cache.view is share.copy
        fresh = LensCache(share.lens)
        assert get(share.lens, source, fresh) == share.copy.with_id(share.lens.spec.lens_id)
        if share.lens.fans_out:
            fanned += 1
            assert list(cache.support.items()) == list(fresh.support.items())  # the same lists, in the same order
        else:
            assert cache.support is None
    assert fanned >= 6  # L32 in each bundled scenario, and BY_MED


def test_a_merge_visits_the_rows_it_changes_and_a_quiet_cascade_builds_nothing(counted):
    a, b = wide_peer("A", "B"), wide_peer("B", "A")
    a.local_edit("wide", Edit("update", key={"p": "P0500", "m": "M000"}, changes={"dose": "changed"}))
    tx = a.regenerate_and_propose("S")
    a.on_receipt(Receipt(tx, Verdict.accept(), "A"))
    view = a.shares["S"].copy
    meta = _meta(view, 1)
    counted.update(view_rows=0, encoded=0, spliced={})
    outcome = b.on_data_response(DataResponse("S", 1, view, "A", "B"), meta)
    assert outcome.applied and outcome.cascade_txs == ()  # BY_MED does not carry `dose`
    assert counted["spliced"] == {"wide": 1}  # put changed one source row; neither view was rebuilt
    assert counted["view_rows"] == 0 and counted["encoded"] == 0
    assert b.tables["wide"].get_row({"p": "P0500", "m": "M000"})["dose"] == "changed"
    assert b.regenerate_view("S") is view  # the merged copy is the lens's view of the new source
    assert b.regenerate_view("T") == get(compile_lens(BY_MED, WIDE), b.tables["wide"]).with_id("T")


def test_a_fan_out_edit_checks_its_group_and_a_fan_out_merge_visits_one_group(counted):
    a, b = wide_peer("A", "B"), wide_peer("B", "A")
    a.local_edit("wide", Edit("update", key={"p": "P0000", "m": "M007"}, changes={"mech": "new"}))
    counted.update(view_rows=0)
    with pytest.raises(FdViolation):  # the other nine rows of M007 still say e7
        a.regenerate_view("T")
    assert counted["view_rows"] == 0
    incoming = b.shares["T"].copy.update_row({"m": "M007"}, {"mech": "new"})
    meta = _meta(incoming, 1)
    counted.update(view_rows=0, encoded=0, spliced={})
    outcome = b.on_data_response(DataResponse("T", 1, incoming, "A", "B"), meta)
    assert outcome.applied and outcome.cascade_txs == ()  # BY_ROW does not carry `mech`
    assert counted["spliced"] == {"wide": 10}  # the ten source rows behind M007
    assert counted["view_rows"] == 0 and counted["encoded"] == 0
    assert {r["mech"] for r in b.tables["wide"].rows if r["m"] == "M007"} == {"new"}


def test_the_first_edit_of_a_share_in_a_world_diffs_chunks_not_views(counted):
    # Two peers share S (the whole rows) and T (a view each of whose rows
    # stands for ten source rows); B edits and proposes S, and A merges it.
    lenses_ = {p: {"BY_ROW": compile_lens(BY_ROW, WIDE), "BY_MED": compile_lens(BY_MED, WIDE)} for p in "AB"}
    perm = {spec.lens_id: dict.fromkeys(spec.view_attrs, frozenset({"A", "B"})) for spec in (BY_ROW, BY_MED)}
    shares = tuple(
        ShareDeployment(sid, "A", "A", dict.fromkeys("AB", spec.lens_id), perm[spec.lens_id])
        for sid, spec in (("S", BY_ROW), ("T", BY_MED))
    )
    key = {"p": "P0500", "m": "M000"}
    script = (
        ScheduledAction(0, "B", EditAction("wide", Edit("update", key=key, changes={"dose": "b"}))),
        ScheduledAction(0, "B", ProposeAction("S")),
    )
    world = World(Scenario("wide", ("A", "B"), {p: {"wide": wide_table()} for p in "AB"}, lenses_, shares, script))
    counted.update(encoded=0)
    counted["read"].clear()
    world.run_to_quiescence()
    assert world.contract.entries["S"].version == 1
    assert world.peers["A"].tables["wide"].get_row(key)["dose"] == "b"
    # B's view is the one A derived at genesis, so each diff of the edit, the
    # proposal, the merge and the cascade check reads the chunks that differ.
    assert counted["read"] and max(counted["read"]) <= 2 * relational.CHUNK
    # B's first proposal hashes on from the states genesis's digest kept on those chunks.
    assert 0 < counted["encoded"] <= relational.CHUNK
    assert verify_convergence(world).ok
