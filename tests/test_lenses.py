"""Lens compilation, get/put semantics, and the round-trip laws."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import D3_SCHEMA, L31_SPEC, L32_SPEC, make_edited_view, make_lens_case, scenario_path
from medsync.harness import dump, load_dump, load_scenario, run
from medsync.lenses import (
    EmptyViewKey,
    FdViolation,
    InsertNotSupported,
    LensSpec,
    compile_lens,
    get,
    put,
)
from medsync.relational import KeyConflict, Schema, SchemaMismatch, Table, UnknownAttribute


class TestCompile:
    def test_inserts_blocked_when_source_key_hidden(self, l32):
        # source key (a0, a1) is not inside view attrs (a1, a5)
        assert l32.inserts_allowed is False
        assert l32.view_schema == Schema(("a1", "a5"), ("a1",))

    def test_inserts_allowed_when_source_key_visible(self, l31):
        assert l31.inserts_allowed is True

    def test_unknown_view_attribute(self):
        with pytest.raises(UnknownAttribute):
            compile_lens(LensSpec("L", "D3", ("a1", "a9"), ("a1",)), D3_SCHEMA)

    def test_empty_view_key(self):
        with pytest.raises(EmptyViewKey):
            compile_lens(LensSpec("L", "D3", ("a1", "a5"), ()), D3_SCHEMA)

    def test_view_key_outside_view_attrs(self):
        with pytest.raises(UnknownAttribute):
            compile_lens(LensSpec("L", "D3", ("a1", "a5"), ("a0",)), D3_SCHEMA)

    def test_spec_json_roundtrip(self):
        assert LensSpec.from_json_dict(L32_SPEC.to_json_dict()) == L32_SPEC

    @pytest.mark.parametrize("spec", [L31_SPEC, L32_SPEC], ids=["L31", "L32"])
    def test_two_compilations_of_one_spec_are_equal(self, spec):
        # The getters compiled once per lens compare by identity; they are left out of equality.
        first, second = compile_lens(spec, D3_SCHEMA), compile_lens(spec, D3_SCHEMA)
        assert first == second
        assert first.view_of is not second.view_of

    def test_a_reloaded_worlds_lenses_equal_the_live_ones(self, tmp_path):
        world = run(load_scenario(scenario_path("update_flow")))
        reloaded = load_dump(dump(world, tmp_path / "d"))
        assert sorted(reloaded.peers) == sorted(world.peers)
        for principal, peer in world.peers.items():
            assert peer.lenses and reloaded.peers[principal].lenses == peer.lenses
            for sid, share in peer.shares.items():
                assert reloaded.peers[principal].shares[sid].lens == share.lens

    def test_a_null_view_key_cell_outside_the_source_key_is_refused(self):
        schema = Schema(("k", "x", "y"), ("k",))
        lens = compile_lens(LensSpec("L", "s", ("x", "y"), ("x",)), schema)
        assert lens.nullable_key_at == (("x", 1),)
        source = Table("s", schema, ({"k": "1", "x": "a", "y": None}, {"k": "2", "x": None, "y": "b"}))
        with pytest.raises(SchemaMismatch, match="^primary-key cell 'x' must not be null$"):
            get(lens, source)
        assert list(get(lens, source.delete_row({"k": "2"})).rows) == [{"x": "a", "y": None}]

    def test_a_source_key_attribute_outside_the_view_key_rekeys_on_put(self):
        schema = Schema(("k", "v", "w"), ("k",))
        lens = compile_lens(LensSpec("L", "s", ("k", "v"), ("v",)), schema)
        assert lens.rekeys and not compile_lens(LensSpec("L", "s", ("k", "v"), ("k",)), schema).rekeys
        source = Table("s", schema, ({"k": "1", "v": "a", "w": "x"}, {"k": "2", "v": "b", "w": "y"}))
        result = put(lens, source, get(lens, source).update_row({"v": "a"}, {"k": "9"}))
        assert list(result.rows) == [{"k": "2", "v": "b", "w": "y"}, {"k": "9", "v": "a", "w": "x"}]


class TestGet:
    def test_projects_and_deduplicates(self, l32, fixture_f):
        view = get(l32, fixture_f)
        assert {(r["a1"], r["a5"]) for r in view.rows} == {("MedX", "MeA1"), ("MedY", "MeA9")}
        assert view.schema == l32.view_schema
        assert view.id == "L32"

    def test_full_projection_is_identity_on_rows(self, fixture_f):
        lens = compile_lens(LensSpec("LID", "D3", D3_SCHEMA.attrs, D3_SCHEMA.key), D3_SCHEMA)
        assert set(map(tuple, (sorted(r.items()) for r in get(lens, fixture_f).rows))) == set(
            map(tuple, (sorted(r.items()) for r in fixture_f.rows))
        )

    def test_broken_dependency_is_refused(self, l32, fixture_f):
        broken = fixture_f.update_row({"a0": "P2", "a1": "MedX"}, {"a5": "MeA7"})
        with pytest.raises(FdViolation):
            get(l32, broken)

    def test_wrong_source_schema(self, l32):
        other = Table("X", Schema(("a1",), ("a1",)), ({"a1": "q"},))
        with pytest.raises(SchemaMismatch):
            get(l32, other)


class TestPut:
    def test_update_fans_out_across_matching_rows(self, l32, fixture_f):
        view = get(l32, fixture_f).update_row({"a1": "MedX"}, {"a5": "MeA2"})
        result = put(l32, fixture_f, view)
        assert result.get_row({"a0": "P1", "a1": "MedX"})["a5"] == "MeA2"
        assert result.get_row({"a0": "P2", "a1": "MedX"})["a5"] == "MeA2"
        # the MedY row is untouched, including cells outside the view
        assert result.get_row({"a0": "P1", "a1": "MedY"}) == fixture_f.get_row(
            {"a0": "P1", "a1": "MedY"}
        )
        assert result.id == "D3"

    def test_putting_unchanged_view_is_identity(self, l32, l31, fixture_f):
        for lens in (l32, l31):
            assert put(lens, fixture_f, get(lens, fixture_f)) == fixture_f

    def test_insert_refused_when_key_hidden(self, l32, fixture_f):
        view = get(l32, fixture_f).insert_row({"a1": "MedZ", "a5": "MeA5"})
        with pytest.raises(InsertNotSupported):
            put(l32, fixture_f, view)

    def test_view_deletion_deletes_all_matching_source_rows(self, l32, fixture_f):
        view = get(l32, fixture_f).delete_row({"a1": "MedX"})
        result = put(l32, fixture_f, view)
        assert {r["a1"] for r in result.rows} == {"MedY"}
        assert len(result.rows) == 1

    def test_insert_pads_hidden_attributes_with_null(self, l31, fixture_f):
        view = get(l31, fixture_f).insert_row(
            {"a0": "P3", "a1": "MedZ", "a2": "clinNote4", "a4": "1mg"}
        )
        result = put(l31, fixture_f, view)
        new_row = result.get_row({"a0": "P3", "a1": "MedZ"})
        assert new_row["a5"] is None
        assert new_row["a2"] == "clinNote4"
        assert len(result.rows) == 4

    def test_insert_key_conflict(self):
        # source keyed on c0 alone; the view distinguishes rows the source cannot
        schema = Schema(("c0", "c1"), ("c0",))
        lens = compile_lens(LensSpec("L", "s", ("c0", "c1"), ("c0", "c1")), schema)
        source = Table("s", schema, ({"c0": "x", "c1": "1"},))
        view = get(lens, source).insert_row({"c0": "x", "c1": "2"})
        with pytest.raises(KeyConflict):
            put(lens, source, view)

    def test_wrong_view_schema(self, l32, fixture_f):
        with pytest.raises(SchemaMismatch):
            put(l32, fixture_f, fixture_f)


# --- round-trip laws ---------------------------------------------------------------


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_putget_law(seed):
    rng = random.Random(seed)
    lens, source = make_lens_case(rng)
    view = get(lens, source)
    edited, _ = make_edited_view(rng, lens, view)
    assert get(lens, put(lens, source, edited)) == edited


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_getput_law(seed):
    rng = random.Random(seed)
    lens, source = make_lens_case(rng)
    assert put(lens, source, get(lens, source)) == source


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_put_stability(seed):
    """Source rows whose view row did not change come through put untouched."""
    rng = random.Random(seed)
    lens, source = make_lens_case(rng)
    old_view = get(lens, source)
    new_view, _ = make_edited_view(rng, lens, old_view)

    vkey = lens.spec.view_key
    old_rows = {tuple(r[k] for k in vkey): r for r in old_view.rows}
    new_rows = {tuple(r[k] for k in vkey): r for r in new_view.rows}
    unchanged = {k for k, r in new_rows.items() if old_rows.get(k) == r}

    result = put(lens, source, new_view)
    result_ids = {tuple(sorted(r.items())) for r in result.rows}
    for srow in source.rows:
        if tuple(srow[k] for k in vkey) in unchanged:
            assert tuple(sorted(srow.items())) in result_ids


def test_get_and_put_are_pure(l32, fixture_f):
    view = get(l32, fixture_f)
    assert get(l32, fixture_f) == view
    edited = view.update_row({"a1": "MedX"}, {"a5": "MeA2"})
    assert put(l32, fixture_f, edited) == put(l32, fixture_f, edited)
