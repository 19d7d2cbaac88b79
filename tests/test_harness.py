"""Scenario loading, the tick loop, dumps, reloads, and the convergence report."""

from __future__ import annotations

import gc
import inspect
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medsync.harness
import medsync.relational
from conftest import BUNDLED_SCENARIOS, scenario_path
from medsync.harness import (
    MaxTicksExceeded,
    NotQuiescent,
    ParseError,
    TraceEvent,
    ValidationError,
    World,
    _trace_bytes,
    dump,
    load_dump,
    load_scenario,
    read_trace,
    run,
    scenario_from_json_dict,
    verify_convergence,
    write_trace,
)
from medsync.ledger import Chain
from medsync.relational import Table, _encode, canonical_json, sha256_hex


@pytest.fixture(scope="module")
def update_flow():
    return load_scenario(scenario_path("update_flow"))


@pytest.fixture(scope="module")
def cascade_delete():
    return load_scenario(scenario_path("cascade_delete"))


def _set(path, value):
    """A scenario rewrite that stores `value` at the key path `path`."""

    def rewrite(doc):
        *parents, last = path
        for p in parents:
            doc = doc[p]
        doc[last] = value

    return rewrite


def collections_during(fn, call, collecting: bool) -> list[int]:
    """The generation of each collection that starts while a frame of `fn` runs,
    over `call()` with the collector on or off as `collecting` says and its
    threshold at 1, so that a running collector would start at almost every
    allocation; the call must leave the collector as it found it."""
    inside = []

    def watch(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not fn.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            inside.append(info["generation"])

    found, threshold = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(1)
    gc.callbacks.append(watch)
    (gc.enable if collecting else gc.disable)()
    try:
        call()
        assert gc.isenabled() is collecting
    finally:
        gc.callbacks.remove(watch)
        gc.set_threshold(*threshold)
        (gc.enable if found else gc.disable)()
    return inside


def _script(*actions):
    """A scenario rewrite whose script is `actions`, all at tick 1."""
    return _set(("script",), [{"tick": 1, "principal": who, "action": action} for who, action in actions])


def _edit(who, table, **edit):
    return who, {"kind": "edit", "table": table, **edit}


def _propose(who, shared_id):
    return who, {"kind": "propose", "shared_id": shared_id}


def _grant(who, shared_id, attr, principals):
    return who, {"kind": "change_permission", "shared_id": shared_id, "attr": attr, "principals": principals}


def _append_rows(**rows):
    """A scenario rewrite that appends each principal's row to its first table."""

    def rewrite(doc):
        for principal, row in rows.items():
            doc["tables"][principal][0]["rows"].append(row)

    return rewrite


def _rename(old, new):
    """A scenario rewrite that renames the principal `old` to `new` everywhere."""

    def rewrite(doc):
        doc.update(json.loads(json.dumps(doc).replace(json.dumps(old), json.dumps(new))))

    return rewrite


def _one_letter_names(doc):
    """Rename the principals to D, P and R, so that a string of them splits into valid names."""
    for old in ("Doctor", "Patient", "Researcher"):
        _rename(old, old[0])(doc)


def _relinked(blocks):
    """The blocks, each after genesis linked to its predecessor and its digest recomputed."""
    for prev, block in zip(blocks, blocks[1:]):
        block["prev_digest"] = prev["block_digest"]
        body = {k: v for k, v in block.items() if k != "block_digest"}
        block["block_digest"] = sha256_hex(canonical_json(body))
    return blocks


def _relay(n, max_ticks):
    """A scenario: peers P0..P(n-1) in a line, Pi and Pi+1 sharing Si, and P0
    updating the one row of its table and proposing S0 at tick 1."""
    table = {"id": "T", "schema": {"attrs": ["k", "v"], "key": ["k"]}, "rows": [["r", "old"]]}
    lens = {"source": "T", "view_attrs": ["k", "v"], "view_key": ["k"]}
    shares = [(f"P{i}", f"P{i + 1}", f"S{i}") for i in range(n - 1)]
    return {
        "name": f"relay{n}",
        "principals": [f"P{i}" for i in range(n)],
        "tables": {f"P{i}": [table] for i in range(n)},
        "lenses": {
            f"P{i}": [{"lens_id": f"L{sid}", **lens} for a, b, sid in shares if f"P{i}" in (a, b)] for i in range(n)
        },
        "shares": [
            {
                "shared_id": sid,
                "deployer": a,
                "authority": a,
                "peers": {a: f"L{sid}", b: f"L{sid}"},
                "perm": {"k": [a], "v": [a, b]},
            }
            for a, b, sid in shares
        ],
        "script": [
            {"tick": 1, "principal": "P0", "action": action}
            for action in (
                {"kind": "edit", "table": "T", "op": "update", "key": {"k": "r"}, "changes": {"v": "new"}},
                {"kind": "propose", "shared_id": "S0"},
            )
        ],
        "config": {"max_ticks": max_ticks},
    }


def _leaves(doc, path=()):
    """(path, value) of every value in a JSON document that is no object or list."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _leaves(value, (*path, key))
    else:
        yield path, doc


def _swapped(value, strings):
    """The values of another JSON type a swap puts in place of `value`: an int's
    float, and also its bool when it is 0 or 1; a bool's int; with `strings`,
    0 for a string or null."""
    if type(value) is bool:
        return [int(value)]
    if type(value) is int:
        return [float(value), bool(value)] if value in (0, 1) else [float(value)]
    return [0] if strings and (value is None or type(value) is str) else []


# contract.json values of another JSON type than a dump writes, in D23's entry.
CONTRACT_VALUES = {
    "contract version true": ("version", True),
    "contract latest_update_time a string": ("latest_update_time", "0"),
    "contract digest null": ("digest", None),
    "contract authority a number": ("authority", 7),
    "contract peers a string": ("peers", "DoctorResearcher"),
}

# world.json rewrites a reload refuses.
WORLD_VALUES = ["string clock", "clock another integer", "share name a path", "lens_id a number", "counterpart another peer"]

# Files the JSON reader cannot decode.
UNDECODABLE = {"not UTF-8": b"\xff\xfe{}", "nested too deep": b"[" * 200_000 + b"]" * 200_000}

KV_TABLE = {"id": "KV", "schema": {"attrs": ["k", "v"], "key": ["k"]}, "rows": [["1", "x"]]}


def _burst_scenario(burst_ticks):
    """Doctor and Patient both update `a2` of one share every other tick, alternating who goes first."""
    schema = {"attrs": ["a0", "a2"], "key": ["a0"]}
    rows = [["P1", "note0"], ["P2", "note0"]]
    script = []
    for j in range(0, burst_ticks, 2):
        for who in ("Doctor", "Patient") if j // 2 % 2 else ("Patient", "Doctor"):
            table = {"Doctor": "D3", "Patient": "D1"}[who]
            edit = {"kind": "edit", "table": table, "op": "update", "key": {"a0": "P1"}, "changes": {"a2": f"{who}{j}"}}
            script.append({"tick": 1 + j, "principal": who, "action": edit})
            script.append({"tick": 1 + j, "principal": who, "action": {"kind": "propose", "shared_id": "D13"}})
    doc = {
        "name": "burst",
        "principals": ["Doctor", "Patient"],
        "tables": {
            "Patient": [{"id": "D1", "schema": schema, "rows": rows}],
            "Doctor": [{"id": "D3", "schema": schema, "rows": rows}],
        },
        "lenses": {
            "Patient": [{"lens_id": "L13", "source": "D1", "view_attrs": ["a0", "a2"], "view_key": ["a0"]}],
            "Doctor": [{"lens_id": "L31", "source": "D3", "view_attrs": ["a0", "a2"], "view_key": ["a0"]}],
        },
        "shares": [
            {
                "shared_id": "D13",
                "deployer": "Doctor",
                "authority": "Doctor",
                "peers": {"Patient": "L13", "Doctor": "L31"},
                "perm": {"a0": ["Doctor"], "a2": ["Doctor", "Patient"]},
            }
        ],
        "script": script,
        "config": {"max_ticks": 4 * burst_ticks},
    }
    return scenario_from_json_dict(doc, "burst")


DUMP_FILES = ["chain.json", "contract.json", "tables/Doctor/D3.json", "trace.jsonl", "world.json"]

SCENARIO_ERRORS = {
    # the peers' initial views of D23 disagree on MedX
    "initial views disagree": _set(("tables", "Researcher", 0, "rows", 0, 1), "MeA7"),
    # deployment rules the contract decides at genesis
    "perm names a non-peer": _set(("shares", 0, "perm", "a4"), ["Doctor", "Researcher"]),
    "perm misses a view attribute": _set(
        ("shares", 0, "perm"), {"a0": ["Doctor"], "a1": ["Doctor"], "a2": ["Doctor"]}
    ),
    "duplicate shared_id": lambda doc: doc["shares"].append(doc["shares"][0]),
    "authority not a peer": _set(("shares", 0, "authority"), "Researcher"),
    "authority a list": _set(("shares", 0, "authority"), ["Doctor"]),
    "perm names a number": _set(("shares", 0, "perm", "a4"), ["Doctor", 1, "Researcher"]),
    "shared_id a number": _set(("shares", 0, "shared_id"), 5),
    # the Doctor's L32 derives (a1, a5), the Patient's L13 (a0, a1, a2, a4)
    "lenses derive different view shapes": _set(("shares", 0, "peers", "Doctor"), "L32"),
    # dict() would read a list of [peer, lens] pairs as the object
    "peers a list of pairs": _set(("shares", 0, "peers"), [["Patient", "L13"], ["Doctor", "L31"]]),
    "edit of a missing row": _script(_edit("Researcher", "D2", op="update", key={"a1": "MedZ"}, changes={})),
    "key not binding the primary key": _script(_edit("Researcher", "D2", op="delete", key={"a5": "MeA1"})),
    "insert row a string": _script(_edit("Researcher", "D2", op="insert", row="MedZ")),
    "key cell a list": _script(_edit("Researcher", "D2", op="delete", key={"a1": ["MedX"]})),
    "changes a number": _script(_edit("Researcher", "D2", op="update", key={"a1": "MedX"}, changes=0)),
    "max_ticks not a number": _set(("config", "max_ticks"), "abc"),
    # JSON values int() would coerce to 1
    "max_ticks true": _set(("config", "max_ticks"), True),
    # a negative budget is a scenario error, not a run that fails at tick 0
    "max_ticks negative": _set(("config", "max_ticks"), -5),
    "tick a fraction": _set(("script", 0, "tick"), 1.9),
    "tick a string": _set(("script", 0, "tick"), "1"),
    "tick true": _set(("script", 0, "tick"), True),
    # zip would drop the cell, or split the strings into rows the peers' views agree on
    "row with an extra cell": lambda doc: doc["tables"]["Doctor"][0]["rows"][0].append("EXTRA"),
    "rows strings": _append_rows(Patient="P1Med", Doctor="P1Mdx", Researcher="1xy"),
    "principals a number": _set(("principals",), 5),
    "tables a list": _set(("tables",), []),
    # D3 breaks a1 -> a5, which the Doctor's lens L32 needs
    "source breaks a lens FD": _set(("tables", "Doctor", 0, "rows", 1, 4), "MeA5"),
    "edit breaks a lens FD": _script(
        _edit("Doctor", "D3", op="update", key={"a0": "P1", "a1": "MedX"}, changes={"a5": "MeA3"}),
        _propose("Doctor", "D23"),
    ),
    # accepted on the ledger, but the Doctor's L32 cannot insert into D3
    "insert the counterpart lens cannot take": _script(
        _edit("Researcher", "D2", op="insert", row={"a1": "MedZ", "a5": "MeA4", "a6": "MoA4"}),
        _propose("Researcher", "D23"),
    ),
    "principals mix a number and a name": _script(_grant("Doctor", "D23", "a5", ["Doctor", 1])),
    "principals a string": _script(_grant("Doctor", "D23", "a5", "Doctor")),
    # names a dump turns into paths: one would write outside the dump directory,
    # the other would not sort next to D1 when the peer is dumped
    "principal a path": _rename("Researcher", "../../escaped_peer"),
    "table id a number": lambda doc: doc["tables"]["Patient"].append({**doc["tables"]["Patient"][0], "id": 5}),
    "name a number": _set(("name",), 5),
    # a string where a list belongs would split into one-character attributes
    "schema attrs a string": lambda doc: doc["tables"]["Patient"].append(
        {**KV_TABLE, "schema": {"attrs": "kv", "key": "k"}}
    ),
    "lens view_attrs a string": lambda doc: (
        doc["tables"]["Patient"].append(KV_TABLE),
        doc["lenses"]["Patient"].append({"lens_id": "LKV", "source": "KV", "view_attrs": "kv", "view_key": ["k"]}),
    ),
    # with one-letter principals, a string would split into the names "D", "P" and "R"
    "principals a string of names": lambda doc: (_one_letter_names(doc), _set(("principals",), "DPR")(doc)),
    "perm entry a string of names": lambda doc: (_one_letter_names(doc), _set(("shares", 0, "perm", "a2"), "DP")(doc)),
    # keys nobody reads: a misspelt key would otherwise be dropped without a word
    "table key misspelt": _set(("tables", "Doctor", 0, "rowz"), [["x"]]),
    "schema key extra": _set(("tables", "Doctor", 0, "schema", "extra"), 1),
    "lens key extra": _set(("lenses", "Doctor", 0, "extra"), 1),
    "lens_id a number": _set(("lenses", "Doctor", 0, "lens_id"), 31),
    # an empty script would run to quiescence at tick 0 and exit 0
    "script key misspelt": lambda doc: doc.__setitem__("scirpt", doc.pop("script")),
    "share key extra": _set(("shares", 0, "extra"), 1),
    "scheduled action key extra": _set(("script", 0, "extra"), 1),
    "propose key extra": _set(("script", 1, "action", "extra"), 1),
    "edit key misspelt": _script(
        _edit("Researcher", "D2", op="update", key={"a1": "MedX"}, changes={"a5": "MeA2"}, chnages={"a5": "MeA3"}),
        _propose("Researcher", "D23"),
    ),
    # an edit holds exactly the keys of its op
    "delete with a row": _script(
        _edit("Researcher", "D2", op="delete", key={"a1": "MedY"}, row={"a1": "MedY"}),
        _propose("Researcher", "D23"),
    ),
    "update without changes": _script(_edit("Researcher", "D2", op="update", key={"a1": "MedX"})),
}

# Rewrites, each with the start of the message it is refused with: a value of
# the wrong JSON type is named by the object that holds it.
SCENARIO_ERROR_PLACES = {
    "lenses a list": (_set(("lenses",), []), "lenses"),
    "perm a list": (_set(("shares", 0, "perm"), []), "shares[0]"),
    "config a number": (_set(("config",), 5), "config"),
    "action a list": (_set(("script", 0, "action"), []), "script[0]"),
    "edit table a list": (_set(("script", 0, "action", "table"), ["D2"]), "script[0]"),
    "propose shared_id a list": (_script(_propose("Researcher", ["D23"])), "script[0]"),
    "shares an object": (_set(("shares",), {}), "shares must be a list, got dict"),
    "tables of an unknown principal": (_set(("tables", "Nurse"), []), "tables[Nurse]: unknown principal"),
    "duplicate table ids": (
        lambda doc: doc["tables"]["Patient"].append(doc["tables"]["Patient"][0]),
        "tables[Patient]: duplicate table ids",
    ),
    "lenses of an unknown principal": (_set(("lenses", "Nurse"), []), "lenses[Nurse]: unknown principal"),
    "duplicate lens ids": (
        lambda doc: doc["lenses"]["Patient"].append(doc["lenses"]["Patient"][0]),
        "lenses[Patient]: duplicate lens ids",
    ),
    "lens over a table its principal does not hold": (
        _set(("lenses", "Patient", 0, "source"), "D3"),
        "lenses[Patient][0]: source table 'D3' not held by Patient",
    ),
    "shared_id a path": (
        _set(("shares", 0, "shared_id"), "a/b"),
        "shares[0]: the shared_id must be a plain name (a non-empty string without / or \\, not . or ..), got 'a/b'",
    ),
    "share of three peers": (
        _set(("shares", 0, "peers", "Researcher"), "L23"),
        "shares[0]: a share has exactly two peers",
    ),
    "share peer an unknown principal": (
        _set(("shares", 0, "peers"), {"Patient": "L13", "Nurse": "L31"}),
        "shares[0]: unknown principal 'Nurse'",
    ),
    "deployer not a peer": (
        _set(("shares", 0, "deployer"), "Researcher"),
        "shares[0]: the deployer must be a sharing peer",
    ),
    "edit of a table the actor does not hold": (
        _script(_edit("Researcher", "D3", op="update", key={"a1": "MedX"}, changes={"a5": "MeA2"})),
        "script[0]: 'Researcher' has no table 'D3'",
    ),
    "unknown action kind": (
        _set(("script", 1, "action", "kind"), "publish"),
        "script[1]: unknown action kind 'publish'",
    ),
    "propose by a principal not sharing": (
        _script(_propose("Patient", "D23")),
        "script[0]: 'Patient' does not share 'D23'",
    ),
    "scheduled action of an unknown principal": (
        _set(("script", 0, "principal"), "Nurse"),
        "script[0]: unknown principal 'Nurse'",
    ),
}

# The audit's own words for some trace forgeries, after `[FAIL] trace-matches-chain`.
FORGED_TRACE_DETAILS = {
    "cascade duplicated": ": event 11 is not followed by its actor's propose of its share",
    "data_req kind renamed to gossip": ": event 14 has kind 'gossip', which no event before its tick's block has",
}


class TestLoadScenario:
    def test_bundled_composition(self, update_flow):
        assert sorted(update_flow.principals) == ["Doctor", "Patient", "Researcher"]
        assert sum(len(v) for v in update_flow.lenses.values()) == 4
        assert len(update_flow.shares) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(ParseError):
            load_scenario(p)

    def test_a_scenario_that_is_no_object(self, tmp_path):
        p = tmp_path / "list.scenario.json"
        p.write_text("[]", encoding="utf-8")
        with pytest.raises(ParseError, match="scenario must be a JSON object$"):
            load_scenario(p)

    def test_unknown_lens_reference(self, tmp_path):
        doc = json.loads(Path(scenario_path("update_flow")).read_text(encoding="utf-8"))
        doc["shares"][0]["peers"]["Patient"] = "L99"
        p = tmp_path / "broken.scenario.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError, match="L99"):
            load_scenario(p)

    def test_decreasing_script_ticks(self, tmp_path):
        doc = json.loads(Path(scenario_path("permission_grant")).read_text(encoding="utf-8"))
        doc["script"][0], doc["script"][-1] = doc["script"][-1], doc["script"][0]
        p = tmp_path / "broken.scenario.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError, match="non-decreasing"):
            load_scenario(p)

    def test_set_up_compiles_each_lens_once(self, monkeypatch):
        doc = json.loads(Path(scenario_path("update_flow")).read_text(encoding="utf-8"))
        compile_lens, calls = medsync.harness.compile_lens, []
        monkeypatch.setattr(medsync.harness, "compile_lens", lambda *args: calls.append(args) or compile_lens(*args))
        World(scenario_from_json_dict(doc))
        assert len(calls) == 4

    def test_empty_script_is_valid(self, update_flow):
        scenario = replace(update_flow, script=())
        world = run(scenario)
        assert world.clock == 0
        assert len(world.chain.blocks) == 1  # genesis only; nothing produced
        assert verify_convergence(world).ok


class TestRun:
    def test_run_reaches_quiescence(self, update_flow):
        world = run(update_flow)
        assert world.quiescent()
        assert world.clock <= 30

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_a_quiescent_world_leaves_nothing_staged_or_unanswered(self, name):
        # `World.quiescent` reads no peer: every proposal got its receipt, every request its answer.
        world = run(load_scenario(scenario_path(name)))
        shares = [s for peer in world.peers.values() for s in peer.shares.values()]
        assert shares and all(not s.staged and not s.unanswered for s in shares)

    @pytest.mark.parametrize("name", ["stale_recovery", "cascade_delete", "conflicting_updates"])
    def test_a_tick_looks_up_peers_only_by_recipient(self, name):
        # 200 principals that hold nothing, and a peer map that refuses to be walked:
        # a tick reaches a peer only through a message addressed to it.
        class Unwalkable(dict):
            def walked(self, *args):
                raise AssertionError("the tick loop walked the peer map")

            __iter__ = keys = values = items = walked

        plain = run(load_scenario(scenario_path(name)))
        doc = json.loads(Path(scenario_path(name)).read_text(encoding="utf-8"))
        doc["principals"] += [f"Idle{i:03d}" for i in range(200)]
        world = World(scenario_from_json_dict(doc))
        world.peers = Unwalkable(world.peers)
        world.run_to_quiescence()
        assert world.chain.dumps() == plain.chain.dumps()
        assert _trace_bytes(world.trace) == _trace_bytes(plain.trace)

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_the_peers_of_a_share_start_from_one_view(self, name):
        world = World(load_scenario(scenario_path(name)))
        assert world.contract.entries
        for sid, meta in world.contract.entries.items():
            a, b = (world.peers[p].shares[sid] for p in sorted(meta.peers))
            # The view whose digest genesis registers: each peer's copy and its lens cache's view.
            assert a.copy is b.copy is a.cache.view is b.cache.view
            assert a.copy.digest() == meta.content_digest

    def test_identical_runs_produce_identical_traces(self, update_flow):
        t1 = [e.to_json_dict() for e in run(update_flow).trace]
        t2 = [e.to_json_dict() for e in run(update_flow).trace]
        assert t1 == t2

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_replay_validates_each_transaction_once(self, monkeypatch, name):
        import medsync.contract as contract
        import medsync.ledger as ledger
        from medsync.contract import DeployTx, PermChangeTx, RejectReason, UpdateTx

        chain = run(load_scenario(scenario_path(name))).chain
        calls = Counter()
        for module in (contract, ledger):  # as defined, and as the executor calls them
            for fn in ("validate_deploy", "validate_update", "validate_perm_change"):
                original = getattr(module, fn)
                monkeypatch.setattr(module, fn, lambda *a, fn=fn, f=original: calls.update([fn]) or f(*a))
        chain.replay()
        txs = [(tx, v) for block in chain.blocks for tx, v in block.txs]
        deploys = sum(isinstance(tx, DeployTx) for tx, _ in txs)
        # an update the block already serializes behind another is not validated
        updates = sum(
            isinstance(tx, UpdateTx) and v.reason is not RejectReason.BLOCKED_BY_SERIALIZATION for tx, v in txs
        )
        perm_changes = sum(isinstance(tx, PermChangeTx) for tx, _ in txs)
        expected = Counter(validate_deploy=deploys, validate_update=updates, validate_perm_change=perm_changes)
        assert updates and calls == expected

    def test_the_chain_alone_executes_its_blocks(self, monkeypatch, update_flow):
        import medsync.ledger as ledger

        executed = []
        original = ledger.execute_block
        monkeypatch.setattr(ledger, "execute_block", lambda *a: executed.append(a) or original(*a))
        world = run(update_flow)
        assert len(executed) == len(world.chain.blocks) == 6  # genesis included
        assert medsync.harness.trace_mismatch(world) is None
        assert len(executed) == 2 * len(world.chain.blocks)  # the audit re-executes each block once

    def test_max_ticks_exceeded(self, update_flow):
        with pytest.raises(MaxTicksExceeded):
            run(replace(update_flow, config=replace(update_flow.config, max_ticks=2)))

    def test_unrelated_cascades_into_one_share_converge(self):
        # 17 unrelated deletes each cascade once into D13: 17 cascades on one share over the run.
        doc = json.loads(Path(scenario_path("cascade_delete")).read_text(encoding="utf-8"))
        meds = [f"Med{i:02d}" for i in range(20)]
        rows = {
            "D1": [["P1", m, f"note{m}", "Addr1", f"dose{m}"] for m in meds],
            "D3": [["P1", m, f"note{m}", f"dose{m}", f"MeA{m}"] for m in meds],
            "D2": [[m, f"MeA{m}", f"MoA{m}"] for m in meds],
        }
        for tables in doc["tables"].values():
            for table in tables:
                table["rows"] = rows[table["id"]]
        doc["script"] = [
            {"tick": 1 + 10 * k, "principal": "Researcher", "action": action}
            for k in range(17)
            for action in (
                {"kind": "edit", "table": "D2", "op": "delete", "key": {"a1": meds[k]}},
                {"kind": "propose", "shared_id": "D23"},
            )
        ]
        doc["config"]["max_ticks"] = 250
        world = run(scenario_from_json_dict(doc))
        assert [e.payload["shared_id"] for e in world.trace if e.kind == "cascade"] == ["D13"] * 17
        assert verify_convergence(world).ok
        assert len(world.peers["Patient"].tables["D1"].rows) == 3

    def test_a_relay_of_19_peers_converges_within_max_ticks(self):
        # One edit relayed through 17 cascades, one per peer between the ends;
        # each hop costs three ticks, so max_ticks alone bounds the chain.
        world = run(scenario_from_json_dict(_relay(19, max_ticks=200)))
        assert world.quiescent()
        assert [e.payload["shared_id"] for e in world.trace if e.kind == "cascade"] == [f"S{i}" for i in range(1, 18)]
        assert verify_convergence(world).ok
        assert medsync.harness.trace_mismatch(world) is None
        assert world.peers["P18"].tables["T"].get_row({"k": "r"})["v"] == "new"
        with pytest.raises(MaxTicksExceeded):
            run(scenario_from_json_dict(_relay(19, max_ticks=40)))

    def test_update_reaches_counterpart_table(self, update_flow):
        world = run(update_flow)
        d3 = world.peers["Doctor"].tables["D3"]
        assert d3.get_row({"a0": "P1", "a1": "MedX"})["a5"] == "MeA2"
        assert d3.get_row({"a0": "P2", "a1": "MedX"})["a5"] == "MeA2"

    def test_no_third_party_ever_receives_shared_data(self):
        for name in BUNDLED_SCENARIOS:
            world = run(load_scenario(scenario_path(name)))
            peers_of = {sid: meta.peers for sid, meta in world.contract.entries.items()}
            for event in world.trace:
                if event.kind == "data_resp":
                    allowed = peers_of[event.payload["shared_id"]]
                    assert event.payload["to"] in allowed
                    assert event.payload["from"] in allowed

    def test_trace_sequence_is_strictly_ordered(self, update_flow):
        world = run(update_flow)
        seqs = [e.seq for e in world.trace]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        ticks = [e.tick for e in world.trace]
        assert ticks == sorted(ticks)

    def test_edit_during_inflight_proposal_catches_up(self, update_flow):
        from medsync.harness import EditAction, ScheduledAction
        from medsync.peer import Edit

        # a second edit lands after the proposal was staged but before its verdict
        extra = ScheduledAction(
            1,
            "Researcher",
            EditAction("D2", Edit("update", key={"a1": "MedY"}, changes={"a5": "MeA8"})),
        )
        world = run(replace(update_flow, script=update_flow.script + (extra,)))
        assert verify_convergence(world).ok
        d3 = world.peers["Doctor"].tables["D3"]
        assert d3.get_row({"a0": "P1", "a1": "MedX"})["a5"] == "MeA2"
        assert d3.get_row({"a0": "P1", "a1": "MedY"})["a5"] == "MeA8"

    def test_stale_receipt_after_merge_already_caught_up(self, update_flow):
        from medsync.harness import EditAction, ProposeAction, ScheduledAction
        from medsync.peer import Edit

        # The researcher proposes two ticks after the doctor's accepted update:
        # the data response and the stale receipt land in the same tick, with
        # the merge processed first. The receipt must not chase a version that
        # does not exist yet.
        script = (
            ScheduledAction(
                1, "Doctor",
                EditAction("D3", Edit("update", key={"a0": "P1", "a1": "MedY"}, changes={"a5": "MeA8"})),
            ),
            ScheduledAction(1, "Doctor", ProposeAction("D23")),
            ScheduledAction(
                3, "Researcher",
                EditAction("D2", Edit("update", key={"a1": "MedX"}, changes={"a5": "MeA2"})),
            ),
            ScheduledAction(3, "Researcher", ProposeAction("D23")),
        )
        world = run(replace(update_flow, script=script))
        assert verify_convergence(world).ok

    def test_premature_data_request_is_requeued(self, update_flow):
        from medsync.peer import DataRequest

        config = replace(update_flow.config, max_ticks=6)
        world = World(replace(update_flow, script=(), config=config))
        # ask the researcher for a version nobody has produced yet
        world._inflight.append(DataRequest("D23", 5, "Doctor", "Researcher"))
        for _ in range(3):
            world.step()
            # still circling: requeued every tick rather than answered or dropped
            assert len(world._inflight) == 1
            assert world._inflight[0].requested_version == 5
        stuck = r"1 messages in flight \(the oldest: DataRequest on share 'D23' from Doctor to Researcher\)"
        with pytest.raises(MaxTicksExceeded, match=stuck):
            world.run_to_quiescence()

    def test_max_ticks_names_the_oldest_message_of_each_kind(self, update_flow):
        from medsync.contract import Notification, UpdateTx, Verdict
        from medsync.ledger import Receipt
        from medsync.peer import DataResponse

        world = World(replace(update_flow, script=(), config=replace(update_flow.config, max_ticks=0)))
        view = world.peers["Researcher"].shares["D23"].copy
        tx = UpdateTx("D23", "Doctor", frozenset({"a5"}), 1, view.digest())
        for message, text in [
            (
                Notification("D23", 2, frozenset({"a5"}), "Doctor", "Researcher"),
                "Notification on share 'D23' from the ledger to Researcher",
            ),
            (Receipt(tx, Verdict.accept(), "Doctor"), "Receipt on share 'D23' from the ledger to Doctor"),
            (
                DataResponse("D23", 1, view, "Researcher", "Doctor"),
                "DataResponse on share 'D23' from Researcher to Doctor",
            ),
        ]:
            world._inflight[:] = [message, message]
            with pytest.raises(MaxTicksExceeded, match=f"2 messages in flight \\(the oldest: {text}\\)"):
                world.run_to_quiescence()

    def test_stale_refetches_stay_bounded_through_a_burst(self):
        # A data_req opens a request for its actor; a data_resp closes one for its recipient.
        data_reqs = {}
        for burst_ticks in (10, 20):
            world = run(_burst_scenario(burst_ticks))
            assert verify_convergence(world).ok
            assert medsync.harness.trace_mismatch(world) is None
            unanswered, peak = Counter(), 0
            for e in world.trace:
                if e.kind == "data_req":
                    unanswered[e.actor, e.payload["shared_id"]] += 1
                    peak = max(peak, unanswered[e.actor, e.payload["shared_id"]])
                elif e.kind == "data_resp":
                    unanswered[e.payload["to"], e.payload["shared_id"]] -= 1
            assert peak <= 3, f"{peak} data requests in flight for one share in a {burst_ticks}-tick burst"
            data_reqs[burst_ticks] = sum(e.kind == "data_req" for e in world.trace)
        # Twice the burst, about twice the requests; one refetch per stale answer would give four times.
        assert data_reqs[20] <= 2.5 * data_reqs[10], data_reqs


class TestDump:
    def test_dump_reload_dump_is_byte_identical(self, tmp_path, update_flow):
        world = run(update_flow)
        d1 = dump(world, tmp_path / "one")
        d2 = dump(load_dump(d1), tmp_path / "two")
        f1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        f2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert f1 == f2
        for f in f1:
            assert (d1 / f).read_bytes() == (d2 / f).read_bytes(), f

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_a_reload_holds_one_copy_per_share(self, tmp_path, name):
        world = load_dump(dump(run(load_scenario(scenario_path(name))), tmp_path / "d"))
        assert world.contract.entries
        for sid, meta in world.contract.entries.items():
            a, b = (world.peers[p].shares[sid].copy for p in sorted(meta.peers))
            assert a is b  # a quiescent dump's two copies of a share are the same bytes

    def test_one_file_per_table_per_peer(self, tmp_path, update_flow):
        world = run(update_flow)
        out = dump(world, tmp_path / "d")
        assert (out / "tables" / "Doctor" / "D3.json").is_file()
        assert (out / "tables" / "Patient" / "D1.json").is_file()
        assert (out / "tables" / "Researcher" / "D2.json").is_file()
        assert (out / "shared" / "Doctor" / "D13.json").is_file()
        assert (out / "shared" / "Doctor" / "D23.json").is_file()

    def test_a_dump_makes_each_directory_once(self, tmp_path, update_flow, monkeypatch):
        world = run(update_flow)
        made = []
        mkdir = Path.mkdir
        monkeypatch.setattr(Path, "mkdir", lambda path, *args, **kw: made.append(path) or mkdir(path, *args, **kw))
        out = dump(world, tmp_path / "d")
        directories = [out, *(p for p in out.rglob("*") if p.is_dir())]
        assert sorted(made) == sorted(directories)
        dump(world, out)  # into the same directory again, as a repeated audit does
        assert sorted(made) == sorted(directories * 2)

    @pytest.mark.parametrize(
        "name, seed",
        [pytest.param(name, None, id=name) for name in BUNDLED_SCENARIOS]
        + [
            pytest.param(name, seed, id=f"{name}-seed{seed}")
            for name in ("big_tables", "hot_share", "many_shares")
            for seed in (1, 2, 3)
        ],
    )
    def test_a_chain_dumps_canonically_and_reloads_to_the_same_bytes(self, monkeypatch, name, seed):
        if seed is None:
            scenario = load_scenario(scenario_path(name))
        else:
            monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
            from test_bench import TINY
            from workloads import generate

            workload = generate(name, seed, **TINY[name])
            scenario = scenario_from_json_dict(workload.doc, workload.name)
        data = run(scenario).chain.dumps()
        assert data == canonical_json(json.loads(data))
        assert Chain.loads(data).dumps() == data

    def test_a_reindented_chain_verifies_and_redumps_canonically(self, tmp_path, capsys, cascade_delete):
        from medsync.cli import main

        out = dump(run(cascade_delete), tmp_path / "d")
        chain = out / "chain.json"
        pinned = chain.read_bytes()
        chain.write_text(json.dumps(json.loads(pinned), indent=1), encoding="utf-8")
        assert main(["verify", str(out)]) == 0
        # The reload keeps the bytes it checked each digest over, not the file's text.
        assert dump(load_dump(out), tmp_path / "again").joinpath("chain.json").read_bytes() == pinned

    @pytest.mark.parametrize("collecting", [True, False], ids=["collector on", "collector off"])
    @pytest.mark.parametrize("malformed", [False, True], ids=["whole dump", "malformed dump"])
    def test_load_dump_pauses_the_collector_and_leaves_it_as_found(self, tmp_path, update_flow, collecting, malformed):
        out = dump(run(update_flow), tmp_path / "d")
        if malformed:
            (out / "world.json").write_text("{", encoding="utf-8")

        def reload():
            if malformed:
                with pytest.raises(ValidationError):
                    load_dump(out)
            else:
                load_dump(out)
                # What the reload built is in the oldest generation, so no young pass walks it next.
                assert gc.get_count()[0] == 0 or not collecting

        assert collections_during(load_dump, reload, collecting) == []

    def test_corrupted_copy_fails_digest_check(self, tmp_path, update_flow):
        world = run(update_flow)
        out = dump(world, tmp_path / "d")
        copy_path = out / "shared" / "Doctor" / "D23.json"
        doc = json.loads(copy_path.read_text(encoding="utf-8"))
        doc["rows"][0][1] = "tampered"
        copy_path.write_text(json.dumps(doc), encoding="utf-8")
        report = verify_convergence(load_dump(out))
        failed = [c for c in report.checks if not c.ok]
        assert failed
        assert all(c.shared_id == "D23" for c in failed)
        assert any(c.check == "digest-matches-contract[Doctor]" for c in failed)


# Names and payload text mix plain characters with those a codec can get wrong:
# non-ASCII, the line separators canonical JSON leaves unescaped, and escapes.
_texts = st.text(st.sampled_from("aZé漢😀\u2028\u2029\u0085\n\r\t\"\\\x00 "), max_size=6) | st.text(max_size=6)
_ints = st.integers(-(10**30), 10**30)
_values = st.recursive(
    st.none() | st.booleans() | _ints | st.floats(allow_nan=False) | _texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=8,
)
_events = st.builds(
    TraceEvent, tick=_ints, seq=_ints, actor=_texts, kind=_texts, payload=st.dictionaries(_texts, _values, max_size=4)
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_events, max_size=4))
def test_the_trace_codec_writes_canonical_json_and_reads_it_back(tmp_path_factory, trace):
    path = tmp_path_factory.getbasetemp() / "codec.trace.jsonl"
    write_trace(trace, path)
    assert path.read_bytes() == b"".join(canonical_json(e.to_json_dict()) + b"\n" for e in trace)
    assert read_trace(path) == trace


def test_a_reloaded_trace_shares_its_actor_and_kind_names(tmp_path, update_flow):
    path = tmp_path / "trace.jsonl"
    write_trace(run(update_flow).trace, path)
    events = read_trace(path)
    first, second = [e for e in events if e.kind == "block"][:2]  # actor "ledger"
    assert first.kind is second.kind and first.actor is second.actor


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_values | st.dictionaries(_texts, _values, max_size=4))
def test_the_canonical_encoder_is_json_dumps_with_sorted_keys(value):
    assert _encode(value) == json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def test_the_canonical_encoder_fails_as_json_dumps_and_recovers(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    fallback = medsync.relational._make_encode()  # the encoder where the C accelerator is missing
    for value in ("a\u2028é", None, 10**30, {"b": [1.5, True], "a": "\x00"}):
        dumped = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert _encode(value) == fallback(value) == dumped
    bad = {"a": [{1}]}
    with pytest.raises(TypeError) as stdlib:
        json.dumps(bad)
    # A failed encode leaves no state behind: a markers dict kept across calls
    # would still hold `bad` and its list, and report them as a cycle.
    for _ in range(2):
        with pytest.raises(TypeError) as raised:
            _encode(bad)
        assert str(raised.value) == str(stdlib.value)
    bad["a"].pop()
    assert _encode(bad) == '{"a":[]}'


class TestVerifyConvergence:
    def test_all_checks_pass_after_run(self, update_flow):
        report = verify_convergence(run(update_flow))
        assert report.ok
        assert len(report.checks) == 10  # 2 shares x (copies-equal + 2 digests + 2 regenerations)
        assert all(line.startswith("[PASS]") for line in report.lines())

    def test_one_verify_compares_each_pair_of_tables_once(self, update_flow, monkeypatch):
        world = run(update_flow)
        calls = []
        eq = Table.__eq__
        monkeypatch.setattr(Table, "__eq__", lambda a, b: calls.append(1) or eq(a, b))
        assert verify_convergence(world).ok
        assert len(calls) == 6  # 2 shares x (copies-equal + 2 copy-matches-source)

    def test_not_quiescent_mid_run(self, update_flow):
        world = World(update_flow)  # script not yet executed
        with pytest.raises(NotQuiescent):
            verify_convergence(world)

    @pytest.mark.parametrize("collecting", [True, False], ids=["collector on", "collector off"])
    @pytest.mark.parametrize("case", ["passing world", "source breaks its lens", "not quiescent"])
    def test_verify_pauses_the_collector_and_leaves_it_as_found(self, tmp_path, update_flow, collecting, case):
        if case == "passing world":
            world = run(update_flow)
        elif case == "source breaks its lens":  # D3's rows of MedX disagree on a5, which the Doctor's L32 needs
            out = dump(run(update_flow), tmp_path / "d")
            path = out / "tables" / "Doctor" / "D3.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["rows"][0][doc["schema"]["attrs"].index("a5")] = None
            path.write_bytes(canonical_json(doc))
            world = load_dump(out)
        else:
            world = World(update_flow)  # script not yet executed
        reports = []

        def verify():
            if case == "not quiescent":
                with pytest.raises(NotQuiescent):
                    verify_convergence(world)
            else:
                reports.append(verify_convergence(world))

        assert collections_during(verify_convergence, verify, collecting) == []
        if case == "passing world":
            assert reports[0].ok
        elif case == "source breaks its lens":
            failed = [line for line in reports[0].lines() if line.startswith("[FAIL]")]
            assert failed == [
                "[FAIL] D23: copy-matches-source[Doctor]: the view cannot be derived: "
                "source 'D3' violates ('a1',) -> ('a1', 'a5') required by lens 'L32'"
            ]

    # The peers' lens caches are working state. Verification derives every view
    # from its whole source, so a cache that went wrong cannot vouch for itself.

    def test_a_corrupt_cached_view_fails_copy_matches_source(self, update_flow):
        world = run(update_flow)
        doctor = world.peers["Doctor"]
        copy = doctor.shares["D13"].copy
        assert doctor.regenerate_view("D13") is copy  # the held copy is the lens's cached view
        row = copy.rows[0]
        forged = copy.update_row({a: row[a] for a in copy.schema.key}, {"a4": "forged"})
        doctor.shares["D13"].cache.view = doctor.shares["D13"].copy = forged
        assert doctor.regenerate_view("D13") is forged  # the cache now agrees with the forged copy
        failed = {c.check for c in verify_convergence(world).checks if not c.ok}
        assert "copy-matches-source[Doctor]" in failed

    def test_a_corrupt_support_index_fails_copy_matches_source(self, cascade_delete):
        # The Researcher deletes MedX. The Doctor's support index for L32 is made
        # to forget one of the two D3 rows behind MedX before the run, so its
        # merge deletes only the other one.
        world = World(cascade_delete)
        support = world.peers["Doctor"].shares["D23"].cache.support
        support[("MedX",)].remove(("P2", "MedX"))
        world.run_to_quiescence()
        assert world.peers["Doctor"].tables["D3"].get_row({"a0": "P2", "a1": "MedX"}) is not None
        failed = {c.check for c in verify_convergence(world).checks if not c.ok}
        assert "copy-matches-source[Doctor]" in failed

    def test_a_reloaded_peer_derives_its_views_from_the_whole_source(self, tmp_path, update_flow, monkeypatch):
        reloaded = load_dump(dump(run(update_flow), tmp_path / "d"))
        built = []  # the rows each splice of a D13 view takes in
        spliced = Table._spliced

        def counted(table, changes):
            if table.id == "D13":
                built.extend(row for row in changes.values() if row is not None)
            return spliced(table, changes)

        monkeypatch.setattr(Table, "_spliced", counted)
        doctor = reloaded.peers["Doctor"]
        view = doctor.regenerate_view("D13")
        assert view == doctor.shares["D13"].copy
        assert len(built) == len(view.rows)  # nothing of the dumped copy was taken on trust


class TestCollectorPaused:
    """Parsing, building, stepping and reloading a world start no collector pass
    and leave what they built in the oldest generation; the caller's collector
    state and frozen objects are left as found."""

    @pytest.fixture
    def doc(self):
        return json.loads(Path(scenario_path("update_flow")).read_text(encoding="utf-8"))

    @pytest.fixture
    def collector_on(self):
        found = gc.isenabled()
        gc.enable()
        yield
        (gc.enable if found else gc.disable)()

    @pytest.fixture
    def frozen(self, collector_on):
        gc.freeze()
        yield
        gc.unfreeze()

    @pytest.mark.parametrize("collecting", [True, False], ids=["collector on", "collector off"])
    @pytest.mark.parametrize("malformed", [False, True], ids=["whole scenario", "malformed scenario"])
    def test_parse_and_build_pause_the_collector_and_leave_it_as_found(self, doc, collecting, malformed):
        if malformed:
            doc["shares"][0]["peers"]["Patient"] = "L99"
        parsed = []

        def parse():
            if malformed:
                with pytest.raises(ValidationError):
                    scenario_from_json_dict(doc)
            else:
                parsed.append(scenario_from_json_dict(doc))

        assert collections_during(scenario_from_json_dict, parse, collecting) == []
        if not malformed:
            assert collections_during(World.__init__, lambda: World(parsed[0]), collecting) == []

    @pytest.mark.parametrize("collecting", [True, False], ids=["collector on", "collector off"])
    @pytest.mark.parametrize("raises", [False, True], ids=["whole run", "a step that raises"])
    def test_a_step_pauses_the_collector_and_leaves_it_as_found(self, doc, collecting, raises):
        if raises:  # the Doctor's edit breaks a1 -> a5, which its lens L32 needs: the propose raises
            SCENARIO_ERRORS["edit breaks a lens FD"](doc)
        world = World(scenario_from_json_dict(doc))

        def steps():
            if raises:
                with pytest.raises(ValidationError, match="lens 'L32'"):
                    world.run_to_quiescence()
            else:
                world.run_to_quiescence()

        assert collections_during(World.step, steps, collecting) == []
        assert world.clock == (1 if raises else 5)

    def test_a_build_or_reload_leaves_generation_0_empty(self, tmp_path, update_flow, doc, collector_on):
        out = dump(run(update_flow), tmp_path / "d")
        scenario = scenario_from_json_dict(doc)
        assert gc.get_count()[0] == 0
        world = World(scenario)
        assert gc.get_count()[0] == 0
        world.step()
        assert gc.get_count()[0] == 0
        reloaded = load_dump(out)
        assert gc.get_count()[0] == 0
        assert not world.quiescent() and reloaded.quiescent()

    def test_the_callers_frozen_objects_stay_frozen(self, tmp_path, update_flow, doc, frozen):
        world = run(update_flow)
        out = dump(world, tmp_path / "d")
        stepped = World(update_flow)
        calls = {
            "parse": lambda: scenario_from_json_dict(doc),
            "build": lambda: World(update_flow),
            "step": stepped.step,
            "reload": lambda: load_dump(out),
            "verify": lambda: verify_convergence(world),
        }
        for name, call in calls.items():
            # Measured around each call: a frozen object the test body frees leaves the count.
            before = gc.get_freeze_count()
            call()
            assert gc.get_freeze_count() == before > 0, name

    def test_decorated_functions_take_their_parameters_by_name(self, tmp_path, update_flow, doc):
        assert scenario_from_json_dict(doc=doc, name="update_flow") == scenario_from_json_dict(doc, "update_flow")
        assert World(scenario=update_flow).name == "update_flow"
        assert World.step.__name__ == "step" and World.step.__doc__ == World.step.__wrapped__.__doc__
        assert list(inspect.signature(World.step).parameters) == ["self"]
        World.step(self=World(update_flow))
        out = dump(run(update_flow), tmp_path / "d")
        assert verify_convergence(world=load_dump(dump_dir=out)).ok


class TestCli:
    def test_run_verify_replay_roundtrip(self, tmp_path, capsys):
        from medsync.cli import main

        dump_dir = str(tmp_path / "dump")
        trace = tmp_path / "run.trace.jsonl"
        assert main(["run", scenario_path("update_flow"), "--dump", dump_dir, "--trace", str(trace)]) == 0
        assert trace.read_bytes() == (tmp_path / "dump" / "trace.jsonl").read_bytes()
        assert main(["verify", dump_dir]) == 0
        assert main(["replay", str(tmp_path / "dump" / "chain.json")]) == 0
        out = capsys.readouterr().out
        assert "[PASS] replay-matches-contract" in out
        assert main(["replay", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err.startswith("cannot read ")

    def test_a_run_that_does_not_quiesce_exits_1(self, tmp_path, capsys):
        from medsync.cli import main

        doc = json.loads(Path(scenario_path("update_flow")).read_text(encoding="utf-8"))
        doc["config"] = {"max_ticks": 1}
        path = tmp_path / "short.scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("simulation failed: ")
        assert "2 script actions not yet run" in err

    @pytest.mark.parametrize(
        "forgery, failure",
        [
            ("rejected verdict flipped to ok", "[FAIL] chain-replay: block 2, transaction 0: "),
            ("contract latest_update_time raised", "[FAIL] replay-matches-contract"),
        ],
        ids=["rejected verdict flipped to ok", "contract latest_update_time raised"],
    )
    def test_verify_replays_the_chain_against_the_contract(self, tmp_path, capsys, forgery, failure):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("permission_grant"), "--dump", str(dump_dir)]) == 0
        if forgery == "rejected verdict flipped to ok":  # relinked, so only the replay can tell
            path = dump_dir / "chain.json"
            blocks = json.loads(path.read_text(encoding="utf-8"))
            next(e for b in blocks for e in b["txs"] if not e["verdict"]["ok"])["verdict"] = {"ok": True}
            path.write_bytes(canonical_json(_relinked(blocks)))
        else:
            path = dump_dir / "contract.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["entries"]["D13"]["latest_update_time"] += 1
            path.write_bytes(canonical_json(doc))
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 1
        assert failure in capsys.readouterr().out

    def test_the_trace_audit_re_derives_each_verdict(self, tmp_path):
        from medsync.cli import main
        from medsync.ledger import ChainCorrupt

        # The rejected verdict flipped to ok, relinked: the trace still agrees with the chain's verdicts.
        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("permission_grant"), "--dump", str(dump_dir)]) == 0
        path = dump_dir / "chain.json"
        blocks = json.loads(path.read_text(encoding="utf-8"))
        next(e for b in blocks for e in b["txs"] if not e["verdict"]["ok"])["verdict"] = {"ok": True}
        path.write_bytes(canonical_json(_relinked(blocks)))
        world = load_dump(dump_dir)
        with pytest.raises(ChainCorrupt) as replayed:
            world.chain.replay()
        assert str(replayed.value).startswith("block 2, transaction 0: recorded verdict {'ok': True} but replay gives ")
        with pytest.raises(ChainCorrupt) as audited:
            medsync.harness.trace_mismatch(world)
        assert str(audited.value) == str(replayed.value)

    @pytest.mark.parametrize("broken, shared_id", [("a source cell", "D23"), ("a lens's view_key", "D13")])
    def test_a_source_that_breaks_its_lens_fails_verify(self, tmp_path, capsys, broken, shared_id):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        if broken == "a source cell":  # D3's rows of MedX now disagree on a5, which the Doctor's L32 needs
            path = dump_dir / "tables" / "Doctor" / "D3.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            at = doc["schema"]["attrs"].index("a5")
            assert doc["rows"][0][at] == "MeA2"
            doc["rows"][0][at] = None
        else:  # the Doctor's L31 keyed on a0 alone, which D3 does not determine its view by
            path = dump_dir / "world.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            (lens,) = [lens for lens in doc["peers"]["Doctor"]["lenses"] if lens["lens_id"] == "L31"]
            assert lens["view_key"] == ["a0", "a1"]
            lens["view_key"] = ["a0"]
        path.write_bytes(canonical_json(doc))
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 1
        failure = f"[FAIL] {shared_id}: copy-matches-source[Doctor]: the view cannot be derived: "
        assert failure in capsys.readouterr().out

    def test_forging_server_quiesces_and_fails(self, tmp_path, capsys, monkeypatch):
        from medsync.cli import main
        from medsync.peer import DataResponse, PeerNode

        serve = PeerNode.on_data_request

        def forging(node, req):
            # The Patient answers D13 at the version it serves, with one non-key cell changed.
            honest = serve(node, req)
            if node.principal == "Patient" and req.shared_id == "D13" and isinstance(honest, DataResponse):
                table = honest.table
                attr = next(a for a in table.schema.attrs if a not in table.schema.key)
                row = table.rows[0]
                forged = table.update_row({k: row[k] for k in table.schema.key}, {attr: f"forged {row[attr]}"})
                return replace(honest, table=forged)
            return honest

        monkeypatch.setattr(PeerNode, "on_data_request", forging)
        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("permission_grant"), "--dump", str(dump_dir)]) == 1
        # The forged answer is dropped, not asked for again: the run quiesces, and its report fails D13.
        out = capsys.readouterr().out
        assert "quiescent after 9 ticks" in out
        assert "[FAIL] D13: copies-equal" in out
        assert "[FAIL] D13: digest-matches-contract[Doctor]" in out
        assert main(["verify", str(dump_dir)]) == 1
        out = capsys.readouterr().out
        forged = next(e for e in load_dump(dump_dir).trace if e.kind == "data_resp" and e.actor == "Patient")
        assert f"[FAIL] trace-matches-chain: event {forged.seq} " in out

    @pytest.mark.parametrize("content", [b"{", *UNDECODABLE.values()], ids=["bad JSON", *UNDECODABLE])
    def test_scenario_errors_exit_2(self, tmp_path, capsys, content):
        from medsync.cli import main

        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["run", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("scenario error: ")

    @pytest.mark.parametrize("subdir, table", [("tables", "D3"), ("shared", "D23")])
    @pytest.mark.parametrize("corruption", ["bad JSON", "duplicate primary key", *UNDECODABLE])
    def test_corrupt_dump_exits_2(self, tmp_path, capsys, subdir, table, corruption):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        path = dump_dir / subdir / "Doctor" / f"{table}.json"
        if corruption == "bad JSON":
            path.write_text("{", encoding="utf-8")
        elif corruption in UNDECODABLE:
            path.write_bytes(UNDECODABLE[corruption])
        else:
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["rows"].append(doc["rows"][0])
            path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 2
        assert capsys.readouterr().err.startswith("dump error: ")

    @pytest.mark.parametrize("subdir, table", [("tables", "D3"), ("shared", "D23")])
    @pytest.mark.parametrize(
        "corruption",
        [
            "rows out of key order",
            "number cell",
            "true cell",
            "list cell",
            "null key cell",
            "row one cell short",
            "row one cell long",
            "extra key on the table",
            "extra key on the schema",
            "id not the file's name",
        ],
    )
    def test_malformed_dump_table_exits_2(self, tmp_path, capsys, subdir, table, corruption):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        path = dump_dir / subdir / "Doctor" / f"{table}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        rows, schema = doc["rows"], doc["schema"]
        assert len(rows) >= 2
        if corruption == "rows out of key order":
            rows.reverse()
        elif corruption == "null key cell":
            rows[-1][schema["attrs"].index(schema["key"][0])] = None
        elif corruption.endswith(" cell"):
            rows[0][-1] = {"number cell": 5, "true cell": True, "list cell": [rows[0][-1]]}[corruption]
        elif corruption == "row one cell short":
            rows[0].pop()
        elif corruption == "row one cell long":
            rows[0].append("x")
        elif corruption == "id not the file's name":
            doc["id"] = "Renamed"
        else:
            (doc if corruption.endswith("table") else schema)["extra"] = "x"
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 2
        assert capsys.readouterr().err.startswith("dump error: ")

    @pytest.mark.parametrize(
        "version, code", [(True, 2), ("1", 2), (1.0, 2), (7, 1)], ids=["true", "string", "float", "seven"]
    )
    def test_a_dumped_share_version_is_checked(self, tmp_path, capsys, version, code):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        path = dump_dir / "world.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["peers"]["Doctor"]["versions"]["D23"] == 1
        doc["peers"]["Doctor"]["versions"]["D23"] = version
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert err.startswith("dump error: ")
        else:
            assert "[FAIL] D23: digest-matches-contract[Doctor]: copy version 7 != contract version 1" in out

    def test_a_copy_dropped_from_the_dump_fails_verify(self, tmp_path, capsys):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        path = dump_dir / "world.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["peers"]["Doctor"]["versions"]["D23"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        (dump_dir / "shared" / "Doctor" / "D23.json").unlink()
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 1
        assert "[FAIL] D23: copy-present[Doctor]: Doctor holds no copy" in capsys.readouterr().out.splitlines()

    def test_verify_checks_the_loaded_chain_once(self, tmp_path, capsys, monkeypatch):
        from medsync.cli import main
        from medsync.ledger import Chain

        dump_dir = str(tmp_path / "dump")
        assert main(["run", scenario_path("update_flow"), "--dump", dump_dir]) == 0
        calls = []
        original = Chain.verify
        monkeypatch.setattr(Chain, "verify", lambda chain, *args: calls.append(chain) or original(chain, *args))
        assert main(["verify", dump_dir]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_bundled_traces_match_their_chains(self, tmp_path, capsys, name):
        from medsync.cli import main

        dump_dir = str(tmp_path / "dump")
        assert main(["run", scenario_path(name), "--dump", dump_dir]) == 0
        capsys.readouterr()
        assert main(["verify", dump_dir]) == 0
        assert "[PASS] trace-matches-chain" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "forgery",
        [
            "rejected verdict flipped to ok",
            "last three events dropped",
            "seq skipped",
            "tick rewound",
            "data_resp digests zeroed",
            "put_applied versions set to 99",
            "notify sent to the requester",
            "data_resp digest removed",
            "data_resp senders set to Researcher",
            "put_applied source_tables set to forged",
            "propose new_digests zeroed",
            "data_req versions set to 99",
            "cascade after_merge_of renamed",
            "edit tables renamed to forged",
            "data_req dropped",
            "data_req duplicated",
            "cascade duplicated",
            "data_req kind renamed to gossip",
            "data_resp duplicated",
            "edit moved after its tick's block",
            "data_req moved after its tick's block",
            "data_req key smuggled",
            "edit key smuggled",
            "verdict ok set to 1",
            # the chain relinked, so the block's tick is the only change the chain shows
            "a block's tick moved with its events",
            "block index set to a float",
            "notify new_version set to a float",
            "propose base_version set to a float",
            "data_req requested_version set to a float",
            "data_resp version set to a float",
            "put_applied version set to a float",
            # an edit is read as the scenario parser reads an edit action
            "update edit op set to 0",
            "update edit key cell set to 0",
            "update edit changes dropped",
            "update edit row added",
            "update edit changes set to []",
            # read as an edit, but not one the edited table's schema admits
            "update edit key attribute renamed",
            "update edit changes naming an unknown attribute",
        ],
    )
    def test_forged_trace_fails_verify(self, tmp_path, capsys, forgery):
        from medsync.cli import main

        # permission_grant has no cascade; cascade_delete has one
        name = "cascade_delete" if forgery.startswith("cascade") else "permission_grant"
        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path(name), "--dump", str(dump_dir)]) == 0
        path = dump_dir / "trace.jsonl"
        events = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        if forgery == "rejected verdict flipped to ok":
            (rejected,) = [e for e in events if e["kind"] == "verdict" and not e["payload"]["ok"]]
            rejected["payload"]["ok"] = True
            del rejected["payload"]["reason"]
        elif forgery == "last three events dropped":
            del events[-3:]
        elif forgery == "seq skipped":
            for e in events[5:]:
                e["seq"] += 1
        elif forgery == "tick rewound":
            events[-1]["tick"] = events[-2]["tick"] - 1
        elif forgery == "data_resp digests zeroed":
            for e in events:
                if e["kind"] == "data_resp":
                    e["payload"]["digest"] = "0" * 64
        elif forgery == "put_applied versions set to 99":
            for e in events:
                if e["kind"] == "put_applied":
                    e["payload"]["version"] = 99
        elif forgery == "data_resp senders set to Researcher":
            for e in events:
                if e["kind"] == "data_resp":
                    e["payload"]["from"] = "Researcher"
        elif forgery == "put_applied source_tables set to forged":
            for e in events:
                if e["kind"] == "put_applied":
                    e["payload"]["source_table"] = "forged"
        elif forgery == "data_resp digest removed":
            del next(e for e in events if e["kind"] == "data_resp")["payload"]["digest"]
        elif forgery == "propose new_digests zeroed":
            for e in events:
                if e["kind"] == "propose" and "new_digest" in e["payload"]:
                    e["payload"]["new_digest"] = "0" * 64
        elif forgery == "data_req versions set to 99":
            for e in events:
                if e["kind"] == "data_req":
                    e["payload"]["requested_version"] = 99
        elif forgery == "cascade after_merge_of renamed":
            for e in events:
                if e["kind"] == "cascade":
                    e["payload"]["after_merge_of"] = "forged"
        elif forgery == "edit tables renamed to forged":
            for e in events:
                if e["kind"] == "edit":
                    e["payload"]["table"] = "forged"
        elif forgery == "a block's tick moved with its events":
            chain = dump_dir / "chain.json"
            blocks = json.loads(chain.read_text(encoding="utf-8"))
            last = blocks[-1]["tick"]
            blocks[-1]["tick"] = 10 * last
            chain.write_bytes(canonical_json(_relinked(blocks)))
            for e in events:
                if e["tick"] == last:
                    e["tick"] = 10 * last
        elif forgery == "data_req kind renamed to gossip":
            next(e for e in events if e["kind"] == "data_req")["kind"] = "gossip"
        elif forgery == "verdict ok set to 1":
            next(e for e in events if e["kind"] == "verdict" and e["payload"]["ok"])["payload"]["ok"] = 1
        elif forgery.endswith("set to a float"):
            # another JSON type whose value compares equal to the integer
            kind, key = forgery.split()[:2]
            payload = next(e["payload"] for e in events if e["kind"] == kind and key in e["payload"])
            assert type(payload[key]) is int
            payload[key] = float(payload[key])
        elif forgery.startswith("update edit"):
            payload = next(e["payload"] for e in events if e["kind"] == "edit" and e["payload"]["op"] == "update")
            if forgery.endswith("op set to 0"):
                payload["op"] = 0
            elif forgery.endswith("key cell set to 0"):
                payload["key"][next(iter(payload["key"]))] = 0
            elif forgery.endswith("changes dropped"):
                del payload["changes"]
            elif forgery.endswith("row added"):
                payload["row"] = {**payload["key"], **payload["changes"]}
            elif forgery.endswith("key attribute renamed"):
                payload["key"]["renamed"] = payload["key"].pop(next(iter(payload["key"])))
            elif forgery.endswith("unknown attribute"):
                payload["changes"]["unknown"] = "x"
            else:
                payload["changes"] = []
        elif forgery.endswith("key smuggled"):
            kind = forgery.split()[0]
            next(e for e in events if e["kind"] == kind)["payload"]["smuggled"] = "x"
        elif forgery.split()[1] in ("dropped", "duplicated", "moved"):
            kind, change = forgery.split()[:2]
            at = next(i for i, e in enumerate(events) if e["kind"] == kind)
            if change == "moved":  # to just after the last event of its tick, its block's events
                moved = events.pop(at)
                events.insert(max(i for i, e in enumerate(events) if e["tick"] == moved["tick"]) + 1, moved)
            else:
                events[at : at + 1] = [] if change == "dropped" else [events[at], dict(events[at])]
            for seq, e in enumerate(events):
                e["seq"] = seq
        else:
            note = next(e for e in events if e["kind"] == "notify")
            note["payload"]["to"] = note["payload"]["from"]
        path.write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 1
        assert f"[FAIL] trace-matches-chain{FORGED_TRACE_DETAILS.get(forgery, '')}" in capsys.readouterr().out

    def test_every_type_swapped_dump_value_fails_verify(self, tmp_path, capsys):
        from medsync.cli import main

        # Every number and bool in the chain, contract, world.json and trace of
        # each bundled dump, and every string and null of update_flow's files
        # and of each edit event, swapped for a value of another JSON type, one
        # mutant at a time, written over the file and restored after. A chain
        # mutant is relinked, so only the decoders can refuse it, unless the
        # swap is in a link itself.
        mutants, verified = 0, []
        for name in BUNDLED_SCENARIOS:
            dump_dir = dump(run(load_scenario(scenario_path(name))), tmp_path / name)
            for file in ("chain.json", "contract.json", "world.json", "trace.jsonl"):
                path = dump_dir / file
                original = path.read_bytes()
                lines = file == "trace.jsonl"
                text = b"[" + b",".join(original.splitlines()) + b"]" if lines else original
                doc = json.loads(text)
                for where, value in _leaves(doc):
                    strings = name == "update_flow" or (lines and doc[where[0]]["kind"] == "edit")
                    relink = file == "chain.json" and where[-1] not in ("prev_digest", "block_digest")
                    for swapped in _swapped(value, strings):
                        mutant = json.loads(text)
                        _set(where, swapped)(mutant)
                        if lines:
                            path.write_text("".join(json.dumps(e) + "\n" for e in mutant), encoding="utf-8")
                        else:
                            path.write_bytes(canonical_json(_relinked(mutant) if relink else mutant))
                        mutants += 1
                        if main(["verify", str(dump_dir)]) not in (1, 2):
                            verified.append((name, file, where, swapped))
                path.write_bytes(original)
        capsys.readouterr()
        assert mutants == 1006
        assert verified == []

    def test_line_separators_in_cells_survive_a_dump(self, tmp_path, capsys):
        from medsync.cli import main

        # canonical JSON writes U+2028 unescaped; the trace reader must not split there
        text = Path(scenario_path("update_flow")).read_text(encoding="utf-8")
        assert text.count('"MeA2"') == 1
        path = tmp_path / "separated.scenario.json"
        path.write_text(text.replace('"MeA2"', '"Me\\u2028A2"'), encoding="utf-8")
        dump_dir = str(tmp_path / "dump")
        assert main(["run", str(path), "--dump", dump_dir]) == 0
        assert "\u2028" in (tmp_path / "dump" / "trace.jsonl").read_text(encoding="utf-8")
        assert main(["verify", dump_dir]) == 0

    @pytest.mark.parametrize("option", ["--dump", "--trace"])
    def test_unwritable_output_exits_2_without_traceback(self, tmp_path, capsys, option):
        from medsync.cli import main

        regular = tmp_path / "regular"
        regular.write_text("", encoding="utf-8")
        # a dump directory inside a regular file; a trace file that is a directory
        target = regular / "x" if option == "--dump" else tmp_path
        assert main(["run", scenario_path("update_flow"), option, str(target)]) == 2
        assert capsys.readouterr().err.startswith("cannot write ")

    @pytest.mark.parametrize(
        "target",
        [
            "string tick",
            "list payload",
            "payload nested too deep",
            *WORLD_VALUES,
            *(f"world.json {corruption}" for corruption in UNDECODABLE),
            "event split over two lines",
            "two events on one line",
            "trace line a lone bracket",
            *CONTRACT_VALUES,
        ],
    )
    def test_dump_values_of_the_wrong_type_exit_2(self, tmp_path, capsys, target):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        if target in CONTRACT_VALUES:
            path = dump_dir / "contract.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            field, value = CONTRACT_VALUES[target]
            assert doc["entries"]["D23"]["version"] == 1 and field in doc["entries"]["D23"]
            doc["entries"]["D23"][field] = value
            path.write_text(json.dumps(doc), encoding="utf-8")
        elif target in WORLD_VALUES:
            path = dump_dir / "world.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            patient = doc["peers"]["Patient"]
            if target == "string clock":
                doc["clock"] = str(doc["clock"])
            elif target == "clock another integer":  # not the chain's: tick t seals block t + 1
                doc["clock"] -= 2
            elif target == "lens_id a number":  # in the Patient's lens and binding alike
                patient["lenses"][0]["lens_id"] = patient["bindings"][0]["lens_id"] = 13
            elif target == "counterpart another peer":  # not the other peer of its share D13
                assert patient["bindings"] == [{"shared_id": "D13", "lens_id": "L13", "counterpart": "Doctor"}]
                patient["bindings"][0]["counterpart"] = "Researcher"
            else:  # the Doctor's copy would be read from the Researcher's directory
                versions = doc["peers"]["Doctor"]["versions"]
                versions["../Researcher/D23"] = versions.pop("D23")
            path.write_text(json.dumps(doc), encoding="utf-8")
        elif target.startswith("world.json "):
            (dump_dir / "world.json").write_bytes(UNDECODABLE[target.removeprefix("world.json ")])
        else:
            path = dump_dir / "trace.jsonl"
            events = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            if target == "string tick":
                events[-1]["tick"] = str(events[-1]["tick"])
            elif target == "list payload":
                events[0]["payload"] = list(events[0]["payload"].items())
            lines = [json.dumps(e) for e in events]
            if target == "event split over two lines":
                lines[1] = lines[1].replace(", ", ",\n", 1)
            elif target == "two events on one line":
                lines[0:2] = [" ".join(lines[0:2])]
            elif target == "trace line a lone bracket":  # no JSON value starts on it
                lines.insert(1, "]")
            elif target == "payload nested too deep":  # one value of the propose event
                (at,) = [i for i, e in enumerate(events) if e["kind"] == "propose"]
                digest = json.dumps(events[at]["payload"]["new_digest"])
                lines[at] = lines[at].replace(digest, UNDECODABLE["nested too deep"].decode())
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dump error: ")
        if target == "trace line a lone bracket":
            assert err.endswith(": trace line 2 does not hold exactly one event\n")

    @pytest.mark.parametrize("layout", ["CRLF endings", "blank lines", "leading and trailing spaces"])
    def test_a_trace_with_crlf_endings_or_blank_lines_verifies(self, tmp_path, capsys, layout):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        path = dump_dir / "trace.jsonl"
        lines = path.read_bytes().split(b"\n")[:-1]
        if layout == "CRLF endings":
            path.write_bytes(b"".join(line + b"\r\n" for line in lines))
        elif layout == "leading and trailing spaces":
            path.write_bytes(b"".join(b" \t" + line + b"\t \n" for line in lines))
        else:
            path.write_bytes(b"\n" + b"\n \t\n".join(lines) + b"\n\n")
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 0
        assert "[PASS] trace-matches-chain" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["trace missing", "copy of an unbound share"])
    def test_a_missing_trace_or_a_copy_of_an_unbound_share_exits_2(self, tmp_path, capsys, target):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("permission_grant"), "--dump", str(dump_dir)]) == 0
        if target == "trace missing":
            (dump_dir / "trace.jsonl").unlink()
        else:  # a version and a copy of a share the Doctor has no binding for
            path = dump_dir / "world.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["peers"]["Doctor"]["versions"]["Zeta"] = 0
            path.write_text(json.dumps(doc), encoding="utf-8")
            shared = dump_dir / "shared" / "Doctor"
            (shared / "Zeta.json").write_bytes((shared / "D23.json").read_bytes())
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 2
        assert capsys.readouterr().err.startswith("dump error: ")

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_a_reindented_dump_still_verifies(self, tmp_path, capsys, name):
        from medsync.cli import main

        # The reload checks the values a dump holds, not its bytes.
        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path(name), "--dump", str(dump_dir)]) == 0
        paths = sorted(dump_dir.rglob("*.json"))
        assert {"chain.json", "contract.json", "world.json"} < {p.name for p in paths}
        for path in paths:
            path.write_text(json.dumps(json.loads(path.read_text(encoding="utf-8")), indent=1), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 0

    @pytest.mark.parametrize(
        "change, code", [("reindented", 0), ("one cell differs", 1), ("another share's file", 2)]
    )
    def test_a_reload_decodes_each_distinct_table_file_once(self, tmp_path, capsys, monkeypatch, change, code):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        shared = dump_dir / "shared"
        path = shared / "Patient" / "D13.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        if change == "reindented":
            path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        elif change == "one cell differs":
            at = next(i for i, a in enumerate(doc["schema"]["attrs"]) if a not in doc["schema"]["key"])
            doc["rows"][0][at] = "tampered"
            path.write_bytes(canonical_json(doc))
        else:  # the same bytes as the Doctor's D13, already decoded when the Researcher's D23 is read
            (shared / "Researcher" / "D23.json").write_bytes((shared / "Doctor" / "D13.json").read_bytes())
        texts = {p.read_text(encoding="utf-8") for p in dump_dir.glob("*/*/*.json")}

        decodes = []
        from_json_dict = Table.from_json_dict.__func__

        def counted(cls, *args, **kwargs):
            decodes.append(args[0]["id"])
            return from_json_dict(cls, *args, **kwargs)

        monkeypatch.setattr(Table, "from_json_dict", classmethod(counted))
        if code == 2:
            with pytest.raises(ValidationError, match="holds table 'D13'"):
                load_dump(dump_dir)
        else:
            world = load_dump(dump_dir)
            assert len(decodes) == len(texts)  # each distinct file once
            patient, doctor = (world.peers[p].shares["D13"].copy for p in ("Patient", "Doctor"))
            assert patient is not doctor and (patient == doctor) == (code == 0)
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == code
        out, err = capsys.readouterr()
        if code == 1:
            assert "[FAIL] D13: copies-equal" in out
        elif code == 2:
            assert err.startswith("dump error: ")

    @pytest.mark.parametrize("field", ["index", "tick"])
    def test_a_block_index_or_tick_that_is_a_bool_exits_1(self, tmp_path, capsys, field):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        path = dump_dir / "chain.json"
        blocks = json.loads(path.read_text(encoding="utf-8"))
        blocks[1][field] = bool(blocks[1][field])  # index 1 is true, tick 0 false
        path.write_bytes(canonical_json(_relinked(blocks)))
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 1
        assert "[FAIL] chain: malformed chain dump" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [False, 0.0], ids=["false", "0.0"])
    def test_a_base_version_of_another_json_type_exits_1(self, tmp_path, capsys, value):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        path = dump_dir / "chain.json"
        blocks = json.loads(path.read_text(encoding="utf-8"))
        first = next(e for b in blocks for e in b["txs"] if e["tx"]["type"] == "update" and e["verdict"]["ok"])
        assert first["tx"]["base_version"] == 0
        first["tx"]["base_version"] = value  # equal to 0 under ==, so replay and the trace audit agree
        path.write_bytes(canonical_json(_relinked(blocks)))
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 1
        assert "[FAIL] chain: malformed chain dump" in capsys.readouterr().out

    @pytest.mark.parametrize("corruption", ["bit flipped", *UNDECODABLE])
    def test_corrupt_chain_exits_1(self, tmp_path, capsys, corruption):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        chain_path = dump_dir / "chain.json"
        data = bytearray(chain_path.read_bytes())
        data[len(data) // 2] ^= 0x01
        chain_path.write_bytes(UNDECODABLE.get(corruption, bytes(data)))
        capsys.readouterr()
        assert main(["replay", str(chain_path)]) == 1
        assert main(["verify", str(dump_dir)]) == 1
        assert capsys.readouterr().out.count("[FAIL] chain: ") == 2

    @pytest.mark.parametrize("target", DUMP_FILES)
    @pytest.mark.parametrize("key", ["extra", "reason"])
    def test_dump_keys_a_dump_does_not_write_are_rejected(self, tmp_path, capsys, target, key):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        path = dump_dir / target
        if target == "trace.jsonl":
            # a top-level key, which no audit of the events' payloads would see
            events = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            events[0][key] = "smuggled"
            path.write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
            assert main(["verify", str(dump_dir)]) == 2
            assert capsys.readouterr().err.startswith("dump error: ")
            return
        doc = json.loads(path.read_text(encoding="utf-8"))
        if target == "chain.json":
            # Into the accepted update: the decoder would drop the key and the
            # digest, recomputed over the decoded block, would still match.
            (entry,) = [e for b in doc for e in b["txs"] if e["tx"]["type"] == "update"]
            (entry["verdict"] if key == "reason" else entry["tx"])[key] = "smuggled"
        elif target == "contract.json":
            doc["entries"]["D23"][key] = "smuggled"
        elif target == "world.json":
            doc["peers"]["Doctor"][key] = "smuggled"
        else:
            doc[key] = "smuggled"
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        if target == "chain.json":
            assert main(["verify", str(dump_dir)]) == 1
            assert "[FAIL] chain:" in capsys.readouterr().out
            assert main(["replay", str(path)]) == 1
        else:
            assert main(["verify", str(dump_dir)]) == 2
            assert capsys.readouterr().err.startswith("dump error: ")

    @pytest.mark.parametrize(
        "rewrite, place",
        [*((rewrite, "") for rewrite in SCENARIO_ERRORS.values()), *SCENARIO_ERROR_PLACES.values()],
        ids=[*SCENARIO_ERRORS, *SCENARIO_ERROR_PLACES],
    )
    def test_run_scenario_errors_exit_2_without_traceback(self, tmp_path, capsys, rewrite, place):
        from medsync.cli import main

        doc = json.loads(Path(scenario_path("update_flow")).read_text(encoding="utf-8"))
        rewrite(doc)
        path = tmp_path / "broken.scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path), "--dump", str(tmp_path / "out" / "d")]) == 2
        assert capsys.readouterr().err.startswith(f"scenario error: {place}")
        assert [p.name for p in tmp_path.iterdir()] == ["broken.scenario.json"]  # nothing dumped
