"""Scenario loading, the tick loop, dumps, reloads, and the convergence report."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import BUNDLED_SCENARIOS, scenario_path
from medsync.harness import (
    CascadeOverflow,
    MaxTicksExceeded,
    NotQuiescent,
    ParseError,
    ValidationError,
    World,
    dump,
    load_dump,
    load_scenario,
    run,
    scenario_from_json_dict,
    verify_convergence,
)


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


def _script(*actions):
    """A scenario rewrite whose script is `actions`, all at tick 1."""
    return _set(("script",), [{"tick": 1, "principal": who, "action": action} for who, action in actions])


def _edit(who, table, **edit):
    return who, {"kind": "edit", "table": table, **edit}


def _propose(who, shared_id):
    return who, {"kind": "propose", "shared_id": shared_id}


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
    "edit of a missing row": _script(_edit("Researcher", "D2", op="update", key={"a1": "MedZ"}, changes={})),
    "key not binding the primary key": _script(_edit("Researcher", "D2", op="delete", key={"a5": "MeA1"})),
    "insert row a string": _script(_edit("Researcher", "D2", op="insert", row="MedZ")),
    "key cell a list": _script(_edit("Researcher", "D2", op="delete", key={"a1": ["MedX"]})),
    "changes a number": _script(_edit("Researcher", "D2", op="update", key={"a1": "MedX"}, changes=0)),
    "max_ticks not a number": _set(("config", "max_ticks"), "abc"),
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
}


class TestLoadScenario:
    def test_bundled_composition(self, update_flow):
        assert sorted(update_flow.principals) == ["Doctor", "Patient", "Researcher"]
        assert sum(len(v) for v in update_flow.lens_specs.values()) == 4
        assert len(update_flow.shares) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(ParseError):
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

    def test_identical_runs_produce_identical_traces(self, update_flow):
        t1 = [e.to_json_dict() for e in run(update_flow).trace]
        t2 = [e.to_json_dict() for e in run(update_flow).trace]
        assert t1 == t2

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_replay_validates_each_transaction_once(self, monkeypatch, name):
        import medsync.contract as contract
        import medsync.ledger as ledger
        from medsync.contract import DeployTx, RejectReason, UpdateTx

        chain = run(load_scenario(scenario_path(name))).chain
        calls = Counter()
        for module in (contract, ledger):  # as defined, and as the executor calls them
            for fn in ("validate_deploy", "validate_update"):
                original = getattr(module, fn)
                monkeypatch.setattr(module, fn, lambda *a, fn=fn, f=original: calls.update([fn]) or f(*a))
        chain.replay()
        txs = [(tx, v) for block in chain.blocks for tx, v in block.txs]
        deploys = sum(isinstance(tx, DeployTx) for tx, _ in txs)
        # an update the block already serializes behind another is not validated
        updates = sum(
            isinstance(tx, UpdateTx) and v.reason is not RejectReason.BLOCKED_BY_SERIALIZATION for tx, v in txs
        )
        assert updates and calls == Counter(validate_deploy=deploys, validate_update=updates)

    def test_max_ticks_exceeded(self, update_flow):
        with pytest.raises(MaxTicksExceeded):
            run(replace(update_flow, config=replace(update_flow.config, max_ticks=2)))

    def test_cascade_hop_budget(self, cascade_delete):
        scenario = replace(cascade_delete, config=replace(cascade_delete.config, max_cascade_hops=0))
        with pytest.raises(CascadeOverflow):
            run(scenario)

    def test_cascade_budget_counts_hops_per_causal_chain(self):
        # 17 unrelated deletes each cascade once into D13: 17 cascades on one
        # share over the run, one hop per causal chain, within the budget of 16.
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
        assert world.config.max_cascade_hops == 16
        assert [e.payload["shared_id"] for e in world.trace if e.kind == "cascade"] == ["D13"] * 17
        assert verify_convergence(world).ok
        assert len(world.peers["Patient"].tables["D1"].rows) == 3

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
        with pytest.raises(MaxTicksExceeded, match="messages in flight"):
            world.run_to_quiescence()


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

    def test_one_file_per_table_per_peer(self, tmp_path, update_flow):
        world = run(update_flow)
        out = dump(world, tmp_path / "d")
        assert (out / "tables" / "Doctor" / "D3.json").is_file()
        assert (out / "tables" / "Patient" / "D1.json").is_file()
        assert (out / "tables" / "Researcher" / "D2.json").is_file()
        assert (out / "shared" / "Doctor" / "D13.json").is_file()
        assert (out / "shared" / "Doctor" / "D23.json").is_file()

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


class TestVerifyConvergence:
    def test_all_checks_pass_after_run(self, update_flow):
        report = verify_convergence(run(update_flow))
        assert report.ok
        assert len(report.checks) == 10  # 2 shares x (copies-equal + 2 digests + 2 regenerations)
        assert all(line.startswith("[PASS]") for line in report.lines())

    def test_not_quiescent_mid_run(self, update_flow):
        world = World(update_flow)  # script not yet executed
        with pytest.raises(NotQuiescent):
            verify_convergence(world)


class TestCli:
    def test_run_verify_replay_roundtrip(self, tmp_path, capsys):
        from medsync.cli import main

        dump_dir = str(tmp_path / "dump")
        assert main(["run", scenario_path("update_flow"), "--dump", dump_dir]) == 0
        assert main(["verify", dump_dir]) == 0
        assert main(["replay", str(tmp_path / "dump" / "chain.json")]) == 0
        out = capsys.readouterr().out
        assert "[PASS] replay-matches-contract" in out

    def test_scenario_errors_exit_2(self, tmp_path, capsys):
        from medsync.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["run", str(bad)]) == 2

    @pytest.mark.parametrize("subdir, table", [("tables", "D3"), ("shared", "D23")])
    @pytest.mark.parametrize("corruption", ["bad JSON", "duplicate primary key"])
    def test_corrupt_dump_exits_2(self, tmp_path, capsys, subdir, table, corruption):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        path = dump_dir / subdir / "Doctor" / f"{table}.json"
        if corruption == "bad JSON":
            path.write_text("{", encoding="utf-8")
        else:
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["rows"].append(doc["rows"][0])
            path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 2
        assert capsys.readouterr().err.startswith("dump error: ")

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
        ],
    )
    def test_forged_trace_fails_verify(self, tmp_path, capsys, forgery):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("permission_grant"), "--dump", str(dump_dir)]) == 0
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
        elif forgery == "data_resp digest removed":
            del next(e for e in events if e["kind"] == "data_resp")["payload"]["digest"]
        else:
            note = next(e for e in events if e["kind"] == "notify")
            note["payload"]["to"] = note["payload"]["from"]
        path.write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", str(dump_dir)]) == 1
        assert "[FAIL] trace-matches-chain" in capsys.readouterr().out

    def test_corrupt_chain_exits_1(self, tmp_path, capsys):
        from medsync.cli import main

        dump_dir = tmp_path / "dump"
        assert main(["run", scenario_path("update_flow"), "--dump", str(dump_dir)]) == 0
        chain_path = dump_dir / "chain.json"
        data = bytearray(chain_path.read_bytes())
        data[len(data) // 2] ^= 0x01
        chain_path.write_bytes(bytes(data))
        assert main(["replay", str(chain_path)]) == 1

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

    @pytest.mark.parametrize("rewrite", SCENARIO_ERRORS.values(), ids=SCENARIO_ERRORS.keys())
    def test_run_scenario_errors_exit_2_without_traceback(self, tmp_path, capsys, rewrite):
        from medsync.cli import main

        doc = json.loads(Path(scenario_path("update_flow")).read_text(encoding="utf-8"))
        rewrite(doc)
        path = tmp_path / "broken.scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("scenario error: ")
