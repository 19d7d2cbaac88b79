"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria:
  1. round-trip laws on >=1000 randomized cases per direction, zero failures
  2. the bundled update flow quiesces in <=30 ticks with the step kinds in
     order, including the cascade leg in the overlapping-attribute variant
  3. permission gating end to end: denied before the grant, accepted after,
     and denied updates never reach another peer's tables
  4. at most one accepted update per shared table per block, verified by
     scanning the chain dump
  5. replaying the chain reproduces the live contract state bit-exactly, and
     any single-byte tampering of a dumped chain is detected, as is a forged
     verdict in a chain whose digests were recomputed
  6. byte-identical dumps and traces across repeated runs, pinned by SHA-256
  7. a stale proposal recovers (refetch, re-put, re-propose) and converges
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import BUNDLED_SCENARIOS, iter_law_cases, scenario_path
from medsync.cli import main
from medsync.harness import dump, load_scenario, run, verify_convergence
from medsync.ledger import Block, Chain, ChainCorrupt
from medsync.lenses import get as lens_get, put as lens_put
from medsync.peer import PeerNode
from medsync.relational import ZERO_DIGEST, canonical_json

LAW_CASES = 1000
LAW_SEED = 20260808


def _passed(line: str) -> None:
    print(f"[PASS] {line}")


def _subsequence(needle: list[str], haystack: list[str]) -> bool:
    it = iter(haystack)
    return all(k in it for k in needle)


def _load(name: str):
    return load_scenario(scenario_path(name))


def _dump_files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_criterion_1_lens_roundtrip_laws():
    seen_kinds: set[str] = set()
    checked = 0
    for lens, source, edited, kinds in iter_law_cases(LAW_SEED, LAW_CASES):
        assert lens_put(lens, source, lens_get(lens, source)) == source, "GetPut failed"
        assert lens_get(lens, lens_put(lens, source, edited)) == edited, "PutGet failed"
        seen_kinds |= kinds
        checked += 1
    assert checked >= 1000
    assert seen_kinds == {"update", "delete", "insert"}, f"edit coverage too narrow: {seen_kinds}"
    _passed(f"criterion 1: PutGet and GetPut held on {checked} randomized cases each")


def test_criterion_2_update_flow_reproduction():
    world = run(_load("update_flow"))
    assert world.clock <= 30
    report = verify_convergence(world)
    assert report.ok, report.lines()
    kinds = [e.kind for e in world.trace]
    assert _subsequence(
        ["edit", "propose", "block", "verdict", "notify", "data_req", "data_resp", "put_applied"],
        kinds,
    ), kinds

    cascade_world = run(_load("cascade_delete"))
    assert cascade_world.clock <= 30
    assert verify_convergence(cascade_world).ok
    cascade_kinds = [e.kind for e in cascade_world.trace]
    assert _subsequence(
        [
            "edit", "propose", "block", "verdict", "notify", "data_req", "data_resp",
            "put_applied", "cascade", "propose", "block", "verdict", "notify",
            "data_req", "data_resp", "put_applied",
        ],
        cascade_kinds,
    ), cascade_kinds
    _passed(
        f"criterion 2: update flow quiesced in {world.clock} ticks with ordered steps; "
        f"cascade leg confirmed in {cascade_world.clock} ticks"
    )


def test_criterion_3a_permission_transition():
    world = run(_load("permission_grant"))
    events = world.chain.history("D13")
    update_verdicts = [
        (tx.base_version, verdict) for _, tx, verdict in events
        if type(tx).__name__ == "UpdateTx" and tx.requester == "Patient"
    ]
    assert len(update_verdicts) == 2
    assert not update_verdicts[0][1].ok
    assert update_verdicts[0][1].reason.value == "PermissionDenied"
    assert update_verdicts[1][1].ok
    perm_changes = [v for _, tx, v in events if type(tx).__name__ == "PermChangeTx"]
    assert perm_changes and perm_changes[0].ok
    assert verify_convergence(world).ok
    # the granted dosage correction is now visible on the doctor's side
    assert world.peers["Doctor"].tables["D3"].get_row({"a0": "P1", "a1": "MedX"})["a4"] == "7mg"
    _passed("criterion 3a: dosage update denied before the grant and accepted after it")


def test_criterion_3b_denied_updates_never_leak(tmp_path):
    scenario = _load("permission_grant")
    denied_only = replace(scenario, script=scenario.script[:2])  # edit + rejected proposal
    baseline = replace(scenario, script=())

    denied_dump = _dump_files(dump(run(denied_only), tmp_path / "denied"))
    base_dump = _dump_files(dump(run(baseline), tmp_path / "base"))

    # Every table of every *other* peer, every shared copy, and the contract
    # state must be byte-identical to the do-nothing baseline.
    same = [
        p for p in base_dump
        if p.startswith(("tables/Doctor/", "tables/Researcher/", "shared/")) or p == "contract.json"
    ]
    assert same
    for path in same:
        assert denied_dump[path] == base_dump[path], f"rejected update leaked into {path}"
    # the patient's own local table does hold the (unshared) edit
    assert denied_dump["tables/Patient/D1.json"] != base_dump["tables/Patient/D1.json"]
    _passed(f"criterion 3b: denied update left all {len(same)} shared/other-peer files untouched")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the receiver merges what the ledger accepted without checking "
    "the fetched data against the attributes the proposer declared",
)
def test_criterion_3c_undeclared_attrs_never_leak(monkeypatch):
    # The Patient declares only the clinical note a2 for its dosage (a4) edit.
    # The ledger sees no data, so it accepts; only the Doctor can refuse the data.
    scenario = _load("permission_grant")
    propose = PeerNode.regenerate_and_propose

    def smuggling(peer: PeerNode, shared_id: str):
        tx = propose(peer, shared_id)
        return replace(tx, changed_attrs=frozenset({"a2"})) if tx and peer.principal == "Patient" else tx

    monkeypatch.setattr(PeerNode, "regenerate_and_propose", smuggling)
    world = run(replace(scenario, script=scenario.script[:2]))  # the edit and its proposal
    assert world.peers["Doctor"].tables["D3"].get_row({"a0": "P1", "a1": "MedX"})["a4"] == "5mg"


def test_criterion_4_per_block_serialization(tmp_path):
    world = run(_load("conflicting_updates"))
    assert verify_convergence(world).ok
    out = dump(world, tmp_path / "d")
    chain_blocks = json.loads((out / "chain.json").read_text(encoding="utf-8"))

    blocked = 0
    accepted_updates_total = 0
    for block in chain_blocks:
        accepted_in_block = [
            e["tx"]["shared_id"]
            for e in block["txs"]
            if e["tx"]["type"] == "update" and e["verdict"]["ok"]
        ]
        assert len(accepted_in_block) == len(set(accepted_in_block)), (
            f"block {block['index']} accepted two updates on one shared table"
        )
        accepted_updates_total += len(accepted_in_block)
        blocked += sum(
            1
            for e in block["txs"]
            if not e["verdict"]["ok"] and e["verdict"]["reason"] == "BlockedBySerialization"
        )
    assert blocked >= 1, "the conflicting scenario never hit the serialization rule"
    assert accepted_updates_total >= 2
    _passed(
        f"criterion 4: {accepted_updates_total} accepted updates spread over distinct blocks; "
        f"{blocked} conflicting proposal(s) blocked"
    )


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_criterion_5_replay_equivalence(name):
    world = run(_load(name))
    assert world.chain.replay().canonical_bytes() == world.contract.canonical_bytes()
    _passed(f"criterion 5: replay({name}) reproduced the live contract state bit-exactly")


@pytest.mark.parametrize("name, stride", [("update_flow", 1), ("cascade_delete", 29), ("stale_recovery", 31)])
def test_criterion_5_tampering_detected(tmp_path, name, stride):
    world = run(_load(name))
    data = dump(world, tmp_path / name).joinpath("chain.json").read_bytes()
    Chain.loads(data)  # sanity: pristine dump loads
    flipped = 0
    for pos in range(0, len(data), stride):
        tampered = bytearray(data)
        tampered[pos] ^= 0x01
        with pytest.raises(ChainCorrupt):
            Chain.loads(bytes(tampered))
        flipped += 1
    _passed(f"criterion 5: {name}: all {flipped} single-byte tamperings raised ChainCorrupt")


def _relink(blocks: list[dict]) -> None:
    """Recompute every link and digest, as a forger rewriting the whole chain would."""
    prev = ZERO_DIGEST
    for b in blocks:
        b["prev_digest"] = prev
        block = Block.from_json_dict(b)
        b["block_digest"] = prev = Block.build(block.index, block.tick, block.txs, prev).block_digest


@pytest.mark.parametrize(
    "name, target, forged_reason",
    [
        ("update_flow", "last accepted update", "StaleVersion"),
        ("conflicting_updates", "last accepted update", "StaleVersion"),
        ("permission_grant", "last accepted update", "PermissionDenied"),
        ("cascade_delete", "last accepted update", "BlockedBySerialization"),
        ("stale_recovery", "rejected update", "BlockedBySerialization"),
    ],
)
def test_criterion_5_forged_verdict_detected(tmp_path, name, target, forged_reason):
    world = run(_load(name))
    chain_path = dump(world, tmp_path / name) / "chain.json"
    blocks = json.loads(chain_path.read_bytes())
    want_ok = target == "last accepted update"
    entries = [
        e for b in blocks for e in b["txs"] if e["tx"]["type"] == "update" and e["verdict"]["ok"] == want_ok
    ]
    entries[-1]["verdict"] = {"ok": False, "reason": forged_reason, "detail": "forged"}
    _relink(blocks)
    chain_path.write_bytes(canonical_json(blocks) + b"\n")

    forged = Chain.loads(chain_path.read_bytes())  # the links and digests check out
    with pytest.raises(ChainCorrupt, match="recorded verdict"):
        forged.replay()
    assert main(["replay", str(chain_path)]) == 1
    _passed(f"criterion 5: {name}: {target} forged as {forged_reason} was caught by replay")


def test_criterion_5_forged_deploy_update_time_detected(tmp_path, capsys):
    # `deploy` stamps the block's tick over the field, so only validation can see a forged value.
    dump_dir = dump(run(_load("update_flow")), tmp_path / "update_flow")
    chain_path = dump_dir / "chain.json"
    blocks = json.loads(chain_path.read_bytes())
    blocks[0]["txs"][0]["tx"]["meta"]["latest_update_time"] = 1
    _relink(blocks)
    chain_path.write_bytes(canonical_json(blocks) + b"\n")

    capsys.readouterr()
    assert main(["verify", str(dump_dir)]) == 1
    want = (
        "[FAIL] chain-replay: block 0, transaction 0: recorded verdict {'ok': True} "
        "but replay gives {'ok': False, 'reason': 'MalformedMetadata', "
    )
    assert any(line.startswith(want) for line in capsys.readouterr().out.splitlines())
    _passed("criterion 5: a genesis deploy with a forged update time was caught by replay")


PINNED_SHA256 = Path(__file__).with_name("bundled_dumps.sha256")


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_criterion_6_pinned_bytes(tmp_path, name):
    pinned = {}
    for line in PINNED_SHA256.read_text(encoding="utf-8").splitlines():
        digest, path = line.split(maxsplit=1)
        scenario, _, rel = path.partition("/")
        if scenario == name:
            pinned[rel] = digest
    produced = {
        path: hashlib.sha256(data).hexdigest()
        for path, data in _dump_files(dump(run(_load(name)), tmp_path / name)).items()
    }
    assert produced.keys() == pinned.keys()
    changed = sorted(path for path in pinned if produced[path] != pinned[path])
    assert not changed, f"{name}: bytes differ from the pinned dump in {changed}"
    _passed(f"criterion 6: all {len(pinned)} files of the {name} dump match their pinned SHA-256")


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_criterion_6_determinism(tmp_path, name):
    scenario = _load(name)
    d1 = _dump_files(dump(run(scenario), tmp_path / "one"))
    d2 = _dump_files(dump(run(scenario), tmp_path / "two"))
    assert d1.keys() == d2.keys()
    for path in d1:
        assert d1[path] == d2[path], f"{name}: {path} differs between runs"
    _passed(f"criterion 6: two runs of {name} produced byte-identical dumps and traces")


def test_criterion_7_stale_proposal_recovery():
    world = run(_load("stale_recovery"))
    assert verify_convergence(world).ok

    stale = [
        (tick, tx)
        for tick, tx, verdict in world.chain.history("D23")
        if not verdict.ok and verdict.reason.value == "StaleVersion"
    ]
    assert len(stale) == 1
    stale_tick = stale[0][0]

    # after the rejection: a refetch, a merge, and a re-proposal on the new version
    tail = [e for e in world.trace if e.tick > stale_tick]
    kinds = [e.kind for e in tail if e.actor == "Researcher"]
    assert _subsequence(["data_req", "put_applied", "propose"], kinds), kinds
    reproposals = [
        e for e in tail
        if e.kind == "propose"
        and e.actor == "Researcher"
        and e.payload.get("shared_id") == "D23"
        and e.payload.get("base_version") == 1
    ]
    assert reproposals, "no re-proposal against the fetched version"
    # the re-applied edit survived everywhere
    for peer in ("Doctor", "Researcher"):
        copy = world.peers[peer].shares["D23"].copy
        assert copy.get_row({"a1": "MedX"})["a5"] == "MeA2"
    assert world.peers["Doctor"].tables["D3"].get_row({"a0": "P1", "a1": "MedY"})["a5"] == "MeA8"
    _passed(
        f"criterion 7: stale proposal at tick {stale_tick} recovered and converged "
        f"by tick {world.clock}"
    )
