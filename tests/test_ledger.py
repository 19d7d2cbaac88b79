"""Mempool, block production, the per-block update serialization rule, replay."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import medsync.contract as contract
import medsync.ledger as ledger
from medsync.contract import (
    ACCEPT,
    ContractState,
    DeployTx,
    PermChangeTx,
    RejectReason,
    UpdateTx,
    Verdict,
)
from medsync.ledger import Block, Chain, ChainCorrupt, execute_block
from medsync.relational import ZERO_DIGEST, canonical_json, sha256_hex

from test_contract import d13_meta, d23_meta


@pytest.fixture
def deployed() -> tuple[Chain, ContractState]:
    chain = Chain()
    for meta in (d13_meta(), d23_meta()):
        chain.submit(DeployTx(meta, "Doctor"))
    state, _, receipts = chain.produce_block(ContractState.empty(), 0)
    assert all(r.verdict.ok for r in receipts)
    return chain, state


def update(shared_id, requester, attrs, base, digest_char) -> UpdateTx:
    return UpdateTx(shared_id, requester, frozenset(attrs), base, digest_char * 64)


class TestSubmit:
    def test_mempool_grows(self, deployed):
        chain, _ = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        assert len(chain.mempool) == 1

    def test_arrival_order_is_total(self, deployed):
        # one arrival order across transaction types and shares
        chain, state = deployed
        txs = [
            update("D23", "Researcher", {"a5"}, 0, "1"),
            PermChangeTx("D13", "Doctor", "a4", frozenset({"Doctor", "Patient"})),
            update("D13", "Patient", {"a4"}, 0, "2"),
        ]
        for tx in txs:
            chain.submit(tx)
        chain.produce_block(state, 1)
        assert [tx for tx, _ in chain.blocks[-1].txs] == txs

    def test_resubmission_queues_at_arrival(self, deployed):
        chain, state = deployed
        stale = update("D23", "Researcher", {"a5"}, 3, "1")  # rejected
        chain.submit(stale)
        state, _, _ = chain.produce_block(state, 1)
        other = update("D13", "Doctor", {"a4"}, 0, "2")
        chain.submit(other)
        chain.submit(stale)
        chain.produce_block(state, 2)
        assert [tx for tx, _ in chain.blocks[-1].txs] == [other, stale]


class TestProduceBlock:
    def test_second_update_on_same_share_blocked(self, deployed):
        chain, state = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        chain.submit(update("D23", "Doctor", {"a5"}, 0, "2"))
        state, _notes, receipts = chain.produce_block(state, 1)
        verdicts = [r.verdict for r in receipts]
        assert verdicts[0].ok
        assert verdicts[1].reason is RejectReason.BLOCKED_BY_SERIALIZATION

    def test_blocked_regardless_of_own_merits(self, deployed):
        # the second transaction would be valid on its own (correct base version)
        chain, state = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        chain.submit(update("D23", "Doctor", {"a5"}, 1, "2"))
        _, _, receipts = chain.produce_block(state, 1)
        assert receipts[1].verdict.reason is RejectReason.BLOCKED_BY_SERIALIZATION

    def test_denied_update_leaves_state_untouched(self, deployed):
        chain, state = deployed
        chain.submit(update("D13", "Patient", {"a4"}, 0, "1"))
        state2, notes, receipts = chain.produce_block(state, 1)
        assert receipts[0].verdict.reason is RejectReason.PERMISSION_DENIED
        assert notes == []
        assert state2.canonical_bytes() == state.canonical_bytes()

    def test_empty_mempool_heartbeat(self, deployed):
        chain, state = deployed
        n = len(chain.blocks)
        chain.produce_block(state, 5)
        assert len(chain.blocks) == n + 1
        assert chain.blocks[-1].txs == ()

    def test_different_shares_both_accepted(self, deployed):
        chain, state = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        chain.submit(update("D13", "Doctor", {"a4"}, 0, "2"))
        _, _, receipts = chain.produce_block(state, 1)
        assert all(r.verdict.ok for r in receipts)

    def test_receipts_routed_to_submitters(self, deployed):
        chain, state = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        chain.submit(PermChangeTx("D13", "Patient", "a4", frozenset({"Doctor"})))
        _, _, receipts = chain.produce_block(state, 1)
        assert [r.to for r in receipts] == ["Researcher", "Patient"]

    def test_notifications_come_from_accepted_updates(self, deployed):
        chain, state = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        _, notes, _ = chain.produce_block(state, 1)
        assert [(n.shared_id, n.to) for n in notes] == [("D23", "Doctor")]

    def test_fifo_order_preserved_in_block(self, deployed):
        chain, state = deployed
        txs = [update("D23", "Researcher", {"a5"}, 0, "1"), update("D13", "Doctor", {"a4"}, 0, "2")]
        for tx in txs:
            chain.submit(tx)
        chain.produce_block(state, 1)
        assert [tx for tx, _ in chain.blocks[-1].txs] == txs

    def test_deploy_through_the_mempool(self):
        chain = Chain()
        chain.submit(DeployTx(d13_meta(), "Doctor"))
        state, _, receipts = chain.produce_block(ContractState.empty(), 0)
        assert receipts[0].verdict.ok
        assert "D13" in state.entries

    def test_block_copies_the_registry_once(self, monkeypatch):
        metas = [replace(d23_meta(), shared_id=f"S{i}") for i in range(10)]
        state, verdicts, _ = execute_block(ContractState.empty(), [DeployTx(m, "Doctor") for m in metas], 0)
        assert all(v.ok for v in verdicts)
        before = state.canonical_bytes()
        built = []
        for module in (contract, ledger):  # as defined, and as the executor calls it
            monkeypatch.setattr(module, "ContractState", lambda *a: built.append(a) or ContractState(*a))
        updates = [update(m.shared_id, "Researcher", {"a5"}, 0, "1") for m in metas]
        after, verdicts, notes = execute_block(state, updates, 1)
        assert all(v.ok for v in verdicts) and len(notes) == 10
        assert [after.entries[m.shared_id].version for m in metas] == [1] * 10
        assert len(built) == 1
        assert state.canonical_bytes() == before  # the input state is not mutated

    def test_append_only(self, deployed):
        chain, state = deployed
        snapshot = [b.block_digest for b in chain.blocks]
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        chain.produce_block(state, 1)
        assert [b.block_digest for b in chain.blocks[: len(snapshot)]] == snapshot


class TestChainIntegrity:
    def test_genesis_links_from_zero(self):
        chain = Chain()
        assert chain.blocks == []  # no block until the first is sealed
        chain.produce_block(ContractState.empty(), 0)
        assert chain.blocks[0].index == 0 and chain.blocks[0].prev_digest == ZERO_DIGEST
        chain.verify(json.loads(chain.dumps()))

    def test_linkage_holds_after_blocks(self, deployed):
        chain, state = deployed
        for tick in range(3):
            chain.submit(update("D23", "Researcher", {"a5"}, tick, str(tick)))
            state, _, _ = chain.produce_block(state, tick)
        chain.verify(json.loads(chain.dumps()))
        for prev, block in zip(chain.blocks, chain.blocks[1:]):
            assert block.prev_digest == prev.block_digest

    def test_digest_covers_contents(self):
        block = Block.build(1, 2, (), "a" * 64)
        body = {"index": 1, "tick": 2, "prev_digest": "a" * 64, "txs": []}  # the block less its own digest
        assert block.body == canonical_json(body)
        assert block.block_digest == sha256_hex(canonical_json(body))
        assert block.block_digest != Block.build(1, 3, (), "a" * 64).block_digest


class TestReplay:
    def test_replay_matches_live_state(self, deployed):
        chain, state = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        chain.submit(update("D23", "Doctor", {"a5"}, 0, "9"))  # blocked
        state, _, _ = chain.produce_block(state, 1)
        chain.submit(PermChangeTx("D13", "Doctor", "a4", frozenset({"Doctor", "Patient"})))
        state, _, _ = chain.produce_block(state, 2)
        assert chain.replay().canonical_bytes() == state.canonical_bytes()

    def test_genesis_only_chain_replays_to_empty(self):
        chain = Chain()  # no block at all
        assert chain.replay().canonical_bytes() == ContractState.empty().canonical_bytes()
        chain.produce_block(ContractState.empty(), 0)  # an empty genesis
        assert chain.replay().canonical_bytes() == ContractState.empty().canonical_bytes()

    def test_tampered_tx_detected(self, deployed):
        chain, state = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        chain.produce_block(state, 1)
        blocks = json.loads(chain.dumps())
        blocks[1]["txs"][0]["tx"]["requester"] = "Doctor"
        with pytest.raises(ChainCorrupt):
            Chain.from_json_list(blocks)

    def test_json_roundtrip(self, deployed):
        chain, state = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        chain.produce_block(state, 1)
        again = Chain.loads(chain.dumps())
        assert again.dumps() == chain.dumps()
        assert again.replay().canonical_bytes() == chain.replay().canonical_bytes()

    def test_unparseable_dump_is_corrupt(self):
        with pytest.raises(ChainCorrupt):
            Chain.loads(b"{not json")

    @pytest.mark.parametrize(
        "field, value",
        [("index", True), ("index", 1.0), ("tick", True), ("tick", "1"), ("prev_digest", None), ("block_digest", 7)],
    )
    def test_a_block_field_of_the_wrong_type_is_corrupt(self, deployed, field, value):
        chain, state = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        chain.produce_block(state, 1)
        blocks = json.loads(chain.dumps())
        assert type(blocks[1][field]) is (int if field in ("index", "tick") else str)
        blocks[1][field] = value
        # Refused as it is decoded, before any link or digest is checked.
        with pytest.raises(ChainCorrupt, match="integer index and tick, and string prev_digest and block_digest"):
            Chain.from_json_list(blocks)

    @pytest.mark.parametrize(
        "where, field, value",
        [
            ("update", "base_version", False),
            ("update", "base_version", "0"),
            ("update", "shared_id", 23),
            ("update", "requester", None),
            ("update", "new_digest", 1),
            ("update", "changed_attrs", "a5"),
            ("update", "changed_attrs", ["a5", 5]),
            ("perm_change", "requester", ["Doctor"]),
            ("perm_change", "attr", 4),
            ("perm_change", "new_principals", "Doctor"),
            ("verdict", "ok", 1),
            ("verdict", "ok", "true"),
            ("deploy", "deployer", 3),
            ("meta", "version", False),
            ("meta", "latest_update_time", 0.0),
            ("meta", "shared_id", 13),
            ("meta", "authority", None),
            ("meta", "digest", 0),
            ("meta", "peers", "DoctorPatient"),
            ("meta", "peers", ["Doctor", 1]),
            ("perm", "a4", "Doctor"),
        ],
    )
    def test_a_transaction_or_verdict_field_of_the_wrong_type_is_corrupt(self, deployed, where, field, value):
        chain, state = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        chain.submit(PermChangeTx("D13", "Doctor", "a4", frozenset({"Doctor", "Patient"})))
        chain.produce_block(state, 1)
        blocks = json.loads(chain.dumps())
        (deploy,), (updated, perm_change) = blocks[0]["txs"][:1], blocks[1]["txs"]
        target = {
            "update": updated["tx"],
            "perm_change": perm_change["tx"],
            "verdict": updated["verdict"],
            "deploy": deploy["tx"],
            "meta": deploy["tx"]["meta"],
            "perm": deploy["tx"]["meta"]["perm"],
        }[where]
        assert field in target
        target[field] = value
        # Refused as it is decoded: `False == 0` and `1 == True`, so the
        # re-encoding would equal the JSON it came from.
        with pytest.raises(ChainCorrupt, match="malformed chain dump"):
            Chain.from_json_list(blocks)


class TestChainBytes:
    """A block keeps the bytes its digest covers, and a dump joins them."""

    @pytest.fixture
    def sealed(self, deployed) -> Chain:
        chain, state = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        chain.submit(update("D23", "Doctor", {"a5"}, 0, "2"))  # blocked: a rejected verdict too
        state, _, _ = chain.produce_block(state, 1)
        chain.submit(PermChangeTx("D13", "Doctor", "a4", frozenset({"Doctor", "Patient"})))
        chain.produce_block(state, 2)
        return chain

    def test_a_dump_is_the_canonical_json_of_its_blocks(self, sealed):
        data = sealed.dumps()
        assert data == canonical_json(json.loads(data))
        assert Chain.loads(data).dumps() == data
        assert Chain().dumps() == b"[]"

    def test_a_dump_encodes_no_block(self, sealed, monkeypatch):
        reloaded = Chain.loads(sealed.dumps())
        calls = []
        monkeypatch.setattr(ledger, "tx_to_json_dict", lambda tx: calls.append(tx))
        monkeypatch.setattr(ledger, "canonical_json", lambda obj: calls.append(obj))
        assert sealed.dumps() == reloaded.dumps()
        assert calls == []

    def test_a_reindented_chain_verifies_and_redumps_canonically(self, sealed):
        data = sealed.dumps()
        reindented = json.dumps(json.loads(data), indent=1).encode("utf-8")
        assert reindented != data
        reloaded = Chain.loads(reindented)
        # The kept bytes are the re-encoding the digest was checked over, not the file's text.
        assert reloaded.dumps() == data
        assert [b.body for b in reloaded.blocks] == [b.body for b in sealed.blocks]

    def test_the_kept_bytes_are_out_of_equality_and_repr(self, sealed):
        block = sealed.blocks[1]
        assert replace(block, body=b"{}") == block
        assert "body" not in repr(block) and block.body.decode("utf-8") not in repr(block)

    def test_a_reloaded_accepted_verdict_is_the_shared_accept(self, sealed):
        verdicts = [v for block in Chain.loads(sealed.dumps()).blocks for _, v in block.txs]
        assert not all(v.ok for v in verdicts)
        assert all(v is ACCEPT for v in verdicts if v.ok)
        assert Verdict.from_json_dict({"ok": True}) is ACCEPT

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda blocks: blocks[1].update(extra=1), "block 1 holds keys or values its encoding does not write"),
            # The decoder reads no reason of an accepted verdict.
            (
                lambda blocks: blocks[1]["txs"][0]["verdict"].update(reason="smuggled"),
                "block 1 holds keys or values its encoding does not write",
            ),
            (lambda blocks: blocks[2].update(tick=7), "block 2 digest mismatch"),
        ],
        ids=["extra block key", "extra verdict key", "changed tick"],
    )
    def test_a_tampered_block_is_refused_by_name(self, sealed, tamper, message):
        blocks = json.loads(sealed.dumps())
        tamper(blocks)
        with pytest.raises(ChainCorrupt, match=f"^{message}$"):
            Chain.from_json_list(blocks)


class TestHistory:
    def test_share_history_in_chain_order(self, deployed):
        chain, state = deployed
        chain.submit(update("D23", "Researcher", {"a5"}, 0, "1"))
        chain.submit(update("D23", "Doctor", {"a5"}, 0, "2"))  # blocked
        state, _, _ = chain.produce_block(state, 1)
        events = chain.history("D23")
        # the genesis deploy plus the two update attempts
        assert len(events) == 3
        assert isinstance(events[0][1], DeployTx)
        assert events[1][2].ok
        assert events[2][2].reason is RejectReason.BLOCKED_BY_SERIALIZATION

    def test_unknown_share_history_empty(self, deployed):
        chain, _ = deployed
        assert chain.history("D99") == []
