"""Permission registry: deployment, update validation, permission changes."""

from __future__ import annotations

import random

import pytest

from medsync.contract import (
    ContractState,
    PermChangeTx,
    RejectReason,
    SharedTableMetadata,
    UpdateTx,
    apply_update,
    change_permission,
    deploy,
    query_metadata,
    validate_deploy,
    validate_update,
)
from medsync.relational import Schema

D13_SCHEMA = Schema(("a0", "a1", "a2", "a4"), ("a0", "a1"))
D23_SCHEMA = Schema(("a1", "a5"), ("a1",))


def d13_meta() -> SharedTableMetadata:
    """Doctor updates everything; the patient may only touch the clinical notes."""
    return SharedTableMetadata(
        shared_id="D13",
        view_schema=D13_SCHEMA,
        peers=frozenset({"Patient", "Doctor"}),
        perm={
            "a0": frozenset({"Doctor"}),
            "a1": frozenset({"Doctor"}),
            "a2": frozenset({"Doctor", "Patient"}),
            "a4": frozenset({"Doctor"}),
        },
        authority="Doctor",
    )


def d23_meta() -> SharedTableMetadata:
    return SharedTableMetadata(
        shared_id="D23",
        view_schema=D23_SCHEMA,
        peers=frozenset({"Researcher", "Doctor"}),
        perm={"a1": frozenset({"Doctor", "Researcher"}), "a5": frozenset({"Doctor", "Researcher"})},
        authority="Doctor",
    )


@pytest.fixture
def state() -> ContractState:
    return deploy(deploy(ContractState.empty(), d13_meta(), 0), d23_meta(), 0)


def with_perm(meta: SharedTableMetadata, perm) -> SharedTableMetadata:
    return SharedTableMetadata(meta.shared_id, meta.view_schema, meta.peers, perm, meta.authority)


class TestDeploy:
    def test_deploy_registers_entry(self):
        assert validate_deploy(ContractState.empty(), d13_meta(), "Doctor").ok
        s = deploy(ContractState.empty(), d13_meta(), 3)
        entry = query_metadata(s, "D13")
        assert entry.peers == {"Patient", "Doctor"}
        assert entry.perm["a2"] == {"Doctor", "Patient"}
        assert entry.perm["a4"] == {"Doctor"}
        assert entry.authority == "Doctor"
        assert entry.version == 0
        assert entry.latest_update_time == 3

    def test_duplicate_shared_id(self, state):
        verdict = validate_deploy(state, d13_meta(), "Doctor")
        assert verdict.reason is RejectReason.DUPLICATE_SHARED

    def test_deployer_must_be_peer(self):
        verdict = validate_deploy(ContractState.empty(), d13_meta(), "Researcher")
        assert verdict.reason is RejectReason.NOT_A_PEER

    def test_permitted_principals_must_be_peers(self):
        meta = d13_meta()
        bad = with_perm(meta, {**meta.perm, "a4": frozenset({"Researcher"})})
        verdict = validate_deploy(ContractState.empty(), bad, "Doctor")
        assert verdict.reason is RejectReason.MALFORMED_METADATA
        assert "Researcher" in verdict.detail

    def test_authority_must_be_peer(self):
        meta = d13_meta()
        bad = SharedTableMetadata(meta.shared_id, meta.view_schema, meta.peers, meta.perm, "Researcher")
        verdict = validate_deploy(ContractState.empty(), bad, "Doctor")
        assert verdict.reason is RejectReason.MALFORMED_METADATA
        assert "authority" in verdict.detail

    def test_perm_must_cover_view_attrs(self):
        bad = with_perm(d13_meta(), {"a0": frozenset({"Doctor"})})
        verdict = validate_deploy(ContractState.empty(), bad, "Doctor")
        assert verdict.reason is RejectReason.MALFORMED_METADATA


class TestValidateUpdate:
    def test_permitted_update_accepted(self, state):
        tx = UpdateTx("D23", "Researcher", frozenset({"a5"}), 0, "d" * 64)
        assert validate_update(state, tx).ok

    def test_dosage_denied_to_patient(self, state):
        tx = UpdateTx("D13", "Patient", frozenset({"a4"}), 0, "d" * 64)
        verdict = validate_update(state, tx)
        assert not verdict.ok
        assert verdict.reason is RejectReason.PERMISSION_DENIED
        assert "a4" in verdict.detail

    def test_stale_version_fenced(self, state):
        state2, _ = apply_update(state, UpdateTx("D23", "Researcher", frozenset({"a5"}), 0, "d" * 64), 1)
        stale = UpdateTx("D23", "Researcher", frozenset({"a5"}), 0, "e" * 64)
        assert validate_update(state2, stale).reason is RejectReason.STALE_VERSION

    def test_unknown_shared(self, state):
        tx = UpdateTx("D99", "Doctor", frozenset({"a5"}), 0, "d" * 64)
        assert validate_update(state, tx).reason is RejectReason.UNKNOWN_SHARED

    def test_non_peer_rejected_before_permissions(self, state):
        tx = UpdateTx("D13", "Researcher", frozenset({"a4"}), 5, "d" * 64)
        assert validate_update(state, tx).reason is RejectReason.NOT_A_PEER

    def test_permission_checked_before_version(self, state):
        # both the permission and the version are wrong: permission wins
        tx = UpdateTx("D13", "Patient", frozenset({"a4"}), 7, "d" * 64)
        assert validate_update(state, tx).reason is RejectReason.PERMISSION_DENIED


class TestApplyUpdate:
    def test_notifies_exactly_the_counterpart(self, state):
        tx = UpdateTx("D23", "Researcher", frozenset({"a5"}), 0, "d" * 64)
        state2, notes = apply_update(state, tx, 4)
        assert [n.to for n in notes] == ["Doctor"]
        assert notes[0].source_peer == "Researcher"
        assert notes[0].new_version == 1
        assert query_metadata(state2, "D23").content_digest == "d" * 64

    def test_version_counter_starts_at_one(self, state):
        state2, _ = apply_update(state, UpdateTx("D23", "Researcher", frozenset({"a5"}), 0, "d" * 64), 1)
        assert query_metadata(state2, "D23").version == 1

    def test_sequential_updates_replay(self, state):
        txs = [
            UpdateTx("D23", "Researcher", frozenset({"a5"}), 0, "1" * 64),
            UpdateTx("D23", "Doctor", frozenset({"a5"}), 1, "2" * 64),
        ]
        live = state
        for tick, tx in enumerate(txs, start=1):
            assert validate_update(live, tx).ok
            live, _ = apply_update(live, tx, tick)
        # replay the same transactions from the deployed base: states agree
        replayed = state
        for tick, tx in enumerate(txs, start=1):
            replayed, _ = apply_update(replayed, tx, tick)
        assert replayed.canonical_bytes() == live.canonical_bytes()
        assert query_metadata(live, "D23").version == 2
        assert query_metadata(live, "D23").content_digest == "2" * 64

class TestChangePermission:
    def test_authority_widens_dosage_permission(self, state):
        # denied first, allowed after the authority grants the attribute
        dosage = UpdateTx("D13", "Patient", frozenset({"a4"}), 0, "d" * 64)
        assert validate_update(state, dosage).reason is RejectReason.PERMISSION_DENIED
        state2, verdict = change_permission(
            state, PermChangeTx("D13", "Doctor", "a4", frozenset({"Doctor", "Patient"})), 2
        )
        assert verdict.ok
        assert validate_update(state2, dosage).ok
        assert query_metadata(state2, "D13").version == 0  # version untouched
        assert query_metadata(state2, "D13").latest_update_time == 2

    def test_non_authority_rejected(self, state):
        state2, verdict = change_permission(
            state, PermChangeTx("D13", "Patient", "a4", frozenset({"Doctor", "Patient"})), 2
        )
        assert verdict.reason is RejectReason.NOT_AUTHORITY
        assert state2 is state

    def test_non_peer_principals_rejected(self, state):
        _, verdict = change_permission(
            state, PermChangeTx("D13", "Doctor", "a4", frozenset({"Researcher"})), 2
        )
        assert verdict.reason is RejectReason.NOT_A_PEER

    def test_unknown_attribute(self, state):
        _, verdict = change_permission(
            state, PermChangeTx("D13", "Doctor", "a9", frozenset({"Doctor"})), 2
        )
        assert verdict.reason is RejectReason.UNKNOWN_ATTRIBUTE

    def test_unknown_shared(self, state):
        _, verdict = change_permission(
            state, PermChangeTx("D99", "Doctor", "a4", frozenset({"Doctor"})), 2
        )
        assert verdict.reason is RejectReason.UNKNOWN_SHARED


class TestQueryMetadata:
    def test_returns_deployed_entry(self, state):
        assert query_metadata(state, "D23").shared_id == "D23"

    def test_unknown_id(self, state):
        # Callers query only deployed shares; requests naming others get verdicts.
        with pytest.raises(KeyError):
            query_metadata(state, "D99")
        tx = UpdateTx("D99", "Doctor", frozenset({"a5"}), 0, "d" * 64)
        assert validate_update(state, tx).reason is RejectReason.UNKNOWN_SHARED

    def test_reflects_last_update(self, state):
        state2, _ = apply_update(state, UpdateTx("D23", "Doctor", frozenset({"a1"}), 0, "f" * 64), 9)
        entry = query_metadata(state2, "D23")
        assert (entry.version, entry.content_digest, entry.latest_update_time) == (1, "f" * 64, 9)

    def test_metadata_json_roundtrip(self, state):
        entry = query_metadata(state, "D13")
        assert SharedTableMetadata.from_json_dict(entry.to_json_dict()) == entry


def test_permission_soundness_under_random_transactions(state):
    """No transaction sequence lets a non-peer into a permitted set, and every
    applied update was permitted for its requester at validation time."""
    rng = random.Random(7)
    principals = ["Doctor", "Patient", "Researcher", "Outsider"]
    shared_ids = ["D13", "D23", "D99"]
    attrs = ["a0", "a1", "a2", "a4", "a5", "a9"]
    current = state
    for step in range(400):
        if rng.random() < 0.5:
            tx = UpdateTx(
                rng.choice(shared_ids),
                rng.choice(principals),
                frozenset(rng.sample(attrs, rng.randint(1, 2))),
                rng.randint(0, 3),
                f"{step:064x}",
            )
            verdict = validate_update(current, tx)
            if verdict.ok:
                entry = query_metadata(current, tx.shared_id)
                assert tx.requester in entry.peers
                assert all(tx.requester in entry.perm[a] for a in tx.changed_attrs)
                current, _ = apply_update(current, tx, step)
        else:
            tx = PermChangeTx(
                rng.choice(shared_ids),
                rng.choice(principals),
                rng.choice(attrs),
                frozenset(rng.sample(principals, rng.randint(0, 2))),
            )
            current, _ = change_permission(current, tx, step)
        for entry in current.entries.values():
            for permitted in entry.perm.values():
                assert permitted <= entry.peers


def test_validation_is_pure(state):
    tx = UpdateTx("D23", "Researcher", frozenset({"a5"}), 0, "d" * 64)
    assert validate_update(state, tx) == validate_update(state, tx)
    before = state.canonical_bytes()
    validate_update(state, tx)
    assert state.canonical_bytes() == before
