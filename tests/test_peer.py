"""Peer behavior: local edits, staging proposals, receipts, fetch-and-merge, cascades."""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import D3_SCHEMA, L31_SPEC, L32_SPEC, ROW1, ROW2, ROW3
from medsync.contract import (
    Notification,
    PermChangeTx,
    RejectReason,
    SharedTableMetadata,
    UpdateTx,
    Verdict,
)
from medsync.ledger import Receipt
from medsync.lenses import LensSpec, compile_lens
from medsync.peer import (
    RETRY,
    DataRequest,
    DataResponse,
    Edit,
    PeerNode,
    ShareBinding,
    UnknownShare,
    UnknownTable,
    changed_view_attrs,
)
from medsync.relational import Schema, Table

D2_SCHEMA = Schema(("a1", "a5", "a6"), ("a1",))
D2_ROWS = ({"a1": "MedX", "a5": "MeA1", "a6": "MoA1"}, {"a1": "MedY", "a5": "MeA9", "a6": "MoA9"})
L23_SPEC = LensSpec("L23", "D2", ("a1", "a5"), ("a1",))


def researcher() -> PeerNode:
    node = PeerNode(
        "Researcher",
        tables={"D2": Table("D2", D2_SCHEMA, D2_ROWS)},
        lenses={"L23": compile_lens(L23_SPEC, D2_SCHEMA)},
        bindings={"D23": ShareBinding("D23", "L23", "Doctor")},
    )
    node.install_share("D23")
    return node


def doctor() -> PeerNode:
    node = PeerNode(
        "Doctor",
        tables={"D3": Table("D3", D3_SCHEMA, (ROW1, ROW2, ROW3))},
        lenses={
            "L31": compile_lens(L31_SPEC, D3_SCHEMA),
            "L32": compile_lens(L32_SPEC, D3_SCHEMA),
        },
        bindings={
            "D13": ShareBinding("D13", "L31", "Patient"),
            "D23": ShareBinding("D23", "L32", "Researcher"),
        },
    )
    node.install_share("D13")
    node.install_share("D23")
    return node


def meta_for(node: PeerNode, shared_id: str, version: int = 0) -> SharedTableMetadata:
    """A contract entry whose digest matches the node's current copy."""
    lens = node.lenses[node.shares[shared_id].binding.lens_id]
    return SharedTableMetadata(
        shared_id=shared_id,
        view_schema=lens.view_schema,
        peers=frozenset({node.principal, node.shares[shared_id].binding.counterpart}),
        perm={a: frozenset({node.principal}) for a in lens.view_schema.attrs},
        authority=node.principal,
        version=version,
        content_digest=node.shares[shared_id].copy.digest(),
    )


class TestLocalEdit:
    def test_edit_changes_table_not_copy(self):
        node = researcher()
        before_copy = node.shares["D23"].copy
        node.local_edit("D2", Edit("update", key={"a1": "MedX"}, changes={"a5": "MeA2"}))
        assert node.tables["D2"].get_row({"a1": "MedX"})["a5"] == "MeA2"
        assert node.shares["D23"].copy == before_copy

    def test_noop_edit(self):
        node = researcher()
        before = node.tables["D2"]
        node.local_edit("D2", Edit("update", key={"a1": "MedX"}, changes={}))
        assert node.tables["D2"] == before

    def test_unknown_table(self):
        node = researcher()
        with pytest.raises(UnknownTable):
            node.local_edit("D9", Edit("delete", key={"a1": "MedX"}))


class TestRegenerateAndPropose:
    def test_proposes_after_drift(self):
        node = researcher()
        node.local_edit("D2", Edit("update", key={"a1": "MedX"}, changes={"a5": "MeA2"}))
        tx = node.regenerate_and_propose("D23")
        assert tx is not None
        assert tx.changed_attrs == {"a5"}
        assert tx.base_version == 0
        assert tx.requester == "Researcher"
        # staged, not yet visible
        assert node.shares["D23"].copy.get_row({"a1": "MedX"})["a5"] == "MeA1"
        assert node.shares["D23"].staged

    def test_untouched_source_proposes_nothing(self):
        assert researcher().regenerate_and_propose("D23") is None

    def test_only_one_proposal_in_flight(self):
        node = researcher()
        node.local_edit("D2", Edit("update", key={"a1": "MedX"}, changes={"a5": "MeA2"}))
        assert node.regenerate_and_propose("D23") is not None
        node.local_edit("D2", Edit("update", key={"a1": "MedY"}, changes={"a5": "MeA8"}))
        assert node.regenerate_and_propose("D23") is None

    def test_insert_and_delete_touch_every_attribute(self):
        node = researcher()
        node.local_edit("D2", Edit("delete", key={"a1": "MedX"}))
        tx = node.regenerate_and_propose("D23")
        assert tx.changed_attrs == {"a1", "a5"}

    def test_unknown_share(self):
        with pytest.raises(UnknownShare):
            researcher().regenerate_and_propose("D99")


class TestOnReceipt:
    def stage(self, node: PeerNode) -> UpdateTx:
        node.local_edit("D2", Edit("update", key={"a1": "MedX"}, changes={"a5": "MeA2"}))
        return node.regenerate_and_propose("D23")

    def test_accept_promotes_staged_view(self):
        node = researcher()
        tx = self.stage(node)
        assert node.on_receipt(Receipt(tx, Verdict.accept(), "Researcher")) is None
        assert node.shares["D23"].copy.get_row({"a1": "MedX"})["a5"] == "MeA2"
        assert node.shares["D23"].version == 1
        assert not node.shares["D23"].staged

    def test_accept_reproposes_when_source_moved_again(self):
        node = researcher()
        tx = self.stage(node)
        node.local_edit("D2", Edit("update", key={"a1": "MedY"}, changes={"a5": "MeA8"}))
        follow_up = node.on_receipt(Receipt(tx, Verdict.accept(), "Researcher"))
        assert isinstance(follow_up, UpdateTx)
        assert follow_up.base_version == 1
        assert follow_up.changed_attrs == {"a5"}

    def test_stale_rejection_triggers_refetch(self):
        node = researcher()
        tx = self.stage(node)
        req = node.on_receipt(Receipt(tx, Verdict.reject(RejectReason.STALE_VERSION), "Researcher"))
        assert not node.shares["D23"].staged
        assert node.shares["D23"].copy.get_row({"a1": "MedX"})["a5"] == "MeA1"
        assert isinstance(req, DataRequest)
        assert (req.to, req.requested_version) == ("Doctor", 1)

    def test_blocked_rejection_triggers_refetch(self):
        node = researcher()
        tx = self.stage(node)
        req = node.on_receipt(Receipt(tx, Verdict.reject(RejectReason.BLOCKED_BY_SERIALIZATION), "Researcher"))
        assert isinstance(req, DataRequest)

    def test_stale_rejection_skips_refetch_when_already_merged(self):
        # the winning version arrived through the notification path before the
        # receipt did; chasing base_version+2 would request data nobody has
        node = researcher()
        tx = self.stage(node)
        node.shares["D23"].version = 1  # merge completed while the receipt was in flight
        assert node.on_receipt(Receipt(tx, Verdict.reject(RejectReason.STALE_VERSION), "Researcher")) is None
        assert not node.shares["D23"].staged

    def test_permission_rejection_only_drops_staging(self):
        node = researcher()
        tx = self.stage(node)
        assert node.on_receipt(Receipt(tx, Verdict.reject(RejectReason.PERMISSION_DENIED), "Researcher")) is None
        assert not node.shares["D23"].staged
        assert node.shares["D23"].version == 0

    def test_permission_change_receipt_returns_nothing(self):
        node = researcher()
        tx = self.stage(node)
        change = PermChangeTx("D23", "Researcher", "a5", frozenset({"Researcher"}))
        assert node.on_receipt(Receipt(change, Verdict.accept(), "Researcher")) is None
        assert node.shares["D23"].staged  # the update's proposal stays staged
        assert node.shares["D23"].cache.view.digest() == tx.new_digest
        assert (node.shares["D23"].version, node.shares["D23"].unanswered) == (0, 0)


class TestNotificationAndRequests:
    def test_notification_requests_data_from_source_peer(self):
        node = doctor()
        req = node.on_notification(Notification("D23", 1, frozenset({"a5"}), "Researcher", "Doctor"))
        assert isinstance(req, DataRequest)
        assert node.shares["D23"].unanswered == 1
        assert (req.shared_id, req.requested_version, req.to) == ("D23", 1, "Researcher")

    def test_notification_for_unbound_share(self):
        node = researcher()
        with pytest.raises(UnknownShare):
            node.on_notification(Notification("D13", 1, frozenset(), "Doctor", "Researcher"))

    def test_serves_current_copy(self):
        node = researcher()
        resp = node.on_data_request(DataRequest("D23", 0, "Doctor", "Researcher"))
        assert isinstance(resp, DataResponse)
        assert (resp.shared_id, resp.sender, resp.to) == ("D23", "Researcher", "Doctor")
        assert resp.version == 0
        assert resp.table == node.shares["D23"].copy

    def test_not_ready_when_behind(self):
        node = researcher()
        # RETRY is the whole answer: the request waits, and nothing is sent.
        assert node.on_data_request(DataRequest("D23", 2, "Doctor", "Researcher")) == RETRY

    def test_third_party_refused(self):
        node = researcher()
        assert node.on_data_request(DataRequest("D23", 0, "Patient", "Researcher")) is None
        assert node.shares["D23"].unanswered == 0


class TestOnDataResponse:
    def test_merge_updates_copy_and_source(self):
        node = doctor()
        incoming = node.shares["D23"].copy.update_row({"a1": "MedX"}, {"a5": "MeA2"})
        meta = SharedTableMetadata(
            shared_id="D23",
            view_schema=node.lenses["L32"].view_schema,
            peers=frozenset({"Doctor", "Researcher"}),
            perm={"a1": frozenset({"Doctor"}), "a5": frozenset({"Doctor"})},
            authority="Doctor",
            version=1,
            content_digest=incoming.digest(),
        )
        outcome = node.on_data_response(
            DataResponse("D23", 1, incoming, "Researcher", "Doctor"), meta
        )
        assert outcome.applied
        assert outcome.cascade_txs == ()  # shared attrs with D13 did not change
        assert node.shares["D23"].version == 1
        assert node.tables["D3"].get_row({"a0": "P1", "a1": "MedX"})["a5"] == "MeA2"
        assert node.tables["D3"].get_row({"a0": "P2", "a1": "MedX"})["a5"] == "MeA2"

    def test_merge_cascades_through_overlapping_view(self):
        node = doctor()
        incoming = node.shares["D23"].copy.delete_row({"a1": "MedX"})
        meta = SharedTableMetadata(
            shared_id="D23",
            view_schema=node.lenses["L32"].view_schema,
            peers=frozenset({"Doctor", "Researcher"}),
            perm={"a1": frozenset({"Doctor"}), "a5": frozenset({"Doctor"})},
            authority="Doctor",
            version=1,
            content_digest=incoming.digest(),
        )
        outcome = node.on_data_response(
            DataResponse("D23", 1, incoming, "Researcher", "Doctor"), meta
        )
        assert outcome.applied
        (cascade,) = outcome.cascade_txs
        assert cascade.shared_id == "D13"
        assert cascade.changed_attrs == {"a0", "a1", "a2", "a4"}
        assert len(node.tables["D3"].rows) == 1

    def test_digest_mismatch_discards_without_refetch(self):
        node = doctor()
        incoming = node.shares["D23"].copy.update_row({"a1": "MedX"}, {"a5": "MeA2"})
        meta = meta_for(node, "D23", version=1)  # digest of the *old* copy
        before = node.tables["D3"]
        outcome = node.on_data_response(
            DataResponse("D23", 1, incoming, "Researcher", "Doctor"), meta
        )
        assert not outcome.applied
        assert node.tables["D3"] == before
        # Other bytes at the registered version are a lie; asking the liar again would loop.
        assert outcome.refetch is None

    def two_requests_out(self) -> tuple[PeerNode, DataResponse, SharedTableMetadata]:
        """A Doctor notified of D23 versions 1 and 2, and version 1's answer, now stale."""
        node = doctor()
        for version in (1, 2):
            node.on_notification(Notification("D23", version, frozenset({"a5"}), "Researcher", "Doctor"))
        incoming = node.shares["D23"].copy.update_row({"a1": "MedX"}, {"a5": "MeA2"})
        newest = incoming.update_row({"a1": "MedX"}, {"a5": "MeA3"})
        meta = replace(meta_for(node, "D23", version=2), content_digest=newest.digest())
        return node, DataResponse("D23", 1, incoming, "Researcher", "Doctor"), meta

    def test_stale_response_with_another_request_out_sends_nothing(self):
        node, resp, meta = self.two_requests_out()
        outcome = node.on_data_response(resp, meta)
        assert not outcome.applied
        assert outcome.refetch is None  # the request for version 2 is still out

    @pytest.mark.parametrize("mismatch", ["stale version", "digest"])
    def test_last_unanswered_response_refetches_only_if_stale(self, mismatch):
        node, resp, meta = self.two_requests_out()
        before = node.tables["D3"]
        node.on_data_response(resp, meta)
        if mismatch == "digest":
            resp = DataResponse("D23", 2, resp.table, "Researcher", "Doctor")
        outcome = node.on_data_response(resp, meta)
        assert not outcome.applied
        assert node.tables["D3"] == before
        if mismatch == "digest":
            assert outcome.refetch is None  # the registered version with other bytes: a lie, not refetched
            return
        req = outcome.refetch
        assert isinstance(req, DataRequest)
        assert (req.shared_id, req.requested_version, req.to) == ("D23", meta.version, "Researcher")

    def test_last_stale_response_returns_its_refetch_counted(self):
        node = doctor()
        node.on_notification(Notification("D23", 1, frozenset({"a5"}), "Researcher", "Doctor"))
        old = node.shares["D23"].copy
        newer = old.update_row({"a1": "MedX"}, {"a5": "MeA2"})
        meta = replace(meta_for(node, "D23", version=1), content_digest=newer.digest())
        outcome = node.on_data_response(DataResponse("D23", 0, old, "Researcher", "Doctor"), meta)
        assert (outcome.applied, outcome.cascade_txs) == (False, ())
        assert outcome.refetch == DataRequest("D23", 1, "Doctor", "Researcher")
        assert node.shares["D23"].unanswered == 1  # the answered request out, the refetch in

    @staticmethod
    def dosage_doctor(*shares: str) -> PeerNode:
        """A Doctor holding D3 and, of the shares S1 (with the Patient) and S2
        (with the Researcher), those named: key-aligned views both carrying a4."""
        specs = {"L31": L31_SPEC, "L34": LensSpec("L34", "D3", ("a0", "a1", "a4"), ("a0", "a1"))}
        bindings = {"S1": ShareBinding("S1", "L31", "Patient"), "S2": ShareBinding("S2", "L34", "Researcher")}
        node = PeerNode(
            "Doctor",
            tables={"D3": Table("D3", D3_SCHEMA, (ROW1, ROW2, ROW3))},
            lenses={lens_id: compile_lens(spec, D3_SCHEMA) for lens_id, spec in specs.items()},
            bindings={sid: bindings[sid] for sid in shares},
        )
        for sid in shares:
            node.install_share(sid)
        return node

    def resend_held(self, node: PeerNode, shared_id: str) -> None:
        """Deliver the copy the node holds of a share, at the version it holds, and acknowledge it."""
        share = node.shares[shared_id]
        held, version = share.copy, share.version
        resp = DataResponse(shared_id, version, held, share.binding.counterpart, "Doctor")
        outcome = node.on_data_response(resp, meta_for(node, shared_id, version))
        assert outcome.applied and outcome.cascade_txs == ()  # acknowledged: the trace keeps its put_applied
        assert (share.copy, share.version) == (held, version)

    def test_resent_held_version_keeps_a_staged_cascade(self):
        node = self.dosage_doctor("S1", "S2")
        incoming = node.shares["S2"].copy.update_row({"a0": "P1", "a1": "MedX"}, {"a4": "7mg"})
        meta = replace(meta_for(node, "S2", version=1), content_digest=incoming.digest())
        (cascade,) = node.on_data_response(DataResponse("S2", 1, incoming, "Researcher", "Doctor"), meta).cascade_txs
        assert (cascade.shared_id, cascade.changed_attrs) == ("S1", {"a4"}) and node.shares["S1"].staged
        self.resend_held(node, "S1")
        assert node.tables["D3"].get_row({"a0": "P1", "a1": "MedX"})["a4"] == "7mg"
        assert node.shares["S1"].cache.view.digest() == cascade.new_digest  # the staged proposal is intact

    def test_resent_held_version_keeps_a_pending_local_edit(self):
        node = self.dosage_doctor("S1")
        node.local_edit("D3", Edit("update", key={"a0": "P2", "a1": "MedX"}, changes={"a4": "12mg"}))
        self.resend_held(node, "S1")
        assert node.tables["D3"].get_row({"a0": "P2", "a1": "MedX"})["a4"] == "12mg"
        tx = node.regenerate_and_propose("S1")
        assert tx is not None and tx.changed_attrs == {"a4"}

    def test_newer_version_overwrites_a_pending_local_edit(self):
        # The conflict rule: an accepted version the peer does not hold yet wins over its unproposed edits.
        node = self.dosage_doctor("S1")
        node.local_edit("D3", Edit("update", key={"a0": "P2", "a1": "MedX"}, changes={"a4": "12mg"}))
        incoming = node.shares["S1"].copy.update_row({"a0": "P1", "a1": "MedY"}, {"a4": "3mg"})
        meta = replace(meta_for(node, "S1", version=1), content_digest=incoming.digest())
        assert node.on_data_response(DataResponse("S1", 1, incoming, "Patient", "Doctor"), meta).applied
        assert node.tables["D3"].get_row({"a0": "P2", "a1": "MedX"})["a4"] == "10mg"
        assert node.tables["D3"].get_row({"a0": "P1", "a1": "MedY"})["a4"] == "3mg"
        assert node.regenerate_and_propose("S1") is None


class TestSharedCopy:
    def test_read_returns_copy(self):
        node = researcher()
        view = node.shares["D23"].copy
        assert {(r["a1"], r["a5"]) for r in view.rows} == {("MedX", "MeA1"), ("MedY", "MeA9")}

    def test_unknown_share(self):
        with pytest.raises(UnknownShare):
            researcher().regenerate_view("D99")


class TestChangedViewAttrs:
    def test_cell_difference(self):
        old = researcher().shares["D23"].copy
        new = old.update_row({"a1": "MedX"}, {"a5": "MeA2"})
        assert changed_view_attrs(old, new) == {"a5"}

    def test_insert_and_delete_count_all_attrs(self):
        old = researcher().shares["D23"].copy
        assert changed_view_attrs(old, old.delete_row({"a1": "MedX"})) == {"a1", "a5"}
        assert changed_view_attrs(old, old.insert_row({"a1": "MedZ", "a5": "MeA5"})) == {"a1", "a5"}

    def test_identical_views(self):
        old = researcher().shares["D23"].copy
        assert changed_view_attrs(old, old) == frozenset()
