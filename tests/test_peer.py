"""Peer behavior: local edits, staging proposals, receipts, fetch-and-merge, cascades."""

from __future__ import annotations

import pytest

from conftest import D3_SCHEMA, L31_SPEC, L32_SPEC, ROW1, ROW2, ROW3
from medsync.contract import (
    Notification,
    RejectReason,
    SharedTableMetadata,
    UpdateTx,
    Verdict,
)
from medsync.ledger import Receipt
from medsync.lenses import LensSpec, compile_lens
from medsync.peer import (
    REFUSED,
    RETRY,
    SERVED,
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
    lens = node.lenses[node.bindings[shared_id].lens_id]
    return SharedTableMetadata(
        shared_id=shared_id,
        view_schema=lens.view_schema,
        peers=frozenset({node.principal, node.bindings[shared_id].counterpart}),
        perm={a: frozenset({node.principal}) for a in lens.view_schema.attrs},
        authority=node.principal,
        version=version,
        content_digest=node.shared_copies[shared_id].digest(),
    )


class TestLocalEdit:
    def test_edit_changes_table_not_copy(self):
        node = researcher()
        before_copy = node.read_shared("D23")
        node.local_edit("D2", Edit("update", key={"a1": "MedX"}, changes={"a5": "MeA2"}))
        assert node.tables["D2"].get_row({"a1": "MedX"})["a5"] == "MeA2"
        assert node.read_shared("D23") == before_copy

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
        assert node.read_shared("D23").get_row({"a1": "MedX"})["a5"] == "MeA1"
        assert "D23" in node.pending

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
        follow_ups = node.on_receipt(Receipt(tx, Verdict.accept(), "Researcher"))
        assert follow_ups == []
        assert node.read_shared("D23").get_row({"a1": "MedX"})["a5"] == "MeA2"
        assert node.known_versions["D23"] == 1
        assert not node.pending

    def test_accept_reproposes_when_source_moved_again(self):
        node = researcher()
        tx = self.stage(node)
        node.local_edit("D2", Edit("update", key={"a1": "MedY"}, changes={"a5": "MeA8"}))
        follow_ups = node.on_receipt(Receipt(tx, Verdict.accept(), "Researcher"))
        assert len(follow_ups) == 1
        assert follow_ups[0].base_version == 1
        assert follow_ups[0].changed_attrs == {"a5"}

    def test_stale_rejection_triggers_refetch(self):
        node = researcher()
        tx = self.stage(node)
        node.on_receipt(Receipt(tx, Verdict.reject(RejectReason.STALE_VERSION), "Researcher"))
        assert not node.pending
        assert node.read_shared("D23").get_row({"a1": "MedX"})["a5"] == "MeA1"
        (req,) = node.outbox
        assert isinstance(req, DataRequest)
        assert (req.to, req.requested_version) == ("Doctor", 1)

    def test_blocked_rejection_triggers_refetch(self):
        node = researcher()
        tx = self.stage(node)
        node.on_receipt(
            Receipt(tx, Verdict.reject(RejectReason.BLOCKED_BY_SERIALIZATION), "Researcher")
        )
        assert [m for m in node.outbox if isinstance(m, DataRequest)]

    def test_stale_rejection_skips_refetch_when_already_merged(self):
        # the winning version arrived through the notification path before the
        # receipt did; chasing base_version+2 would request data nobody has
        node = researcher()
        tx = self.stage(node)
        node.known_versions["D23"] = 1  # merge completed while the receipt was in flight
        node.on_receipt(Receipt(tx, Verdict.reject(RejectReason.STALE_VERSION), "Researcher"))
        assert node.outbox == []
        assert not node.pending

    def test_permission_rejection_only_drops_staging(self):
        node = researcher()
        tx = self.stage(node)
        node.on_receipt(Receipt(tx, Verdict.reject(RejectReason.PERMISSION_DENIED), "Researcher"))
        assert not node.pending
        assert node.outbox == []
        assert node.known_versions["D23"] == 0


class TestNotificationAndRequests:
    def test_notification_requests_data_from_source_peer(self):
        node = doctor()
        node.on_notification(
            Notification("D23", 1, frozenset({"a5"}), "Researcher", "Doctor")
        )
        (req,) = node.outbox
        assert (req.shared_id, req.requested_version, req.to) == ("D23", 1, "Researcher")

    def test_notification_for_unbound_share(self):
        node = researcher()
        with pytest.raises(UnknownShare):
            node.on_notification(Notification("D13", 1, frozenset(), "Doctor", "Researcher"))

    def test_serves_current_copy(self):
        node = researcher()
        status = node.on_data_request(DataRequest("D23", 0, "Doctor", "Researcher"))
        assert status == SERVED
        (resp,) = node.outbox
        assert isinstance(resp, DataResponse)
        assert resp.version == 0
        assert resp.table == node.read_shared("D23")

    def test_not_ready_when_behind(self):
        node = researcher()
        assert node.on_data_request(DataRequest("D23", 2, "Doctor", "Researcher")) == RETRY
        assert node.outbox == []

    def test_third_party_refused(self):
        node = researcher()
        assert node.on_data_request(DataRequest("D23", 0, "Patient", "Researcher")) == REFUSED
        assert node.outbox == []


class TestOnDataResponse:
    def test_merge_updates_copy_and_source(self):
        node = doctor()
        incoming = node.read_shared("D23").update_row({"a1": "MedX"}, {"a5": "MeA2"})
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
        assert node.known_versions["D23"] == 1
        assert node.tables["D3"].get_row({"a0": "P1", "a1": "MedX"})["a5"] == "MeA2"
        assert node.tables["D3"].get_row({"a0": "P2", "a1": "MedX"})["a5"] == "MeA2"

    def test_merge_cascades_through_overlapping_view(self):
        node = doctor()
        incoming = node.read_shared("D23").delete_row({"a1": "MedX"})
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

    def test_digest_mismatch_discards_and_rerequests(self):
        node = doctor()
        incoming = node.read_shared("D23").update_row({"a1": "MedX"}, {"a5": "MeA2"})
        meta = meta_for(node, "D23", version=1)  # digest of the *old* copy
        before = node.tables["D3"]
        outcome = node.on_data_response(
            DataResponse("D23", 1, incoming, "Researcher", "Doctor"), meta
        )
        assert not outcome.applied
        assert node.tables["D3"] == before
        (req,) = node.outbox
        assert isinstance(req, DataRequest)
        assert req.requested_version == 1


class TestReadShared:
    def test_read_returns_copy(self):
        node = researcher()
        view = node.read_shared("D23")
        assert {(r["a1"], r["a5"]) for r in view.rows} == {("MedX", "MeA1"), ("MedY", "MeA9")}

    def test_unknown_share(self):
        with pytest.raises(UnknownShare):
            researcher().read_shared("D99")


class TestChangedViewAttrs:
    def test_cell_difference(self):
        old = researcher().read_shared("D23")
        new = old.update_row({"a1": "MedX"}, {"a5": "MeA2"})
        assert changed_view_attrs(old, new) == {"a5"}

    def test_insert_and_delete_count_all_attrs(self):
        old = researcher().read_shared("D23")
        assert changed_view_attrs(old, old.delete_row({"a1": "MedX"})) == {"a1", "a5"}
        assert changed_view_attrs(old, old.insert_row({"a1": "MedZ", "a5": "MeA5"})) == {"a1", "a5"}

    def test_identical_views(self):
        old = researcher().read_shared("D23")
        assert changed_view_attrs(old, old) == frozenset()
