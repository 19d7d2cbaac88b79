"""One participant's state machine.

A peer owns its full local tables, a lens per share it participates in, and a
copy of each shared table. Local edits stay local until the peer regenerates
the affected view and proposes the change to the ledger; copies move only on
an accepted receipt or on data fetched from the counterpart and verified
against the contract digest. After merging a counterpart's update into a
source table, the peer re-derives its other views over that source and
proposes any that changed (the cascade).

Each share keeps a lens cache: the source its view was last derived from, that
view, and the lens's support index. Regenerating a view and merging fetched
data advance the cache, so they cost what the edit touched, not the table
size. The cache is working state only: it is not dumped, and verification
derives every view from its whole source. A proposal's changed attributes come
from the same diff of two table versions, `Table.changes_since`.

Each share also counts the data requests it has out, so that a stale response
refetches only when it was the last one unanswered (`on_data_response`). Like
the caches, the count is working state: not dumped, and zero in a reloaded,
quiescent peer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .contract import Notification, Principal, RejectReason, SharedTableMetadata, UpdateTx
from .ledger import Receipt
from .lenses import Lens, LensCache, LensSpec, compile_lens, get as lens_get, put as lens_put
from .relational import Table, Value


class PeerError(Exception):
    """Base class for peer protocol errors (scenario bugs, not recoverable)."""


class UnknownShare(PeerError):
    """A message or call referenced a share this peer is not bound to."""


class UnknownTable(PeerError):
    """A local edit referenced a table this peer does not hold."""


# on_data_request outcomes
SERVED = "served"
RETRY = "retry"
REFUSED = "refused"


@dataclass(frozen=True)
class ShareBinding:
    """This peer's participation in one share: which lens feeds it and who the counterpart is."""

    shared_id: str
    lens_id: str
    counterpart: Principal

    def to_json_dict(self) -> dict:
        return {"shared_id": self.shared_id, "lens_id": self.lens_id, "counterpart": self.counterpart}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "ShareBinding":
        return cls(d["shared_id"], d["lens_id"], d["counterpart"])


@dataclass(frozen=True)
class DataRequest:
    shared_id: str
    requested_version: int
    sender: Principal
    to: Principal


@dataclass(frozen=True)
class DataResponse:
    shared_id: str
    version: int
    table: Table
    sender: Principal
    to: Principal


Message = Union[Notification, Receipt, DataRequest, DataResponse]


@dataclass(frozen=True)
class Edit:
    """One local CRUD operation against a peer's own table."""

    op: str  # "insert" | "update" | "delete"
    row: Optional[Mapping[str, Value]] = None
    key: Optional[Mapping[str, Value]] = None
    changes: Optional[Mapping[str, Value]] = None


@dataclass(frozen=True)
class PendingProposal:
    view: Table
    base_version: int
    source: Table  # the source table `view` was derived from


@dataclass(frozen=True)
class MergeOutcome:
    """What happened when a data response was merged."""

    applied: bool
    cascade_txs: tuple[UpdateTx, ...] = ()


def changed_view_attrs(old: Table, new: Table) -> frozenset[str]:
    """Attributes that differ between two versions of a view, aligned on the key.

    Rows on one side only change every attribute; the rows changed in place are
    those `Table.changes_since` pairs up. It is empty iff the views are equal.
    """
    attrs = new.schema.attrs
    gone_keys, gone_rows, came_keys, came_rows = new.changes_since(old)
    if gone_keys != came_keys:
        return frozenset(attrs)
    return frozenset(a for orow, nrow in zip(gone_rows, came_rows) for a in attrs if orow[a] != nrow[a])


class PeerNode:
    """Deterministic event-driven node; the driver feeds it one message at a time."""

    def __init__(
        self,
        principal: Principal,
        tables: Mapping[str, Table],
        lenses: Mapping[str, Lens],
        bindings: Mapping[str, ShareBinding],
    ) -> None:
        self.principal = principal
        self.tables: dict[str, Table] = dict(tables)
        self.lenses: dict[str, Lens] = dict(lenses)
        self.bindings: dict[str, ShareBinding] = dict(bindings)
        # The shares derived from each source table, in share-id order: the cascade's order.
        self._shares_of: dict[str, list[str]] = {}
        for shared_id in sorted(self.bindings):
            self._shares_of.setdefault(self.source_of(shared_id), []).append(shared_id)
        self.shared_copies: dict[str, Table] = {}
        self._caches: dict[str, LensCache] = {}  # per share: what its lens last derived
        self._unanswered: Counter[str] = Counter()  # per share: data requests sent and not yet answered
        self.known_versions: dict[str, int] = {}
        self.pending: dict[str, PendingProposal] = {}
        self.outbox: list[Message] = []

    def to_json_dict(self) -> dict:
        """The peer's dump entry; table contents are written separately, one file each."""
        return {
            "tables": sorted(self.tables),
            "lenses": [self.lenses[k].spec.to_json_dict() for k in sorted(self.lenses)],
            "bindings": [b.to_json_dict() for _, b in sorted(self.bindings.items())],
            "versions": dict(sorted(self.known_versions.items())),
        }

    @classmethod
    def from_json_dict(
        cls,
        principal: Principal,
        d: Mapping,
        tables: Mapping[str, Table],
        shared_copies: Mapping[str, Table],
    ) -> "PeerNode":
        """Rebuild a quiescent peer from its dump entry and the tables read back for it."""
        lenses = {}
        for spec_doc in d["lenses"]:
            spec = LensSpec.from_json_dict(spec_doc)
            lenses[spec.lens_id] = compile_lens(spec, tables[spec.source_table_id].schema)
        bindings = [ShareBinding.from_json_dict(b) for b in d["bindings"]]
        peer = cls(principal, tables, lenses, {b.shared_id: b for b in bindings})
        peer.shared_copies = dict(shared_copies)
        peer.known_versions = dict(d["versions"])
        return peer

    # -- wiring ---------------------------------------------------------------

    def _binding(self, shared_id: str) -> ShareBinding:
        binding = self.bindings.get(shared_id)
        if binding is None:
            raise UnknownShare(f"{self.principal!r} is not bound to share {shared_id!r}")
        return binding

    def source_of(self, shared_id: str) -> str:
        """The id of the local table the share's view is derived from."""
        return self.lenses[self._binding(shared_id).lens_id].spec.source_table_id

    def _fetch(self, shared_id: str, version: int) -> None:
        """Ask the share's counterpart for `version` of the share (or a later one)."""
        counterpart = self._binding(shared_id).counterpart
        self.outbox.append(DataRequest(shared_id, version, self.principal, counterpart))
        self._unanswered[shared_id] += 1

    def _lens_cache(self, shared_id: str) -> tuple[Lens, LensCache]:
        lens = self.lenses[self._binding(shared_id).lens_id]
        cache = self._caches.get(shared_id)
        if cache is None:
            cache = self._caches[shared_id] = LensCache(lens, shared_id)
        return lens, cache

    def regenerate_view(self, shared_id: str) -> Table:
        """Derive the current view for a share from the local source table.

        Only the view rows the source edits since the last derivation touched
        are derived again; the first call derives them all.
        """
        lens, cache = self._lens_cache(shared_id)
        return lens_get(lens, self.tables[lens.spec.source_table_id], cache)

    def derive_view(self, shared_id: str) -> Table:
        """The share's view derived from the whole source table: a new cache, not the share's."""
        lens = self.lenses[self._binding(shared_id).lens_id]
        return lens_get(lens, self.tables[lens.spec.source_table_id], LensCache(lens, shared_id))

    def install_share(self, shared_id: str) -> Table:
        """Initialize the local copy of a share from the current source; version 0."""
        view = self.regenerate_view(shared_id)
        self.shared_copies[shared_id] = view
        self.known_versions[shared_id] = 0
        return view

    # -- local operations -----------------------------------------------------

    def local_edit(self, table_id: str, edit: Edit) -> None:
        """Apply one CRUD operation to a local table; nothing is propagated yet."""
        table = self.tables.get(table_id)
        if table is None:
            raise UnknownTable(f"{self.principal!r} has no table {table_id!r}")
        if edit.op == "insert":
            new = table.insert_row(edit.row or {})
        elif edit.op == "update":
            new = table.update_row(edit.key or {}, edit.changes or {})
        elif edit.op == "delete":
            new = table.delete_row(edit.key or {})
        else:
            raise ValueError(f"unknown edit op {edit.op!r}")
        self.tables[table_id] = new

    def read_shared(self, shared_id: str) -> Table:
        """Local query of a shared copy; no messages, no ledger interaction."""
        self._binding(shared_id)
        return self.shared_copies[shared_id]

    def regenerate_and_propose(self, shared_id: str) -> Optional[UpdateTx]:
        """Regenerate the view and, if it drifted from the shared copy, stage a proposal.

        The copy itself is replaced only once the ledger accepts the proposal.
        Returns None when nothing changed or a proposal is already in flight.
        """
        source = self.tables[self.source_of(shared_id)]
        if shared_id in self.pending:
            return None
        new_view = self.regenerate_view(shared_id)
        changed = changed_view_attrs(self.shared_copies[shared_id], new_view)
        if not changed:  # the view equals the copy
            return None
        base_version = self.known_versions[shared_id]
        tx = UpdateTx(
            shared_id=shared_id,
            requester=self.principal,
            changed_attrs=changed,
            base_version=base_version,
            new_digest=new_view.digest(),
        )
        self.pending[shared_id] = PendingProposal(new_view, base_version, source)
        return tx

    # -- message handlers -----------------------------------------------------

    def on_receipt(self, receipt: Receipt) -> list[UpdateTx]:
        """Close the propose loop; may return catch-up proposals to submit.

        Stale or serialization rejections trigger a refetch from the
        counterpart; all other rejections just drop the staged view.
        """
        tx = receipt.tx
        if not isinstance(tx, UpdateTx):
            return []
        shared_id = tx.shared_id
        staged = self.pending.pop(shared_id, None)
        if receipt.verdict.ok:
            if staged is not None:
                self.shared_copies[shared_id] = staged.view
                self.known_versions[shared_id] = staged.base_version + 1
                if self.tables[self.source_of(shared_id)] is staged.source:
                    return []  # the copy is the view of the current source
            # The source may have moved again while the proposal was in flight.
            follow_up = self.regenerate_and_propose(shared_id)
            return [follow_up] if follow_up else []
        if receipt.verdict.reason in (
            RejectReason.STALE_VERSION,
            RejectReason.BLOCKED_BY_SERIALIZATION,
        ):
            # Refetch only if the winning version has not already been merged
            # through the notification path while this receipt was in flight.
            if self.known_versions[shared_id] <= tx.base_version:
                self._fetch(shared_id, tx.base_version + 1)
        return []

    def on_notification(self, note: Notification) -> None:
        """A counterpart updated the share: ask them for the new data.

        The contract notifies the peer that did not request the update, so the
        notification's source is always this peer's counterpart on the share.
        """
        self._fetch(note.shared_id, note.new_version)

    def on_data_request(self, req: DataRequest) -> str:
        """Serve the current copy, or signal a retry if we don't hold it yet.

        Requests from anyone but the share's counterpart are refused: shared
        data never travels to a third party.
        """
        binding = self._binding(req.shared_id)
        if req.sender != binding.counterpart:
            return REFUSED
        if self.known_versions[req.shared_id] < req.requested_version:
            return RETRY
        self.outbox.append(
            DataResponse(
                shared_id=req.shared_id,
                version=self.known_versions[req.shared_id],
                table=self.shared_copies[req.shared_id],
                sender=self.principal,
                to=req.sender,
            )
        )
        return SERVED

    def on_data_response(self, resp: DataResponse, meta: SharedTableMetadata) -> MergeOutcome:
        """Verify fetched data against the contract entry and merge it into the source.

        On a digest or version mismatch the response is discarded. A fresh
        request for the registered version is sent only if no other request
        for the share is still unanswered; otherwise that request's answer is
        awaited, and the last stale answer refetches, so a run cannot stall.
        After a merge, every other share derived from the same source is
        regenerated; views that changed become cascade proposals.
        """
        # The count stays at zero for a response to no counted request.
        unanswered = self._unanswered[resp.shared_id] = max(self._unanswered[resp.shared_id] - 1, 0)
        lens, cache = self._lens_cache(resp.shared_id)
        if resp.table.digest() != meta.content_digest or resp.version != meta.version:
            if not unanswered:
                self._fetch(resp.shared_id, meta.version)
            return MergeOutcome(applied=False)

        # The digest covers the id, so the check above proved it is the share's.
        self.shared_copies[resp.shared_id] = resp.table
        self.known_versions[resp.shared_id] = resp.version

        source_id = lens.spec.source_table_id
        self.tables[source_id] = lens_put(lens, self.tables[source_id], resp.table, cache)

        others = [sid for sid in self._shares_of[source_id] if sid != resp.shared_id]
        proposed = (self.regenerate_and_propose(sid) for sid in others)
        return MergeOutcome(applied=True, cascade_txs=tuple(tx for tx in proposed if tx is not None))
