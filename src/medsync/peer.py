"""One participant's state machine.

A peer owns its full local tables, its lenses, and one record per share it is
bound to (`ShareState`, built with the peer). Local edits stay local until the
peer regenerates the affected view and proposes the change to the ledger;
copies move only on an accepted receipt or on data fetched from the
counterpart and verified against the contract digest. After merging a
counterpart's update into a source table, the peer re-derives its other views
over that source and proposes any that changed (the cascade).

A peer sends only by returning: each message handler returns the proposal or
data message the message makes it send, and the driver routes it. Only a
delivered message makes a peer fetch or serve; it keeps nothing to send later.

A share's lens cache holds the source its view was last derived from, a view
equal to what the lens derived from it, and the lens's support index.
`install_share` derives the first view from the whole source and seeds the
cache with it; from then on the cache handles only deltas, so regenerating a
view and merging fetched data cost what the edit touched, not the table size.
A staged proposal is the cache's view: nothing rewrites the cache before the
receipt, as a newer version merged meanwhile fails the proposal and a re-sent
held version is acknowledged unmerged (a merge could only revert later edits).
The view need not be the object the lens built: the two peers of a share
start from one initial view (`install_share`'s `agreed`), and a merge adopts
the fetched view, so both peers' views share their chunks. A share's
unanswered count lets a stale response refetch only when it was the last one
out. Both are working state: not dumped, and fresh in a reloaded
peer; verification derives every view from its whole source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Union

from .contract import Notification, Principal, RejectReason, SharedTableMetadata, UpdateTx
from .ledger import Receipt
from .lenses import Lens, LensCache, LensSpec, compile_lens, get as lens_get, put as lens_put
from .relational import _CELL_TYPES, SchemaMismatch, Table, Value, _only_keys


class PeerError(Exception):
    """Base class for peer protocol errors (scenario bugs, not recoverable)."""


class UnknownShare(PeerError):
    """A message or call referenced a share this peer is not bound to."""


class UnknownTable(PeerError):
    """A local edit referenced a table this peer does not hold."""


RETRY = "retry"  # on_data_request's answer to a request for a version not held yet


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


# The fields each edit op sets: the one definition of an edit's JSON form, with its `table` and `op`.
EDIT_FIELDS = {"insert": ("row",), "update": ("key", "changes"), "delete": ("key",)}
EDIT_KEYS = {op: frozenset({"table", "op", *fields}) for op, fields in EDIT_FIELDS.items()}


class Edit(NamedTuple):
    """One local CRUD operation on a peer's own table, setting the fields of its op; a tuple, cheap to build."""

    op: str  # "insert" | "update" | "delete"
    row: Optional[Mapping[str, Value]] = None
    key: Optional[Mapping[str, Value]] = None
    changes: Optional[Mapping[str, Value]] = None

    def to_json_dict(self, table_id: str) -> dict:
        """The edit of table `table_id` as the trace records it."""
        return {"table": table_id, "op": self.op, **{name: dict(getattr(self, name)) for name in EDIT_FIELDS[self.op]}}

    @classmethod
    def from_json_dict(cls, d: Mapping, keys: Mapping[str, frozenset[str]] = EDIT_KEYS) -> tuple[str, "Edit"]:
        """The table id and edit of a JSON edit holding exactly the keys `keys` gives its op: a
        string `table`, and each field of the op an object of text-or-null cells."""
        op = d.get("op")
        fields = EDIT_FIELDS.get(op) if type(op) is str else None
        if fields is None or type(d.get("table")) is not str:
            raise SchemaMismatch(f"an edit has a string table and an op of insert, update or delete, got {op!r}")
        _only_keys(d, keys[op], f"an edit of op {op}")
        for name in fields:
            if type(d[name]) is not dict or not _CELL_TYPES.issuperset(map(type, d[name].values())):
                raise SchemaMismatch(f"edit {name} must be an object of text or null cells, got {d[name]!r}")
        return d["table"], cls(op, d.get("row"), d.get("key"), d.get("changes"))  # other ops' fields are absent

    def applied_to(self, table: Table) -> Table:
        """`table` after this edit; the table refuses an edit that does not fit its schema or rows."""
        if self.op == "insert":
            return table.insert_row(self.row)
        if self.op == "update":
            return table.update_row(self.key, self.changes)
        if self.op == "delete":
            return table.delete_row(self.key)
        raise ValueError(f"unknown edit op {self.op!r}")


@dataclass
class ShareState:
    """Everything a peer holds for one share it is bound to."""

    binding: ShareBinding
    lens: Lens
    cache: LensCache  # what the lens last derived
    copy: Optional[Table] = None  # as last installed, accepted or merged
    version: int = 0
    staged: bool = False  # the cache's view is proposed and awaits its receipt
    unanswered: int = 0  # data requests sent and not yet answered

    @property
    def source_id(self) -> str:
        """The id of the local table the share's view is derived from."""
        return self.lens.spec.source_table_id


@dataclass(frozen=True)
class MergeOutcome:
    """What happened when a data response was merged."""

    applied: bool
    cascade_txs: tuple[UpdateTx, ...] = ()
    refetch: Optional[DataRequest] = None  # after a stale response that was the last one out


def changed_view_attrs(old: Table, new: Table) -> frozenset[str]:
    """Attributes that differ between two versions of a view, aligned on the key.

    Rows on one side only change every attribute; the rows changed in place are
    those `Table.changes_since` pairs up. It is empty iff the views are equal.
    """
    attrs = new.schema.attrs
    gone_keys, gone_rows, came_keys, came_rows = new.changes_since(old)
    if gone_keys != came_keys:
        return frozenset(attrs)
    return frozenset(a for orow, nrow in zip(gone_rows, came_rows) for a, o, n in zip(attrs, orow, nrow) if o != n)


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
        self.shares: dict[str, ShareState] = {}
        # The shares derived from each source table, in share-id order: the cascade's order.
        self._shares_of: dict[str, list[str]] = {}
        for shared_id, binding in sorted(bindings.items()):
            lens = self.lenses[binding.lens_id]
            share = self.shares[shared_id] = ShareState(binding, lens, LensCache(lens, shared_id))
            self._shares_of.setdefault(share.source_id, []).append(shared_id)

    def to_json_dict(self) -> dict:
        """The peer's dump entry; table contents are written separately, one file each."""
        return {
            "tables": sorted(self.tables),
            "lenses": [self.lenses[k].spec.to_json_dict() for k in sorted(self.lenses)],
            "bindings": [s.binding.to_json_dict() for s in self.shares.values()],
            "versions": {sid: s.version for sid, s in self.shares.items() if s.copy is not None},
        }

    @classmethod
    def from_json_dict(
        cls,
        principal: Principal,
        d: Mapping,
        tables: Mapping[str, Table],
        copies: Mapping[str, Table],
    ) -> "PeerNode":
        """Rebuild a quiescent peer from its dump entry and the tables read back for it."""
        lenses = {}
        for spec_doc in d["lenses"]:
            spec = LensSpec.from_json_dict(spec_doc)
            lenses[spec.lens_id] = compile_lens(spec, tables[spec.source_table_id].schema)
        bindings = [ShareBinding.from_json_dict(b) for b in d["bindings"]]
        peer = cls(principal, tables, lenses, {b.shared_id: b for b in bindings})
        for shared_id, version in d["versions"].items():
            share = peer._share(shared_id)
            share.copy, share.version = copies[shared_id], version
        return peer

    # -- wiring ---------------------------------------------------------------

    def _share(self, shared_id: str) -> ShareState:
        """The record of a share this peer is bound to; UnknownShare for any other."""
        share = self.shares.get(shared_id)
        if share is None:
            raise UnknownShare(f"{self.principal!r} is not bound to share {shared_id!r}")
        return share

    def _fetch(self, share: ShareState, version: int) -> DataRequest:
        """The request to the share's counterpart for `version` of the share (or a later one), counted as unanswered."""
        binding = share.binding
        share.unanswered += 1
        return DataRequest(binding.shared_id, version, self.principal, binding.counterpart)

    def regenerate_view(self, shared_id: str) -> Table:
        """Derive the current view for a share from the local source table.

        Only the view rows the source edits since the last derivation touched
        are derived again, from the cache `install_share` seeded.
        """
        share = self._share(shared_id)
        return lens_get(share.lens, self.tables[share.source_id], share.cache)

    def derive_view(self, shared_id: str) -> Table:
        """The share's view derived from the whole source table by a cache-free
        `get`: the lens's definition in whole-table passes, independent of the
        share's cache and of the incremental engine that maintains it."""
        share = self._share(shared_id)
        return lens_get(share.lens, self.tables[share.source_id], view_id=shared_id)

    def install_share(self, shared_id: str, agreed: Optional[Table] = None) -> Table:
        """Initialize the local copy of a share from the current source; version 0.

        The view is derived once, from the whole source (`derive_view`), and
        seeds the share's lens cache, so the incremental engine only ever
        handles deltas. `agreed` is a view the counterpart already holds. When
        it equals the view derived here, the peer holds `agreed` itself, as its
        copy and as its lens cache's view, so the two peers' views share every
        chunk (and the hash states a digest keeps on them). Returns the copy.
        """
        share = self._share(shared_id)
        view = self.derive_view(shared_id)
        if agreed is not None and agreed == view:
            view = agreed
        share.cache.seed(share.lens, self.tables[share.source_id], view)
        share.copy, share.version = view, 0
        return view

    # -- local operations -----------------------------------------------------

    def local_edit(self, table_id: str, edit: Edit) -> None:
        """Apply one CRUD operation to a local table; nothing is propagated yet."""
        table = self.tables.get(table_id)
        if table is None:
            raise UnknownTable(f"{self.principal!r} has no table {table_id!r}")
        self.tables[table_id] = edit.applied_to(table)

    def regenerate_and_propose(self, shared_id: str) -> Optional[UpdateTx]:
        """Regenerate the view and, if it drifted from the shared copy, stage a proposal.

        The copy itself is replaced only once the ledger accepts the proposal.
        Returns None when nothing changed or a proposal is already in flight.
        """
        share = self._share(shared_id)
        if share.staged:
            return None
        new_view = self.regenerate_view(shared_id)
        changed = changed_view_attrs(share.copy, new_view)
        if not changed:  # the view equals the copy
            return None
        tx = UpdateTx(
            shared_id=shared_id,
            requester=self.principal,
            changed_attrs=changed,
            base_version=share.version,
            new_digest=new_view.digest(),
        )
        share.staged = True
        return tx

    # -- message handlers -----------------------------------------------------

    def on_receipt(self, receipt: Receipt) -> Optional[Union[UpdateTx, DataRequest]]:
        """Close the propose loop: returns the catch-up proposal to submit, the refetch to send, or None.

        Stale or serialization rejections refetch from the counterpart; all
        other rejections just drop the proposal.
        """
        tx = receipt.tx
        if not isinstance(tx, UpdateTx):
            return None
        share = self._share(tx.shared_id)
        share.staged = False
        if receipt.verdict.ok:  # the proposal was the cache's view, which nothing rewrote since
            share.copy, share.version = share.cache.view, tx.base_version + 1
            if self.tables[share.source_id] is share.cache.source:
                return None  # the copy is the view of the current source
            # The source may have moved again while the proposal was in flight.
            return self.regenerate_and_propose(tx.shared_id)
        if receipt.verdict.reason in (RejectReason.STALE_VERSION, RejectReason.BLOCKED_BY_SERIALIZATION):
            # Refetch only if the winning version has not already been merged
            # through the notification path while this receipt was in flight.
            if share.version <= tx.base_version:
                return self._fetch(share, tx.base_version + 1)
        return None

    def on_notification(self, note: Notification) -> DataRequest:
        """A counterpart updated the share: returns the request for the new data.

        The contract notifies the peer that did not request the update, so the
        notification's source is always this peer's counterpart on the share.
        """
        return self._fetch(self._share(note.shared_id), note.new_version)

    def on_data_request(self, req: DataRequest) -> Union[DataResponse, str, None]:
        """The response serving the current copy, or RETRY if we don't hold it yet.

        A request from anyone but the share's counterpart gets None: shared
        data never travels to a third party.
        """
        share = self._share(req.shared_id)
        if req.sender != share.binding.counterpart:
            return None
        if share.version < req.requested_version:
            return RETRY
        return DataResponse(req.shared_id, share.version, share.copy, self.principal, req.sender)

    def on_data_response(self, resp: DataResponse, meta: SharedTableMetadata) -> MergeOutcome:
        """Verify fetched data against the contract entry and merge it into the source.

        On a digest or version mismatch the response is discarded. Only a
        stale answer (an older version) refetches, if no other request for the
        share is still unanswered; otherwise that request's answer is awaited,
        and the last stale answer refetches, so a run cannot stall. Any other
        mismatch is a lie (an honest copy carries its version's digest), so
        asking again would loop: it is dropped without a refetch.
        After a merge, every other share derived from the same source is
        regenerated; views that changed become cascade proposals.
        """
        share = self._share(resp.shared_id)
        # The count stays at zero for a response to no counted request.
        share.unanswered = max(share.unanswered - 1, 0)
        if resp.table.digest() != meta.content_digest or resp.version != meta.version:
            stale = resp.version < meta.version and not share.unanswered
            return MergeOutcome(applied=False, refetch=self._fetch(share, meta.version) if stale else None)

        # The digest covers the id, so the check above proved it is the share's.
        source_id = share.source_id
        if resp.version != share.version:  # a re-sent held version would only revert later edits
            share.copy, share.version = resp.table, resp.version
            self.tables[source_id] = lens_put(share.lens, self.tables[source_id], resp.table, share.cache)

        others = [sid for sid in self._shares_of[source_id] if sid != resp.shared_id]
        proposed = (self.regenerate_and_propose(sid) for sid in others)
        return MergeOutcome(applied=True, cascade_txs=tuple(tx for tx in proposed if tx is not None))
