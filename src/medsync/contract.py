"""Shared-table permission registry, driven as a pure state machine.

One metadata entry per shared table records the two sharing peers, which peer
may update each attribute, the single authority allowed to rewrite those
permissions, a monotonically increasing version, and the digest of the current
shared content. Updates are validated against the entry and, when applied,
notify the peers that did not request them. All operations are pure functions
from (state, input) to (state, outputs); rejected inputs leave state untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Optional, Union

from .relational import Schema, ZERO_DIGEST, canonical_json

Principal = str


class RejectReason(str, Enum):
    UNKNOWN_SHARED = "UnknownShared"
    NOT_A_PEER = "NotAPeer"
    PERMISSION_DENIED = "PermissionDenied"
    STALE_VERSION = "StaleVersion"
    NOT_AUTHORITY = "NotAuthority"
    DUPLICATE_SHARED = "DuplicateShared"
    UNKNOWN_ATTRIBUTE = "UnknownAttribute"
    MALFORMED_METADATA = "MalformedMetadata"
    BLOCKED_BY_SERIALIZATION = "BlockedBySerialization"


@dataclass(frozen=True)
class Verdict:
    """Accept, or reject with a reason from the closed enumeration above."""

    ok: bool
    reason: Optional[RejectReason] = None
    detail: str = ""

    @classmethod
    def accept(cls) -> "Verdict":
        return cls(True)

    @classmethod
    def reject(cls, reason: RejectReason, detail: str = "") -> "Verdict":
        return cls(False, reason, detail)

    def to_json_dict(self) -> dict:
        if self.ok:
            return {"ok": True}
        return {"ok": False, "reason": self.reason.value, "detail": self.detail}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Verdict":
        if d["ok"]:
            return cls.accept()
        return cls.reject(RejectReason(d["reason"]), d.get("detail", ""))


ACCEPT = Verdict.accept()


class ContractError(Exception):
    """Raised by operations whose contract is to fail loudly, not return a verdict."""

    reason: RejectReason = RejectReason.MALFORMED_METADATA

    def as_verdict(self) -> Verdict:
        return Verdict.reject(self.reason, str(self))


class DuplicateSharedError(ContractError):
    reason = RejectReason.DUPLICATE_SHARED


class NotAPeerError(ContractError):
    reason = RejectReason.NOT_A_PEER


class MalformedMetadata(ContractError):
    reason = RejectReason.MALFORMED_METADATA


class UnknownSharedError(ContractError):
    reason = RejectReason.UNKNOWN_SHARED


@dataclass(frozen=True)
class SharedTableMetadata:
    """One registry entry: who shares the table and who may update what."""

    shared_id: str
    view_schema: Schema
    peers: frozenset[Principal]
    perm: Mapping[str, frozenset[Principal]]
    authority: Principal
    latest_update_time: int = 0
    version: int = 0
    content_digest: str = ZERO_DIGEST

    def __post_init__(self) -> None:
        object.__setattr__(self, "peers", frozenset(self.peers))
        object.__setattr__(self, "perm", {a: frozenset(p) for a, p in self.perm.items()})

    def validate(self) -> None:
        """Raise MalformedMetadata unless the entry invariants hold."""
        if len(self.peers) != 2:
            raise MalformedMetadata(f"{self.shared_id!r}: a shared table has exactly two peers")
        if self.authority not in self.peers:
            raise MalformedMetadata(f"{self.shared_id!r}: authority {self.authority!r} is not a peer")
        if set(self.perm) != set(self.view_schema.attrs):
            raise MalformedMetadata(
                f"{self.shared_id!r}: permission map must cover exactly the view attributes"
            )
        for attr, principals in self.perm.items():
            outside = principals - self.peers
            if outside:
                raise MalformedMetadata(
                    f"{self.shared_id!r}: non-peers {sorted(outside)} permitted on {attr!r}"
                )

    def to_json_dict(self) -> dict:
        return {
            "shared_id": self.shared_id,
            "peers": sorted(self.peers),
            "schema": self.view_schema.to_json_dict(),
            "perm": {a: sorted(p) for a, p in self.perm.items()},
            "authority": self.authority,
            "latest_update_time": self.latest_update_time,
            "version": self.version,
            "digest": self.content_digest,
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "SharedTableMetadata":
        return cls(
            shared_id=d["shared_id"],
            view_schema=Schema.from_json_dict(d["schema"]),
            peers=frozenset(d["peers"]),
            perm={a: frozenset(p) for a, p in d["perm"].items()},
            authority=d["authority"],
            latest_update_time=d["latest_update_time"],
            version=d["version"],
            content_digest=d["digest"],
        )


@dataclass(frozen=True)
class ContractState:
    """All registry entries, keyed by shared id. Value object; never mutated."""

    entries: Mapping[str, SharedTableMetadata] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "ContractState":
        return cls({})

    def to_json_dict(self) -> dict:
        return {"entries": {sid: m.to_json_dict() for sid, m in sorted(self.entries.items())}}

    def canonical_bytes(self) -> bytes:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "ContractState":
        return cls({sid: SharedTableMetadata.from_json_dict(m) for sid, m in d["entries"].items()})


# --- transactions -----------------------------------------------------------


@dataclass(frozen=True)
class DeployTx:
    meta: SharedTableMetadata
    deployer: Principal


@dataclass(frozen=True)
class UpdateTx:
    shared_id: str
    requester: Principal
    changed_attrs: frozenset[str]
    base_version: int
    new_digest: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "changed_attrs", frozenset(self.changed_attrs))


@dataclass(frozen=True)
class PermChangeTx:
    shared_id: str
    requester: Principal
    attr: str
    new_principals: frozenset[Principal]

    def __post_init__(self) -> None:
        object.__setattr__(self, "new_principals", frozenset(self.new_principals))


Transaction = Union[DeployTx, UpdateTx, PermChangeTx]


def tx_shared_id(tx: Transaction) -> str:
    return tx.meta.shared_id if isinstance(tx, DeployTx) else tx.shared_id


def tx_submitter(tx: Transaction) -> Principal:
    return tx.deployer if isinstance(tx, DeployTx) else tx.requester


def tx_to_json_dict(tx: Transaction) -> dict:
    if isinstance(tx, DeployTx):
        return {"type": "deploy", "meta": tx.meta.to_json_dict(), "deployer": tx.deployer}
    if isinstance(tx, UpdateTx):
        return {
            "type": "update",
            "shared_id": tx.shared_id,
            "requester": tx.requester,
            "changed_attrs": sorted(tx.changed_attrs),
            "base_version": tx.base_version,
            "new_digest": tx.new_digest,
        }
    return {
        "type": "perm_change",
        "shared_id": tx.shared_id,
        "requester": tx.requester,
        "attr": tx.attr,
        "new_principals": sorted(tx.new_principals),
    }


def tx_from_json_dict(d: Mapping) -> Transaction:
    kind = d["type"]
    if kind == "deploy":
        return DeployTx(SharedTableMetadata.from_json_dict(d["meta"]), d["deployer"])
    if kind == "update":
        return UpdateTx(
            d["shared_id"], d["requester"], frozenset(d["changed_attrs"]),
            d["base_version"], d["new_digest"],
        )
    if kind == "perm_change":
        return PermChangeTx(d["shared_id"], d["requester"], d["attr"], frozenset(d["new_principals"]))
    raise ValueError(f"unknown transaction type {kind!r}")


@dataclass(frozen=True)
class Notification:
    """Sent to every sharing peer other than the requester after an accepted update."""

    shared_id: str
    new_version: int
    new_digest: str
    changed_attrs: frozenset[str]
    source_peer: Principal
    to: Principal


# --- operations --------------------------------------------------------------


def validate_deploy(state: ContractState, meta: SharedTableMetadata, deployer: Principal) -> Verdict:
    if meta.shared_id in state.entries:
        return Verdict.reject(RejectReason.DUPLICATE_SHARED, f"{meta.shared_id!r} already deployed")
    if deployer not in meta.peers:
        return Verdict.reject(RejectReason.NOT_A_PEER, f"deployer {deployer!r} is not a sharing peer")
    try:
        meta.validate()
    except MalformedMetadata as exc:
        return exc.as_verdict()
    if meta.version != 0:
        return Verdict.reject(RejectReason.MALFORMED_METADATA, "deployed metadata must start at version 0")
    return ACCEPT


def deploy(state: ContractState, meta: SharedTableMetadata, deployer: Principal, tick: int) -> ContractState:
    """Register a new shared table; raises on any invalid deployment."""
    verdict = validate_deploy(state, meta, deployer)
    if not verdict.ok:
        exc_by_reason = {
            RejectReason.DUPLICATE_SHARED: DuplicateSharedError,
            RejectReason.NOT_A_PEER: NotAPeerError,
        }
        raise exc_by_reason.get(verdict.reason, MalformedMetadata)(verdict.detail)
    entry = replace(meta, latest_update_time=tick)
    return ContractState({**state.entries, meta.shared_id: entry})


def validate_update(state: ContractState, tx: UpdateTx) -> Verdict:
    """Check an update request; rejection reasons are evaluated in a fixed order."""
    entry = state.entries.get(tx.shared_id)
    if entry is None:
        return Verdict.reject(RejectReason.UNKNOWN_SHARED, f"no shared table {tx.shared_id!r}")
    if tx.requester not in entry.peers:
        return Verdict.reject(RejectReason.NOT_A_PEER, f"{tx.requester!r} does not share {tx.shared_id!r}")
    for attr in sorted(tx.changed_attrs):
        if tx.requester not in entry.perm.get(attr, frozenset()):
            return Verdict.reject(
                RejectReason.PERMISSION_DENIED,
                f"{tx.requester!r} may not update {attr!r} on {tx.shared_id!r}",
            )
    if tx.base_version != entry.version:
        return Verdict.reject(
            RejectReason.STALE_VERSION,
            f"{tx.shared_id!r} is at version {entry.version}, request based on {tx.base_version}",
        )
    return ACCEPT


def apply_update(
    state: ContractState, tx: UpdateTx, tick: int
) -> tuple[ContractState, list[Notification]]:
    """Apply a validated update: bump the version, record the digest, notify peers."""
    verdict = validate_update(state, tx)
    if not verdict.ok:
        raise ContractError(f"apply_update on a rejected transaction: {verdict.detail}")
    entry = state.entries[tx.shared_id]
    new_entry = replace(
        entry,
        version=entry.version + 1,
        content_digest=tx.new_digest,
        latest_update_time=tick,
    )
    notes = [
        Notification(
            shared_id=tx.shared_id,
            new_version=new_entry.version,
            new_digest=new_entry.content_digest,
            changed_attrs=tx.changed_attrs,
            source_peer=tx.requester,
            to=peer,
        )
        for peer in sorted(entry.peers - {tx.requester})
    ]
    return ContractState({**state.entries, tx.shared_id: new_entry}), notes


def change_permission(
    state: ContractState, tx: PermChangeTx, tick: int
) -> tuple[ContractState, Verdict]:
    """Overwrite one attribute's permitted set; only the entry's authority may."""
    entry = state.entries.get(tx.shared_id)
    if entry is None:
        return state, Verdict.reject(RejectReason.UNKNOWN_SHARED, f"no shared table {tx.shared_id!r}")
    if tx.requester != entry.authority:
        return state, Verdict.reject(
            RejectReason.NOT_AUTHORITY,
            f"{tx.requester!r} is not the authority for {tx.shared_id!r}",
        )
    if tx.attr not in entry.view_schema.attrs:
        return state, Verdict.reject(
            RejectReason.UNKNOWN_ATTRIBUTE, f"{tx.attr!r} is not an attribute of {tx.shared_id!r}"
        )
    outside = tx.new_principals - entry.peers
    if outside:
        return state, Verdict.reject(
            RejectReason.NOT_A_PEER, f"{sorted(outside)} do not share {tx.shared_id!r}"
        )
    new_entry = replace(
        entry,
        perm={**entry.perm, tx.attr: tx.new_principals},
        latest_update_time=tick,
    )
    return ContractState({**state.entries, tx.shared_id: new_entry}), ACCEPT


def query_metadata(state: ContractState, shared_id: str) -> SharedTableMetadata:
    entry = state.entries.get(shared_id)
    if entry is None:
        raise UnknownSharedError(f"no shared table {shared_id!r}")
    return entry
