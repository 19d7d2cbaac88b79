"""Scenario loading, the deterministic simulation loop, dumps, and convergence checks.

A scenario declares the principals, their local tables and lenses, the shares
to deploy, and a script of scheduled actions. The driver advances a global
tick; each tick t it (1) delivers every message sent in tick t-1, retried data
requests included, to peers in lexicographic order, (2) runs the script actions
of tick t, (3) collects peer outboxes, then (4) seals one block and (5) sends
its notifications and receipts. The loop stops at quiescence (no messages in
flight, empty mempool, no staged proposals, script exhausted).
There is no randomness anywhere: a scenario always yields the same trace,
chain, and dumps, byte for byte.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .contract import (
    ContractState,
    DeployTx,
    Notification,
    PermChangeTx,
    SharedTableMetadata,
    Transaction,
    UpdateTx,
    Verdict,
    deploy,  # unused; bound here only for the benchmark tracer's wrap target
    query_metadata,
    tx_shared_id,
    tx_submitter,
    tx_to_json_dict,
)
from .ledger import Block, Chain, Receipt, execute_block
from .lenses import Lens, LensError, LensSpec, compile_lens
from .peer import (
    RETRY,
    DataRequest,
    DataResponse,
    Edit,
    Message,
    PeerNode,
    ShareBinding,
)
from .relational import RelationalError, Table, canonical_json


class ScenarioError(Exception):
    """Base class for scenario file problems."""


class ParseError(ScenarioError):
    """The scenario file is not valid JSON."""


class ValidationError(ScenarioError):
    """The scenario parsed but its contents do not hold together."""


class SimulationError(Exception):
    """Base class for failures while driving a world."""


class MaxTicksExceeded(SimulationError):
    """The world did not quiesce within the tick budget."""


class NotQuiescent(SimulationError):
    """An operation that requires quiescence was called mid-run."""


class CascadeOverflow(SimulationError):
    """A causal chain of cascades exceeded the hop budget; the scenario is pathological."""


# --- scenario model ----------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    max_ticks: int = 100
    max_cascade_hops: int = 16


@dataclass(frozen=True)
class EditAction:
    table_id: str
    edit: Edit


@dataclass(frozen=True)
class ProposeAction:
    shared_id: str


@dataclass(frozen=True)
class PermChangeAction:
    shared_id: str
    attr: str
    principals: frozenset[str]


Action = Union[EditAction, ProposeAction, PermChangeAction]


@dataclass(frozen=True)
class ScheduledAction:
    tick: int
    principal: str
    action: Action


@dataclass(frozen=True)
class ShareDeployment:
    """A static share: who participates (with which lens), and the initial permissions."""

    shared_id: str
    deployer: str
    authority: str
    lens_by_peer: Mapping[str, str]
    perm: Mapping[str, frozenset[str]]


@dataclass(frozen=True)
class Scenario:
    name: str
    principals: tuple[str, ...]
    tables: Mapping[str, tuple[Table, ...]]
    lens_specs: Mapping[str, tuple[LensSpec, ...]]
    shares: tuple[ShareDeployment, ...]
    script: tuple[ScheduledAction, ...]
    config: SimConfig = field(default_factory=SimConfig)


def _parse_edit(d: Mapping, where: str) -> Edit:
    op = d.get("op")
    if op not in ("insert", "update", "delete"):
        raise ValidationError(f"{where}: edit op must be insert/update/delete, got {op!r}")
    for name in ("row", "key", "changes"):
        if d.get(name) is not None and not isinstance(d[name], dict):
            raise ValidationError(f"{where}: edit {name} must be an object")
    return Edit(op=op, row=d.get("row"), key=d.get("key"), changes=d.get("changes"))


def _parse_action(d: Mapping, where: str) -> Action:
    kind = d.get("kind")
    if kind == "edit":
        if "table" not in d:
            raise ValidationError(f"{where}: edit action needs a table")
        return EditAction(d["table"], _parse_edit(d, where))
    if kind == "propose":
        if "shared_id" not in d:
            raise ValidationError(f"{where}: propose action needs a shared_id")
        return ProposeAction(d["shared_id"])
    if kind == "change_permission":
        for k in ("shared_id", "attr", "principals"):
            if k not in d:
                raise ValidationError(f"{where}: change_permission action needs {k!r}")
        return PermChangeAction(d["shared_id"], d["attr"], frozenset(d["principals"]))
    raise ValidationError(f"{where}: unknown action kind {kind!r}")


def scenario_from_json_dict(doc: Mapping, name: str = "scenario") -> Scenario:
    """Build and cross-validate a scenario from its parsed JSON form."""
    principals = tuple(doc.get("principals", ()))
    if not principals or len({p for p in principals if isinstance(p, str)}) != len(principals):
        raise ValidationError("principals must be a non-empty list of unique names")

    tables: dict[str, tuple[Table, ...]] = {}
    for p, docs in doc.get("tables", {}).items():
        if p not in principals:
            raise ValidationError(f"tables[{p}]: unknown principal")
        built = []
        for i, td in enumerate(docs):
            try:
                built.append(Table.from_json_dict(td))
            except (RelationalError, KeyError, TypeError) as exc:
                raise ValidationError(f"tables[{p}][{i}]: {exc}") from exc
        ids = [t.id for t in built]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"tables[{p}]: duplicate table ids")
        tables[p] = tuple(built)

    lens_specs: dict[str, tuple[LensSpec, ...]] = {}
    for p, docs in doc.get("lenses", {}).items():
        if p not in principals:
            raise ValidationError(f"lenses[{p}]: unknown principal")
        own_tables = {t.id: t for t in tables.get(p, ())}
        specs = []
        for i, ld in enumerate(docs):
            try:
                spec = LensSpec.from_json_dict(ld)
            except (KeyError, TypeError) as exc:
                raise ValidationError(f"lenses[{p}][{i}]: {exc}") from exc
            source = own_tables.get(spec.source_table_id)
            if source is None:
                raise ValidationError(
                    f"lenses[{p}][{i}]: source table {spec.source_table_id!r} not held by {p}"
                )
            try:
                compile_lens(spec, source.schema)
            except Exception as exc:
                raise ValidationError(f"lenses[{p}][{i}]: {exc}") from exc
            specs.append(spec)
        ids = [s.lens_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"lenses[{p}]: duplicate lens ids")
        lens_specs[p] = tuple(specs)

    shares: list[ShareDeployment] = []
    for i, sd in enumerate(doc.get("shares", ())):
        where = f"shares[{i}]"
        try:
            share = ShareDeployment(
                shared_id=sd["shared_id"],
                deployer=sd["deployer"],
                authority=sd["authority"],
                lens_by_peer=dict(sd["peers"]),
                perm={a: frozenset(p) for a, p in sd["perm"].items()},
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        if len(share.lens_by_peer) != 2:
            raise ValidationError(f"{where}: a share has exactly two peers")
        names = [share.shared_id, share.deployer, share.authority, *(p for w in share.perm.values() for p in w)]
        if not all(isinstance(n, str) for n in names):
            raise ValidationError(f"{where}: shared_id, deployer, authority and perm entries must be strings")
        for peer, lens_id in share.lens_by_peer.items():
            if peer not in principals:
                raise ValidationError(f"{where}: unknown principal {peer!r}")
            if not any(s.lens_id == lens_id for s in lens_specs.get(peer, ())):
                raise ValidationError(f"{where}: {peer!r} has no lens {lens_id!r}")
        if share.deployer not in share.lens_by_peer:
            raise ValidationError(f"{where}: the deployer must be a sharing peer")
        # The contract decides the rest (authority, perm, duplicate ids) at genesis.
        shares.append(share)

    script: list[ScheduledAction] = []
    last_tick = 0
    known_shared = {s.shared_id for s in shares}
    for i, ad in enumerate(doc.get("script", ())):
        where = f"script[{i}]"
        try:
            tick = int(ad["tick"])
            principal = ad["principal"]
            action = _parse_action(ad["action"], where)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        if tick < 0 or tick < last_tick:
            raise ValidationError(f"{where}: script ticks must be non-negative and non-decreasing")
        last_tick = tick
        if principal not in principals:
            raise ValidationError(f"{where}: unknown principal {principal!r}")
        if isinstance(action, EditAction):
            if action.table_id not in {t.id for t in tables.get(principal, ())}:
                raise ValidationError(f"{where}: {principal!r} has no table {action.table_id!r}")
        elif isinstance(action, (ProposeAction, PermChangeAction)):
            if action.shared_id not in known_shared:
                raise ValidationError(f"{where}: unknown shared_id {action.shared_id!r}")
            if isinstance(action, ProposeAction):
                share = next(s for s in shares if s.shared_id == action.shared_id)
                if principal not in share.lens_by_peer:
                    raise ValidationError(f"{where}: {principal!r} does not share {action.shared_id!r}")
        script.append(ScheduledAction(tick, principal, action))

    cfg = doc.get("config", {})
    return Scenario(
        name=doc.get("name", name),
        principals=principals,
        tables=tables,
        lens_specs=lens_specs,
        shares=tuple(shares),
        script=tuple(script),
        config=SimConfig(
            max_ticks=int(cfg.get("max_ticks", SimConfig.max_ticks)),
            max_cascade_hops=int(cfg.get("max_cascade_hops", SimConfig.max_cascade_hops)),
        ),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read, parse, and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: scenario must be a JSON object")
    try:
        return scenario_from_json_dict(doc, name=path.stem.replace(".scenario", ""))
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        # A value of the wrong JSON type can trip any field access.
        raise ValidationError(f"{path}: malformed scenario: {exc}") from exc


# --- tracing ------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    tick: int
    seq: int
    actor: str
    kind: str  # edit|propose|block|verdict|notify|data_req|data_resp|put_applied|cascade
    payload: Mapping[str, object]

    def to_json_dict(self) -> dict:
        return {
            "tick": self.tick,
            "seq": self.seq,
            "actor": self.actor,
            "kind": self.kind,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "TraceEvent":
        if len(d) != 5:  # the five keys below, each read, and nothing else
            raise ValueError("a trace event holds keys an event does not write")
        return cls(d["tick"], d["seq"], d["actor"], d["kind"], dict(d["payload"]))


def _verdict_payload(tx: Transaction, verdict: Verdict) -> dict:
    payload: dict[str, object] = {"shared_id": tx_shared_id(tx), "tx": tx_to_json_dict(tx)["type"], "ok": verdict.ok}
    if not verdict.ok:
        payload["reason"] = verdict.reason.value
    return payload


def _notify_payload(note: Notification) -> dict:
    return {
        "shared_id": note.shared_id,
        "from": note.source_peer,
        "to": note.to,
        "new_version": note.new_version,
        "changed_attrs": sorted(note.changed_attrs),
    }


def trace_mismatch(chain: Chain, trace: Sequence[TraceEvent]) -> Optional[str]:
    """How the trace disagrees with the chain, or None when it agrees.

    The `block` events must be the non-genesis blocks in order (index, tick,
    transaction count). After each one come a `verdict` event per transaction
    in order (submitter, share, type, outcome and reason), then a `notify`
    event per accepted update (from the requester to the other sharing peer,
    the new version and the changed attributes). Each `data_resp` must carry
    the digest the chain registered for its share and version, and each
    `put_applied` must follow a `data_resp` to its actor for the same share
    and version. Event `seq` numbers must run 0..n-1 and ticks must never
    decrease.
    """
    peers: dict[str, frozenset[str]] = {}
    registered: dict[tuple[str, int], str] = {}  # (share, version) -> digest, in the blocks so far
    responses: Counter = Counter()  # (to, share, version) of data_resp events not yet applied

    def owed(block: Block) -> list[tuple[int, str, str, dict]]:
        """Register the block's accepted transactions; its verdict and notify events, last first."""
        events = [(block.tick, tx_submitter(tx), "verdict", _verdict_payload(tx, v)) for tx, v in block.txs]
        for tx, verdict in block.txs:
            if not verdict.ok:
                continue
            if isinstance(tx, DeployTx):
                peers[tx.meta.shared_id] = tx.meta.peers
                registered[tx.meta.shared_id, 0] = tx.meta.content_digest
            elif isinstance(tx, UpdateTx):
                registered[tx.shared_id, tx.base_version + 1] = tx.new_digest
                for to in sorted(peers[tx.shared_id] - {tx.requester}):
                    note = Notification(tx.shared_id, tx.base_version + 1, tx.changed_attrs, tx.requester, to)
                    events.append((block.tick, "contract", "notify", _notify_payload(note)))
        return events[::-1]

    blocks = iter(chain.blocks)
    block = next(blocks)
    owed(block)  # registers the deployments; genesis verdicts are not traced
    due: list[tuple[int, str, str, dict]] = []
    for seq, event in enumerate(trace):
        if event.seq != seq:
            return f"event {seq} carries seq {event.seq}"
        if seq and event.tick < trace[seq - 1].tick:
            return f"event {seq} goes back from tick {trace[seq - 1].tick} to {event.tick}"
        p = event.payload
        try:
            if event.kind == "block":
                if due:
                    return f"block {block.index} lacks {len(due)} verdict or notify events"
                block = next(blocks, None)
                if block is None:
                    return f"event {seq} records a block the chain does not hold"
                if (event.tick, dict(p)) != (block.tick, {"index": block.index, "txs": len(block.txs)}):
                    return f"event {seq} does not match block {block.index}"
                due = owed(block)
            elif event.kind in ("verdict", "notify"):
                if not due or (event.tick, event.actor, event.kind, dict(p)) != due.pop():
                    return f"event {seq} matches no transaction of block {block.index}"
            elif event.kind == "data_resp":
                if registered.get((p["shared_id"], p["version"])) != p["digest"]:
                    return f"event {seq} carries a digest the chain does not register for its version"
                responses[p["to"], p["shared_id"], p["version"]] += 1
            elif event.kind == "put_applied":
                key = (event.actor, p["shared_id"], p["version"])
                if not responses[key]:
                    return f"event {seq} applies data no data_resp event carried"
                responses[key] -= 1
        except (LookupError, TypeError):  # a payload of the wrong shape
            return f"event {seq} has a malformed payload"
    if due:
        return f"block {block.index} lacks {len(due)} verdict or notify events"
    missing = next(blocks, None)
    return None if missing is None else f"the trace ends before block {missing.index}"


# --- the world ----------------------------------------------------------------


class World:
    """All simulation state: peers, chain, contract, in-flight messages, clock."""

    def __init__(self, scenario: Scenario) -> None:
        self.name = scenario.name
        self.config = scenario.config
        self.clock = 0
        self.trace: list[TraceEvent] = []
        self.peers: dict[str, PeerNode] = {}
        self._inflight: list[Message] = []  # sent this tick, delivered next tick, in send order
        self._script: tuple[ScheduledAction, ...] = scenario.script
        self._script_pos = 0
        # The cascade budget counts hops along one causal chain: a cascade
        # proposed after merging a share's version is one hop further than the
        # update that made that version. Hops of cascades awaiting a block, and
        # of the update behind each share's current version (0 unless a cascade).
        self._tx_hops: dict[UpdateTx, int] = {}
        self._version_hops: dict[str, int] = {}
        self._build(scenario)

    def _build(self, scenario: Scenario) -> None:
        bindings: dict[str, dict[str, ShareBinding]] = {p: {} for p in scenario.principals}
        for share in scenario.shares:
            for peer, lens_id in share.lens_by_peer.items():
                (counterpart,) = set(share.lens_by_peer) - {peer}
                bindings[peer][share.shared_id] = ShareBinding(share.shared_id, lens_id, counterpart)

        for p in sorted(scenario.principals):
            tables = {t.id: t for t in scenario.tables.get(p, ())}
            lenses: dict[str, Lens] = {}
            for spec in scenario.lens_specs.get(p, ()):
                lenses[spec.lens_id] = compile_lens(spec, tables[spec.source_table_id].schema)
            self.peers[p] = PeerNode(p, tables, lenses, bindings[p])

        deploys: list[DeployTx] = []
        for share in sorted(scenario.shares, key=lambda s: s.shared_id):
            try:
                initial, other = (self.peers[p].install_share(share.shared_id) for p in share.lens_by_peer)
            except LensError as exc:
                raise ValidationError(f"share {share.shared_id!r}: {exc}") from exc
            if initial != other:
                raise ValidationError(f"share {share.shared_id!r}: the peers' initial views disagree")
            lens = self.peers[share.deployer].lenses[share.lens_by_peer[share.deployer]]
            meta = SharedTableMetadata(
                shared_id=share.shared_id,
                view_schema=lens.view_schema,
                peers=frozenset(share.lens_by_peer),
                perm=share.perm,
                authority=share.authority,
                content_digest=initial.digest(),
            )
            deploys.append(DeployTx(meta, share.deployer))

        self.contract, verdicts, _ = execute_block(ContractState.empty(), deploys, 0)
        for tx, verdict in zip(deploys, verdicts):
            if not verdict.ok:
                raise ValidationError(f"share {tx.meta.shared_id!r}: {verdict.detail}")
        self.chain = Chain(list(zip(deploys, verdicts)))

    # -- bookkeeping -----------------------------------------------------------

    def _trace(self, actor: str, kind: str, payload: Mapping[str, object]) -> None:
        self.trace.append(TraceEvent(self.clock, len(self.trace), actor, kind, payload))

    def _submit(self, tx: Union[UpdateTx, PermChangeTx]) -> None:
        self.chain.submit(tx)
        # The requester is the event's actor.
        payload = {k: v for k, v in tx_to_json_dict(tx).items() if k != "requester"}
        self._trace(tx.requester, "propose", payload)

    def quiescent(self) -> bool:
        """No messages in flight, empty mempool, nothing staged, script done."""
        return (
            not self._inflight
            and not self.chain.mempool
            and self._script_pos >= len(self._script)
            and all(not p.pending and not p.outbox for p in self.peers.values())
        )

    # -- the tick loop -----------------------------------------------------------

    def _dispatch(self, peer: PeerNode, message: Message) -> None:
        if isinstance(message, Notification):
            peer.on_notification(message)
        elif isinstance(message, Receipt):
            for tx in peer.on_receipt(message):
                self._submit(tx)
        elif isinstance(message, DataRequest):
            if peer.on_data_request(message) == RETRY:
                self._inflight.append(message)
        elif isinstance(message, DataResponse):
            meta = query_metadata(self.contract, message.shared_id)
            outcome = peer.on_data_response(message, meta)
            if outcome.applied:
                lens = peer.lenses[peer.bindings[message.shared_id].lens_id]
                self._trace(
                    peer.principal,
                    "put_applied",
                    {
                        "shared_id": message.shared_id,
                        "source_table": lens.spec.source_table_id,
                        "version": message.version,
                    },
                )
            # The digest check admits only the share's current version.
            hops = self._version_hops.get(message.shared_id, 0) + 1
            for tx in outcome.cascade_txs:
                if hops > self.config.max_cascade_hops:
                    raise CascadeOverflow(
                        f"share {tx.shared_id!r} exceeded {self.config.max_cascade_hops} cascade hops"
                    )
                self._tx_hops[tx] = hops
                self._trace(
                    peer.principal,
                    "cascade",
                    {"after_merge_of": message.shared_id, "shared_id": tx.shared_id},
                )
                self._submit(tx)
        else:
            raise TypeError(f"unroutable message {message!r}")

    def _run_action(self, scheduled: ScheduledAction) -> None:
        peer = self.peers[scheduled.principal]
        action = scheduled.action
        if isinstance(action, EditAction):
            peer.local_edit(action.table_id, action.edit)
            payload: dict[str, object] = {"table": action.table_id, "op": action.edit.op}
            if action.edit.key is not None:
                payload["key"] = dict(action.edit.key)
            if action.edit.changes is not None:
                payload["changes"] = dict(action.edit.changes)
            if action.edit.row is not None:
                payload["row"] = dict(action.edit.row)
            self._trace(peer.principal, "edit", payload)
        elif isinstance(action, ProposeAction):
            tx = peer.regenerate_and_propose(action.shared_id)
            if tx is not None:
                self._submit(tx)
        elif isinstance(action, PermChangeAction):
            self._submit(PermChangeTx(action.shared_id, peer.principal, action.attr, action.principals))
        else:
            raise TypeError(f"unknown action {action!r}")

    def step(self) -> None:
        """Advance one tick in the fixed phase order."""
        t = self.clock

        due, self._inflight = self._inflight, []
        due.sort(key=lambda m: m.to)  # stable: each inbox stays in send order
        for message in due:
            try:
                self._dispatch(self.peers[message.to], message)
            except (RelationalError, LensError) as exc:
                # The scripted edits produced shared data the recipient's lenses cannot absorb.
                raise ValidationError(f"tick {t}, {message.to}: {exc}") from exc

        while self._script_pos < len(self._script) and self._script[self._script_pos].tick <= t:
            scheduled = self._script[self._script_pos]
            try:
                self._run_action(scheduled)
            except (RelationalError, LensError) as exc:
                # The script asked for an edit the table refuses, or one the lenses cannot follow.
                raise ValidationError(f"script tick {scheduled.tick}, {scheduled.principal}: {exc}") from exc
            self._script_pos += 1

        for principal in sorted(self.peers):
            peer = self.peers[principal]
            self._inflight.extend(peer.outbox)
            for msg in peer.outbox:
                if isinstance(msg, DataRequest):
                    self._trace(
                        principal,
                        "data_req",
                        {
                            "shared_id": msg.shared_id,
                            "from": msg.sender,
                            "to": msg.to,
                            "requested_version": msg.requested_version,
                        },
                    )
                elif isinstance(msg, DataResponse):
                    self._trace(
                        principal,
                        "data_resp",
                        {
                            "shared_id": msg.shared_id,
                            "from": msg.sender,
                            "to": msg.to,
                            "version": msg.version,
                            "digest": msg.table.digest(),
                        },
                    )
            peer.outbox.clear()

        self.contract, notes, receipts = self.chain.produce_block(self.contract, t)
        block = self.chain.blocks[-1]
        self._trace("ledger", "block", {"index": block.index, "txs": len(block.txs)})
        for tx, verdict in block.txs:
            if isinstance(tx, UpdateTx):
                hops = self._tx_hops.pop(tx, 0)
                if verdict.ok:
                    self._version_hops[tx.shared_id] = hops
            self._trace(tx_submitter(tx), "verdict", _verdict_payload(tx, verdict))
        for note in notes:
            self._inflight.append(note)
            self._trace("contract", "notify", _notify_payload(note))
        self._inflight.extend(receipts)

        self.clock = t + 1

    def run_to_quiescence(self) -> "World":
        """Step until quiescent; the scenario's `max_ticks` is the only tick budget."""
        while not self.quiescent():
            if self.clock >= self.config.max_ticks:
                raise MaxTicksExceeded(
                    f"world {self.name!r} still busy after {self.config.max_ticks} ticks: "
                    f"{len(self._inflight)} messages in flight, "
                    f"{len(self.chain.mempool)} mempool transactions, "
                    f"pending proposals on "
                    f"{sorted(sid for p in self.peers.values() for sid in p.pending)}"
                )
            self.step()
        return self


def run(scenario: Scenario) -> World:
    """Build a world from the scenario and drive it to quiescence."""
    return World(scenario).run_to_quiescence()


# --- dumps ---------------------------------------------------------------------


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data + b"\n")


def write_trace(trace: Sequence[TraceEvent], path: str | Path) -> None:
    """Write a trace as JSON Lines, one canonical event per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"".join(canonical_json(e.to_json_dict()) + b"\n" for e in trace))


def dump(world: World, out_dir: str | Path) -> Path:
    """Write the world's state in canonical form: tables, copies, contract, chain, trace."""
    out = Path(out_dir)
    manifest = {
        "name": world.name,
        "clock": world.clock,
        "principals": sorted(world.peers),
        "peers": {p: world.peers[p].to_json_dict() for p in sorted(world.peers)},
    }
    for principal in sorted(world.peers):
        peer = world.peers[principal]
        for tid in sorted(peer.tables):
            _write(out / "tables" / principal / f"{tid}.json", peer.tables[tid].canonical_bytes())
        for sid in sorted(peer.shared_copies):
            _write(out / "shared" / principal / f"{sid}.json", peer.shared_copies[sid].canonical_bytes())
    _write(out / "world.json", canonical_json(manifest))
    _write(out / "contract.json", world.contract.canonical_bytes())
    _write(out / "chain.json", world.chain.dumps())
    write_trace(world.trace, out / "trace.jsonl")
    return out


def load_dump(dump_dir: str | Path) -> World:
    """Rebuild a (quiescent) world from a dump directory.

    A missing, unparseable or inconsistent file raises ValidationError, except
    that a chain.json which fails its checks raises ChainCorrupt.
    """
    root = Path(dump_dir)

    def read(*parts: str):
        return json.loads(root.joinpath(*parts).read_text(encoding="utf-8"))

    def check(obj, doc, where: str):
        # Keys or values the decoder ignores would pass every later check. One
        # object at a time: re-encoding whole files costs extra full GC passes.
        if obj.to_json_dict() != doc:
            raise ValidationError(f"{where} holds keys or values a dump does not write")
        return obj

    def read_table(*parts: str) -> Table:
        doc = read(*parts)
        return check(Table.from_json_dict(doc), doc, "/".join(parts))

    def read_trace() -> list[TraceEvent]:
        # A function of its own, so the text lines are freed before the tables load.
        path = root / "trace.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
        return [TraceEvent.from_json_dict(json.loads(line)) for line in lines if line.strip()]

    try:
        manifest = read("world.json")
        contract_doc = read("contract.json")
        contract = ContractState.from_json_dict(contract_doc)
        if contract_doc.keys() != {"entries"}:
            raise ValidationError("contract.json holds keys a dump does not write")
        for sid, entry in contract_doc["entries"].items():
            check(contract.entries[sid], entry, "contract.json")
        chain = Chain.loads((root / "chain.json").read_bytes())
        trace = read_trace()
        # A world with no principals and an empty script, given the dumped state.
        world = World(Scenario(manifest["name"], (), {}, {}, (), ()))
        world.clock, world.trace, world.chain, world.contract = manifest["clock"], trace, chain, contract
        for principal in manifest["principals"]:
            info = manifest["peers"][principal]
            tables = {tid: read_table("tables", principal, f"{tid}.json") for tid in info["tables"]}
            copies = {sid: read_table("shared", principal, f"{sid}.json") for sid in info["versions"]}
            peer = PeerNode.from_json_dict(principal, info, tables, copies)
            world.peers[principal] = check(peer, info, "world.json")
        # name, clock, principals and peers, each read above, and nothing else
        if len(manifest) != 4 or manifest["principals"] != sorted(manifest["peers"]):
            raise ValidationError("world.json holds keys or values a dump does not write")
    except (OSError, ValueError, LookupError, TypeError, AttributeError, RelationalError, LensError) as exc:
        raise ValidationError(f"unreadable dump at {root}: {exc}") from exc
    return world


# --- convergence ----------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    shared_id: str
    check: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "PASS" if c.ok else "FAIL"
            suffix = f": {c.detail}" if c.detail and not c.ok else ""
            out.append(f"[{mark}] {c.shared_id}: {c.check}{suffix}")
        return out


def verify_convergence(world: World) -> Report:
    """Check that every share's two copies agree, match the contract digest,
    and equal the view regenerated from each holder's source."""
    if not world.quiescent():
        raise NotQuiescent("verify_convergence requires a quiescent world")
    checks: list[CheckResult] = []
    for sid, meta in sorted(world.contract.entries.items()):
        holders = sorted(meta.peers)
        copies = {}
        for p in holders:
            peer = world.peers.get(p)
            copy = peer.shared_copies.get(sid) if peer else None
            if copy is None:
                checks.append(CheckResult(sid, f"copy-present[{p}]", False, f"{p} holds no copy"))
            else:
                copies[p] = copy
        if len(copies) == 2:
            a, b = (copies[p] for p in holders)
            checks.append(
                CheckResult(sid, "copies-equal", a == b, "" if a == b else "peers' copies differ")
            )
        for p, copy in copies.items():
            ok = copy.digest() == meta.content_digest
            checks.append(
                CheckResult(
                    sid,
                    f"digest-matches-contract[{p}]",
                    ok,
                    "" if ok else f"copy digest {copy.digest()[:12]} != contract digest",
                )
            )
            regenerated = world.peers[p].regenerate_view(sid)
            ok = regenerated == copy
            checks.append(
                CheckResult(
                    sid,
                    f"copy-matches-source[{p}]",
                    ok,
                    "" if ok else "regenerated view differs from the held copy",
                )
            )
    return Report(tuple(checks))
