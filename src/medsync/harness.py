"""Scenario loading, the deterministic simulation loop, dumps, and convergence checks.

A scenario declares the principals, their local tables and lenses, the shares
to deploy, and a script of scheduled actions. The driver advances a global
tick; each tick t it (1) delivers every message sent in tick t-1, retried data
requests included, to peers in lexicographic order, (2) runs the script actions
of tick t, (3) sends the data requests and responses the peers returned in (1),
then (4) seals one block and (5) sends its notifications and receipts. The loop
stops at quiescence (no messages in flight, empty mempool, script exhausted).
There is no randomness anywhere: a scenario always yields the same trace,
chain, and dumps, byte for byte.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional, ParamSpec, Sequence, TypeVar, Union

from .contract import (
    TX_TYPES,
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
from .ledger import Block, Chain, Receipt
from .lenses import Lens, LensError, LensSpec, compile_lens
from .peer import (
    EDIT_KEYS,
    RETRY,
    DataRequest,
    DataResponse,
    Edit,
    Message,
    PeerError,
    PeerNode,
    ShareBinding,
)
from .relational import NotFound, RelationalError, Table, _encode, _only_keys, _typed, canonical_json, names_of


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


_P, _R = ParamSpec("_P"), TypeVar("_R")


def _collector_paused(fn: Callable[_P, _R]) -> Callable[_P, _R]:
    """`fn`, of any signature, run with the cyclic collector disabled, which is
    left as it was found on every exit, errors included.

    A decorated call builds what lives on (a parsed scenario, a world, a
    reload) or frees what it built, so a young pass would only walk its
    objects, again to promote them. So when it turns the collector back on,
    it first moves every tracked object to the oldest generation with
    `gc.freeze()` then `gc.unfreeze()`, each one list splice in CPython; the
    next young pass starts from an empty generation 0. It skips that while
    the caller holds frozen objects (`gc.get_freeze_count()` is nonzero),
    since `unfreeze` would thaw those too, and when the collector was off, as
    in a nested call. The promotion is a CPython-specific speed-up that
    changes no result: a cycle it moves is freed by the next full pass.

    A decorator, not a `with` block: a `with` statement allocates its manager
    before the collector is off, and a pass can start right there."""

    @functools.wraps(fn)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _R:
        collecting = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if collecting:
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()

    return paused


# --- scenario model ----------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    max_ticks: int = 100


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
    """A parsed scenario: `tables` and `lenses` map each principal to its tables and compiled lenses, by id."""

    name: str
    principals: tuple[str, ...]
    tables: Mapping[str, Mapping[str, Table]]
    lenses: Mapping[str, Mapping[str, Lens]]
    shares: tuple[ShareDeployment, ...]
    script: tuple[ScheduledAction, ...]
    config: SimConfig = field(default_factory=SimConfig)


_PLAIN = "a plain name (a non-empty string without / or \\, not . or ..)"


def _plain(name: object) -> bool:
    """True iff `name` is a string a dump can use as one path component."""
    return isinstance(name, str) and name not in ("", ".", "..") and "/" not in name and "\\" not in name


# The keys of each scenario object. Every scenario key is optional; an edit
# action holds its edit's keys and `kind`; `config` alone is open.
_SCENARIO_KEYS = frozenset({"name", "principals", "tables", "lenses", "shares", "script", "config"})
_SHARE_KEYS = frozenset({"shared_id", "deployer", "authority", "peers", "perm"})
_SCHEDULED_KEYS = frozenset({"tick", "principal", "action"})
_ACTION_KEYS = {
    "propose": frozenset({"kind", "shared_id"}),
    "change_permission": frozenset({"kind", "shared_id", "attr", "principals"}),
}
_EDIT_ACTION_KEYS = {op: keys | {"kind"} for op, keys in EDIT_KEYS.items()}


def _object(doc: object, where: str) -> dict:
    if type(doc) is not dict:
        raise ValidationError(f"{where} must be an object, got {type(doc).__name__}")
    return doc


def _each(doc: object, where: str, read: Callable, *context: object) -> list:
    """`read(item, *context)` for each item of the JSON list `doc`; an error names the item."""
    if type(doc) is not list:
        raise ValidationError(f"{where} must be a list, got {type(doc).__name__}")
    out = []
    for i, item in enumerate(doc):
        try:
            out.append(read(item, *context))
        except (ValidationError, RelationalError, LensError, LookupError, TypeError) as exc:
            raise ValidationError(f"{where}[{i}]: {exc}") from exc
    return out


def _read_table(d: Mapping) -> Table:
    table = Table.from_json_dict(d)
    if not _plain(table.id):
        raise ValidationError(f"the table id must be {_PLAIN}, got {table.id!r}")
    return table


def _read_lens(d: Mapping, tables: Mapping[str, Table], principal: str) -> Lens:
    spec = LensSpec.from_json_dict(d)
    source = tables.get(spec.source_table_id)
    if source is None:
        raise ValidationError(f"source table {spec.source_table_id!r} not held by {principal}")
    return compile_lens(spec, source.schema)


def _read_share(d: Mapping, lenses: Mapping[str, Mapping[str, Lens]]) -> ShareDeployment:
    _only_keys(d, _SHARE_KEYS, "a share")
    _typed(d, "a share", ("shared_id", "deployer", "authority"))
    shared_id, deployer, authority = d["shared_id"], d["deployer"], d["authority"]
    if not _plain(shared_id):
        raise ValidationError(f"the shared_id must be {_PLAIN}, got {shared_id!r}")
    peers = _object(d["peers"], "peers")  # dict() would also take a list of pairs
    if len(peers) != 2:
        raise ValidationError("a share has exactly two peers")
    for peer, lens_id in peers.items():
        if peer not in lenses:
            raise ValidationError(f"unknown principal {peer!r}")
        if not isinstance(lens_id, str) or lens_id not in lenses[peer]:
            raise ValidationError(f"{peer!r} has no lens {lens_id!r}")
    if deployer not in peers:
        raise ValidationError("the deployer must be a sharing peer")
    perm = {a: frozenset(names_of(p, f"perm[{a}]")) for a, p in _object(d["perm"], "perm").items()}
    # The contract decides the rest (authority, perm, duplicate ids) at genesis.
    return ShareDeployment(shared_id, deployer, authority, dict(peers), perm)


def _read_action(
    d: object, principal: str, tables: Mapping[str, Table], shares: Mapping[str, ShareDeployment]
) -> Action:
    """One action of `principal`, whose tables are `tables`."""
    kind = _object(d, "an action").get("kind")
    if kind == "edit":
        table_id, edit = Edit.from_json_dict(d, _EDIT_ACTION_KEYS)
        if table_id not in tables:
            raise ValidationError(f"{principal!r} has no table {table_id!r}")
        return EditAction(table_id, edit)
    if not isinstance(kind, str) or kind not in _ACTION_KEYS:
        raise ValidationError(f"unknown action kind {kind!r}")
    _only_keys(d, _ACTION_KEYS[kind], f"a {kind} action")
    shared_id = d["shared_id"]
    share = shares.get(shared_id) if isinstance(shared_id, str) else None
    if share is None:
        raise ValidationError(f"unknown shared_id {shared_id!r}")
    if kind == "propose":
        if principal not in share.lens_by_peer:
            raise ValidationError(f"{principal!r} does not share {shared_id!r}")
        return ProposeAction(shared_id)
    _typed(d, "a change_permission action", ("attr",))
    return PermChangeAction(shared_id, d["attr"], frozenset(names_of(d["principals"], "principals")))


def _read_scheduled(
    d: Mapping, tables: Mapping[str, Mapping[str, Table]], shares: Mapping[str, ShareDeployment]
) -> ScheduledAction:
    _only_keys(d, _SCHEDULED_KEYS, "a scheduled action")
    tick, principal = d["tick"], d["principal"]
    if type(tick) is not int or tick < 0:  # a bool is no tick
        raise ValidationError("script ticks must be non-negative and non-decreasing integers")
    if not isinstance(principal, str) or principal not in tables:
        raise ValidationError(f"unknown principal {principal!r}")
    return ScheduledAction(tick, principal, _read_action(d["action"], principal, tables[principal], shares))


@_collector_paused
def scenario_from_json_dict(doc: Mapping, name: str = "scenario") -> Scenario:
    """Parse a scenario from its JSON form: one reader per object, which refuses
    keys it does not read, and cross-references resolved through maps. The
    cyclic collector is paused meanwhile, as `_collector_paused` says."""
    doc = {"name": name, "principals": [], "tables": {}, "lenses": {}, "shares": [], "script": [], "config": {}, **doc}
    try:
        _only_keys(doc, _SCENARIO_KEYS, "a scenario (each key optional)")  # a misspelt key would otherwise be dropped
        _typed(doc, "a scenario", ("name",))
        principals = names_of(doc["principals"], "principals")
    except RelationalError as exc:
        raise ValidationError(str(exc)) from exc
    if not principals or not all(map(_plain, principals)) or len(set(principals)) != len(principals):
        raise ValidationError(f"principals must be a non-empty list of unique names, each {_PLAIN}")

    tables: dict[str, dict[str, Table]] = {p: {} for p in principals}
    for p, docs in _object(doc["tables"], "tables").items():
        if p not in tables:
            raise ValidationError(f"tables[{p}]: unknown principal")
        tables[p] = {t.id: t for t in _each(docs, f"tables[{p}]", _read_table)}
        if len(tables[p]) != len(docs):
            raise ValidationError(f"tables[{p}]: duplicate table ids")

    lenses: dict[str, dict[str, Lens]] = {p: {} for p in principals}
    for p, docs in _object(doc["lenses"], "lenses").items():
        if p not in lenses:
            raise ValidationError(f"lenses[{p}]: unknown principal")
        lenses[p] = {lens.spec.lens_id: lens for lens in _each(docs, f"lenses[{p}]", _read_lens, tables[p], p)}
        if len(lenses[p]) != len(docs):
            raise ValidationError(f"lenses[{p}]: duplicate lens ids")

    shares = _each(doc["shares"], "shares", _read_share, lenses)
    script = _each(doc["script"], "script", _read_scheduled, tables, {s.shared_id: s for s in shares})
    for i in range(1, len(script)):
        if script[i].tick < script[i - 1].tick:
            raise ValidationError(f"script[{i}]: script ticks must be non-negative and non-decreasing integers")

    max_ticks = _object(doc["config"], "config").get("max_ticks", SimConfig.max_ticks)
    if type(max_ticks) is not int or max_ticks < 0:
        raise ValidationError(f"config: max_ticks must be a non-negative integer, got {max_ticks!r}")
    return Scenario(doc["name"], principals, tables, lenses, tuple(shares), tuple(script), SimConfig(max_ticks))


def load_scenario(path: str | Path) -> Scenario:
    """Read, parse, and validate a scenario file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, or UnicodeDecodeError
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: scenario must be a JSON object")
    try:
        return scenario_from_json_dict(doc, name=path.stem.replace(".scenario", ""))
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        # A value of the wrong JSON type can trip any field access.
        raise ValidationError(f"{path}: malformed scenario: {exc}") from exc


# --- tracing ------------------------------------------------------------------


class TraceEvent(NamedTuple):
    """One traced event; a tuple, so building the tens of thousands a trace holds stays cheap."""

    tick: int
    seq: int
    actor: str
    kind: str  # edit|propose|block|verdict|notify|data_req|data_resp|put_applied|cascade
    payload: Mapping[str, object]

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "payload": dict(self.payload)}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "TraceEvent":
        if len(d) != 5:  # the five keys below, each read, and nothing else
            raise ValueError("a trace event holds keys an event does not write")
        tick, seq, actor, kind, payload = d["tick"], d["seq"], d["actor"], d["kind"], d["payload"]
        ints = type(tick) is type(seq) is int  # a bool is no tick
        if not (ints and isinstance(actor, str) and isinstance(kind, str) and isinstance(payload, dict)):
            raise ValueError("a trace event has integer tick and seq, string actor and kind, and an object payload")
        return cls(tick, seq, actor, kind, payload)


def _propose_event(tx: Transaction) -> tuple[str, str, dict]:
    """The `propose` event of a submitted transaction, as (actor, kind, payload)."""
    # The requester is the event's actor, so the payload leaves it out.
    payload = {k: v for k, v in tx_to_json_dict(tx).items() if k != "requester"}
    return tx_submitter(tx), "propose", payload


def _verdict_payload(tx: Transaction, verdict: Verdict) -> dict:
    payload: dict[str, object] = {"shared_id": tx_shared_id(tx), "tx": TX_TYPES[type(tx)], "ok": verdict.ok}
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


# The string and the integer payload keys of each kind the audit neither rebuilds nor reads as an `Edit`.
_PAYLOAD_TYPES = {
    "data_req": (("shared_id", "from", "to"), ("requested_version",)),
    "data_resp": (("shared_id", "from", "to", "digest"), ("version",)),
    "put_applied": (("shared_id", "source_table"), ("version",)),
    "cascade": (("after_merge_of", "shared_id"), ()),
}


def _block_events(block: Block, notes: Sequence[Notification]) -> list[tuple[str, str, dict]]:
    """The events of one sealed block, as (actor, kind, payload): the block, its verdicts, its notifications."""
    return [
        ("ledger", "block", {"index": block.index, "txs": len(block.txs)}),
        *((tx_submitter(tx), "verdict", _verdict_payload(tx, v)) for tx, v in block.txs),
        *(("contract", "notify", _notify_payload(note)) for note in notes),
    ]


def trace_mismatch(world: World) -> Optional[str]:
    """How the world's trace disagrees with its chain, or None when it agrees.

    Tick t seals block t + 1, so the trace's ticks, in order, must be exactly
    0, 1, ..., n-1 for the chain's n blocks after genesis, and each tick is read
    against its block as `Chain.replayed` re-executes it; a chain that fails
    replay raises ChainCorrupt when the walk reaches the failing block. A tick's
    events must end with exactly the events the tick loop emits for its block:
    the block itself (index, transaction count), a `verdict` per transaction and
    a `notify` per notification the replay derives, each at the block's tick,
    which is thereby the tick's own; no `block`, `verdict` or `notify` event
    comes earlier. The tick's `propose` events must be its block's transactions,
    in order. These rebuilt events are compared with the trace's by canonical
    JSON, not `==`, so a value of another JSON type that compares equal (`1`
    for `true`, `1.0` for `1`) is a mismatch.
    A `data_req`, `data_resp`, `put_applied` or `cascade` payload holds exactly
    its kind's string and integer keys. Each `data_req` and `data_resp` goes
    from its actor to the share's other peer; a `data_req` asks for a version
    an earlier block registered, and a `data_resp` carries the digest the chain
    registered for its share and version and answers an earlier `data_req` of
    its recipient on that share that no other `data_resp` answered; no
    `data_req` is left unanswered at the end. Each `put_applied` follows a
    `data_resp` to its actor for that share and version, and names the actor's
    source table of the share. Each `cascade` follows its actor's `put_applied`
    of `after_merge_of` in its tick and comes right before the actor's
    `propose` of its share. An `edit` is read as the scenario parser reads an
    edit action (`Edit`), and must fit the schema of the actor's table it
    names; what it changed is not checked, because the script is not in the
    dump. Event `seq` numbers must run 0..n-1, and no other kind of event may
    occur.
    """
    trace = world.trace
    for seq, event in enumerate(trace):
        if event.seq != seq:
            return f"event {seq} carries seq {event.seq}"

    blocks = world.chain.replayed()
    _, state, _ = next(blocks)  # genesis: the deployments, whose events are not traced
    registered = {(sid, 0): e.content_digest for sid, e in state.entries.items()}  # (share, version) -> digest
    requests: Counter = Counter()  # (requester, share) of data_req events not yet answered
    responses: Counter = Counter()  # (to, share, version) of data_resp events not yet applied
    ticks = [(tick, list(events)) for tick, events in itertools.groupby(trace, key=lambda e: e.tick)]
    if [tick for tick, _ in ticks] != list(range(len(world.chain.blocks) - 1)):
        return f"the trace's ticks are not 0 to {len(world.chain.blocks) - 2}, one per block after genesis"
    for (tick, events), (block, after, notes) in zip(ticks, blocks):
        closing = [(block.tick, *e) for e in _block_events(block, notes)]
        body = events[: len(events) - len(closing)]
        if _encode([(e.tick, e.actor, e.kind, e.payload) for e in events[len(body) :]]) != _encode(closing):
            return f"the events of tick {tick} do not end with block {block.index}'s"
        proposed = [(e.actor, e.kind, e.payload) for e in body if e.kind == "propose"]
        if _encode(proposed) != _encode([_propose_event(tx) for tx, _ in block.txs]):
            return f"the propose events of tick {tick} are not block {block.index}'s transactions"
        merged: set[tuple[str, str]] = set()  # (actor, share) of this tick's put_applied events
        for i, event in enumerate(body):
            seq, p = event.seq, event.payload
            try:
                if event.kind in _PAYLOAD_TYPES:
                    strs, ints = _PAYLOAD_TYPES[event.kind]
                    if len(p) != len(strs) + len(ints):  # each key is read just below
                        return f"event {seq} holds payload keys the tick loop does not write"
                    _typed(p, f"a {event.kind} payload", strs, ints)
                if event.kind in ("data_req", "data_resp"):
                    sid = p["shared_id"]
                    if p["from"] != event.actor or {event.actor, p["to"]} != state.entries[sid].peers:
                        return f"event {seq} is not sent from its actor to the share's other peer"
                    if event.kind == "data_resp":
                        if registered.get((sid, p["version"])) != p["digest"]:
                            return f"event {seq} carries a digest the chain does not register for its version"
                        if not requests[p["to"], sid]:
                            return f"event {seq} answers no unanswered data_req"
                        requests[p["to"], sid] -= 1
                        responses[p["to"], sid, p["version"]] += 1
                    elif (sid, p["requested_version"]) not in registered:
                        return f"event {seq} requests a version the chain has not registered"
                    else:
                        requests[event.actor, sid] += 1
                elif event.kind == "put_applied":
                    key = (event.actor, p["shared_id"], p["version"])
                    if not responses[key]:
                        return f"event {seq} applies data no data_resp event carried"
                    if p["source_table"] != world.peers[event.actor].shares[p["shared_id"]].source_id:
                        return f"event {seq} names a table other than the share's source at its actor"
                    responses[key] -= 1
                    merged.add((event.actor, p["shared_id"]))
                elif event.kind == "cascade":
                    if (event.actor, p["after_merge_of"]) not in merged:
                        return f"event {seq} cascades from no merge of its actor in its tick"
                    following = [(e.actor, e.kind, e.payload.get("shared_id")) for e in body[i + 1 : i + 2]]
                    if following != [(event.actor, "propose", p["shared_id"])]:
                        return f"event {seq} is not followed by its actor's propose of its share"
                elif event.kind == "edit":
                    table_id, edit = Edit.from_json_dict(p)
                    if event.actor not in world.peers or table_id not in world.peers[event.actor].tables:
                        return f"event {seq} edits a table its actor does not hold"
                    with suppress(NotFound):  # on no rows, an edit's fit to the table's schema is all that is checked
                        edit.applied_to(Table.empty(table_id, world.peers[event.actor].tables[table_id].schema))
                elif event.kind != "propose":  # checked with the tick's block; its events close the tick
                    return f"event {seq} has kind {event.kind!r}, which no event before its tick's block has"
            except (LookupError, TypeError, RelationalError) as exc:  # a payload of the wrong shape, or another's share
                return f"event {seq} has a malformed payload: {exc}"
        state = after
        for note in notes:
            registered[note.shared_id, note.new_version] = state.entries[note.shared_id].content_digest
    return "the trace leaves a data_req unanswered" if any(requests.values()) else None


# --- the world ----------------------------------------------------------------


class World:
    """All simulation state: peers, chain, contract, in-flight messages, clock."""

    @_collector_paused
    def __init__(self, scenario: Scenario) -> None:
        self.name = scenario.name
        self.config = scenario.config
        self.clock = 0
        self.trace: list[TraceEvent] = []
        self.peers: dict[str, PeerNode] = {}
        self._inflight: list[Message] = []  # sent this tick, delivered next tick, in send order
        self._script: tuple[ScheduledAction, ...] = scenario.script
        self._script_pos = 0
        self._build(scenario)

    def _build(self, scenario: Scenario) -> None:
        bindings: dict[str, dict[str, ShareBinding]] = {p: {} for p in scenario.principals}
        for share in scenario.shares:
            for peer, lens_id in share.lens_by_peer.items():
                (counterpart,) = set(share.lens_by_peer) - {peer}
                bindings[peer][share.shared_id] = ShareBinding(share.shared_id, lens_id, counterpart)

        for p in sorted(scenario.principals):
            self.peers[p] = PeerNode(p, scenario.tables[p], scenario.lenses[p], bindings[p])

        self.chain = Chain()
        for share in sorted(scenario.shares, key=lambda s: s.shared_id):
            first, second = (self.peers[p] for p in share.lens_by_peer)
            try:
                initial = first.install_share(share.shared_id)
                # The second peer holds `initial` itself when its own view equals it.
                other = second.install_share(share.shared_id, agreed=initial)
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
            self.chain.submit(DeployTx(meta, share.deployer))

        self.contract, _, receipts = self.chain.produce_block(ContractState.empty(), 0)  # genesis
        for receipt in receipts:
            if not receipt.verdict.ok:
                raise ValidationError(f"share {receipt.tx.meta.shared_id!r}: {receipt.verdict.detail}")

    # -- bookkeeping -----------------------------------------------------------

    def _trace(self, actor: str, kind: str, payload: Mapping[str, object]) -> None:
        self.trace.append(TraceEvent(self.clock, len(self.trace), actor, kind, payload))

    def _submit(self, tx: Union[UpdateTx, PermChangeTx]) -> None:
        self.chain.submit(tx)
        self._trace(*_propose_event(tx))

    def quiescent(self) -> bool:
        """No messages in flight, empty mempool, script done.

        No peer needs a look: a staged proposal has its transaction in the
        mempool or its receipt in flight, and a peer holds no unsent message.
        """
        return not self._inflight and not self.chain.mempool and self._script_pos >= len(self._script)

    # -- the tick loop -----------------------------------------------------------

    def _dispatch(self, peer: PeerNode, message: Message, sent: list[Message]) -> None:
        """Deliver `message` to `peer` and route what it returns: a proposal to the ledger, data onto `sent`."""
        if isinstance(message, Notification):
            out = peer.on_notification(message)
        elif isinstance(message, Receipt):
            out = peer.on_receipt(message)
        elif isinstance(message, DataRequest):
            out = peer.on_data_request(message)
        elif isinstance(message, DataResponse):
            meta = query_metadata(self.contract, message.shared_id)
            outcome = peer.on_data_response(message, meta)
            if outcome.applied:
                source = peer.shares[message.shared_id].source_id
                payload = {"shared_id": message.shared_id, "source_table": source, "version": message.version}
                self._trace(peer.principal, "put_applied", payload)
            for tx in outcome.cascade_txs:
                payload = {"after_merge_of": message.shared_id, "shared_id": tx.shared_id}
                self._trace(peer.principal, "cascade", payload)
                self._submit(tx)
            out = outcome.refetch
        else:
            raise TypeError(f"unroutable message {message!r}")
        if isinstance(out, UpdateTx):
            self._submit(out)
        elif out == RETRY:  # the request waits in flight for the version it asks for
            self._inflight.append(message)
        elif out is not None:
            sent.append(out)

    def _run_action(self, scheduled: ScheduledAction) -> None:
        peer = self.peers[scheduled.principal]
        action = scheduled.action
        if isinstance(action, EditAction):
            peer.local_edit(action.table_id, action.edit)
            self._trace(peer.principal, "edit", action.edit.to_json_dict(action.table_id))
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
        sent: list[Message] = []
        for message in due:
            try:
                self._dispatch(self.peers[message.to], message, sent)
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

        # A peer sends only while a message to it is dispatched (no script action
        # fetches or serves), and `due` is dispatched in stable recipient order:
        # so `sent` is in principal order, each peer's messages in send order.
        for msg in sent:
            route = {"shared_id": msg.shared_id, "from": msg.sender, "to": msg.to}
            if isinstance(msg, DataRequest):
                self._trace(msg.sender, "data_req", {**route, "requested_version": msg.requested_version})
            else:
                self._trace(msg.sender, "data_resp", {**route, "version": msg.version, "digest": msg.table.digest()})
        self._inflight.extend(sent)

        self.contract, notes, receipts = self.chain.produce_block(self.contract, t)
        for event in _block_events(self.chain.blocks[-1], notes):
            self._trace(*event)
        self._inflight.extend(notes)
        self._inflight.extend(receipts)

        self.clock = t + 1

    def run_to_quiescence(self) -> "World":
        """Step until quiescent; the scenario's `max_ticks` is the only tick budget."""
        while not self.quiescent():
            if self.clock >= self.config.max_ticks:
                stuck = f" (the oldest: {_described(self._inflight[0])})" if self._inflight else ""
                raise MaxTicksExceeded(
                    f"world {self.name!r} still busy after {self.config.max_ticks} ticks: "
                    f"{len(self._inflight)} messages in flight{stuck}, "
                    f"{len(self.chain.mempool)} mempool transactions, "
                    f"{len(self._script) - self._script_pos} script actions not yet run, "
                    f"pending proposals on "
                    f"{sorted(sid for p in self.peers.values() for sid, s in p.shares.items() if s.staged)}"
                )
            self.step()
        return self


def _described(message: Message) -> str:
    """A message's type, share, sender and recipient; notifications and receipts come from the ledger."""
    shared_id = message.tx.shared_id if isinstance(message, Receipt) else message.shared_id
    sender = getattr(message, "sender", "the ledger")
    return f"{type(message).__name__} on share {shared_id!r} from {sender} to {message.to}"


def run(scenario: Scenario) -> World:
    """Build a world from the scenario and drive it to quiescence."""
    return World(scenario).run_to_quiescence()


# --- dumps ---------------------------------------------------------------------


def _write(path: Path, data: bytes) -> None:
    path.write_bytes(data + b"\n")


def _trace_bytes(trace: Sequence[TraceEvent]) -> bytes:
    """`canonical_json(e.to_json_dict()) + b"\n"` for each event, joined.

    An event's five keys sort as actor, kind, payload, seq, tick, so each line
    is assembled around one encode of its payload; the few actor and kind
    names are encoded once each.
    """
    name = functools.cache(_encode)
    lines = [
        f'{{"actor":{name(e.actor)},"kind":{name(e.kind)},"payload":{_encode(e.payload)},'
        f'"seq":{e.seq},"tick":{e.tick}}}\n'
        for e in trace
    ]
    return "".join(lines).encode("utf-8")


def write_trace(trace: Sequence[TraceEvent], path: str | Path) -> None:
    """Write a trace as JSON Lines, one canonical event per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(_trace_bytes(trace))


_scan = json.JSONDecoder().scan_once  # raises StopIteration where no value starts


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Read a trace written by `write_trace`: one JSON event per line.

    The file is read line by line with universal newlines, so lines end at
    "\n", "\r\n" or "\r", and at nothing else: canonical JSON leaves U+2028,
    U+2029 and U+0085 unescaped, and str.splitlines would split inside a string
    there. A line of spaces and tabs alone is skipped; any other line, with its
    spaces and tabs stripped, must hold exactly one event.
    """
    event = TraceEvent.from_json_dict
    events = []
    with open(path, encoding="utf-8") as lines:
        for number, line in enumerate(lines, 1):
            line = line.strip(" \t\n")
            if not line:
                continue
            try:
                doc, end = _scan(line, 0)
            except StopIteration:
                end = None
            if end != len(line):
                raise ValueError(f"trace line {number} does not hold exactly one event")
            events.append(event(doc))
    return events


def _manifest(world: World) -> dict:
    """`world.json`: the world's name and clock, and each peer's dump entry."""
    return {
        "name": world.name,
        "clock": world.clock,
        "principals": sorted(world.peers),
        "peers": {p: world.peers[p].to_json_dict() for p in sorted(world.peers)},
    }


def dump(world: World, out_dir: str | Path) -> Path:
    """Write the world's state in canonical form: tables, copies, contract, chain, trace.

    Each directory is made once, before its first file.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    peers = [world.peers[p] for p in sorted(world.peers)]
    tables = {peer.principal: peer.tables for peer in peers}
    copies = {peer.principal: {sid: s.copy for sid, s in peer.shares.items() if s.copy is not None} for peer in peers}
    for sub, held in (("tables", tables), ("shared", copies)):
        held = {principal: by_id for principal, by_id in held.items() if by_id}
        if held:
            (out / sub).mkdir(exist_ok=True)
        for principal, by_id in held.items():
            (out / sub / principal).mkdir(exist_ok=True)
            for name, table in by_id.items():
                _write(out / sub / principal / f"{name}.json", table.canonical_bytes())
    _write(out / "world.json", canonical_json(_manifest(world)))
    _write(out / "contract.json", world.contract.canonical_bytes())
    _write(out / "chain.json", world.chain.dumps())
    (out / "trace.jsonl").write_bytes(_trace_bytes(world.trace))
    return out


@_collector_paused
def load_dump(dump_dir: str | Path) -> World:
    """Rebuild a (quiescent) world from a dump directory.

    A missing, unparseable or inconsistent file raises ValidationError, except
    that a chain.json which fails its checks raises ChainCorrupt. world.json
    and contract.json are accepted only when the world and contract rebuilt
    from them re-encode to the JSON that was read; the rebuilt world's clock
    is the chain's, one tick per block after genesis. Table files
    of identical text are decoded once and share one `Table`, as a quiescent
    dump's two copies of a share do; each file's id is still checked. The cyclic
    collector is paused meanwhile, and left as it was found: the reload builds
    each object once and frees almost nothing, so a collector pass would only
    walk what was just built.
    """
    root = Path(dump_dir)

    def read(*parts: str):
        return json.loads(root.joinpath(*parts).read_text(encoding="utf-8"))

    decoded: dict[str, Table] = {}  # file text -> its table: tables are immutable, so equal files share one

    def read_table(sub: str, principal: str, name: str) -> Table:
        text = root.joinpath(sub, principal, f"{name}.json").read_text(encoding="utf-8")
        table = decoded.get(text)
        if table is None:
            # The decoder refuses unread keys, and rows out of the order a dump writes.
            table = decoded[text] = Table.from_json_dict(json.loads(text), in_key_order=True)
        if table.id != name:
            raise ValidationError(f"{sub}/{principal}/{name}.json holds table {table.id!r}")
        return table

    try:
        manifest = read("world.json")
        _typed(manifest, "world.json", ("name",), ("clock",))
        contract_doc = read("contract.json")
        contract = ContractState.from_json_dict(contract_doc)
        # Keys or values the decoders ignore would pass every later check.
        if contract.to_json_dict() != contract_doc:
            raise ValidationError("contract.json holds keys or values a dump does not write")
        chain = Chain.loads((root / "chain.json").read_bytes())
        trace = read_trace(root / "trace.jsonl")
        # A world with no principals and an empty script, given the dumped state.
        world = World(Scenario(manifest["name"], (), {}, {}, (), ()))
        # Tick t seals block t + 1, so the clock is the chain's; world.json's must agree.
        world.clock, world.trace, world.chain, world.contract = len(chain.blocks) - 1, trace, chain, contract
        for principal in manifest["principals"]:
            info = manifest["peers"][principal]
            if not all(map(_plain, [principal, *info["tables"], *info["versions"]])):
                raise ValidationError(f"world.json's principal, table and share names must each be {_PLAIN}")
            _typed(info["versions"], f"world.json's share versions of {principal}", (), tuple(info["versions"]))
            tables = {tid: read_table("tables", principal, tid) for tid in info["tables"]}
            copies = {sid: read_table("shared", principal, sid) for sid in info["versions"]}
            peer = world.peers[principal] = PeerNode.from_json_dict(principal, info, tables, copies)
            for sid, share in peer.shares.items():
                if contract.entries[sid].peers != {principal, share.binding.counterpart}:
                    raise ValidationError(f"world.json: {principal}'s counterpart on {sid} is not its other peer")
        if _manifest(world) != manifest:
            raise ValidationError("world.json holds keys or values a dump does not write")
    except (
        OSError, ValueError, LookupError, TypeError, AttributeError, RecursionError, RelationalError, LensError, PeerError
    ) as exc:
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


@_collector_paused
def verify_convergence(world: World) -> Report:
    """Check that every share's two copies agree, match the contract's digest
    and version, and equal the view derived from each holder's whole source;
    a view that cannot be derived fails that last check.

    The derivation is a cache-free `lenses.get`: the lens's definition in
    whole-table passes, which neither reads the peers' lens caches nor runs
    the incremental engine that maintains them, so the check tests that
    engine against an independent derivation. The cyclic collector is paused
    meanwhile, and left as it was found: a derivation allocates a cell tuple
    per view row and frees it once compared, so a collector pass would only
    walk objects that cannot form a cycle."""
    if not world.quiescent():
        raise NotQuiescent("verify_convergence requires a quiescent world")
    checks: list[CheckResult] = []
    for sid, meta in sorted(world.contract.entries.items()):
        holders = sorted(meta.peers)
        copies = {}
        for p in holders:
            share = world.peers[p].shares.get(sid) if p in world.peers else None
            copy = share.copy if share else None
            if copy is None:
                checks.append(CheckResult(sid, f"copy-present[{p}]", False, f"{p} holds no copy"))
            else:
                copies[p] = copy
        if len(copies) == 2:
            a, b = (copies[p] for p in holders)
            ok = a == b
            checks.append(CheckResult(sid, "copies-equal", ok, "" if ok else "peers' copies differ"))
        for p, copy in copies.items():
            version = world.peers[p].shares[sid].version
            wrong = []
            digest = copy.digest()
            if digest != meta.content_digest:
                wrong.append(f"copy digest {digest[:12]} != contract digest")
            if version != meta.version:
                wrong.append(f"copy version {version!r} != contract version {meta.version}")
            checks.append(CheckResult(sid, f"digest-matches-contract[{p}]", not wrong, "; ".join(wrong)))
            try:  # a reloaded source may break its lens
                ok = world.peers[p].derive_view(sid) == copy
                detail = "" if ok else "regenerated view differs from the held copy"
            except (LensError, RelationalError) as exc:
                ok, detail = False, f"the view cannot be derived: {exc}"
            checks.append(CheckResult(sid, f"copy-matches-source[{p}]", ok, detail))
    return Report(tuple(checks))
