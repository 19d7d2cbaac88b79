"""Simulated single-producer ledger: mempool, hash-chained blocks, replay.

Blocks record every submitted transaction together with its verdict, accepted
or not, so denied attempts stay auditable. Within one block at most one update
per shared table is accepted; later updates on the same table are rejected
outright and must be resubmitted against the new version. Replay re-executes
the whole chain from the genesis block, reconstructing the contract state and
re-deriving every recorded verdict. Tampering with a dumped chain is detected
by the digest linkage, by JSON its blocks do not re-encode to, or by a verdict
that replay does not reproduce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .contract import (
    ContractState,
    DeployTx,
    Notification,
    PermChangeTx,
    Principal,
    RejectReason,
    Transaction,
    UpdateTx,
    Verdict,
    apply_update,
    change_permission,
    deploy,
    tx_from_json_dict,
    tx_shared_id,
    tx_submitter,
    tx_to_json_dict,
    validate_deploy,
    validate_perm_change,
    validate_update,
)
from .relational import ZERO_DIGEST, _typed, canonical_json, sha256_hex


class ChainCorrupt(Exception):
    """The chain's linkage, digests, or encoding do not check out."""


@dataclass(frozen=True)
class Receipt:
    """Returned to a transaction's submitter once it has been sealed in a block."""

    tx: Transaction
    verdict: Verdict
    to: Principal


@dataclass(frozen=True)
class Block:
    index: int
    tick: int
    txs: tuple[tuple[Transaction, Verdict], ...]
    prev_digest: str
    block_digest: str
    # The canonical JSON of `_body`, which the digest covers and a dump writes: what `build` hashed,
    # or what `Chain.verify` checked a decoded block's digest over. No block is encoded twice.
    body: bytes = field(default=b"", repr=False, compare=False)

    @staticmethod
    def _body(
        index: int, tick: int, txs: Sequence[tuple[Transaction, Verdict]], prev_digest: str
    ) -> dict:
        """Everything the block digest covers: the block less its own digest."""
        return {
            "index": index,
            "tick": tick,
            "prev_digest": prev_digest,
            "txs": [{"tx": tx_to_json_dict(tx), "verdict": v.to_json_dict()} for tx, v in txs],
        }

    @classmethod
    def build(
        cls, index: int, tick: int, txs: Sequence[tuple[Transaction, Verdict]], prev_digest: str
    ) -> "Block":
        body = canonical_json(cls._body(index, tick, txs, prev_digest))
        return cls(index, tick, tuple(txs), prev_digest, sha256_hex(body), body)

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Block":
        # A bool is no index or tick: `true` would pass as block 1, under a digest over `true`.
        _typed(d, "a block", ("prev_digest", "block_digest"), ("index", "tick"))
        txs = tuple((tx_from_json_dict(e["tx"]), Verdict.from_json_dict(e["verdict"])) for e in d["txs"])
        return cls(d["index"], d["tick"], txs, d["prev_digest"], d["block_digest"])


def execute_block(
    state: ContractState, txs: Sequence[Transaction], tick: int
) -> tuple[ContractState, list[Verdict], list[Notification]]:
    """Run one block's transactions in order against the evolving contract state.

    Returns the new state, one verdict per transaction, and the notifications
    of the accepted updates. Only `Chain` calls it, in `produce_block` and
    `replayed`, and nothing else writes the registry: it copies the entries
    once, then each accepted transaction's apply step replaces one entry.
    An update whose shared table already saw an accepted update in this block
    is rejected with BlockedBySerialization regardless of its own merits; the
    submitter must refetch and resubmit.
    """
    entries = dict(state.entries)
    state = ContractState(entries)
    verdicts: list[Verdict] = []
    notes: list[Notification] = []
    updated: set[str] = set()
    for tx in txs:
        if isinstance(tx, UpdateTx):
            if tx.shared_id in updated:
                verdict = Verdict.reject(
                    RejectReason.BLOCKED_BY_SERIALIZATION,
                    f"{tx.shared_id!r} already updated in this block",
                )
            else:
                verdict = validate_update(state, tx)
                if verdict.ok:
                    entries[tx.shared_id], new_notes = apply_update(entries[tx.shared_id], tx, tick)
                    notes.extend(new_notes)
                    updated.add(tx.shared_id)
        elif isinstance(tx, DeployTx):
            verdict = validate_deploy(state, tx)
            if verdict.ok:
                entries[tx.meta.shared_id] = deploy(tx.meta, tick)
        elif isinstance(tx, PermChangeTx):
            verdict = validate_perm_change(state, tx)
            if verdict.ok:
                entries[tx.shared_id] = change_permission(entries[tx.shared_id], tx, tick)
        else:
            raise TypeError(f"unknown transaction {tx!r}")
        verdicts.append(verdict)
    return state, verdicts, notes


class Chain:
    """The ledger: an append-only block list plus a FIFO mempool.

    Owned by a single driver; block production is the system's serialization
    point. A chain starts with no block. Its first, the genesis block, is
    sealed like any other and carries the scenario's deployments, so a replay
    from scratch reproduces the full contract state.
    """

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.mempool: list[Transaction] = []  # in arrival order

    def submit(self, tx: Transaction) -> None:
        """Queue a transaction for the next block."""
        self.mempool.append(tx)

    def produce_block(
        self, contract_state: ContractState, tick: int
    ) -> tuple[ContractState, list[Notification], list[Receipt]]:
        """Seal the mempool into the next block, executed in arrival order; genesis links to ZERO_DIGEST."""
        txs, self.mempool = self.mempool, []
        state, verdicts, notes = execute_block(contract_state, txs, tick)
        recorded = list(zip(txs, verdicts))
        prev_digest = self.blocks[-1].block_digest if self.blocks else ZERO_DIGEST
        self.blocks.append(Block.build(len(self.blocks), tick, recorded, prev_digest))
        return state, notes, [Receipt(tx, v, tx_submitter(tx)) for tx, v in recorded]

    def verify(self, encoded: Sequence[Mapping]) -> None:
        """Raise ChainCorrupt unless links and digests check out and blocks re-encode to `encoded`."""
        prev_digest = ZERO_DIGEST
        for i, block in enumerate(self.blocks):
            if block.index != i:
                raise ChainCorrupt(f"block {i} carries index {block.index}")
            if block.prev_digest != prev_digest:
                raise ChainCorrupt(f"block {i} does not link to its predecessor")
            body = Block._body(block.index, block.tick, block.txs, block.prev_digest)
            if {**body, "block_digest": block.block_digest} != encoded[i]:
                raise ChainCorrupt(f"block {i} holds keys or values its encoding does not write")
            data = canonical_json(body)
            if sha256_hex(data) != block.block_digest:
                raise ChainCorrupt(f"block {i} digest mismatch")
            object.__setattr__(block, "body", data)
            prev_digest = block.block_digest

    def replayed(self) -> Iterator[tuple[Block, ContractState, list[Notification]]]:
        """Re-execute each block from genesis on, yielding it with the contract
        state after it and its notifications. A recorded verdict, accepted or
        rejected, that replay does not re-derive, or a block that fails to
        execute, means the chain was tampered with and raises ChainCorrupt
        before the block is yielded. Links and digests are not re-checked: a
        chain read from bytes was verified by `loads`, and a live chain was
        built by `produce_block`."""
        state = ContractState.empty()
        for block in self.blocks:
            try:
                state, verdicts, notes = execute_block(state, [tx for tx, _ in block.txs], block.tick)
            except Exception as exc:  # tampered transactions can trip any contract check
                raise ChainCorrupt(f"block {block.index}: fails on replay: {exc}") from exc
            for i, ((_tx, recorded), derived) in enumerate(zip(block.txs, verdicts)):
                if recorded != derived:
                    raise ChainCorrupt(
                        f"block {block.index}, transaction {i}: recorded verdict "
                        f"{recorded.to_json_dict()} but replay gives {derived.to_json_dict()}"
                    )
            yield block, state, notes

    def replay(self) -> ContractState:
        """The state `replayed` leaves; it must equal the incrementally maintained one."""
        state = ContractState.empty()
        for _, state, _ in self.replayed():
            pass
        return state

    def history(self, shared_id: str) -> list[tuple[int, Transaction, Verdict]]:
        """Every transaction referencing the shared table, in chain order."""
        out = []
        for block in self.blocks:
            for tx, verdict in block.txs:
                if tx_shared_id(tx) == shared_id:
                    out.append((block.tick, tx, verdict))
        return out

    def dumps(self) -> bytes:
        """The canonical JSON of the blocks: each its digest, the first key in sorted order, then its kept body."""
        blocks = (b'{"block_digest":"%s",%s' % (b.block_digest.encode(), b.body[1:]) for b in self.blocks)
        return b"[" + b",".join(blocks) + b"]"

    @classmethod
    def from_json_list(cls, blocks: Sequence[Mapping]) -> "Chain":
        chain = cls()
        try:
            chain.blocks = [Block.from_json_dict(b) for b in blocks]
        except Exception as exc:  # tampering can trip any decoding layer
            raise ChainCorrupt(f"malformed chain dump: {exc}") from exc
        if not chain.blocks:
            raise ChainCorrupt("chain dump has no genesis block")
        chain.verify(blocks)
        return chain

    @classmethod
    def loads(cls, data: bytes | str) -> "Chain":
        """Parse and verify a dumped chain; any tampering raises ChainCorrupt."""
        try:
            parsed = json.loads(data)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, or nesting too deep
            raise ChainCorrupt(f"chain dump is not valid JSON: {exc}") from exc
        if not isinstance(parsed, list):
            raise ChainCorrupt("chain dump must be a JSON list of blocks")
        return cls.from_json_list(parsed)
