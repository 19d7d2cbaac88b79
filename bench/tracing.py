"""Layer spans for the traced run, installed from outside the program.

``install`` replaces public functions and methods of each medsync module with
timing wrappers, at every name they are looked up under (``medsync.peer``
calls the lenses as ``lens_get``/``lens_put``, ``medsync.ledger`` calls the
contract functions it imported, ``medsync.harness`` calls ``deploy`` and
``query_metadata``). A span stack makes self time exact: a span's self time is
its duration minus the time of the spans it directly encloses, so the self
times of all spans add up to the time of the outermost ones. Spans are kept in
memory (name, start, end, parent) and written out by ``write_spans``.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from typing import Callable, Optional

import medsync.contract as contract
import medsync.harness as harness
import medsync.ledger as ledger
import medsync.lenses as lenses
import medsync.peer as peer
import medsync.relational as relational

LAYERS = ("relational", "lenses", "contract", "ledger", "peer", "harness")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent
        self.counts: Counter = Counter()
        self._acc: dict[str, list] = {}  # name -> [self seconds, total seconds, calls]
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._ids = itertools.count()
        self._restore: list[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """`fn` recorded as span `name`; `count(counts, args, result)` adds counters."""
        acc = self._acc.setdefault(name, [0.0, 0.0, 0])
        stack, record, ids, counts = self._stack, self.spans.append, self._ids, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                acc[0] += duration - frame[1]
                acc[1] += duration
                acc[2] += 1
                if stack:
                    stack[-1][1] += duration
                record((frame[0], name, start, end, parent))
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn: Callable, count: Callable) -> Callable:
        """`fn` with counters but no span: its time stays with the enclosing span."""
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counts, args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    @property
    def self_s(self) -> Counter:
        return Counter({name: acc[0] for name, acc in self._acc.items()})

    @property
    def total_s(self) -> Counter:
        return Counter({name: acc[1] for name, acc in self._acc.items()})

    @property
    def calls(self) -> Counter:
        return Counter({name: acc[2] for name, acc in self._acc.items()})

    def patch(self, name: str, *targets: tuple, count: Optional[Callable] = None, span: bool = True) -> None:
        """Replace the function bound at every (owner, attribute) target with one wrapper.

        All targets must hold the same function, so a wrapper installed where
        a function is defined cannot miss a module that imported it.
        """
        owner, attr = targets[0]
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        wrapped = self.wrap(name, fn, count) if span else self._counter(fn, count)
        for owner, attr in targets:
            original = owner.__dict__[attr]
            if (original.__func__ if kind else original) is not fn:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the function wrapped as {name}")
            setattr(owner, attr, kind(wrapped) if kind else wrapped)
            self._restore.append(lambda owner=owner, attr=attr, original=original: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, acc in self._acc.items():
            out[name.split(".", 1)[0]] += acc[0]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent}\n")


def _rows_of_self(key: str) -> Callable:
    def count(counts, args, _result):
        counts[key] += len(args[0].rows)

    return count


def _rows_of_source(key: str) -> Callable:
    def count(counts, args, _result):
        counts[key] += len(args[1].rows)

    return count


def _digest_bytes(counts, args, _result):
    counts["relational.digest_bytes"] += len(args[0])


def _chain_bytes(counts, _args, result):
    counts["ledger.chain_bytes"] += len(result)


def _block(counts, args, _result):
    counts["ledger.blocks"] += 1
    counts["ledger.txs"] += len(args[0].blocks[-1].txs)


def _retry(counts, _args, result):
    if result == peer.RETRY:
        counts["peer.retries"] += 1


def install() -> Tracer:
    """Wrap every layer boundary; call ``Tracer.uninstall`` to undo."""
    t = Tracer()
    Table, Chain, PeerNode, World = relational.Table, ledger.Chain, peer.PeerNode, harness.World
    # relational: Table.__post_init__ is where every table is validated, sorted and keyed.
    t.patch("relational.build", (Table, "__post_init__"), count=_rows_of_self("relational.rows_built"))
    for crud in ("insert_row", "update_row", "delete_row"):
        t.patch("relational.crud", (Table, crud))
    t.patch("relational.check_fd", (Table, "check_fd"), count=_rows_of_self("relational.check_fd_rows"))
    t.patch("relational.project", (Table, "project"))
    t.patch("relational.digest", (Table, "digest"))
    # Within relational only Table.digest hashes; the ledger holds its own reference.
    t.patch("relational.sha256", (relational, "sha256_hex"), count=_digest_bytes, span=False)
    for method in ("with_id", "from_json_dict", "canonical_bytes"):
        t.patch(f"relational.{method}", (Table, method))
    # lenses: the peer calls them under the names it imported them as
    t.patch("lenses.get", (lenses, "get"), (peer, "lens_get"), count=_rows_of_source("lenses.get_rows_in"))
    t.patch("lenses.put", (lenses, "put"), (peer, "lens_put"), count=_rows_of_source("lenses.put_rows_in"))
    t.patch("lenses.compile", (lenses, "compile_lens"), (harness, "compile_lens"))
    # contract: as defined, as imported into the ledger, as imported into the harness
    t.patch("contract.validate", (contract, "validate_update"), (ledger, "validate_update"))
    t.patch("contract.validate", (contract, "validate_deploy"), (ledger, "validate_deploy"))
    t.patch("contract.apply", (contract, "apply_update"), (ledger, "apply_update"))
    t.patch("contract.apply", (contract, "deploy"), (ledger, "deploy"), (harness, "deploy"))
    t.patch("contract.apply", (contract, "change_permission"), (ledger, "change_permission"))
    t.patch("contract.query", (contract, "query_metadata"), (harness, "query_metadata"))
    # ledger
    t.patch("ledger.produce_block", (Chain, "produce_block"), count=_block)
    for method in ("replay", "verify", "loads"):
        t.patch(f"ledger.{method}", (Chain, method))
    t.patch("ledger.dumps", (Chain, "dumps"), count=_chain_bytes)
    # peer
    t.patch("peer.regenerate", (PeerNode, "regenerate_view"))
    t.patch("peer.install_share", (PeerNode, "install_share"))
    t.patch("peer.local_edit", (PeerNode, "local_edit"))
    t.patch("peer.propose", (PeerNode, "regenerate_and_propose"))
    t.patch("peer.receipt", (PeerNode, "on_receipt"))
    t.patch("peer.notification", (PeerNode, "on_notification"))
    t.patch("peer.data_request", (PeerNode, "on_data_request"), count=_retry)
    t.patch("peer.merge", (PeerNode, "on_data_response"))
    t.patch("peer.diff", (peer, "changed_view_attrs"))
    # harness
    t.patch("harness.parse", (harness, "scenario_from_json_dict"))
    t.patch("harness.world_init", (World, "__init__"))
    t.patch("harness.step", (World, "step"))
    t.patch("harness.quiescent", (World, "quiescent"))
    for fn in ("dump", "load_dump", "verify_convergence"):
        t.patch(f"harness.{fn}", (harness, fn))
    return t
