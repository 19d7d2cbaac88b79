"""Per-edit causal chains and protocol counts, read from a world's trace alone.

An edit is complete when both copies of every share it changed match the
ledger digest, which is the tick of the last ``put_applied`` in its causal
chain. The chain is followed through the trace:

* ``edit`` labels the edit; the label rides on the next ``propose`` of each
  share whose view the edit changes (a proposal held back while another is
  in flight carries it on the follow-up proposal). Which views an edit kind
  changes is part of the generated input (``workloads.KIND_EFFECTS``).
* ``verdict`` events come in mempool order, so they are matched to the
  ``propose`` events FIFO. An accepted update gives the share a new version
  that carries the proposal's labels; a rejected one leaves its labels
  waiting for the proposer's next merge of that share (the refetch).
* ``put_applied`` closes the labels of every version the merging peer had
  not yet merged (skipping its own), of any rejected proposal waiting on that
  share, and of any unsent local edit the merge overwrote.
* ``cascade`` hands the labels a merge brought in to the proposal that
  follows it on another share.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass

from workloads import KIND_EFFECTS


class AttributionError(Exception):
    """The trace does not match the scripted edits or the protocol."""


@dataclass(frozen=True)
class Attribution:
    due: tuple  # per edit: the tick it was due
    done: tuple  # per edit: the tick of the last event of its causal chain
    counts: dict  # protocol counts, all deterministic for a seed

    @property
    def edit_ticks(self) -> list[int]:
        return [d - s for s, d in zip(self.due, self.done)]


def attribute(trace, workload) -> Attribution:
    due: list[int] = []
    done: list[int] = []
    unsent = defaultdict(set)  # (peer, share) -> labels of edits not yet proposed
    cascading: dict = {}  # (peer, share) -> labels for the proposal after a cascade event
    last_merge: dict = {}  # (peer, share) -> labels the peer's latest merge brought in
    awaiting = defaultdict(set)  # (peer, share) -> labels of rejected proposals
    mempool: deque = deque()
    version: Counter = Counter()
    version_of: dict = {}  # (share, version) -> (proposer, labels)
    merged_upto: Counter = Counter()
    counts: Counter = Counter()
    cascades_by_share: Counter = Counter()

    closed: set = set()

    def close(labels, tick):
        closed.update(labels)
        for label in labels:
            done[label] = max(done[label], tick)

    for ev in trace:
        p = ev.payload
        kind = ev.kind
        counts[f"trace.{kind}"] += 1
        if kind == "edit":
            label = len(due)
            if label >= len(workload.edits):
                raise AttributionError(f"tick {ev.tick}: unscripted edit by {ev.actor}")
            tick, who, table, edit_kind = workload.edits[label]
            if (tick, who, table) != (ev.tick, ev.actor, p["table"]):
                raise AttributionError(f"edit {label} ran as {(ev.tick, ev.actor, p['table'])}")
            due.append(ev.tick)
            done.append(ev.tick)
            suffix = table[2:]  # D1_007 -> _007: the triangle's share ids carry it too
            for base in KIND_EFFECTS[edit_kind]:
                unsent[(ev.actor, base + suffix)].add(label)
        elif kind == "cascade":
            cascades_by_share[p["shared_id"]] += 1
            cascading[(ev.actor, p["shared_id"])] = last_merge.get((ev.actor, p["after_merge_of"]), set())
        elif kind == "propose":
            key = (ev.actor, p["shared_id"])
            labels = unsent.pop(key, set()) | cascading.pop(key, set()) if p["type"] == "update" else set()
            mempool.append((ev.actor, p["shared_id"], p["type"], labels))
        elif kind == "verdict":
            if not mempool:
                raise AttributionError(f"tick {ev.tick}: verdict without a proposal")
            who, sid, tx_type, labels = mempool.popleft()
            if (who, sid, tx_type) != (ev.actor, p["shared_id"], p["tx"]):
                raise AttributionError(f"tick {ev.tick}: verdict for {(ev.actor, p['shared_id'])} out of order")
            if tx_type != "update":
                continue
            counts["updates_submitted"] += 1
            close(labels, ev.tick)
            if p["ok"]:
                counts["updates_accepted"] += 1
                version[sid] += 1
                version_of[(sid, version[sid])] = (who, labels)
            else:
                counts[f"rejects.{p['reason']}"] += 1
                awaiting[(who, sid)] |= labels
        elif kind == "put_applied":
            key = (ev.actor, p["shared_id"])
            merged = awaiting.pop(key, set()) | unsent.pop(key, set())
            for v in range(merged_upto[key] + 1, p["version"] + 1):
                proposer, labels = version_of[(p["shared_id"], v)]
                if proposer != ev.actor:
                    merged |= labels
            merged_upto[key] = p["version"]
            close(merged, ev.tick)
            last_merge[key] = merged
    if len(due) != len(workload.edits):
        raise AttributionError(f"{len(due)} of {len(workload.edits)} scripted edits ran")
    if len(closed) != len(due):
        raise AttributionError(f"edits {sorted(set(range(len(due))) - closed)[:5]}... never completed")
    counts["messages"] = sum(counts[f"trace.{k}"] for k in ("notify", "verdict", "data_req", "data_resp"))
    counts["cascades_max_per_share"] = max(cascades_by_share.values(), default=0)
    return Attribution(tuple(due), tuple(done), dict(counts))
