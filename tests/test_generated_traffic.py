"""The trace audit on generated traffic: the benchmark's workloads at small sizes.

No bundled scenario reaches every protocol path (a stale data response and
its refetch happen only under contention, as in `hot_share`), so the audit's
rules are checked against the runs the benchmark generates, as is the
invariant a peer's staged proposal rests on.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import BUNDLED_SCENARIOS, scenario_path
from medsync.contract import UpdateTx
from medsync.harness import World, load_scenario, scenario_from_json_dict, trace_mismatch
from medsync.peer import PeerNode

BENCH = Path(__file__).resolve().parents[1] / "bench"


# hot_share, the one workload with stale responses and refetches, runs at three seeds.
RUNS = [
    pytest.param("big_tables", 1, id="big_tables"),
    pytest.param("hot_share", 1, id="hot_share"),
    pytest.param("hot_share", 2, id="hot_share-seed2"),
    pytest.param("hot_share", 3, id="hot_share-seed3"),
    pytest.param("many_shares", 1, id="many_shares"),
]


@pytest.mark.parametrize("name, seed", RUNS)
def test_trace_of_a_generated_run_matches_its_chain(monkeypatch, name, seed):
    monkeypatch.syspath_prepend(str(BENCH))
    from test_bench import TINY
    from workloads import generate

    workload = generate(name, seed, **TINY[name])
    world = World(scenario_from_json_dict(workload.doc, workload.name)).run_to_quiescence()
    assert trace_mismatch(world) is None
    # What `World.quiescent` does not look at: every proposal got its receipt, every request its answer.
    assert all(not s.staged and not s.unanswered for peer in world.peers.values() for s in peer.shares.values())


@pytest.mark.parametrize(
    "name, seed",
    [pytest.param(name, None, id=name) for name in BUNDLED_SCENARIOS]
    + [pytest.param(name, seed, id=f"{name}-seed{seed}") for name in ("big_tables", "hot_share", "many_shares") for seed in (1, 2, 3)],
)
def test_an_accepted_receipt_adopts_the_proposed_view(monkeypatch, name, seed):
    # A staged proposal is the share's lens cache: nothing may rewrite the cache
    # between staging and the receipt, so the copy adopted is the view proposed.
    monkeypatch.syspath_prepend(str(BENCH))
    from test_bench import TINY
    from workloads import generate

    on_receipt, adopted = PeerNode.on_receipt, []

    def checked(peer: PeerNode, receipt):
        out = on_receipt(peer, receipt)
        if isinstance(receipt.tx, UpdateTx) and receipt.verdict.ok:
            adopted.append((peer.shares[receipt.tx.shared_id].copy.digest(), receipt.tx.new_digest))
        return out

    monkeypatch.setattr(PeerNode, "on_receipt", checked)
    if seed is None:
        scenario = load_scenario(scenario_path(name))
    else:
        workload = generate(name, seed, **TINY[name])
        scenario = scenario_from_json_dict(workload.doc, workload.name)
    World(scenario).run_to_quiescence()
    assert adopted and all(copy == proposed for copy, proposed in adopted)
