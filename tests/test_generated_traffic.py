"""The trace audit on generated traffic: the benchmark's workloads at small sizes.

No bundled scenario reaches every protocol path (a stale data response and
its refetch happen only under contention, as in `hot_share`), so the audit's
rules are checked against the runs the benchmark generates.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from medsync.harness import World, scenario_from_json_dict, trace_mismatch

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
    assert all(s.staged is None and not s.unanswered for peer in world.peers.values() for s in peer.shares.values())
