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


@pytest.mark.parametrize("name", ["big_tables", "hot_share", "many_shares"])
def test_trace_of_a_generated_run_matches_its_chain(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    from test_bench import TINY
    from workloads import generate

    workload = generate(name, 1, **TINY[name])
    world = World(scenario_from_json_dict(workload.doc, workload.name)).run_to_quiescence()
    assert trace_mismatch(world) is None
