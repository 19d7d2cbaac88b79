"""The traced benchmark in bench/ wraps program functions by name.

``tracing.install`` raises when a function it wraps is gone or rebound, so
this guard fails as soon as a change to the program removes such a name.
"""

from __future__ import annotations

from pathlib import Path

import medsync.harness
from medsync.relational import Table

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    step = medsync.harness.World.step
    tracer = tracing.install()
    assert medsync.harness.World.step is not step
    tracer.uninstall()
    assert medsync.harness.World.step is step


def test_a_json_decode_is_one_traced_build_of_its_rows(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    rows = [[f"{i:03}", None] for i in range(100)]
    doc = {"id": "t", "schema": {"attrs": ["k", "v"], "key": ["k"]}, "rows": rows}
    tracer = tracing.install()
    try:
        Table.from_json_dict(doc)
    finally:
        tracer.uninstall()
    assert tracer.calls["relational.build"] == 1
    assert tracer.counts["relational.rows_built"] == len(rows)
