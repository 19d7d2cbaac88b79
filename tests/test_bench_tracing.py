"""The traced benchmark in bench/ wraps program functions by name.

``tracing.install`` raises when a function it wraps is gone or rebound, so
this guard fails as soon as a change to the program removes such a name.
"""

from __future__ import annotations

from pathlib import Path

import medsync.harness

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    step = medsync.harness.World.step
    tracer = tracing.install()
    assert medsync.harness.World.step is not step
    tracer.uninstall()
    assert medsync.harness.World.step is step
