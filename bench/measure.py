"""One measured round of a workload, through medsync's public API.

A round builds the world several times (set-up), steps it to quiescence
timing every tick (run and per-edit latency), then checks convergence on the
live world (verify) and takes the ``medsync verify`` path: dump, reload,
replay the chain against the dumped contract, and check the reloaded world
(audit). Every timed phase starts after ``gc.collect()``; GC stays enabled.
Durations are normalised for host speed (see ``hostspeed``); the raw ones are
kept too. Any exception or failed check fails the round.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import medsync.harness as harness
from medsync.relational import canonical_json
from attribution import Attribution, attribute
from hostspeed import Speedometer


class GateFailure(Exception):
    """A run produced wrong or non-converged output."""


@dataclass
class Round:
    setup_s: list[float]
    run_s: float
    verify_s: float
    audit_s: float  # NaN when the round took no audit
    edit_ms: list[float]
    attribution: Attribution
    fingerprint: str  # SHA-256 of the dumped chain and of the dumped trace
    raw: dict  # the same timings before host-speed normalisation
    layer_self_run: dict = field(default_factory=dict)  # traced rounds: run-phase self time per layer


def _setup(workload):
    return harness.World(harness.scenario_from_json_dict(workload.doc, workload.name))


def _drive(world, speed: Speedometer) -> tuple[list[float], list[float], float]:
    """Step to quiescence: the raw and normalised duration of every tick, and the wall time.

    A tick's duration covers the step and the quiescence check after it, less
    the time the speedometer spent sampling during it.
    """
    limit = world.config.max_ticks
    ticks: list[tuple[float, float, float]] = []  # wall start, wall end, work seconds
    gc.collect()
    speed.sample()
    start, work_start = speed.now()
    first = start
    busy = not world.quiescent()
    while busy:
        if world.clock >= limit:
            raise harness.MaxTicksExceeded(f"{world.name} still busy after {limit} ticks")
        world.step()
        busy = not world.quiescent()
        end, work_end = speed.now()
        ticks.append((start, end, work_end - work_start))
        start, work_start = end, work_end
    speed.sample()
    raw = [work for _, _, work in ticks]
    return raw, [work * speed.factor(s, e) for s, e, work in ticks], start - first


def _audit(world, out: Path):
    """The `medsync verify` path: dump, reload, replay, re-check convergence."""
    harness.dump(world, out)
    reloaded = harness.load_dump(out)
    replay_ok = reloaded.chain.replay().canonical_bytes() == reloaded.contract.canonical_bytes()
    return replay_ok, harness.verify_convergence(reloaded)


def _audits(world, scratch: Path, reps: int, min_s: float, speed: Speedometer) -> tuple[list[float], list[float], str]:
    """Timed audits: raw and normalised seconds of each, and the dump's fingerprint."""
    # Each repetition overwrites the same dump in place: on some hosts,
    # deleting a dump slows the file creations that follow it for a while.
    # The caller removes `scratch`.
    out = Path(tempfile.mkdtemp(dir=scratch))
    raws, normalised, fingerprints = [], [], set()
    for _ in range(reps):
        gc.collect()
        (replay_ok, report), raw, seconds = speed.timed(_audit, world, out, min_s=min_s)
        if not replay_ok:
            raise GateFailure("replayed contract differs from the dumped contract")
        if not report.ok:
            raise GateFailure("reloaded world: " + _failures(report))
        fingerprints.add(_fingerprint((out / "chain.json").read_bytes(), (out / "trace.jsonl").read_bytes()))
        raws.append(raw)
        normalised.append(seconds)
    if len(fingerprints) != 1:
        raise GateFailure("dumps of one world differ")
    return raws, normalised, fingerprints.pop()


def _fingerprint(chain_bytes: bytes, trace_bytes: bytes) -> str:
    return hashlib.sha256(chain_bytes).hexdigest() + "-" + hashlib.sha256(trace_bytes).hexdigest()


def _failures(report) -> str:
    return "; ".join(line for line in report.lines() if line.startswith("[FAIL]"))


def run_round(
    workload, scratch: Path, setups: int, verifies: int, audits: int, min_phase_s: float = 0.0, tracer=None
) -> Round:
    """Measure one round, repeating set-up, verify and audit the given number of times.

    Each verify and audit sample calls the phase until `min_phase_s` has
    passed and reports the time per call, so that phases of a few
    milliseconds span enough speed samples. With ``audits=0`` nothing is
    dumped; the fingerprint is taken from the bytes a dump would write.
    """
    with Speedometer() as speed:
        return _round(workload, scratch, setups, verifies, audits, min_phase_s, tracer, speed)


def _round(
    workload, scratch: Path, setups: int, verifies: int, audits: int, min_phase_s: float, tracer, speed: Speedometer
) -> Round:
    setup_s, setup_raw = [], []
    for _ in range(setups):
        gc.collect()
        world, raw, seconds = speed.timed(_setup, workload)
        setup_raw.append(raw)
        setup_s.append(seconds)

    before = tracer.layer_self() if tracer else None
    ticks_raw, ticks, run_wall = _drive(world, speed)
    layer_self_run = {k: v - before[k] for k, v in tracer.layer_self().items()} if tracer else {}

    attribution = attribute(world.trace, workload)
    edit_ms = [sum(ticks[s : d + 1]) * 1e3 for s, d in zip(attribution.due, attribution.done)]
    if workload.closed_loop:
        due, done = attribution.due, attribution.done
        late = [i for i in range(1, len(due)) if done[i - 1] >= due[i]]
        if late:
            raise GateFailure(f"closed loop broken: edit {late[0]} was due before edit {late[0] - 1} completed")

    # Short phases are repeated and their median kept: one sample of a phase
    # under a second long is at the mercy of the host's jitter.
    verify_raw, verify_s = [], []
    for _ in range(verifies):
        gc.collect()
        report, raw, seconds = speed.timed(harness.verify_convergence, world, min_s=min_phase_s)
        if not report.ok:
            raise GateFailure("live world: " + _failures(report))
        verify_raw.append(raw)
        verify_s.append(seconds)

    if audits:
        audit_raw, audit_s, fingerprint = _audits(world, scratch, audits, min_phase_s, speed)
    else:
        # The bytes `dump` would write to chain.json and trace.jsonl.
        trace_bytes = b"".join(canonical_json(e.to_json_dict()) + b"\n" for e in world.trace)
        fingerprint = _fingerprint(world.chain.dumps() + b"\n", trace_bytes)
        audit_raw = audit_s = [float("nan")]
    median = statistics.median
    raw = {
        "setup_s": setup_raw,
        "run_s": sum(ticks_raw),
        "run_wall_s": run_wall,  # including the speedometer's samples, as spans see it
        "verify_s": median(verify_raw),
        "audit_s": median(audit_raw),
    }
    return Round(
        setup_s, sum(ticks), median(verify_s), median(audit_s), edit_ms, attribution, fingerprint, raw,
        layer_self_run,
    )


def percentile(values: list[float], pct: int) -> float:
    """The inclusive-method percentile, as statistics.quantiles computes it."""
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def check_same(rounds: list[Round]) -> Optional[str]:
    """Every round of one seed must leave identical chain and trace bytes and counts."""
    first = rounds[0]
    for r in rounds[1:]:
        if r.fingerprint != first.fingerprint or r.attribution != first.attribution:
            return f"round fingerprint {r.fingerprint} != {first.fingerprint}"
    return None
