"""medsync benchmark: seeded workloads, end-to-end timings, and a traced per-layer run.

    python3 bench/run.py --workload big_tables --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload many_shares --seed 1 --profile 25

Each workload runs single-threaded in its own child process, one after another,
with PYTHONHASHSEED derived from the seed. ``--trace 0`` repeats measured
rounds for about ``--seconds`` seconds and reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced round and reports the per-layer
metrics (self time per layer, counts, tracing overhead). Every round passes
the correctness gate or the run fails. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("big_tables", "many_shares", "hot_share")
# Repetitions within the first round of a run; later rounds add set-up and
# run samples only, with one verify as the correctness gate and no dump.
SETUPS = 5
VERIFIES = 5
AUDITS = 5
MIN_PHASE_S = 0.2
CHILD_TIMEOUT_S = 170


def _git_commit() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def _end_to_end(workload, scratch: Path, seconds: float):
    from measure import check_same, percentile, run_round

    start = time.perf_counter()
    rounds = []
    while True:
        first = not rounds
        rounds.append(
            run_round(workload, scratch, SETUPS, VERIFIES if first else 1, AUDITS if first else 0, MIN_PHASE_S)
        )
        # A further round costs about its set-ups and its run.
        next_round = sum(rounds[-1].raw["setup_s"]) + rounds[-1].raw["run_wall_s"]
        if time.perf_counter() - start + next_round > seconds:
            break
    mismatch = check_same(rounds)
    if mismatch:
        raise RuntimeError(mismatch)
    counts = rounds[0].attribution.counts
    median = statistics.median
    # Percentiles are taken per round and their median kept, so that one
    # round hit by a burst of host noise cannot move the tail.
    metrics = {
        "setup_s": median([s for r in rounds for s in r.setup_s]),
        "run_s": median([r.run_s for r in rounds]),
        "edit_ms_p50": median([percentile(r.edit_ms, 50) for r in rounds]),
        "edit_ms_tail": median([percentile(r.edit_ms, workload.tail_pct) for r in rounds]),
        "edit_ticks_max": max(rounds[0].attribution.edit_ticks),
        "verify_s": rounds[0].verify_s,
        "audit_s": rounds[0].audit_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accepted_frac": counts["updates_accepted"] / counts["updates_submitted"],
    }
    notes = {
        "rounds": len(rounds),
        "edit_samples_per_round": len(workload.edits),
        "edit_tail_pct": workload.tail_pct,
        "fingerprint": rounds[0].fingerprint,
        "raw_setup_s": median([s for r in rounds for s in r.raw["setup_s"]]),
        "raw_run_s": median([r.raw["run_s"] for r in rounds]),
        "raw_verify_s": rounds[0].raw["verify_s"],
        "raw_audit_s": rounds[0].raw["audit_s"],
    }
    return rounds, metrics, notes


def _traced(workload, scratch: Path):
    import tracing
    from measure import run_round

    untraced = run_round(workload, scratch, 1, 1, 1)
    tracer = tracing.install()
    try:
        traced = run_round(workload, scratch, 1, 1, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    if traced.fingerprint != untraced.fingerprint:
        raise RuntimeError("tracing changed the chain or trace bytes")
    spans = ROOT / ".bench_out" / f"spans-{workload.name}.csv"
    spans.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans)

    calls, total, counts = tracer.calls, tracer.total_s, tracer.counts
    c = traced.attribution.counts
    self_run = traced.layer_self_run
    metrics = {
        "relational.table_builds": calls["relational.build"],
        "relational.rows_built": counts["relational.rows_built"],
        "relational.build_s": total["relational.build"],
        "relational.crud_calls": calls["relational.crud"],
        "relational.crud_s": total["relational.crud"],
        "relational.check_fd_rows": counts["relational.check_fd_rows"],
        "relational.check_fd_s": total["relational.check_fd"],
        "relational.project_s": total["relational.project"],
        "relational.digest_calls": calls["relational.digest"],
        "relational.digest_bytes": counts["relational.digest_bytes"],
        "relational.digest_s": total["relational.digest"],
        "lenses.get_calls": calls["lenses.get"],
        "lenses.get_rows_in": counts["lenses.get_rows_in"],
        "lenses.get_s": total["lenses.get"],
        "lenses.put_calls": calls["lenses.put"],
        "lenses.put_rows_in": counts["lenses.put_rows_in"],
        "lenses.put_s": total["lenses.put"],
        "peer.regenerate_calls": calls["peer.regenerate"],
        "peer.regenerate_s": total["peer.regenerate"],
        "peer.merge_s": total["peer.merge"],
        "peer.receipt_s": total["peer.receipt"],
        "peer.diff_s": total["peer.diff"],
        "peer.fetches": c.get("trace.data_req", 0),
        "peer.retries": counts["peer.retries"],
        "peer.cascades": c.get("trace.cascade", 0),
        "peer.fetch_useful_ratio": c.get("trace.put_applied", 0) / max(1, c.get("trace.data_resp", 0)),
        "harness.ticks": calls["harness.step"],
        "harness.step_s": total["harness.step"],
        "harness.trace_events": sum(v for k, v in c.items() if k.startswith("trace.")),
        "harness.messages": c["messages"],
        "harness.dump_s": total["harness.dump"],
        "harness.load_dump_s": total["harness.load_dump"],
        "harness.verify_convergence_s": total["harness.verify_convergence"],
        "ledger.blocks": counts["ledger.blocks"],
        "ledger.txs": counts["ledger.txs"],
        "ledger.produce_block_s": total["ledger.produce_block"],
        "contract.validate_calls": calls["contract.validate"],
        "contract.validate_s": total["contract.validate"],
        "contract.apply_s": total["contract.apply"],
        "ledger.replay_s": total["ledger.replay"],
        "ledger.chain_bytes": counts["ledger.chain_bytes"],
        "ledger.update_accept_ratio": c["updates_accepted"] / c["updates_submitted"],
        "ledger.rejects.BlockedBySerialization": c.get("rejects.BlockedBySerialization", 0),
        "ledger.rejects.StaleVersion": c.get("rejects.StaleVersion", 0),
        "ledger.rejects.PermissionDenied": c.get("rejects.PermissionDenied", 0),
        **{f"{layer}.self_s": seconds for layer, seconds in self_run.items()},
        "tracing.self_sum_frac": sum(self_run.values()) / traced.raw["run_wall_s"],
        "tracing.overhead_s": traced.run_s - untraced.run_s,
    }
    notes = {
        "untraced_run_s": untraced.run_s,
        "traced_run_s": traced.run_s,
        "layer_share": {k: round(v / traced.raw["run_wall_s"], 4) for k, v in self_run.items()},
        "top_self_s": {k: round(v, 4) for k, v in tracer.self_s.most_common(8)},
        "spans": str(spans.relative_to(ROOT)),
        "fingerprint": traced.fingerprint,
    }
    return [untraced, traced], metrics, notes


def _profile(workload, scratch: Path, top: int) -> None:
    import cProfile
    import pstats

    from measure import run_round

    profiler = cProfile.Profile()
    profiler.runcall(run_round, workload, scratch, 1, 1, 1)
    pstats.Stats(profiler, stream=sys.stderr).sort_stats("tottime").print_stats(top)


def _failed(attempted: int) -> dict:
    return {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}


def _last_json(output: str):
    """The result object on the last line of a child's output, or None."""
    try:
        result = json.loads(output.splitlines()[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) else None


def child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import generate

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = generate(args.workload, args.seed)
    scratch = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.profile:
            _profile(workload, scratch, args.profile)
        if args.trace:
            rounds, metrics, notes = _traced(workload, scratch)
        else:
            rounds, metrics, notes = _end_to_end(workload, scratch, args.seconds)
        if set(metrics) != set(units):
            raise RuntimeError(f"computed metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    except Exception as exc:  # any failure fails the run; report it and no metrics
        print(f"{args.workload}: run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps(_failed(len(workload.edits))))
        return 1
    finally:
        shutil.rmtree(scratch)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} " + json.dumps(notes, sort_keys=True))
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": True,
        "attempted": len(workload.edits) * len(rounds),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--profile", type=int, default=0, metavar="N", help="print the top-N cProfile entries")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)

    if not (ROOT / "src" / "medsync" / "__init__.py").is_file():
        print(f"error: the medsync sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    status = 0
    results = {}
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [sys.executable, str(BENCH / "run.py"), "--child", "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--profile", str(args.profile)]
        env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            output, returncode = proc.stdout, proc.returncode
        except subprocess.TimeoutExpired:
            output, returncode = "", None
            print(f"error: workload {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        result = _last_json(output)
        if returncode != 0 or result is None or not result["correct"]:
            status = 1
            if returncode:
                print(f"error: workload {name} exited with code {returncode}", file=sys.stderr)
            # A child that timed out or died (say, by a signal) printed no
            # failed result of its own: its run counts as one failed attempt.
            if result is None or result["correct"]:
                result = _failed(1)
                output += json.dumps(result) + "\n"
        sys.stdout.write(output)
        sys.stdout.flush()
        results[name] = result
    if len(results) > 1:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
        print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
