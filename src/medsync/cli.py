"""Command-line runner: execute scenarios, verify dumps, replay chains.

Exit codes: 0 all checks passed, 1 convergence/verification failure,
2 scenario or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    ScenarioError,
    SimulationError,
    dump,
    load_dump,
    load_scenario,
    run,
    trace_mismatch,
    verify_convergence,
    write_trace,
)
from .ledger import Chain, ChainCorrupt


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        world = run(load_scenario(args.scenario))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1

    report = verify_convergence(world)
    for line in report.lines():
        print(line)
    print(f"quiescent after {world.clock} ticks, {len(world.chain.blocks)} blocks")

    try:
        if args.dump:
            dump(world, args.dump)
            print(f"state dumped to {args.dump}")
        if args.trace:
            write_trace(world.trace, args.trace)
            print(f"trace written to {args.trace}")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        world = load_dump(args.dump_dir)
    except ScenarioError as exc:
        print(f"dump error: {exc}", file=sys.stderr)
        return 2
    except ChainCorrupt as exc:
        print(f"[FAIL] chain: {exc}")
        return 1

    ok = True
    try:
        replayed = world.chain.replay()
    except ChainCorrupt as exc:
        print(f"[FAIL] chain-replay: {exc}")
        return 1
    if replayed.canonical_bytes() == world.contract.canonical_bytes():
        print("[PASS] replay-matches-contract")
    else:
        print("[FAIL] replay-matches-contract: replayed state differs from the dumped one")
        ok = False
    mismatch = trace_mismatch(world)
    if mismatch is None:
        print("[PASS] trace-matches-chain")
    else:
        print(f"[FAIL] trace-matches-chain: {mismatch}")
        ok = False

    report = verify_convergence(world)
    for line in report.lines():
        print(line)
    return 0 if ok and report.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    path = Path(args.chain)
    try:
        data = path.read_bytes()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 2
    try:
        chain = Chain.loads(data)
        state = chain.replay()
    except ChainCorrupt as exc:
        print(f"[FAIL] chain: {exc}")
        return 1
    sys.stdout.write(state.canonical_bytes().decode("utf-8") + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="medsync",
        description="Deterministic multi-peer simulator for lens-synchronized shared tables "
        "with ledger-enforced update permissions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario to quiescence and verify convergence")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--dump", metavar="DIR", default=None, help="write a state dump")
    p_run.add_argument("--trace", metavar="FILE", default=None, help="write the trace log")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="re-check a state dump: chain, replay, convergence")
    p_verify.add_argument("dump_dir")
    p_verify.set_defaults(func=_cmd_verify)

    p_replay = sub.add_parser("replay", help="rebuild the contract state from a chain dump")
    p_replay.add_argument("chain")
    p_replay.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
