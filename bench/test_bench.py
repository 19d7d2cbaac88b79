"""Smoke checks for the benchmark at tiny sizes: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import medsync.peer  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from measure import run_round  # noqa: E402
from workloads import GenerationError, generate, self_check  # noqa: E402

TINY = {
    "big_tables": {"n_rows": 80, "n_meds": 20, "per_kind": 2},
    "many_shares": {"n_patients": 6, "per_tick": 2, "n_ticks": 20},
    "hot_share": {"n_rows": 40, "n_meds": 10, "bursts": 2, "burst_ticks": 10, "gap_ticks": 4},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_generation_is_seeded(name):
    a, b = generate(name, 7, **TINY[name]), generate(name, 7, **TINY[name])
    assert json.dumps(a.doc) == json.dumps(b.doc)
    assert a.edits == b.edits
    assert json.dumps(generate(name, 8, **TINY[name]).doc) != json.dumps(a.doc)


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_repeat_exactly(name, tmp_path):
    workload = generate(name, 3, **TINY[name])
    first = run_round(workload, tmp_path, 1, 1, 1)
    second = run_round(workload, tmp_path, 1, 1, 0)
    assert first.fingerprint == second.fingerprint
    assert first.attribution == second.attribution
    assert len(first.attribution.due) == len(workload.edits)
    assert min(first.attribution.edit_ticks) >= 3  # propose, notify, fetch, merge

    counted = []
    for _ in range(2):
        tracer = tracing.install()
        try:
            traced = run_round(workload, tmp_path, 1, 1, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        assert traced.fingerprint == first.fingerprint
        counted.append((dict(tracer.calls), dict(tracer.counts)))
        covered = sum(traced.layer_self_run.values())
        assert covered == pytest.approx(traced.raw["run_wall_s"], rel=0.1)
    assert counted[0] == counted[1]


@pytest.mark.parametrize("name", sorted(TINY))
def test_fingerprint_is_the_same_in_other_processes_and_hash_seeds(name, tmp_path):
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; from pathlib import Path\n"
        "from workloads import generate; from measure import run_round\n"
        f"w = generate({name!r}, 3, **{TINY[name]!r})\n"
        "print(run_round(w, Path(sys.argv[3]), 1, 1, 0).fingerprint)\n"
    )
    prints = set()
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        args = [sys.executable, "-c", code, str(Path(__file__).parent), str(ROOT / "src"), str(tmp_path)]
        prints.add(subprocess.run(args, env=env, capture_output=True, text=True, check=True, timeout=60).stdout)
    assert len(prints) == 1


@pytest.mark.parametrize("returncode, stdout", [(-9, ""), (0, ""), (-11, '{"correct": true}\n')])
def test_a_child_that_dies_fails_the_run(returncode, stdout, monkeypatch, capsys):
    def died(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, returncode, stdout=stdout)

    monkeypatch.setattr(run.subprocess, "run", died)
    assert run.main(["--workload", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == {"correct": False, "attempted": 3, "failed": 3, "metrics": {}}
    assert json.loads(lines[-2]) == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_tracer_uninstall_restores_every_name():
    before = (medsync.peer.lens_get, medsync.peer.PeerNode.on_data_response, medsync.harness.dump)
    tracer = tracing.install()
    assert medsync.peer.lens_get is not before[0]
    tracer.uninstall()
    assert (medsync.peer.lens_get, medsync.peer.PeerNode.on_data_response, medsync.harness.dump) == before


def test_self_check_rejects_denied_proposal():
    workload = generate("big_tables", 1, **TINY["big_tables"])
    bad = copy.deepcopy(workload.doc)
    bad["shares"][0]["perm"]["a2"] = ["Doctor"]  # the Patient may no longer edit a2 of D13
    with pytest.raises(GenerationError):
        self_check(dataclasses.replace(workload, doc=bad))
