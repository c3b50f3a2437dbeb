"""The benchmark's own checks: exact counts repeat for a seed, and a
held-out seed verifies.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("remote_flow", "saga_batch", "long_flow")
HELD_OUT_SEED = 1009
#: Per-layer figures that are counts of work a lockstep, single-process
#: run does: identical for two runs of one seed.  Flush counts and
#: every timing are measured values and are not listed.
EXACT = (
    "net.client.calls_per_op",
    "net.client.empty_polls_per_op",
    "net.client.poll_hit_ratio",
    "wfms.engine.steps_per_op",
    "wfms.audit.records_per_op",
    "store.journal.appends_per_op",
    "store.checkpoints_per_run",
    "store.recovery.records_replayed",
    "flow.steps_executed_per_op",
    "flow.steps_replayed_per_op",
    "flow.replay_ratio",
    "core.compensated_share",
)


def run(workload, seed, trace, seconds=1):
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_traced_runs_repeat_exact_counts(workload):
    first = run(workload, 3, trace=1)
    second = run(workload, 3, trace=1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    for name in EXACT:
        assert (
            first["metrics"][name]["value"]
            == second["metrics"][name]["value"]
        ), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_verifies(workload):
    result = run(workload, HELD_OUT_SEED, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert len(result["metrics"]) == 8


def test_refuses_to_run_without_the_program(tmp_path):
    """Copied away from the repository, the benchmark exits non-zero
    and prints no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    done = subprocess.run(
        [
            sys.executable, str(bench / "run.py"),
            "--workload", "saga_batch", "--seed", "1",
            "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
