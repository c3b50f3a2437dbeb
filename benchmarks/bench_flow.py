"""FLOW — the durable decorator front end (``repro.flow``).

Two claims, one per measured number:

* **A flow costs O(n) in its step count.**  One ``Drive`` attempt runs
  the workflow function to completion and journals one small
  ``flow_step`` record per step, so the cost of a step must not grow
  with the number of steps before it.  The table reports the per-step
  cost of ladder flows of 10 to 400 steps; ``compare.py`` gates the
  ratio of the 400-step to the 10-step cost at 1.2 — a ratio of two
  timings taken on one host in one run, so the bound does not depend
  on the host.
* **Zero overhead when off.**  Flows are opt-in: an engine without
  ``install_flows`` has no flow service, no ``flow_drive`` program,
  and no per-activity hook.  ``compare.py`` gates the flow-less 8x8
  DAG throughput so the front end can never tax plain workflows.
"""

import os
import tempfile
import time

from repro.flow import install_flows, step, workflow
from repro.wfms import Engine

from _helpers import print_table

#: Steps per flow in the per-step cost comparison (short, long).
SHORT_STEPS = 10
LONG_STEPS = 400
#: Steps one timed run executes, whatever the flow length: 200 short
#: flows or 5 long ones.
STEPS_PER_RUN = 2000
REPEATS = 5


def ladder_engine(directory):
    """A journaled engine running the ``ladder`` flow (one plain step
    per rung); the journal is written but not fsynced, so the timing
    covers record serialization, not the disk."""

    @step
    def bump(x):
        return x + 1

    @workflow(max_steps=LONG_STEPS)
    def ladder(flow, n):
        total = 0
        for __ in range(n):
            total = bump(total)
        return total

    engine = Engine(
        journal_path=os.path.join(directory, "journal.log"),
        journal_sync="never",
    )
    return engine, install_flows(engine, [ladder], seed=0)


def per_step_seconds(steps, repeats=REPEATS):
    """Best-of-``repeats`` wall seconds per step for ``steps``-step
    ladder flows, ``STEPS_PER_RUN`` steps per timed run."""
    flows = STEPS_PER_RUN // steps
    best = None
    for __ in range(repeats):
        with tempfile.TemporaryDirectory() as directory:
            engine, rt = ladder_engine(directory)
            uuids = [rt.start("ladder", steps) for __ in range(flows)]
            started = time.perf_counter()
            engine.run()
            elapsed = time.perf_counter() - started
            assert rt.counters["steps_executed"] == flows * steps
            assert rt.counters["steps_replayed_resume"] == 0
            assert all(rt.result(u).value == steps for u in uuids)
            engine.close()
        cost = elapsed / (flows * steps)
        best = cost if best is None else min(best, cost)
    return best


def step_cost_ratio(repeats=REPEATS):
    """Per-step cost of a 400-step flow over that of a 10-step flow.

    About 1 (or below: the fixed per-flow cost spreads over more
    steps) when a flow is linear in its step count; a design that
    re-runs or re-journals earlier steps per step reads several times
    that.  ``compare.py`` gates it at 1.2.
    """
    short_cost = per_step_seconds(SHORT_STEPS, repeats)
    long_cost = per_step_seconds(LONG_STEPS, repeats)
    return long_cost / short_cost


def flow_disabled_dag_throughput(runs=30):
    """activities/sec on the 8x8 DAG with *no* flow runtime installed.

    Flows ride ordinary definitions and a dedicated program; an engine
    that never calls ``install_flows`` must run plain workflows at
    full speed.  This number regresses if the front end ever grows a
    hook on the navigator hot path.
    """
    from repro.workloads.generator import DAG_PROGRAM, random_dag_process

    layers, width = 8, 8
    definition = random_dag_process(layers=layers, width=width, seed=42)
    engine = Engine()
    engine.register_program(DAG_PROGRAM, lambda ctx: 0)
    engine.register_definition(definition)
    engine.run_process(definition.name)  # warmup
    start = time.perf_counter()
    for __ in range(runs):
        assert engine.run_process(definition.name).finished
    elapsed = time.perf_counter() - start
    return layers * width * runs / elapsed


def test_step_cost_is_flat_in_flow_length():
    """The linearity claim: per-step cost stays flat from 10 to 400
    steps (the gate's bound, 1.2, is checked by ``compare.py``; this
    table only reports, with an order-of-magnitude sanity bound)."""
    rows = []
    costs = {}
    for steps in (SHORT_STEPS, 50, 100, 200, LONG_STEPS):
        costs[steps] = per_step_seconds(steps, repeats=2)
        rows.append(
            (
                steps,
                "%.1f" % (costs[steps] * 1e6),
                "%.2f" % (costs[steps] / costs[SHORT_STEPS]),
            )
        )
    assert costs[LONG_STEPS] < costs[SHORT_STEPS] * 3
    print_table(
        "FLOW: per-step cost vs flow length",
        ["steps", "us/step", "vs 10 steps"],
        rows,
    )


def test_flow_steps_throughput(benchmark):
    with tempfile.TemporaryDirectory() as directory:
        engine, rt = ladder_engine(directory)

        def one_flow():
            rt.start("ladder", 24)
            engine.run()

        benchmark(one_flow)
        assert rt.counters["steps_replayed_resume"] == 0
        engine.close()


def test_flow_disabled_dag_throughput(benchmark):
    from repro.workloads.generator import DAG_PROGRAM, random_dag_process

    definition = random_dag_process(layers=8, width=8, seed=42)
    engine = Engine()
    engine.register_program(DAG_PROGRAM, lambda ctx: 0)
    engine.register_definition(definition)
    result = benchmark(lambda: engine.run_process(definition.name))
    assert result.finished
