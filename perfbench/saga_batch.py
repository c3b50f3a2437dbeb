"""``saga_batch``: the paper's two transaction models on one engine.

One :class:`~repro.wfms.engine.Engine` over a
:class:`~repro.store.DurableStore` runs a seeded mix of translated
linear sagas (Figure 2, 4 to 16 uniquely named steps) and the Figure 3
flexible transaction, eight instances in flight.  No sockets and no
flows: the navigator, audit trail, journal, checkpoints and archive
carry the load, and verification reads every instance back through
the engine's read API (``output`` / ``execution_order``).

The op stream is built in cycles of 17 ops, each holding every saga
length once and every flexible variant once, shuffled by the seed.
Four of the 13 sagas in a cycle abort at a seeded step, so the
compensated share is the same for every seed and the work per cycle
barely depends on the seed.
"""

from __future__ import annotations

import os
import random

import harness
from repro.core.bindings import (
    nop_program,
    register_flexible_programs,
    workflow_flexible_outcome,
    workflow_saga_outcome,
)
from repro.core.compblock import NOP_PROGRAM
from repro.core.flexible_translator import translate_flexible
from repro.core.saga_translator import passthrough_for, translate_saga
from repro.core.sagas import SagaSpec, SagaStep, verify_saga_guarantee
from repro.store import DurableStore
from repro.tx import SimDatabase
from repro.tx.subtransaction import Subtransaction
from repro.wfms.engine import Engine
from repro.workloads.banking import fig3_bindings, fig3_spec

SAGA_LENGTHS = tuple(range(4, 17))
ABORTS_PER_CYCLE = 4
#: Figure 3 variants: members that abort, and the expected outcome
#: (committed, committed path, compensated members).
FLEX_VARIANTS = {
    "p1": ((), (True, ["t1", "t2", "t4", "t5", "t6", "t8"], [])),
    "t8": (("t8",), (True, ["t1", "t2", "t4", "t7"], ["t6", "t5"])),
    "t4": (("t4",), (True, ["t1", "t2", "t3"], [])),
    "t2": (("t2",), (False, [], ["t1"])),
}
#: journal records between checkpoints (each compacts the journal).
CHECKPOINT_EVERY = 4000


def op_stream(seed, count):
    """``count`` ops: ("saga", length, abort_step or 0) or
    ("flex", variant), in seeded cycles of fixed composition."""
    rng = random.Random(seed)
    ops = []
    while len(ops) < count:
        aborting = set(rng.sample(SAGA_LENGTHS, ABORTS_PER_CYCLE))
        cycle = [
            ("saga", n, rng.randint(2, n) if n in aborting else 0)
            for n in SAGA_LENGTHS
        ]
        cycle += [("flex", name) for name in FLEX_VARIANTS]
        rng.shuffle(cycle)
        ops.extend(cycle)
    return ops[:count]


class PlannedAbort:
    """Failure policy: abort when the instance being executed planned
    an abort of this member.  ``cursor[0]`` holds the root instance id
    of the program currently running."""

    def __init__(self, plan, cursor, member):
        self.plan = plan
        self.cursor = cursor
        self.member = member

    def should_abort(self, attempt):
        return self.member in self.plan.get(self.cursor[0], ())


def _increment(key, delta):
    def body(txn):
        txn.increment(key, delta)

    return body


class SagaBatch:
    name = "saga_batch"
    window = 8
    block_ops = 48
    episode_ops = 816  # 48 cycles
    tail_ops = 408
    trace_ops = 816

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    # -- set-up ----------------------------------------------------------

    def setup(self, episode, ops):
        self.directory = os.path.join(self.workdir, "ep%d" % episode)
        self.stream = op_stream(self.seed * 1000 + episode, ops)
        self.db = SimDatabase()
        self.plan = {}
        self.cursor = [""]
        self.kinds = {}
        self.committed_by_length = dict.fromkeys(SAGA_LENGTHS, 0)
        self.sagas = {
            n: translate_saga(
                SagaSpec(
                    "L%d" % n,
                    [SagaStep("L%ds%d" % (n, i)) for i in range(1, n + 1)],
                )
            )
            for n in SAGA_LENGTHS
        }
        self.flex = translate_flexible(fig3_spec())
        self.engine = self._engine()

    def _engine(self):
        engine = Engine(
            store=DurableStore(
                self.directory,
                sync=harness.SYNC,
                checkpoint_every_records=CHECKPOINT_EVERY,
            )
        )
        engine.register_program(
            NOP_PROGRAM, nop_program, "null activity", replace=True
        )
        for translation in self.sagas.values():
            self._register_saga(engine, translation)
            engine.register_definition(translation.process)
        policies = {
            member.name: PlannedAbort(self.plan, self.cursor, member.name)
            for member in self.flex.spec.members.values()
        }
        actions, compensations = fig3_bindings(self.db, policies)
        register_flexible_programs(
            engine, self.flex, actions, compensations
        )
        engine.register_definition(self.flex.process)
        for name in engine.programs.names():
            registered = engine.programs.get(name)
            registered.callable = self._track_root(registered.callable)
        return engine

    def _register_saga(self, engine, translation):
        spec = translation.spec
        for step in spec.steps:
            key = "n:%s" % step.name
            forward = Subtransaction(
                step.name,
                self.db,
                _increment(key, 1),
                policy=PlannedAbort(self.plan, self.cursor, step.name),
            )
            engine.register_program(
                step.program, forward.as_program(), replace=True
            )
            compensation = Subtransaction(
                "c" + step.name, self.db, _increment(key, -1)
            )
            engine.register_program(
                step.compensation_program,
                compensation.as_program(
                    passthrough=passthrough_for(spec, step.name)
                ),
                replace=True,
            )

    def _track_root(self, program):
        cursor = self.cursor

        def run(ctx):
            cursor[0] = ctx.instance_id.split("/", 1)[0]
            return program(ctx)

        return run

    # -- the closed loop -------------------------------------------------

    def start(self, index):
        op = self.stream[index]
        if op[0] == "saga":
            __, length, abort_at = op
            translation = self.sagas[length]
            iid = self.engine.start_process(translation.process_name)
            if abort_at:
                self.plan[iid] = ("L%ds%d" % (length, abort_at),)
        else:
            iid = self.engine.start_process(self.flex.process_name)
            self.plan[iid] = FLEX_VARIANTS[op[1]][0]
        self.kinds[iid] = op
        return iid

    def pump(self, keys):
        engine = self.engine
        stepped = 0
        while stepped < 16 and engine.step():
            stepped += 1
        finished = [k for k in keys if engine.instance_state(k) == "finished"]
        if not finished and not stepped:
            raise RuntimeError("saga_batch: engine idle with ops in flight")
        return finished

    def verify(self, iid):
        op = self.kinds.pop(iid)
        self.plan.pop(iid, None)
        if op[0] == "saga":
            __, length, abort_at = op
            translation = self.sagas[length]
            outcome = workflow_saga_outcome(self.engine, translation, iid)
            names = [s.name for s in translation.spec.steps]
            done = names[: abort_at - 1] if abort_at else names
            ok = (
                outcome.committed == (not abort_at)
                and outcome.executed == done
                and outcome.compensated == (
                    list(reversed(done)) if abort_at else []
                )
                and verify_saga_guarantee(
                    translation.spec, outcome.executed, outcome.compensated
                )
            )
            if ok and not abort_at:
                self.committed_by_length[length] += 1
            return ok, int(bool(abort_at))
        committed, path, compensated = FLEX_VARIANTS[op[1]][1]
        outcome = workflow_flexible_outcome(self.engine, self.flex, iid)
        ok = (
            outcome.committed == committed
            and (outcome.committed_path == path if committed else True)
            and outcome.compensated == compensated
        )
        return ok, int(bool(compensated))

    def consistent(self):
        """Every saga step's counter equals the committed sagas of its
        length: aborted steps and compensated prefixes left nothing."""
        for length, spec in self.sagas.items():
            want = self.committed_by_length[length]
            for step in spec.spec.steps:
                if self.db.get("n:%s" % step.name, 0) != want:
                    return False
        return True

    # -- crash and recovery ----------------------------------------------

    def crash_and_recover(self, point):
        """Crash the engine and rebuild it over the same store; returns
        the recovered engine's ``DurableStore.last_recovery``."""
        self.engine.crash()
        self.engine = self._engine()
        self.engine.recover()
        return self.engine.store.last_recovery

    def crash_points(self):
        """Engine steps into a fresh in-flight window before each
        crash."""
        return (60, 180)

    def advance(self, steps):
        for __ in range(steps):
            if not self.engine.step():
                break

    def durable_dirs(self):
        return {"store": self.directory}

    def broker_pid(self):
        return None

    def step_specs(self):
        return []

    def flow_counters(self):
        return {}

    def teardown(self):
        if not self.engine.crashed:
            self.engine.close()
