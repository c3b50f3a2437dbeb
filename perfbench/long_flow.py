"""``long_flow``: the ``@workflow`` layer on its own.

One :class:`~repro.wfms.engine.Engine` over a
:class:`~repro.store.DurableStore` runs 200-step flows, four in flight.
Every tenth step is a ``@transaction`` credit on the flow's own
account; the accounts are disjoint on purpose, so no flow waits on
another's locks (shared hot accounts across flow-lifetime scopes end
in lock timeouts that measure a wall-clock timer, not the program).
Flow replay dominates the cost.
"""

from __future__ import annotations

import os

import harness
from repro.core.scoped import install_scope_service
from repro.flow import install_flows, step, transaction, workflow
from repro.store import DurableStore
from repro.tx import ScopeManager, SimDatabase
from repro.wfms.engine import Engine

STEPS = 200
CREDIT_EVERY = 10
#: journal records between checkpoints (each compacts the journal).
CHECKPOINT_EVERY = 3000


def make_flow(calls, steps):
    """The flow and its step specs; ``calls[idx]`` counts body runs."""

    @step
    def work(idx, i, acc):
        calls[idx] = calls.get(idx, 0) + 1
        return acc + i % 7 + 1

    @transaction
    def credit(scope, idx, amount):
        calls[idx] = calls.get(idx, 0) + 1
        return scope.increment("acct:%d" % idx, amount)

    @workflow(name="long%d" % steps, max_steps=steps)
    def long_flow(flow, idx, base):
        acc = base
        balance = 0
        for i in range(1, steps + 1):
            if i % CREDIT_EVERY == 0:
                balance = credit(idx, i)
            else:
                acc = work(idx, i, acc)
        return {"idx": idx, "acc": acc, "balance": balance}

    return long_flow, [work, credit]


def expected(base, steps):
    acc = base + sum(
        i % 7 + 1 for i in range(1, steps + 1) if i % CREDIT_EVERY
    )
    balance = sum(i for i in range(1, steps + 1) if i % CREDIT_EVERY == 0)
    return acc, balance


class LongFlow:
    name = "long_flow"
    window = 4
    block_ops = 4
    episode_ops = 32
    tail_ops = 100
    trace_ops = 16
    steps = STEPS

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self, episode, ops):
        self.directory = os.path.join(self.workdir, "ep%d" % episode)
        self.base = self.seed * 7919 + episode * 104729
        self.db = SimDatabase()
        self.calls = {}
        self.banked = {}
        self.flow, self.specs = make_flow(self.calls, self.steps)
        self.uuids = {}
        self.engine, self.runtime = self._engine()

    def _engine(self):
        engine = Engine(
            store=DurableStore(
                self.directory,
                sync=harness.SYNC,
                checkpoint_every_records=CHECKPOINT_EVERY,
            )
        )
        install_scope_service(engine, ScopeManager(self.db))
        runtime = install_flows(engine, [self.flow], seed=self.seed)
        return engine, runtime

    def start(self, index):
        uuid = self.runtime.start(self.flow.name, index, self.base + index)
        self.uuids[uuid] = index
        return uuid

    def pump(self, keys):
        engine = self.engine
        stepped = 0
        while stepped < 64 and engine.step():
            stepped += 1
        finished = [k for k in keys if engine.instance_state(k) == "finished"]
        if not finished and not stepped:
            raise RuntimeError("long_flow: engine idle with flows in flight")
        return finished

    def verify(self, uuid):
        index = self.uuids.pop(uuid)
        result = self.runtime.result(uuid)
        acc, balance = expected(self.base + index, self.steps)
        ok = (
            result.ok
            and result.value == {"idx": index, "acc": acc, "balance": balance}
            and self.db.get("acct:%d" % index) == balance
            and self.calls.get(index) == self.steps
        )
        return ok, 0

    def consistent(self):
        return all(n == self.steps for n in self.calls.values())

    def crash_points(self):
        """Engine steps into a fresh window before each crash."""
        return (150, 450)

    def advance(self, steps):
        for __ in range(steps):
            if not self.engine.step():
                break

    def crash_and_recover(self, point):
        harness.add_counts(self.banked, self.runtime.counters)
        self.engine.crash()
        self.engine, self.runtime = self._engine()
        self.engine.recover()
        return self.engine.store.last_recovery

    def flow_counters(self):
        return harness.add_counts(dict(self.banked), self.runtime.counters)

    def step_specs(self):
        return self.specs

    def broker_pid(self):
        return None

    def durable_dirs(self):
        return {"store": self.directory}

    def teardown(self):
        if not self.engine.crashed:
            self.engine.close()
