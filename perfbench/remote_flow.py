"""``remote_flow``: the canonical durable path, a ``@workflow`` called
over the socket broker.

A ``front`` :class:`~repro.wfms.distributed.WorkflowNode` (Engine +
DurableStore) runs a one-activity process whose remote activity calls
an 8-step ``@workflow`` (seven ``@step`` calls and one
``@transaction`` credit on a per-call account) served by a ``flowd``
node (Engine + DurableStore).  Both talk to a durable broker in its
own OS process (:class:`~repro.net.BrokerProcess`) over
:class:`~repro.net.SocketBus`.  Calls go out in batches of four and
:func:`~repro.wfms.distributed.run_cluster` drives both nodes in
lockstep until the batch has its replies.
"""

from __future__ import annotations

import json
import os

import harness
from repro.core.scoped import install_scope_service
from repro.flow import (
    ARGS,
    ERROR,
    RESULT,
    flow_args,
    install_flows,
    step,
    transaction,
    workflow,
)
from repro.net import BrokerProcess, SocketBus
from repro.store import DurableStore
from repro.tx import ScopeManager, SimDatabase
from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.distributed import (
    WorkflowNode,
    _advance_to_timers,
    run_cluster,
)
from repro.wfms.model import PROCESS_INPUT, PROCESS_OUTPUT, ProcessDefinition

STEPS = 8
CREDIT_AT = 5
#: journal records between checkpoints, per node store and bus log.
CHECKPOINT_EVERY = 2000


def make_flow(calls):
    """The served flow and its step specs; ``calls[idx]`` counts body
    runs."""

    @step
    def work(idx, i, acc):
        calls[idx] = calls.get(idx, 0) + 1
        return acc * 3 % 1009 + i

    @transaction
    def credit(scope, idx, amount):
        calls[idx] = calls.get(idx, 0) + 1
        return scope.increment("acct:%d" % idx, amount)

    @workflow(name="remote8")
    def remote8(flow, idx, base):
        acc = base
        balance = 0
        for i in range(1, STEPS + 1):
            if i == CREDIT_AT:
                balance = credit(idx, base)
            else:
                acc = work(idx, i, acc)
        return {"idx": idx, "acc": acc, "balance": balance}

    return remote8, [work, credit]


def expected(base):
    acc = base
    for i in range(1, STEPS + 1):
        if i != CREDIT_AT:
            acc = acc * 3 % 1009 + i
    return acc


class RemoteFlow:
    name = "remote_flow"
    window = 4
    block_ops = 32
    episode_ops = 896
    tail_ops = 448
    trace_ops = 480
    broker_cpu = None

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.broker = None

    # -- set-up ----------------------------------------------------------

    def setup(self, episode, ops):
        self.directory = os.path.join(self.workdir, "ep%d" % episode)
        self.base = self.seed * 7919 + episode * 104729
        self.db = SimDatabase()
        self.calls = {}
        self.banked = {}
        self.flow, self.specs = make_flow(self.calls)
        self.broker = BrokerProcess(
            durable_dir=os.path.join(self.directory, "broker"),
            durable_sync=harness.SYNC,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        if self.broker_cpu is not None:
            harness.pin(self.broker.pid, self.broker_cpu)
        host, port = self.broker.address
        self.buses = [
            SocketBus(host, port, name=name) for name in ("flowd", "front")
        ]
        self.flowd = WorkflowNode(
            "flowd",
            self.buses[0],
            store_factory=self._store_factory("flowd"),
        )
        self._configure_flowd(self.flowd)
        self.front = WorkflowNode(
            "front",
            self.buses[1],
            store_factory=self._store_factory("front"),
        )
        self._configure_front(self.front)
        self.nodes = [self.front, self.flowd]
        self.indices = {}

    def _store_factory(self, node):
        path = os.path.join(self.directory, node)

        def build():
            return DurableStore(
                path,
                sync=harness.SYNC,
                checkpoint_every_records=CHECKPOINT_EVERY,
            )

        return build

    def _configure_flowd(self, node):
        install_scope_service(node.engine, ScopeManager(self.db))
        self.runtime = install_flows(node.engine, [self.flow], seed=self.seed)
        node.serve(self.flow.definition)

    def _configure_front(self, node):
        outer = ProcessDefinition(
            "Outer",
            input_spec=[VariableDecl(ARGS, DataType.STRING)],
            output_spec=[
                VariableDecl(RESULT, DataType.STRING),
                VariableDecl(ERROR, DataType.STRING),
            ],
        )
        outer.add_activity(
            node.remote_activity(
                "CallFlow",
                process=self.flow.name,
                node="flowd",
                input_spec=[VariableDecl(ARGS, DataType.STRING)],
                output_spec=[
                    VariableDecl(RESULT, DataType.STRING),
                    VariableDecl(ERROR, DataType.STRING),
                ],
            )
        )
        outer.map_data(PROCESS_INPUT, "CallFlow", [(ARGS, ARGS)])
        outer.map_data(
            "CallFlow", PROCESS_OUTPUT, [(RESULT, RESULT), (ERROR, ERROR)]
        )
        node.engine.register_definition(outer)

    # -- the closed loop -------------------------------------------------

    def start(self, index):
        iid = self.front.engine.start_process(
            "Outer", flow_args(index, self.base + index)
        )
        self.indices[iid] = index
        return iid

    def pump(self, keys):
        run_cluster(self.nodes, watch=[(self.front, k) for k in keys])
        return list(keys)

    def verify(self, iid):
        index = self.indices.pop(iid)
        base = self.base + index
        out = self.front.engine.output(iid)
        value = json.loads(out[RESULT]) if out.get(RESULT) else None
        ok = (
            out.get(ERROR) == ""
            and value == {"idx": index, "acc": expected(base), "balance": base}
            and self.db.get("acct:%d" % index) == base
            and self.calls.get(index) == STEPS
        )
        return ok, 0

    def consistent(self):
        return all(n == STEPS for n in self.calls.values())

    # -- crash and recovery ----------------------------------------------

    def crash_points(self):
        """(node, lockstep rounds into a fresh batch) per crash."""
        return (("flowd", 3), ("front", 2))

    def advance(self, point):
        for __ in range(point[1]):
            progressed = False
            for node in self.nodes:
                for __ in range(50):  # run_cluster's steps per round
                    if not node.engine.step():
                        break
                    progressed = True
                if node.pump():
                    progressed = True
            if not progressed:
                _advance_to_timers(self.nodes)

    def crash_and_recover(self, point):
        if point[0] == "flowd":
            harness.add_counts(self.banked, self.runtime.counters)
            self.flowd.crash()
            self.flowd.rebuild(self._configure_flowd)
            return self.flowd.engine.store.last_recovery
        self.front.crash()
        self.front.rebuild(self._configure_front)
        return self.front.engine.store.last_recovery

    def flow_counters(self):
        return harness.add_counts(dict(self.banked), self.runtime.counters)

    def step_specs(self):
        return self.specs

    def broker_pid(self):
        return self.broker.pid if self.broker is not None else None

    def durable_dirs(self):
        return {
            "front": os.path.join(self.directory, "front"),
            "flowd": os.path.join(self.directory, "flowd"),
            "broker": os.path.join(self.directory, "broker"),
        }

    def teardown(self):
        for node in self.nodes:
            if not node.engine.crashed:
                node.engine.close()
        for bus in self.buses:
            bus.close()
        self.broker.close()
        self.broker = None
