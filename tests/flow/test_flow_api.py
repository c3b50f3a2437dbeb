"""The decorator front end: @workflow/@step/@transaction semantics on
a live engine — one attempt per flow journaling one record per step,
StepFailure handling, savepoint rollback, and the runtime surface."""

import json

import pytest

from repro.errors import DefinitionError, FlowError, JournalError, StepFailure
from repro.flow import (
    ARGS,
    DRIVE,
    DRIVE_PROGRAM,
    ERROR,
    FLOW_SERVICE,
    RESULT,
    FlowRuntime,
    current_context,
    flow_args,
    install_flows,
    step,
    transaction,
    workflow,
)
from repro.obs import FlowStepExecuted, FlowStepReplayed, Observability
from repro.resilience import FaultInjector, FaultRule
from repro.wfms.conditions import ALWAYS

from tests.flow.harness import flow_engine


def make_checkout(calls):
    @step
    def fetch(order_id):
        calls.append(("fetch", order_id))
        return {"order": order_id, "total": 7}

    @step(name="taxed")
    def tax(total):
        calls.append(("tax", total))
        return total + 3

    @transaction
    def debit(scope, account, amount):
        calls.append(("debit", account))
        scope.increment(account, -amount)
        return scope.read(account)

    @workflow
    def checkout(flow, order_id, customer="alice"):
        order = fetch(order_id)
        total = tax(order["total"])
        balance = debit("acct:%s" % customer, total)
        return {"total": total, "balance": balance, "uuid": flow.uuid}

    return checkout


class TestDecorators:
    def test_step_outside_flow_is_the_plain_function(self):
        @step
        def double(x):
            return x * 2

        assert current_context() is None
        assert double(21) == 42
        assert double.name == "double"
        assert double.__wrapped__(3) == 6

    def test_step_name_override(self):
        @step(name="renamed")
        def fn():
            return 1

        assert fn.name == "renamed"

    def test_transaction_outside_flow_raises(self):
        @transaction
        def credit(scope, key):
            return scope.increment(key, 1)

        with pytest.raises(FlowError, match="running flow"):
            credit("k")

    def test_workflow_not_directly_callable(self):
        @workflow
        def wf(flow):
            return 1

        with pytest.raises(FlowError, match="FlowRuntime"):
            wf()

    def test_workflow_options(self):
        @workflow(name="Named", version="3", max_steps=5, failure_rc=9)
        def wf(flow):
            return 1

        assert wf.name == "Named"
        assert wf.version == "3"
        assert wf.max_steps == 5
        assert wf.failure_rc == 9

    def test_compiled_definition_shape(self):
        checkout = make_checkout([])
        d = checkout.definition
        assert d.name == "checkout"
        assert sorted(d.activities) == [DRIVE]
        drive = d.activities[DRIVE]
        assert drive.program == DRIVE_PROGRAM
        # One-shot: no exit-condition loop, no self connector carrying
        # a journal between attempts.
        assert drive.exit_condition.source == ALWAYS.source
        assert not [
            c
            for c in d.data_connectors
            if c.source == DRIVE and c.target == DRIVE
        ]
        # Compilation is cached on the Flow.
        assert checkout.definition is d


class TestRunningFlows:
    def test_flow_runs_each_step_exactly_once(self, engine, db):
        calls = []
        checkout = make_checkout(calls)
        rt = install_flows(engine, [checkout])
        assert engine.services[FLOW_SERVICE] is rt
        uuid = rt.start("checkout", 99, customer="bob")
        engine.run()
        result = rt.result(uuid)
        assert result.ok
        assert result.value == {"total": 10, "balance": -10, "uuid": uuid}
        assert calls == [("fetch", 99), ("tax", 7), ("debit", "acct:bob")]
        assert db.get("acct:bob") == -10
        # One attempt runs all 3 steps live; nothing replays.
        assert rt.counters["steps_executed"] == 3
        assert rt.counters["steps_replayed_resume"] == 0
        assert rt.counters["flows_resumed"] == 0
        assert rt.counters["flows_completed"] == 1
        assert rt.counters["txn_steps"] == 1
        assert engine.audit.execution_order(uuid) == [DRIVE]

    def test_two_flows_interleave_without_crosstalk(self, engine):
        calls = []
        checkout = make_checkout(calls)
        rt = install_flows(engine, [checkout])
        first = rt.start("checkout", 1, customer="a")
        second = rt.start("checkout", 2, customer="b")
        assert first != second
        engine.run()
        assert rt.result(first).value["balance"] == -10
        assert rt.result(second).value["balance"] == -10
        assert sorted(c for c in calls if c[0] == "fetch") == [
            ("fetch", 1),
            ("fetch", 2),
        ]

    def test_step_failure_caught_inline_and_retried(self, engine, db):
        attempts = []

        @transaction
        def flaky_pay(scope, amount):
            attempts.append(amount)
            scope.write("poison", "must-roll-back")
            if len(attempts) == 1:
                raise ValueError("transient")
            scope.write("paid", amount)
            return amount

        @workflow
        def pay_with_retry(flow, amount):
            for __ in range(3):
                try:
                    return flaky_pay(amount)
                except StepFailure as exc:
                    assert exc.error_type == "ValueError"
            return None

        rt = install_flows(engine, [pay_with_retry])
        uuid = rt.start("pay_with_retry", 5)
        engine.run()
        assert rt.result(uuid).value == 5
        assert attempts == [5, 5]  # body ran twice: fail, then succeed
        # The savepoint rolled the failed attempt's write back; the
        # retry's writes committed with the flow.
        assert db.get("paid") == 5
        assert db.get("poison") == "must-roll-back"  # retry wrote it too
        assert rt.counters["steps_failed"] == 1

    def test_plain_step_failure_replays_identically(self, engine):
        bodies = []

        @step
        def explode():
            bodies.append(1)
            raise RuntimeError("boom")

        @step
        def after():
            return "ran"

        @workflow
        def survivor(flow):
            try:
                explode()
            except StepFailure as exc:
                first = (exc.error_type, exc.error_message)
            after()
            try:
                explode()
            except StepFailure:
                pass
            return first

        rt = install_flows(engine, [survivor])
        uuid = rt.start("survivor")
        engine.run()
        assert rt.result(uuid).value == ["RuntimeError", "boom"]
        assert len(bodies) == 2  # each explode() call ran once, ever

    def test_uncaught_failure_fails_the_flow(self, engine, db):
        @transaction
        def reserve(scope):
            scope.write("reserved", True)
            return True

        @step
        def blow_up():
            raise KeyError("missing")

        @workflow(failure_rc=7)
        def doomed(flow):
            reserve()
            blow_up()
            return "unreachable"

        rt = install_flows(engine, [doomed])
        uuid = rt.start("doomed")
        engine.run()
        result = rt.result(uuid)
        assert not result.ok
        assert result.return_code == 7
        assert "StepFailure" in result.error
        assert "KeyError" in result.error
        assert result.value is None
        # The flow's scope rolled back: no committed writes.
        assert db.get("reserved") is None
        assert rt.counters["flows_failed"] == 1

    def test_nondeterministic_flow_detected(self, db, tmp_path):
        flips = []

        @step
        def first():
            return 1

        @step
        def other():
            return 2

        @workflow
        def unstable(flow):
            # Branch on mutable *external* state: the resumed attempt
            # replays a journal whose fid 1 was recorded for the other
            # step.
            if flips:
                other()
            else:
                flips.append(1)
                first()
            first()
            return "done"

        journal = str(tmp_path / "j.log")
        # Crash just after fid 1's record (journal record 2) is on file.
        injector = FaultInjector(
            [FaultRule("journal.fsync", match="append", schedule={2})]
        )
        engine = flow_engine(db, journal_path=journal, fault_injector=injector)
        uuid = install_flows(engine, [unstable]).start("unstable")
        with pytest.raises(JournalError):
            engine.run()
        engine.crash()
        engine = flow_engine(db, journal_path=journal)
        rt = install_flows(engine, [unstable])
        engine.recover()
        engine.run()
        result = rt.result(uuid)
        assert not result.ok
        assert "not deterministic" in result.error

    def test_journal_failure_cannot_be_swallowed_by_the_flow(
        self, db, tmp_path
    ):
        """A failed step-record append kills the attempt even when the
        workflow catches every exception: the error resurfaces at the
        next step call and at the driver, and the engine degrades to
        crashed instead of finishing the flow."""
        bodies = []

        @step
        def note(i):
            bodies.append(i)
            return i

        @workflow
        def stubborn(flow):
            for i in range(3):
                try:
                    note(i)
                except Exception:
                    pass
            return "finished anyway"

        injector = FaultInjector(
            [FaultRule("journal.append", match="flow_step", schedule={2})]
        )
        engine = flow_engine(
            db, journal_path=str(tmp_path / "j.log"), fault_injector=injector
        )
        rt = install_flows(engine, [stubborn])
        uuid = rt.start("stubborn")
        with pytest.raises(JournalError):
            engine.run()
        assert engine.crashed
        # The third body never ran: the dead attempt refused it.
        assert bodies == [0, 1]
        assert rt.counters["flows_completed"] == 0
        assert rt.counters["flows_failed"] == 0
        engine.crash()
        engine = flow_engine(db, journal_path=str(tmp_path / "j.log"))
        rt = install_flows(engine, [stubborn])
        engine.recover()
        engine.run()
        assert rt.result(uuid).value == "finished anyway"
        # Step 1's record was lost, so its body ran again.
        assert bodies == [0, 1, 1, 2]

    def test_max_steps_bounds_runaway_flows(self, engine):
        @step
        def tick(i):
            return i

        @workflow(max_steps=3)
        def runaway(flow):
            i = 0
            while True:
                tick(i)
                i += 1

        rt = install_flows(engine, [runaway])
        uuid = rt.start("runaway")
        engine.run()
        result = rt.result(uuid)
        assert not result.ok
        assert "max_steps=3" in result.error

    def test_unserializable_step_result_is_a_step_failure(self, engine):
        @step
        def bad():
            return object()

        @workflow
        def wf(flow):
            bad()
            return "ok"

        rt = install_flows(engine, [wf])
        uuid = rt.start("wf")
        engine.run()
        result = rt.result(uuid)
        assert not result.ok
        assert "JSON" in result.error

    def test_tuples_normalize_to_lists_before_first_use(self, engine):
        @step
        def pair():
            return (1, 2)

        @workflow
        def wf(flow):
            # The live attempt must see the JSON shape, not the tuple —
            # otherwise a resumed attempt would diverge from this one.
            value = pair()
            assert isinstance(value, list)
            return value

        rt = install_flows(engine, [wf])
        uuid = rt.start("wf")
        engine.run()
        assert rt.result(uuid).value == [1, 2]

    def test_flow_args_helper_matches_runtime_start(self, engine):
        calls = []
        checkout = make_checkout(calls)
        rt = install_flows(engine, [checkout])
        iid = engine.start_process(
            "checkout", flow_args(42, customer="carol")
        )
        engine.run()
        out = engine.output(iid)
        assert json.loads(out[RESULT])["balance"] == -10
        assert out[ERROR] == ""
        assert ARGS  # helper produced the member this definition reads

    def test_transaction_without_scope_service_fails_cleanly(self):
        from repro.wfms import Engine

        @transaction
        def pay(scope):
            return scope.increment("k", 1)

        @workflow
        def wf(flow):
            return pay()

        engine = Engine()  # no scope manager installed
        rt = install_flows(engine, [wf])
        uuid = rt.start("wf")
        engine.run()
        result = rt.result(uuid)
        assert not result.ok
        assert "tx_scopes" in result.error


class TestRegistrationIdempotence:
    def test_reregistering_the_same_flow_is_a_noop(self, engine):
        checkout = make_checkout([])
        rt = install_flows(engine, [checkout])
        plan = engine._definitions.plan_for(checkout.definition)
        rt.register(checkout)  # e.g. module re-import
        assert engine.definition("checkout") is checkout.definition
        assert engine._definitions.plan_for(checkout.definition) is plan

    def test_equivalent_flow_from_refactor_is_a_noop(self, engine):
        # Two compilations of the *same source* (same bodies, same
        # options) fingerprint identically even as distinct objects.
        first = make_checkout([])
        second = make_checkout([])
        rt = install_flows(engine, [first])
        rt.register(second)
        assert engine.definition("checkout") is first.definition

    def test_changed_body_same_name_version_rejected(self, engine):
        checkout = make_checkout([])
        install_flows(engine, [checkout])

        @workflow(name="checkout")
        def checkout2(flow, order_id):
            return order_id  # different body under the same name/version

        with pytest.raises(DefinitionError, match="different body"):
            engine.register_definition(checkout2.definition)

    def test_changed_options_same_name_version_rejected(self, engine):
        calls = []
        checkout = make_checkout(calls)
        install_flows(engine, [checkout])
        changed = make_checkout(calls)
        changed.max_steps = 77  # behavioral option is part of the body
        changed._definition = None
        with pytest.raises(DefinitionError, match="different body"):
            engine.register_definition(changed.definition)


class TestRuntimeSurface:
    def test_unknown_flow_start_rejected(self, engine):
        rt = FlowRuntime().install(engine)
        with pytest.raises(FlowError, match="no flow named"):
            rt.start("ghost")

    def test_register_before_install_rejected(self):
        rt = FlowRuntime()
        with pytest.raises(FlowError, match="install"):
            rt.register(make_checkout([]))

    def test_pinned_uuid(self, engine):
        checkout = make_checkout([])
        rt = install_flows(engine, [checkout])
        uuid = rt.start("checkout", 1, uuid="wf-checkout-pinned")
        assert uuid == "wf-checkout-pinned"
        engine.run()
        assert rt.result(uuid).ok

    def test_snapshot_shape(self, engine):
        checkout = make_checkout([])
        rt = install_flows(engine, [checkout])
        rt.start("checkout", 1)
        engine.run()
        snap = rt.snapshot()
        [entry] = snap["flows"]
        assert entry["name"] == "checkout"
        assert entry["version"] == "1"
        assert entry["started"] == 1
        assert entry["completed"] == 1
        assert entry["steps_executed"] == 3
        assert entry["steps_replayed"] == 0
        assert snap["counters"]["flows_started"] == 1


class TestObservability:
    def test_step_metrics_spans_and_events(self, db):
        engine = flow_engine(db, observability=Observability())
        calls = []
        checkout = make_checkout(calls)
        rt = install_flows(engine, [checkout])
        executed, replayed = [], []
        engine.obs.hooks.subscribe(FlowStepExecuted, executed.append)
        engine.obs.hooks.subscribe(FlowStepReplayed, replayed.append)
        uuid = rt.start("checkout", 5)
        engine.run()
        assert rt.result(uuid).ok

        metrics = engine.obs.metrics
        exec_counter = metrics.get("flow_steps_executed_total")
        assert exec_counter.labels("step").value == 2
        assert exec_counter.labels("transaction").value == 1
        # An uncrashed flow replays nothing.
        assert metrics.get("flow_steps_replayed_total").value == 0
        assert metrics.get("flow_step_seconds").count == 3

        assert [e.step for e in executed] == ["fetch", "taxed", "debit"]
        assert executed[0].workflow_uuid == uuid
        assert executed[2].kind == "transaction"
        assert replayed == []

        # Step spans parent under the Drive activity span.
        tracer = engine.obs.tracer
        step_spans = tracer.spans(name="flow.step fetch")
        assert len(step_spans) == 1
        [span] = step_spans
        assert span.attributes["workflow_uuid"] == uuid
        assert span.attributes["function_id"] == 1
        parent = next(
            s for s in tracer.export() if s["span_id"] == span.parent_id
        )
        assert parent["name"] == "activity %s" % DRIVE

    def test_disabled_obs_collects_nothing(self, engine):
        # `engine` fixture has observability off: the runtime must not
        # touch metrics/tracer at all.
        rt = install_flows(engine, [make_checkout([])])
        uuid = rt.start("checkout", 1)
        engine.run()
        assert rt.result(uuid).ok
        assert engine.obs.metrics.collect() == []
        assert engine.obs.tracer.export() == []
