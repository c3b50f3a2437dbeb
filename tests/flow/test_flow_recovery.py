"""Crash-resume for decorated flows, and the resume-equivalence
property: a flow killed at *any* point — between engine steps, at the
append of any of its step records, or just after any journal record
reached the file — and resumed on a fresh engine produces the same
containers, return code, execution order, database state, and
(normalized) audit trail as one that never crashed.  Every step body
whose record was durable runs exactly once; the one body whose record
the crash lost runs once more on resume (its effect was never
durable), and a transactional body's writes still land exactly once.
"""

import os

import pytest

from repro.errors import JournalError
from repro.flow import StepFailure, install_flows, step, transaction, workflow
from repro.resilience import FaultInjector, FaultRule
from repro.store import DurableStore
from repro.tx import ScopeManager, SimDatabase
from repro.wfms import Engine
from repro.core.scoped import install_scope_service

from tests.flow.harness import (
    assert_exactly_once,
    flow_engine,
    normalized_audit,
)


def capture(engine, rt, uuid, db):
    result = rt.result(uuid)
    return {
        "state": result.state,
        "rc": result.return_code,
        "value": result.value,
        "error": result.error,
        "output": engine.output(uuid),
        "order": engine.audit.execution_order(uuid),
        "audit": normalized_audit(engine, uuid),
        "db": db.snapshot(),
    }


def kill_at_step_append(*counts):
    """Fail the append of these flow_step records (global 1-based
    count): the step's body ran, its record never reached the file."""
    return FaultRule("journal.append", match="flow_step", schedule=counts)


def kill_after_append(*counts):
    """Crash just after these journal records (any type, global
    1-based count) reached the file: the fsync of a ``sync="always"``
    append fails, the engine degrades, and the record is on disk."""
    return FaultRule("journal.fsync", match="append", schedule=counts)


class Harness:
    """One run of one flow over a crashable engine incarnation chain."""

    def __init__(
        self, tmp_path, tag, make_flows, seed=0, store_every=None, kill=None
    ):
        self.dir = str(tmp_path / tag)
        os.makedirs(self.dir, exist_ok=True)
        self.db = SimDatabase()
        self.calls: list = []
        self.holder: dict = {}
        self.make_flows = make_flows
        self.seed = seed
        self.store_every = store_every
        # One injector across incarnations: its schedule counts
        # appends over the whole run, and fires each count once.
        self.injector = FaultInjector([kill]) if kill is not None else None
        self.crashes = 0
        self.engine = None
        self.rt = None
        self._boot()

    def _boot(self):
        if self.store_every:
            store = DurableStore(
                os.path.join(self.dir, "store"),
                checkpoint_every_records=self.store_every,
            )
            engine = Engine(store=store, fault_injector=self.injector)
            install_scope_service(engine, ScopeManager(self.db))
        else:
            engine = flow_engine(
                self.db,
                journal_path=os.path.join(self.dir, "j.log"),
                fault_injector=self.injector,
            )
        self.holder["manager"] = engine.services["tx_scopes"]
        self.engine = engine
        self.rt = install_flows(
            engine, self.make_flows(self.calls, self.holder), seed=self.seed
        )

    def crash_and_resume(self):
        self.crashes += 1
        self.engine.crash()
        self._boot()
        self.engine.recover()

    def run_killing_after(self, kills=(), max_steps=10_000):
        """Drive to quiescence, crashing after the i-th successful
        engine step for each i in ``kills`` (global count across
        incarnations) and wherever the injector fails a journal
        write (the engine has degraded to crashed)."""
        pending = sorted(set(kills), reverse=True)
        done = 0
        for __ in range(max_steps):
            try:
                stepped = self.engine.step()
            except JournalError:
                assert self.engine.crashed
                self.crash_and_resume()
                continue
            if not stepped:
                break
            done += 1
            if pending and pending[-1] == done:
                pending.pop()
                self.crash_and_resume()
        return done

    def journal_counts(self):
        """(flow_step records, all records) this run's journal holds."""
        records = self.engine.journal.records()
        steps = sum(1 for r in records if r["type"] == "flow_step")
        return steps, len(records)


def simple_flows(calls, holder):
    @step
    def add(a, b):
        calls.append(("add", a, b))
        return a + b

    @transaction
    def credit(scope, key, amount):
        calls.append(("credit", key, amount))
        return scope.increment(key, amount)

    @workflow
    def chain(flow, n):
        total = 0
        for i in range(n):
            total = add(total, i)
        bal = credit("acct:a", total)
        if bal > 3:
            total = add(total, 100)
        return {"total": total, "bal": bal}

    return [chain]


def saboteur_flows(calls, holder):
    """A pipeline whose middle @transaction step kills the *whole
    scope* on its first execution (a chaos stand-in for a timeout or
    deadlock abort) and is retried by the workflow."""

    @step
    def add(a, b):
        calls.append(("add", a, b))
        return a + b

    @transaction
    def credit(scope, key, amount):
        calls.append(("credit", key, amount))
        return scope.increment(key, amount)

    # The chaos flag must outlive engine incarnations (a resumed
    # attempt re-runs the workflow body from the top), so it lives in
    # the harness, not in the flow.
    holder.setdefault("armed", True)

    @transaction
    def shaky_credit(scope, key, amount):
        # The retry is a distinct invocation (a new function_id), so
        # the exactly-once recorder keys on the chaos state too.
        calls.append(("shaky", key, "armed" if holder["armed"] else "retry"))
        scope.write("tmp:%s" % key, amount)
        if holder["armed"]:
            holder["armed"] = False
            # Abort the surrounding scope out from under the step.
            holder["manager"].rollback(scope.handle, "injected abort")
            return scope.read(key)  # raises: the scope is gone
        return scope.increment(key, amount)

    @workflow
    def pipeline(flow, n):
        total = 0
        for i in range(1, n + 1):
            total = add(total, i)
        first = credit("acct:a", total)
        paid = None
        for __ in range(2):
            try:
                paid = shaky_credit("acct:b", first)
                break
            except StepFailure as exc:
                assert exc.error_type == "ScopeError"
        tail = add(paid, 1)
        final = credit("acct:c", tail)
        return {"paid": paid, "tail": tail, "final": final}

    return [pipeline]


class TestCrashResume:
    def test_uncrashed_flow_is_one_attempt_with_one_record_per_step(
        self, tmp_path
    ):
        h = Harness(tmp_path, "plain", simple_flows, seed=1)
        uuid = h.rt.start("chain", 4)
        assert h.run_killing_after() == 1  # the whole flow: one step
        assert h.rt.result(uuid).value == {"total": 106, "bal": 6}
        kinds = [r["type"] for r in h.engine.journal.records()]
        assert kinds == (
            ["process_started"]
            + ["flow_step"] * 6
            + ["activity_completed", "process_finished"]
        )
        completion = h.engine.journal.records()[-2]
        assert completion["attempt"] == 1
        assert h.rt.counters["steps_replayed_resume"] == 0

    def test_resume_skips_journaled_steps(self, tmp_path):
        # Records: process_started, then add x3 -> crash after the
        # third step record reached the file.
        h = Harness(
            tmp_path, "one", simple_flows, seed=2, kill=kill_after_append(4)
        )
        uuid = h.rt.start("chain", 4)
        h.run_killing_after()
        assert h.crashes == 1
        assert h.rt.counters["flows_started"] == 0  # fresh runtime
        result = h.rt.result(uuid)
        assert result.ok
        assert result.value == {"total": 106, "bal": 6}
        # Bodies ran exactly once across both incarnations.
        assert [c for c in h.calls if c[0] == "add"] == [
            ("add", 0, 0),
            ("add", 0, 1),
            ("add", 1, 2),
            ("add", 3, 3),
            ("add", 6, 100),
        ]
        assert h.rt.counters["flows_resumed"] == 1
        assert h.rt.counters["steps_replayed_resume"] == 3

    def test_resume_reestablishes_the_scope(self, tmp_path):
        # process_started, add x4, credit: crash right after credit.
        h = Harness(
            tmp_path, "scope", simple_flows, seed=3, kill=kill_after_append(6)
        )
        uuid = h.rt.start("chain", 4)
        h.run_killing_after()
        assert h.crashes == 1
        assert h.rt.result(uuid).ok
        assert h.db.get("acct:a") == 6
        # The credit body must not have re-run...
        assert len([c for c in h.calls if c[0] == "credit"]) == 1
        # ...its journaled effects were re-applied onto a fresh scope.
        assert h.rt.counters["scopes_reestablished"] == 1

    def test_lost_step_record_reruns_only_that_body(self, tmp_path):
        # The credit body ran, but its record never reached the file:
        # its scope writes died with the crash, so it runs again.
        h = Harness(
            tmp_path, "lost", simple_flows, seed=3, kill=kill_at_step_append(5)
        )
        uuid = h.rt.start("chain", 4)
        h.run_killing_after()
        assert h.crashes == 1
        assert h.rt.result(uuid).value == {"total": 106, "bal": 6}
        assert [c for c in h.calls if c[0] == "credit"] == [
            ("credit", "acct:a", 6),
            ("credit", "acct:a", 6),
        ]
        assert h.db.get("acct:a") == 6  # applied once
        assert h.rt.counters["steps_replayed_resume"] == 4


class TestResumeEquivalence:
    """The property test: every kill point produces the baseline."""

    def _baseline(self, tmp_path, make_flows, start_args):
        h = Harness(tmp_path, "base", make_flows, seed=9)
        uuid = h.rt.start(*start_args)
        steps = h.run_killing_after()
        base = capture(h.engine, h.rt, uuid, h.db)
        assert_exactly_once(h.calls)
        assert base["state"] == "finished" and base["rc"] == 0
        step_records, records = h.journal_counts()
        return steps, step_records, records, base, list(h.calls)

    def _sweep(self, tmp_path, make_flows, start_args, cases, base):
        """``cases``: (engine-step kills, injector rule or None)."""
        for i, (kills, rule) in enumerate(cases):
            h = Harness(tmp_path, "k%d" % i, make_flows, seed=9, kill=rule)
            uuid = h.rt.start(*start_args)
            h.run_killing_after(kills)
            assert h.crashes >= 1
            got = capture(h.engine, h.rt, uuid, h.db)
            assert got == base, "kill schedule %r/%r diverged" % (kills, rule)
            yield h

    def _sweep_all(self, tmp_path, make_flows, start_args):
        steps, step_records, records, base, base_calls = self._baseline(
            tmp_path, make_flows, start_args
        )
        # Between engine steps (a flow is one step now, so these land
        # between flows or after the last one).
        for h in self._sweep(
            tmp_path / "steps",
            make_flows,
            start_args,
            [([k], None) for k in range(1, steps + 1)],
            base,
        ):
            assert_exactly_once(h.calls)
        # Just after every journal record past the start (record 1,
        # written by the start call itself) reached the file: every
        # body runs exactly once.
        for h in self._sweep(
            tmp_path / "durable",
            make_flows,
            start_args,
            [((), kill_after_append(n)) for n in range(2, records + 1)],
            base,
        ):
            assert h.crashes == 1
            assert_exactly_once(h.calls)
            assert h.calls == base_calls
        # At the append of every step record: the k-th body ran but
        # its record was lost, so that body (and only it) runs again —
        # unless state outside the journal (the saboteur's chaos flag)
        # routes the resumed attempt elsewhere.
        rerouted = 0
        for k, h in enumerate(
            self._sweep(
                tmp_path / "lost",
                make_flows,
                start_args,
                [((), kill_at_step_append(k))
                 for k in range(1, step_records + 1)],
                base,
            ),
            start=1,
        ):
            assert h.crashes == 1
            if h.calls == base_calls:
                rerouted += 1
            else:
                assert h.calls == base_calls[:k] + base_calls[k - 1:]
        return base, rerouted

    def test_every_single_kill_point_is_equivalent(self, tmp_path):
        __, rerouted = self._sweep_all(tmp_path, simple_flows, ("chain", 4))
        assert rerouted == 0

    def test_double_kills_are_equivalent(self, tmp_path):
        steps, step_records, records, base, base_calls = self._baseline(
            tmp_path, simple_flows, ("chain", 4)
        )
        for h in self._sweep(
            tmp_path,
            simple_flows,
            ("chain", 4),
            [
                ((), kill_after_append(2, 4)),
                ((), kill_after_append(3, records)),
                ((), kill_after_append(2, 3)),
                ([1], kill_after_append(5)),
            ],
            base,
        ):
            assert h.crashes == 2
            assert h.calls == base_calls

    def test_aborted_and_retried_transaction_is_equivalent(self, tmp_path):
        """Includes a @transaction step that aborts its whole scope on
        first execution and is retried — kill points falling before,
        on, and after the abort all converge to the baseline."""
        base, rerouted = self._sweep_all(
            tmp_path, saboteur_flows, ("pipeline", 3)
        )
        # Losing the armed attempt's failure record: its flag is
        # already spent, so the resumed call at that function_id is
        # the retry and succeeds — no body runs twice.
        assert rerouted == 1
        assert base["value"]["paid"] == 6
        assert base["db"]["acct:b"] == 6
        assert base["db"]["acct:c"] == 7


class TestStoreBackedResume:
    def test_checkpointed_recovery_resumes_flows(self, tmp_path):
        # The first flow finishes (one engine step) and a checkpoint
        # covers it; the second crashes after 3 of its step records.
        h = Harness(
            tmp_path,
            "st",
            simple_flows,
            seed=4,
            store_every=3,
            kill=kill_after_append(13),
        )
        first = h.rt.start("chain", 4)
        second = h.rt.start("chain", 4)
        h.run_killing_after()
        assert h.crashes == 1
        # Recovery came from snapshot + suffix, not a cold scan.
        assert h.engine.store.last_recovery["checkpoint"] is not None
        assert h.rt.counters["steps_replayed_resume"] == 3
        for uuid in (first, second):
            assert h.rt.result(uuid).ok
        assert h.rt.result(first).value == {"total": 106, "bal": 6}
        assert h.rt.result(second).value == {"total": 106, "bal": 12}
        # The first flow made 6 calls; the resumed second flow made
        # the same 6, each once.
        assert h.calls[6:] == h.calls[:6]
        assert h.db.get("acct:a") == 12

    def test_compaction_while_a_flow_is_interrupted(self, tmp_path):
        """Regression: a checkpoint taken while a flow is interrupted
        lets compaction drop that flow's step records, so the snapshot
        itself must carry the step table.  Recover, checkpoint and
        compact before the flow resumes, crash again, recover: the
        flow must still finish with every body run exactly once."""
        h = Harness(
            tmp_path,
            "cmp",
            simple_flows,
            seed=5,
            store_every=3,
            kill=kill_after_append(5),  # started + add x4 on file
        )
        uuid = h.rt.start("chain", 4)
        with pytest.raises(JournalError):
            h.engine.step()
        assert h.engine.crashed
        h.crash_and_resume()
        store = h.engine.store
        assert len(h.engine.navigator.flow_steps(uuid)) == 4
        checkpoint = h.engine.checkpoint()  # compacts by default
        # The step records are gone from the journal...
        assert not [
            r
            for r in store.journal.records()
            if r["type"] == "flow_step" and r["instance"] == uuid
        ]
        # ...and live on in the snapshot.
        assert len(checkpoint.state["flow_steps"][uuid]) == 4
        h.crash_and_resume()
        assert h.engine.store.last_recovery["offset"] == checkpoint.offset
        h.run_killing_after()
        result = h.rt.result(uuid)
        assert result.ok
        assert result.value == {"total": 106, "bal": 6}
        assert_exactly_once(h.calls)
        assert len(h.calls) == 6
        assert h.rt.counters["steps_replayed_resume"] == 4
        assert h.db.get("acct:a") == 6


def ladder_flows(calls, holder):
    """``n`` journaled steps, every 50th a @transaction credit."""

    @step
    def rung(i, acc):
        calls.append(("rung", i))
        return acc + i

    @transaction
    def credit(scope, i):
        calls.append(("credit", i))
        return scope.increment("acct:ladder", i)

    @workflow(max_steps=1000)
    def ladder(flow, n):
        acc = balance = 0
        for i in range(1, n + 1):
            if i % 50 == 0:
                balance = credit(i)
            else:
                acc = rung(i, acc)
        return {"acc": acc, "balance": balance}

    return [ladder]


def ladder_value(n):
    return {
        "acc": sum(i for i in range(1, n + 1) if i % 50),
        "balance": sum(i for i in range(1, n + 1) if i % 50 == 0),
    }


class TestLongFlows:
    def test_400_step_flow_runs_every_body_once_through_a_crash(
        self, tmp_path
    ):
        # Crash after record 251: the start plus 250 step records.
        h = Harness(
            tmp_path, "long", ladder_flows, seed=6, kill=kill_after_append(251)
        )
        uuid = h.rt.start("ladder", 400)
        h.run_killing_after()
        assert h.crashes == 1
        assert h.rt.result(uuid).value == ladder_value(400)
        assert_exactly_once(h.calls)
        assert len(h.calls) == 400
        assert h.rt.counters["steps_replayed_resume"] == 250
        assert h.rt.counters["steps_executed"] == 150
        assert h.db.get("acct:ladder") == ladder_value(400)["balance"]

    def test_journal_bytes_per_step_do_not_grow_with_flow_length(
        self, tmp_path
    ):
        per_step = {}
        for n in (25, 200):
            h = Harness(tmp_path, "bytes%d" % n, ladder_flows, seed=6)
            uuid = h.rt.start("ladder", n)
            h.run_killing_after()
            assert h.rt.result(uuid).value == ladder_value(n)
            assert_exactly_once(h.calls)
            h.engine.close()
            per_step[n] = os.path.getsize(os.path.join(h.dir, "j.log")) / n
        assert per_step[200] <= 1.1 * per_step[25], per_step
