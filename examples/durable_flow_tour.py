#!/usr/bin/env python3
"""Durable Python workflows — the decorator front end (DESIGN.md §16).

A plain Python function becomes a durable workflow: the ``@workflow``
body runs to completion in one attempt, each ``@step`` outcome is
appended to the engine journal as its own record the moment the step
finishes, and ``@transaction`` steps write through a savepointed
transaction scope.  Only a crash makes the body run again: the resumed
attempt answers every journaled step from its record and runs the rest
live.  This tour runs a checkout flow, crashes the engine mid-flow
(a fault rule fails the journal's fsync just after the fourth record),
resumes on a fresh engine over the same journal, and shows that no
step body re-executed.

Run with::

    python examples/durable_flow_tour.py
"""

import os
import tempfile

from repro.core.scoped import install_scope_service
from repro.errors import JournalError
from repro.flow import StepFailure, install_flows, step, transaction, workflow
from repro.resilience import FaultInjector, FaultRule
from repro.tx import ScopeManager, SimDatabase
from repro.wfms import Engine

invocations: list = []


@step
def fetch(sku):
    invocations.append(("fetch", sku))
    return {"sku": sku, "price": 40 + len(sku)}


@step(name="taxed")
def with_tax(price):
    invocations.append(("tax", price))
    return price + price // 10


@transaction
def debit(scope, key, amount):
    invocations.append(("debit", key, amount))
    return scope.increment(key, -amount)


@step
def risky(total):
    invocations.append(("risky", total))
    raise RuntimeError("carrier rejected %d" % total)


@workflow
def checkout(flow, sku):
    item = fetch(sku)
    total = with_tax(item["price"])
    try:
        risky(total)  # fails; the failure itself is journaled
    except StepFailure as exc:
        surcharge = 1  # caught inline, flow continues
        assert exc.error_type == "RuntimeError"
    balance = debit("acct:main", total + surcharge)
    return {"sku": sku, "total": total + surcharge, "balance": balance}


def build_engine(journal_path, db, injector=None):
    engine = Engine(journal_path=journal_path, fault_injector=injector)
    install_scope_service(engine, ScopeManager(db))
    runtime = install_flows(engine, [checkout], seed=7)
    return engine, runtime


def main() -> None:
    journal_path = os.path.join(tempfile.mkdtemp(), "flows.journal")
    db = SimDatabase()
    print("journal:", journal_path)

    # Journal records: the start, then fetch, taxed, risky — the disk
    # "fails" right after the fourth reached the file.
    failing_disk = FaultInjector(
        [FaultRule("journal.fsync", match="append", schedule={4})]
    )
    engine, runtime = build_engine(journal_path, db, failing_disk)
    uuid = runtime.start("checkout", "sku-1")
    print("started flow", uuid)
    try:
        engine.run()
    except JournalError as exc:
        print("\n*** machine failure mid-flow: %s ***\n" % exc)
    assert engine.crashed
    print("bodies so far:", [c[0] for c in invocations])
    engine.crash()

    engine, runtime = build_engine(journal_path, db)
    engine.recover()
    engine.run()

    result = runtime.result(uuid)
    assert result.ok, result.error
    print("result:       ", result.value)
    print("bodies total: ", [c[0] for c in invocations])
    print("replayed steps on resume:",
          runtime.counters["steps_replayed_resume"])
    assert runtime.counters["steps_replayed_resume"] == 3
    assert len(invocations) == len(set(map(repr, invocations))), (
        "durable flows must never re-execute a journaled step body"
    )
    assert db.get("acct:main") == -result.value["total"]
    print("\nevery step body ran exactly once — the journal held.")


if __name__ == "__main__":
    main()
