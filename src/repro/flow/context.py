"""FlowContext: one attempt's ``function_id`` counter over the step table.

Execution model (one ``Drive`` attempt = one call of the workflow
function, run to completion):

* Every ``@step`` / ``@transaction`` call inside the body takes the
  next ``function_id`` (a plain counter, exactly as in the DBOS
  ``WorkflowContext`` exemplar).  The step's durable key is
  ``(workflow_uuid, function_id)``.
* If the instance's step table holds a record for that id, the
  recorded result is returned (or the recorded
  :class:`~repro.errors.StepFailure` re-raised) **without invoking the
  body**.  Only an attempt resuming after a crash finds records; an
  uninterrupted flow replays nothing.
* Otherwise the body runs live and its outcome is appended to the
  engine journal as one ``flow_step`` record before the call returns.
  That append is the journal point: a step's effect is durable iff its
  record is.  A body whose record never reached the journal (the crash
  fell between the two) runs again on resume.
* A failed append kills the attempt: the error is kept and re-raised
  by every later step call and by the driver, whatever the workflow
  code does with it, so the engine degrades to crashed and recovery
  resumes the flow from its durable records.
* A function return (or uncaught exception) ends the flow.

Transactional steps run inside one flow-lifetime
:class:`~repro.tx.scope.TransactionScope` under a per-step savepoint.
Their write effects (absolute final value per key) are journaled with
the result; when the scope is lost — crash-resume rolled it back as
torn, or a timeout/deadlock aborted it mid-flow — the context begins
a fresh scope and re-applies the journaled effects in function-id
order instead of re-running bodies, preserving exactly-once body
execution.
"""

from __future__ import annotations

import contextvars
import json
import time
from typing import Any

from repro.core.scoped import SCOPE_SERVICE
from repro.errors import FlowError, StepFailure, TransactionAborted, ScopeError
from repro.flow.compile import ARGS


_CURRENT: contextvars.ContextVar["FlowContext | None"] = (
    contextvars.ContextVar("repro_flow_context", default=None)
)


def current_context() -> "FlowContext | None":
    """The FlowContext of the flow driving this call stack, if any."""
    return _CURRENT.get()


def canon(value: Any) -> str:
    """Canonical JSON: the only serialization flows use."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def encode_args(args: tuple, kwargs: dict) -> str:
    """The ``_ARGS`` payload of a flow start."""
    try:
        return canon({"a": list(args), "k": dict(kwargs)})
    except (TypeError, ValueError) as exc:
        raise FlowError(
            "flow arguments must be JSON-serializable: %s" % exc
        ) from exc


class RecordingScope:
    """Scope proxy handed to ``@transaction`` bodies.

    Forwards to the real scope and records each written key's *final*
    value, so the effect set journaled with the step is absolute (and
    therefore idempotent to re-apply on a fresh scope).
    """

    __slots__ = ("_scope", "effects")

    def __init__(self, scope):
        self._scope = scope
        self.effects: dict[str, Any] = {}

    def read(self, key: str, default: Any = None) -> Any:
        return self._scope.read(key, default)

    def write(self, key: str, value: Any) -> None:
        self._scope.write(key, value)
        self.effects[key] = value

    def increment(self, key: str, delta: float | int) -> Any:
        value = self._scope.increment(key, delta)
        self.effects[key] = value
        return value

    @property
    def handle(self) -> str:
        return self._scope.handle


class FlowContext:
    """Passed to the workflow function as its first argument."""

    def __init__(self, runtime, flow, invocation, navigator):
        self.runtime = runtime
        self.flow = flow
        self.uuid: str = invocation.instance_id
        self.attempt: int = invocation.attempt
        self._services = invocation.services
        self._navigator = navigator
        raw_args = invocation.input.get(ARGS) or ""
        call = json.loads(raw_args) if raw_args else {"a": [], "k": {}}
        self.args: tuple = tuple(call.get("a", []))
        self.kwargs: dict = dict(call.get("k", {}))
        #: function_id -> journaled ``flow_step`` record: what earlier,
        #: interrupted attempts made durable (empty on a first attempt).
        self._steps: dict[int, dict] = navigator.flow_steps(self.uuid)
        self._fid = 0
        self._scope = None
        #: the journal failure that killed this attempt, if any.
        self._fatal: BaseException | None = None
        #: Journaled ok-transaction effects, [(fid, {key: final})].
        self._txn_effects: list[tuple[int, dict]] = [
            (fid, self._steps[fid]["w"])
            for fid in sorted(self._steps)
            if "w" in self._steps[fid]
        ]

    @property
    def resumed(self) -> bool:
        """Whether an interrupted earlier attempt journaled steps."""
        return bool(self._steps)

    # -- step dispatch ---------------------------------------------------

    def call(self, spec, args: tuple, kwargs: dict) -> Any:
        self.raise_if_fatal()
        self._fid += 1
        fid = self._fid
        entry = self._steps.get(fid)
        if entry is not None:
            return self._replay(fid, spec, entry)
        if fid > self.flow.max_steps:
            raise FlowError(
                "flow %r exceeded max_steps=%d"
                % (self.flow.name, self.flow.max_steps)
            )
        if spec.transactional:
            return self._execute_transaction(fid, spec, args, kwargs)
        return self._execute_step(fid, spec, args, kwargs)

    def raise_if_fatal(self) -> None:
        """Re-raise the journal failure that killed this attempt."""
        if self._fatal is not None:
            raise self._fatal

    # -- replay ----------------------------------------------------------

    def _replay(self, fid: int, spec, entry: dict) -> Any:
        if entry.get("n") != spec.name:
            raise FlowError(
                "flow %r is not deterministic: function_id %d was "
                "journaled as step %r but replay called %r"
                % (self.flow.name, fid, entry.get("n"), spec.name)
            )
        if "w" in entry:
            # Make sure the journaled effects exist in a live scope
            # (re-establishes and re-applies after a scope loss).
            self._ensure_scope()
        self.runtime.on_step_replayed(self, spec, fid)
        if entry.get("s") == "ok":
            return entry.get("v")
        raise StepFailure(
            spec.name, entry.get("t", "Exception"), entry.get("m", "")
        )

    # -- live execution --------------------------------------------------

    def _journal(self, fid: int, outcome: dict) -> None:
        """Append one step's outcome: the step's journal point."""
        self.raise_if_fatal()
        try:
            self._navigator.record_flow_step(self.uuid, fid, outcome)
        except BaseException as exc:
            self._fatal = exc
            raise

    def _execute_step(self, fid: int, spec, args, kwargs) -> Any:
        started = time.perf_counter()
        try:
            value = self._normalize(spec, spec.fn(*args, **kwargs))
        except Exception as exc:
            self._record_failure(fid, spec, exc)
            raise StepFailure(spec.name, type(exc).__name__, str(exc))
        self._journal(fid, {"n": spec.name, "s": "ok", "v": value})
        self.runtime.on_step_executed(
            self, spec, fid, time.perf_counter() - started, ok=True
        )
        return value

    def _execute_transaction(self, fid: int, spec, args, kwargs) -> Any:
        started = time.perf_counter()
        scope = self._ensure_scope()
        savepoint = "flow-%d" % fid
        try:
            scope.savepoint(savepoint)
            proxy = RecordingScope(scope)
            value = self._normalize(spec, spec.fn(proxy, *args, **kwargs))
            effects = self._normalize(spec, proxy.effects)
        except Exception as exc:
            # Step-local failure: undo only this step's writes.  When
            # the *whole scope* died instead (timeout, deadlock, a
            # chaos abort — ``TransactionAborted`` or any exception
            # after which the scope is no longer open), the savepoint
            # rollback itself raises: every prior effect was rolled
            # back with the scope, and the journal re-applies them on
            # the next transactional use.
            try:
                scope.rollback_to_savepoint(savepoint)
            except (ScopeError, TransactionAborted):
                pass
            self._record_failure(fid, spec, exc)
            raise StepFailure(spec.name, type(exc).__name__, str(exc))
        self._journal(
            fid, {"n": spec.name, "s": "ok", "v": value, "w": effects}
        )
        self._txn_effects.append((fid, effects))
        self.runtime.on_step_executed(
            self, spec, fid, time.perf_counter() - started, ok=True
        )
        return value

    def _record_failure(self, fid: int, spec, exc) -> None:
        outcome = {"n": spec.name, "s": "err"}
        outcome["t"], outcome["m"] = type(exc).__name__, str(exc)
        self._journal(fid, outcome)
        self.runtime.on_step_executed(self, spec, fid, 0.0, ok=False)

    def _normalize(self, spec, value: Any) -> Any:
        """JSON round-trip so the live attempt sees exactly what every
        replay will see (tuples become lists *now*, not later)."""
        if value is None:
            return None
        try:
            return json.loads(canon(value))
        except (TypeError, ValueError) as exc:
            raise FlowError(
                "step %r returned a non-JSON-serializable value: %s"
                % (spec.name, exc)
            ) from exc

    # -- the shared transaction scope ------------------------------------

    def _ensure_scope(self):
        """The flow's open scope, beginning (and re-applying journaled
        effects onto) a fresh one when none is live."""
        manager = self._services.get(SCOPE_SERVICE)
        if manager is None:
            raise FlowError(
                "flow %r uses @transaction steps but the engine has no "
                "%r service (install a ScopeManager)"
                % (self.flow.name, SCOPE_SERVICE)
            )
        if self._scope is not None and manager.get(self._scope.handle):
            return self._scope
        reestablish = self._scope is not None or bool(self._txn_effects)
        scope = manager.begin(
            self.uuid,
            isolation=self.flow.isolation,
            timeout=self.flow.scope_timeout,
        )
        for __, effects in self._txn_effects:
            for key in sorted(effects):
                scope.write(key, effects[key])
        self._scope = scope
        if reestablish:
            self.runtime.on_scope_reestablished(self)
        return scope

    def finish_scope(self, *, commit: bool) -> None:
        """Commit or roll back the flow's scope at flow end (no-op when
        no transactional step ever ran, or the scope already died)."""
        scope = self._scope
        if scope is None:
            return
        manager = self._services.get(SCOPE_SERVICE)
        if manager is None or manager.get(scope.handle) is None:
            return
        if commit:
            scope.commit()
        else:
            scope.rollback("flow %s failed" % self.uuid)
