"""Typed engine event hooks.

Observers subscribe to *event types*; the engine publishes frozen
event dataclasses at well-defined points — navigator dispatch,
worklist transitions, journal group commits, engine crash/recovery.
Hooks are the extension surface (alerting, live dashboards, custom
accounting) that neither the audit trail (ground truth, queried after
the fact) nor metrics (pre-aggregated) provide.

**Isolation semantics**: a subscriber that raises must not corrupt
navigation.  ``publish`` catches the exception, records a
:class:`HookFailure` on ``HookBus.failures`` and logs it through the
``repro.obs`` logger; remaining subscribers still run and the engine
continues.  Observability must never turn into a correctness hazard.

**Zero overhead when off**: publishers guard event construction with
``bus.wants(EventType)`` — on the :class:`NullHookBus` (and on a real
bus with no subscribers for that type) this is one cheap call and no
event object is ever built.  Subscribing on a disabled engine raises
:class:`~repro.errors.ObservabilityError` instead of silently
dropping callbacks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ObservabilityError

logger = logging.getLogger("repro.obs")


# ---------------------------------------------------------------------------
# event types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NavigatorDispatched:
    """An automatic activity was popped off the ready queue."""

    instance_id: str
    activity: str
    attempt: int
    priority: int
    at: float  # engine logical clock


@dataclass(frozen=True)
class ActivityCompleted:
    """An activity finished (program returned / child came back)."""

    instance_id: str
    activity: str
    attempt: int
    return_code: int
    outcome: str  # terminated | rescheduled
    at: float


@dataclass(frozen=True)
class ProcessFinished:
    instance_id: str
    definition: str
    at: float


@dataclass(frozen=True)
class WorklistTransition:
    """A work item changed state (offered/claimed/released/completed/
    withdrawn) or raised a deadline notification ("notified")."""

    item_id: str
    instance_id: str
    activity: str
    transition: str
    user: str
    at: float


@dataclass(frozen=True)
class JournalSynced:
    """A durability point: records were committed (written + fsynced)."""

    records: int
    reason: str  # append | batch_full | batch_interval | flush
    seconds: float


@dataclass(frozen=True)
class EngineCrashed:
    at: float


@dataclass(frozen=True)
class EngineRecovered:
    replayed: int
    at: float


@dataclass(frozen=True)
class RetryScheduled:
    """A failed activity invocation will be retried (resilience)."""

    instance_id: str
    activity: str
    retry: int  # 1-based retry number
    delay: float  # logical-clock backoff before the retry
    error: str
    at: float


@dataclass(frozen=True)
class ActivityEscalated:
    """Retries/timeout exhausted: the activity finished with the
    policy's escalation return code instead of a program result."""

    instance_id: str
    activity: str
    reason: str  # retries_exhausted | timeout
    return_code: int
    at: float


@dataclass(frozen=True)
class RequestTimedOut:
    """A remote activity request exceeded its reply budget."""

    node: str  # requesting node
    remote: str  # node the request was addressed to
    request_id: str
    action: str  # resent | escalated
    at: float


@dataclass(frozen=True)
class BreakerTransition:
    """A per-remote-node circuit breaker changed state."""

    node: str  # node holding the breaker
    remote: str  # guarded remote node
    state: str  # closed | open | half_open
    at: float


@dataclass(frozen=True)
class MessageDeadLettered:
    """A poisoned message was routed to the dead-letter queue."""

    queue: str
    msg_id: str
    reason: str
    deliveries: int


@dataclass(frozen=True)
class FlowStepExecuted:
    """A durable-flow step body ran live (repro.flow)."""

    workflow_uuid: str
    flow: str
    step: str
    function_id: int
    kind: str  # step | transaction
    at: float


@dataclass(frozen=True)
class FlowStepReplayed:
    """A resumed durable-flow step returned its journaled result (no
    body)."""

    workflow_uuid: str
    flow: str
    step: str
    function_id: int
    at: float


@dataclass(frozen=True)
class HookFailure:
    """One subscriber exception, isolated and recorded."""

    subscriber: str
    event: Any
    error: Exception = field(compare=False)


# ---------------------------------------------------------------------------
# the bus
# ---------------------------------------------------------------------------

class HookBus:
    """Per-engine subscribe/publish hub, keyed by event type."""

    enabled = True

    def __init__(self) -> None:
        self._subscribers: dict[type, list[Callable[[Any], None]]] = {}
        #: exceptions raised by subscribers, isolated and kept for
        #: inspection (also logged via the ``repro.obs`` logger).
        self.failures: list[HookFailure] = []

    def subscribe(
        self,
        event_type: type,
        callback: Callable[[Any], None] | None = None,
    ) -> Callable[[Any], None]:
        """Register ``callback`` for events of ``event_type``.

        Returns the callback, and with ``callback`` omitted acts as a
        decorator factory: ``@bus.subscribe(ActivityCompleted)``.
        """
        if not isinstance(event_type, type):
            raise ObservabilityError(
                "subscribe takes an event *type*, got %r" % (event_type,)
            )
        if callback is None:
            return lambda fn: self.subscribe(event_type, fn)
        self._subscribers.setdefault(event_type, []).append(callback)
        return callback

    def unsubscribe(
        self, event_type: type, callback: Callable[[Any], None]
    ) -> None:
        bucket = self._subscribers.get(event_type)
        if bucket is None or callback not in bucket:
            raise ObservabilityError(
                "callback was not subscribed to %s" % event_type.__name__
            )
        bucket.remove(callback)
        if not bucket:
            del self._subscribers[event_type]

    def wants(self, event_type: type) -> bool:
        """Whether building an event of this type is worth it."""
        return event_type in self._subscribers

    def publish(self, event: Any) -> None:
        """Deliver to every subscriber; a raising subscriber is
        isolated (recorded + logged), the rest still run."""
        bucket = self._subscribers.get(type(event))
        if not bucket:
            return
        for callback in list(bucket):
            try:
                callback(event)
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                failure = HookFailure(repr(callback), event, exc)
                self.failures.append(failure)
                logger.exception(
                    "observer %s raised on %s; isolated",
                    failure.subscriber,
                    type(event).__name__,
                )

    def subscriptions(self) -> dict[str, int]:
        return {
            event_type.__name__: len(bucket)
            for event_type, bucket in sorted(
                self._subscribers.items(), key=lambda kv: kv[0].__name__
            )
        }


class NullHookBus:
    """The disabled bus: ``wants`` is always False so publishers never
    build events; subscribing is an error, not a silent drop."""

    enabled = False
    failures: list[HookFailure] = []

    def subscribe(self, event_type, callback):
        raise ObservabilityError(
            "cannot subscribe hooks: observability is disabled on this "
            "engine (construct it with observability=True)"
        )

    def unsubscribe(self, event_type, callback) -> None:
        raise ObservabilityError("observability is disabled on this engine")

    def wants(self, event_type) -> bool:
        return False

    def publish(self, event) -> None:
        pass

    def subscriptions(self) -> dict[str, int]:
        return {}
