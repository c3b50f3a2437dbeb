"""FlowRuntime: the engine service that drives decorated workflows.

One runtime installs onto one engine as the ``"flows"`` service: it
registers the generic ``flow_drive`` program once, registers each
flow's compiled definition through the ordinary
:class:`~repro.wfms.registry.DefinitionRegistry` (idempotent on
re-import), allocates deterministic workflow uuids, and keeps the
executed/replayed/resumed counters the monitor's FLOWS view renders.

The driver program runs the workflow function to completion in one
``Drive`` attempt; each step journals its own ``flow_step`` record
through the engine's navigator (:mod:`repro.flow.context`).  Because a
flow is just a one-activity process plus those records, the same
runtime installs unchanged on every execution substrate: a plain
:class:`~repro.wfms.engine.Engine`, each shard of a
:class:`~repro.wfms.sharding.ShardedEngine` (install from the
``configure`` callback so shard rebuilds re-install it), or a
:class:`~repro.wfms.distributed.WorkflowNode` serving the flow over a
socket broker.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import FlowError, TransactionAborted
from repro.flow.compile import ARGS, DRIVE, DRIVE_PROGRAM, ERROR, RESULT
from repro.flow.context import FlowContext, _CURRENT, canon, encode_args
from repro.flow.ids import FlowIdAllocator
from repro.obs import FlowStepExecuted, FlowStepReplayed
from repro.wfms.model import RETURN_CODE

#: Engine service key under which a FlowRuntime lives.
FLOW_SERVICE = "flows"

_STAT_KEYS = (
    "started", "completed", "failed", "resumed",
    "steps_executed", "steps_replayed",
)


def flow_args(*args: Any, **kwargs: Any) -> dict[str, str]:
    """Input values for starting a compiled flow through any facade
    that lacks ``instance_id`` plumbing (e.g. ``ShardedEngine``)::

        cluster.start_process("checkout", flow_args(order_id))
    """
    return {ARGS: encode_args(args, kwargs)}


class FlowResult:
    """Decoded outcome of one flow instance."""

    __slots__ = ("uuid", "flow", "state", "value", "error", "return_code")

    def __init__(self, uuid, flow, state, value, error, return_code):
        self.uuid = uuid
        self.flow = flow
        self.state = state
        self.value = value
        self.error = error
        self.return_code = return_code

    @property
    def ok(self) -> bool:
        return self.state == "finished" and self.return_code == 0

    def __repr__(self) -> str:
        return "FlowResult(%s, %s, rc=%d)" % (
            self.uuid, self.state, self.return_code
        )


def flow_result(process_result, uuid: str | None = None) -> FlowResult:
    """A :class:`FlowResult` from an engine ``ProcessResult``."""
    output = process_result.output or {}
    raw = output.get(RESULT, "")
    return FlowResult(
        uuid=uuid or process_result.instance_id,
        flow=process_result.process,
        state=process_result.state,
        value=json.loads(raw) if raw else None,
        error=output.get(ERROR, ""),
        return_code=int(output.get(RETURN_CODE, 0) or 0),
    )


class FlowRuntime:
    """Flows registered on one engine, plus their execution counters."""

    def __init__(self, *, seed: int = 0, id_prefix: str = "wf"):
        self._flows: dict[str, Any] = {}  # definition name -> Flow
        self._ids = FlowIdAllocator(seed, prefix=id_prefix)
        self._engine = None
        self.counters = {
            "flows_started": 0,
            "flows_completed": 0,
            "flows_failed": 0,
            "flows_resumed": 0,
            "steps_executed": 0,
            "steps_failed": 0,
            "steps_replayed_resume": 0,
            "txn_steps": 0,
            "scopes_reestablished": 0,
        }
        self._stats: dict[str, dict[str, int]] = {}
        self._obs = None
        self._obs_on = False

    # -- wiring ----------------------------------------------------------

    def install(self, engine) -> "FlowRuntime":
        """Bind to ``engine``: service slot + the driver program."""
        engine.services[FLOW_SERVICE] = self
        engine.register_program(
            DRIVE_PROGRAM,
            self._drive,
            "durable flow driver (repro.flow)",
            replace=True,
        )
        self._engine = engine
        self._bind_obs(engine.obs)
        return self

    def register(self, *flows) -> "FlowRuntime":
        """Register decorated flows (idempotent per definition body)."""
        if self._engine is None:
            raise FlowError("install() the runtime on an engine first")
        for flow in flows:
            self._flows[flow.name] = flow
            self._stats.setdefault(
                flow.name, dict.fromkeys(_STAT_KEYS, 0)
            )
            self._engine.register_definition(flow.definition)
        return self

    def flows(self) -> list[str]:
        return sorted(self._flows)

    # -- starting and reading flows --------------------------------------

    def start(
        self,
        flow_name: str,
        *args: Any,
        uuid: str = "",
        starter: str = "",
        **kwargs: Any,
    ) -> str:
        """Start a flow; returns its ``workflow_uuid``.

        Ids come from the seeded allocator unless ``uuid`` pins one;
        allocation consults the engine so a post-resume allocator
        never re-issues a pre-crash id.
        """
        flow = self._flows.get(flow_name)
        if flow is None:
            raise FlowError(
                "no flow named %r registered (have %s)"
                % (flow_name, self.flows())
            )
        if not uuid:
            uuid = self._ids.allocate(flow_name, is_taken=self._id_taken)
        self._engine.start_process(
            flow.definition.name,
            {ARGS: encode_args(args, kwargs)},
            starter=starter,
            version=flow.version,
            instance_id=uuid,
        )
        self.counters["flows_started"] += 1
        self._stats[flow_name]["started"] += 1
        return uuid

    def _id_taken(self, uuid: str) -> bool:
        try:
            self._engine.instance_state(uuid)
        except Exception:
            return False
        return True

    def result(self, uuid: str) -> FlowResult:
        return flow_result(self._engine.result(uuid), uuid)

    # -- the driver program ----------------------------------------------

    def _drive(self, ctx) -> int:
        flow = self._flows.get(ctx.process)
        if flow is None:
            raise FlowError(
                "definition %r has no registered flow on this runtime"
                % ctx.process
            )
        fctx = FlowContext(self, flow, ctx, self._engine.navigator)
        if fctx.resumed:
            self.counters["flows_resumed"] += 1
            self._stats[flow.name]["resumed"] += 1
        token = _CURRENT.set(fctx)
        try:
            value = flow.fn(fctx, *fctx.args, **fctx.kwargs)
        except Exception as exc:
            # A journal failure ends the attempt, never the flow.
            fctx.raise_if_fatal()
            return self._fail(fctx, ctx, flow, exc)
        finally:
            _CURRENT.reset(token)
        fctx.raise_if_fatal()
        try:
            encoded = canon(value) if value is not None else ""
        except (TypeError, ValueError) as exc:
            return self._fail(
                fctx,
                ctx,
                flow,
                FlowError(
                    "flow return value is not JSON-serializable: %s" % exc
                ),
            )
        try:
            fctx.finish_scope(commit=True)
        except TransactionAborted as exc:
            return self._fail(fctx, ctx, flow, exc)
        ctx.output.set(RESULT, encoded)
        self.counters["flows_completed"] += 1
        self._stats[flow.name]["completed"] += 1
        return 0

    def _fail(self, fctx, ctx, flow, exc) -> int:
        fctx.finish_scope(commit=False)
        ctx.output.set(ERROR, "%s: %s" % (type(exc).__name__, exc))
        self.counters["flows_failed"] += 1
        self._stats[flow.name]["failed"] += 1
        return flow.failure_rc

    # -- context callbacks -----------------------------------------------

    def on_step_executed(self, fctx, spec, fid, seconds, *, ok) -> None:
        self.counters["steps_executed"] += 1
        if not ok:
            self.counters["steps_failed"] += 1
        if spec.transactional:
            self.counters["txn_steps"] += 1
        self._stats[fctx.flow.name]["steps_executed"] += 1
        if not self._obs_on:
            return
        (self._c_exec_txn if spec.transactional else self._c_exec_step).inc()
        self._h_step_seconds.observe(seconds)
        self._emit_span(fctx, spec, fid, "ok" if ok else "failed")
        hooks = self._obs.hooks
        if hooks.wants(FlowStepExecuted):
            hooks.publish(
                FlowStepExecuted(
                    fctx.uuid,
                    fctx.flow.name,
                    spec.name,
                    fid,
                    "transaction" if spec.transactional else "step",
                    self._engine.navigator.clock,
                )
            )

    def on_step_replayed(self, fctx, spec, fid) -> None:
        self.counters["steps_replayed_resume"] += 1
        self._stats[fctx.flow.name]["steps_replayed"] += 1
        if not self._obs_on:
            return
        self._c_replayed.inc()
        hooks = self._obs.hooks
        if hooks.wants(FlowStepReplayed):
            hooks.publish(
                FlowStepReplayed(
                    fctx.uuid,
                    fctx.flow.name,
                    spec.name,
                    fid,
                    self._engine.navigator.clock,
                )
            )

    def on_scope_reestablished(self, fctx) -> None:
        self.counters["scopes_reestablished"] += 1

    def _emit_span(self, fctx, spec, fid, status) -> None:
        tracer = self._obs.tracer
        if not tracer.enabled:
            return
        span = tracer.start_span(
            "flow.step %s" % spec.name,
            parent=self._engine.navigator.activity_span(fctx.uuid, DRIVE),
            attributes={
                "workflow_uuid": fctx.uuid,
                "function_id": fid,
                "transactional": spec.transactional,
            },
        )
        span.finish(status=status)

    def _bind_obs(self, obs) -> None:
        self._obs = obs
        self._obs_on = obs.enabled
        if not obs.enabled:
            return
        metrics = obs.metrics
        executed = metrics.counter(
            "flow_steps_executed_total",
            "Flow step bodies run live",
            labels=("kind",),
        )
        self._c_exec_step = executed.labels("step")
        self._c_exec_txn = executed.labels("transaction")
        self._c_replayed = metrics.counter(
            "flow_steps_replayed_total",
            "Flow steps answered from the journal on resume",
        )
        self._h_step_seconds = metrics.histogram(
            "flow_step_seconds",
            "Wall-clock seconds per live step body",
        )

    # -- monitor surface --------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        flows = []
        for name in sorted(self._flows):
            flow = self._flows[name]
            entry = {"name": name, "version": flow.version}
            entry.update(self._stats.get(name, {}))
            flows.append(entry)
        return {"flows": flows, "counters": dict(self.counters)}


def install_flows(engine, flows, *, seed: int = 0, id_prefix: str = "wf"):
    """One-call wiring: build a runtime, install it on ``engine``,
    register ``flows``.  Safe to call again after a crash on the
    replacement engine (and from ShardedEngine/WorkflowNode configure
    callbacks, which re-run on every rebuild)."""
    runtime = FlowRuntime(seed=seed, id_prefix=id_prefix)
    runtime.install(engine)
    runtime.register(*flows)
    return runtime
