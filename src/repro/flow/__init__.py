"""Durable Python workflows: the ``@workflow`` decorator front end.

Any plain Python function becomes a durable workflow: every
``@step`` / ``@transaction`` call inside it is journaled under
``(workflow_uuid, function_id)`` and answered from the journal on
replay instead of re-invoking, so a crash-resumed flow re-runs its
*code* but never its completed *steps* — idempotency for free, in the
style of the DBOS ``WorkflowContext``.

See :mod:`repro.flow.api` for the decorators,
:mod:`repro.flow.context` for the replay contract and
:mod:`repro.flow.runtime` for engine wiring.
"""

from repro.errors import FlowError, StepFailure
from repro.flow.api import Flow, StepSpec, step, transaction, workflow
from repro.flow.compile import (
    ARGS,
    DRIVE,
    DRIVE_PROGRAM,
    ERROR,
    RESULT,
    compile_flow,
)
from repro.flow.context import FlowContext, current_context, encode_args
from repro.flow.ids import FlowIdAllocator
from repro.flow.runtime import (
    FLOW_SERVICE,
    FlowResult,
    FlowRuntime,
    flow_args,
    flow_result,
    install_flows,
)

__all__ = [
    "ARGS",
    "DRIVE",
    "DRIVE_PROGRAM",
    "ERROR",
    "FLOW_SERVICE",
    "Flow",
    "FlowContext",
    "FlowError",
    "FlowIdAllocator",
    "FlowResult",
    "FlowRuntime",
    "RESULT",
    "StepFailure",
    "StepSpec",
    "compile_flow",
    "current_context",
    "encode_args",
    "flow_args",
    "flow_result",
    "install_flows",
    "step",
    "transaction",
    "workflow",
]
