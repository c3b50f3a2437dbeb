"""Flow -> ProcessDefinition compilation.

A decorated workflow compiles to a *one-activity* definition: a single
``Drive`` activity whose program (``flow_drive``) calls the Python
function once and runs it to completion.  Each ``@step`` /
``@transaction`` call inside journals its own ``flow_step`` record
the moment it finishes (:meth:`repro.wfms.navigator.Navigator.
record_flow_step`); ``Drive``'s completion record carries only the
function's result or error.

Durability therefore needs no flow-specific recovery path: a crash
mid-function leaves ``Drive`` without a completion record, so replay
reschedules it "from the beginning" (§3.3) like any interrupted
activity, and the new attempt answers every journaled call from the
step records the replay cursor (or the checkpoint) handed back.
"""

from __future__ import annotations

import hashlib
import json
import types

from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.model import (
    PROCESS_INPUT,
    PROCESS_OUTPUT,
    RETURN_CODE,
    Activity,
    ProcessDefinition,
)

#: The single driver activity of every compiled flow.
DRIVE = "Drive"

#: Generic driver program; one registration serves every flow — the
#: runtime resolves the Flow from ``ctx.process``.
DRIVE_PROGRAM = "flow_drive"

#: Container member names (process- and drive-level).
ARGS = "_ARGS"          # JSON {"a": [...], "k": {...}} of the start call
RESULT = "_RESULT"      # JSON of the function's return value
ERROR = "_ERROR"        # "Type: message" when the flow failed


def _digest_code(code: types.CodeType, hasher) -> None:
    hasher.update(code.co_code)
    hasher.update(repr(code.co_names).encode())
    hasher.update(repr(code.co_varnames).encode())
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _digest_code(const, hasher)
        else:
            hasher.update(repr(const).encode())


def flow_body_digest(flow) -> str:
    """Digest of the workflow function's bytecode plus its decorator
    options.  The one-activity graph is the same for every flow, so
    this digest — stamped into the driver activity's description,
    which the registry fingerprint covers — is what makes two
    compiled flows "byte-identical" only when their Python behavior
    is: a re-imported unchanged flow re-registers as a no-op, while an
    edited body under the same name/version is rejected.
    (``co_name`` is deliberately excluded: a renamed-but-identical
    function is the same body.)"""
    hasher = hashlib.sha256()
    _digest_code(flow.fn.__code__, hasher)
    hasher.update(
        json.dumps(
            [
                flow.max_steps,
                flow.isolation.value,
                flow.scope_timeout,
                flow.failure_rc,
            ],
            sort_keys=True,
        ).encode()
    )
    return hasher.hexdigest()[:16]


def compile_flow(flow) -> ProcessDefinition:
    """The :class:`ProcessDefinition` for one decorated workflow."""
    definition = ProcessDefinition(
        flow.name,
        version=flow.version,
        description=flow.description,
        input_spec=[VariableDecl(ARGS, DataType.STRING)],
        output_spec=[
            VariableDecl(RESULT, DataType.STRING),
            VariableDecl(ERROR, DataType.STRING),
        ],
    )
    definition.add_activity(
        Activity(
            DRIVE,
            program=DRIVE_PROGRAM,
            input_spec=[VariableDecl(ARGS, DataType.STRING)],
            output_spec=[
                VariableDecl(RESULT, DataType.STRING),
                VariableDecl(ERROR, DataType.STRING),
            ],
            description="flow driver: one journal record per step "
            "[body %s]" % flow_body_digest(flow),
        )
    )
    definition.map_data(PROCESS_INPUT, DRIVE, [(ARGS, ARGS)])
    definition.map_data(
        DRIVE,
        PROCESS_OUTPUT,
        [
            (RESULT, RESULT),
            (ERROR, ERROR),
            (RETURN_CODE, RETURN_CODE),
        ],
    )
    definition.validate()
    return definition
