"""Program registration and invocation (§3.3).

FlowMark executes *registered* programs: "once a program is registered
it can be invoked from any activity.  An API interface is provided so
the programs can access the data containers."  Here a program is any
callable with the signature::

    def program(ctx: InvocationContext) -> int | None

``ctx`` exposes the activity's input and output containers; the return
value (default 0) becomes the predefined ``_RC`` member of the output
container, which transition and exit conditions read.

Programs are deliberately *autonomous*: the engine does not interpret
exceptions as aborts — a raising program is a failed invocation
(:class:`ProgramError`), while a subtransaction that aborts reports it
through its return code, exactly as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.errors import JournalError, ProgramError
from repro.wfms.containers import Container


@dataclass
class InvocationContext:
    """What a program sees when invoked (the FlowMark API surface)."""

    activity: str
    process: str
    instance_id: str
    input: Container
    output: Container
    user: str = ""
    attempt: int = 1
    #: Free-form per-engine services (e.g. the transactional substrate).
    services: dict[str, Any] = field(default_factory=dict)

    def get_input(self, path: str) -> Any:
        return self.input.get(path)

    def set_output(self, path: str, value: Any) -> None:
        self.output.set(path, value)


class Program(Protocol):
    def __call__(self, ctx: InvocationContext) -> int | None: ...


@dataclass
class RegisteredProgram:
    name: str
    callable: Program
    description: str = ""
    #: Whether the external application is failure-atomic.  Non-atomic
    #: programs may have partially executed when a crash interrupts
    #: them (§3.3); the recovery tests use this flag.
    failure_atomic: bool = True


class ProgramRegistry:
    """Name → program mapping shared by an engine."""

    def __init__(self) -> None:
        self._programs: dict[str, RegisteredProgram] = {}

    def register(
        self,
        name: str,
        program: Program,
        description: str = "",
        *,
        failure_atomic: bool = True,
        replace: bool = False,
    ) -> RegisteredProgram:
        if not name:
            raise ProgramError("program name must be non-empty")
        if name in self._programs and not replace:
            raise ProgramError("program %r is already registered" % name)
        registered = RegisteredProgram(name, program, description, failure_atomic)
        self._programs[name] = registered
        return registered

    def get(self, name: str) -> RegisteredProgram:
        try:
            return self._programs[name]
        except KeyError:
            raise ProgramError("program %r is not registered" % name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._programs

    def names(self) -> list[str]:
        return sorted(self._programs)

    def invoke(self, name: str, ctx: InvocationContext) -> int:
        """Invoke ``name``; returns (and stores) the return code."""
        registered = self.get(name)
        try:
            result = registered.callable(ctx)
        except JournalError:
            # The engine's own disk failed under the program (a durable
            # flow journals each step from inside its driver): an
            # engine failure, not a program failure.
            raise
        except Exception as exc:  # program bug, not a modelled abort
            raise ProgramError(
                "program %r raised %s: %s" % (name, type(exc).__name__, exc)
            ) from exc
        return_code = 0 if result is None else int(result)
        ctx.output.return_code = return_code
        return return_code


def program_from_callable(
    func: Callable[..., int | None]
) -> Program:
    """Adapt a zero-argument or ctx-taking callable into a Program.

    Lets tests register ``lambda: 0`` without boilerplate.
    """
    import inspect

    takes_ctx = bool(inspect.signature(func).parameters)

    def adapter(ctx: InvocationContext) -> int | None:
        return func(ctx) if takes_ctx else func()

    return adapter


def null_program(ctx: InvocationContext) -> int:
    """The NOP activity body used by the saga compensation trigger."""
    return 0
