"""Outside-in tracing: spans around calls into each layer's public
functions, recorded from the benchmark's own files.

:meth:`Tracer.install` replaces methods on the program's classes with
timing wrappers for the length of a traced phase and
:meth:`Tracer.uninstall` puts the originals back, so the program
itself carries no tracing code.  Each span records its layer name,
start, end, parent span and the op the benchmark was starting or
verifying (``None`` for lockstep work shared by every op in flight).
Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the time its direct children cover;
calls on one thread nest strictly, so self times partition the traced
wall time.
"""

from __future__ import annotations

import functools
import json
import time


def layer_targets():
    """(span name, class, method names) for every wrapped boundary."""
    from repro.net.client import SocketBus
    from repro.store.durable import DurableStore
    from repro.store.segments import SegmentedJournal
    from repro.tx.database import SimDatabase, Transaction
    from repro.wfms.audit import AuditTrail
    from repro.wfms.distributed import WorkflowNode
    from repro.wfms.engine import Engine
    from repro.wfms.journal import Journal

    return [
        (
            "net.client",
            SocketBus,
            (
                "send", "receive_with_headers", "ack", "nack",
                "dead_letter", "recover_in_flight", "depth", "deliveries",
                "queues", "stats", "ping",
            ),
        ),
        ("wfms.node.pump", WorkflowNode, ("pump",)),
        ("wfms.recovery", WorkflowNode, ("crash", "rebuild")),
        ("wfms.recovery", Engine, ("crash", "recover")),
        ("wfms.engine.start", Engine, ("start_process",)),
        ("wfms.engine.state", Engine, ("instance_state",)),
        ("wfms.engine.step", Engine, ("step",)),
        ("wfms.read", Engine, ("output", "result", "execution_order")),
        ("wfms.audit.record", AuditTrail, ("record",)),
        ("store.maybe_checkpoint", DurableStore, ("maybe_checkpoint",)),
        ("store.checkpoint", DurableStore, ("checkpoint",)),
        ("store.archive", DurableStore, ("archive_finished",)),
        ("store.journal.append", SegmentedJournal, ("append",)),
        # Every durability point (batch timer, batch full, rotate,
        # explicit flush) goes through the journal's commit.
        ("store.journal.flush", Journal, ("_commit",)),
        (
            "tx.db",
            SimDatabase,
            ("begin", "get", "stable_get", "snapshot", "keys"),
        ),
        (
            "tx.db",
            Transaction,
            (
                "read", "write", "delete", "increment", "savepoint",
                "rollback_to_savepoint", "commit", "abort",
            ),
        ),
    ]


class Tracer:
    """The spans of one traced phase and the wrappers that make them."""

    def __init__(self):
        #: [name, start, end, parent index, op] per span.
        self.spans = []
        self._stack = []
        self._restore = []
        #: op being started or verified, or None.
        self.op = None
        #: receive calls that found a message / found the queue empty.
        self.poll_hits = 0
        self.poll_empty = 0

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        spans = self.spans
        stack = self._stack
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_receive(self, result):
        if result is None:
            self.poll_empty += 1
        else:
            self.poll_hits += 1

    def install(self):
        for name, cls, methods in layer_targets():
            for method in methods:
                original = cls.__dict__[method]
                observe = (
                    self._observe_receive
                    if method == "receive_with_headers"
                    else None
                )
                setattr(cls, method, self._wrap(name, original, observe))
                self._restore.append((cls, method, original))

    def wrap_attribute(self, target, attr, name):
        """Time a function the benchmark itself owns (its host
        reference loop, a workload's crash-and-rebuild), so that time
        is attributed instead of residual."""
        original = getattr(target, attr)
        setattr(target, attr, self._wrap(name, original))
        self._restore.append((target, attr, original))

    def wrap_steps(self, specs):
        """Time the benchmark's own flow step bodies."""
        for spec in specs:
            original = spec.fn
            spec.fn = self._wrap("flow.body", original)
            self._restore.append((spec, "fn", original))

    def uninstall(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    # -- analysis --------------------------------------------------------

    def layers(self, wall_seconds):
        """Per-layer totals: {name: {"calls", "total", "self",
        "durations"}} plus the share of ``wall_seconds`` under no span."""
        child = [0.0] * len(self.spans)
        rooted = 0.0
        for span in self.spans:
            duration = span[2] - span[1]
            if span[3] >= 0:
                child[span[3]] += duration
            else:
                rooted += duration
        layers = {}
        for index, span in enumerate(self.spans):
            duration = span[2] - span[1]
            row = layers.setdefault(
                span[0],
                {"calls": 0, "total": 0.0, "self": 0.0, "durations": []},
            )
            row["calls"] += 1
            row["total"] += duration
            row["self"] += duration - child[index]
            row["durations"].append(duration)
        unattributed = max(0.0, wall_seconds - rooted) / wall_seconds
        return layers, unattributed

    def verification_read_seconds(self):
        """Time in ``wfms.read`` spans made while verifying an op
        (replies a serving node builds are not verification)."""
        return sum(
            span[2] - span[1]
            for span in self.spans
            if span[0] == "wfms.read" and span[4] is not None
        )

    def write(self, path):
        """Spans as JSON lines: name, start and end in microseconds
        from the first span, parent index, op."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        [
                            name,
                            round((start - origin) * 1e6, 1),
                            round((end - origin) * 1e6, 1),
                            parent,
                            op,
                        ]
                    )
                )
                handle.write("\n")
