"""Engine monitor — a top-like view over an observability snapshot.

Usage::

    python -m repro.tools.monitor view SNAPSHOT.json    # full view
    python -m repro.tools.monitor prom SNAPSHOT.json    # Prometheus text
    python -m repro.tools.monitor spans SNAPSHOT.json   # span tree only
    python -m repro.tools.monitor shards SNAPSHOT.json  # sharded-cluster view
    python -m repro.tools.monitor demo                  # run a tiny traced
                                                        # workload and view it

Snapshots are written by :func:`repro.obs.export.write_snapshot` (and,
for the ``shards`` view, by dumping
:meth:`repro.wfms.sharding.ShardedEngine.snapshot` as JSON); the
monitor renders pure data and never touches engine state, so it can
inspect a snapshot from another process (or a crashed one).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.obs.export import span_tree_lines, to_prometheus_text

#: counters worth a headline row, in display order.
_HEADLINE = (
    "wfms_processes_started_total",
    "wfms_processes_finished_total",
    "wfms_activities_dispatched_total",
    "wfms_activity_completions_total",
    "wfms_journal_appends_total",
    "wfms_journal_commits_total",
    "wfms_worklist_transitions_total",
    "wfms_engine_crashes_total",
    "wfms_recoveries_total",
)


def _family(metrics: list[dict[str, Any]], name: str) -> dict[str, Any] | None:
    for family in metrics:
        if family["name"] == name:
            return family
    return None


def _total(family: dict[str, Any]) -> float:
    return sum(sample["value"] for sample in family["samples"])


def render_snapshot(snapshot: dict[str, Any], *, max_spans: int = 40) -> list[str]:
    """Render one snapshot as the top-like text view (line list)."""
    lines: list[str] = []
    metrics = snapshot.get("metrics", [])
    running = _family(metrics, "wfms_instances_running")
    open_items = _family(metrics, "wfms_worklist_open_items")
    lines.append(
        "engine clock %.3f | observability %s | running %d | "
        "open work items %d | open spans %d"
        % (
            snapshot.get("clock", 0.0),
            "on" if snapshot.get("observability_enabled") else "off",
            int(_total(running)) if running else 0,
            int(_total(open_items)) if open_items else 0,
            snapshot.get("open_spans", 0),
        )
    )
    store = snapshot.get("store") or {}
    if store.get("enabled"):
        age = store.get("last_checkpoint_age_seconds")
        lag = store.get("checkpoint_lag_records")
        if lag is None:  # never checkpointed: the whole journal is lag
            lag = store.get("journal_records", 0)
        lines.append(
            "STORE archived %d roots / %d instances | segments %d | "
            "checkpoints %d | lag %d records | last checkpoint %s"
            % (
                store.get("archived_roots", 0),
                store.get("archived_instances", 0),
                store.get("segments_live", 0),
                store.get("checkpoints", 0),
                lag,
                "%.3fs ago" % age if age is not None else "never",
            )
        )
    lines.append("")

    processes = snapshot.get("processes", [])
    lines.append("PROCESSES (%d)" % len(processes))
    lines.append(
        "  %-16s %-20s %-10s %-10s %s"
        % ("INSTANCE", "DEFINITION", "STATE", "STARTER", "ACTIVITIES")
    )
    for row in processes:
        activities = ",".join(
            "%s=%d" % (state, count)
            for state, count in sorted(row.get("activities", {}).items())
        )
        lines.append(
            "  %-16s %-20s %-10s %-10s %s"
            % (
                row.get("instance", ""),
                row.get("definition", ""),
                row.get("state", ""),
                row.get("starter", "") or "-",
                activities,
            )
        )
    lines.append("")

    lines.append("COUNTERS")
    for name in _HEADLINE:
        family = _family(metrics, name)
        if family is None:
            continue
        samples = family["samples"]
        if len(samples) == 1 and not samples[0].get("labels"):
            lines.append("  %-38s %d" % (name, samples[0]["value"]))
        else:
            lines.append("  %-38s %d" % (name, _total(family)))
            for sample in samples:
                labels = ",".join(
                    "%s=%s" % kv for kv in sorted(sample["labels"].items())
                )
                lines.append("    %-36s %d" % (labels, sample["value"]))
    lines.append("")

    spans = snapshot.get("spans", [])
    lines.append("SPANS (%d retained)" % len(spans))
    tree = span_tree_lines(spans)
    shown = tree[:max_spans]
    lines.extend("  " + line for line in shown)
    if len(tree) > len(shown):
        lines.append("  ... %d more" % (len(tree) - len(shown)))

    failures = snapshot.get("hook_failures", [])
    if failures:
        lines.append("")
        lines.append("HOOK FAILURES (%d)" % len(failures))
        for failure in failures:
            lines.append(
                "  %s: %s" % (failure["subscriber"], failure["error"])
            )
    return lines


def _checkpoint_lag(store: dict[str, Any]) -> str:
    if not store.get("enabled"):
        return "-"
    lag = store.get("checkpoint_lag_records")
    if lag is None:  # never checkpointed: the whole journal is lag
        lag = store.get("journal_records", 0)
    return str(lag)


def render_shards(snapshot: dict[str, Any]) -> list[str]:
    """Render a :meth:`ShardedEngine.snapshot` dump: one row per shard
    (state, clock, live instances, scheduler and queue depths,
    checkpoint lag) plus cluster-wide bus totals."""
    shards = snapshot.get("shards", [])
    lines = [
        "SHARDS (%d) | scheduler seed %s"
        % (snapshot.get("num_shards", len(shards)), snapshot.get("seed", "-"))
    ]
    lines.append(
        "  %-10s %-8s %10s %6s %6s %8s %6s %8s %5s %9s"
        % (
            "SHARD",
            "STATE",
            "CLOCK",
            "LIVE",
            "READY",
            "DELAYED",
            "INBOX",
            "REPLIES",
            "DLQ",
            "CKPT LAG",
        )
    )
    for row in shards:
        scheduler = row.get("scheduler", {})
        queues = row.get("queues", {})
        lines.append(
            "  %-10s %-8s %10.3f %6d %6d %8d %6d %8d %5d %9s"
            % (
                row.get("name", ""),
                "crashed" if row.get("crashed") else "up",
                row.get("clock", 0.0),
                row.get("live_instances", 0),
                scheduler.get("ready", 0),
                scheduler.get("delayed", 0),
                queues.get("inbox", 0),
                queues.get("replies", 0),
                queues.get("dlq", 0),
                _checkpoint_lag(row.get("store", {})),
            )
        )
    bus = snapshot.get("bus", {})
    totals: dict[str, int] = {}
    for counters in bus.values():
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    lines.append("")
    lines.append(
        "BUS (%d queues) sent %d | delivered %d | redelivered %d | "
        "dead-lettered %d"
        % (
            len(bus),
            totals.get("sent", 0),
            totals.get("delivered", 0),
            totals.get("redelivered", 0),
            totals.get("dead_lettered", 0),
        )
    )
    return lines


def render_net(snapshot: dict[str, Any]) -> list[str]:
    """Render a :meth:`BusServer.snapshot` dump: broker identity and
    frame totals, one row per live connection, one row per queue with
    depth/overflow/shed counters and breaker state."""
    address = snapshot.get("address")
    lines = [
        "BROKER %s @ %s | accepted %d | resets %d | frames in %d / out %d"
        % (
            snapshot.get("broker", "?"),
            "%s:%s" % tuple(address) if address else "-",
            snapshot.get("accepted_total", 0),
            snapshot.get("resets_total", 0),
            snapshot.get("frames_in_total", 0),
            snapshot.get("frames_out_total", 0),
        )
    ]
    capacity = snapshot.get("queue_capacity")
    overrides = snapshot.get("capacities") or {}
    lines.append(
        "capacity %s%s | injector %s"
        % (
            capacity if capacity is not None else "unbounded",
            " (+%d overrides)" % len(overrides) if overrides else "",
            "%(rules)d rules, %(fired)d fired" % snapshot["injector"]
            if snapshot.get("injector")
            else "none",
        )
    )
    lines.append(
        "sessions %d | dedup hits %d | resumed %d | reaped %d"
        % (
            snapshot.get("sessions", 0),
            snapshot.get("dedup_hits", 0),
            snapshot.get("resumed_total", 0),
            snapshot.get("reaped_total", 0),
        )
    )
    durable = snapshot.get("durable")
    if durable:
        lines.append(
            "DURABLE epoch %d | sync %s | %d records (%d unflushed) | "
            "%d segments | %d checkpoints (last @%d, %d since, %d failed)"
            % (
                durable.get("epoch", 0),
                durable.get("sync", "?"),
                durable.get("records", 0),
                durable.get("unflushed", 0),
                durable.get("segments_live", 0),
                durable.get("checkpoints", 0),
                durable.get("last_checkpoint_offset") or 0,
                durable.get("records_since_checkpoint", 0),
                durable.get("checkpoint_failures", 0),
            )
        )
        recovery = durable.get("recovery") or {}
        if recovery:
            lines.append(
                "recovered: checkpoint @%d (%d skipped) + %d replayed | "
                "%d messages restored"
                % (
                    recovery.get("checkpoint_offset", 0),
                    recovery.get("checkpoints_skipped", 0),
                    recovery.get("replayed_records", 0),
                    recovery.get("restored_messages", 0),
                )
            )
    lines.append("")

    connections = snapshot.get("connections", [])
    lines.append("CONNECTIONS (%d)" % len(connections))
    lines.append(
        "  %-4s %-18s %-21s %-6s %8s %8s %6s %-s"
        % ("ID", "NAME", "PEER", "STATE", "IN", "OUT", "RESETS", "LAST OP")
    )
    for row in connections:
        lines.append(
            "  %-4s %-18s %-21s %-6s %8d %8d %6d %s"
            % (
                row.get("id", "?"),
                row.get("name", ""),
                row.get("peer", ""),
                row.get("state", ""),
                row.get("frames_in", 0),
                row.get("frames_out", 0),
                row.get("resets", 0),
                row.get("last_op", ""),
            )
        )
    lines.append("")

    queues = snapshot.get("queues", {})
    breakers = snapshot.get("breakers", {})
    lines.append("QUEUES (%d)" % len(queues))
    lines.append(
        "  %-24s %6s %6s %6s %6s %9s %5s %6s %-s"
        % (
            "QUEUE",
            "DEPTH",
            "SENT",
            "DLVD",
            "ACKED",
            "OVERFLOW",
            "SHED",
            "DEAD",
            "BREAKER",
        )
    )
    for name in sorted(queues):
        stats = queues[name]
        lines.append(
            "  %-24s %6d %6d %6d %6d %9d %5d %6d %s"
            % (
                name,
                stats.get("depth", 0),
                stats.get("sent", 0),
                stats.get("delivered", 0),
                stats.get("acked", 0),
                stats.get("overflowed", 0),
                stats.get("shed", 0),
                stats.get("dead_lettered", 0),
                breakers.get(name, "-"),
            )
        )
    return lines


def render_flows(snapshot: dict[str, Any]) -> list[str]:
    """Render a :meth:`FlowRuntime.snapshot` dump: one row per
    registered flow (starts, completions, live executions vs steps
    answered from the journal on resume) plus the runtime-wide
    durability counters."""
    flows = snapshot.get("flows", [])
    lines = ["FLOWS (%d registered)" % len(flows)]
    lines.append(
        "  %-24s %-4s %8s %10s %7s %8s %10s %9s"
        % (
            "FLOW",
            "VER",
            "STARTED",
            "COMPLETED",
            "FAILED",
            "RESUMED",
            "STEPS RUN",
            "REPLAYED",
        )
    )
    for row in flows:
        lines.append(
            "  %-24s %-4s %8d %10d %7d %8d %10d %9d"
            % (
                row.get("name", ""),
                row.get("version", ""),
                row.get("started", 0),
                row.get("completed", 0),
                row.get("failed", 0),
                row.get("resumed", 0),
                row.get("steps_executed", 0),
                row.get("steps_replayed", 0),
            )
        )
    counters = snapshot.get("counters", {})
    lines.append("")
    lines.append(
        "STEPS executed %d (%d transactional, %d failed) | "
        "replayed on resume %d"
        % (
            counters.get("steps_executed", 0),
            counters.get("txn_steps", 0),
            counters.get("steps_failed", 0),
            counters.get("steps_replayed_resume", 0),
        )
    )
    lines.append(
        "FLOWS resumed after crash %d | scopes re-established %d"
        % (
            counters.get("flows_resumed", 0),
            counters.get("scopes_reestablished", 0),
        )
    )
    return lines


def render_dlq(rows: list[dict[str, Any]]) -> list[str]:
    """Render DLQ entries (from :meth:`MessageBus.dlq_entries` or the
    broker's ``dlq_inspect`` op)."""
    lines = ["DEAD LETTERS (%d)" % len(rows)]
    lines.append(
        "  %-10s %-20s %4s %-28s %s"
        % ("MSG", "QUEUE", "DLVD", "REASON", "BODY")
    )
    for row in rows:
        reason = row.get("headers", {}).get("dead-letter-reason", "")
        lines.append(
            "  %-10s %-20s %4d %-28s %s"
            % (
                row.get("msg_id", ""),
                row.get("queue", ""),
                row.get("deliveries", 0),
                reason[:28],
                json.dumps(row.get("body", {}), sort_keys=True)[:60],
            )
        )
    return lines


def _net_source(target: str) -> dict[str, Any]:
    """A broker snapshot from ``target``: a JSON dump file, or a live
    ``HOST:PORT`` fetched over one short connection."""
    import os

    if os.path.exists(target):
        with open(target, "r", encoding="utf-8") as handle:
            return json.load(handle)
    host, separator, port = target.rpartition(":")
    if not separator or not port.isdigit():
        raise OSError(
            "%r is neither a snapshot file nor HOST:PORT" % target
        )
    from repro.net.client import SocketBus

    with SocketBus(host or "127.0.0.1", int(port), name="monitor") as bus:
        return bus.snapshot()


def _demo_snapshot() -> dict[str, Any]:
    """Run a small traced workload and snapshot it (for `demo`)."""
    from repro.obs.export import engine_snapshot
    from repro.wfms.engine import Engine
    from repro.wfms.model import Activity, ProcessDefinition

    engine = Engine(observability=True)
    engine.register_program("work", lambda ctx: 0, "demo step")
    definition = ProcessDefinition("DemoFlow")
    definition.add_activity(Activity("Prepare", program="work"))
    definition.add_activity(Activity("Execute", program="work"))
    definition.add_activity(Activity("Report", program="work"))
    definition.connect("Prepare", "Execute")
    definition.connect("Execute", "Report")
    engine.register_definition(definition)
    for __ in range(3):
        engine.start_process("DemoFlow")
    engine.run()
    return engine_snapshot(engine)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.monitor",
        description="Render engine observability snapshots.",
    )
    parser.add_argument(
        "command",
        choices=[
            "view", "prom", "spans", "shards", "flows", "net", "dlq", "demo"
        ],
    )
    parser.add_argument(
        "file",
        nargs="?",
        help="snapshot JSON (not needed for demo); for net/dlq, a "
        "broker snapshot file or a live broker's HOST:PORT",
    )
    parser.add_argument(
        "--max-spans",
        type=int,
        default=40,
        help="span lines to show in the view (default 40)",
    )
    parser.add_argument(
        "--queue",
        help="dlq: restrict to one original queue (default: all)",
    )
    parser.add_argument(
        "--drain",
        action="store_true",
        help="dlq: requeue every shown dead letter to its original "
        "queue (live broker target only)",
    )
    parser.add_argument(
        "--purge",
        action="store_true",
        help="dlq: discard every shown dead letter (live broker "
        "target only)",
    )
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    from repro.errors import NetError

    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    if args.command == "net":
        if not args.file:
            print("error: snapshot file or HOST:PORT required", file=out)
            return 2
        try:
            broker_snapshot = _net_source(args.file)
        except (OSError, json.JSONDecodeError, NetError) as exc:
            print("error: %s" % exc, file=out)
            return 1
        for line in render_net(broker_snapshot):
            print(line, file=out)
        return 0
    if args.command == "dlq":
        host, separator, port = (args.file or "").rpartition(":")
        if not separator or not port.isdigit():
            print("error: dlq needs a live broker HOST:PORT", file=out)
            return 2
        from repro.net.client import SocketBus

        try:
            with SocketBus(
                host or "127.0.0.1", int(port), name="monitor-dlq"
            ) as bus:
                rows = bus.dlq_entries(args.queue)
                for line in render_dlq(rows):
                    print(line, file=out)
                if args.drain or args.purge:
                    queues = (
                        [args.queue]
                        if args.queue
                        else sorted({row["queue"] for row in rows})
                    )
                    for queue in queues:
                        moved = bus.dlq_drain(queue, requeue=args.drain)
                        print(
                            "%s %d from dlq:%s"
                            % (
                                "requeued" if args.drain else "purged",
                                moved,
                                queue,
                            ),
                            file=out,
                        )
        except NetError as exc:
            print("error: %s" % exc, file=out)
            return 1
        return 0
    if args.command == "demo":
        snapshot = _demo_snapshot()
    else:
        if not args.file:
            print("error: snapshot file required", file=out)
            return 2
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print("error: %s" % exc, file=out)
            return 1
    if args.command == "prom":
        out.write(to_prometheus_text(snapshot.get("metrics", [])))
        return 0
    if args.command == "spans":
        for line in span_tree_lines(snapshot.get("spans", [])):
            print(line, file=out)
        return 0
    if args.command == "shards":
        for line in render_shards(snapshot):
            print(line, file=out)
        return 0
    if args.command == "flows":
        for line in render_flows(snapshot):
            print(line, file=out)
        return 0
    for line in render_snapshot(snapshot, max_spans=args.max_spans):
        print(line, file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
