"""Episodes and the two kinds of run built from them.

An *episode* is one fixed-size pass over a workload on fresh state:
set-up, a fixed warm-up, the timed ops, then a recovery probe that
crashes the system at fixed points in a fresh window of ops, times
each recovery (``recovery_s``), and finishes and
verifies the interrupted ops.  Durable directories are measured once
the episode has shut down, then removed.

Because every episode is the same size, what grows with history
(memory, archive, disk) is the same in every run however fast the
host happens to be; a run repeats episodes until it has measured for
``--seconds``.  ``setup_s`` comes from dedicated set-ups made before
the first episode.
"""

from __future__ import annotations

import gc
import os
import shutil
import time

import harness
from tracer import Tracer

#: untimed ops at the start of every episode, in windows.
WARMUP_WINDOWS = 2
#: timed episodes every run makes at least, so recovery and disk
#: figures are medians of several samples.
MIN_EPISODES = 4
#: timed set-ups (each torn down at once) a timed run makes before its
#: episodes; ``setup_s`` is their median.  An episode's own set-up is
#: not timed: it follows a torn-down episode, and mixing the two kinds
#: would let the episode count move the median.
SETUPS = 10
#: back-to-back crash/recover cycles at each crash point.
RECOVERY_REPEATS = 2


def store_bytes(dirs):
    """Bytes on disk per category over the workload's durable dirs."""
    out = {"journal": 0, "checkpoint": 0, "archive": 0, "buslog": 0}
    for label, path in dirs.items():
        for root, __, files in os.walk(path):
            for name in files:
                try:
                    size = os.path.getsize(os.path.join(root, name))
                except OSError:
                    continue
                if label == "broker":
                    out["buslog"] += size
                elif name.startswith("checkpoint-"):
                    out["checkpoint"] += size
                elif name.startswith("archive"):
                    out["archive"] += size
                else:
                    out["journal"] += size
    return out


def recovery_probe(workload, ledger, first, tracer=None):
    """Start a fresh window of ops, crash and recover at each of the
    workload's fixed crash points, then finish and verify every
    interrupted op.  Each crash point is crashed and recovered
    ``RECOVERY_REPEATS`` times in a row (nothing runs in between, so
    each repeat replays the same suffix).  Returns the records the
    first recovery at each point replayed."""
    pending = [workload.start(first + i) for i in range(workload.window)]
    replayed = []
    for point in workload.crash_points():
        workload.advance(point)
        for repeat in range(RECOVERY_REPEATS):
            # Start every recovery from a heap without the previous
            # engine's garbage, so its allocations see the same heap.
            gc.collect()
            last, seconds, reference = harness.timed_call(
                workload.crash_and_recover, point
            )
            ledger.recoveries.append((seconds, reference))
            if repeat == 0:
                replayed.append(last["suffix_records"])
    while pending:
        for key in workload.pump(pending):
            pending.remove(key)
            if tracer is not None:
                tracer.op = key
            ok, compensated = workload.verify(key)
            if tracer is not None:
                tracer.op = None
            ledger.attempted += 1
            if ok:
                ledger.compensated += compensated
            else:
                ledger.note_failure("interrupted op %r failed" % (key,))
    return replayed


def run_episode(workload, ledger, episode, ops, tracer=None):
    """One episode; returns its facts (ops, disk bytes, replay counts,
    and the traced phase's process figures when ``tracer`` is set)."""
    warmup = WARMUP_WINDOWS * workload.window
    total = warmup + ops + workload.window
    workload.setup(episode, total)
    facts = {"ops": total, "traced_ops": ops + workload.window}
    try:
        harness.drive(workload, 0, warmup, ledger, timed=False)
        if tracer is not None:
            phase = TracedPhase(workload, tracer, ledger)
            phase.begin()
        blocks_before = len(ledger.blocks)
        latencies_before = len(ledger.latencies)
        harness.drive(workload, warmup, ops, ledger, timed=True, tracer=tracer)
        facts["blocks"] = ledger.blocks[blocks_before:]
        facts["latencies"] = ledger.latencies[latencies_before:]
        facts["replayed"] = recovery_probe(
            workload, ledger, warmup + ops, tracer
        )
        if tracer is not None:
            facts.update(phase.end())
        if not workload.consistent():
            ledger.note_failure(
                "episode %d: durable state inconsistent" % episode
            )
    finally:
        workload.teardown()
    dirs = workload.durable_dirs()
    facts["disk"] = store_bytes(dirs)
    for path in dirs.values():
        shutil.rmtree(path, ignore_errors=True)
    # Free this episode's cyclic garbage now, so the next episode's
    # peak memory never overlaps with it.
    gc.collect()
    return facts


class TracedPhase:
    """Tracer installed plus process counters sampled around the
    timed ops and the recovery probe of one episode."""

    def __init__(self, workload, tracer, ledger):
        self.workload = workload
        self.tracer = tracer
        self.ledger = ledger
        self.gc = harness.GcClock()

    def begin(self):
        self.compensated = self.ledger.compensated
        self.broker_pid = self.workload.broker_pid()
        self.broker_cpu = (
            harness.process_cpu_s(self.broker_pid)
            if self.broker_pid
            else 0.0
        )
        self.flow = self.workload.flow_counters()
        self.rss = harness.current_rss_kb()
        self.cpu = harness.self_cpu_s()
        self.gc.__enter__()
        self.tracer.install()
        self.tracer.wrap_steps(self.workload.step_specs())
        self.tracer.wrap_attribute(
            harness, "host_reference_ms", "bench.reference"
        )
        self.tracer.wrap_attribute(
            self.workload, "crash_and_recover", "wfms.recovery"
        )
        self.started = time.perf_counter()

    def end(self):
        wall = time.perf_counter() - self.started
        self.tracer.uninstall()
        self.gc.__exit__()
        flow = self.workload.flow_counters()
        return {
            "wall": wall,
            "cpu": harness.self_cpu_s() - self.cpu,
            "rss_growth_kb": harness.current_rss_kb() - self.rss,
            "gc_seconds": self.gc.seconds,
            "gc_collections": self.gc.collections,
            "broker_cpu": (
                harness.process_cpu_s(self.broker_pid) - self.broker_cpu
                if self.broker_pid
                else 0.0
            ),
            "flow": {k: flow.get(k, 0) - self.flow.get(k, 0) for k in flow},
            "compensated": self.ledger.compensated - self.compensated,
        }


def setup_only(workload, ledger, episode):
    """One timed set-up, torn down at once."""
    __, seconds, reference = harness.timed_call(
        workload.setup, episode, workload.window
    )
    ledger.setups.append((seconds, reference))
    workload.teardown()
    for path in workload.durable_dirs().values():
        shutil.rmtree(path, ignore_errors=True)
    gc.collect()


def timed_run(workload, seconds, diagnostics):
    """Untraced episodes until ``seconds`` of timed ops (and at least
    ``MIN_EPISODES`` episodes); returns the end-to-end metrics.

    Every timing is scaled to the nominal host speed by the reference
    loop timed next to it (see ``harness``); the timings as measured
    go to the diagnostics line.
    """
    ledger = harness.Ledger(workload.block_ops)
    for index in range(SETUPS):
        setup_only(workload, ledger, 100 + index)
    episodes = []
    while len(episodes) < MIN_EPISODES or ledger.timed_seconds < seconds:
        episodes.append(
            run_episode(
                workload, ledger, len(episodes), workload.episode_ops
            )
        )
    nominal = harness.NOMINAL_REFERENCE_MS
    rates = [rate * ref / nominal for rate, __, ref in ledger.blocks]
    p50s = [p50 * nominal / ref for __, p50, ref in ledger.blocks]
    recoveries = [harness.nominal(*r) for r in ledger.recoveries]
    setups = [harness.nominal(*r) for r in ledger.setups]
    # A run shorter than one group reports one group of what it has.
    group = min(workload.tail_ops, len(ledger.latencies))
    tail_q = harness.tail_quantile(group)
    tails = [
        harness.quantile(ledger.latencies[i : i + group], tail_q)
        for i in range(0, len(ledger.latencies) - group + 1, group)
    ]
    references = [ref for __, __, ref in ledger.blocks]
    diagnostics.update(
        {
            "episodes": len(episodes),
            "blocks": len(ledger.blocks),
            "timed_ops": ledger.timed_ops,
            "timed_seconds": round(ledger.timed_seconds, 3),
            "latency_samples": len(ledger.latencies),
            "latency_tail_quantile": tail_q,
            "latency_tail_group_ops": group,
            "latency_tail_groups": len(tails),
            "recovery_samples": len(recoveries),
            "setup_samples": len(setups),
            "nominal_reference_ms": nominal,
            "reference_ms_quartiles": [
                round(harness.quantile(references, q), 4)
                for q in (0.25, 0.5, 0.75)
            ],
            "as_measured": {
                "ops_per_s": harness.median([b[0] for b in ledger.blocks]),
                "latency_p50_ms": harness.median(
                    [b[1] for b in ledger.blocks]
                ) * 1e3,
                "recovery_s": harness.median(
                    [r[0] for r in ledger.recoveries]
                ),
                "setup_s": harness.median([r[0] for r in ledger.setups]),
            },
        }
    )
    disk = [sum(ep["disk"].values()) / ep["ops"] for ep in episodes]
    metrics = {
        "ops_per_s": (harness.median(rates), "1/s"),
        "latency_p50_ms": (harness.median(p50s) * 1e3, "ms"),
        "latency_tail_ms": (harness.median(tails) * 1e3, "ms"),
        "ok_ratio": (
            (ledger.attempted - ledger.failed) / max(1, ledger.attempted),
            "ratio",
        ),
        "disk_bytes_per_op": (harness.median(disk), "B"),
        "recovery_s": (harness.median(recoveries), "s"),
        "setup_s": (harness.median(setups), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
    }
    return _shape(metrics), ledger


def traced_run(workload, diagnostics):
    """The fixed-size episode untraced, then the same episode (same
    op stream) traced; returns the per-layer metrics."""
    ledger = harness.Ledger(workload.block_ops)
    plain = run_episode(workload, ledger, 0, workload.trace_ops)
    tracer = Tracer()
    traced = run_episode(workload, ledger, 0, workload.trace_ops, tracer)
    layers, unattributed = tracer.layers(traced["wall"])
    ops = traced["traced_ops"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_ms(*names):
        return sum(layers.get(n, {}).get("self", 0.0) for n in names) * 1e3

    net_calls = layers.get("net.client", {}).get("durations", [])
    polls = tracer.poll_hits + tracer.poll_empty
    flow = traced["flow"]
    executed = flow.get("steps_executed", 0)
    replayed = flow.get("steps_replayed_loop", 0) + flow.get(
        "steps_replayed_resume", 0
    )
    checkpoints = layers.get("store.checkpoint", {}).get("durations", [])
    disk = traced["disk"]
    plain_rate = harness.median([b[0] * b[2] for b in plain["blocks"]])
    traced_rate = harness.median([b[0] * b[2] for b in traced["blocks"]])
    diagnostics["as_measured"] = {
        "%s_%s" % (phase, figure): harness.median(
            [block[column] for block in facts["blocks"]]
        )
        for phase, facts in (("untraced", plain), ("traced", traced))
        for figure, column in (("ops_per_s", 0), ("reference_ms", 2))
    }
    metrics = {
        "net.client.calls_per_op": (calls("net.client") / ops, "count"),
        "net.client.empty_polls_per_op": (tracer.poll_empty / ops, "count"),
        "net.client.poll_hit_ratio": (
            tracer.poll_hits / polls if polls else 0.0,
            "ratio",
        ),
        "net.client.call_us_p50": (
            harness.median(net_calls) * 1e6 if net_calls else 0.0,
            "us",
        ),
        "net.client.self_ms_per_op": (self_ms("net.client") / ops, "ms"),
        "net.broker.cpu_ms_per_op": (
            traced["broker_cpu"] * 1e3 / ops,
            "ms",
        ),
        "net.buslog.bytes_per_op": (disk["buslog"] / traced["ops"], "B"),
        "wfms.engine.steps_per_op": (
            calls("wfms.engine.step") / ops,
            "count",
        ),
        "wfms.engine.step_self_ms_per_op": (
            self_ms("wfms.engine.step") / ops,
            "ms",
        ),
        "wfms.audit.records_per_op": (
            calls("wfms.audit.record") / ops,
            "count",
        ),
        "wfms.audit.record_self_ms_per_op": (
            self_ms("wfms.audit.record") / ops,
            "ms",
        ),
        "wfms.read_ms_per_op": (
            tracer.verification_read_seconds() * 1e3 / ops,
            "ms",
        ),
        "wfms.node.pump_self_ms_per_op": (
            self_ms("wfms.node.pump") / ops,
            "ms",
        ),
        "store.journal.appends_per_op": (
            calls("store.journal.append") / ops,
            "count",
        ),
        "store.journal.append_self_ms_per_op": (
            self_ms("store.journal.append") / ops,
            "ms",
        ),
        "store.journal.flushes_per_op": (
            calls("store.journal.flush") / ops,
            "count",
        ),
        "store.archive.self_ms_per_op": (
            self_ms("store.archive") / ops,
            "ms",
        ),
        "store.checkpoints_per_run": (len(checkpoints), "count"),
        "store.checkpoint_ms_p50": (
            harness.median(checkpoints) * 1e3 if checkpoints else 0.0,
            "ms",
        ),
        "store.recovery.records_replayed": (
            harness.median(traced["replayed"]),
            "count",
        ),
        "store.journal_bytes_per_op": (disk["journal"] / traced["ops"], "B"),
        "store.checkpoint_bytes_per_op": (
            disk["checkpoint"] / traced["ops"],
            "B",
        ),
        "store.archive_bytes_per_op": (disk["archive"] / traced["ops"], "B"),
        "flow.steps_executed_per_op": (executed / ops, "count"),
        "flow.steps_replayed_per_op": (replayed / ops, "count"),
        "flow.replay_ratio": (
            replayed / executed if executed else 0.0,
            "ratio",
        ),
        "flow.body_self_ms_per_op": (self_ms("flow.body") / ops, "ms"),
        "tx.db.self_ms_per_op": (self_ms("tx.db") / ops, "ms"),
        "core.compensated_share": (traced["compensated"] / ops, "ratio"),
        "proc.driver_cpu_ms_per_op": (traced["cpu"] * 1e3 / ops, "ms"),
        "proc.gc_ms_per_op": (traced["gc_seconds"] * 1e3 / ops, "ms"),
        "proc.gc_collections_per_op": (
            traced["gc_collections"] / ops,
            "count",
        ),
        "proc.rss_growth_kb_per_op": (traced["rss_growth_kb"] / ops, "kB"),
        "trace.unattributed_share": (unattributed, "ratio"),
        "trace.overhead_ratio": (
            traced_rate / plain_rate if plain_rate else 0.0,
            "ratio",
        ),
    }
    spans_dir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "_out"
    )
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(
        spans_dir, "spans-%s-%d.jsonl" % (workload.name, workload.seed)
    )
    tracer.write(spans_path)
    diagnostics.update(
        {
            "traced_ops": ops,
            "spans": len(tracer.spans),
            "spans_file": os.path.relpath(spans_path),
            "layer_calls": {n: row["calls"] for n, row in layers.items()},
            "layer_self_ms": {
                n: round(row["self"] * 1e3, 3) for n, row in layers.items()
            },
            "traced_wall_s": round(traced["wall"], 4),
        }
    )
    return _shape(metrics), ledger


def _shape(metrics):
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }
