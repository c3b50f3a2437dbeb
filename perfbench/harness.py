"""Measurement plumbing shared by the workloads: the closed loop,
per-block timing statistics, host and process probes.

The host this benchmark was written on (a 2-core VM) slows by up to
~2x for seconds to minutes at a time while other tenants load the
shared cores and caches.  Two defences:

* timing statistics are taken over many short blocks of ops, so a
  slow stretch moves only the blocks it covers;
* every block, set-up and recovery is timed next to a fixed
  stdlib-only reference loop, and scaled to a host on which that loop
  takes ``NOMINAL_REFERENCE_MS``.  The loop runs no program code, so
  no change to the program can move it; the timings as measured are
  kept for the diagnostics line.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time

#: Fixed tail ladder, in per-mille: a group's tail is the highest rung
#: that still has at least ten samples beyond it, so the rung depends
#: only on the group size.
TAIL_LADDER = (999, 995, 990, 980, 950, 900, 750, 500)


def quantile(values, q):
    """Linear-interpolated quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_quantile(count):
    """Highest ladder percentile with at least ten of ``count`` samples
    beyond it (integer arithmetic, so 100 samples reach p90)."""
    for rung in TAIL_LADDER:
        if count * (1000 - rung) >= 10_000:
            return rung / 1000.0
    return 0.5


#: host reference samples per block of ops (see ``drive``).
REFERENCES_PER_BLOCK = 4

#: durability policy of every store and of the broker's bus log: group
#: commit every 64 records or 50 ms of wall clock (repro/wfms/journal.py).
SYNC = "batch"

#: the reference loop's time, in ms, on the nominal host every timing
#: is scaled to (about its fastest on the 2-core development host).
NOMINAL_REFERENCE_MS = 0.95


def median(values):
    return statistics.median(values) if values else 0.0


# -- host and process probes --------------------------------------------


def allowed_cpus():
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def pin(pid, cpu):
    """Pin ``pid`` (0 = this process) to ``cpu``; False when the host
    does not allow it (single CPU, no affinity support)."""
    try:
        os.sched_setaffinity(pid, {cpu})
    except (AttributeError, OSError):
        return False
    return True


def _reference_body(n):
    records = []
    for i in range(n):
        record = {
            "type": "ref", "seq": i, "name": "a%d" % i, "vals": [i, i + 1]
        }
        records.append(json.dumps(record))
    return len(records)


def host_reference_ms():
    """Best of two timings of a fixed pure-Python loop that builds
    small dicts and JSON-encodes them, the mix the engine's journal
    and navigator spend their time on: the host's speed right now."""
    best = float("inf")
    for __ in range(2):
        started = time.perf_counter()
        _reference_body(250)
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_kb():
    with open("/proc/self/statm") as handle:
        resident = int(handle.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 1024.0


def process_cpu_s(pid):
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def self_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def filesystem_of(path):
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


class GcClock:
    """Collector pauses and collections, via ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._started = None

    def _callback(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self._callback)


def add_counts(into, counts):
    """Add ``counts`` into ``into`` key by key; returns ``into``.  Flow
    workloads bank a runtime's counters before a crash, because the
    rebuilt engine starts a fresh runtime from zero."""
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value
    return into


# -- the closed loop -----------------------------------------------------


class Ledger:
    """Outcomes and timings of every op of one run.

    Timings are kept both as measured and scaled to the nominal host
    speed (``NOMINAL_REFERENCE_MS``) by the reference loop timed next
    to them.
    """

    def __init__(self, block_ops):
        self.block_ops = block_ops
        self.attempted = 0
        self.failed = 0
        self.compensated = 0
        self.timed_ops = 0
        self.timed_seconds = 0.0
        #: per block: (ops/s, median latency s, reference ms).
        self.blocks = []
        #: every timed op's latency in seconds, scaled to nominal.
        self.latencies = []
        #: (seconds, reference ms) per set-up and per recovery.
        self.setups = []
        self.recoveries = []
        self.errors = []

    def close_block(self, seconds, latencies, reference):
        self.blocks.append(
            (len(latencies) / seconds, median(latencies), reference)
        )
        scale = NOMINAL_REFERENCE_MS / reference
        self.latencies.extend(latency * scale for latency in latencies)

    def note_failure(self, what):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def timed_call(fn, *args):
    """``fn(*args)`` plus (its wall seconds, the host reference around
    it); returns (result, seconds, reference ms)."""
    before = host_reference_ms()
    started = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - started
    return result, seconds, (before + host_reference_ms()) / 2.0


def nominal(seconds, reference):
    """``seconds`` measured while the reference loop took ``reference``
    ms, scaled to a host on which it takes ``NOMINAL_REFERENCE_MS``."""
    return seconds * NOMINAL_REFERENCE_MS / reference


def drive(workload, first, ops, ledger, *, timed, tracer=None):
    """Run ops ``first .. first + ops - 1`` of ``workload``'s stream as
    a closed loop with ``workload.window`` ops in flight; verify each
    as it finishes.

    Timed runs record per-op latency (start to verified outcome) and
    close a block every ``ledger.block_ops`` verified ops.  The host
    reference loop is timed at every block boundary and
    ``REFERENCES_PER_BLOCK - 1`` times inside each block; the block's
    reference is their mean, and the time they take is excluded from
    the blocks and from the latency of ops in flight.  With a
    ``tracer``, spans made while starting or verifying an op carry its
    key.
    """
    window = workload.window
    started = {}
    next_op = first
    end = first + ops
    done = 0
    every = max(1, ledger.block_ops // REFERENCES_PER_BLOCK)
    references = [host_reference_ms()] if timed else []
    block_started = time.perf_counter()
    block_latencies = []
    phase_seconds = 0.0

    def pause_for_reference():
        paused = time.perf_counter()
        references.append(host_reference_ms())
        paused = time.perf_counter() - paused
        for pending in started:
            started[pending] += paused
        return paused

    while done < ops:
        while next_op < end and len(started) < window:
            if tracer is not None:
                tracer.op = next_op
            started[workload.start(next_op)] = time.perf_counter()
            next_op += 1
        if tracer is not None:
            tracer.op = None
        for key in workload.pump(list(started)):
            if tracer is not None:
                tracer.op = key
            ok, compensated = workload.verify(key)
            if tracer is not None:
                tracer.op = None
            now = time.perf_counter()
            began = started.pop(key)
            done += 1
            ledger.attempted += 1
            if not ok:
                ledger.note_failure("op %r failed verification" % (key,))
                continue
            ledger.compensated += compensated
            if not timed:
                continue
            block_latencies.append(now - began)
            if len(block_latencies) < ledger.block_ops:
                if len(block_latencies) % every == 0:
                    block_started += pause_for_reference()
                continue
            seconds = now - block_started
            phase_seconds += seconds
            pause_for_reference()
            ledger.close_block(
                seconds, block_latencies, sum(references) / len(references)
            )
            references = references[-1:]
            block_latencies = []
            block_started = time.perf_counter()
    if timed:
        ledger.timed_ops += ops
        ledger.timed_seconds += phase_seconds + (
            time.perf_counter() - block_started
        )
