#!/usr/bin/env python3
"""The repository benchmark: durable transactional workflows end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload remote_flow --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs one fixed-size episode untraced, then the same
episode traced, and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds diagnostics.
See ``perfbench/README.md`` for the workloads and their metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = {
    "remote_flow": ("remote_flow", "RemoteFlow"),
    "saga_batch": ("saga_batch", "SagaBatch"),
    "long_flow": ("long_flow", "LongFlow"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name):
    module_name, class_name = WORKLOADS[name]
    module = __import__(module_name)
    return getattr(module, class_name)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(
            "perfbench: %s has no src/repro; run from the root of a "
            "checkout of the repository" % ROOT,
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    import episodes
    import harness

    cpus = harness.allowed_cpus()
    pinned = bool(cpus) and harness.pin(0, cpus[0])
    broker_cpu = cpus[1] if len(cpus) > 1 else None
    # Durable state lives inside the checkout and is removed at exit.
    workdir = os.path.join(
        HERE, "_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    )
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = load_workload(args.workload)(args.seed, workdir)
    workload.broker_cpu = broker_cpu
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "sync": harness.SYNC,
        "filesystem": harness.filesystem_of(workdir),
        "load_cpu": cpus[0] if pinned else None,
        "broker_cpu": broker_cpu,
    }
    try:
        if args.trace:
            metrics, ledger = episodes.traced_run(workload, diagnostics)
        else:
            metrics, ledger = episodes.timed_run(
                workload, args.seconds, diagnostics
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    diagnostics["errors"] = ledger.errors
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0 and ledger.attempted > 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
