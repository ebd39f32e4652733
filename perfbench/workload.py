"""One workload process of the benchmark: run, check, report.

Run from the root of a checkout::

    python3 perfbench/workload.py --workload http-steady --seed 7 --mode plain

``--mode plain`` runs the workload's operations and prints one JSON
object with host times, simulated work and checks.  ``--mode traced``
does the same under the span tracer (:mod:`tracer`) and adds the
per-layer ledger.  ``--mode setup`` stops the process at the first
``Engine.run`` entry, which is how set-up time is sampled in fresh
interpreters.

The program is driven only through its public API: the ``run_*``
testbeds, ``Scenario`` and ``run_scenario``.  A few one-call-per-object
probes (on ``Engine.run`` and the constructors of sockets, mappers and
the reducer sink) see the work done; they cost nothing per event.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = ROOT / "benchmarks" / "baseline_scenarios.json"

#: Sizes of the steady workloads.  Open-loop Poisson at 40k rps is about
#: 40% of the 8-core proxy.  Request ``i`` asks for key ``i mod 10k``, so
#: the memcached run goes past the key space: 2288 of its 12288 requests
#: (19%) reuse a key.  The Hadoop size is past the fixed-cost regime
#: (imports, compilation, testbed) of the matrix size.
REQUESTS = {"memcached-steady": 12288, "http-steady": 8192}
RATE_RPS = 40_000.0
CONNECTIONS = 64
CORES = 8
SLO_US = 2000.0
HADOOP_KB_PER_MAPPER = 96
HADOOP_CORES = 4
HADOOP_RAMP = (("start_rps", 50.0), ("end_rps", 500.0), ("duration_us", 50_000.0))

WORKLOADS = ("memcached-steady", "http-steady", "hadoop-stream", "matrix-quick")


def canonical(obj) -> str:
    """Byte-stable JSON text of a simulated entry."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Probes:
    """Run stamps and work counters, gathered per operation."""

    def __init__(self, stop_at_first_run=False):
        self.stop_at_first_run = stop_at_first_run
        self.first_run_at = None  # monotonic, first Engine.run entry
        self.run_entries = []
        self.run_exits = []
        self.sockets = []
        self.mappers = []
        self.sinks = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_started = None

    def reset(self):
        self.run_entries = []
        self.run_exits = []
        self.sockets = []
        self.mappers = []
        self.sinks = []

    def snapshot(self):
        """What one operation left in the probes (kept for its checks)."""
        seen = Probes()
        for name in ("run_entries", "run_exits", "sockets", "mappers", "sinks"):
            setattr(seen, name, getattr(self, name))
        return seen

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def install(self, patches):
        from repro.net.tcp import TcpSocket
        from repro.sim.engine import Engine
        from repro.workloads.hadoop_mappers import Mapper, ReducerSink

        probes = self
        run = Engine.run

        def stamped_run(engine, *args, **kwargs):
            now = time.perf_counter()
            if probes.first_run_at is None:
                probes.first_run_at = time.monotonic()
                if probes.stop_at_first_run:
                    print(json.dumps({"first_run_at": probes.first_run_at}))
                    sys.stdout.flush()
                    os._exit(0)
            probes.run_entries.append(now)
            try:
                return run(engine, *args, **kwargs)
            finally:
                probes.run_exits.append(time.perf_counter())

        patches.set(Engine, "run", stamped_run)
        for cls, attr in (
            (TcpSocket, "sockets"),
            (Mapper, "mappers"),
            (ReducerSink, "sinks"),
        ):
            patches.set(cls, "__init__", self._recording_init(cls.__init__, attr))
        gc.callbacks.append(self.on_gc)
        patches.on_remove(lambda: gc.callbacks.remove(self.on_gc))

    def _recording_init(self, init, attr):
        """``init`` that also files ``(obj, args, kwargs)`` under ``attr``."""
        probes = self

        def recording_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            getattr(probes, attr).append((obj, args, kwargs))

        return recording_init


def _mapper_pairs(record):
    """The ``pairs`` argument a ``Mapper`` was built with."""
    mapper, args, kwargs = record
    bound = inspect.signature(type(mapper).__init__).bind(mapper, *args, **kwargs)
    return bound.arguments["pairs"]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _scoped(call):
    """Run ``call`` with task ids scoped exactly as ``run_scenario`` does."""
    from repro.runtime.scheduler import TaskBase

    resume_from = next(TaskBase._ids)
    TaskBase.reset_ids()
    try:
        return call()
    finally:
        TaskBase.reset_ids(max(resume_from, next(TaskBase._ids)))


def _steady_entry(result, requests):
    return {
        "requests": requests,
        "throughput": result.throughput,
        "latency_ms": result.latency_ms,
        "extra": result.extra,
        "classes": result.class_stats,
        "admission": result.admission_stats,
    }


def _request_checks(entry):
    """The conservation laws every open-loop request entry must satisfy."""
    x = entry["extra"]
    problems = []
    if x["admitted"] + x["shed"] != x["offered"]:
        problems.append("admitted + shed != offered")
    if x["completed"] + x["failed"] + x["retried"] != x["admitted"]:
        problems.append("completed + failed + retried != admitted")
    if x["errors"] != 0:
        problems.append(f"errors = {x['errors']:g}")
    if x["offered"] != entry["requests"]:
        problems.append(f"offered {x['offered']:g} != requests {entry['requests']}")
    return problems


def _hadoop_checks(entry, probes):
    from repro.workloads.hadoop_mappers import reference_wordcount

    problems = []
    configured = sum(m.bytes_total for m, _a, _k in probes.mappers)
    if entry["extra"]["ingress_bytes"] != configured:
        problems.append(
            f"ingress_bytes {entry['extra']['ingress_bytes']:g} != "
            f"configured stream size {configured}"
        )
    sinks = [sink for sink, _a, _k in probes.sinks]
    if len(sinks) != 1 or sinks[0].finished_at is None:
        problems.append("reducer sink did not finish")
    elif sinks[0].counts() != reference_wordcount(
        [_mapper_pairs(m) for m in probes.mappers]
    ):
        problems.append("reducer word counts differ from the reference")
    return problems


def operations(workload, seed):
    """``[(name, call, check)]``: ``call()`` returns a JSON-ready entry,
    ``check(entry, probes)`` returns a list of problems."""
    from repro.bench.scenarios import SCENARIOS, run_scenario
    from repro.bench.testbeds import (
        run_hadoop_experiment,
        run_http_experiment,
        run_memcached_experiment,
    )
    from repro.workloads.arrivals import make_arrival

    if workload == "memcached-steady":
        requests = REQUESTS[workload]

        def call():
            result = _scoped(lambda: run_memcached_experiment(
                "flick-kernel",
                CORES,
                concurrency=CONNECTIONS,
                requests_per_client=requests // CONNECTIONS,
                slo_us=SLO_US,
                arrival=make_arrival("poisson", rate_rps=RATE_RPS),
                total_requests=requests,
                seed=seed,
            ))
            return _steady_entry(result, requests)

        return [(workload, call, lambda e, p: _request_checks(e))]
    if workload == "http-steady":
        requests = REQUESTS[workload]

        def call():
            result = _scoped(lambda: run_http_experiment(
                "flick-kernel",
                CONNECTIONS,
                mode="lb",
                cores=CORES,
                requests_per_client=requests // CONNECTIONS,
                slo_us=SLO_US,
                arrival=make_arrival("poisson", rate_rps=RATE_RPS),
                total_requests=requests,
                seed=seed,
            ))
            return _steady_entry(result, requests)

        return [(workload, call, lambda e, p: _request_checks(e))]
    if workload == "hadoop-stream":
        def call():
            result = _scoped(lambda: run_hadoop_experiment(
                HADOOP_CORES,
                data_kb_per_mapper=HADOOP_KB_PER_MAPPER,
                arrival=make_arrival("ramp", **dict(HADOOP_RAMP)),
                seed=seed,
            ))
            return _steady_entry(result, 0)

        return [(workload, call, _hadoop_checks)]
    if workload == "matrix-quick":
        # The matrix keeps its committed seed: its check is equality with
        # the committed quick baseline.
        baseline = json.loads(BASELINE.read_text())["scenarios"]
        ops = []
        for scenario in SCENARIOS:
            def check(entry, probes, name=scenario.name):
                if json.loads(canonical(entry)) != baseline.get(name):
                    return [f"{name} differs from {BASELINE.name}"]
                return []

            ops.append((
                scenario.name,
                lambda s=scenario: run_scenario(s, quick=True),
                check,
            ))
        return ops
    raise SystemExit(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _work(entry, probes):
    """``(work items, simulated KB)`` of one operation.

    A work item is a configured client request, or for a Hadoop run one
    mapper key/value record.  Simulated KB is the mapper output
    aggregated (the entry's ``ingress_bytes``; the check holds the two
    equal) for a Hadoop run, and the TCP payload
    delivered on every connection for a request run.
    """
    if probes.mappers:
        records = sum(len(_mapper_pairs(m)) for m in probes.mappers)
        streamed = sum(m.bytes_total for m, _a, _k in probes.mappers)
        return records, streamed / 1024.0
    delivered = sum(s.bytes_received for s, _a, _k in probes.sockets)
    return entry["requests"], delivered / 1024.0


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def run(workload, seed, mode):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import layers
    from tracer import Patches, Tracer, install

    probes = Probes(stop_at_first_run=mode == "setup")
    tracer = None
    patches = Patches()
    if mode == "traced":
        tracer = Tracer()
        patches = install(tracer, layers.hooks(), layers.INCLUSIVE)
    probes.install(patches)
    ops = operations(workload, seed)
    done = []
    try:
        for name, call, check in ops:
            probes.reset()
            t0 = time.perf_counter()
            try:
                entry, error = call(), None
            except Exception as exc:  # a crashed run is a failed operation
                entry, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            done.append((name, check, entry, error, t0, t1, probes.snapshot()))
    finally:
        # Checks run unpatched, so no span falls outside the timed regions.
        patches.remove()
    digest = hashlib.sha256()
    results = []
    for name, check, entry, error, t0, t1, seen in done:
        op = {"name": name, "timed_s": t1 - t0, "work": 0, "kb": 0.0,
              "build_s": 0.0, "report_s": 0.0,
              "admission": {"offered": 0, "admitted": 0, "shed": 0, "retried": 0}}
        if error is not None:
            op["problems"] = [error]
            results.append(op)
            continue
        text = canonical(entry)
        digest.update(name.encode() + b"\0" + text.encode() + b"\n")
        entry = json.loads(text)
        op["work"], op["kb"] = _work(entry, seen)
        if seen.run_entries:
            op["build_s"] = seen.run_entries[0] - t0
            op["report_s"] = t1 - seen.run_exits[-1]
        op["admission"] = _admission_counts(entry)
        op["problems"] = check(entry, seen)
        results.append(op)
    report = {
        "workload": workload,
        "mode": mode,
        "first_run_at": probes.first_run_at,
        "ops": results,
        "digest": digest.hexdigest(),
        "gc_s": probes.gc_s,
        "gc_collections": probes.gc_collections,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["trace"] = layers.ledger(tracer, results)
    return report


def _admission_counts(entry):
    """Offered/admitted/shed/retried of a steady or a matrix entry."""
    if "extra" in entry:
        x = entry["extra"]
        return {k: x.get(k, 0) for k in ("offered", "admitted", "shed", "retried")}
    admission = entry.get("admission", {})
    return {
        "offered": entry["offered"],
        "admitted": admission.get("admitted", entry["offered"]),
        "shed": admission.get("shed", 0),
        "retried": entry["retried"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"),
                        default="plain")
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.mode)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
