"""The per-layer ledger: which calls are counted, and the metrics.

Counters hang off named functions (``"module:qualname"`` patterns, as
:func:`fnmatch.fnmatch` reads them).  :func:`tracer.install` refuses a
pattern that matches nothing, so a renamed entry point fails the traced
run instead of silently reading 0.
"""

from __future__ import annotations

from typing import Dict, List

from tracer import LAYERS, Hook, Tracer

#: Distinct ``stable_hash`` inputs remembered for the repeat ratio.  Past
#: this many, unseen inputs are no longer remembered, so the ratio
#: becomes a lower bound; no workload reaches it today.
MAX_HASH_INPUTS = 1_000_000


def _counter(name: str) -> Hook:
    def hook(tracer, args, kwargs, result):
        tracer.count(name)

    return hook


def _record_counter(*names: str) -> Hook:
    def hook(tracer, args, kwargs, result):
        if result is not None:
            for name in names:
                tracer.count(name)

    return hook


def _net_send(tracer, args, kwargs, result):
    tracer.count("net.sends")
    tracer.count("net.bytes", len(args[1]))


def _stable_hash_hook() -> Hook:
    seen = set()

    def hook(tracer, args, kwargs, result):
        tracer.count("core.stable_hash.calls")
        try:
            key = args[0]
            if key in seen:
                tracer.count("core.stable_hash.repeats")
            elif len(seen) < MAX_HASH_INPUTS:
                seen.add(key)
        except TypeError:  # unhashable input: never counted as a repeat
            pass

    return hook


def hooks() -> Dict[str, Hook]:
    """Fresh hooks for one traced process."""
    return {
        "repro.sim.engine:Engine.schedule": _counter("sim.events"),
        "repro.sim.engine:Engine.at": _counter("sim.events"),
        "repro.sim.engine:Engine._post": _counter("sim.events"),
        "repro.net.tcp:TcpSocket.send": _net_send,
        "repro.grammar.engine:IncrementalUnitParser.poll": _record_counter(
            "grammar.records"
        ),
        "repro.grammar.protocols.http:_HttpParserBase.poll": _record_counter(
            "grammar.records", "grammar.http_parses"
        ),
        "repro.grammar.protocols.http:Http*Parser._render": _counter(
            "grammar.http_renders"
        ),
        "repro.grammar.model:referenced_fields": _counter(
            "grammar.referenced_fields"
        ),
        "repro.lang.*:*RuleHandler.__call__": _counter("lang.calls"),
        "repro.lang.*:*FoldTHandler.combine": _counter("lang.calls"),
        "repro.runtime.task:*Task.step": _counter("runtime.task_steps"),
        "repro.runtime.channel:TaskChannel.push": _counter("runtime.channel_ops"),
        "repro.runtime.channel:TaskChannel.pop": _counter("runtime.channel_ops"),
        "repro.core.ids:stable_hash": _stable_hash_hook(),
        "repro.workloads.arrivals:OpenLoopClients._offer": _counter(
            "workloads.offers"
        ),
        "repro.cluster.routing:*.choose_shard": _counter("cluster.routed_conns"),
    }


#: Functions whose whole duration is summed: program compilation
#: (parse, check, compile) and handler code generation.
INCLUSIVE = {
    "repro.lang.compiler:compile_source": "lang.compile_s",
    "repro.lang.codegen:CompiledExec.__init__": "lang.compile_s",
    "repro.lang.codegen:CompiledExec.foldt_fns": "lang.compile_s",
}

#: Every per-layer metric, with its unit, in report order.
METRICS = (
    ("sim.self_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_req", "count"),
    ("sim.us_per_event", "us"),
    ("net.self_s", "s"),
    ("net.sends", "count"),
    ("net.bytes", "B"),
    ("grammar.self_s", "s"),
    ("grammar.records", "count"),
    ("grammar.us_per_record", "us"),
    ("grammar.referenced_fields_per_req", "count"),
    ("grammar.render_per_parse", "ratio"),
    ("lang.self_s", "s"),
    ("lang.calls", "count"),
    ("lang.compile_s", "s"),
    ("runtime.self_s", "s"),
    ("runtime.scheduler.self_s", "s"),
    ("runtime.task.self_s", "s"),
    ("runtime.task_steps", "count"),
    ("runtime.channel.self_s", "s"),
    ("runtime.channel_ops", "count"),
    ("core.self_s", "s"),
    ("core.stable_hash.self_s", "s"),
    ("core.stable_hash.calls", "count"),
    ("core.stable_hash.repeat_ratio", "ratio"),
    ("workloads.self_s", "s"),
    ("workloads.offers", "count"),
    ("workloads.retry_ratio", "ratio"),
    ("workloads.shed_ratio", "ratio"),
    ("cluster.self_s", "s"),
    ("cluster.routed_conns", "count"),
    ("apps.self_s", "s"),
    ("bench.self_s", "s"),
    ("bench.build_s", "s"),
    ("bench.report_s", "s"),
    ("host.gc_s", "s"),
    ("host.gc_collections", "count"),
    ("host.traced_s", "s"),
    ("host.unattributed_s", "s"),
    ("host.trace_overhead", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ledger(tracer: Tracer, ops: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced process whose operations are ``ops``.

    Only the metrics the traced process can see are filled in here; the
    ``bench.*``, ``host.gc_*`` and ``host.trace_overhead`` lines come from
    the plain process of the same run (see ``run.py``).
    """
    counts = tracer.counts
    by_layer = tracer.self_by_layer()
    by_component = tracer.self_by_component()
    work = sum(op["work"] for op in ops)
    traced_s = sum(op["timed_s"] for op in ops)
    m: Dict[str, float] = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
    for component in (
        "runtime.scheduler",
        "runtime.task",
        "runtime.channel",
        "core.stable_hash",
    ):
        m[f"{component}.self_s"] = by_component.get(component, 0.0)
    events = counts.get("sim.events", 0)
    records = counts.get("grammar.records", 0)
    hashes = counts.get("core.stable_hash.calls", 0)
    m.update({
        "sim.events": events,
        "sim.events_per_req": _ratio(events, work),
        "sim.us_per_event": _ratio(m["sim.self_s"] * 1e6, events),
        "net.sends": counts.get("net.sends", 0),
        "net.bytes": counts.get("net.bytes", 0),
        "grammar.records": records,
        "grammar.us_per_record": _ratio(m["grammar.self_s"] * 1e6, records),
        "grammar.referenced_fields_per_req": _ratio(
            counts.get("grammar.referenced_fields", 0), work
        ),
        "grammar.render_per_parse": _ratio(
            counts.get("grammar.http_renders", 0),
            counts.get("grammar.http_parses", 0),
        ),
        "lang.calls": counts.get("lang.calls", 0),
        "lang.compile_s": tracer.inclusive.get("lang.compile_s", 0.0),
        "runtime.task_steps": counts.get("runtime.task_steps", 0),
        "runtime.channel_ops": counts.get("runtime.channel_ops", 0),
        "core.stable_hash.calls": hashes,
        "core.stable_hash.repeat_ratio": _ratio(
            counts.get("core.stable_hash.repeats", 0), hashes
        ),
        "workloads.offers": counts.get("workloads.offers", 0),
        "workloads.retry_ratio": _ratio(
            sum(op["admission"]["retried"] for op in ops),
            sum(op["admission"]["admitted"] for op in ops),
        ),
        "workloads.shed_ratio": _ratio(
            sum(op["admission"]["shed"] for op in ops),
            sum(op["admission"]["offered"] for op in ops),
        ),
        "cluster.routed_conns": counts.get("cluster.routed_conns", 0),
        "host.traced_s": traced_s,
        "host.unattributed_s": traced_s - tracer.attributed_s,
    })
    return m
