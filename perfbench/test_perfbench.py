"""Tests of the benchmark's own tracer and ledger.

They run in-process at small sizes (a few seconds in all):

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workload  # noqa: E402
from tracer import Patches, Tracer, install  # noqa: E402


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_nested_self_time_is_duration_minus_children():
    clock = FakeClock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0)
    t = Tracer(clock)
    leaf = t.wrap("net", lambda: None)

    def mid_body():
        leaf()  # 1.0 -> 3.0
        leaf()  # 4.0 -> 4.5

    outer = t.wrap("sim", mid_body)
    outer()  # 0.0 -> 10.0
    assert t.spans[("net", "sim")] == [2, 2.5, 2.5]
    assert t.spans[("sim", tracer_mod.ROOT)] == [1, 10.0, 7.5]
    assert t.attributed_s == 10.0
    by_layer = t.self_by_layer()
    assert by_layer["sim"] == 7.5 and by_layer["net"] == 2.5
    assert sum(by_layer.values()) == t.attributed_s


def test_generator_resumptions_are_spans_and_values_pass_through():
    clock = FakeClock(0.0, 1.0, 5.0, 7.0, 10.0, 10.5)
    t = Tracer(clock)

    def gen():
        got = yield "a"
        yield got * 2
        return "done"

    traced = t.wrap_generator("runtime", gen)()
    assert next(traced) == "a"  # span 0.0 -> 1.0
    assert traced.send(21) == 42  # span 5.0 -> 7.0
    with pytest.raises(StopIteration) as stop:
        next(traced)  # span 10.0 -> 10.5
    assert stop.value.value == "done"
    assert t.spans[("runtime", tracer_mod.ROOT)] == [3, 3.5, 3.5]


def test_hook_pattern_that_matches_nothing_is_refused():
    before = _snapshot()
    with pytest.raises(LookupError):
        install(Tracer(), {"repro.nowhere:Nothing.at_all": lambda *a: None})
    assert _snapshot() == before


def _snapshot():
    """Identity of every function-valued attribute the tracer may patch."""
    out = {}
    for mod in tracer_mod.repro_modules():
        for name, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType):
                out[(mod.__name__, name)] = obj
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, raw in vars(obj).items():
                    if isinstance(raw, (types.FunctionType, staticmethod, classmethod)):
                        out[(mod.__name__, name, attr)] = raw
    return out


def _small_http(seed=5):
    from repro.bench.testbeds import run_http_experiment
    from repro.workloads.arrivals import make_arrival

    result = workload._scoped(lambda: run_http_experiment(
        "flick-kernel", 16, cores=4, arrival=make_arrival("poisson", rate_rps=40_000.0),
        total_requests=256, seed=seed,
    ))
    return workload.canonical(workload._steady_entry(result, 256))


def test_wrappers_are_fully_removed_after_a_traced_run():
    before = _snapshot()
    plain = _small_http()
    t = Tracer()
    patches = install(t, layers.hooks(), layers.INCLUSIVE)
    try:
        assert _snapshot() != before
        traced = _small_http()
    finally:
        patches.remove()
    assert _snapshot() == before
    assert t.counts["sim.events"] > 0
    assert traced == plain
    assert _small_http() == plain


#: Per-layer metrics that must be non-zero on each workload: the layers
#: that workload was chosen to stress.
EXPECTED_NONZERO = {
    "http-steady": (
        "sim.self_s", "sim.events", "sim.events_per_req", "sim.us_per_event",
        "net.self_s", "net.sends", "net.bytes", "grammar.render_per_parse",
        "lang.self_s", "lang.calls", "runtime.self_s",
        "runtime.scheduler.self_s", "runtime.task.self_s",
        "runtime.task_steps",
    ),
    "memcached-steady": (
        "grammar.self_s", "grammar.records", "grammar.us_per_record",
        "grammar.referenced_fields_per_req", "lang.self_s", "lang.calls",
        "host.gc_s", "host.gc_collections",
    ),
    "hadoop-stream": (
        "runtime.channel.self_s", "runtime.channel_ops",
        "core.stable_hash.self_s", "core.stable_hash.calls",
        "core.stable_hash.repeat_ratio", "apps.self_s",
    ),
    "matrix-quick": (
        "lang.compile_s", "workloads.self_s", "workloads.offers",
        "workloads.retry_ratio", "workloads.shed_ratio", "cluster.self_s",
        "cluster.routed_conns", "bench.build_s", "bench.report_s",
    ),
}

#: A small slice of the matrix that still reaches retries, shedding, the
#: cluster tier and a Hadoop entry.
MATRIX_SLICE = ("http-retry-storm-shed", "http-fleet-failover", "hadoop-ramp-mappers")


@pytest.fixture
def small_workloads(monkeypatch):
    from repro.bench import scenarios

    monkeypatch.setattr(workload, "REQUESTS", dict.fromkeys(workload.REQUESTS, 512))
    monkeypatch.setattr(workload, "HADOOP_KB_PER_MAPPER", 8)
    monkeypatch.setattr(
        scenarios, "SCENARIOS",
        tuple(s for s in scenarios.SCENARIOS if s.name in MATRIX_SLICE),
    )


@pytest.mark.parametrize("name", sorted(EXPECTED_NONZERO))
def test_every_layer_metric_is_reported(name, small_workloads):
    plain = workload.run(name, 3, "plain")
    traced = workload.run(name, 3, "traced")
    for report in (plain, traced):
        assert [op["problems"] for op in report["ops"]] == [[]] * len(report["ops"])
    assert plain["digest"] == traced["digest"]
    ledger = bench_run.layer_ledger(plain, traced)
    assert [n for n, _unit in layers.METRICS] == list(ledger)
    missing = [m for m in EXPECTED_NONZERO[name] if not ledger[m] > 0]
    assert missing == []
    self_total = sum(ledger[f"{layer}.self_s"] for layer in tracer_mod.LAYERS)
    assert self_total + ledger["host.unattributed_s"] == pytest.approx(
        ledger["host.traced_s"], rel=1e-9
    )


def test_patches_restore_in_reverse_order():
    class Box:
        value = "original"

    patches = Patches()
    patches.set(Box, "value", "first")
    patches.set(Box, "value", "second")
    cleaned = []
    patches.on_remove(lambda: cleaned.append(True))
    patches.remove()
    assert Box.value == "original" and cleaned == [True]
