"""Host-time benchmark of the simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload memcached-steady --seed 1 --seconds 20 --trace 0

Each repetition runs the workload in a fresh interpreter
(``perfbench/workload.py``), checks its simulated output, and reports
host time.  ``--trace 0`` repeats plain processes for ``--seconds`` and
prints the end-to-end metrics as medians over them; ``--trace 1`` runs
one plain and one traced process and prints the per-layer ledger.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--workload all`` runs every workload in turn and prints each one's
metrics.  To compare two saved ``--trace 1`` outputs layer by layer, use
``perfbench/compare.py``.

Every metric is host time or host memory of the simulator itself.  The
simulated results (kreq/s, p99) are outputs to check, not metrics: a
speed-only change must leave the printed sha256 of the simulated entries
unchanged.  The model has no real-hardware reference here, so no
accuracy error is claimed.

Workloads, and the layers each one stresses and bypasses:

* ``memcached-steady`` -- binary GETK through ``memcached_proxy``,
  open-loop Poisson at 40k rps (about 40% of the 8-core proxy), 12288
  requests over the 10k-key space, so 19% of them reuse a key.  The codec-heavy
  workload (generic ``grammar`` engine); its sample logs grow with run
  length, which ``peak_rss_mb`` shows.  Bypasses the HTTP codec and
  ``cluster``.
* ``http-steady`` -- ``http_lb`` in lb mode, open-loop Poisson at 40k
  rps, 8192 requests.  The engine and scheduler workload (``sim``,
  ``runtime``, ``net``) with the hand-written HTTP codec and its
  re-render.  Bypasses the generic grammar engine, task channels and
  ``cluster``.
* ``hadoop-stream`` -- ``hadoop_agg``: 8 ramp-started mappers stream
  96 KB each into foldt aggregation.  Bulk task channels,
  ``core.stable_hash`` and ``apps``; ``sim`` and ``net`` stay small
  ("engine bypassed").  Set-up includes mapper-input generation.
* ``matrix-quick`` -- all 21 pinned scenarios at ``--quick`` size,
  serially in one process, each equal to the committed
  ``benchmarks/baseline_scenarios.json``.  Many short runs, so per-run
  set-up (compile, codegen, testbed assembly) counts; the only workload
  that reaches ``cluster``, the fault plane, shedding and the closed-loop
  populations.  Its memcached keys never repeat.

The steady workloads pass ``--seed`` to the testbeds' ``seed=``;
``matrix-quick`` keeps the committed seed because its check is equality.
The ``baselines`` package (apache/nginx/moxi cost models) runs only in
the figure sweeps, so no workload measures it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workload.py"
sys.path.insert(0, str(HERE))

from layers import METRICS as LAYER_METRICS  # noqa: E402
from workload import BASELINE, SRC, WORKLOADS  # noqa: E402

#: ``(name, unit)`` of every end-to-end metric, all host-time figures.
END_TO_END = (
    ("sim_req_per_s", "req/s"),
    ("sim_kb_per_s", "KB/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Set-up time is sampled in at least this many fresh interpreters.
SETUP_SAMPLES = 7
#: Processes still running this many seconds after a workload's run
#: started are killed and counted as failed, so a run ends within three
#: minutes.
RUN_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one workload process; return its report plus host timings."""
    started = time.monotonic()
    timeout = deadline - started
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", workload,
         "--seed", str(seed), "--mode", mode],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(0.1, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload} {mode} process exceeded {timeout:.0f} s")
    wall_s = time.monotonic() - started
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} {mode} process exited {proc.returncode}: "
            + err.strip()[-2000:]
        )
    report = json.loads(lines[-1])
    report["wall_s"] = wall_s
    report["setup_s"] = (
        report["first_run_at"] - started
        if report["first_run_at"] is not None else None
    )
    return report


def failed_ops(report: dict) -> int:
    return sum(1 for op in report["ops"] if op["problems"])


def rates(report: dict):
    timed = sum(op["timed_s"] for op in report["ops"])
    work = sum(op["work"] for op in report["ops"])
    kb = sum(op["kb"] for op in report["ops"])
    return work / timed, kb / timed


def run_plain(workload: str, seed: int, seconds: float, log) -> dict:
    """Repeat plain processes for ``seconds``; medians of the metrics."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reports, setups, problems = [], [], []
    attempted = failed = 0
    ops_per_process = 1

    def remaining():
        return start + seconds - time.monotonic()

    def setup_cost():
        """Expected host seconds of one set-up-only process."""
        return max(setups) if setups else 1.0

    while True:
        durations = [r["wall_s"] for r in reports]
        per_rep = statistics.median(durations) if durations else 0.0
        # Keep time for the set-up samples the next process will not give;
        # a run may end a tenth late rather than drop a long process.
        reserve = max(0, SETUP_SAMPLES - len(setups) - 1) * setup_cost()
        if reports and per_rep + reserve > remaining() + seconds / 10:
            break
        try:
            report = spawn(workload, seed, "plain", deadline)
        except ChildFailed as exc:
            problems.append(str(exc))
            attempted += ops_per_process
            failed += ops_per_process
            break
        ops_per_process = len(report["ops"])
        attempted += ops_per_process
        failed += failed_ops(report)
        reports.append(report)
        if report["setup_s"] is not None:
            setups.append(report["setup_s"])
        log(f"  process {len(reports)}: {report['wall_s']:.2f} s")
    # Spare time buys more set-up samples, up to three times the minimum.
    while len(setups) < SETUP_SAMPLES or (
        reports and remaining() > setup_cost() and len(setups) < 3 * SETUP_SAMPLES
    ):
        try:
            report = spawn(workload, seed, "setup", deadline)
        except ChildFailed as exc:
            problems.append(str(exc))
            break
        if report["setup_s"] is None:
            problems.append(f"{workload} never reached Engine.run")
            break
        setups.append(report["setup_s"])
    log(f"  {len(reports)} processes, {len(setups)} set-up samples")
    digests = {r["digest"] for r in reports}
    if len(digests) > 1:
        problems.append(f"same-seed processes disagree: {sorted(digests)}")
    for report in reports:
        for op in report["ops"]:
            problems.extend(f"{op['name']}: {p}" for p in op["problems"])
    if not reports or not setups:
        return {"correct": False, "attempted": max(attempted, 1),
                "failed": max(failed, 1), "problems": problems}
    req, kb = zip(*(rates(r) for r in reports))
    metrics = {
        "sim_req_per_s": statistics.median(req),
        "sim_kb_per_s": statistics.median(kb),
        "wall_s": statistics.median(r["wall_s"] for r in reports),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
    }
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END},
        "digest": reports[0]["digest"],
        "problems": problems,
    }


def layer_ledger(plain: dict, traced: dict) -> dict:
    """Per-layer metrics, in report order, of a plain and a traced process
    of the same inputs.  Build, report and GC times are stamps that need
    no spans, so they come from the plain process, undistorted."""
    ledger = dict(traced["trace"])
    plain_timed = sum(op["timed_s"] for op in plain["ops"])
    ledger.update({
        "bench.build_s": sum(op["build_s"] for op in plain["ops"]),
        "bench.report_s": sum(op["report_s"] for op in plain["ops"]),
        "host.gc_s": plain["gc_s"],
        "host.gc_collections": plain["gc_collections"],
        "host.trace_overhead": ledger["host.traced_s"] / plain_timed,
    })
    return {name: ledger[name] for name, _unit in LAYER_METRICS}


def run_traced(workload: str, seed: int, log) -> dict:
    """One plain and one traced process of the same inputs."""
    problems = []
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        plain = spawn(workload, seed, "plain", deadline)
        log(f"  plain process: {plain['wall_s']:.2f} s")
        traced = spawn(workload, seed, "traced", deadline)
        log(f"  traced process: {traced['wall_s']:.2f} s")
    except ChildFailed as exc:
        return {"correct": False, "attempted": 1, "failed": 1,
                "problems": [str(exc)]}
    if plain["digest"] != traced["digest"]:
        problems.append(
            f"plain digest {plain['digest']} != traced {traced['digest']}"
        )
    for report in (plain, traced):
        for op in report["ops"]:
            problems.extend(f"{op['name']}: {p}" for p in op["problems"])
    ledger = layer_ledger(plain, traced)
    failed = failed_ops(plain) + failed_ops(traced)
    return {
        "correct": not problems and failed == 0,
        "attempted": len(plain["ops"]) + len(traced["ops"]),
        "failed": failed,
        "metrics": {name: {"value": ledger[name], "unit": unit}
                    for name, unit in LAYER_METRICS},
        "digest": plain["digest"],
        "problems": problems,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, log):
    log(f"{workload} (seed {seed}, {'traced' if trace else 'plain'})")
    if trace:
        result = run_traced(workload, seed, log)
    else:
        result = run_plain(workload, seed, seconds, log)
    for problem in result["problems"]:
        log(f"  CHECK FAILED: {problem}")
    if "digest" in result:
        log(f"  simulated-output sha256 {result['digest']}")
    for name, metric in result.get("metrics", {}).items():
        log(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator."
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "repro" / "__init__.py", BASELINE)
               if not p.is_file()]
    if missing:
        print(f"run.py: not a checkout of the simulator; missing "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2

    def log(line):
        print(line, flush=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        w: run_workload(w, args.seed, args.seconds, bool(args.trace), log)
        for w in workloads
    }
    if len(results) == 1:
        (result,) = results.values()
        metrics = result.get("metrics", {})
    else:
        metrics = {f"{w}/{name}": m for w, r in results.items()
                   for name, m in r.get("metrics", {}).items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    if not metrics:
        return 1  # nothing measured: no result line
    # A failed check is reported in the result, which the run did produce.
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
