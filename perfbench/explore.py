"""explore-scale: the 10k-op n=8 simulation, then the streaming monitor.

``scale-n8-hotkey`` (10,432 ops over 8 replicas, hot-key skew) is
simulated under ``ccv-fig5`` (Fig. 5) and ``cc-fig4`` (Fig. 4); every
:class:`OpRecord` is collected through the recorder's ``subscriber``
hook and then fed, in the same order, to a :class:`StreamingMonitor`
checking WCC+CCV (``ccv-fig5``) or WCC+CC (``cc-fig4``).  No sockets,
no search: the runtime simulator, network and broadcast layers and the
streaming monitor do the work.  The run's ``--seed`` is the cell seed.

A pass runs both cells; passes repeat while the run's time allows, and
at least one runs (a pass takes longer than a short run).
"""

from __future__ import annotations

import hashlib
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from common import SETUP_REPEATS, Report, calibrate, peak_rss_mb, percentile
from tracing import Tracer, install_replication, report_per_call

from repro.criteria.streaming_monitor import monitor_for_adt
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator
from repro.scenarios.matrix import run_scenario_cell
from repro.scenarios.registry import get_scenario
from repro.scenarios.scenario import Scenario

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SCENARIO = "scale-n8-hotkey"
#: (algorithm, monitored criteria, the cell's own criterion, label)
CELLS = (
    ("ccv-fig5", ("WCC", "CCV"), "CCV", "ccv"),
    ("cc-fig4", ("WCC", "CC"), "CC", "cc"),
)
#: the cell whose monitor read-feed times are the latency metrics: the
#: CCV monitor, which live captures are classified with (the CC
#: monitor's seed-dependent recheck cost shows in the pipeline rate)
LATENCY_CELL = 0
#: ops per process of a short run (the full tier has 1,304)
SHORT_OPS = 60
MONITOR_STATS = ("hb_edges", "patterns_checked", "cc_rechecks", "pending_peak")


def _build() -> Any:
    spec = get_scenario(SCENARIO)
    adt = Scenario(spec).adt()
    monitors = [monitor_for_adt(adt, spec.n, criteria=c) for _, c, _, _ in CELLS]
    return spec, adt, monitors


#: one set-up as a user pays it: a fresh interpreter importing the
#: simulator and the monitor and building the scenario
SETUP_SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:3]
import explore
explore._build()
"""


def _setup_s() -> float:
    """Median wall time of :data:`SETUP_REPEATS` fresh set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(HERE), str(SRC)], check=True
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _converged(algorithm: Any, streams: int) -> bool:
    states = [
        tuple(algorithm.window(pid, x) for x in range(streams))
        for pid in range(algorithm.n)
    ]
    return all(state == states[0] for state in states[1:])


def _cell(
    cell: tuple,
    seed: int,
    spec: Any,
    adt: Any,
    measure_state: bool,
    fast_ops: int = 0,
) -> Dict[str, Any]:
    """Simulate one cell, feed its records to a fresh monitor, and
    return what the report needs (the simulation itself is dropped, so
    a second pass does not hold the first one's memory)."""
    algorithm, criteria, own, label = cell
    records: List[Any] = []
    t0 = time.perf_counter()
    result = run_scenario_cell(
        SCENARIO, algorithm, seed, fast_ops=fast_ops, subscriber=records.append
    )
    sim_s = time.perf_counter() - t0
    monitor = monitor_for_adt(adt, spec.n, criteria=criteria)
    feed = monitor.feed
    clock = time.perf_counter_ns
    feed_ns: List[int] = []
    for rec in records:
        t = clock()
        feed(rec.pid, rec.invocation, rec.output)
        feed_ns.append(clock() - t)
    t = clock()
    verdicts = monitor.finalize()
    finalize_ns = clock() - t
    stats = monitor.stats()
    net = result.network_stats
    trail = hashlib.sha256(
        repr([(r.pid, r.invocation, r.output) for r in records]).encode()
    )
    counts = {
        f"{label}.records_sha256": trail.hexdigest()[:16],
        f"{label}.simulator.events": result.sim.events_executed,
        f"{label}.network.sent": net.sent,
        f"{label}.network.delivered": net.delivered,
        f"{label}.network.payload_bytes": net.payload_bytes,
        **{f"{label}.monitor.{name}": stats[name] for name in MONITOR_STATS},
    }
    return {
        "ops": result.ops,
        "records": len(records),
        "sim_s": sim_s,
        "feed_ns": feed_ns,
        # reads are where the monitor checks bad patterns and closes a
        # verdict; writes are so much cheaper that a percentile over
        # both sits on the boundary of the two and jumps with the mix
        "read_feed_ns": [
            ns for ns, rec in zip(feed_ns, records) if rec.invocation.method == "r"
        ],
        "finalize_ns": finalize_ns,
        "own_ok": verdicts[own].ok is True,
        "converged": _converged(result.algorithm, spec.streams)
        if algorithm == "ccv-fig5"
        else None,
        "counts": counts,
        "state_bytes": _state_bytes(monitor) if measure_state else 0,
    }


def _state_bytes(monitor: Any) -> int:
    """Bytes held by a fed monitor: ``sys.getsizeof`` summed over every
    object reachable from its attributes (each object once).  The
    monitor's structures only grow while it is fed, so this is the
    state high-water without per-allocation tracing, which would slow
    the 10k-op CC feed by more than ten times."""
    seen = set()
    stack = [vars(monitor)]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
    return total


def install(tracer: Tracer) -> None:
    install_replication(tracer)
    tracer.patch(Simulator, "run", "simulator.run")

    def init_hook(original: Any) -> Any:
        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            original(self, *args, **kwargs)
            self.measure_bytes = True

        return __init__

    tracer.patch_hook(Network, "__init__", init_hook)


def run(
    workload: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    store: Any,
    short: bool = False,
) -> Report:
    """Simulate and monitor both cells in passes for ``seconds``
    (:data:`SHORT_OPS` ops per process when ``short``)."""
    fast_ops = SHORT_OPS if short else 0
    report = Report(workload, seed)
    setup_s = _setup_s()
    spec, adt, _ = _build()
    if tracer is not None:
        install(tracer)
        tracer.reset()
    passes: List[List[Dict[str, Any]]] = []
    elapsed = 0.0
    report.speeds.append(calibrate())
    try:
        while not passes or elapsed + elapsed / len(passes) <= seconds:
            cells = [
                _cell(cell, seed, spec, adt, tracer is not None, fast_ops) for cell in CELLS
            ]
            elapsed += sum(c["sim_s"] + (sum(c["feed_ns"]) + c["finalize_ns"]) / 1e9 for c in cells)
            passes.append(cells)
            report.speeds.append(calibrate())
        rss = peak_rss_mb()
        spans = (dict(tracer.calls), dict(tracer.self_ns)) if tracer is not None else None
    finally:
        if tracer is not None:
            tracer.restore()

    counts_per_pass = []
    rates, p50s, p99s, sim_rates = [], [], [], []
    monitor_rates: Dict[str, List[float]] = {label: [] for *_, label in CELLS}
    for cells in passes:
        ops = sum(c["records"] for c in cells)
        wall = sum(c["sim_s"] + (sum(c["feed_ns"]) + c["finalize_ns"]) / 1e9 for c in cells)
        feeds = cells[LATENCY_CELL]["read_feed_ns"]
        rates.append(ops / wall)
        p50s.append(percentile(feeds, 0.50) / 1e6)
        p99s.append(percentile(feeds, 0.99) / 1e6)
        sim_rates.append(sum(c["ops"] for c in cells) / sum(c["sim_s"] for c in cells))
        counts: Dict[str, Any] = {}
        for cell, (algorithm, _, own, label) in zip(cells, CELLS):
            report.check(f"{algorithm}_{own}_ok", cell["own_ok"])
            if cell["converged"] is not None:
                report.check(f"{algorithm}_converged", cell["converged"])
            monitor_s = (sum(cell["feed_ns"]) + cell["finalize_ns"]) / 1e9
            monitor_rates[label].append(cell["records"] / monitor_s)
            counts.update(cell["counts"])
        counts_per_pass.append(counts)
    phase = "traced" if tracer is not None else "plain"
    report.check("counts_repeat_across_passes", all(c == counts_per_pass[0] for c in counts_per_pass))
    report.check("counts_repeat_across_runs", store.compare(f"{workload}:{seed}:{phase}:{short}", counts_per_pass[0]))

    total_ops = sum(c["records"] for cells in passes for c in cells)
    feeds_total = sum(len(cells[LATENCY_CELL]["read_feed_ns"]) for cells in passes)
    report.attempted = total_ops
    report.failed = 0
    report.e2e("ops_per_s", statistics.median(rates), total_ops, "explore_ops_per_s", "rate")
    report.e2e("latency_p50_ms", statistics.median(p50s), feeds_total, "monitor_ccv_read_feed_p50_ms", "time")
    report.e2e("latency_p99_ms", statistics.median(p99s), feeds_total, "monitor_ccv_read_feed_p99_ms", "time")
    report.e2e("peak_rss_mb", rss, 1, "peak_rss_mb")
    report.e2e("setup_s", setup_s, SETUP_REPEATS, "setup_s", "time")
    report.add_extra("sim_ops_per_s", statistics.median(sim_rates), "op/s", total_ops)
    for label, values in monitor_rates.items():
        report.add_extra(f"monitor_{label}_ops_per_s", statistics.median(values), "op/s", total_ops // 2)
    report.notes.append(f"{len(passes)} pass(es) of {len(CELLS)} cells")
    if tracer is not None:
        _layers(report, passes, spans, counts_per_pass[0])
    return report


def _layers(report: Report, passes: List[List[Dict[str, Any]]], spans: Any, counts: Dict[str, int]) -> None:
    self_ns = spans[1]
    n = len(passes)
    first = passes[0]
    ops = sum(c["ops"] for c in first)

    def per_call(metric: str, calls_metric: str, span: str) -> None:
        report_per_call(report, spans, metric, calls_metric, span, passes=n)

    report.layer("simulator.self_ms", self_ns.get("simulator.run", 0) / 1e6 / n, "ms")
    report.layer("simulator.events", sum(counts[f"{l}.simulator.events"] for *_, l in CELLS), "count")
    sent = sum(counts[f"{l}.network.sent"] for *_, l in CELLS)
    report.layer("network.sent", sent, "count")
    report.layer("network.delivered", sum(counts[f"{l}.network.delivered"] for *_, l in CELLS), "count")
    report.layer("network.msgs_per_op", sent / ops, "msgs/op", ops)
    payload = sum(counts[f"{l}.network.payload_bytes"] for *_, l in CELLS)
    report.layer("network.payload_bytes_per_op", payload / ops, "B/op", ops)
    per_call("broadcast.receive_us", "broadcast.receive_calls", "broadcast.receive")
    per_call("algorithm.invoke_us", "algorithm.invoke_calls", "algorithm.invoke")
    per_call("algorithm.apply_us", "algorithm.apply_calls", "algorithm.apply")
    per_call("runtime_monitor.us_per_event", "runtime_monitor.events", "runtime_monitor.event")
    per_call("recorder.us_per_op", "recorder.ops", "recorder.record")
    finalize = 0
    for cell, (*_, label) in zip(first, CELLS):
        feeds = cell["feed_ns"]
        report.layer(f"streaming_monitor.{label}.us_per_op", sum(feeds) / 1e3 / len(feeds), "us", len(feeds))
        for name in MONITOR_STATS:
            report.layer(f"streaming_monitor.{label}.{name}", counts[f"{label}.monitor.{name}"], "count")
        finalize += cell["finalize_ns"]
    report.layer("streaming_monitor.finalize_ms", finalize / 1e6, "ms", len(CELLS))
    report.layer(
        "streaming_monitor.state_mb",
        max(c["state_bytes"] for c in first) / 2**20,
        "MB",
        len(CELLS),
    )
