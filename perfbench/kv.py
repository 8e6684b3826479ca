"""kv-write-sat and kv-read-open: a live 3-node causal KV under load.

One process, one event loop: the :class:`LiveCluster` (unproxied,
binary codec, ``ccv-fig5``) and the load generator share it, sessions are
coroutines, and all load rides two pipelined :class:`ClientSession`
connections, to nodes 0 and 1 (one per CPU of a 2-CPU host).

- ``kv-write-sat``: closed loop, 90% puts with hot-key skew — every put
  multicasts a ``msg`` frame to both peers, so wire, transport,
  broadcast and apply do most of the work.  Saturation throughput.
- ``kv-read-open``: open loop at one fixed offered rate, well under read
  saturation, 10% puts; each request is timed from when it was *due*,
  so a stall is charged to every request queued behind it.

A low-rate probe measures visibility lag on both: a fresh value is put
through node 0 on a stream only the probe writes, and node 1 is polled
until the value shows.
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from common import SETUP_REPEATS, Report, calibrate, peak_rss_mb, percentile
from tracing import Tracer, install_replication, report_per_call

from repro.cli import load_history
from repro.criteria.streaming_monitor import replay_history
from repro.scenarios.spec import WorkloadSpec
from repro.scenarios.workloads import pick_stream
from repro.service import tap as tap_module
from repro.service import wire
from repro.service.cluster import ClientSession, LiveCluster
from repro.service.load import capture_history, converged_windows

N = 3
LOAD_STREAMS = 4
#: probe coroutines, each writing its own dedicated stream
PROBES = 3
STREAMS = LOAD_STREAMS + PROBES
K = 2
#: pipelining depth of each of the two load connections
WINDOW = 64
HOT_KEY_WEIGHT = 0.8
#: load runs this long before the timed window opens (connections,
#: batching and the allocator settle)
WARMUP_S = 1.0
#: value namespace per writer, far above any run's op count, so no value
#: is written twice (the streaming checker needs differentiated values)
VALUE_STRIDE = 10_000_000
PROBE_PAUSE_S = 0.01
PROBE_GIVE_UP_S = 5.0
#: observer tick: loop-lag probe and backlog / buffer sampling (traced)
TICK_S = 0.005
#: an open-loop run whose generator sent later than this at p99 is
#: invalid: the load generator, not the service, fell behind (a loop stall of
#: a few ms delays the generator too; a backlog grows past this)
LATE_LIMIT_MS = 50.0
#: and one that completed less than this share of what it offered
COMPLETED_FLOOR = 0.97
SETTLE_S = 10.0


@dataclass(frozen=True)
class Shape:
    write_ratio: float
    #: closed-loop session coroutines; 0 selects the open loop
    sessions: int = 0
    #: open-loop offered rate on the reference machine (see
    #: :func:`common.calibrate`); a run offers this times the machine's
    #: measured speed, so the service runs at the same utilisation in a
    #: slow spell as in a fast one
    offered_rate: float = 0.0


SHAPES = {
    "kv-write-sat": Shape(write_ratio=0.9, sessions=128),
    # well under read saturation (~13k op/s): at this rate the tail is
    # the request path's; the GC pauses of the growing recorder heap
    # (~1% of the time at 2500 op/s, so p99 flipped in and out of them)
    # stay beyond p99 here and set kv-write-sat's p99 instead
    "kv-read-open": Shape(write_ratio=0.1, offered_rate=1200.0),
}


def next_request(rng: random.Random, shape: Shape, value: int) -> Dict[str, Any]:
    """The next load request: stream by hot-key skew, put or get by the
    shape's write ratio (``value`` is the put's fresh value)."""
    x = pick_stream(rng, WorkloadSpec(hot_key_weight=HOT_KEY_WEIGHT), LOAD_STREAMS)
    if rng.random() < shape.write_ratio:
        return {"cmd": "put", "x": x, "v": value}
    return {"cmd": "get", "x": x}


class LoadStats:
    def __init__(self) -> None:
        self.issued = 0
        self.completed = 0
        self.rejected = 0
        self.errors = 0
        self.timeouts = 0
        #: latency (s) of every completed counted request; arrays are
        #: not tracked by the cyclic GC, so the load generator's bookkeeping
        #: does not lengthen the program's collections
        self.latencies = array("d")
        self.late = array("d")
        self.lags: List[float] = []
        self.probe_failures = 0
        self.inflight = 0
        self.inflight_peak = 0
        self.offered = 0

    @property
    def failed(self) -> int:
        return self.rejected + self.errors + self.timeouts + self.probe_failures


async def _start(seed: int) -> tuple:
    """Start a cluster on free loopback ports and open the two load
    connections."""
    base = 20000 + (os.getpid() * 37) % 30000
    for attempt in range(20):
        cluster = LiveCluster(
            N,
            base_port=base + 16 * attempt,
            algorithm="ccv-fig5",
            streams=STREAMS,
            k=K,
            seed=seed,
            proxied=False,
            codec=wire.CODEC_BINARY,
        )
        try:
            await cluster.start()
        except OSError:
            await cluster.close()
            continue
        conns = []
        for pid in (0, 1):
            conn = ClientSession(
                cluster.client_addr(pid), codec=wire.CODEC_BINARY, window=WINDOW
            )
            await conn.connect()
            conns.append(conn)
        return cluster, conns
    raise OSError("no free loopback port range for the cluster")


async def _stop(cluster: LiveCluster, conns: List[ClientSession]) -> None:
    for conn in conns:
        await conn.close()
    await cluster.close()


def _wire_totals(cluster: LiveCluster) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for node in cluster.nodes:
        for key, value in node.transport.wire_stats.items():
            totals[key] = totals.get(key, 0) + value
    return totals


async def _drive(
    shape: Shape,
    seed: int,
    seconds: float,
    cluster: LiveCluster,
    conns: List[ClientSession],
    tracer: Optional[Tracer],
    speed: float,
) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    stats = LoadStats()
    t_start = loop.time() + WARMUP_S
    t_end = t_start + seconds
    window: Dict[str, Any] = {"loop_lags": [], "backlog": 0, "pending": 0, "log": 0}

    async def one(conn: ClientSession, req: Dict[str, Any], due: float) -> None:
        counted = t_start <= due < t_end
        stats.issued += counted
        stats.inflight += 1
        stats.inflight_peak = max(stats.inflight_peak, stats.inflight)
        try:
            reply = await conn.call(req)
        except asyncio.TimeoutError:
            stats.timeouts += counted
            return
        except (ConnectionError, OSError):
            stats.errors += counted
            return
        finally:
            stats.inflight -= 1
        if not reply.get("ok"):
            stats.rejected += counted
        elif counted:
            stats.completed += 1
            stats.latencies.append(loop.time() - due)

    async def session(sidx: int) -> None:
        rng = random.Random((seed * 1_000_003 + sidx) * 4093)
        conn = conns[sidx % len(conns)]
        namespace = (sidx + 1) * VALUE_STRIDE
        i = 0
        while loop.time() < t_end:
            i += 1
            await one(conn, next_request(rng, shape, namespace + i), loop.time())

    async def generator() -> None:
        rng = random.Random(seed * 1_000_003 + 7)
        tasks: set = set()
        due = loop.time()
        i = 0
        while True:
            due += rng.expovariate(shape.offered_rate * speed)
            if due >= t_end:
                break
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if due >= t_start:
                stats.offered += 1
                stats.late.append(loop.time() - due)
            i += 1
            task = asyncio.ensure_future(
                one(conns[i % len(conns)], next_request(rng, shape, VALUE_STRIDE + i), due)
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        await asyncio.gather(*tasks)

    async def probe(j: int) -> None:
        rng = random.Random(seed * 1_000_003 + 1000 + j)
        x = LOAD_STREAMS + j
        namespace = (1000 + j) * VALUE_STRIDE
        i = 0
        while loop.time() < t_end:
            await asyncio.sleep(PROBE_PAUSE_S * (0.5 + rng.random()))
            i += 1
            value = namespace + i
            t0 = loop.time()
            put = asyncio.ensure_future(conns[0].call({"cmd": "put", "x": x, "v": value}))
            seen = False
            while not seen and loop.time() - t0 < PROBE_GIVE_UP_S:
                reply = await conns[1].call({"cmd": "get", "x": x})
                seen = value in (reply.get("value") or ())
            lag = loop.time() - t0
            ok = (await put).get("ok") and seen
            if t0 >= t_start:
                stats.issued += 1
                if ok:
                    stats.lags.append(lag)
                else:
                    stats.probe_failures += 1

    async def observer() -> None:
        # opens the window (tracer reset, counter snapshot), samples the
        # loop lag and queue depths inside it, and closes it
        await asyncio.sleep(max(0.0, t_start - loop.time()))
        if tracer is not None:
            tracer.reset()
        window["wire0"] = _wire_totals(cluster)
        broadcasts = [node.algorithm.broadcast for node in cluster.nodes]
        while tracer is not None and loop.time() < t_end:
            t0 = loop.time()
            await asyncio.sleep(TICK_S)
            window["loop_lags"].append(loop.time() - t0 - TICK_S)
            window["backlog"] = max(
                window["backlog"], *(n.transport.backlog() for n in cluster.nodes)
            )
            window["pending"] = max(
                window["pending"],
                *(b.pending_messages(n.my_pid) for b, n in zip(broadcasts, cluster.nodes)),
            )
            window["log"] = max(window["log"], *(max(b.log_sizes()) for b in broadcasts))
        await asyncio.sleep(max(0.0, t_end - loop.time()))
        window["wire1"] = _wire_totals(cluster)
        window["tap_depth"] = max(node.tap.max_depth for node in cluster.nodes)
        window["tap_spills"] = sum(node.tap.spills for node in cluster.nodes)
        if tracer is not None:
            window["spans"] = (
                dict(tracer.calls),
                dict(tracer.self_ns),
            )

    if shape.sessions:
        loads = [session(s) for s in range(shape.sessions)]
    else:
        loads = [generator()]
    await asyncio.gather(
        *loads, *(probe(j) for j in range(PROBES)), observer()
    )
    window["stats"] = stats
    return window


async def _check(cluster: LiveCluster, report: Report) -> None:
    addrs = {pid: cluster.client_addr(pid) for pid in range(N)}
    loop = asyncio.get_running_loop()
    deadline = loop.time() + SETTLE_S
    converged = await converged_windows(addrs, STREAMS)
    while not converged and loop.time() < deadline:
        await asyncio.sleep(0.1)
        converged = await converged_windows(addrs, STREAMS)
    report.check("replicas_converged", bool(converged))
    for node in cluster.nodes:
        node.tap.flush()
    report.check(
        "runtime_monitors_clean",
        all(node.monitor.ok and not node.monitor.violations for node in cluster.nodes),
    )
    report.check("tap_spills_zero", all(node.tap.spills == 0 for node in cluster.nodes))
    doc = await capture_history(addrs, STREAMS, K, criteria=("CCV",))
    history, adt, _ = load_history(doc)
    verdict = replay_history(history, adt, criteria=("CCV",))["CCV"]
    report.check("capture_ccv_conclusive_ok", verdict.ok is True)
    if verdict.ok is not True:
        report.notes.append(f"capture CCV verdict: {verdict.ok} ({verdict.reason})")


def _layers(report: Report, window: Dict[str, Any], seconds: float) -> None:
    stats: LoadStats = window["stats"]
    spans = window["spans"]
    self_ns = spans[1]

    def self_us(*names: str) -> float:
        return sum(self_ns.get(n, 0) for n in names) / 1e3

    def per_call(metric: str, calls_metric: str, *names: str) -> None:
        report_per_call(report, spans, metric, calls_metric, *names)

    done = max(1, stats.completed)
    w0, w1 = window["wire0"], window["wire1"]
    delta = {key: w1[key] - w0.get(key, 0) for key in w1}
    lags = window["loop_lags"] or [0.0]
    late = stats.late or [0.0]
    report.layer("load.late_p99_ms", percentile(late, 0.99) * 1e3, "ms", len(stats.late))
    report.layer("load.inflight_peak", stats.inflight_peak, "count")
    report.layer("loop.lag_p50_ms", percentile(lags, 0.50) * 1e3, "ms", len(lags))
    report.layer("loop.lag_p99_ms", percentile(lags, 0.99) * 1e3, "ms", len(lags))
    busy = sum(self_ns.values()) / 1e9
    report.layer("loop.unattributed_share", 1.0 - busy / seconds, "ratio")
    encode = ("wire.encode_body", "wire.encode_batch")
    decode = ("wire.decode", "wire.split_batch", "wire.decode_frames")
    per_call("wire.encode_us", "wire.frames_encoded", *encode)
    per_call("wire.decode_us", "wire.frames_decoded", *decode)
    report.layer("wire.busy_share", self_us(*encode, *decode) / 1e6 / seconds, "ratio")
    report.layer("wire.bytes_per_op", delta["bytes_out"] / done, "B/op", stats.completed)
    writes = max(1, delta["writes"])
    report.layer("transport.frames_per_write", delta["frames_out"] / writes, "frames", delta["writes"])
    report.layer("transport.writes_per_op", delta["writes"] / done, "writes/op", stats.completed)
    report.layer("transport.max_batch", w1["max_batch"], "frames")
    report.layer("transport.backlog_peak", window["backlog"], "frames", len(lags))
    per_call("broadcast.receive_us", "broadcast.receive_calls", "broadcast.receive")
    report.layer("broadcast.pending_peak", window["pending"], "msgs", len(lags))
    report.layer("broadcast.log_size_peak", window["log"], "msgs", len(lags))
    per_call("algorithm.invoke_us", "algorithm.invoke_calls", "algorithm.invoke")
    per_call("algorithm.apply_us", "algorithm.apply_calls", "algorithm.apply")
    per_call("tap.push_us", "tap.push_calls", "tap.push")
    per_call("tap.drain_us", "tap.drain_calls", "tap.drain")
    report.layer("tap.max_depth", window["tap_depth"], "events")
    report.layer("tap.spills", window["tap_spills"], "count")
    per_call("runtime_monitor.us_per_event", "runtime_monitor.events", "runtime_monitor.event")
    per_call("recorder.us_per_op", "recorder.ops", "recorder.record")


def install(tracer: Tracer) -> None:
    install_replication(tracer)
    for fn in ("encode_body", "encode_batch", "decode", "split_batch", "decode_frames"):
        tracer.patch(wire, fn, f"wire.{fn}")
    tracer.patch(tap_module.RingTap, "push", "tap.push")
    tracer.patch(tap_module.RingTap, "flush", "tap.drain")


async def _run(workload: str, seed: int, seconds: float, tracer: Optional[Tracer]) -> Report:
    """``seconds`` is the timed window on the reference machine: the
    window lasts ``seconds / speed`` here, so a run does the same amount
    of work (and the recorder holds as many ops) in a slow spell as in a
    fast one."""
    shape = SHAPES[workload]
    report = Report(workload, seed)
    speed = calibrate()
    report.speeds.append(speed)
    setups = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cluster, conns = await _start(seed)
        setups.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS - 1:
            await _stop(cluster, conns)
    try:
        seconds = seconds / speed
        window = await _drive(shape, seed, seconds, cluster, conns, tracer, speed)
        rss = peak_rss_mb()
        report.speeds.append(calibrate())
        for conn in conns:
            await conn.close()
        await _check(cluster, report)
    finally:
        await cluster.close()
    stats: LoadStats = window["stats"]
    latencies = stats.latencies or [0.0]
    p50, p99 = percentile(latencies, 0.50), percentile(latencies, 0.99)
    lags = stats.lags or [0.0]
    report.attempted = stats.issued
    report.failed = stats.failed
    report.check("ops_completed", stats.completed > 0 and len(stats.lags) > 0)
    report.e2e("ops_per_s", stats.completed / seconds, stats.completed, "kv_ops_per_s", "rate")
    report.e2e("latency_p50_ms", p50 * 1e3, len(stats.latencies), "kv_latency_p50_ms", "time")
    report.e2e("latency_p99_ms", p99 * 1e3, len(stats.latencies), "kv_latency_p99_ms", "time")
    report.e2e("peak_rss_mb", rss, 1, "peak_rss_mb")
    report.e2e("setup_s", statistics.median(setups), len(setups), "setup_s", "time")
    report.add_extra("visibility_lag_p50_ms", percentile(lags, 0.50) * 1e3, "ms", len(stats.lags))
    report.add_extra("visibility_lag_p99_ms", percentile(lags, 0.99) * 1e3, "ms", len(stats.lags))
    report.add_extra("failed_share", stats.failed / max(1, stats.issued), "ratio", stats.issued)
    report.notes.append(
        f"timed window {seconds:.2f} s here (the reference machine's {seconds * speed:.0f} s)"
    )
    if not shape.sessions:
        late_p99 = percentile(stats.late or [0.0], 0.99) * 1e3
        completed_share = stats.completed / max(1, stats.offered)
        report.add_extra("offered_ops_per_s", stats.offered / seconds, "op/s", stats.offered)
        report.add_extra("load.late_p99_ms", late_p99, "ms", len(stats.late))
        valid = late_p99 <= LATE_LIMIT_MS and completed_share >= COMPLETED_FLOOR
        report.check("open_loop_valid", valid)
        if not valid:
            report.notes.append(
                f"INVALID run: generator late p99 {late_p99:.2f} ms (limit "
                f"{LATE_LIMIT_MS}), completed {completed_share:.3f} of offered "
                f"(floor {COMPLETED_FLOOR}): the load generator fell behind"
            )
    if tracer is not None:
        _layers(report, window, seconds)
    return report


def run(
    workload: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    store: Any,
    short: bool = False,
) -> Report:
    """Live timing is not exactly repeatable, so ``store`` records
    nothing; ``short`` changes nothing (the run length is the knob)."""
    if tracer is not None:
        install(tracer)
    try:
        return asyncio.run(_run(workload, seed, seconds, tracer))
    finally:
        if tracer is not None:
            tracer.restore()
