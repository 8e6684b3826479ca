"""Spans around calls into the program's layers, recorded from outside.

The program under test is not edited: a :class:`Tracer` replaces a
function (a module attribute, a class attribute, or an instance
attribute) with a wrapper that times each call with
``perf_counter_ns`` and charges the time to a named span.  Spans nest
through a stack, so a span's *self* time is its duration minus the time
its child spans cover — ``broadcast.receive`` excludes the
``algorithm.apply`` it calls, ``simulator.run`` excludes every
handler it dispatches.

Only synchronous functions are wrapped (codec calls, delivery handlers,
``invoke``, tap pushes), so on one event loop the stack discipline
holds.  Spans are kept as per-name aggregates (calls, total, self) in
memory rather than one record per call: a kv run makes millions of
calls, and keeping each would distort both memory and time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple


class Tracer:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        # child-time accumulators of the open spans; the bottom entry
        # collects top-level span time
        self._child: List[int] = [0]
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call charged to span ``name``."""
        calls, total, own = self.calls, self.total_ns, self.self_ns
        child = self._child
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            child.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                inner = child.pop()
                child[-1] += duration
                calls[name] += 1
                total[name] += duration
                own[name] += duration - inner

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by its traced wrapper (undone by
        :meth:`restore`)."""
        had = attr in vars(owner)
        original = vars(owner)[attr] if had else getattr(owner, attr)
        self._undo.append((owner, attr, original, had))
        setattr(owner, attr, self.wrap(name, original))

    def patch_hook(
        self, owner: Any, attr: str, replacement: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``owner.attr`` by ``replacement(original)`` — used to
        wrap the handlers a registration call receives."""
        had = attr in vars(owner)
        original = vars(owner)[attr] if had else getattr(owner, attr)
        self._undo.append((owner, attr, original, had))
        setattr(owner, attr, replacement(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, had = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading ----------------------------------------------------------
    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e6

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay); call
        between spans, e.g. at the start of a timed window."""
        self.calls.clear()
        self.total_ns.clear()
        self.self_ns.clear()
        self._child[:] = [0]


def report_per_call(
    report: Any,
    spans: Tuple[Dict[str, int], Dict[str, int]],
    metric: str,
    calls_metric: str,
    *names: str,
    passes: int = 1,
) -> None:
    """Report the mean self time (us) of spans ``names`` per call of the
    first, and that call count per pass, from a ``(calls, self_ns)``
    snapshot."""
    calls, self_ns = spans
    count = calls.get(names[0], 0)
    total_us = sum(self_ns.get(n, 0) for n in names) / 1e3
    report.layer(metric, total_us / count if count else 0.0, "us", count // passes)
    report.layer(calls_metric, count // passes, "count")


#: RuntimeMonitor hooks the broadcast layers call
MONITOR_HOOKS = (
    "on_deliver",
    "on_fifo_deliver",
    "on_causal_deliver",
    "on_gc",
    "on_pruned_gap",
    "on_resync_stranded",
    "on_pull_stranded",
)


def install_replication(tracer: Tracer) -> None:
    """Spans shared by the live and the simulated replication planes.

    Must run before the algorithms are built: the handlers are wrapped
    as they pass through ``Transport.attach`` (``broadcast.receive``,
    the broadcast layer's receive path) and ``BroadcastService.endpoint``
    (``algorithm.apply``, the algorithm's delivery handler)."""
    from repro.runtime.broadcast import BroadcastService
    from repro.runtime.monitors import RuntimeMonitor
    from repro.runtime.network import Network
    from repro.runtime.recorder import HistoryRecorder
    from repro.scenarios.matrix import ALGORITHMS
    from repro.service.transport import AsyncioTransport

    def attach_hook(original: Callable) -> Callable:
        def attach(self: Any, pid: int, handler: Callable) -> None:
            original(self, pid, tracer.wrap("broadcast.receive", handler))

        return attach

    def endpoint_hook(original: Callable) -> Callable:
        def endpoint(self: Any, pid: int, handler: Callable) -> Any:
            return original(self, pid, tracer.wrap("algorithm.apply", handler))

        return endpoint

    tracer.patch_hook(Network, "attach", attach_hook)
    tracer.patch_hook(AsyncioTransport, "attach", attach_hook)
    tracer.patch_hook(BroadcastService, "endpoint", endpoint_hook)
    for cls in {entry.cls for entry in ALGORITHMS.values()}:
        if "invoke" in vars(cls):
            tracer.patch(cls, "invoke", "algorithm.invoke")
    for hook in MONITOR_HOOKS:
        tracer.patch(RuntimeMonitor, hook, "runtime_monitor.event")
    tracer.patch(HistoryRecorder, "record", "recorder.record")
