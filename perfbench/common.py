"""Shared plumbing of the repository benchmark: statistics, the report
every workload fills in, and the exact-count fingerprint store.

A workload returns one :class:`Report`.  End-to-end metrics are stored
under the names ``BENCHMARK.json`` declares (the same five on every
workload, so every run reports every gated metric); each also carries
the workload-specific name it stands for (``kv_ops_per_s``,
``check_decision_p99_ms``, ...) and its sample count, which the human
table prints.  Workload-specific metrics that no other workload has
(visibility lag, per-criterion monitor rates, failure shares) are
printed in the same table but not gated.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: the gated end-to-end metrics, in the order BENCHMARK.json lists them
END_TO_END = (
    ("ops_per_s", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 9

#: calibration: rounds per second of :func:`_reference_round` on the
#: host the bounds were set on (a 2-vCPU VM, CPython 3.11).  Only ratios
#: to it matter: it fixes the "reference machine" timings are scaled to.
REFERENCE_RATE = 4000.0
CALIBRATE_S = 1.0
CALIBRATE_SLICES = 5


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted values."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Process high-water resident set size so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_round() -> int:
    """Fixed interpreter work of the kinds the program does: small
    tuples, dict inserts and lookups, int arithmetic, str building."""
    table = {}
    for i in range(1000):
        table[i] = (i, str(i))
    total = 0
    for key, (a, b) in table.items():
        total += (a * 7) % 13 + len(b) + table[key][0]
    return total


def calibrate(seconds: float = CALIBRATE_S) -> float:
    """This process's interpreter speed right now, relative to the
    reference machine (1.0 = :data:`REFERENCE_RATE`).

    The hosts this runs on change speed by up to 1.6x within minutes
    (shared cores), which moves every timing of a run together; the
    end-to-end timings are scaled by the speed measured around each
    timed window, so runs taken in a slow and a fast spell agree."""
    rates = []
    for _ in range(CALIBRATE_SLICES):
        t0 = time.perf_counter()
        rounds = 0
        while time.perf_counter() - t0 < seconds / CALIBRATE_SLICES:
            _reference_round()
            rounds += 1
        rates.append(rounds / (time.perf_counter() - t0))
    # the median slice: a momentary stall must not set a run's scale
    return statistics.median(rates) / REFERENCE_RATE


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    #: the workload-specific name this value is known by (``kv_ops_per_s``, ...)
    alias: str = ""
    #: the value before scaling to the reference machine
    raw: Optional[float] = None


@dataclass
class Report:
    """Everything one workload run measured and checked."""

    workload: str
    seed: int
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    #: workload-specific end-to-end metrics outside the gated five
    extra: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: name -> passed?  A failed check voids the run
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: calibrations taken around the timed windows (see :func:`calibrate`)
    speeds: List[float] = field(default_factory=list)

    @property
    def speed(self) -> float:
        return statistics.median(self.speeds)

    def e2e(
        self, name: str, value: float, samples: int, alias: str, scale: str = ""
    ) -> None:
        """Record an end-to-end metric.  ``scale`` says how it follows
        machine speed: ``"time"`` (a CPU-bound duration, multiplied by the
        speed), ``"rate"`` (a CPU-bound throughput, divided by it) or
        ``""`` (not CPU-bound: memory, an offered load)."""
        unit = dict(END_TO_END)[name]
        factor = {"time": self.speed, "rate": 1.0 / self.speed, "": 1.0}[scale]
        self.end_to_end[name] = Metric(
            float(value) * factor, unit, samples, alias, float(value)
        )

    def add_extra(self, name: str, value: float, unit: str, samples: int) -> None:
        self.extra[name] = Metric(float(value), unit, samples)

    def layer(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.layers[name] = Metric(float(value), unit, samples)

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed) and self.checks.get(name, True)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def render(report: Report) -> str:
    """The human table printed above the result line."""
    lines = [f"workload {report.workload}  seed {report.seed}"]
    lines.append(f"  {'metric':<34} {'value':>14} {'unit':<12} samples  (name)")
    for name, m in list(report.end_to_end.items()) + list(report.extra.items()):
        alias = f"  ({m.alias})" if m.alias else ""
        raw = f"  raw {m.raw:.6g}" if m.raw is not None and m.raw != m.value else ""
        lines.append(
            f"  {name:<34} {m.value:>14.6g} {m.unit:<12} {m.samples:>7}{alias}{raw}"
        )
    if report.speeds:
        lines.append(
            f"  machine speed vs reference: {report.speed:.4f} (median of "
            f"{len(report.speeds)} calibrations; scaled metrics show their raw value)"
        )
    if report.layers:
        lines.append("  per-layer:")
        for name, m in sorted(report.layers.items()):
            lines.append(
                f"    {name:<42} {m.value:>14.6g} {m.unit:<12} {m.samples:>7}"
            )
    lines.append(
        f"  attempted {report.attempted}  failed {report.failed}  checks "
        + ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in report.checks.items())
    )
    lines.extend(f"  note: {note}" for note in report.notes)
    return "\n".join(lines)


def result_line(report: Report, metrics: Dict[str, Metric]) -> str:
    return json.dumps(
        {
            "correct": report.correct,
            "attempted": int(report.attempted),
            "failed": int(report.failed),
            "metrics": {
                name: {"value": m.value, "unit": m.unit}
                for name, m in metrics.items()
            },
        }
    )


# ----------------------------------------------------------------------
# Exact-count fingerprints
# ----------------------------------------------------------------------
def code_digest(*roots: pathlib.Path) -> str:
    """Hash of every Python file under ``roots`` — "the same code" (the
    program and the benchmark that counts its work)."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class CountStore:
    """Exact-repeating work counts, remembered per (code, workload, seed,
    phase) in a file of the checkout.  A run whose counts differ from an
    earlier run of the same key on the same code fails its
    ``counts_repeat`` check: these are the counts a later change may
    claim on, so they must not wobble."""

    def __init__(self, path: pathlib.Path, code: str) -> None:
        self.path = path
        self.code = code

    def _load(self) -> Dict[str, Any]:
        try:
            return json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}

    def compare(self, key: str, counts: Dict[str, int]) -> bool:
        """Record ``counts`` under ``key``; False iff they differ from an
        earlier record of the same key."""
        store = self._load()
        if store.get("code") != self.code:
            store = {"code": self.code, "counts": {}}
        previous = store["counts"].get(key)
        if previous is not None:
            return previous == counts
        store["counts"][key] = counts
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(store, sort_keys=True))
        os.replace(tmp, self.path)
        return True
