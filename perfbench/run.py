#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kv-write-sat --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/layers.json`` for
why each exists and which layers it loads):

- ``kv-write-sat``   live 3-node causal KV, closed loop, 90% puts
- ``kv-read-open``   the same cluster, open loop at a fixed rate, 10% puts
- ``check-search``   exact WCC/CC/CCv decisions over a fixed corpus
- ``explore-scale``  the 10k-op n=8 simulation plus the streaming monitor

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice, untraced (in a fresh process) and
then traced, and reports the per-layer metrics of the traced run
together with the tracing overhead (``overhead.*``: traced minus
untraced end-to-end values).

Every run prints a table (metric, value, unit, sample count, and the
workload-specific name of each end-to-end metric), then, as the last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness check makes ``correct`` false.

CPU-bound end-to-end values are scaled to a reference machine speed
measured in the same run (``common.calibrate``); the table shows each
scaled value's raw measurement beside it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Dict, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("kv-write-sat", "kv-read-open", "check-search", "explore-scale")


def _per_layer_names() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _runner(workload: str):
    if workload.startswith("kv-"):
        import kv

        return kv.run
    if workload == "check-search":
        import search

        return search.run
    import explore

    return explore.run


def _child(args: argparse.Namespace, workload: str, trace: int) -> str:
    """Run one workload in a fresh process (so its peak RSS is its own)
    and return what it printed."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace)]
        + (["--short"] if args.short else []),
        check=True, stdout=subprocess.PIPE, text=True,
    )
    return proc.stdout


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in turn; fails if any run's checks fail."""
    correct = True
    for workload in WORKLOADS:
        out = _child(args, workload, args.trace)
        print(out, end="")
        correct &= json.loads(out.strip().splitlines()[-1])["correct"]
    return 0 if correct else 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true",
        help="smaller inputs, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from common import CountStore, END_TO_END, code_digest, render, result_line
    from tracing import Tracer

    if args.workload == "all":
        return _run_all(args)
    run = _runner(args.workload)
    store = CountStore(ROOT / ".perfbench" / "counts.json", code_digest(SRC, HERE))
    if not args.trace:
        report = run(args.workload, args.seed, args.seconds, None, store, args.short)
        print(render(report))
        print(result_line(report, report.end_to_end))
        return 0
    # the untraced twin runs in a fresh process, so that both peak RSS
    # figures are high-water marks of one workload run each
    twin = _child(args, args.workload, 0)
    print(twin, end="")
    untraced = json.loads(twin.strip().splitlines()[-1])
    report = run(args.workload, args.seed, args.seconds, Tracer(), store, args.short)
    for name, unit in END_TO_END:
        before = untraced["metrics"][name]["value"]
        report.layer(f"overhead.{name}", report.end_to_end[name].value - before, unit)
    report.attempted += untraced["attempted"]
    report.failed += untraced["failed"]
    report.check("untraced_run_correct", untraced["correct"])
    wanted = _per_layer_names()
    for name in sorted(set(wanted) - set(report.layers)):
        # a layer this workload never calls did no work
        report.layer(name, 0.0, wanted[name], 0)
    print(render(report))
    print(result_line(report, {n: report.layers[n] for n in wanted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
