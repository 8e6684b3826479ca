"""check-search: exact WCC / CC / CCv decisions over a fixed corpus.

Single-threaded exponential search with no I/O, so ``causal_search``,
``engine``, ``orders`` and ``dependencies`` do nearly all the work.

The corpus is fixed (generated from :data:`CORPUS_SEED`) so that every
verdict is known in advance: ``expected_verdicts.json`` holds the
verdicts recorded at the commit that introduced this benchmark, and the
litmus gallery's entries must equal its verified classification.  The
run's ``--seed`` fixes the order the decisions are made in.  A pass
decides the whole corpus; passes repeat while the run's time allows, so
the work counters of every pass must agree exactly.

Regenerate the expected verdicts (only when the corpus itself changes)::

    PYTHONPATH=src python3 perfbench/search.py --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import statistics
import sys
import time
import zlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from common import SETUP_REPEATS, Report, calibrate, peak_rss_mb, percentile
from tracing import Tracer

from repro.adts import WindowStream
from repro.core import History, Operation
from repro.core.operations import BOTTOM, Invocation
from repro.criteria import CertificateError, causal_search, dependencies, verify_certificate
from repro.criteria.causal_search import SearchBudgetExceeded, search_causal_order
from repro.criteria.engine import LinearizationProblem
from repro.litmus import all_litmus
from repro.litmus.extra import extra_litmus
from repro.litmus.generators import (
    random_memory_history,
    random_queue_history,
    recorded_window_history,
)
from repro.util.orders import LazyOrderEnumerator

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED = HERE / "expected_verdicts.json"

CORPUS_SEED = 2016
MODES = ("WCC", "CC", "CCV")
MAX_NODES = 200_000
#: a short run decides every this-many-th history of the corpus
SHORT_STRIDE = 8

#: window-stream shapes: (name, processes, ops/process, update
#: probability, histories).  The ``benchmarks/bench_search_scaling.py``
#: sweep, four times over: ``sat-*`` are recorded (satisfiable, timed)
#: histories, the rest adversarial random ones.
WINDOW_SHAPES: Tuple[Tuple[str, int, int, float, int], ...] = (
    ("2x4-d50", 2, 4, 0.50, 24),
    ("2x4-d75", 2, 4, 0.75, 24),
    ("2x5-d50", 2, 5, 0.50, 24),
    ("3x4-d50", 3, 4, 0.50, 24),
    ("2x6-d35", 2, 6, 0.35, 24),
    ("2x6-d50", 2, 6, 0.50, 24),
    ("3x5-d40", 3, 5, 0.40, 24),
    ("2x8-d35", 2, 8, 0.35, 16),
    ("3x6-d35", 3, 6, 0.35, 16),
    ("4x5-d30", 4, 5, 0.30, 16),
    ("3x8-d25", 3, 8, 0.25, 12),
    ("4x6-d25", 4, 6, 0.25, 12),
    ("sat-2x6-d50", 2, 6, 0.50, 24),
    ("sat-3x4-d50", 3, 4, 0.50, 24),
    ("sat-3x5-d40", 3, 5, 0.40, 24),
    ("sat-3x6-d40", 3, 6, 0.40, 16),
    ("sat-4x5-d35", 4, 5, 0.35, 16),
)

#: FIFO-queue and memory shapes: (name, processes, ops/process, histories)
QUEUE_SHAPES = (("queue-2x3", 2, 3, 40), ("queue-3x3", 3, 3, 40))
MEMORY_SHAPES = (("memory-2x4", 2, 4, 40), ("memory-3x4", 3, 4, 40))


def random_window_history(
    rng: random.Random,
    processes: int,
    ops_per_process: int,
    update_prob: float,
    k: int = 2,
    values: Tuple[int, ...] = (1, 2, 3),
    plausible: float = 0.8,
) -> Tuple[History, WindowStream]:
    """A random W_k history with a set update density — the generator of
    ``benchmarks/bench_search_scaling.py``, kept here so the corpus does
    not change when that script does."""
    adt = WindowStream(k)
    writes: List[Invocation] = []
    plan: List[List[Any]] = []
    for _p in range(processes):
        row_plan: List[Any] = []
        for _i in range(ops_per_process):
            if rng.random() < update_prob:
                invocation = Invocation("w", (rng.choice(values),))
                writes.append(invocation)
                row_plan.append(invocation)
            else:
                row_plan.append("r")
        plan.append(row_plan)
    rows: List[List[Operation]] = []
    for row_plan in plan:
        row: List[Operation] = []
        for kind in row_plan:
            if kind == "r":
                if rng.random() < plausible:
                    chosen = [w for w in writes if rng.random() < 0.7]
                    rng.shuffle(chosen)
                    state = adt.initial_state()
                    for invocation in chosen:
                        state = adt.transition(state, invocation)
                    row.append(Operation(Invocation("r"), state))
                else:
                    window = tuple(rng.choice((0,) + values) for _ in range(k))
                    row.append(Operation(Invocation("r"), window))
            else:
                row.append(Operation(kind, BOTTOM))
        rows.append(row)
    return History.from_processes(rows), adt


def _rng(name: str) -> random.Random:
    # crc32, not hash(): str hashing is salted per process
    return random.Random(CORPUS_SEED * 1_000_003 + zlib.crc32(name.encode()))


def build_corpus() -> List[Tuple[str, History, Any]]:
    """Every (id, history, adt) of the corpus, in a fixed order."""
    corpus: List[Tuple[str, History, Any]] = []
    for name, processes, ops, density, count in WINDOW_SHAPES:
        rng = _rng(name)
        for i in range(count):
            if name.startswith("sat-"):
                history, adt = recorded_window_history(rng, processes, ops, density)
            else:
                history, adt = random_window_history(rng, processes, ops, density)
            corpus.append((f"{name}#{i}", history, adt))
    for name, processes, ops, count in QUEUE_SHAPES:
        rng = _rng(name)
        for i in range(count):
            history, adt = random_queue_history(rng, processes, ops)
            corpus.append((f"{name}#{i}", history, adt))
    for name, processes, ops, count in MEMORY_SHAPES:
        rng = _rng(name)
        for i in range(count):
            history, adt = random_memory_history(rng, processes, ops)
            corpus.append((f"{name}#{i}", history, adt))
    for litmus in list(all_litmus()) + list(extra_litmus()):
        corpus.append((f"litmus-{litmus.key}", litmus.history, litmus.adt))
    return corpus


def corpus_digest(corpus: Sequence[Tuple[str, History, Any]]) -> str:
    h = hashlib.sha256()
    for key, history, adt in corpus:
        h.update(f"{key}|{type(adt).__name__}|{history!r}|{list(history.events)!r}\n".encode())
    return h.hexdigest()[:16]


def litmus_expected() -> Dict[str, Dict[str, bool]]:
    """The gallery's verified classification, per corpus id (the
    criteria it classifies; 3i leaves WCC open)."""
    return {
        f"litmus-{litmus.key}": {
            m: litmus.expected[m] for m in MODES if m in litmus.expected
        }
        for litmus in list(all_litmus()) + list(extra_litmus())
    }


def gallery_disagreements(verdicts: Dict[str, Dict[str, Optional[bool]]]) -> List[str]:
    """Corpus ids whose verdicts contradict the verified classification."""
    return [
        key
        for key, expected in litmus_expected().items()
        if any(verdicts[key][m] != v for m, v in expected.items())
    ]


def decide(history: History, adt: Any, mode: str) -> Tuple[Optional[bool], Any, Any]:
    """(verdict or None if the budget ran out, certificate, stats)."""
    try:
        certificate, stats = search_causal_order(history, adt, mode, max_nodes=MAX_NODES)
    except SearchBudgetExceeded:
        return None, None, None
    return certificate is not None, certificate, stats


def record() -> int:
    """Decide the whole corpus and write ``expected_verdicts.json``."""
    corpus = build_corpus()
    verdicts: Dict[str, Dict[str, Optional[bool]]] = {}
    for key, history, adt in corpus:
        verdicts[key] = {mode: decide(history, adt, mode)[0] for mode in MODES}
    wrong = gallery_disagreements(verdicts)
    if wrong:
        print(f"verdicts contradict the litmus gallery: {wrong}", file=sys.stderr)
        return 1
    doc = {
        "corpus_seed": CORPUS_SEED,
        "corpus_digest": corpus_digest(corpus),
        "max_nodes": MAX_NODES,
        "verdicts": verdicts,
    }
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    undecided = sorted(k for k, v in verdicts.items() if None in v.values())
    print(f"{len(corpus)} histories recorded; undecided (excluded): {undecided}")
    return 0


def timed_corpus() -> Tuple[List[Tuple[str, History, Any]], Dict[str, Any], List[str]]:
    """The corpus minus histories the search could not decide within
    its budget at the recording commit (each would cost seconds and
    count as a failed operation), the expected verdicts, and the
    excluded ids."""
    corpus = build_corpus()
    expected = json.loads(EXPECTED.read_text())
    if expected["corpus_digest"] != corpus_digest(corpus):
        raise RuntimeError("corpus differs from the one the verdicts were recorded on")
    verdicts = expected["verdicts"]
    excluded = [k for k, v in verdicts.items() if None in v.values()]
    kept = [entry for entry in corpus if entry[0] not in excluded]
    return kept, verdicts, excluded


def decision_order(corpus: Sequence[Tuple[str, History, Any]], seed: int) -> List[Tuple[Any, str]]:
    """Every (history, criterion) decision, in the order ``seed`` fixes."""
    decisions = [(entry, mode) for entry in corpus for mode in MODES]
    random.Random(seed).shuffle(decisions)
    return decisions


# ----------------------------------------------------------------------
# Tracing: spans around the search's layers
# ----------------------------------------------------------------------
class _Yields:
    """Work the spans cannot count: orders yielded, edges returned."""

    orders = 0
    edges = 0


def install(tracer: Tracer, yields: _Yields) -> None:
    tracer.patch(LinearizationProblem, "solve_positions", "engine.solve")
    tracer.patch(causal_search, "permute_relation", "orders.permute")
    tracer.patch(causal_search.CausalSearch, "_replay_state", "replay.state")

    def iter_hook(original: Any) -> Any:
        def timed_iter(self: Any) -> Iterator[List[int]]:
            it = original(self)
            step = tracer.wrap("orders.next", it.__next__)
            while True:
                try:
                    order = step()
                except StopIteration:
                    return
                yields.orders += 1
                yield order

        return timed_iter

    tracer.patch_hook(LazyOrderEnumerator, "__iter__", iter_hook)

    def edges_hook(original: Any) -> Any:
        traced = tracer.wrap("dependencies", original)

        def mandatory_edges(*args: Any) -> Any:
            result = traced(*args)
            yields.edges += len(result)
            return result

        return mandatory_edges

    tracer.patch_hook(dependencies, "mandatory_edges", edges_hook)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
COUNTERS = (
    "families_explored",
    "event_checks",
    "lin_nodes",
    "total_orders_tried",
    "memo_hits",
    "propagate_steps",
    "orders_pruned",
    "conflict_cuts",
)


def run(
    workload: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    store: Any,
    short: bool = False,
) -> Report:
    """Decide the corpus (every :data:`SHORT_STRIDE`-th history when
    ``short``) in passes for ``seconds``."""
    report = Report(workload, seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        corpus, verdicts, excluded = timed_corpus()
        setups.append(time.perf_counter() - t0)
    report.check("expected_verdicts_match_gallery", not gallery_disagreements(verdicts))
    if short:
        corpus = corpus[::SHORT_STRIDE]
    decisions = decision_order(corpus, seed)
    searches = {mode: search_causal_order for mode in MODES}
    yields = _Yields()
    if tracer is not None:
        install(tracer, yields)
        searches = {m: tracer.wrap(f"search.{m}", search_causal_order) for m in MODES}
        tracer.reset()

    times: List[float] = []
    pass_counts: List[Dict[str, int]] = []
    witness: List[int] = []
    inconclusive = mismatches = bad_certificates = 0
    elapsed = 0.0
    report.speeds.append(calibrate())
    try:
        while not pass_counts or elapsed + elapsed / len(pass_counts) <= seconds:
            counts = dict.fromkeys(COUNTERS, 0)
            certificates = []
            pass_times = []
            for (key, history, adt), mode in decisions:
                t0 = time.perf_counter()
                try:
                    certificate, stats = searches[mode](
                        history, adt, mode, max_nodes=MAX_NODES
                    )
                except SearchBudgetExceeded:
                    pass_times.append(time.perf_counter() - t0)
                    inconclusive += 1
                    continue
                pass_times.append(time.perf_counter() - t0)
                if (certificate is not None) != verdicts[key][mode]:
                    mismatches += 1
                if certificate is not None:
                    certificates.append((history, adt, certificate))
                    if mode == "CCV" and stats.orders_to_witness is not None:
                        witness.append(stats.orders_to_witness)
                for name in COUNTERS:
                    counts[name] += getattr(stats, name)
            elapsed += sum(pass_times)
            report.speeds.append(calibrate())
            times.extend(pass_times)
            pass_counts.append(counts)
            for history, adt, certificate in certificates:
                try:
                    verify_certificate(history, adt, certificate)
                except CertificateError as exc:
                    bad_certificates += 1
                    report.notes.append(f"certificate rejected: {exc}")
        rss = peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.restore()

    report.attempted = len(times)
    report.failed = inconclusive
    report.check("verdicts_match_expected", mismatches == 0)
    report.check("certificates_verify", bad_certificates == 0)
    report.check("counts_repeat_across_passes", all(c == pass_counts[0] for c in pass_counts))
    report.check("counts_repeat_across_runs", store.compare(f"{workload}:{seed}:{short}", pass_counts[0]))
    report.notes.append(
        f"{len(corpus)} histories x {len(MODES)} criteria per pass, {len(pass_counts)} "
        f"pass(es); {len(excluded)} undecidable histories excluded: {', '.join(excluded)}"
    )
    report.e2e("ops_per_s", len(times) / sum(times), len(times), "check_decisions_per_s", "rate")
    report.e2e("latency_p50_ms", percentile(times, 0.50) * 1e3, len(times), "check_decision_p50_ms", "time")
    report.e2e("latency_p99_ms", percentile(times, 0.99) * 1e3, len(times), "check_decision_p99_ms", "time")
    report.e2e("peak_rss_mb", rss, 1, "peak_rss_mb")
    report.e2e("setup_s", statistics.median(setups), len(setups), "setup_s", "time")
    report.add_extra("check_inconclusive_share", inconclusive / max(1, len(times)), "ratio", len(times))
    if tracer is not None:
        _layers(report, tracer, pass_counts, witness, yields, len(pass_counts))
    return report


def _layers(
    report: Report,
    tracer: Tracer,
    pass_counts: List[Dict[str, int]],
    witness: List[int],
    yields: _Yields,
    passes: int,
) -> None:
    # per-pass figures: every pass does identical work
    for mode in MODES:
        report.layer(
            f"search.{mode}.self_ms",
            tracer.self_ms(f"search.{mode}") / passes,
            "ms",
            tracer.count(f"search.{mode}") // passes,
        )
    counts = pass_counts[0]
    for name in COUNTERS:
        report.layer(f"search.{name}", counts[name], "count")
    lookups = counts["memo_hits"] + counts["event_checks"]
    report.layer("search.memo_hit_rate", counts["memo_hits"] / lookups if lookups else 0.0, "ratio", lookups)
    report.layer("search.memo_lookups", lookups, "count")
    report.layer(
        "search.orders_to_witness_median",
        statistics.median(witness) if witness else 0.0,
        "rank",
        len(witness),
    )
    report.layer("engine.self_ms", tracer.self_ms("engine.solve") / passes, "ms")
    report.layer("engine.calls", tracer.count("engine.solve") // passes, "count")
    report.layer("orders.self_ms", tracer.self_ms("orders.next", "orders.permute") / passes, "ms")
    report.layer("orders.enumerated", yields.orders // passes, "count")
    report.layer("dependencies.self_ms", tracer.self_ms("dependencies") / passes, "ms")
    report.layer("dependencies.edges", yields.edges // passes, "count")
    report.layer("replay.self_ms", tracer.self_ms("replay.state") / passes, "ms")
    report.layer("replay.calls", tracer.count("replay.state") // passes, "count")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(record())
