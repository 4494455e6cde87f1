"""Spans around each layer's public entry points, and the layer metrics.

:func:`install` replaces the entry points each layer is entered
through — at the place its caller looks them up — with wrappers that
record a span ``[name, start, end, parent, n, tag]``: ``n`` is the work
the call did (windows, samples, beats), ``tag`` one extra attribute
(the kernel's quality level, a flush's level-group count).  Spans stay
in memory until the run ends.  Work inside fleet pool workers is only
visible at the ``FleetRunner.run`` boundary.

:func:`layer_metrics` turns the spans of one traced run, plus the
counters the workload took at the same boundaries, into the per-layer
metrics.  A layer's self time is its span minus its direct children.
"""

from __future__ import annotations

import functools
import threading

from common import LEVELS, now, percentile

# Span names -> layer.  ``finalize.*`` spans are result assembly: their
# self time excludes the flush/kernel/fleet children they drive.
KERNEL, METRICS = "kernel", "metrics"
FLUSH, FEED = "hub.flush", "session.feed"
FINALIZE = ("finalize.hub_all", "finalize.hub_subject", "finalize.cohort")
FLEET_RUN, FLEET_PLAN = "fleet.run", "fleet.plan"
QRS, PREPROCESS = "ingest.qrs", "ingest.preprocess"
ENCODE = ("wire.encode_frame", "wire.emission_to_frame", "wire.result_to_dict")
DECODE = "wire.decode_frame"


class Tracer:
    """In-memory span recorder; parents are tracked per thread."""

    def __init__(self):
        self.records: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording one span per call; ``measure`` gives (n, tag)."""
        records = self.records

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else None, 0, None]
            records.append(record)
            stack.append(record)
            record[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = now()
                stack.pop()
            if measure is not None:
                record[4], record[5] = measure(args, result)
            return result

        return traced

    def export(self) -> list[tuple]:
        """Spans as plain tuples with parent indices (-1 for roots)."""
        index = {id(record): i for i, record in enumerate(self.records)}
        return [
            (name, start, end, -1 if parent is None else index[id(parent)],
             n, tag)
            for name, start, end, parent, n, tag in self.records
        ]


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (call once, right after import)."""
    import repro.engine.engine as engine_module
    import repro.fleet.runner as runner_module
    import repro.lomb.welch as welch_module
    import repro.service.server as server_module
    from repro.ecg.qrs import StreamingQrsDetector
    from repro.engine.config import EngineConfig
    from repro.engine.engine import Engine
    from repro.engine.hub import StreamHub
    from repro.fleet.runner import FleetRunner
    from repro.hrv.preprocessing import StreamingPreprocessor

    by_pruning = {EngineConfig.for_mode(m).pruning: m for m in LEVELS[1:]}

    def kernel(args, result):
        pruning = getattr(args[0].backend, "pruning", None)
        level = "exact" if pruning is None else by_pruning.get(pruning, "?")
        return len(args[3]), level

    def results_windows(args, result):
        return sum(r.welch.n_windows for r in result.values()), None

    wrap = tracer.wrap
    for module in (engine_module, runner_module):
        module.analyze_spans_quality = wrap(
            KERNEL, module.analyze_spans_quality, kernel)
    welch_module.window_metrics_batch = wrap(
        METRICS, welch_module.window_metrics_batch,
        lambda args, result: (len(result), None))
    runner_module.plan_shards = wrap(
        FLEET_PLAN, runner_module.plan_shards,
        lambda args, result: (len(result), None))
    FleetRunner.run = wrap(
        FLEET_RUN, FleetRunner.run,
        lambda args, result: (sum(r.n_windows for r in result), None))
    Engine.analyze_cohort = wrap(
        FINALIZE[2], Engine.analyze_cohort,
        lambda args, result: (sum(r.welch.n_windows for r in result), None))
    StreamHub.feed = wrap(
        FEED, StreamHub.feed,
        lambda args, result: (
            result, args[0].session(args[1]).buffered_samples))
    StreamHub.flush = wrap(
        FLUSH, StreamHub.flush,
        lambda args, result: (
            sum(map(len, result.values())), len(args[0].last_flush_levels)))
    StreamHub.finalize = wrap(
        FINALIZE[1], StreamHub.finalize,
        lambda args, result: (result.welch.n_windows, None))
    StreamHub.finalize_all = wrap(FINALIZE[0], StreamHub.finalize_all,
                                  results_windows)
    StreamingQrsDetector.push = wrap(
        QRS, StreamingQrsDetector.push,
        lambda args, result: (len(args[1]), len(result)))
    StreamingPreprocessor.push = wrap(
        PREPROCESS, StreamingPreprocessor.push,
        lambda args, result: (len(result[1]), int(result[2].sum())))
    for name in ("encode_frame", "decode_frame", "emission_to_frame",
                 "result_to_dict"):
        setattr(server_module, name,
                wrap(f"wire.{name}", getattr(server_module, name)))


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total * scale / count if count else 0.0


def layer_metrics(spans, t0: float, t1: float, counters: dict) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` of one traced run.

    Only spans that start inside the timed phase ``[t0, t1]`` count.
    Layers a workload never enters report 0.  ``trace.coverage`` is the
    time inside outermost spans over the workload's busy time: the timed
    wall in closed loops, the processing time of the ward's ticks, and
    the gateway process's CPU time (its event loop is otherwise idle).
    """
    children: dict[int, float] = {}
    for name, start, end, parent, n, tag in spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (end - start)
    totals: dict[str, list] = {}
    kernel_levels: dict[str, list] = {level: [0.0, 0] for level in LEVELS}
    flush_groups = feed_buffered = beats = corrected = 0
    covered = 0.0
    for i, (name, start, end, parent, n, tag) in enumerate(spans):
        if not t0 <= start <= t1:
            continue
        own = end - start - children.get(i, 0.0)
        entry = totals.setdefault(name, [0.0, 0, 0])  # self s, calls, work
        entry[0] += own
        entry[1] += 1
        entry[2] += n
        if parent < 0:
            covered += end - start
        if name == KERNEL and tag in kernel_levels:
            kernel_levels[tag][0] += own
            kernel_levels[tag][1] += n
        elif name == FLUSH:
            flush_groups += tag
        elif name == FEED:
            feed_buffered = max(feed_buffered, tag)
        elif name == PREPROCESS:
            corrected += tag
        elif name == QRS:
            beats += tag

    def own(*names):
        return sum(totals.get(name, [0.0])[0] for name in names)

    def calls(name):
        return totals.get(name, [0, 0])[1]

    def work(name):
        return totals.get(name, [0, 0, 0])[2]

    windows = counters["windows"]
    us = 1e6
    metrics = {
        "ingest.qrs_us_per_window": (_per(own(QRS), windows, us), "us"),
        "ingest.preprocess_us_per_window": (
            _per(own(PREPROCESS), windows, us), "us"),
        "ingest.samples": (work(QRS), "count"),
        "ingest.beats": (beats, "count"),
        "ingest.corrected_frac": (_per(corrected, work(PREPROCESS)),
                                  "fraction"),
        "session.feed_us_per_window": (_per(own(FEED), windows, us), "us"),
        "session.buffered_samples_max": (feed_buffered, "count"),
        "hub.flush_self_us_per_window": (
            _per(own(FLUSH), work(FLUSH), us), "us"),
        "hub.flushes": (calls(FLUSH), "count"),
        "hub.windows_per_flush": (_per(work(FLUSH), calls(FLUSH)), "count"),
        "hub.groups_per_flush": (_per(flush_groups, calls(FLUSH)), "count"),
        "kernel.us_per_window": (_per(own(KERNEL), work(KERNEL), us), "us"),
        "kernel.windows_per_call": (
            _per(work(KERNEL), calls(KERNEL)), "count"),
        "metrics.us_per_window": (
            _per(own(METRICS), work(METRICS), us), "us"),
        "finalize.us_per_window": (
            _per(own(*FINALIZE), sum(work(n) for n in FINALIZE), us), "us"),
        "fleet.run_us_per_window": (
            _per(own(FLEET_RUN) + own(FLEET_PLAN), work(FLEET_RUN), us),
            "us"),
        "fleet.shards": (_per(work(FLEET_PLAN), calls(FLEET_PLAN)), "count"),
        "wire.encode_us_per_window": (_per(own(*ENCODE), windows, us), "us"),
        "wire.decode_us_per_window": (_per(own(DECODE), windows, us), "us"),
        "trace.coverage": (_per(covered, counters["busy_s"]), "fraction"),
    }
    for level, (seconds, n) in kernel_levels.items():
        metrics[f"kernel.us_per_window.{level}"] = (_per(seconds, n, us), "us")
    stages = counters.get("stages", {})
    for stage in ("extirpolate", "fft", "lomb_combine"):
        metrics[f"kernel.{stage}_us_per_window"] = (
            _per(stages.get(stage, 0.0), work(KERNEL), us), "us")
    late = counters.get("late_s") or [0.0]
    metrics["gen.late_p99_ms"] = (percentile(late, 99) * 1e3, "ms")
    return metrics
