"""The repository's benchmark: four workloads over the whole pipeline.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` records why each was chosen):

``holter_cohort``  closed loop: ``Engine.analyze_cohort`` over a 2-process
                   shared-memory pool, 24 h recordings, ``exact`` and ``set3``.
``ward_stream``    open loop: in-process ``StreamHub``, 40 subjects pinned
                   8 per quality level, 60 s bursts on a 40 ms tick.
``gateway_stream`` open loop: ``GatewayServer`` in the workload process, a
                   separate two-slot load generator (``loadgen.py``).
``ecg_stream``     closed loop: 250 Hz ECG frames through ``ECGSource``.

This process makes the inputs and the reference outputs from the seed
(``inputs.py``), then starts every set-up and measured run of the
workload in a fresh interpreter (``child.py``) so no plan cache,
provider pin or arena carries over.  With ``--trace 0`` it sets up
several times, measures once and prints the end-to-end metrics; with
``--trace 1`` it measures once untraced and once with spans around each
layer's entry points (``tracing.py``) and prints the per-layer metrics.
Every output is checked against the reference; the last line of
standard output is the JSON result.  ``--tiny`` shrinks every input for
the benchmark's own tests.

End-to-end metrics (every workload reports all of them):

``windows_per_s``      windows analysed per wall second; closed loops take
                       the median over segments of the run, open loops
                       report their whole schedule (the offered rate).
``latency_p50_ms``,    per window, from when the input that completed it
``latency_p99_ms``     was due (open loops) or submitted (closed loops) to
                       when its result came back; the median over up to
                       24 consecutive slices of >= 100 windows of each
                       slice's percentile.  A failed window is infinite.
``cpu_us_per_window``  user + system CPU of the workload process and its
                       pool workers (never the load generator) per window.
``setup_s``            fresh interpreter to ready-to-serve, median of
                       several set-ups; input generation excluded.
``peak_rss_mib``       peak resident memory, summed over those processes.

``failed_frac`` (missing, mismatched, rejected or errored windows over
windows attempted) is printed by name and carried by the result line's
``failed``/``attempted``: a metric that reads 0 has no relative bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys

from common import SRC, WORK, WORKLOADS, now, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: Set-up-only interpreters per untraced run, besides the measured one.
SETUP_REPEATS = 2
#: Latency percentiles: median over up to MAX_SEGMENTS consecutive slices
#: of at least SEGMENT_SAMPLES windows each.
MAX_SEGMENTS = 24
SEGMENT_SAMPLES = 100
#: Closed-loop rates: median over up to RATE_SEGMENTS stretches of a run.
RATE_SEGMENTS = 8
CLOSED_LOOP = ("holter_cohort", "ecg_stream")


def _environment(run_dir: str) -> dict:
    """Child environment: this checkout's sources, no REPRO_* pins."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = os.path.join(run_dir, "cache")
    return env


def _spawn(workload, run_dir, mode, seconds, trace, env) -> str:
    """One fresh interpreter running ``child.py``; returns its stdout."""
    t_spawn = now()
    process = subprocess.Popen(
        [sys.executable, CHILD, workload, run_dir, mode, str(seconds),
         str(trace), repr(t_spawn)],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = process.communicate(timeout=seconds + 150)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"{workload} {mode} run exited with "
                           f"code {process.returncode}")
    return out


def _measure(workload, run_dir, seconds, trace, env) -> dict:
    _spawn(workload, run_dir, "run", seconds, trace, env)
    with open(os.path.join(run_dir, f"out-{trace}.pkl"), "rb") as handle:
        return pickle.load(handle)


def _check(workload: str, raw: dict, reference) -> tuple[int, int]:
    """(windows attempted, windows failed) against the reference."""
    if workload == "gateway_stream":
        return raw["counters"]["windows"], raw["checked"]["failed"]
    attempted = failed = 0
    for key, windows, result in raw["outputs"]:
        expected = reference[key]
        digests = expected["windows"]
        attempted += len(digests)
        if result != expected["result"]:
            failed += len(digests)
        elif windows is not None:
            mismatched = sum(a != b for a, b in zip(windows, digests))
            failed += min(len(digests),
                          mismatched + abs(len(windows) - len(digests)))
    return attempted, failed


def _saturated(workload: str, latency: list[float]) -> bool | None:
    """Open loops: did latency grow from the first quarter to the last?"""
    if workload in CLOSED_LOOP or len(latency) < 8:
        return None
    quarter = len(latency) // 4
    first = statistics.median(latency[:quarter])
    last = statistics.median(latency[-quarter:])
    return last > 1.5 * first and last - first > 5.0


def _segments(latency: list[float]) -> list[list[float]]:
    """Consecutive slices of a run's latencies, in time order.

    Percentiles are taken per slice and their median reported, so a
    burst of host noise moves one slice, not the result.  Slices hold at
    least SEGMENT_SAMPLES windows; the summary prints how many of the
    whole run's windows lie beyond the reported p99.
    """
    count = max(1, min(MAX_SEGMENTS, len(latency) // SEGMENT_SAMPLES))
    size = len(latency) / count
    return [latency[round(i * size):round((i + 1) * size)]
            for i in range(count)]


def _rates(checkpoints) -> tuple[float, float]:
    """Medians over segments: (windows per wall second, CPU us per window).

    ``checkpoints`` are cumulative ``(wall s, CPU s, windows)`` readings
    at a closed loop's natural boundaries (a cohort call pair, an ECG
    pass), grouped into up to RATE_SEGMENTS consecutive segments so a
    burst of host noise moves one segment only.  Open loops pass their
    whole schedule as one interval.
    """
    intervals = len(checkpoints) - 1
    count = max(1, min(RATE_SEGMENTS, intervals))
    edges = [checkpoints[round(i * intervals / count)]
             for i in range(count + 1)]
    rates, costs = [], []
    for (w0, c0, n0), (w1, c1, n1) in zip(edges, edges[1:]):
        if n1 > n0:
            rates.append((n1 - n0) / (w1 - w0))
            costs.append((c1 - c0) / (n1 - n0) * 1e6)
    return statistics.median(rates), statistics.median(costs)


def end_to_end(workload, raw, attempted, failed, setups) -> dict:
    counters = raw["counters"]
    windows_per_s, cpu_us_per_window = _rates(raw["checkpoints"])
    segments = _segments(list(raw["latency_ms"]))
    if workload != "gateway_stream":  # the load generator already did
        for i in range(failed):  # a failed window has infinite latency
            segments[i % len(segments)].append(math.inf)

    def latency(q):
        return statistics.median(percentile(part, q) for part in segments)

    return {
        "windows_per_s": (windows_per_s, "windows/s"),
        "latency_p50_ms": (latency(50), "ms"),
        "latency_p99_ms": (latency(99), "ms"),
        "cpu_us_per_window": (cpu_us_per_window, "us"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (counters["peak_rss_kib"] / 1024.0, "MiB"),
    }


def per_layer(workload, raw, base) -> dict:
    from inputs import node_counts
    from tracing import layer_metrics

    counters = raw["counters"]
    windows = counters["windows"]
    metrics = layer_metrics(raw["spans"], counters["t0"], counters["t1"],
                            counters)
    wire = counters.get("wire", {})
    arena_hits, arena_misses = counters["arena"]
    plan_hits, plan_misses = counters["plan_cache"]
    rest = counters.get("rest_ms") or [0.0]
    metrics.update({
        "fleet.parallel_frac": (counters.get("parallel_frac", 0.0),
                                "fraction"),
        # Computed from the shared arrays' sizes, not measured.
        "fleet.shm_bytes_per_window": (
            counters.get("shm_bytes_per_window", 0.0), "bytes"),
        "wire.bytes_up_per_window": (
            counters.get("bytes_up", 0) / windows, "bytes"),
        "wire.bytes_down_per_window": (
            counters.get("bytes_down", 0) / windows, "bytes"),
        "wire.frames_per_window": (
            (wire.get("frames_in", 0) + wire.get("frames_out", 0)) / windows,
            "count"),
        "gateway.rest_read_ms_p50": (statistics.median(rest), "ms"),
        "gateway.frames_in": (wire.get("frames_in", 0), "count"),
        "gateway.frames_out": (wire.get("frames_out", 0), "count"),
        "gateway.rejected": (wire.get("rejected", 0), "count"),
        "arena.hit_frac": (
            arena_hits / max(1, arena_hits + arena_misses), "fraction"),
        "plancache.hit_frac": (
            plan_hits / max(1, plan_hits + plan_misses), "fraction"),
        # Busy time per window, traced over untraced, minus one.
        "trace.overhead_frac": (
            (counters["busy_s"] / windows)
            / (base["counters"]["busy_s"] / base["counters"]["windows"])
            - 1.0, "fraction"),
    })
    metrics.update(node_counts())
    return metrics


def _versions() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "cpu_count": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (the benchmark's tests)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = str(WORK / "runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"))
    os.makedirs(run_dir)
    env = _environment(run_dir)
    # This process makes inputs and references under the same rules.
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    try:
        return _run(args, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir: str, env: dict) -> int:
    import repro
    from inputs import build

    if not os.path.abspath(repro.__file__).startswith(str(SRC)):
        raise RuntimeError(f"imported repro from {repro.__file__}")
    workload, seconds = args.workload, args.seconds
    inputs, warmup, reference = build(workload, args.seed, seconds, args.tiny)
    for name, data in (("inputs", inputs), ("warmup", warmup)):
        with open(os.path.join(run_dir, f"{name}.pkl"), "wb") as handle:
            pickle.dump(data, handle, protocol=pickle.HIGHEST_PROTOCOL)
    if args.tiny:
        open(os.path.join(run_dir, "tiny"), "w").close()

    if args.trace:
        base = _measure(workload, run_dir, seconds, 0, env)
        raw = _measure(workload, run_dir, seconds, 1, env)
        attempted, failed = _check(workload, raw, reference)
        metrics = per_layer(workload, raw, base)
    else:
        setups = []
        for _ in range(0 if args.tiny else SETUP_REPEATS):
            out = _spawn(workload, run_dir, "setup", seconds, 0, env)
            setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        raw = _measure(workload, run_dir, seconds, 0, env)
        setups.append(raw["setup_s"])
        attempted, failed = _check(workload, raw, reference)
        metrics = end_to_end(workload, raw, attempted, failed, setups)

    record = {
        "workload": workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "tiny": args.tiny,
        "resolved": raw["resolved"], "host": _versions(),
        "attempted": attempted, "failed": failed,
        "latency_samples": len(raw["latency_ms"]),
        "latency_segments": len(_segments(list(raw["latency_ms"]))),
        "beyond_p99": sum(
            value > metrics["latency_p99_ms"][0]
            for value in raw["latency_ms"]
        ) if "latency_p99_ms" in metrics else None,
        "saturated": _saturated(workload, raw["latency_ms"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    _report(record)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(
        json.dumps(record, indent=2, default=str))
    with open(results / f"{stem}.samples.pkl", "wb") as handle:
        pickle.dump({key: raw[key] for key in
                     ("latency_ms", "checkpoints", "counters")}, handle)
    if args.trace:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        with open(traces / f"{stem}.spans.pkl", "wb") as handle:
            pickle.dump(raw["spans"], handle)
    # JSON has no infinity: a failed window's latency prints as 1e12 ms.
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else 1e12, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }))
    return 0


def _report(record: dict) -> None:
    """Human-readable summary (every line but the last of stdout)."""
    host, resolved = record["host"], record["resolved"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"  host: cpus={host['cpu_count']} python={host['python']} "
          f"numpy={host['numpy']} scipy={host['scipy']} "
          f"provider={resolved['provider']} "
          f"chunk_windows={resolved['chunk_windows']} jobs={resolved['jobs']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'failed_frac':<38} {failed / max(1, attempted):>14.6g} "
          f"fraction ({failed} of {attempted} windows)")
    line = (f"  latency: {record['latency_samples']} samples in "
            f"{record['latency_segments']} segment(s)")
    if record["beyond_p99"] is not None:
        line += f"; {record['beyond_p99']} beyond the reported p99"
    print(f"{line}; saturated: {record['saturated']}")


if __name__ == "__main__":
    raise SystemExit(main())
