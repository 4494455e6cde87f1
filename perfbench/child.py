"""The workload process: one fresh interpreter per set-up or measured run.

Run by ``run.py`` as::

    python3 perfbench/child.py WORKLOAD RUN_DIR MODE SECONDS TRACE T_SPAWN

``MODE`` is ``setup`` (set up, report ``setup_s``, exit) or ``run``
(set up, then measure for ``SECONDS`` and write ``RUN_DIR/out-<TRACE>.pkl``).
``T_SPAWN`` is the parent's monotonic clock just before it started this
interpreter, so ``setup_s`` covers interpreter start, the ``repro``
import, engine construction, cache warm-up, pool forks, gateway
listening and lazy first-use construction — but not input generation,
which the parent did beforehand.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import resource
import subprocess
import sys
import time

from common import (
    FRAME_SAMPLES, LEVELS, SAMPLING_RATE, TENANT, TOKEN, engine_config, now,
    result_digest, sizes, window_digest,
)

_TICK = os.sysconf("SC_CLK_TCK")


def _proc_cpu(pid: int) -> float:
    """User + system CPU seconds of another process (from /proc)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def _proc_peak_rss_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1])
    return 0


def _self_peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _fingerprint(result, emissions) -> tuple[list, str]:
    """Digests of a streamed subject's windows and of its final result."""
    windows = [
        window_digest(
            e.spectrum.power.tobytes(), float(e.center), e.metrics.to_dict()
        )
        for e in emissions
    ]
    return windows, result_digest(result)


def _perf_counts(stats_list) -> tuple[int, int, int, int]:
    """(arena hits, arena misses, plan-cache hits, misses) of engine stats."""
    arena_hits = arena_misses = 0
    for stats in stats_list:
        if stats["arena"] is not None:
            arena_hits += stats["arena"]["hits"]
            arena_misses += stats["arena"]["misses"]
    caches = stats_list[0]["plan_cache"].values()
    return (arena_hits, arena_misses, sum(c["hits"] for c in caches),
            sum(c["misses"] for c in caches))


class _Workload:
    """Shared plumbing: timed-phase bookkeeping and traced counters."""

    def __init__(self, name: str, tiny: bool, tracer, run_dir: str):
        self.name = name
        self.geometry = sizes(name, tiny)
        self.tracer = tracer
        self.run_dir = run_dir
        self.profiler = None
        self.engines: list = []

    def begin(self) -> None:
        """Start of the timed phase."""
        if self.tracer is not None:
            from repro.perf.profiler import StageProfiler, set_active_profiler

            self.profiler = StageProfiler()
            set_active_profiler(self.profiler)
        self._perf0 = self.perf_snapshot()
        self.t0 = now()
        self.cpu0 = time.process_time()

    def end(self) -> dict:
        """End of the timed phase: the counters every workload reports."""
        t1 = now()
        cpu = time.process_time() - self.cpu0
        perf1 = self.perf_snapshot()
        hits = [b - a for a, b in zip(self._perf0, perf1)]
        counters = {
            "t0": self.t0, "t1": t1, "cpu_s": cpu,
            "peak_rss_kib": _self_peak_rss_kib(),
            "arena": hits[:2], "plan_cache": hits[2:],
            "stages": {},
        }
        if self.profiler is not None:
            counters["stages"] = {
                stage: row["seconds"]
                for stage, row in self.profiler.report().items()
            }
        return counters

    def checkpoint(self, start: float, windows: int) -> tuple:
        """Cumulative (wall s, CPU s, windows) since ``start``."""
        return now() - start, time.process_time() - self.cpu0, windows

    def perf_snapshot(self):
        return _perf_counts([e.execution_stats() for e in self.engines])

    def resolved(self) -> dict:
        resolved = self.engines[0].resolved
        return {"provider": resolved.provider,
                "chunk_windows": resolved.chunk_windows,
                "jobs": resolved.jobs}

    def close(self) -> None:
        for engine in self.engines:
            engine.close()


class HolterCohort(_Workload):
    """Closed loop: one analyze_cohort call in flight, exact then set3."""

    def setup(self, warmup) -> None:
        from repro import Engine, RRSeries

        jobs = self.geometry["jobs"]
        self.modes = self.geometry["modes"]
        self.engines = [
            Engine(engine_config(mode, jobs=jobs)) for mode in self.modes
        ]
        cohort = [RRSeries(t, x, corrected=c) for t, x, c in warmup["cohort"]]
        for engine in self.engines:
            engine.analyze_cohort(cohort)  # forks the pool, warms caches
        self.workers = [p.pid for p in multiprocessing.active_children()]

    def run(self, inputs, seconds: float) -> dict:
        from repro import RRSeries

        cohort = [RRSeries(t, x, corrected=c) for t, x, c in inputs["cohort"]]
        shm_bytes = sum(
            t.nbytes + x.nbytes + c.astype(float).nbytes
            for t, x, c in inputs["cohort"]
        )
        latency, outputs, checkpoints = [], [], []
        windows = calls = 0
        wall = cpu = worker_cpu = 0.0
        self.begin()
        while now() - self.t0 < seconds:
            checkpoints.append((wall, cpu, windows))
            for mode, engine in zip(self.modes, self.engines):
                c0 = time.process_time()
                w0 = sum(map(_proc_cpu, self.workers))
                start = now()
                results = engine.analyze_cohort(cohort)
                elapsed = now() - start
                spent = sum(map(_proc_cpu, self.workers)) - w0
                cpu += time.process_time() - c0 + spent
                worker_cpu += spent
                wall += elapsed
                calls += 1
                n = sum(r.welch.n_windows for r in results)
                windows += n
                latency += [elapsed * 1e3] * n
                # Fingerprints are taken outside the accounted time.
                outputs += [
                    ((mode, i), None, result_digest(result))
                    for i, result in enumerate(results)
                ]
        checkpoints.append((wall, cpu, windows))
        counters = self.end()
        counters["peak_rss_kib"] += sum(map(_proc_peak_rss_kib, self.workers))
        counters.update(
            cpu_s=cpu, busy_s=wall, windows=windows,
            parallel_frac=worker_cpu / (self.geometry["jobs"] * wall),
            shm_bytes_per_window=shm_bytes * calls / windows,
        )
        return {"counters": counters, "latency_ms": latency,
                "checkpoints": checkpoints, "outputs": outputs}


class WardStream(_Workload):
    """Open loop: 60 s bursts from 40 pinned-level subjects, one flush a tick."""

    def setup(self, warmup) -> None:
        from repro import Engine

        self.engines = [Engine(engine_config("exact"))]
        # Build every quality variant's kernels and touch the flush and
        # finalize paths once, on a hub that is thrown away.
        hub = self.engines[0].open_hub()
        bursts = warmup["bursts"]
        for level in range(len(LEVELS)):
            hub.open(level)
            hub.set_quality(level, level, pin=True)
        for k in range(len(bursts[0])):
            for level in range(len(LEVELS)):
                hub.feed(level, *bursts[level % len(bursts)][k])
            hub.flush()
        hub.finalize_all()
        hub.close()

    def run(self, inputs, seconds: float) -> dict:
        hub = self.engines[0].open_hub()
        subjects = inputs["subjects"]
        for subject in subjects:
            hub.open(subject["name"])
            hub.set_quality(subject["name"], subject["level"], pin=True)
        groups = [
            [s for s in subjects if s["group"] == g]
            for g in range(inputs["groups"])
        ]
        bursts, tick = inputs["bursts"], inputs["tick"]
        latency, late = [], []
        busy = cpu = 0.0
        self.begin()
        start = self.t0 + 0.05
        for j in range(inputs["n_ticks"]):
            due = start + j * tick
            # Busy-wait, and account CPU per tick only: a vCPU left idle
            # between ticks comes back to cold caches at a rate set by
            # the host's other tenants, not by the system under test.
            while now() < due:
                pass
            begun, c0 = now(), time.process_time()
            late.append(begun - due)
            block = j // len(groups)
            for subject in groups[j % len(groups)]:
                hub.feed(subject["name"],
                         *bursts[subject["recording"]][block])
            emitted = hub.flush()
            done = now()
            cpu += time.process_time() - c0
            busy += done - begun
            latency += [(done - due) * 1e3] * sum(map(len, emitted.values()))
        begun, c0 = now(), time.process_time()
        results = hub.finalize_all()
        busy += now() - begun
        cpu += time.process_time() - c0
        windows = sum(r.welch.n_windows for r in results.values())
        # An open loop's rate is its schedule's: one interval, finalize in.
        checkpoints = [(0.0, 0.0, 0), (now() - start, cpu, windows)]
        counters = self.end()
        counters.update(cpu_s=cpu, busy_s=busy, windows=windows,
                        late_s=late)
        outputs = [
            ((LEVELS[s["level"]], s["recording"]),
             *_fingerprint(results[s["name"]],
                           hub.session(s["name"]).emissions))
            for s in subjects
        ]
        return {"counters": counters, "latency_ms": latency,
                "checkpoints": checkpoints, "outputs": outputs}


class EcgStream(_Workload):
    """Closed loop: ECG frames round-robin through ECGSource into a hub."""

    def setup(self, warmup) -> None:
        from repro import Engine
        from repro.ingest import ECGSource, ecg_frames

        self.engines = [Engine(engine_config("exact"))]
        hub = self.engines[0].open_hub()
        for i, (t, x) in enumerate(warmup["records"]):
            for event in ECGSource(
                i, ecg_frames(t, x, FRAME_SAMPLES), sampling_rate=SAMPLING_RATE
            ):
                hub.feed(*event)
                hub.flush()
        hub.finalize_all()
        hub.close()

    def run(self, inputs, seconds: float) -> dict:
        from repro.ingest import ECGSource, ecg_frames

        engine = self.engines[0]
        records = inputs["records"]
        latency, passes, checkpoints = [], [], []
        windows = 0
        self.begin()
        while not passes or now() - self.t0 < seconds:
            checkpoints.append(self.checkpoint(self.t0, windows))
            hub = engine.open_hub()
            active = [
                (i, iter(ECGSource(
                    f"e{i}.{len(passes)}", ecg_frames(t, x, inputs["frame"]),
                    sampling_rate=SAMPLING_RATE,
                )))
                for i, (t, x) in enumerate(records)
            ]
            while active:
                begun = now()
                still = []
                for i, events in active:
                    event = next(events, None)
                    if event is not None:
                        hub.feed(*event)
                        still.append((i, events))
                emitted = hub.flush()
                done = now()
                latency += [(done - begun) * 1e3] * sum(
                    map(len, emitted.values()))
                active = still
            results = hub.finalize_all()
            passes.append((hub, results))
            windows += sum(r.welch.n_windows for r in results.values())
        checkpoints.append(self.checkpoint(self.t0, windows))
        counters = self.end()
        counters.update(busy_s=counters["t1"] - counters["t0"],
                        windows=windows)
        outputs = [
            (int(subject[1:].split(".")[0]),
             *_fingerprint(result, hub.session(subject).emissions))
            for hub, results in passes
            for subject, result in results.items()
        ]
        return {"counters": counters, "latency_ms": latency,
                "checkpoints": checkpoints,
                "outputs": outputs}


class GatewayStream(_Workload):
    """Open loop: a separate load generator drives the in-process gateway."""

    def setup(self, warmup) -> None:
        from repro.service import GatewayThread, ServiceConfig, TenantSpec
        from repro.service.client import rest_analyze, rest_stats

        # The load generator spins on one CPU; the gateway, and every
        # thread it starts, keeps to the others.
        cpus = sorted(os.sched_getaffinity(0))
        self.loadgen_cpus = cpus[:1] if len(cpus) > 1 else cpus
        os.sched_setaffinity(0, cpus[1:] or cpus)

        config = ServiceConfig(
            listen="127.0.0.1:0",
            tenants=(TenantSpec(TENANT, TOKEN, engine_config("exact")),),
        )
        self.gateway = GatewayThread(config)
        self.gateway.__enter__()
        self.address = self.gateway.address
        # First use builds the tenant's engine and hub; one REST analysis
        # warms its kernels.
        rest_stats(self.address, TOKEN)
        times, values, corrected = warmup["recording"]
        rest_analyze(self.address, TOKEN, times, values, corrected=corrected)

    def engine_stats(self) -> dict:
        from repro.service.client import rest_stats

        return rest_stats(self.address, TOKEN)

    def perf_snapshot(self):
        return _perf_counts([self.engine_stats()["engine"]])

    def resolved(self) -> dict:
        resolved = self.engine_stats()["engine"]["resolved"]
        return {key: resolved[key]
                for key in ("provider", "chunk_windows", "jobs")}

    def run(self, inputs, seconds: float) -> dict:
        out = os.path.join(self.run_dir, "loadgen.pkl")
        loadgen = os.path.join(os.path.dirname(__file__), "loadgen.py")
        wire0 = self.gateway.server.stats()["wire"]
        self.begin()
        process = subprocess.Popen([
            sys.executable, loadgen, self.address,
            os.path.join(self.run_dir, "inputs.pkl"), out,
        ])
        try:
            os.sched_setaffinity(process.pid, self.loadgen_cpus)
            code = process.wait(timeout=seconds + 150)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        counters = self.end()
        wire1 = self.gateway.server.stats()["wire"]
        if code != 0:
            raise RuntimeError(f"load generator exited with code {code}")
        with open(out, "rb") as handle:
            generated = pickle.load(handle)
        counters.update(
            busy_s=counters["cpu_s"], windows=generated["windows"],
            late_s=generated["late_s"],
            wire={k: wire1[k] - wire0[k] for k in wire1},
            bytes_up=generated["bytes_up"],
            bytes_down=generated["bytes_down"],
            rest_ms=generated["rest_ms"],
        )
        return {"counters": counters, "latency_ms": generated["latency_ms"],
                "checkpoints": [(0.0, 0.0, 0), (generated["wall_s"],
                                                counters["cpu_s"],
                                                generated["windows"])],
                "checked": generated["checked"]}

    def close(self) -> None:
        if hasattr(self, "gateway"):
            self.gateway.__exit__(None, None, None)


WORKLOADS = {
    "holter_cohort": HolterCohort,
    "ward_stream": WardStream,
    "gateway_stream": GatewayStream,
    "ecg_stream": EcgStream,
}


def main(argv) -> int:
    name, run_dir, mode, seconds, trace, t_spawn = argv
    tiny = os.path.exists(os.path.join(run_dir, "tiny"))
    tracer = None
    if trace == "1":
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    workload = WORKLOADS[name](name, tiny, tracer, run_dir)
    with open(os.path.join(run_dir, "warmup.pkl"), "rb") as handle:
        warmup = pickle.load(handle)
    try:
        workload.setup(warmup)
        setup_s = now() - float(t_spawn)
        if mode == "setup":
            print(json.dumps({"setup_s": setup_s}), flush=True)
            return 0
        with open(os.path.join(run_dir, "inputs.pkl"), "rb") as handle:
            inputs = pickle.load(handle)
        raw = workload.run(inputs, float(seconds))
        raw["setup_s"] = setup_s
        raw["resolved"] = workload.resolved()
        if tracer is not None:
            raw["spans"] = tracer.export()
    finally:
        workload.close()
    with open(os.path.join(run_dir, f"out-{trace}.pkl"), "wb") as handle:
        pickle.dump(raw, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
