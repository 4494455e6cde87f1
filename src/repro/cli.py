"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the library's everyday uses without writing any
code:

* ``demo``        — quickstart comparison on one synthetic patient,
* ``screen``      — cohort screening under a chosen pruning mode or a
  declarative ``--config config.json`` (``--jobs N`` shards the cohort
  over N worker processes, ``--provider`` pins the FFT execution
  engine),
* ``stream``      — replay recordings as interleaved timed events
  through the multiplexed streaming hub
  (:class:`repro.engine.StreamHub` via its asyncio transport), or —
  with ``--connect HOST:PORT`` — as a network client of a running
  ``serve`` gateway,
* ``serve``       — run the network service gateway: framed
  newline-JSON stream ingestion plus the REST result API over
  per-tenant streaming hubs (:mod:`repro.service`); SIGTERM drains
  gracefully,
* ``worker``      — serve this host as a fleet worker daemon for
  ``--workers`` fleets,
* ``engine``      — inspect, resolve and round-trip the declarative
  engine configuration (:class:`repro.engine.EngineConfig`),
* ``energy``      — energy report of a pruning mode on the node model,
* ``complexity``  — the Fig. 5 operation-count table for a given N,
* ``tune``        — timing report of candidate batch chunk sizes,
* ``providers``   — list the FFT execution providers (``--probe`` adds
  a timing report),
* ``profile``     — per-stage timing (and optional allocation) profile
  of a streaming workload (:mod:`repro.perf`).

Analysis commands are thin drivers over the engine facade
(:mod:`repro.engine`): flags build or override an
:class:`~repro.engine.EngineConfig`, and execution runs through
:class:`~repro.engine.Engine`.
"""

from __future__ import annotations

import argparse

import numpy as np

from ._validation import is_power_of_two
from .analysis.reporting import format_percent, format_table
from .core.system import QualityScalablePSA
from .ecg.database import make_cohort
from .engine import Engine, EngineConfig
from .errors import ConfigurationError
from .ffts.pruning import PruningSpec
from .ffts.split_radix import split_radix_counts
from .ffts.wavelet_fft import WaveletFFT

__all__ = ["main", "build_parser", "parse_mode", "parse_slo"]

_MODES = ("exact", "band", "set1", "set2", "set3")


def parse_mode(name: str, dynamic: bool = False) -> PruningSpec:
    """Translate a CLI mode name into a :class:`PruningSpec`."""
    name = name.lower()
    if name == "exact":
        return PruningSpec.none()
    if name == "band":
        return PruningSpec.band_only()
    if name.startswith("set") and name[3:] in ("1", "2", "3"):
        return PruningSpec.paper_mode(int(name[3:]), dynamic=dynamic)
    raise argparse.ArgumentTypeError(
        f"unknown mode {name!r}; choose from {', '.join(_MODES)}"
    )


def parse_slo(text: str):
    """Translate a ``--slo`` value into an :class:`SLOSpec`.

    Accepts either a bare number (the target p95 flush latency in
    milliseconds, everything else defaulted) or a full SLOSpec JSON
    object for tuning hysteresis, policy, floors and tiers.
    """
    from .engine import SLOSpec

    text = text.strip()
    if text.startswith("{"):
        return SLOSpec.from_json(text)
    try:
        target = float(text)
    except ValueError:
        raise ConfigurationError(
            f"--slo expects a target p95 in milliseconds or an SLOSpec "
            f"JSON object, got {text!r}"
        ) from None
    return SLOSpec(target_p95_ms=target)


def _config_from_args(args, default_mode: str = "set3") -> EngineConfig:
    """Build the :class:`EngineConfig` a command's flags describe.

    ``--config FILE`` loads the declarative base; explicit flags
    (``--mode``, ``--provider``, ``--jobs``) override its fields —
    the CLI layer of the documented explicit → config → env →
    default precedence chain.
    """
    if getattr(args, "config", None):
        config = EngineConfig.from_file(args.config)
        if args.mode is not None:
            moded = EngineConfig.for_mode(args.mode, args.dynamic)
            config = config.replace(system=moded.system, pruning=moded.pruning)
        elif args.dynamic:
            # --dynamic modifies a --mode; silently ignoring it against
            # a config file would run a different analysis than asked.
            raise ConfigurationError(
                "--dynamic requires --mode when --config is given "
                "(the config file already fixes the pruning spec)"
            )
    else:
        config = EngineConfig.for_mode(
            args.mode if args.mode is not None else default_mode,
            args.dynamic,
        )
    if getattr(args, "provider", None) is not None:
        config = config.replace(provider=args.provider)
    if getattr(args, "jobs", None) is not None:
        # 0 is the CLI's one-per-CPU sentinel (None in config terms).
        config = config.replace(jobs=None if args.jobs == 0 else args.jobs)
    if getattr(args, "workers", None):
        # Repeatable and comma-splittable: --workers a:1 --workers b:2,c:3
        addresses = [
            address.strip()
            for value in args.workers
            for address in value.split(",")
            if address.strip()
        ]
        config = config.replace(workers=tuple(addresses))
    if getattr(args, "slo", None) is not None:
        config = config.replace(slo=parse_slo(args.slo))
    return config


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quality-scalable HRV spectral analysis (DATE 2014 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="quickstart comparison on one patient")
    demo.add_argument("--patient", default="rsa-05")
    demo.add_argument("--duration", type=float, default=600.0)

    from .ffts.providers import provider_names

    screen = sub.add_parser("screen", help="screen the synthetic cohort")
    screen.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="declarative EngineConfig JSON file (see the engine command)",
    )
    screen.add_argument("--mode", default=None, choices=_MODES)
    screen.add_argument("--dynamic", action="store_true")
    screen.add_argument("--patients", type=int, default=8)
    screen.add_argument("--duration", type=float, default=300.0)
    screen.add_argument(
        "--ecg",
        action="store_true",
        help="start from raw ECG: render each patient's waveform, "
        "detect QRS beats and clean the RR intervals "
        "(repro.ingest) before screening",
    )
    screen.add_argument(
        "--sampling-rate",
        type=float,
        default=250.0,
        help="ECG sampling rate in Hz for --ecg (default: 250)",
    )
    screen.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the cohort (0 = one per CPU)",
    )
    screen.add_argument(
        "--provider",
        default=None,
        choices=provider_names(),
        help="FFT execution provider to pin (see the providers command)",
    )
    screen.add_argument(
        "--workers",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="remote fleet worker daemon to schedule shards onto "
        "(repeatable; comma-separated lists accepted)",
    )

    stream = sub.add_parser(
        "stream",
        help="replay recordings as interleaved events through the "
        "streaming hub",
    )
    stream.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="declarative EngineConfig JSON file (see the engine command)",
    )
    stream.add_argument("--mode", default=None, choices=_MODES)
    stream.add_argument("--dynamic", action="store_true")
    stream.add_argument("--patients", type=int, default=4)
    stream.add_argument("--duration", type=float, default=300.0)
    stream.add_argument(
        "--input",
        default=None,
        metavar="FILE",
        help="CSV of 'subject,t,rr' beat rows to replay instead of the "
        "synthetic cohort",
    )
    stream.add_argument(
        "--ecg",
        action="store_true",
        help="replay raw ECG frames instead of beat events: each "
        "subject's waveform is rendered, streamed through the "
        "incremental QRS detector and artifact preprocessor "
        "(repro.ingest.ECGSource), and the cleaned RR events carry "
        "corrected-beat masks into the hub",
    )
    stream.add_argument(
        "--sampling-rate",
        type=float,
        default=250.0,
        help="ECG sampling rate in Hz for --ecg (default: 250)",
    )
    stream.add_argument(
        "--frame",
        type=int,
        default=512,
        dest="frame_samples",
        help="ECG samples per uplink frame for --ecg (default: 512)",
    )
    stream.add_argument(
        "--chunk",
        type=int,
        default=16,
        help="beats per uplink event (each event is one subject's burst)",
    )
    stream.add_argument(
        "--round",
        type=int,
        default=64,
        dest="round_events",
        help="events per shared-batch flush round",
    )
    stream.add_argument(
        "--speed",
        type=float,
        default=0.0,
        help="replay speed multiplier (0 = fast-forward, 1 = real time)",
    )
    stream.add_argument(
        "--verify",
        action="store_true",
        help="re-analyse each finished recording in one batch and check "
        "the streamed result is bit-identical",
    )
    stream.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the shared analysis batches "
        "(0 = one per CPU)",
    )
    stream.add_argument(
        "--provider",
        default=None,
        choices=provider_names(),
        help="FFT execution provider to pin (see the providers command)",
    )
    stream.add_argument(
        "--workers",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="remote fleet worker daemon to schedule span batches onto "
        "(repeatable; comma-separated lists accepted)",
    )
    stream.add_argument(
        "--slo",
        default=None,
        metavar="MS|JSON",
        help="attach the quality-adaptive SLO controller: a target p95 "
        "flush latency in milliseconds (e.g. 50), or a full SLOSpec "
        "JSON object; overloaded subjects are stepped down the "
        "paper's degradation ladder and recover when load subsides",
    )
    stream.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="replay through a running 'serve' gateway instead of an "
        "in-process hub (one framed connection per subject; --verify "
        "assumes the server tenant runs the same engine config as the "
        "local flags build)",
    )
    stream.add_argument(
        "--tenant",
        default="default",
        help="tenant name for --connect (default: default)",
    )
    stream.add_argument(
        "--token",
        default="dev-token",
        help="tenant token for --connect (default: dev-token)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the network service gateway (streams + REST)",
        description="Run the ingestion gateway: one port serving the "
        "framed newline-JSON stream protocol (hello/feed/finalize over "
        "per-tenant streaming hubs, windows pushed back with "
        "backpressure) and the REST result API (POST /v1/analyze, GET "
        "/v1/subjects/<id>/windows, GET /v1/stats).  Results are "
        "bit-identical to in-process Engine.analyze.  SIGTERM/SIGINT "
        "drain gracefully: accepting stops, every tenant's subjects "
        "finalize, results are pushed to connected clients.",
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="address to bind (overrides the config file; port 0 = "
        "ephemeral, printed on startup)",
    )
    serve.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="declarative ServiceConfig JSON file (tenants, tokens, "
        "per-tenant engine configs); defaults to one 'default' tenant "
        "with token 'dev-token'",
    )
    serve.add_argument(
        "--count-ops",
        action="store_true",
        help="count executed operations in every tenant hub (OpCounts "
        "in results — the bit-identity verification surface)",
    )

    worker = sub.add_parser(
        "worker",
        help="serve this host as a fleet worker daemon",
        description="Run a fleet worker daemon: listen for a scheduler's "
        "connection, reconstruct its exact engine (config blob, pinned "
        "provider and chunk size, warmed plan caches, workspace arena) "
        "and analyse the span batches it ships — bit-identically to the "
        "scheduler running them locally.  Use --listen HOST:0 to bind an "
        "ephemeral port (the bound address is printed on startup).",
    )
    worker.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="address to listen on (default 127.0.0.1:0 = ephemeral port)",
    )
    worker.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds between idle-connection heartbeat probes "
        "(default: the library's HEARTBEAT_INTERVAL; must be > 0)",
    )

    engine_cmd = sub.add_parser(
        "engine",
        help="inspect/resolve/round-trip the declarative engine config",
    )
    engine_cmd.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="EngineConfig JSON file to inspect (defaults to flag-built)",
    )
    engine_cmd.add_argument("--mode", default=None, choices=_MODES)
    engine_cmd.add_argument("--dynamic", action="store_true")
    engine_cmd.add_argument(
        "--provider", default=None, choices=provider_names()
    )
    engine_cmd.add_argument("--jobs", type=int, default=None)
    engine_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the config as JSON (pipe into a file for --config)",
    )
    engine_cmd.add_argument(
        "--resolve",
        action="store_true",
        help="resolve execution settings (config, then environment, "
        "then defaults)",
    )

    energy = sub.add_parser("energy", help="energy report for a pruning mode")
    energy.add_argument("--mode", default="set3", choices=_MODES)
    energy.add_argument("--dynamic", action="store_true")
    energy.add_argument("--no-vfs", action="store_true")
    energy.add_argument("--whole-window", action="store_true")

    complexity = sub.add_parser(
        "complexity", help="Fig. 5 operation-count table"
    )
    complexity.add_argument("--n", type=int, default=512)

    tune = sub.add_parser(
        "tune",
        help="time candidate batched-execution chunk sizes on this host "
        "(a report: sets nothing)",
    )
    tune.add_argument("--workspace", type=int, default=512)

    providers = sub.add_parser(
        "providers", help="list or probe the FFT execution providers"
    )
    providers.add_argument("--workspace", type=int, default=512)
    providers.add_argument(
        "--probe",
        action="store_true",
        help="time one batch FFT per available fast provider (a report: "
        "sets nothing)",
    )

    profile = sub.add_parser(
        "profile",
        help="per-stage timing profile of a streaming workload",
        description="Replay a synthetic streaming cohort through the hub "
        "with the per-stage profiler enabled and print where each flush "
        "spends its time (extirpolation, FFT dispatch, Lomb combine, "
        "assembly, hub flush), plus the workspace arena's reuse "
        "counters.",
    )
    profile.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="declarative EngineConfig JSON file (see the engine command)",
    )
    profile.add_argument("--mode", default=None, choices=_MODES)
    profile.add_argument("--dynamic", action="store_true")
    profile.add_argument("--patients", type=int, default=4)
    profile.add_argument("--duration", type=float, default=300.0)
    profile.add_argument(
        "--chunk",
        type=int,
        default=16,
        help="beats per uplink event (each event is one subject's burst)",
    )
    profile.add_argument(
        "--round",
        type=int,
        default=64,
        dest="round_events",
        help="events per shared-batch flush round",
    )
    profile.add_argument(
        "--alloc",
        action="store_true",
        help="also trace net allocations per stage (starts tracemalloc; "
        "adds measurement overhead)",
    )
    profile.add_argument(
        "--no-arena",
        action="store_true",
        help="disable the workspace arena (profile the allocating path "
        "for comparison)",
    )
    profile.add_argument(
        "--provider",
        default=None,
        choices=provider_names(),
        help="FFT execution provider to pin (see the providers command)",
    )
    return parser


def _cmd_demo(args) -> int:
    patient = make_cohort().get(args.patient)
    rr = patient.rr_series(duration=args.duration)
    with Engine(EngineConfig.for_mode("exact")) as exact_engine:
        reference = exact_engine.analyze(rr)
    with Engine(EngineConfig.for_mode("set3")) as pruned_engine:
        approx = pruned_engine.analyze(rr)
    rows = [
        ["conventional", f"{reference.lf_hf:.3f}",
         str(reference.detection.is_arrhythmia)],
        ["band + 60%", f"{approx.lf_hf:.3f}",
         str(approx.detection.is_arrhythmia)],
    ]
    print(format_table(["system", "LF/HF", "arrhythmia?"], rows,
                       title=f"patient {patient.patient_id}"))
    return 0


def _cmd_screen(args) -> int:
    config = _config_from_args(args)
    cohort = make_cohort()
    patients = list(cohort)[: args.patients]
    if args.ecg:
        # Full sensor path: render each patient's ECG waveform, detect
        # QRS beats and clean the RR intervals before screening.
        from .ecg import synthesize_ecg
        from .ingest import ecg_record_to_rr

        recordings = []
        for index, patient in enumerate(patients):
            rr = patient.rr_series(duration=args.duration)
            t, ecg = synthesize_ecg(
                rr.times, sampling_rate=args.sampling_rate, seed=index
            )
            recordings.append(
                ecg_record_to_rr(t, ecg, sampling_rate=args.sampling_rate)
            )
    else:
        recordings = [
            patient.rr_series(duration=args.duration) for patient in patients
        ]
    # The facade owns execution: the fleet engine shards the cohort's
    # Welch windows over the worker pool (jobs=1 runs the identical
    # pipeline in-process), pinned to the config's resolved provider
    # and chunk size.
    with Engine(config) as engine:
        results = engine.analyze_cohort(recordings)
    rows = []
    correct = 0
    for patient, result in zip(patients, results):
        expected = patient.patient_id.startswith("rsa")
        ok = result.detection.is_arrhythmia == expected
        correct += ok
        rows.append(
            [patient.patient_id, f"{result.lf_hf:.3f}",
             str(result.detection.is_arrhythmia), "ok" if ok else "MISS"]
        )
    title = (
        "screening under mode "
        f"{config.pruning.describe() if config.system != 'conventional' else 'exact'}"
    )
    print(format_table(["patient", "LF/HF", "flagged", "verdict"], rows,
                       title=title))
    print(f"\n{correct}/{len(patients)} correct")
    return 0 if correct == len(patients) else 1


def _load_event_file(path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Parse a CSV of ``subject,t,rr`` beat rows into per-subject arrays."""
    beats: dict[str, tuple[list, list]] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise ConfigurationError(
                        f"{path}:{line_no}: expected 'subject,t,rr', "
                        f"got {line!r}"
                    )
                try:
                    t, rr = float(parts[1]), float(parts[2])
                except ValueError:
                    raise ConfigurationError(
                        f"{path}:{line_no}: t and rr must be numbers, "
                        f"got {line!r}"
                    ) from None
                times, values = beats.setdefault(parts[0].strip(), ([], []))
                times.append(t)
                values.append(rr)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read event file {path!r}: {exc}"
        ) from None
    if not beats:
        raise ConfigurationError(f"event file {path!r} holds no beat rows")
    return {
        subject: (np.asarray(times), np.asarray(values))
        for subject, (times, values) in beats.items()
    }


def _timed_events(recordings, beats_per_event: int):
    """Chunk per-subject beats into events, interleaved by beat time.

    Each event is ``(at, subject, times, values, corrected)`` — one
    subject's burst of up to ``beats_per_event`` beats, stamped with
    its first beat instant; sorting by the stamp reproduces the
    arrival order a ward of independent wearables would deliver.
    """
    events = []
    for subject, (times, values) in recordings.items():
        for lo in range(0, times.size, beats_per_event):
            hi = min(lo + beats_per_event, times.size)
            events.append(
                (float(times[lo]), subject, times[lo:hi], values[lo:hi],
                 None)
            )
    events.sort(key=lambda event: event[0])
    return events


def _ecg_replay_inputs(args):
    """Raw-ECG replay: render waveforms, stream them through ingestion.

    Returns ``(recordings, events)`` where ``recordings`` maps subject
    to the *batch-reference* cleaned :class:`RRSeries`
    (:func:`~repro.ingest.ecg_record_to_rr` of the whole record — what
    ``--verify`` compares against) and ``events`` are the timed
    ``(at, subject, t, rr, corrected)`` bursts an
    :class:`~repro.ingest.ECGSource` emits frame by frame.
    """
    from .ecg import synthesize_ecg
    from .ingest import ECGSource, ecg_frames, ecg_record_to_rr

    if args.frame_samples < 1:
        raise ConfigurationError(
            f"--frame must be >= 1, got {args.frame_samples}"
        )
    if args.patients < 1:
        raise ConfigurationError(
            f"--patients must be >= 1, got {args.patients}"
        )
    recordings = {}
    events = []
    for index, patient in enumerate(list(make_cohort())[: args.patients]):
        rr = patient.rr_series(duration=args.duration)
        t, ecg = synthesize_ecg(
            rr.times, sampling_rate=args.sampling_rate, seed=index
        )
        recordings[patient.patient_id] = ecg_record_to_rr(
            t, ecg, sampling_rate=args.sampling_rate
        )
        source = ECGSource(
            patient.patient_id,
            ecg_frames(t, ecg, frame_samples=args.frame_samples),
            sampling_rate=args.sampling_rate,
        )
        for subject, times, values, corrected in source:
            events.append(
                (float(times[0]), subject, times, values, corrected)
            )
    events.sort(key=lambda event: event[0])
    return recordings, events


def _replay_inputs(args):
    """The recordings and interleaved events a stream replay drives.

    ``recordings`` maps subject to the batch-reference
    :class:`RRSeries`; events are ``(at, subject, t, rr, corrected)``.
    """
    from .hrv.rr import RRSeries

    if args.chunk < 1:
        raise ConfigurationError(f"--chunk must be >= 1, got {args.chunk}")
    if args.round_events < 1:
        raise ConfigurationError(
            f"--round must be >= 1, got {args.round_events}"
        )
    if args.ecg:
        if args.input:
            raise ConfigurationError(
                "--ecg and --input are mutually exclusive"
            )
        recordings, events = _ecg_replay_inputs(args)
    else:
        if args.input:
            pairs = _load_event_file(args.input)
        else:
            if args.patients < 1:
                raise ConfigurationError(
                    f"--patients must be >= 1, got {args.patients}"
                )
            pairs = {}
            for patient in list(make_cohort())[: args.patients]:
                rr = patient.rr_series(duration=args.duration)
                pairs[patient.patient_id] = (rr.times, rr.intervals)
        events = _timed_events(pairs, args.chunk)
        recordings = {
            subject: RRSeries(times=times, intervals=values)
            for subject, (times, values) in pairs.items()
        }
    if not events:
        raise ConfigurationError("nothing to replay: no beats in any subject")
    return recordings, events


def _cmd_stream_connect(args) -> int:
    """Replay through a running gateway instead of an in-process hub."""
    import time as time_mod

    from .service import ServiceClient

    recordings, events = _replay_inputs(args)
    clients: dict = {}
    try:
        clock = events[0][0]
        for at, subject, times, values, corrected in events:
            client = clients.get(subject)
            if client is None:
                client = ServiceClient(
                    args.connect, tenant=args.tenant, token=args.token
                )
                client.open(subject)
                clients[subject] = client
            if args.speed > 0 and at > clock:
                time_mod.sleep((at - clock) / args.speed)
                clock = at
            client.feed(
                times, values,
                None if corrected is None
                else np.asarray(corrected, dtype=float),
            )
        results = {
            subject: client.finalize() for subject, client in clients.items()
        }
    finally:
        for client in clients.values():
            client.close()
    rows = []
    exit_code = 0
    reference_engine = None
    if args.verify:
        reference_engine = Engine(_config_from_args(args))
    try:
        for subject, rr in recordings.items():
            result = results[subject]
            row = [
                subject,
                str(rr.times.size),
                str(len(clients[subject].windows)),
                str(result["n_windows"]),
                f"{result['lf_hf']:.3f}",
                str(result["detection"]["is_arrhythmia"]),
            ]
            if args.verify:
                reference = reference_engine.analyze(rr)
                identical = np.array_equal(
                    np.asarray(result["spectrogram"]),
                    reference.welch.spectrogram,
                ) and np.array_equal(
                    np.asarray(result["window_times"]),
                    reference.welch.window_times,
                ) and result.get("window_metrics") == [
                    metrics.to_dict()
                    for metrics in reference.window_metrics
                ]
                row.append("ok" if identical else "MISMATCH")
                exit_code = exit_code or (0 if identical else 1)
            rows.append(row)
    finally:
        if reference_engine is not None:
            reference_engine.close()
    headers = ["subject", "beats", "pushed", "windows", "LF/HF", "flagged"]
    if args.verify:
        headers.append("vs local")
    wire_bytes = sum(
        client.bytes_sent + client.bytes_received
        for client in clients.values()
    )
    print(format_table(
        headers,
        rows,
        title=f"streamed {len(events)} events over {len(recordings)} "
        f"subjects through {args.connect} "
        f"({wire_bytes / 1024.0:.0f} KiB on the wire)",
    ))
    return exit_code


def _cmd_stream(args) -> int:
    import asyncio

    if args.connect:
        return _cmd_stream_connect(args)
    config = _config_from_args(args)
    recordings, events = _replay_inputs(args)

    async def replay(hub):
        async def reader():
            clock = events[0][0]
            for at, subject, times, values, corrected in events:
                if args.speed > 0 and at > clock:
                    await asyncio.sleep((at - clock) / args.speed)
                    clock = at
                yield subject, times, values, corrected

        return await hub.serve(reader(), round_events=args.round_events)

    with Engine(config) as engine:
        hub = engine.open_hub()
        results = asyncio.run(replay(hub))
        rows = []
        exit_code = 0
        for subject, rr in recordings.items():
            result = results[subject]
            row = [
                subject,
                str(rr.times.size),
                str(result.welch.n_windows),
                f"{result.lf_hf:.3f}",
                str(result.detection.is_arrhythmia),
            ]
            if args.verify:
                reference = engine.analyze(rr)
                identical = np.array_equal(
                    reference.welch.spectrogram, result.welch.spectrogram
                ) and np.array_equal(
                    reference.welch.window_times, result.welch.window_times
                ) and (
                    reference.window_metrics == result.window_metrics
                )
                row.append("ok" if identical else "MISMATCH")
                exit_code = exit_code or (0 if identical else 1)
            rows.append(row)
        headers = ["subject", "beats", "windows", "LF/HF", "flagged"]
        if args.verify:
            headers.append("vs batch")
        print(format_table(
            headers,
            rows,
            title=f"streamed {len(events)} events over "
            f"{len(recordings)} subjects "
            f"(rounds of {args.round_events})",
        ))
        if config.slo is not None:
            stats = hub.controller_stats()
            ladder = stats["ladder"]
            shed = sum(
                count
                for level, count in stats["windows_by_level"].items()
                if level > 0
            )
            total = sum(stats["windows_by_level"].values())
            slo_rows = [
                [subject, str(level), ladder[level]]
                for subject, level in sorted(stats["levels"].items())
            ]
            p95 = stats["p95_ms"]
            print()
            print(format_table(
                ["subject", "level", "quality"],
                slo_rows,
                title=(
                    f"SLO controller: p95 "
                    f"{'--' if p95 is None else f'{p95:.1f} ms'} over "
                    f"{stats['flushes']} flushes, "
                    f"{stats['steps_down']} down / "
                    f"{stats['steps_up']} up, "
                    f"{shed}/{total} windows degraded"
                ),
            ))
    return exit_code


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from .service import GatewayServer, ServiceConfig

    config = (
        ServiceConfig.from_file(args.config)
        if args.config
        else ServiceConfig()
    )
    if args.listen:
        config = config.replace(listen=args.listen)
    if args.count_ops:
        config = config.replace(count_ops=True)

    async def run() -> int:
        server = GatewayServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(server.shutdown()),
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        tenants = ", ".join(spec.name for spec in config.tenants)
        print(
            f"gateway listening on {server.address} "
            f"(tenants: {tenants}); SIGTERM drains gracefully",
            flush=True,
        )
        await server.serve_forever()
        wire = server.stats()["wire"]
        print(
            f"drained: {wire['connections']} connections, "
            f"{wire['frames_in']} frames in / {wire['frames_out']} out, "
            f"{wire['http_requests']} HTTP requests"
        )
        return 0

    return asyncio.run(run())


def _cmd_worker(args) -> int:
    from .fleet.remote import HEARTBEAT_INTERVAL, run_worker_daemon

    interval = (
        HEARTBEAT_INTERVAL
        if args.heartbeat_interval is None
        else args.heartbeat_interval
    )
    return run_worker_daemon(args.listen, heartbeat_interval=interval)


def _cmd_engine(args) -> int:
    config = _config_from_args(args, default_mode="exact")
    if args.json:
        print(config.to_json())
        return 0
    round_tripped = EngineConfig.from_json(config.to_json())
    rows = [
        ["system", config.system],
        ["pruning", config.pruning.describe()],
        ["fft size", str(config.psa.fft_size)],
        ["window", f"{config.psa.window_seconds:.0f} s / "
                   f"{config.psa.overlap:.0%} overlap"],
        ["basis", config.psa.basis],
        ["scaling", config.psa.scaling],
        ["bands", ", ".join(
            f"{band.name} [{band.low}, {band.high})" for band in config.bands
        )],
        ["provider", config.provider or "-- (resolve at run time)"],
        ["chunk windows", str(config.chunk_windows)
         if config.chunk_windows else "-- (resolve at run time)"],
        ["jobs", str(config.jobs) if config.jobs else "one per CPU"],
        ["JSON round-trip", "ok" if round_tripped == config else "MISMATCH"],
    ]
    if args.resolve:
        resolved = config.resolve()
        rows += [
            ["resolved provider",
             f"{resolved.provider} ({resolved.provider_source})"],
            ["resolved chunk",
             f"{resolved.chunk_windows} ({resolved.chunk_source})"],
            ["resolved jobs", f"{resolved.jobs} ({resolved.jobs_source})"],
        ]
    print(format_table(["field", "value"], rows, title="engine config"))
    return 0 if round_tripped == config else 1


def _cmd_energy(args) -> int:
    spec = parse_mode(args.mode, args.dynamic)
    system = QualityScalablePSA(pruning=spec)
    report = system.energy_report(
        apply_vfs=not args.no_vfs, fft_only=not args.whole_window
    )
    scope = "whole window" if args.whole_window else "FFT kernel"
    point = report.approximate.operating_point
    rows = [
        ["mode", spec.describe()],
        ["scope", scope],
        ["cycle reduction", format_percent(report.cycle_reduction)],
        ["energy savings", format_percent(report.energy_savings)],
        ["operating point", f"{point.voltage:.2f} V / "
                            f"{point.frequency / 1e6:.0f} MHz"],
        ["VFS applied", str(report.vfs_applied)],
    ]
    print(format_table(["quantity", "value"], rows, title="energy report"))
    return 0


def _cmd_complexity(args) -> int:
    baseline = split_radix_counts(args.n)
    rows = [["split-radix", str(baseline.adds), str(baseline.mults), "--"]]
    for basis in ("haar", "db2", "db4"):
        for label, spec in (
            ("no approx", PruningSpec.none()),
            ("band drop", PruningSpec.band_only()),
            ("band + 60%", PruningSpec.paper_mode(3)),
        ):
            counts = WaveletFFT(args.n, basis=basis, pruning=spec).static_counts()
            rows.append(
                [f"{basis} ({label})", str(counts.adds), str(counts.mults),
                 format_percent(counts.savings_vs(baseline), signed=True)]
            )
    print(format_table(["kernel", "adds", "mults", "savings"], rows,
                       title=f"operation counts, N={args.n}"))
    return 0


def _require_workspace(workspace: int) -> int:
    """The ``--workspace`` of ``tune`` and ``providers``."""
    if workspace < 8 or not is_power_of_two(workspace):
        raise ConfigurationError(
            f"--workspace must be a power of two >= 8, got {workspace}"
        )
    return workspace


def _cmd_tune(args) -> int:
    from .fleet.tuning import measure_chunk_windows
    from .lomb.fast import BATCH_CHUNK_WINDOWS

    tuning = measure_chunk_windows(_require_workspace(args.workspace))
    rows = [
        ["workspace size", str(tuning.workspace_size)],
        ["fastest chunk windows", str(tuning.chunk_windows)],
        ["fixed default", str(BATCH_CHUNK_WINDOWS)],
        ["fft provider", tuning.provider],
    ]
    for candidate, seconds in sorted(tuning.timings.items()):
        rows.append([f"  probe {candidate}", f"{seconds * 1e3:.1f} ms"])
    print(format_table(["quantity", "value"], rows, title="chunk tuning"))
    return 0


def _cmd_providers(args) -> int:
    import time

    from .envpins import provider_env_pin
    from .ffts.providers import registry

    workspace = _require_workspace(args.workspace)
    availability = registry.available_providers()
    descriptions = registry.provider_descriptions()
    timings: dict[str, float] = {}
    if args.probe:
        # The explicit oracle is left out: it is orders of magnitude
        # slower than any pocketfft engine.
        rng = np.random.default_rng(2014)
        batch = rng.standard_normal((64, workspace)) + 1j * (
            rng.standard_normal((64, workspace))
        )
        for name, available in availability.items():
            if name == "explicit" or not available:
                continue
            provider = registry.get_provider(name)
            provider.fft_batch(batch)  # warm plans untimed
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                provider.fft_batch(batch)
                best = min(best, time.perf_counter() - start)
            timings[name] = best
    # The listing reports a bad env pin instead of dying on it.
    env_value = provider_env_pin()
    try:
        active = registry.host_provider_name()
    except ConfigurationError:
        active = f"invalid env pin {env_value!r}"
    rows = []
    for name in registry.provider_names():
        status = "yes" if availability[name] else "missing dependency"
        timing = f"{timings[name] * 1e3:.2f} ms" if name in timings else "--"
        rows.append(
            [name, status, "active" if name == active else "--", timing,
             descriptions[name]]
        )
    print(format_table(
        ["provider", "available", "state", "probe", "description"],
        rows,
        title=f"FFT execution providers (workspace {workspace})",
    ))
    env = registry.PROVIDER_ENV_VAR
    print(f"\nresolution: {env}="
          f"{env_value if env_value is not None else '--'}, active={active}")
    return 0


def _cmd_profile(args) -> int:
    import tracemalloc

    if args.chunk < 1:
        raise ConfigurationError(f"--chunk must be >= 1, got {args.chunk}")
    if args.round_events < 1:
        raise ConfigurationError(
            f"--round must be >= 1, got {args.round_events}"
        )
    if args.patients < 1:
        raise ConfigurationError(
            f"--patients must be >= 1, got {args.patients}"
        )
    config = _config_from_args(args).replace(
        profile=True, arena=not args.no_arena
    )
    recordings = {}
    for patient in list(make_cohort())[: args.patients]:
        rr = patient.rr_series(duration=args.duration)
        recordings[patient.patient_id] = (rr.times, rr.intervals)
    events = _timed_events(recordings, args.chunk)
    started_tracing = False
    if args.alloc and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_tracing = True
    try:
        with Engine(config) as engine:
            if args.alloc:
                engine.profiler.trace_alloc = True
            hub = engine.open_hub()
            rounds = 0
            for lo in range(0, len(events), args.round_events):
                for _, subject, times, values, corrected in events[
                    lo : lo + args.round_events
                ]:
                    hub.feed(subject, times, values, corrected)
                hub.flush()
                rounds += 1
            results = hub.finalize_all()
            hub.close()
            windows = sum(r.welch.n_windows for r in results.values())
            print(
                f"streamed {len(events)} events over "
                f"{len(recordings)} subjects in {rounds} rounds "
                f"({windows} windows)\n"
            )
            print(engine.profiler.format_report())
            if engine.arena is not None:
                stats = engine.arena.stats()
                print(
                    f"\narena: {stats['hits']} hits / "
                    f"{stats['misses']} misses / "
                    f"{stats['evictions']} evictions, "
                    f"{stats['pooled_bytes'] / 1024.0:.0f} KiB pooled in "
                    f"{stats['pooled_buffers']} buffers"
                )
            else:
                print("\narena: disabled (--no-arena)")
    finally:
        if started_tracing:
            tracemalloc.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "screen": _cmd_screen,
        "stream": _cmd_stream,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "engine": _cmd_engine,
        "energy": _cmd_energy,
        "complexity": _cmd_complexity,
        "tune": _cmd_tune,
        "providers": _cmd_providers,
        "profile": _cmd_profile,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
