#!/usr/bin/env python3
"""One-shot verification gate: every check a PR must pass, in one run.

    python tools/run_checks.py            # full gate
    python tools/run_checks.py --fast     # skip the bench smoke tests

Runs, in order:

1. the tier-1 test suite (``pytest -x -q`` with ``src`` on the path),
2. the public-API surface check (``tools/check_public_api.py``),
3. the compiled-artifact hygiene check (``tools/check_no_pyc.py``),
4. the localhost distributed smoke (``tools/distributed_smoke.py``):
   worker daemon up, tiny cohort bit-identical over the socket
   transport, daemon down cleanly,
5. the chaos smoke (``tools/chaos_smoke.py``): injected overload sheds
   quality and recovers under the SLO controller; an injected worker
   death rejoins with backoff — both bit-identical to healthy runs,
6. the service smoke (``tools/service_smoke.py``): gateway on an
   ephemeral port, a two-subject cohort streamed through the framed
   protocol bit-identical to ``Engine.analyze``, one REST batch upload,
7. the ingestion smoke (``tools/ingest_smoke.py``): raw ECG replayed
   frame-by-frame through the streaming QRS detector and artifact
   preprocessor, bit-identical to the batch path on both PSA systems,
8. the five benchmark smoke tests (streaming, throughput, fleet,
   service, ingest) that exercise the measurement harnesses end to end,
9. the repository benchmark's own tests (``perfbench/test_perfbench.py``):
   every workload's tiny mode through ``perfbench/run.py``, end-to-end
   and traced.  Step 1 collects ``tests`` only, so this is the one step
   that runs them.

Each step streams its own output; the gate prints a pass/fail summary
table and exits non-zero if *any* step failed (later steps still run, so
one invocation reports everything that is broken).  A step that runs
longer than :data:`STEP_TIMEOUT_SECONDS` is killed, with every process
it started, and reported as timed out; pytest steps dump every thread's
stack first (``faulthandler_timeout``), so a hang leaves a trace.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import signal
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Hard wall-clock limit of one gate step, far above every step's normal
#: time (the tier-1 suite, the longest, takes about a minute).
STEP_TIMEOUT_SECONDS = 600

#: pytest dumps every thread's stack when one test runs this long — half
#: the step limit, so the dump lands before a hung step is killed.
PYTEST_DUMP_SECONDS = STEP_TIMEOUT_SECONDS // 2

#: (label, argv) of every gate step, in execution order.  The bench
#: smoke tests live in the tier-1 suite too, but running them by name
#: keeps the gate loud about which harness broke.
STEPS: list[tuple[str, list[str]]] = [
    (
        "tier-1 tests",
        [sys.executable, "-m", "pytest", "-x", "-q", "tests"],
    ),
    (
        "public API surface",
        [sys.executable, "tools/check_public_api.py"],
    ),
    (
        "no compiled artifacts",
        [sys.executable, "tools/check_no_pyc.py"],
    ),
    (
        "distributed smoke (localhost daemon)",
        [sys.executable, "tools/distributed_smoke.py"],
    ),
    (
        "chaos smoke (fault injection)",
        [sys.executable, "tools/chaos_smoke.py"],
    ),
    (
        "service smoke (gateway + REST)",
        [sys.executable, "tools/service_smoke.py"],
    ),
    (
        "ingest smoke (ECG replay bit-identity)",
        [sys.executable, "tools/ingest_smoke.py"],
    ),
    (
        "bench smoke: streaming",
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "tests/test_bench_streaming_smoke.py",
        ],
    ),
    (
        "bench smoke: throughput",
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "tests/test_bench_throughput_smoke.py",
        ],
    ),
    (
        "bench smoke: fleet",
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "tests/test_bench_fleet_smoke.py",
        ],
    ),
    (
        "bench smoke: service",
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "tests/test_bench_service_smoke.py",
        ],
    ),
    (
        "bench smoke: ingest",
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "tests/test_bench_ingest_smoke.py",
        ],
    ),
    (
        "bench smoke: perfbench",
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "perfbench/test_perfbench.py",
        ],
    ),
]

#: Steps --fast drops (the smoke tests re-run benchmark workloads).
FAST_SKIP_PREFIX = "bench smoke"


def run_step(label: str, argv: list[str]) -> tuple[str, float]:
    """Run one gate step in the repo root with ``src`` importable.

    Returns the verdict (``"ok"``, ``"FAILED"`` or ``"TIMED OUT"``) and
    the elapsed seconds.  The step runs in its own process group, which
    is killed when the step ends, so neither a timed-out step nor pool
    workers or daemons a step left behind outlive it.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    if argv[1:3] == ["-m", "pytest"]:
        dump = f"faulthandler_timeout={PYTEST_DUMP_SECONDS}"
        argv = argv[:3] + ["-o", dump] + argv[3:]
    print(f"\n=== {label}: {' '.join(argv)}", flush=True)
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=REPO_ROOT, env=env, start_new_session=True
    )
    try:
        verdict = "ok" if proc.wait(STEP_TIMEOUT_SECONDS) == 0 else "FAILED"
    except subprocess.TimeoutExpired:
        verdict = "TIMED OUT"
        print(
            f"=== {label}: timed out after {STEP_TIMEOUT_SECONDS} s; killed",
            flush=True,
        )
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return verdict, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help="skip the benchmark smoke tests",
    )
    args = parser.parse_args(argv)
    steps = [
        (label, cmd)
        for label, cmd in STEPS
        if not (args.fast and label.startswith(FAST_SKIP_PREFIX))
    ]
    outcomes: list[tuple[str, str, float]] = []
    for label, cmd in steps:
        verdict, elapsed = run_step(label, cmd)
        outcomes.append((label, verdict, elapsed))
    width = max(len(label) for label, _, _ in outcomes)
    print("\n" + "=" * (width + 20))
    failed = 0
    for label, verdict, elapsed in outcomes:
        failed += verdict != "ok"
        print(f"{label:<{width}}  {verdict:<9} {elapsed:>7.1f}s")
    print("=" * (width + 20))
    if failed:
        print(f"{failed}/{len(outcomes)} checks failed")
        return 1
    print(f"all {len(outcomes)} checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
