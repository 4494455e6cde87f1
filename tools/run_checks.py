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
one invocation reports everything that is broken).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

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


def run_step(label: str, argv: list[str]) -> tuple[bool, float]:
    """Run one gate step in the repo root with ``src`` importable."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    print(f"\n=== {label}: {' '.join(argv)}", flush=True)
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=REPO_ROOT, env=env)
    elapsed = time.perf_counter() - start
    return proc.returncode == 0, elapsed


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
    outcomes: list[tuple[str, bool, float]] = []
    for label, cmd in steps:
        ok, elapsed = run_step(label, cmd)
        outcomes.append((label, ok, elapsed))
    width = max(len(label) for label, _, _ in outcomes)
    print("\n" + "=" * (width + 18))
    failed = 0
    for label, ok, elapsed in outcomes:
        verdict = "ok" if ok else "FAILED"
        failed += not ok
        print(f"{label:<{width}}  {verdict:<7} {elapsed:>7.1f}s")
    print("=" * (width + 18))
    if failed:
        print(f"{failed}/{len(outcomes)} checks failed")
        return 1
    print(f"all {len(outcomes)} checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
