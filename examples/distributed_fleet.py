"""Cross-machine cohort screening over localhost worker daemons.

An overnight Holter batch is too big for one workstation, so the lab
spreads it across machines: each box runs a **worker daemon**
(``python -m repro worker --listen HOST:PORT``) and the coordinating
workstation lists those addresses in its
:class:`~repro.engine.EngineConfig`.  The fleet scheduler then deals
the cohort's window shards to local slots *and* remote daemons alike,
over a typed binary socket protocol — and the merged spectrograms are
**bit-identical** to running everything in one process, because every
path executes the same pinned kernels in the same window order.

This walkthrough stays on one machine (two daemons on ephemeral
localhost ports) but the wire protocol is the real one:

1. spawn two worker daemons and read their bound addresses,
2. run a four-patient cohort through ``Engine.analyze_cohort`` with
   ``workers=[addr1, addr2]``,
3. verify every spectrogram and operation count matches the
   single-process engine bit for bit,
4. peek under the facade with :class:`~repro.fleet.FleetRunner` to see
   the shard/worker split and the bytes each daemon moved.

Run with:  python examples/distributed_fleet.py
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys

import numpy as np

from repro import Engine, EngineConfig, TachogramSpec
from repro.ecg.rr_synthesis import generate_tachogram
from repro.fleet import FleetRunner

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Patients in the overnight batch (kept small so the example is quick).
N_PATIENTS = 4

#: Minutes of RR data per patient.
MINUTES = 20.0


def spawn_daemon() -> tuple[subprocess.Popen, str]:
    """Start one worker daemon on an ephemeral port; return its address.

    On a real deployment this is one ``python -m repro worker`` per
    machine; the daemon prints the address to hand to the coordinator.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    banner = proc.stdout.readline()
    address = re.search(r"listening on (\S+)", banner).group(1)
    return proc, address


def main() -> None:
    recordings = [
        generate_tachogram(TachogramSpec(seed=2014 + k), MINUTES * 60.0)
        for k in range(N_PATIENTS)
    ]

    daemons = [spawn_daemon() for _ in range(2)]
    addresses = tuple(address for _proc, address in daemons)
    print(f"worker daemons up at {addresses[0]} and {addresses[1]}\n")
    try:
        # --- Act 1: the facade.  Same config, plus worker addresses. ---
        config = EngineConfig.for_mode("set3")
        local_engine = Engine(config)
        fleet_engine = Engine(config.replace(workers=addresses))
        try:
            reference = [
                local_engine.analyze(rr, count_ops=True)
                for rr in recordings
            ]
            distributed = fleet_engine.analyze_cohort(
                recordings, count_ops=True
            )
        finally:
            local_engine.close()
            fleet_engine.close()

        print("patient  windows  LF/HF   spectrogram      op counts")
        for k, (ref, dist) in enumerate(zip(reference, distributed)):
            same_gram = np.array_equal(
                ref.welch.spectrogram, dist.welch.spectrogram
            )
            same_ops = ref.counts == dist.counts
            print(
                f"  {k:>4}  {ref.welch.spectrogram.shape[0]:>7}  "
                f"{dist.lf_hf:5.2f}   "
                f"{'bit-identical' if same_gram else 'DIFFERS':<15}  "
                f"{'equal' if same_ops else 'DIFFER'}"
            )
            assert same_gram and same_ops

        # --- Act 2: under the facade — who did the work? -------------
        with FleetRunner(config.replace(workers=addresses)) as runner:
            report = runner.run_report(recordings)
            stats = runner.transport_stats()
        print(
            f"\n{report.n_shards} shards over {report.n_jobs} local "
            f"slot(s) + {report.n_remote_workers} remote daemon(s):"
        )
        for address, counters in stats.items():
            sent_kb = counters["bytes_sent"] / 1024.0
            recv_kb = counters["bytes_received"] / 1024.0
            print(
                f"  {address}: {sent_kb:7.1f} KiB sent, "
                f"{recv_kb:7.1f} KiB received"
            )
        print(
            "\nevery shard re-executes identically wherever it lands, "
            "so a dead\nworker just means its shards are dealt again — "
            "same spectra, later."
        )
    finally:
        for proc, _address in daemons:
            proc.send_signal(signal.SIGINT)
        for proc, _address in daemons:
            proc.wait(timeout=10.0)
            proc.stdout.close()
    print("worker daemons shut down cleanly")


if __name__ == "__main__":
    main()
