"""The benchmark's own smoke test, at a tiny size.

Run from the root of a checkout::

    python3 -m pytest -q stackbench/test_smoke.py

It checks that every workload emits exactly the metric names and units
of ``BENCHMARK.json`` in both modes, that the exact counts repeat
bit-for-bit for one seed, that no process, no ``/dev/shm`` segment and
no checkpoint directory survive a run (also an interrupted one), and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TMP = os.path.join(ROOT, ".bench_tmp")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _shm() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro-")}
    except FileNotFoundError:
        return set()


def _leftovers() -> list[str]:
    return sorted(os.listdir(TMP)) if os.path.isdir(TMP) else []


def _session(sid: int) -> list[int]:
    """Processes of session ``sid`` that are still alive."""
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, ValueError):
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _start(workload, seed, trace, seconds):
    """Start a run in a session of its own, so its leftovers can be found.

    Output goes to files, not pipes: waiting for a pipe's end would also
    wait for any process that inherited it.
    """
    out, err = tempfile.TemporaryFile("w+"), tempfile.TemporaryFile("w+")
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--small"],
        cwd=ROOT, stdout=out, stderr=err, start_new_session=True,
    )
    proc.files = (out, err)
    return proc


def _finish(proc, timeout):
    """Wait for a run, then check that it left no process behind."""
    try:
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert _session(proc.pid) == [], "a process outlived the run"
    texts = []
    for fh in proc.files:
        fh.seek(0)
        texts.append(fh.read())
        fh.close()
    return texts


def _run(workload, seed=3, trace=0, seconds=0.5, timeout=300):
    proc = _start(workload, seed, trace, seconds)
    out, err = _finish(proc, timeout)
    assert proc.returncode == 0, err[-2000:]
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def no_leaks():
    shm = _shm()
    yield
    assert _shm() - shm == set(), "a /dev/shm segment survived the run"
    assert _leftovers() == [], "a run directory survived the run"


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units(workload, trace):
    out = _run(workload, trace=trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())
        assert out["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    a = _run(workload, seed=5)["metrics"]
    b = _run(workload, seed=5)["metrics"]
    for name in ("probes_per_read", "cells_per_update"):
        assert a[name]["value"] == b[name]["value"], name


@pytest.mark.parametrize("workload", ["fabric-read", "churn"])
@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_run_leaves_nothing(workload, sig):
    proc = _start(workload, 1, 0, 600)
    time.sleep(6.0)
    running = proc.poll() is None
    proc.send_signal(sig)
    out, _ = _finish(proc, 60)
    assert running, "run ended before it was interrupted"
    assert proc.returncode != 0
    assert '"metrics"' not in out


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "stackbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
