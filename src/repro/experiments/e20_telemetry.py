"""E20 — telemetry: observation is free when off and sharp when on.

The telemetry layer (:mod:`repro.telemetry`) claims two things that
must both hold for it to be usable on the serving stack:

1. **Observation changes nothing.**  Every instrumented site is guarded
   by a single ``BUS.active`` test and the hub never touches a service
   RNG stream, so a run with full telemetry (metrics + tracing + bus
   collection) must leave per-cell, per-step probe accounting
   **byte-identical** to the same seeded run with telemetry absent.
2. **The monitor separates signal from noise.**  Under uniform replica
   routing the live count at cell ``(t, j)`` after ``Q`` completed
   queries is exactly ``Binomial(Q, Φ_t(j))`` (the E19 part A law), so
   the :class:`~repro.telemetry.monitor.ContentionMonitor` can compare
   streaming counts to the exact prediction online.  With the
   max-of-Gaussians-corrected 3σ threshold it must raise **zero false
   alarms** on ≥100 uniform-traffic batches, yet flag an injected hot
   key (50% of traffic on one key the prediction knows nothing about)
   within ``k`` batches, and flag a stuck router (all traffic pinned to
   one replica) via the
   :class:`~repro.telemetry.monitor.ReplicaBalanceMonitor`.

Parts:

- **Part A (zero perturbation)** — two identically seeded services and
  loadgen runs, one bare and one carrying a
  :class:`~repro.telemetry.hub.TelemetryHub` (metrics + tracing) with a
  bus collector subscribed; compare probe-count matrices byte for byte.
- **Part B (no false alarms)** — uniform traffic, monitor checked after
  *every* batch against the exact Φ_t of the served structure; ≥100
  checks, zero alarms required.
- **Part C (hot-cell detection)** — same service geometry, but the
  workload mixes 50% point mass on one member key into the uniform
  stream while the monitor still predicts from the uniform Φ_t; the
  hot key's probe cells must alarm within ``k = 32`` batches of the
  expected-count gate opening.
- **Part D (stuck router)** — a healthy round-robin service never
  alarms the balance monitor; the same service with every replica but
  one marked down (a stuck router) must alarm within a few checks.

Everything runs in virtual time with seeded RNG streams, so the whole
experiment — including every alarm's content — is byte-reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.contention import exact_contention
from repro.distributions import MixtureDistribution, PointMass
from repro.experiments.common import make_instance, uniform_distribution
from repro.io.results import ExperimentResult
from repro.serve import build_service, run_loadgen
from repro.telemetry import (
    ContentionMonitor,
    ReplicaBalanceMonitor,
    TelemetryHub,
    collect_bus_metrics,
)

CLAIM = (
    "Telemetry guarded behind a single disabled-bus test cannot perturb "
    "the probe accounting it observes, and a monitor comparing streaming "
    "per-cell counts against the exact Binomial(Q, Phi_t(j)) law "
    "separates injected hot-cell and router-skew anomalies from uniform "
    "traffic with zero false alarms."
)

#: Detection budget: a hot cell must alarm within this many batches.
DETECTION_BUDGET_BATCHES = 32


def _build(keys, N, seed, replicas=1, router="random", max_batch=32):
    return build_service(
        keys, N, num_shards=1, replicas=replicas, router=router,
        max_batch=max_batch, max_delay=0.25, seed=seed,
    )


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Run the experiment; ``fast`` shrinks ladders, ``seed`` fixes RNG."""
    n = 96 if fast else 160
    replicas = 3
    keys, N = make_instance(n, seed)
    dist = uniform_distribution(keys, N, 0.5)
    rows: list[dict] = []

    # -- Part A: telemetry on vs absent, byte-identical accounting ---------------
    requests_a = 2000 if fast else 6000
    svc_off = _build(keys, N, seed + 2, replicas=replicas)
    rep_off = run_loadgen(
        svc_off, dist, requests_a, discipline="open", rate=64.0,
        seed=seed + 3, expected_keys=keys,
    )
    counts_off = svc_off.cell_load_matrix(0)

    svc_on = _build(keys, N, seed + 2, replicas=replicas)
    hub_a = TelemetryHub(metrics=True, tracing=True)
    svc_on.attach_telemetry(hub_a)
    with collect_bus_metrics() as bus_reg:
        rep_on = run_loadgen(
            svc_on, dist, requests_a, discipline="open", rate=64.0,
            seed=seed + 3, expected_keys=keys,
        )
    counts_on = svc_on.cell_load_matrix(0)
    identical = bool(
        counts_off.shape == counts_on.shape
        and counts_off.tobytes() == counts_on.tobytes()
        and rep_off.completed == rep_on.completed
        and rep_off.probes == rep_on.probes
    )
    bus_probes = int(
        bus_reg.counter("probes", "cells probed").value
    )
    spans = len(hub_a.tracer.spans)
    rows.append(
        {
            "part": "A:identical",
            "completed": rep_on.completed,
            "probes_bare": rep_off.probes,
            "probes_observed": rep_on.probes,
            "bus_probes": bus_probes,
            "trace_spans": spans,
            "byte_identical": identical,
        }
    )

    # -- Part B: uniform traffic, zero false alarms over >= 100 batches ----------
    requests_b = 3200 if fast else 4800
    svc_b = _build(keys, N, seed + 4)
    phi_b = exact_contention(svc_b.shards[0], dist).phi
    mon_b = ContentionMonitor(phi_b, sigma_threshold=3.0)
    hub_b = TelemetryHub(metrics=True, contention=mon_b, check_every=1)
    svc_b.attach_telemetry(hub_b)
    rep_b = run_loadgen(
        svc_b, dist, requests_b, discipline="open", rate=64.0,
        seed=seed + 5, expected_keys=keys,
    )
    rows.append(
        {
            "part": "B:uniform",
            "completed": rep_b.completed,
            "checks": mon_b.checks,
            "cells_tested": mon_b.cells_tested,
            "threshold": round(
                mon_b.effective_threshold(max(mon_b.cells_tested, 1)), 2
            ),
            "false_alarms": len(mon_b.alarms),
        }
    )

    # -- Part C: injected hot key must alarm within the detection budget ---------
    requests_c = 4000 if fast else 8000
    hot_key = int(keys[0])
    hot_dist = MixtureDistribution(
        [PointMass(N, hot_key), dist], [0.5, 0.5]
    )
    svc_c = _build(keys, N, seed + 6, max_batch=128)
    phi_c = exact_contention(svc_c.shards[0], dist).phi
    mon_c = ContentionMonitor(phi_c, sigma_threshold=3.0)
    hub_c = TelemetryHub(metrics=True, contention=mon_c, check_every=1)
    svc_c.attach_telemetry(hub_c)
    run_loadgen(
        svc_c, hot_dist, requests_c, discipline="open", rate=512.0,
        seed=seed + 7, expected_keys=keys,
    )
    detected_c = mon_c.first_alarm_check
    top = max(mon_c.alarms, key=lambda a: a.z) if mon_c.alarms else None
    rows.append(
        {
            "part": "C:hot-cell",
            "hot_key": hot_key,
            "checks": mon_c.checks,
            "alarm_batch": detected_c if detected_c is not None else "never",
            "budget": DETECTION_BUDGET_BATCHES,
            "alarms": len(mon_c.alarms),
            "top_z": round(top.z, 1) if top else 0.0,
            "top_cell": top.cell if top else "-",
        }
    )

    # -- Part D: healthy round-robin is quiet; a stuck router alarms -------------
    # Round-robin assigns whole batches, so per-replica loads move in
    # clusters of roughly one batch's probe cost (~16 requests x ~3.5
    # probes); the balance monitor's cluster correction inflates the
    # per-probe multinomial variance accordingly, and min_total rises so
    # a check only fires once enough clusters have landed.
    requests_d = 2000 if fast else 4000
    balance_kwargs = dict(
        sigma_threshold=3.0, cluster=64.0, min_total=1024
    )
    svc_h = _build(
        keys, N, seed + 8, replicas=replicas, router="round-robin"
    )
    bal_h = ReplicaBalanceMonitor(replicas, **balance_kwargs)
    hub_h = TelemetryHub(metrics=False, balance=bal_h, check_every=1)
    svc_h.attach_telemetry(hub_h)
    run_loadgen(
        svc_h, dist, requests_d, discipline="open", rate=64.0,
        seed=seed + 9, expected_keys=keys,
    )
    svc_s = _build(
        keys, N, seed + 8, replicas=replicas, router="round-robin"
    )
    for r in range(1, replicas):
        svc_s.routers[0].mark_down(r)  # the stuck-router injection
    bal_s = ReplicaBalanceMonitor(replicas, **balance_kwargs)
    hub_s = TelemetryHub(metrics=False, balance=bal_s, check_every=1)
    svc_s.attach_telemetry(hub_s)
    run_loadgen(
        svc_s, dist, requests_d, discipline="open", rate=64.0,
        seed=seed + 9, expected_keys=keys,
    )
    detected_d = bal_s.first_alarm_check
    rows.append(
        {
            "part": "D:router",
            "healthy_checks": bal_h.checks,
            "healthy_alarms": len(bal_h.alarms),
            "stuck_alarm_check": (
                detected_d if detected_d is not None else "never"
            ),
            "stuck_replica": bal_s.alarms[0].replica if bal_s.alarms else "-",
            "stuck_z": round(bal_s.alarms[0].z, 1) if bal_s.alarms else 0.0,
        }
    )

    detected_ok = (
        detected_c is not None and detected_c <= DETECTION_BUDGET_BATCHES
    )
    passed = (
        identical
        and not mon_b.alarms
        and mon_b.checks >= 100
        and detected_ok
        and not bal_h.alarms
        and detected_d is not None
    )
    return ExperimentResult(
        experiment_id="E20",
        title="Telemetry: zero-perturbation observation and live "
        "contention monitoring against exact Phi_t",
        claim=CLAIM,
        rows=rows,
        finding=(
            f"Part A: with metrics, tracing ({spans} spans), and bus "
            f"collection all enabled, probe accounting is "
            f"{'byte-identical' if identical else 'DIFFERENT'} to the "
            f"bare service over {rep_on.completed} requests. Part B: "
            f"{mon_b.checks} per-batch checks of {mon_b.cells_tested} "
            f"cells against exact Binomial(Q, Phi_t) raised "
            f"{len(mon_b.alarms)} false alarms. Part C: a 50% hot key "
            f"tripped the corrected 3-sigma threshold at batch "
            f"{detected_c} (budget {DETECTION_BUDGET_BATCHES}; "
            f"{'holds' if detected_ok else 'FAILS'}). Part D: healthy "
            f"round-robin stayed quiet over {bal_h.checks} checks while "
            f"the stuck router alarmed at check {detected_d}."
        ),
        notes=(
            "The monitor's prediction is always the exact Phi_t of the "
            "*uniform* workload, so parts C and D detect anomalies the "
            "prediction knows nothing about. Cells are tested once "
            "their expected count reaches 10 (normal-approximation "
            "gate), against a max-of-Gaussians-corrected threshold "
            "sigma + sqrt(2 ln m) over the m tested cells."
        ),
        passed=passed,
    )
