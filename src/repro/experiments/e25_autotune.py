"""E25 — the control plane earns its keep: adaptive beats best static.

ROADMAP item 4 made real: the Section 3 regime (arbitrary query
distributions, the Ω(log log n) contention trade-off) as a *systems*
question.  A static uniform deployment assumes uniform queries; under
Zipf or flash-crowd load the per-shard contention Φ_t concentrates and
moves, so the static config either over-provisions cold ranges or
saturates hot ones.  Five questions:

- **Part A (Zipf)** — an open-loop Zipf workload against the adaptive
  service (controller on, total replica budget equal to the best
  static uniform config) vs every static uniform config: the adaptive
  deployment must beat the *best* static one on p99 latency without
  shedding more, at equal query probe budget per completed request
  (query probes are replica-count-independent; all clone/verify work
  lands on the reconfiguration counter).
- **Part B (flash crowd)** — a three-phase workload (uniform → hotspot
  on one shard's range → uniform): the controller must chase the
  moving hotspot (split it, fund splits by joining cold shards) and
  again beat the best static uniform config end-to-end.
- **Part C (oracle gap)** — per phase of the flash crowd, the gap
  between the adaptive deployment and a static *oracle* tuned per
  phase with hindsight (best uniform config measured on that phase
  alone).  Reported, not gated: the oracle re-provisions instantly
  and pays no adaptation cost, so it lower-bounds what any online
  controller can do.
- **Part D (chaos)** — the controller runs *during* a chaos schedule
  (replica crash + silent corruption) against the self-healing stack:
  zero wrong answers, zero quarantine violations, and structural
  actions on unhealthy shards are refused (skipped), never corrupting.
- **Part E (identity)** — the zero-overhead-when-off contract: a
  service with the controller attached-but-disabled must leave every
  per-shard query-probe-counter digest byte-identical to a service
  that never had a controller; toggling clone verification must change
  no decision and no query-path probe (verification probes land only
  on the reconfiguration counter); and re-running the adaptive
  deployment reproduces its decision trace digest byte-for-byte.
"""

from __future__ import annotations

import json
import hashlib

import numpy as np

from repro.autotune import AutotunePolicy, replay_trace
from repro.errors import DegradedModeError, OverloadError
from repro.experiments.common import make_instance
from repro.io.results import ExperimentResult
from repro.serve.chaos import ChaosSchedule, run_chaos
from repro.serve.service import build_service
from repro.utils.rng import as_generator

CLAIM = (
    "Section 3 regime (arbitrary distributions) as a systems question: "
    "under Zipf and flash-crowd workloads a closed-loop controller that "
    "moves replication to where Phi_t concentrates beats the best "
    "static uniform config on p99 latency without shedding more, at "
    "equal query probe budget; it concedes zero wrong answers under "
    "chaos, its decision traces replay byte-for-byte, and disabled it "
    "is digest-byte-identical to a controller-free service."
)

#: Instance and service geometry (shared by every part).
N_KEYS = 192
NUM_SHARDS = 4
PROBE_TIME = 0.02
MAX_BATCH = 8
MAX_DELAY = 0.25
CAPACITY = 96
RATE = 48.0

#: Uniform replica counts the static sweep tries; the adaptive budget
#: equals the largest static total, making the comparison equal-budget.
STATIC_REPLICAS = (2, 3)
REPLICA_BUDGET = STATIC_REPLICAS[-1] * NUM_SHARDS


def _policy(**overrides) -> AutotunePolicy:
    """The E25 controller policy: structural scaling, fast cadence."""
    base = dict(
        high_load=1.6,
        low_load=0.5,
        # Floor at R=2: a transiently cold shard must stay serviceable
        # when the hotspot moves off it (joining to R=1 is what loses
        # the post-flash uniform phase).
        min_replicas=2,
        # Ceiling at 6 lets the controller concentrate half the budget
        # on one shard during a flash crowd ([2,2,2,6] at budget 12).
        max_replicas=6,
        max_total_replicas=REPLICA_BUDGET,
        # Absolute-pressure band: split a shard whose replica backlog
        # runs >1 virtual second ahead of now even when no shard is
        # relatively hot (uniform saturation), and only join shards
        # drained to <=0.25s.  The cadence is fast relative to the
        # ~4-second flash-crowd phases: the controller must complete
        # several structural moves inside one phase to beat a static
        # config that never pays adaptation lag.
        split_backlog=1.0,
        join_backlog=0.25,
        cooldown=1.5,
        check_every=0.5,
        # Admission tuning off for the latency comparison: shed_high=2
        # is an unreachable shed fraction and the slack is effectively
        # infinite, so only split/join act.
        shed_high=2.0,
        backlog_slack=1e9,
    )
    base.update(overrides)
    return AutotunePolicy(**base)


def _service(keys, universe, replicas, seed, scheme="low-contention"):
    """One service instance with the shared E25 geometry."""
    return build_service(
        keys, universe,
        num_shards=NUM_SHARDS,
        replicas=replicas,
        scheme=scheme,
        max_batch=MAX_BATCH,
        max_delay=MAX_DELAY,
        capacity=CAPACITY,
        probe_time=PROBE_TIME,
        seed=seed,
    )


def _zipf_stream(keys, universe, requests, rng, exponent=1.1):
    """Zipf-over-ranked-keys queries (plus 10% uniform negatives).

    Sorted keys get rank weights ``1/rank^exponent``, so the mass
    concentrates on the lowest key range — shard 0 — exactly the
    non-uniform Phi_t the Section 3 regime is about.
    """
    ranks = np.arange(1, keys.size + 1, dtype=np.float64)
    weights = ranks ** (-float(exponent))
    weights /= weights.sum()
    xs = rng.choice(keys, size=requests, p=weights)
    negatives = rng.random(requests) < 0.1
    xs[negatives] = rng.integers(0, universe, size=int(negatives.sum()))
    return xs.astype(np.int64)


def _flash_segments(keys, universe, requests, rng):
    """Uniform → hotspot on the *last* shard's range → uniform."""
    thirds = [requests // 3, requests // 3,
              requests - 2 * (requests // 3)]
    lo = (universe * (NUM_SHARDS - 1)) // NUM_SHARDS
    segments = []
    for phase, count in enumerate(thirds):
        if phase == 1:
            hot = rng.integers(lo, universe, size=count)
            cold = rng.integers(0, universe, size=count)
            take_hot = rng.random(count) < 0.85
            xs = np.where(take_hot, hot, cold)
        else:
            xs = rng.integers(0, universe, size=count)
        segments.append(xs.astype(np.int64))
    return segments


def _drive(service, segments, seed, rate=RATE):
    """Open-loop drive of one or more workload segments, back to back.

    Poisson arrivals at ``rate``; pending batch deadlines flush before
    each arrival (the controller ticks from those advances).  Returns
    per-segment metric dicts: completed/shed/wrong, latency p50/p99,
    and the query-path probe total at segment end.
    """
    rng = as_generator(seed)
    now = 0.0
    results = []
    for xs in segments:
        gaps = rng.exponential(1.0 / float(rate), size=len(xs))
        arrivals = now + np.cumsum(gaps)
        tickets = []
        shed = 0
        for x, t in zip(xs, arrivals):
            t = float(t)
            while True:
                deadline = service.next_deadline()
                if deadline is None or deadline > t:
                    break
                service.advance(deadline)
            service.advance(t)
            try:
                tickets.append((int(x), service.submit(int(x), t)))
            except (OverloadError, DegradedModeError):
                shed += 1
        now = float(arrivals[-1])
        service.drain(now + 1.0)
        latencies = np.asarray([
            tk.latency for _, tk in tickets if tk.done
        ])
        results.append({
            "offered": len(xs),
            "completed": int(latencies.size),
            "shed": int(shed),
            "wrong": sum(
                1 for x, tk in tickets if tk.done
                and tk.answer != bool(tk.key in service._key_set)
            ),
            "p50": float(np.percentile(latencies, 50))
            if latencies.size else 0.0,
            "p99": float(np.percentile(latencies, 99))
            if latencies.size else 0.0,
            "probes": int(service.stats.probes),
        })
    return results


def _merge(segments):
    """Collapse per-segment drive metrics into one end-to-end row."""
    total = {
        "offered": sum(s["offered"] for s in segments),
        "completed": sum(s["completed"] for s in segments),
        "shed": sum(s["shed"] for s in segments),
        "wrong": sum(s["wrong"] for s in segments),
        "p99": max(s["p99"] for s in segments),
        "probes": segments[-1]["probes"],
    }
    total["shed_rate"] = (
        total["shed"] / total["offered"] if total["offered"] else 0.0
    )
    total["probes_per_completed"] = (
        total["probes"] / total["completed"] if total["completed"] else 0.0
    )
    return total


def _prepare(service, keys):
    """Pre-compute the membership set used for wrong-answer checks."""
    service._key_set = set(int(k) for k in keys)
    return service


def _compare_adaptive_static(
    keys, universe, segments_of, seed, part
) -> tuple[list[dict], bool, dict]:
    """Shared A/B machinery: adaptive vs every static uniform config."""
    rows = []
    static = {}
    for replicas in STATIC_REPLICAS:
        service = _prepare(
            _service(keys, universe, replicas, seed + 10 + replicas),
            keys,
        )
        static[replicas] = _merge(
            _drive(service, segments_of(), seed + 1)
        )
        rows.append({
            "part": part, "config": f"static R={replicas}",
            "replicas_total": replicas * NUM_SHARDS,
            **{k: round(v, 4) if isinstance(v, float) else v
               for k, v in static[replicas].items()},
        })
    best = min(
        static.values(), key=lambda m: (m["shed_rate"], m["p99"])
    )
    adaptive_service = _prepare(
        _service(keys, universe, 2, seed + 20), keys
    )
    controller = adaptive_service.enable_autotune(
        policy=_policy(), seed=seed + 21
    )
    adaptive = _merge(_drive(adaptive_service, segments_of(), seed + 1))
    adaptive["replicas_final"] = [
        s.replicas for s in adaptive_service.shards
    ]
    probe_ratio = (
        adaptive["probes_per_completed"] / best["probes_per_completed"]
        if best["probes_per_completed"] else 1.0
    )
    ok = (
        adaptive["p99"] < best["p99"]
        and adaptive["shed_rate"] <= best["shed_rate"]
        and adaptive["wrong"] == 0
        and sum(adaptive["replicas_final"]) <= REPLICA_BUDGET
        and probe_ratio <= 1.15
        and controller.applied > 0
    )
    rows.append({
        "part": part, "config": "adaptive",
        "replicas_total": sum(adaptive["replicas_final"]),
        **{k: round(v, 4) if isinstance(v, float) else v
           for k, v in adaptive.items()
           if k != "replicas_final"},
        "replicas_final": str(adaptive["replicas_final"]),
        "actions": controller.applied,
        "reconfig_probes": controller.executor.reconfig_probes,
        "probe_ratio_vs_best_static": round(probe_ratio, 4),
        "beats_best_static": bool(
            adaptive["p99"] < best["p99"]
            and adaptive["shed_rate"] <= best["shed_rate"]
        ),
    })
    return rows, ok, {"adaptive": adaptive, "controller": controller}


def _part_a_zipf(fast: bool, seed: int) -> tuple[list[dict], bool]:
    """Adaptive vs static uniform sweep under a Zipf workload."""
    requests = 600 if fast else 1200
    keys, universe = make_instance(N_KEYS, seed)
    rng = as_generator(seed + 5)
    xs = _zipf_stream(keys, universe, requests, rng)
    rows, ok, _ = _compare_adaptive_static(
        keys, universe, lambda: [xs.copy()], seed, "A zipf"
    )
    return rows, ok


def _part_b_flash(fast: bool, seed: int) -> tuple[list[dict], bool]:
    """Adaptive vs static uniform sweep under a flash-crowd workload.

    Phases span several controller cooldowns: a flash crowd shorter
    than the control loop's reaction time is unwinnable by *any*
    online controller (part C quantifies that lag against the
    hindsight oracle).
    """
    requests = 900 if fast else 1800
    keys, universe = make_instance(N_KEYS, seed)
    rng = as_generator(seed + 6)
    segments = _flash_segments(keys, universe, requests, rng)
    rows, ok, _ = _compare_adaptive_static(
        keys, universe,
        lambda: [s.copy() for s in segments], seed, "B flash",
    )
    return rows, ok


def _part_c_oracle(fast: bool, seed: int) -> tuple[list[dict], bool]:
    """Per-phase gap to the hindsight-tuned static oracle (reported)."""
    requests = 900 if fast else 1800
    keys, universe = make_instance(N_KEYS, seed)
    rng = as_generator(seed + 6)
    segments = _flash_segments(keys, universe, requests, rng)
    adaptive_service = _prepare(
        _service(keys, universe, 2, seed + 30), keys
    )
    adaptive_service.enable_autotune(policy=_policy(), seed=seed + 31)
    adaptive_phases = _drive(
        adaptive_service, [s.copy() for s in segments], seed + 1
    )
    rows = []
    ok = True
    for phase, (segment, adaptive) in enumerate(
        zip(segments, adaptive_phases)
    ):
        oracle_p99 = None
        oracle_cfg = None
        for replicas in STATIC_REPLICAS:
            service = _prepare(
                _service(
                    keys, universe, replicas,
                    seed + 40 + phase * 10 + replicas,
                ),
                keys,
            )
            phase_metrics = _drive(
                service, [segment.copy()], seed + 1
            )[0]
            if oracle_p99 is None or phase_metrics["p99"] < oracle_p99:
                oracle_p99 = phase_metrics["p99"]
                oracle_cfg = replicas
        gap = (
            adaptive["p99"] / oracle_p99 if oracle_p99 else 1.0
        )
        ok = ok and adaptive["wrong"] == 0
        rows.append({
            "part": "C oracle", "phase": phase,
            "adaptive p99": round(adaptive["p99"], 4),
            "oracle p99": round(float(oracle_p99), 4),
            "oracle config": f"uniform R={oracle_cfg}",
            "p99 gap (x)": round(float(gap), 3),
        })
    return rows, ok


def _part_d_chaos(fast: bool, seed: int) -> tuple[list[dict], bool]:
    """Controller + healing + chaos: zero wrong answers, safe refusals."""
    from repro.experiments.common import uniform_distribution
    from repro.faults import FaultConfig

    requests = 400 if fast else 800
    keys, universe = make_instance(N_KEYS, seed)
    # Chaos needs injectable shards: armed fault hooks + failover mode.
    armed = build_service(
        keys, universe,
        num_shards=NUM_SHARDS, replicas=5, max_batch=MAX_BATCH,
        max_delay=MAX_DELAY, capacity=CAPACITY, probe_time=PROBE_TIME,
        mode="failover", faults=FaultConfig(armed=True), seed=seed + 50,
    )
    armed.enable_healing(seed=seed + 51)
    # low_load=0 disables joins so the schedule's replica indices stay
    # valid; splits and admission moves still exercise the controller
    # against live chaos.
    controller = armed.enable_autotune(
        policy=_policy(low_load=0.0, max_total_replicas=None),
        seed=seed + 52,
    )
    horizon = requests / RATE
    schedule = ChaosSchedule.generate(
        seed + 53, horizon=horizon, replicas=5,
        inner_cells=armed.shards[0].inner.table.num_cells,
        shard=0, crashes=1, corruptions=1, stuck=0, spikes=1,
    )
    report = run_chaos(
        armed, uniform_distribution(keys, universe), schedule,
        requests, RATE, seed=seed + 54, expected_keys=keys,
    )
    ok = (
        report.wrong_answers == 0
        and armed.health.violations == 0
    )
    rows = [{
        "part": "D chaos",
        "completed": report.completed,
        "wrong answers": report.wrong_answers,
        "violations": armed.health.violations,
        "events applied": report.events_applied,
        "controller actions": controller.applied,
        "controller skips": controller.skipped,
        "replicas_final": str([s.replicas for s in armed.shards]),
        "zero wrong": bool(report.wrong_answers == 0),
    }]
    return rows, ok


def _counter_digests(service) -> list[str]:
    """Per-shard query-path probe-counter digests."""
    return [s.table.counter.digest() for s in service.shards]


def _entries_digest(controller) -> str:
    """SHA-256 over the trace's (observation, decisions) entries only.

    The full trace payload embeds the policy (including the
    ``verify_clones`` flag), so two runs differing *only* in
    verification legitimately differ there; decision equality is
    stated over the entries.
    """
    payload = json.dumps(
        controller.trace_payload()["entries"],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _part_e_identity(fast: bool, seed: int) -> tuple[list[dict], bool]:
    """Disabled-controller identity + verify-on/off isolation + replay."""
    requests = 400 if fast else 800
    keys, universe = make_instance(N_KEYS, seed)
    rng = as_generator(seed + 60)
    xs = _zipf_stream(keys, universe, requests, rng)

    # (i) attached-but-disabled vs never-attached: byte-identical.
    bare = _prepare(_service(keys, universe, 2, seed + 61), keys)
    _drive(bare, [xs.copy()], seed + 2)
    disabled = _prepare(_service(keys, universe, 2, seed + 61), keys)
    disabled.enable_autotune(policy=_policy(), seed=seed + 62,
                             enabled=False)
    _drive(disabled, [xs.copy()], seed + 2)
    disabled_identical = (
        _counter_digests(bare) == _counter_digests(disabled)
    )

    # (ii) clone verification on vs off: same decisions, same
    # query-path probes, strictly more reconfiguration probes.
    outcomes = {}
    for verify in (True, False):
        service = _prepare(_service(keys, universe, 2, seed + 63), keys)
        controller = service.enable_autotune(
            policy=_policy(verify_clones=verify), seed=seed + 64
        )
        _drive(service, [xs.copy()], seed + 2)
        outcomes[verify] = {
            "entries": _entries_digest(controller),
            "query_probes": int(service.stats.probes),
            "reconfig_probes": int(controller.executor.reconfig_probes),
            "controller": controller,
        }
    verify_isolated = (
        outcomes[True]["entries"] == outcomes[False]["entries"]
        and outcomes[True]["query_probes"]
        == outcomes[False]["query_probes"]
        and outcomes[True]["reconfig_probes"]
        > outcomes[False]["reconfig_probes"] > 0
    )

    # (iii) the trace replays byte-for-byte through the pure engine.
    replay = replay_trace(
        outcomes[True]["controller"].trace_payload()
    )
    ok = disabled_identical and verify_isolated and replay["match"]
    rows = [{
        "part": "E identity",
        "disabled digests identical": bool(disabled_identical),
        "verify on/off decisions identical": bool(
            outcomes[True]["entries"] == outcomes[False]["entries"]
        ),
        "query probes (verify on/off)": (
            f"{outcomes[True]['query_probes']}/"
            f"{outcomes[False]['query_probes']}"
        ),
        "reconfig probes (verify on/off)": (
            f"{outcomes[True]['reconfig_probes']}/"
            f"{outcomes[False]['reconfig_probes']}"
        ),
        "trace replays": bool(replay["match"]),
    }]
    return rows, ok


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Run E25 and return its result table."""
    rows: list[dict] = []
    all_ok = True
    for part in (_part_a_zipf, _part_b_flash, _part_c_oracle,
                 _part_d_chaos, _part_e_identity):
        part_rows, ok = part(fast, seed)
        rows.extend(part_rows)
        all_ok = all_ok and ok
    rows.append({"part": "gate", "all checks passed": all_ok})
    finding = (
        "Adaptive replication beats the best static uniform config on "
        "p99 without extra shedding under Zipf and flash-crowd load at "
        "equal query probe budget; zero wrong answers under chaos; "
        "decision traces replay byte-for-byte; disabled, the "
        "controller is digest-byte-identical to a controller-free "
        "service."
    )
    if not all_ok:
        finding += "  *** GATE FAILED ***"
    return ExperimentResult(
        experiment_id="E25",
        title=(
            "Autotune: closed-loop replication, scheme, and admission "
            "control (control-plane extension)"
        ),
        claim=CLAIM,
        rows=rows,
        finding=finding,
        passed=all_ok,
    )
