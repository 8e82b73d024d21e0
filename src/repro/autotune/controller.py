"""The closed-loop controller: observe → decide → apply, deterministically.

The control plane is split so that every decision is byte-replayable:

- :class:`Observation` — a frozen, JSON-round-trippable snapshot of the
  signals one controller tick sees (per-shard probe-work deltas,
  replica counts, schemes, virtual-time backlog, admission deltas).
  Observations are *data*: taking one reads counters and busy-until
  clocks only, never charges a probe, and never touches an RNG stream.
- :class:`DecisionEngine` — a pure function of (policy, capabilities,
  observation history).  ``decide`` draws no randomness and reads no
  live service state, so identical observation streams under the same
  policy produce identical decision lists — the purity property the
  trace replay (:func:`replay_trace`) and the satellite property tests
  check byte-for-byte.
- :class:`AutotuneController` — the loop glue: paces ticks by
  ``check_every`` in virtual time, takes observations off the live
  service, records ``(observation, decisions)`` trace entries, and
  hands decisions to the :class:`~repro.autotune.reconfig.
  ReconfigExecutor`.  Apply *outcomes* (a split skipped because a
  replica was quarantined) are recorded beside the trace, not in it —
  the trace captures what the pure engine decided, which is what
  replays.

A disabled controller (``enabled=False``) never observes, never
decides, and never mutates — attaching one is digest-byte-identical to
a controller-free service (gated by E25 part E and the satellite
property tests).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.autotune.policy import AutotunePolicy
from repro.autotune.reconfig import ReconfigExecutor, scheme_name
from repro.errors import ReconfigError

__all__ = [
    "Observation",
    "Decision",
    "DecisionEngine",
    "AutotuneController",
    "replay_trace",
]


@dataclasses.dataclass(frozen=True)
class Observation:
    """One controller tick's view of the service, as plain data.

    Per-shard sequences are index-aligned with ``service.shards``.
    ``shard_probes`` / ``admitted`` / ``shed`` are deltas over the
    window since the previous observation; ``shard_backlog`` is how far
    each shard's busiest replica's virtual busy-until clock runs ahead
    of ``now`` (the tail-latency proxy).
    """

    now: float
    shard_probes: tuple
    shard_replicas: tuple
    shard_schemes: tuple
    shard_backlog: tuple
    admitted: int
    shed: int
    in_flight: int
    capacity: int
    pending_updates: int = 0
    update_capacity: int = 0

    def to_dict(self) -> dict:
        """JSON-safe form (tuples become lists)."""
        d = dataclasses.asdict(self)
        for key in ("shard_probes", "shard_replicas", "shard_schemes",
                    "shard_backlog"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Observation":
        """Rebuild an observation from :meth:`to_dict` output."""
        fields = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in d.items() if k in fields}
        for key in ("shard_probes", "shard_replicas", "shard_schemes",
                    "shard_backlog"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclasses.dataclass(frozen=True)
class Decision:
    """One action the engine chose: what, where, from → to, and why."""

    now: float
    kind: str
    shard: int
    before: int
    after: int
    reason: str
    target: str = ""

    def to_dict(self) -> dict:
        """JSON-safe dict form (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Decision":
        """Rebuild a decision from :meth:`to_dict` output."""
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in fields})


class DecisionEngine:
    """Pure hysteresis policy: observations in, decisions out.

    The only state carried between calls is the cooldown book — per
    ``(action-class, shard)`` virtual-time stamps armed when a decision
    is issued — which is itself a deterministic function of the
    observation stream.  ``decide`` never draws randomness; ``seed`` is
    recorded as part of the trace identity because it seeds the
    *executor's* structural draws (new router and scheme seeds), which
    replays must reproduce.
    """

    def __init__(self, policy: AutotunePolicy, capabilities, seed=0):
        self.policy = policy
        self.capabilities = frozenset(capabilities)
        self.seed = int(seed)
        self._cooldowns: dict = {}

    # -- cooldown book -----------------------------------------------------------

    def _ready(self, key, now: float) -> bool:
        stamp = self._cooldowns.get(key)
        return stamp is None or now - stamp >= self.policy.cooldown

    def _arm(self, key, now: float) -> None:
        self._cooldowns[key] = now

    # -- the policy itself -------------------------------------------------------

    def decide(self, obs: Observation) -> list:
        """All actions this observation warrants, in apply order."""
        decisions: list[Decision] = []
        decisions += self._decide_capacity(obs)
        decisions += self._decide_update_capacity(obs)
        decisions += self._decide_structural(obs)
        decisions += self._decide_scheme(obs)
        return decisions

    def _decide_capacity(self, obs: Observation) -> list:
        if "capacity" not in self.capabilities:
            return []
        p = self.policy
        now = obs.now
        if not self._ready(("capacity", -1), now):
            return []
        offered = obs.admitted + obs.shed
        shed_frac = obs.shed / offered if offered else 0.0
        backlog = max(obs.shard_backlog) if obs.shard_backlog else 0.0
        cur = obs.capacity
        if backlog > p.backlog_slack and cur > p.min_capacity:
            after = max(p.min_capacity, cur - p.capacity_step)
            reason = (
                f"backlog {backlog:.3f} > slack {p.backlog_slack}: "
                f"shed earlier to protect tail latency"
            )
        elif (shed_frac > p.shed_high and backlog <= p.backlog_slack
              and cur < p.max_capacity):
            after = min(p.max_capacity, cur + p.capacity_step)
            reason = (
                f"shed fraction {shed_frac:.4f} > {p.shed_high} with "
                f"backlog {backlog:.3f} inside slack: admit more"
            )
        elif (p.shed_low > 0.0 and shed_frac < p.shed_low
              and cur > p.min_capacity):
            after = max(p.min_capacity, cur - p.capacity_step)
            reason = (
                f"shed fraction {shed_frac:.4f} < {p.shed_low}: "
                f"reclaim idle admission headroom"
            )
        else:
            return []
        self._arm(("capacity", -1), now)
        return [Decision(
            now=now, kind="capacity", shard=-1, before=cur,
            after=after, reason=reason,
        )]

    def _decide_update_capacity(self, obs: Observation) -> list:
        if ("update-capacity" not in self.capabilities
                or obs.update_capacity <= 0):
            return []
        p = self.policy
        now = obs.now
        if not self._ready(("update-capacity", -1), now):
            return []
        fill = obs.pending_updates / obs.update_capacity
        cur = obs.update_capacity
        if fill > p.backlog_high and cur < p.max_update_capacity:
            after = min(p.max_update_capacity, cur + p.update_capacity_step)
            reason = (
                f"update backlog fill {fill:.3f} > {p.backlog_high}: "
                f"absorb the write burst"
            )
        elif fill < p.backlog_low and cur > p.min_update_capacity:
            after = max(p.min_update_capacity, cur - p.update_capacity_step)
            reason = (
                f"update backlog fill {fill:.3f} < {p.backlog_low}: "
                f"tighten the read-your-writes bound"
            )
        else:
            return []
        self._arm(("update-capacity", -1), now)
        return [Decision(
            now=now, kind="update-capacity", shard=-1, before=cur,
            after=after, reason=reason,
        )]

    def _shares(self, obs: Observation):
        total = float(sum(obs.shard_probes))
        if total <= 0.0:
            return None
        return [p / total for p in obs.shard_probes]

    def _decide_structural(self, obs: Observation) -> list:
        if "split" not in self.capabilities:
            return []
        shares = self._shares(obs)
        if shares is None:
            return []
        p = self.policy
        now = obs.now
        fair = 1.0 / len(shares)
        backlog = obs.shard_backlog
        # A shard deserves another replica when it is *relatively* hot
        # (probe share above the high band) or *absolutely* saturated
        # (virtual-time backlog above split_backlog — a uniformly
        # overloaded service has no hot shard but must still grow).
        # Backlog pressure ranks first: it is the direct tail signal.
        hot = sorted(
            (
                i for i in range(len(shares))
                if (shares[i] > p.high_load * fair
                    or backlog[i] > p.split_backlog)
                and obs.shard_replicas[i] < p.max_replicas
                and self._ready(("structural", i), now)
            ),
            key=lambda i: (-backlog[i], -shares[i], i),
        )
        cold = sorted(
            (
                i for i in range(len(shares))
                if shares[i] < p.low_load * fair
                and backlog[i] <= p.join_backlog
                and obs.shard_replicas[i] > p.min_replicas
                and self._ready(("structural", i), now)
            ),
            key=lambda i: (shares[i], i),
        )
        if hot:
            target = hot[0]
            total_replicas = int(sum(obs.shard_replicas))
            decisions: list[Decision] = []
            if (p.max_total_replicas is not None
                    and total_replicas >= p.max_total_replicas):
                # At budget: fund the split by joining first — the LFCA
                # move, shifting replication from unpressured ranges to
                # hot ones at constant total cost.  Any drained,
                # non-hot shard with spare replicas can fund, most
                # over-provisioned first; a funder must never itself be
                # backlogged (the join would trade one tail for
                # another).
                funders = sorted(
                    (
                        i for i in range(len(shares))
                        if i != target
                        and shares[i] <= p.high_load * fair
                        and backlog[i] <= p.join_backlog
                        and obs.shard_replicas[i] > p.min_replicas
                        and self._ready(("structural", i), now)
                    ),
                    key=lambda i: (-obs.shard_replicas[i], shares[i], i),
                )
                if not funders:
                    return []
                victim = funders[0]
                self._arm(("structural", victim), now)
                decisions.append(Decision(
                    now=now, kind="join", shard=victim,
                    before=obs.shard_replicas[victim],
                    after=obs.shard_replicas[victim] - 1,
                    reason=(
                        f"share {shares[victim]:.3f}, backlog "
                        f"{backlog[victim]:.3f}: fund the hot split "
                        f"inside the {p.max_total_replicas}-replica budget"
                    ),
                ))
            self._arm(("structural", target), now)
            if backlog[target] > p.split_backlog:
                reason = (
                    f"backlog {backlog[target]:.3f} > "
                    f"{p.split_backlog}: grow replication on the "
                    f"saturated shard"
                )
            else:
                reason = (
                    f"share {shares[target]:.3f} > "
                    f"{p.high_load:.2f}x fair share {fair:.3f}: "
                    f"grow replication on the hot shard"
                )
            decisions.append(Decision(
                now=now, kind="split", shard=target,
                before=obs.shard_replicas[target],
                after=obs.shard_replicas[target] + 1,
                reason=reason,
            ))
            return decisions
        if cold:
            victim = cold[0]
            self._arm(("structural", victim), now)
            return [Decision(
                now=now, kind="join", shard=victim,
                before=obs.shard_replicas[victim],
                after=obs.shard_replicas[victim] - 1,
                reason=(
                    f"share {shares[victim]:.3f} < "
                    f"{p.low_load:.2f}x fair share {fair:.3f}: "
                    f"drain and release the cold replica"
                ),
            )]
        return []

    def _decide_scheme(self, obs: Observation) -> list:
        if ("scheme-switch" not in self.capabilities
                or not self.policy.scheme_switching):
            return []
        shares = self._shares(obs)
        if shares is None:
            return []
        p = self.policy
        now = obs.now
        fair = 1.0 / len(shares)
        order = sorted(range(len(shares)), key=lambda i: (-shares[i], i))
        for i in order:
            if (shares[i] > p.high_load * fair
                    and obs.shard_schemes[i] != p.hot_scheme
                    and self._ready(("structural", i), now)):
                self._arm(("structural", i), now)
                return [Decision(
                    now=now, kind="scheme-switch", shard=i,
                    before=obs.shard_replicas[i],
                    after=obs.shard_replicas[i],
                    target=p.hot_scheme,
                    reason=(
                        f"hot shard ({shares[i]:.3f} share) on "
                        f"{obs.shard_schemes[i]!r}: rebuild on the "
                        f"low-contention scheme"
                    ),
                )]
        for i in reversed(order):
            if (shares[i] < p.low_load * fair
                    and obs.shard_schemes[i] != p.cold_scheme
                    and self._ready(("structural", i), now)):
                self._arm(("structural", i), now)
                return [Decision(
                    now=now, kind="scheme-switch", shard=i,
                    before=obs.shard_replicas[i],
                    after=obs.shard_replicas[i],
                    target=p.cold_scheme,
                    reason=(
                        f"cold shard ({shares[i]:.3f} share) on "
                        f"{obs.shard_schemes[i]!r}: rebuild on the "
                        f"space-lean scheme"
                    ),
                )]
        return []


class AutotuneController:
    """Loop glue between a live service and the pure decision engine."""

    def __init__(self, service, policy: AutotunePolicy | None = None,
                 seed=0, enabled: bool = True):
        self.service = service
        self.policy = policy if policy is not None else AutotunePolicy()
        self.seed = int(seed)
        self.enabled = bool(enabled)
        self.executor = ReconfigExecutor(service, seed=seed)
        self.engine = DecisionEngine(
            self.policy, self.executor.capabilities, seed=seed
        )
        self._last_check: float | None = None
        # Window baselines for delta signals.  Reading counters here is
        # uncharged (totals, not probes) and touches no RNG stream.
        self._prev_probes = self._shard_probe_totals()
        self._prev_replicas = self._shard_replica_counts()
        self._prev_admitted = int(service.admission.admitted)
        self._prev_shed = int(service.admission.shed)
        #: Trace of ``{"observation": ..., "decisions": [...]}`` entries
        #: — what the pure engine saw and chose; replayable.
        self.trace: list[dict] = []
        #: Apply outcomes (kept out of the trace: a skip depends on live
        #: health state the pure engine does not see).
        self.applied = 0
        self.skipped = 0
        self.skips: list[dict] = []

    # -- raw signal taps ---------------------------------------------------------

    def _shard_probe_totals(self) -> list:
        return [s.probe_total() for s in self.service.shards]

    def _shard_replica_counts(self) -> list:
        return [int(s.replicas) for s in self.service.shards]

    # -- observe -----------------------------------------------------------------

    def observe(self, now: float) -> Observation:
        """Snapshot the current window's signals (uncharged reads only)."""
        service = self.service
        cur_probes = self._shard_probe_totals()
        cur_replicas = self._shard_replica_counts()
        deltas = []
        for i, cur in enumerate(cur_probes):
            prev = (
                self._prev_probes[i]
                if i < len(self._prev_probes) else 0
            )
            geometry_changed = (
                i >= len(self._prev_replicas)
                or cur_replicas[i] != self._prev_replicas[i]
            )
            # A structural swap installs a fresh table with a fresh
            # counter, so the running total resets; the post-swap total
            # *is* the window's work.
            deltas.append(cur if geometry_changed or cur < prev else
                          cur - prev)
        backlog = tuple(
            round(max(0.0, float(np.max(b)) - float(now)), 6)
            for b in service._busy_until
        )
        writes = "update-capacity" in service.capabilities
        admitted = int(service.admission.admitted)
        shed = int(service.admission.shed)
        obs = Observation(
            now=float(now),
            shard_probes=tuple(deltas),
            shard_replicas=tuple(cur_replicas),
            shard_schemes=tuple(
                scheme_name(s) for s in service.shards
            ),
            shard_backlog=backlog,
            admitted=admitted - self._prev_admitted,
            shed=shed - self._prev_shed,
            in_flight=int(service.admission.in_flight),
            capacity=int(service.admission.capacity),
            pending_updates=int(service.pending_updates) if writes else 0,
            update_capacity=int(service.update_capacity) if writes else 0,
        )
        self._prev_probes = cur_probes
        self._prev_replicas = cur_replicas
        self._prev_admitted = admitted
        self._prev_shed = shed
        return obs

    # -- the loop ----------------------------------------------------------------

    def tick(self, now: float) -> list:
        """One controller iteration; returns the decisions applied.

        No-op unless enabled and at least ``check_every`` virtual time
        has passed since the last iteration — the service calls this
        from every ``advance``, and the controller paces itself.
        """
        if not self.enabled:
            return []
        now = float(now)
        if (self._last_check is not None
                and now - self._last_check < self.policy.check_every):
            return []
        self._last_check = now
        obs = self.observe(now)
        decisions = self.engine.decide(obs)
        self.trace.append({
            "observation": obs.to_dict(),
            "decisions": [d.to_dict() for d in decisions],
        })
        applied = []
        join_failed = False
        for decision in decisions:
            if decision.kind == "split" and join_failed:
                # The engine only emits a join ahead of a split to fund
                # it inside the replica budget; if the funding join was
                # refused (undrained victim), applying the split anyway
                # would bust the budget.
                self.skipped += 1
                self.skips.append({
                    "now": now, "kind": decision.kind,
                    "shard": decision.shard,
                    "reason": "funding join was refused",
                })
                continue
            try:
                self.executor.apply(
                    decision, now,
                    verify=self.policy.verify_clones,
                    verify_queries=self.policy.verify_queries,
                )
            except ReconfigError as exc:
                # A precondition failed against live state the pure
                # engine cannot see (quarantined replica, undrained
                # victim).  Record and move on; the armed cooldown
                # stops the engine from hammering the same action.
                self.skipped += 1
                self.skips.append({
                    "now": now, "kind": decision.kind,
                    "shard": decision.shard, "reason": str(exc),
                })
                if decision.kind == "join":
                    join_failed = True
                continue
            self.applied += 1
            applied.append(decision)
        if applied or decisions:
            self._export_gauges()
        return applied

    def _export_gauges(self) -> None:
        hub = self.service.telemetry
        if hub is None or hub.metrics is None:
            return
        m = hub.metrics
        m.counter(
            "autotune_decisions_total", "control-plane decisions issued"
        ).inc(len(self.trace[-1]["decisions"]) if self.trace else 0)
        m.gauge(
            "autotune_replicas_total", "replicas across all shards"
        ).set(float(sum(self._shard_replica_counts())))
        m.gauge(
            "autotune_capacity", "admission capacity"
        ).set(float(self.service.admission.capacity))
        m.gauge(
            "autotune_reconfig_probes",
            "cumulative reconfiguration probes",
        ).set(float(self.executor.reconfig_probes))

    # -- traces ------------------------------------------------------------------

    def trace_payload(self) -> dict:
        """The complete replayable record of this controller's run."""
        return {
            "policy": self.policy.to_dict(),
            "seed": self.seed,
            "capabilities": sorted(self.executor.capabilities),
            "entries": list(self.trace),
        }

    def trace_digest(self) -> str:
        """SHA-256 over the canonical JSON trace — the run's identity."""
        payload = json.dumps(
            self.trace_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def replay_trace(payload: dict) -> dict:
    """Re-derive every decision in a trace from its observations.

    Rebuilds the pure engine from the recorded policy, capabilities,
    and seed, feeds it the recorded observation stream, and compares
    the decisions it makes now against the decisions recorded then.
    Returns ``{"match": bool, "digest": ..., "entries": ...,
    "mismatches": [...]}`` — ``match`` is the byte-replayability
    property the satellite tests and the ``repro autotune replay`` CLI
    assert.
    """
    policy = AutotunePolicy.from_dict(payload["policy"])
    engine = DecisionEngine(
        policy, frozenset(payload["capabilities"]),
        seed=payload.get("seed", 0),
    )
    entries = []
    mismatches = []
    for index, entry in enumerate(payload["entries"]):
        obs = Observation.from_dict(entry["observation"])
        decisions = [d.to_dict() for d in engine.decide(obs)]
        entries.append({
            "observation": obs.to_dict(), "decisions": decisions,
        })
        if decisions != entry["decisions"]:
            mismatches.append(index)
    replayed = {
        "policy": policy.to_dict(),
        "seed": int(payload.get("seed", 0)),
        "capabilities": sorted(payload["capabilities"]),
        "entries": entries,
    }
    digest = hashlib.sha256(json.dumps(
        replayed, sort_keys=True, separators=(",", ":")
    ).encode()).hexdigest()
    original = hashlib.sha256(json.dumps(
        {
            "policy": payload["policy"],
            "seed": int(payload.get("seed", 0)),
            "capabilities": sorted(payload["capabilities"]),
            "entries": list(payload["entries"]),
        },
        sort_keys=True, separators=(",", ":")
    ).encode()).hexdigest()
    return {
        "match": not mismatches and digest == original,
        "digest": digest,
        "entries": len(entries),
        "mismatches": mismatches,
    }
