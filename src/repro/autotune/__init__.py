"""Contention-adaptive control plane: observe, decide, reconfigure.

The serving stack fixes its whole configuration — per-shard replication
``R``, the inner scheme, admission capacities — at startup, which is
exactly wrong for the paper's Section 3 regime: under an *arbitrary*
(Zipf, flash-crowd, diurnal) query distribution the per-shard
contention Φ_t is non-uniform and moves, so a static uniform deployment
either over-provisions cold ranges or sheds on hot ones.  This package
closes the loop.  Following the LFCA-tree discipline (cheap contention
counters with high/low thresholds driving online structural
adaptation), a deterministic controller watches per-shard probe work
and admission pressure, and reconfigures the running service:

- **replication split/join** — grow ``R`` on hot shards by cloning a
  healthy replica (clone reads charged to a reconfiguration counter,
  the :mod:`repro.heal` discipline), shrink cold shards after a
  graceful drain: the Θ(1/R) contention price, paid where Φ_t says;
- **scheme switching** — rebuild a shard on the scheme its temperature
  wants (low-contention hot, FKS cold), swapped atomically at an
  :class:`~repro.dynamic.epoch.EpochManager` epoch boundary;
- **admission tuning** — move :class:`~repro.errors.OverloadError` /
  :class:`~repro.errors.UpdateBacklogError` capacities from observed
  shed fractions and virtual-time backlog.

Everything is seeded and clockless: the engine is a pure state machine
over observation snapshots (hysteresis bands + cooldown windows in
virtual time), so a decision trace replays byte-for-byte
(:func:`~repro.autotune.controller.replay_trace`), and a disabled
controller leaves the service digest-byte-identical to one that never
had a controller (E25's gate).
"""

from repro.autotune.controller import (
    AutotuneController,
    Decision,
    DecisionEngine,
    Observation,
    replay_trace,
)
from repro.autotune.policy import AutotunePolicy
from repro.autotune.reconfig import (
    ReconfigExecutor,
    scheme_name,
)

__all__ = [
    "AutotuneController",
    "AutotunePolicy",
    "Decision",
    "DecisionEngine",
    "Observation",
    "ReconfigExecutor",
    "replay_trace",
    "scheme_name",
]
