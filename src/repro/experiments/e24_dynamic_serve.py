"""E24 — dynamic serving: live updates under contention discipline.

ROADMAP item 3 made real: the Bentley–Saxe dynamization
(:mod:`repro.dynamic`) becomes a first-class citizen of the serve
stack — replicated, epoch-versioned, chaos-tested — without ever
muddying the probe accounting the paper's guarantees are stated over.
Four questions:

- **Part A (cost curves)** — amortized rebuild cells per update over a
  seeded mixed stream, against the dynamic cell-probe reference
  Ω(lg n) (Pătrașcu–Demaine): rebuild-based dynamization pays
  ``Θ(lg n)`` *rebuilds'* worth of cell writes, so the measured
  amortized cost must sit above ``lg2 n`` and grow like it.  Plus the
  ``min_level_width`` trade-off: padded levels restore the O(1/n)
  query-contention floor at a measured space multiplier.
- **Part B (serving under chaos)** — the mutable sharded service
  (``serve --dynamic``): micro-batched writes, bounded update backlog
  (typed shed), read-your-writes, majority-voted reads — driven by an
  interleaved update/read stream while a replica crashes, another
  suffers silent cell corruption, and the crashed one is rebuilt by
  log replay.  **Zero wrong answers**, and update/rebuild/epoch
  telemetry events flow.
- **Part C (epoch pins)** — a reader pins an epoch, the structure
  churns on; the pinned multi-key read must match the *pinned* ground
  truth exactly (linearizability), retired levels must be retained
  while the pin lives, and reclaimed once it releases.
- **Part D (accounting isolation)** — the same seeded update+query
  stream with rebuild verification on vs off: query-counter digests
  byte-identical, verification probes land only on rebuild counters.
"""

from __future__ import annotations

import numpy as np

from repro.dynamic import (
    DynamicLowContentionDictionary,
    ReplicatedDynamicDictionary,
)
from repro.errors import OverloadError, UpdateBacklogError
from repro.io.results import ExperimentResult
from repro.serve import build_dynamic_service
from repro.telemetry.events import (
    BUS,
    EpochEvent,
    RebuildEvent,
    UpdateEvent,
)
from repro.utils.rng import as_generator

CLAIM = (
    "Paper conclusion (future work): 'study the contention caused by "
    "the updates in dynamic data structures.'  Serving extension — a "
    "replicated, epoch-versioned dynamic dictionary serves reads while "
    "mutating: amortized rebuild cost tracks the Omega(lg n) dynamic "
    "cell-probe reference, majority-voted reads survive crash + silent "
    "corruption chaos with zero wrong answers, epoch-pinned multi-key "
    "reads are linearizable, and all rebuild probe work lands on "
    "separate rebuild counters (query-counter digests byte-identical "
    "to an unverified replay)."
)

UNIVERSE = 1 << 14


def _mixed_stream(d, ops: int, key_range: int, rng) -> None:
    """Apply a seeded 75/25 insert/delete stream to ``d``."""
    for _ in range(ops):
        k = int(rng.integers(0, key_range))
        if rng.random() < 0.75:
            d.insert(k)
        else:
            d.delete(k)


def _part_a_cost_curves(fast: bool, seed: int) -> tuple[list[dict], bool]:
    """Amortized rebuild cells/update vs lg2(n); min_level_width ladder."""
    ladder = (64, 128) if fast else (128, 256, 512)
    rows = []
    ok = True
    for target_n in ladder:
        rng = as_generator(seed)
        d = DynamicLowContentionDictionary(
            UNIVERSE, rng=as_generator(seed + 1)
        )
        _mixed_stream(d, 6 * target_n, 2 * target_n, rng)
        n = max(d.live_count, 2)
        amortized = d.account.amortized_write_cost()
        reference = float(np.log2(n))
        ratio = amortized / reference
        # The lower bound says we cannot beat Omega(lg n) cell work per
        # update; rebuild-based dynamization writes whole tables, so the
        # measured cost must exceed the reference (and a runaway ratio
        # would flag a sizing regression).
        ok = ok and amortized > reference and ratio < 500.0
        rows.append({
            "part": "A:cost",
            "live n": n,
            "updates": d.account.updates,
            "rebuilds": len(d.account.rebuilds),
            "amortized cells/update": round(amortized, 1),
            "lg2(n) reference": round(reference, 1),
            "ratio": round(ratio, 1),
        })
    # min_level_width ladder on the largest instance: padded levels pay
    # space for the restored 1/n contention floor.
    target_n = ladder[-1]
    queries = 600 if fast else 2000
    base_space = None
    for label, width_of in (("pure", lambda n: 0), ("pad 4n", lambda n: 4 * n)):
        rng = as_generator(seed)
        probe = DynamicLowContentionDictionary(
            UNIVERSE, rng=as_generator(seed + 1)
        )
        _mixed_stream(probe, 6 * target_n, 2 * target_n, rng)
        width = width_of(probe.live_count)
        rng = as_generator(seed)
        d = DynamicLowContentionDictionary(
            UNIVERSE, rng=as_generator(seed + 1), min_level_width=width
        )
        _mixed_stream(d, 6 * target_n, 2 * target_n, rng)
        from repro.distributions import UniformPositiveNegative

        dist = UniformPositiveNegative(UNIVERSE, d.live_keys(), 0.5)
        res = d.empirical_query_contention(
            dist, queries, as_generator(seed + 7)
        )
        smallest_floor = max(
            row["floor_1_over_s"] for row in res["per_level"]
        )
        if base_space is None:
            base_space = d.space_words
        rows.append({
            "part": "A:width",
            "level width": label,
            "live n": d.live_count,
            "phi_max * n": round(
                res["global_max_contention"] * d.live_count, 2
            ),
            "smallest-level floor * n": round(
                smallest_floor * d.live_count, 2
            ),
            "space_words": d.space_words,
            "space multiplier": round(d.space_words / base_space, 2),
        })
        # Contention can never undercut the smallest level's 1/s floor.
        ok = ok and res["global_max_contention"] >= smallest_floor * 0.999
    return rows, ok


def _part_b_chaos_serving(fast: bool, seed: int) -> tuple[list[dict], bool]:
    """Interleaved updates + reads + crash/corrupt/rebuild chaos."""
    requests = 240 if fast else 500
    svc = build_dynamic_service(
        UNIVERSE,
        num_shards=2,
        replicas=5,
        seed=seed,
        armed=True,
        max_batch=8,
        max_delay=2.0,
        update_batch=4,
        update_delay=2.0,
        update_capacity=64,
        capacity=256,
    )
    rng = as_generator(seed + 11)
    ref: set[int] = set()
    wrong = checked = shed_updates = shed_reads = 0
    corrupted = 0
    with BUS.capture(UpdateEvent, RebuildEvent, EpochEvent) as events:
        for i in range(requests):
            now = float(i)
            if rng.random() < 0.35:
                k = int(rng.integers(0, UNIVERSE))
                ins = rng.random() < 0.7
                try:
                    svc.submit_update(k, ins, now)
                    (ref.add if ins else ref.discard)(k)
                except UpdateBacklogError:
                    shed_updates += 1
            ticket = None
            try:
                ticket = svc.submit(int(rng.integers(0, UNIVERSE)), now)
            except OverloadError:
                shed_reads += 1
            svc.advance(now)
            if ticket is not None and ticket.done:
                checked += 1
                wrong += int(ticket.answer != (ticket.key in ref))
            if i == requests // 4:
                svc.crash_replica(0, 1)
            if i == requests // 3:
                # Silent corruption: flip bits in every non-empty level
                # of shard 1's replica 0; the majority vote must absorb it.
                levels = svc.shards[1]._replicas[0]._levels.nonempty_levels
                for lv in levels:
                    svc.corrupt_cell(1, 0, lv.index, 0, 0xFFFF)
                    corrupted += 1
            if i == requests // 2:
                svc.rebuild_replica(0, 1)
        svc.drain(float(requests))
        sample = rng.integers(0, UNIVERSE, size=256)
        answers, epochs = svc.read_pinned(sample, float(requests) + 1.0)
    truth = np.isin(
        sample,
        np.fromiter(ref, dtype=np.int64, count=len(ref))
        if ref else np.empty(0, dtype=np.int64),
    )
    pinned_wrong = int(np.sum(answers != truth))
    update_events = sum(1 for e in events if isinstance(e, UpdateEvent))
    rebuild_events = sum(1 for e in events if isinstance(e, RebuildEvent))
    epoch_events = sum(1 for e in events if isinstance(e, EpochEvent))
    row = svc.stats_row()
    ok = (
        wrong == 0
        and pinned_wrong == 0
        and checked > 0
        and corrupted > 0
        and row["updates_applied"] > 0
        and update_events == row["update_groups"]
        and epoch_events == row["update_groups"]
        and rebuild_events > 0
    )
    return [{
        "part": "B:chaos",
        "reads": row["completed"],
        "checked": checked,
        "updates": row["updates_applied"],
        "groups": row["update_groups"],
        "epochs": str(svc.epochs_by_shard()),
        "shed upd/read": f"{shed_updates + row['shed_updates']}/{shed_reads}",
        "crash/corrupt/rebuild": f"1/{corrupted}/1",
        "events upd/rebuild/epoch": (
            f"{update_events}/{rebuild_events}/{epoch_events}"
        ),
        "wrong": wrong + pinned_wrong,
    }], ok


def _part_c_epoch_pins(fast: bool, seed: int) -> tuple[list[dict], bool]:
    """Pinned reads are linearizable; reclamation waits for the pin."""
    rep = ReplicatedDynamicDictionary(UNIVERSE, replicas=3, seed=seed)
    rng = as_generator(seed + 3)
    _mixed_stream(rep, 60 if fast else 120, 256, rng)
    pin = rep.pin()
    pinned_truth = np.asarray(pin.snapshot["live_keys"], dtype=np.int64)
    # Churn past the pin: delete pinned keys, insert fresh ones.
    for k in pinned_truth[: len(pinned_truth) // 2]:
        rep.delete(int(k))
    _mixed_stream(rep, 40 if fast else 80, 256, rng)
    retained_while = rep.epochs.retained
    xs = np.unique(np.concatenate([
        pinned_truth, rng.integers(0, 512, size=128)
    ]))
    pinned_answers = rep.query_pinned(pin, xs, as_generator(seed + 4))
    live_answers = rep.query_batch(xs, as_generator(seed + 5))
    pinned_exact = bool(
        np.array_equal(pinned_answers, np.isin(xs, pinned_truth))
    )
    live_exact = bool(
        np.array_equal(live_answers, np.isin(xs, rep.live_keys()))
    )
    diverged = bool(np.any(pinned_answers != live_answers))
    pin.release()
    retained_after = rep.epochs.retained
    ok = (
        pinned_exact
        and live_exact
        and diverged
        and retained_while > 0
        and retained_after < retained_while
    )
    return [{
        "part": "C:pins",
        "pinned epoch": pin.epoch,
        "live epoch": rep.epoch,
        "pinned read exact": pinned_exact,
        "live read exact": live_exact,
        "views diverged": diverged,
        "retained while pinned": retained_while,
        "retained after release": retained_after,
    }], ok


def _part_d_accounting(fast: bool, seed: int) -> tuple[list[dict], bool]:
    """Verified vs unverified replay: query digests byte-identical."""
    ops = 150 if fast else 400
    digests = []
    rebuild_probes = []
    for verify in (True, False):
        rng = as_generator(seed + 21)
        d = DynamicLowContentionDictionary(
            UNIVERSE, rng=as_generator(seed + 22), verify_rebuilds=verify
        )
        _mixed_stream(d, ops, 512, rng)
        xs = rng.integers(0, UNIVERSE, size=600)
        answers = d.query_batch(xs, as_generator(seed + 23))
        assert bool(
            np.array_equal(answers, np.isin(xs, d.live_keys()))
        )
        digests.append(d.query_counter_digest())
        rebuild_probes.append(d.rebuild_probes)
    identical = digests[0] == digests[1]
    ok = identical and rebuild_probes[0] > 0 and rebuild_probes[1] == 0
    return [{
        "part": "D:accounting",
        "query digest identical": identical,
        "digest": digests[0][:16],
        "rebuild probes (verify on)": rebuild_probes[0],
        "rebuild probes (verify off)": rebuild_probes[1],
    }], ok


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Run the experiment; ``fast`` shrinks ladders, ``seed`` fixes RNG."""
    rows: list[dict] = []
    all_ok = True
    for part in (
        _part_a_cost_curves,
        _part_b_chaos_serving,
        _part_c_epoch_pins,
        _part_d_accounting,
    ):
        part_rows, ok = part(fast, seed)
        rows.extend(part_rows)
        all_ok = all_ok and ok
    rows.append({"part": "gate", "all checks passed": all_ok})
    return ExperimentResult(
        experiment_id="E24",
        title="Dynamic serving: live updates, epochs, chaos (extension)",
        claim=CLAIM,
        rows=rows,
        finding=(
            "Amortized rebuild cost sits a constant-factor band above "
            "the Omega(lg n) dynamic cell-probe reference and padded "
            "levels buy the 1/n contention floor at a measured space "
            "multiplier; the mutable sharded service serves zero wrong "
            "answers through interleaved updates, a replica crash, "
            "silent multi-level corruption, and a log-replay rebuild "
            "(read-your-writes checks included); epoch-pinned "
            "multi-key reads match the pinned ground truth exactly "
            "while the live view diverges, with retired levels held "
            "exactly as long as the pin lives; and rebuild-verification "
            "probes land only on rebuild counters — query-counter "
            "digests are byte-identical to an unverified replay."
            + ("" if all_ok else "  *** GATE FAILED ***")
        ),
        passed=all_ok,
    )
