"""E23 — adversary: evolutionary search beats the hand-tuned chaos.

The chaos experiment (E21) replays *fixed* seeded schedules — the
stack has only faced adversaries we wrote down in advance.  E23 turns
the adversary adaptive (:mod:`repro.adversary`) and asks four
questions:

- **Part A (search)** — a seeded (μ+λ) evolution over attack genomes
  (workload shape + fault program, fabric events included) on three
  independent seeds.  The evolved best must score **strictly higher
  fitness** than :meth:`~repro.serve.chaos.ChaosSchedule.generate`'s
  hand-tuned baseline re-encoded into the same genome space, and the
  fitness trajectory is recorded per generation.
- **Part B (verification)** — each best genome re-evaluates to a
  **byte-identical replay digest** (the E22 digest machinery over
  metrics + probe-counter digests), and its replay under the healing
  service yields **0 wrong answers and 0 quarantine violations** —
  however hostile evolution got, verified dispatch held the line.
- **Part C (fabric red team)** — crafted fabric genomes against a real
  worker pool: a kill-only genome must serve every answer correctly
  through SIGKILL failover, and a segment-corruption genome must leave
  a CRC-detectable trail (``table_crc_ok`` goes false — silent page
  damage cannot hide from the checksum).
- **Part D (regression fixtures)** — every committed genome under
  ``tests/fixtures/genomes/`` replays byte-identically with zero
  wrong answers and zero violations: past finds stay found.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.adversary import (
    EvalConfig,
    FaultGene,
    Genome,
    evaluate,
    fixture_paths,
    replay_fixture,
    search,
)
from repro.errors import FabricError
from repro.io.results import ExperimentResult
from repro.utils.rng import as_generator

CLAIM = (
    "An evolutionary adversary — seeded mutation and crossover over "
    "workload + fault-program genomes, selected for wrong answers, "
    "quarantine violations, shed traffic, tail latency, and "
    "Binomial(Q, Phi_t) envelope exceedance — finds strictly harder "
    "attacks than the hand-tuned chaos schedule, yet the self-healing "
    "stack still serves zero wrong answers and zero quarantine "
    "violations under every genome found, and every find replays "
    "byte-identically from its JSON fixture."
)

#: Search seeds (three independent runs, the acceptance criterion).
SEEDS = (0, 1, 2)


def _fixture_dir() -> pathlib.Path:
    """The committed-genome directory (repo checkout only)."""
    return (
        pathlib.Path(__file__).resolve().parents[3]
        / "tests" / "fixtures" / "genomes"
    )


def _fabric_red_team(config: EvalConfig, seed: int) -> list:
    """Part C: crafted kill-only and corrupt-segment genomes, evaluated.

    Runs against a real 2-process pool.  The kill genome must keep
    every answer correct through SIGKILL failover; the corruption
    genome must break the table CRC (detectability), whether or not
    any served answer flipped.
    """
    rng = as_generator(seed + 17)
    kill_genome = Genome(events=(
        FaultGene(frac=0.3, kind="kill-worker", worker=0),
        FaultGene(frac=0.6, kind="kill-worker", worker=1),
    ))
    corrupt_genome = Genome(events=tuple(
        FaultGene(
            frac=0.4, kind="corrupt-segment",
            cells=tuple(int(c) for c in rng.integers(0, 4096, size=4)),
            masks=tuple(int(m) for m in rng.integers(
                1, 1 << 63, size=4, dtype=np.uint64
            )),
        )
        for _ in range(2)
    ))
    fabric_config = EvalConfig(
        n=config.n, replicas=config.replicas, requests=config.requests,
        procs=2, fabric_queries=config.fabric_queries,
        fabric_replicas=config.fabric_replicas,
    )
    rows = []
    for label, genome, want_crc_ok in (
        ("kill-only", kill_genome, True),
        ("corrupt-segment", corrupt_genome, False),
    ):
        try:
            result = evaluate(genome, fabric_config, seed)
            metrics = result.metrics
            rows.append({
                "part": "C",
                "attack": label,
                "fabric_wrong": metrics.get("fabric_wrong", -1),
                "fabric_kills": metrics.get("fabric_kills", 0),
                "fabric_corruptions": metrics.get("fabric_corruptions", 0),
                "crc_ok": metrics.get("fabric_crc_ok", None),
                "stalled": metrics.get("fabric_stalled", None),
                "ok": bool(
                    not metrics.get("fabric_stalled", True)
                    and metrics.get("fabric_crc_ok") is want_crc_ok
                    and (label != "kill-only"
                         or metrics.get("fabric_wrong", 1) == 0)
                ),
            })
        except FabricError as exc:  # pragma: no cover - host-dependent
            rows.append({
                "part": "C", "attack": label, "fabric_wrong": -1,
                "fabric_kills": 0, "fabric_corruptions": 0,
                "crc_ok": None, "stalled": True, "ok": False,
                "error": str(exc),
            })
    return rows


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Run the experiment; ``fast`` shrinks the search, ``seed`` shifts RNG."""
    config = EvalConfig(n=48 if fast else 64, requests=600 if fast else 1200)
    generations = 3 if fast else 5
    population = 5 if fast else 8
    rows: list[dict] = []
    all_beat = True
    all_verified = True
    for s in SEEDS:
        s = int(s) + int(seed)
        result = search(
            config, seed=s, generations=generations,
            population=population, elites=2,
        )
        for entry in result.history:
            rows.append({
                "part": "A", "seed": s,
                "generation": entry["generation"],
                "best_fitness": entry["best_fitness"],
                "mean_fitness": entry["mean_fitness"],
                "baseline_fitness": round(result.baseline.fitness, 6),
                "beat_baseline": result.beat_baseline,
            })
        all_beat &= result.beat_baseline
        # Part B: byte-identical replay + zero correctness violations.
        replay = evaluate(result.best_genome, config, s)
        digest_match = replay.digest == result.best.digest
        wrong = int(replay.metrics.get("wrong_answers", -1))
        violations = int(replay.metrics.get("violations", -1))
        verified = digest_match and wrong == 0 and violations == 0
        all_verified &= verified
        rows.append({
            "part": "B", "seed": s,
            "best_fitness": round(result.best.fitness, 6),
            "digest_match": digest_match,
            "wrong_answers": wrong,
            "violations": violations,
            "events": len(result.best_genome.events),
            "verified": verified,
        })
    fabric_rows = _fabric_red_team(config, int(seed))
    rows.extend(fabric_rows)
    fabric_ok = all(r["ok"] for r in fabric_rows)
    fixture_rows = []
    for path in fixture_paths(_fixture_dir()):
        verdict = replay_fixture(path)
        fixture_rows.append({
            "part": "D",
            "fixture": verdict["fixture"],
            "fitness": round(verdict["fitness"], 6),
            "digest_match": verdict["digest_match"],
            "no_wrong_answers": verdict["no_wrong_answers"],
            "no_violations": verdict["no_violations"],
            "passed": verdict["passed"],
        })
    rows.extend(fixture_rows)
    fixtures_ok = all(r["passed"] for r in fixture_rows)
    ok = all_beat and all_verified and fabric_ok and fixtures_ok
    passed = ok and bool(fixture_rows)
    return ExperimentResult(
        experiment_id="E23",
        title="Adversarial search: evolution vs the self-healing stack",
        claim=CLAIM,
        rows=rows,
        finding=(
            f"Part A: evolved best strictly beat the hand-tuned baseline "
            f"on {'all' if all_beat else 'NOT all'} {len(SEEDS)} seeds "
            f"({generations} generations, population {population}). "
            f"Part B: every best genome replayed with a byte-identical "
            f"digest and 0 wrong answers / 0 quarantine violations "
            f"under healing: {all_verified}. "
            f"Part C: fabric red team (worker SIGKILL, shm segment "
            f"corruption) behaved as designed: {fabric_ok}. "
            f"Part D: {len(fixture_rows)} committed fixture(s) replayed "
            f"byte-identically with zero correctness violations: "
            f"{fixtures_ok}. Overall: {'PASS' if ok else 'FAIL'}."
        ),
        notes=(
            "Fitness rewards wrong answers and quarantine violations at "
            "1000 apiece, so any nonzero best-genome correctness term "
            "would dominate the tables above; the stack holding both at "
            "zero while still losing ground on shed/latency/quarantine "
            "terms is exactly the designed outcome. The search runs "
            "with procs=0 (healing target only) for speed; Part C "
            "exercises the real worker pool explicitly. The mid-batch "
            "quarantine re-route in ShardedDictionaryService._run_group "
            "was found by this harness: assignments computed at flush "
            "time could dispatch into a replica quarantined moments "
            "earlier by a witness verifying a sibling group."
        ),
        passed=passed,
    )
