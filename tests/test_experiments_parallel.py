"""Parallel experiment runner and construction cache.

The runner's contract is *bitwise determinism*: the rendered results of
``run_experiments`` are identical for any ``jobs`` count, because every
experiment derives all randomness from its own seed and results come
back in request order.  The cache's contract is *transparency*: a hit
returns an object indistinguishable from a fresh build (probe counter
reset, same construction), keyed only on trustworthy inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.experiments.cache import (
    ConstructionCache,
    configure_cache,
    get_cache,
)
from repro.experiments.common import build_scheme, make_instance
from repro.experiments.parallel import (
    default_jobs,
    grid_map,
    grid_point_seeds,
    normalize_ids,
    run_experiments,
)
from repro.experiments.registry import EXPERIMENTS


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test from the process-wide cache and restore it."""
    configure_cache()
    yield
    configure_cache()


class TestNormalizeIds:
    def test_all_expands_to_registry_order(self):
        assert normalize_ids("all") == list(EXPERIMENTS)
        assert normalize_ids(["all"]) == list(EXPERIMENTS)

    def test_case_insensitive(self):
        assert normalize_ids(["e1", "E5"]) == ["E1", "E5"]

    def test_unknown_id_rejected(self):
        with pytest.raises(ParameterError):
            normalize_ids(["E999"])

    def test_duplicates_preserved(self):
        assert normalize_ids(["E1", "E1"]) == ["E1", "E1"]


class TestRunExperiments:
    def test_jobs_do_not_change_results(self):
        ids = ["E11", "E13", "E11"]
        serial = [r.render() for r in run_experiments(ids, jobs=1, seed=0)]
        parallel = [r.render() for r in run_experiments(ids, jobs=2, seed=0)]
        assert serial == parallel

    def test_request_order_preserved(self):
        results = run_experiments(["E13", "E11"], jobs=2, seed=0)
        assert [r.experiment_id for r in results] == ["E13", "E11"]

    def test_invalid_jobs(self):
        with pytest.raises(ParameterError):
            run_experiments(["E11"], jobs=0)

    def test_single_string_id(self):
        (r,) = run_experiments("E11", seed=0)
        assert r.experiment_id == "E11"


def _square(point, point_seed):
    return (point * point, point_seed)


class TestGridMap:
    def test_point_seeds_deterministic_and_distinct(self):
        a = grid_point_seeds(0, 8)
        assert a == grid_point_seeds(0, 8)
        assert len(set(a)) == 8
        assert a != grid_point_seeds(1, 8)

    def test_grid_map_parallel_matches_serial(self):
        points = [1, 2, 3, 4, 5]
        assert grid_map(_square, points, seed=3, jobs=2) == grid_map(
            _square, points, seed=3, jobs=1
        )

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestConstructionCache:
    def test_memory_hit_returns_same_object_reset(self):
        keys, N = make_instance(32, seed=0)
        cache = get_cache()
        d1 = build_scheme("fks", keys, N, 42)
        d1.query(int(keys[0]), np.random.default_rng(0))
        assert d1.table.counter.total_probes() > 0
        d2 = build_scheme("fks", keys, N, 42)
        assert d2 is d1
        assert d2.table.counter.total_probes() == 0
        assert cache.hits >= 1

    def test_different_seed_misses(self):
        keys, N = make_instance(32, seed=0)
        d1 = build_scheme("fks", keys, N, 1)
        d2 = build_scheme("fks", keys, N, 2)
        assert d2 is not d1

    def test_generator_seed_bypasses_cache(self):
        keys, N = make_instance(32, seed=0)
        rng_seed = np.random.default_rng(7)
        d1 = build_scheme("fks", keys, N, rng_seed)
        d2 = build_scheme("fks", keys, N, np.random.default_rng(7))
        assert d2 is not d1

    def test_nonscalar_kwargs_uncacheable(self):
        keys, N = make_instance(16, seed=0)
        key = ConstructionCache.cache_key(
            "fks", keys, N, 0, {"level1": object()}
        )
        assert key is None

    def test_key_sensitivity(self):
        keys, N = make_instance(16, seed=0)
        base = ConstructionCache.cache_key("fks", keys, N, 0, {})
        assert base == ConstructionCache.cache_key("fks", keys, N, 0, {})
        others = [
            ConstructionCache.cache_key("dm", keys, N, 0, {}),
            ConstructionCache.cache_key("fks", keys, N, 1, {}),
            ConstructionCache.cache_key("fks", keys, N + 1, 0, {}),
            ConstructionCache.cache_key("fks", keys[:-1], N, 0, {}),
            ConstructionCache.cache_key("fks", keys, N, 0, {"r": 2}),
        ]
        assert base not in others

    def test_disk_roundtrip(self, tmp_path):
        keys, N = make_instance(32, seed=0)
        configure_cache(cache_dir=tmp_path)
        d1 = build_scheme("cuckoo", keys, N, 9)
        # A fresh cache (new process, cold memory) must load from disk
        # and the loaded build must answer identically.
        cache2 = configure_cache(cache_dir=tmp_path)
        d2 = build_scheme("cuckoo", keys, N, 9)
        assert d2 is not d1
        assert cache2.hits == 1 and cache2.misses == 0
        xs = np.concatenate([keys, (keys + 1) % N])
        np.testing.assert_array_equal(
            d1.contains_batch(xs), d2.contains_batch(xs)
        )
        assert d2.table.counter.total_probes() == 0

    def test_disk_corruption_degrades_to_rebuild(self, tmp_path):
        keys, N = make_instance(16, seed=0)
        configure_cache(cache_dir=tmp_path)
        build_scheme("fks", keys, N, 3)
        for p in tmp_path.iterdir():
            p.write_bytes(b"not a pickle")
        cache = configure_cache(cache_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="bad magic"):
            d = build_scheme("fks", keys, N, 3)
        assert cache.misses == 1
        assert d.contains(int(keys[0]))

    def test_truncated_cache_file_is_checksum_miss(self, tmp_path):
        """Regression: a cache file cut mid-byte must fail the checksum,
        warn, and rebuild — never unpickle garbage or crash."""
        keys, N = make_instance(16, seed=0)
        configure_cache(cache_dir=tmp_path)
        d1 = build_scheme("fks", keys, N, 5)
        (entry,) = list(tmp_path.iterdir())
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) - len(blob) // 3])
        cache = configure_cache(cache_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="CRC32|truncated"):
            d2 = build_scheme("fks", keys, N, 5)
        assert cache.misses == 1 and cache.hits == 0
        assert d2 is not d1
        xs = np.concatenate([keys, (keys + 1) % N])
        np.testing.assert_array_equal(
            d1.contains_batch(xs), d2.contains_batch(xs)
        )
        # The rebuild re-stored a valid entry: next cold read hits.
        cache3 = configure_cache(cache_dir=tmp_path)
        build_scheme("fks", keys, N, 5)
        assert cache3.hits == 1

    def test_bitflipped_payload_fails_checksum(self, tmp_path):
        keys, N = make_instance(16, seed=0)
        configure_cache(cache_dir=tmp_path)
        build_scheme("fks", keys, N, 6)
        (entry,) = list(tmp_path.iterdir())
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0x01  # single bit deep in the pickle payload
        entry.write_bytes(bytes(blob))
        cache = configure_cache(cache_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="CRC32 mismatch"):
            d = build_scheme("fks", keys, N, 6)
        assert cache.misses == 1
        assert d.contains(int(keys[0]))

    def test_cache_dir_pointing_at_file_degrades_to_memory(self, tmp_path):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("")
        configure_cache(cache_dir=not_a_dir)
        keys, N = make_instance(16, seed=0)
        d = build_scheme("fks", keys, N, 4)
        assert d.contains(int(keys[0]))
        assert build_scheme("fks", keys, N, 4) is d

    def test_lru_eviction(self):
        cache = configure_cache(capacity=2)
        keys, N = make_instance(16, seed=0)
        builds = [build_scheme("fks", keys, N, s) for s in (1, 2, 3)]
        assert len(cache._memory) == 2
        # Seed 1 was evicted: rebuilding it is a miss, seeds 2/3 are hits.
        assert build_scheme("fks", keys, N, 1) is not builds[0]
        assert build_scheme("fks", keys, N, 3) is builds[2]


class TestCheckpoints:
    def _result(self):
        from repro.experiments.registry import run_experiment

        return run_experiment("E11", fast=True, seed=0)

    def test_round_trip(self, tmp_path):
        from repro.experiments.parallel import load_checkpoint, save_checkpoint

        result = self._result()
        save_checkpoint(tmp_path, "E11", True, 0, result)
        loaded = load_checkpoint(tmp_path, "E11", True, 0)
        assert loaded is not None
        assert loaded.render() == result.render()

    def test_metadata_mismatch_is_miss(self, tmp_path):
        from repro.experiments.parallel import (
            checkpoint_path,
            load_checkpoint,
            save_checkpoint,
        )

        save_checkpoint(tmp_path, "E11", True, 0, self._result())
        assert load_checkpoint(tmp_path, "E11", True, 1) is None  # other seed
        assert load_checkpoint(tmp_path, "E11", False, 0) is None  # other mode
        # Same key but the file lies about what it holds: warn + miss.
        good = checkpoint_path(tmp_path, "E11", True, 0)
        bad = checkpoint_path(tmp_path, "E3", True, 0)
        bad.write_text(good.read_text())
        with pytest.warns(RuntimeWarning, match="unusable checkpoint"):
            assert load_checkpoint(tmp_path, "E3", True, 0) is None

    def test_corrupt_json_is_miss(self, tmp_path):
        from repro.experiments.parallel import checkpoint_path, load_checkpoint

        path = checkpoint_path(tmp_path, "E11", True, 0)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"version": 1, "experiment')
        with pytest.warns(RuntimeWarning, match="unusable checkpoint"):
            assert load_checkpoint(tmp_path, "E11", True, 0) is None

    def test_resume_skips_recompute_and_matches(self, tmp_path):
        first = run_experiments(
            ["E11", "E13"], seed=0, checkpoint_dir=tmp_path
        )
        assert len(list(tmp_path.glob("*.json"))) == 2

        # Second invocation must resume purely from checkpoints — make
        # recomputation impossible to prove none happens.
        import repro.experiments.parallel as parallel_mod

        def _boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resumed run recomputed an experiment")

        orig = parallel_mod._run_isolated
        parallel_mod._run_isolated = _boom
        try:
            second = run_experiments(
                ["E11", "E13"], seed=0, checkpoint_dir=tmp_path
            )
        finally:
            parallel_mod._run_isolated = orig
        assert [r.render() for r in first] == [r.render() for r in second]

    def test_checkpoint_without_verdict_still_resumes(self, tmp_path):
        # Checkpoints written before results carried ``passed`` lack the
        # field: they load with no verdict, and a resume neither
        # recomputes them nor reports them as failed.
        import json

        import repro.experiments.parallel as parallel_mod
        from repro.experiments.parallel import checkpoint_path, save_checkpoint

        save_checkpoint(tmp_path, "E11", True, 0, self._result())
        path = checkpoint_path(tmp_path, "E11", True, 0)
        data = json.loads(path.read_text())
        del data["result"]["passed"]
        path.write_text(json.dumps(data))

        def _boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resumed run recomputed an experiment")

        orig = parallel_mod._run_isolated
        parallel_mod._run_isolated = _boom
        try:
            (loaded,) = run_experiments(
                ["E11"], seed=0, checkpoint_dir=tmp_path
            )
        finally:
            parallel_mod._run_isolated = orig
        assert loaded.passed is None
        assert loaded.render() == self._result().render()

    def test_partial_checkpoints_resume_the_rest(self, tmp_path):
        from repro.experiments.parallel import load_checkpoint

        run_experiments(["E11"], seed=0, checkpoint_dir=tmp_path)
        # A "killed mid-flight" run left E11 done, E13 not: re-invoking
        # with both finishes E13 and checkpoints it too.
        results = run_experiments(
            ["E11", "E13"], seed=0, checkpoint_dir=tmp_path
        )
        assert [r.experiment_id for r in results] == ["E11", "E13"]
        assert load_checkpoint(tmp_path, "E13", True, 0) is not None


class TestResilientFailures:
    def test_timeout_failure_carries_partial_results(self):
        from repro.errors import ExperimentFailureError

        # E9 (~15ms) beats the timeout, E1 (~0.4s) cannot.
        with pytest.raises(ExperimentFailureError) as exc_info:
            run_experiments(
                ["E9", "E1"], seed=0, timeout=0.15, keep_going=True
            )
        err = exc_info.value
        assert set(err.failures) == {"E1"}
        assert "exceeded" in err.failures["E1"]
        assert [r.experiment_id for r in err.results] == ["E9"]

    def test_retries_are_counted_in_failure_reason(self):
        from repro.errors import ExperimentFailureError

        with pytest.raises(ExperimentFailureError) as exc_info:
            run_experiments(
                ["E1"], seed=0, timeout=0.05, retries=2, retry_backoff=0.01
            )
        assert "3 attempt(s)" in exc_info.value.failures["E1"]

    def test_resilient_path_matches_plain_results(self, tmp_path):
        plain = run_experiments(["E11"], seed=0)
        resilient = run_experiments(
            ["E11"], seed=0, timeout=120, retries=1, checkpoint_dir=tmp_path
        )
        assert [r.render() for r in plain] == [r.render() for r in resilient]


def test_cli_multi_id_and_jobs(capsys):
    from repro.cli import main

    assert main(["run", "E11", "E13", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "E11" in out and "E13" in out
