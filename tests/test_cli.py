"""CLI smoke tests (python -m repro ...)."""

import json
import os

import pytest

from repro.cli import build_parser, main


def test_list_shows_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for i in range(1, 15):
        assert f"E{i}" in out


def test_list_json(capsys):
    assert main(["list", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    experiments = data["experiments"]
    assert experiments["E1"].startswith("Contention optimality")
    assert set(experiments) == {f"E{i}" for i in range(1, 27)}
    # The telemetry capability descriptor for machine consumers.
    telemetry = data["telemetry"]
    assert telemetry["metrics"] and telemetry["tracing"]
    assert telemetry["snapshot_version"] == 1
    assert telemetry["trace_formats"] == ["chrome", "json"]


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "SPAA 2010" in out
    assert "EXPERIMENTS.md" in out


def test_info_json(capsys):
    assert main(["info", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["paper"]["venue"] == "SPAA 2010"
    assert data["experiments"] == [f"E{i}" for i in range(1, 27)]


def test_run_single_experiment(capsys):
    assert main(["run", "E11"]) == 0
    out = capsys.readouterr().out
    assert "[E11]" in out and "Claim:" in out


def test_run_writes_json(tmp_path, capsys):
    out_file = tmp_path / "res.json"
    assert main(["run", "E11", "--json", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    assert data[0]["experiment_id"] == "E11"


def test_run_unknown_experiment_exits_nonzero(capsys):
    # Library errors become a one-line stderr message + exit 2, never a
    # traceback (satellite: CLI catches ReproError).
    assert main(["run", "E99"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "E99" in err and err.count("\n") == 1


def test_fail_fast_and_keep_going_mutually_exclusive(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "E11", "--fail-fast", "--keep-going"])
    capsys.readouterr()


def test_run_timeout_failure_exits_one(capsys):
    # A tiny timeout kills the worker; with --fail-fast (default) that is
    # one stderr line and exit code 1.
    assert main(["run", "E11", "--timeout", "0.001"]) == 1
    err = capsys.readouterr().err
    assert "E11 failed" in err and "exceeded" in err


def test_run_keep_going_renders_survivors(capsys):
    # E1 (~0.4s fast mode) exceeds the timeout; E9 (~15ms) beats it.
    # --keep-going runs past the E1 failure, renders E9's table, and
    # still exits nonzero with the failure on stderr.
    code = main(["run", "E1", "E9", "--keep-going", "--timeout", "0.15"])
    assert code == 1
    captured = capsys.readouterr()
    assert "E1 failed" in captured.err
    assert "[E9]" in captured.out


def test_run_failed_gate_exits_one_and_still_renders(monkeypatch, capsys):
    # A completed experiment whose own acceptance check fails: its table
    # is printed, stderr gets one line, the exit code is 1.
    import repro.experiments.registry as registry
    from repro.io.results import ExperimentResult

    def failing(fast=False, seed=0):
        return ExperimentResult(
            experiment_id="E11", title="stub", claim="c",
            rows=[{"x": 1}], finding="f", passed=False,
        )

    monkeypatch.setitem(registry.EXPERIMENTS, "E11", ("stub", failing))
    assert main(["run", "E11"]) == 1
    captured = capsys.readouterr()
    assert "[E11] stub" in captured.out
    assert captured.err == "error: E11 failed: gate\n"


def test_checkpoint_resume_round_trip(tmp_path, capsys):
    ckpt = str(tmp_path / "ckpts")
    assert main(["run", "E11", "--checkpoint-dir", ckpt]) == 0
    first = capsys.readouterr().out
    assert list((tmp_path / "ckpts").glob("*.json"))
    # Second invocation resumes from the checkpoint: same rendered
    # output, no recomputation needed.
    assert main(["run", "E11", "--checkpoint-dir", ckpt]) == 0
    assert capsys.readouterr().out == first


def test_checkpoint_dir_is_file_exits_two(tmp_path, capsys):
    # Pointing --checkpoint-dir at an existing *file* is a typed
    # ReproError and a one-line message, never an OSError traceback.
    bogus = tmp_path / "not-a-dir"
    bogus.write_text("i am a file")
    assert main(["run", "E11", "--checkpoint-dir", str(bogus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a usable directory" in err
    assert err.count("\n") == 1


def test_cache_dir_is_file_exits_two(tmp_path, capsys):
    bogus = tmp_path / "cachefile"
    bogus.write_text("")
    assert main(["run", "E11", "--cache-dir", str(bogus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a usable directory" in err


def test_checkpoint_dir_under_file_exits_two(tmp_path, capsys):
    # A file where a *parent* directory should be (NotADirectoryError
    # territory) gets the same one-line treatment.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(
        ["run", "E11", "--checkpoint-dir", str(blocker / "sub")]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a usable directory" in err


def test_corrupt_checkpoint_file_recomputes(tmp_path, capsys, recwarn):
    # A truncated/corrupt checkpoint *file* degrades to a warning and a
    # recompute — exit 0, correct output, checkpoint rewritten.
    ckpt = tmp_path / "ckpts"
    assert main(["run", "E11", "--checkpoint-dir", str(ckpt)]) == 0
    first = capsys.readouterr().out
    (path,) = ckpt.glob("*.json")
    path.write_text('{"version": 1, "experiment_id": "E11", "trunc')
    assert main(["run", "E11", "--checkpoint-dir", str(ckpt)]) == 0
    assert capsys.readouterr().out == first
    assert any(
        "unusable checkpoint" in str(w.message) for w in recwarn.list
    )
    # The recompute re-checkpointed a loadable result.
    import json as json_mod

    assert json_mod.loads(path.read_text())["experiment_id"] == "E11"


def test_survey_small(capsys):
    assert main(["survey", "--n", "64", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "low-contention" in out
    assert "binary-search" in out
    assert "ratio_step" in out


def test_serve_smoke(capsys):
    # Boots the asyncio server, answers a seeded self-test workload,
    # exits cleanly (the CI serving job runs the same command).
    assert main(["serve", "--n", "64", "--smoke-queries", "16"]) == 0
    out = capsys.readouterr().out
    assert "serving n=64" in out
    assert "0 wrong" in out


def test_loadgen_deterministic(tmp_path, capsys):
    args = [
        "loadgen", "--n", "64", "--requests", "200", "--workload", "zipf",
    ]
    assert main(args + ["--json", str(tmp_path / "a.json")]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--json", str(tmp_path / "b.json")]) == 0
    second = capsys.readouterr().out
    # Byte-identical report: the loadgen runs in seeded virtual time.
    assert (tmp_path / "a.json").read_text() == (
        tmp_path / "b.json"
    ).read_text()
    assert first.replace("a.json", "b.json") == second
    data = json.loads((tmp_path / "a.json").read_text())
    assert data["completed"] == 200 and data["wrong_answers"] == 0


def test_loadgen_closed_loop(capsys):
    assert main(
        ["loadgen", "--n", "64", "--requests", "100", "--discipline",
         "closed", "--clients", "8", "--probe-time", "0.001"]
    ) == 0
    out = capsys.readouterr().out
    assert "closed" in out


def test_serve_metrics_flag(capsys):
    assert main(
        ["serve", "--n", "64", "--smoke-queries", "16", "--metrics"]
    ) == 0
    out = capsys.readouterr().out
    assert "metrics on" in out
    assert "serve_requests_total" in out  # Prometheus exposition


def test_run_emit_telemetry_writes_snapshots(tmp_path, capsys):
    tel = tmp_path / "tel"
    assert main(["run", "E2", "--emit-telemetry", str(tel)]) == 0
    out = capsys.readouterr().out
    assert "[E2]" in out and str(tel) in out
    files = list(tel.glob("*.metrics.json"))
    assert len(files) == 1 and files[0].name == "E2_fast_s0.metrics.json"
    snap = json.loads(files[0].read_text())
    assert snap["kind"] == "repro-metrics"
    assert snap["experiment"] == {"id": "E2", "fast": True, "seed": 0}
    assert snap["counters"]["probes"]["value"] > 0
    assert snap["counters"]["executions"]["value"] > 0


def test_stats_prints_metrics_table(tmp_path, capsys):
    snap_path = tmp_path / "snap.json"
    assert main(
        ["stats", "--n", "64", "--requests", "200", "--prometheus",
         "--json", str(snap_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "serve_completed" in out  # rendered metrics table
    assert "serve_requests_total 200" in out  # exposition
    snap = json.loads(snap_path.read_text())
    assert snap["version"] == 1 and snap["alarms"] == []


def test_stats_monitor_uniform_traffic_is_quiet(capsys):
    assert main(
        ["stats", "--n", "64", "--requests", "400", "--monitor",
         "--check-every", "4", "--replicas", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "monitor:" in out and "0 alarm(s)" in out


def test_stats_monitor_requires_single_shard(capsys):
    assert main(
        ["stats", "--n", "64", "--requests", "50", "--monitor",
         "--shards", "2"]
    ) == 2
    assert "--shards 1" in capsys.readouterr().err


def test_trace_writes_chrome_json(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    assert main(
        ["trace", "--n", "64", "--requests", "100", "--out",
         str(out_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "100 requests" in out
    data = json.loads(out_path.read_text())
    names = {e["name"] for e in data["traceEvents"]}
    assert {"request", "batch", "route", "replica"} <= names


def test_serve_procs_clamps_to_cpus_with_warning(capsys):
    # --procs beyond the host's CPU count clamps with a one-line
    # stderr warning and still serves correctly through the fabric.
    cpus = os.cpu_count() or 1
    assert main(
        ["serve", "--n", "64", "--smoke-queries", "16",
         "--procs", str(cpus + 1)]
    ) == 0
    captured = capsys.readouterr()
    assert f"clamping to {cpus}" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert f"{cpus} worker process(es)" in captured.out
    assert "0 wrong" in captured.out


def test_serve_procs_metrics_exposes_queue_depths(capsys):
    assert main(
        ["serve", "--n", "64", "--smoke-queries", "16",
         "--procs", "1", "--metrics"]
    ) == 0
    out = capsys.readouterr().out
    assert "repro_parallel_queue_depth_w0" in out
    assert "repro_parallel_workers 1" in out


def test_serve_procs_rejects_heal(capsys):
    assert main(["serve", "--procs", "1", "--heal"]) == 2
    err = capsys.readouterr().err
    assert "in-process only" in err


def test_serve_heal_flag(capsys):
    assert main(
        ["serve", "--n", "64", "--smoke-queries", "16", "--heal"]
    ) == 0
    out = capsys.readouterr().out
    assert "healing on" in out
    assert "0 violations" in out


def test_chaos_smoke(capsys):
    # Seeded chaos schedule against a healing service: zero wrong
    # answers, zero quarantine violations, exit 0.
    assert main(["chaos", "--n", "64", "--requests", "800"]) == 0
    out = capsys.readouterr().out
    assert "0 wrong answers" in out
    assert "0 quarantine violations" in out
    assert "states:" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_chaos_zero_rate_exits_two(capsys):
    # Satellite: bad --rate is a runner-style error, not a traceback.
    assert main(["chaos", "--rate", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rate" in err


def test_chaos_nonpositive_requests_exits_two(capsys):
    assert main(["chaos", "--requests", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "requests" in err


def test_adversary_search_writes_fixture(tmp_path, capsys):
    out = tmp_path / "found.json"
    code = main([
        "adversary", "search", "--generations", "2", "--population", "3",
        "--elites", "1", "--out", str(out),
    ])
    captured = capsys.readouterr().out
    assert code in (0, 1)  # 1 only if this tiny budget missed baseline
    assert "gen 0:" in captured and "baseline" in captured
    assert out.exists()
    payload = json.loads(out.read_text())
    assert payload["format"] == 1
    assert payload["replay_digest"]


def test_adversary_replay_fixture_dir(capsys):
    # The committed red-team finds replay clean through the CLI gate.
    assert main([
        "adversary", "replay", "--dir", "tests/fixtures/genomes",
    ]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out and "FAIL" not in out


def test_adversary_replay_no_fixtures_exits_two(capsys):
    assert main(["adversary", "replay"]) == 2
    assert "no fixtures" in capsys.readouterr().err


def test_adversary_replay_tampered_fixture_exits_one(tmp_path, capsys):
    src = sorted(
        p for p in os.listdir("tests/fixtures/genomes")
        if p.endswith(".json")
    )[0]
    payload = json.loads(
        open(os.path.join("tests/fixtures/genomes", src)).read()
    )
    payload["replay_digest"] = "0" * 64
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(payload))
    assert main(["adversary", "replay", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "failed replay" in captured.err


def test_adversary_minimize_round_trip(tmp_path, capsys):
    src = sorted(
        p for p in os.listdir("tests/fixtures/genomes")
        if p.endswith(".json")
    )[0]
    out = tmp_path / "small.json"
    assert main([
        "adversary", "minimize",
        os.path.join("tests/fixtures/genomes", src),
        "--out", str(out),
    ]) == 0
    assert "events @ fitness" in capsys.readouterr().out
    assert out.exists()
    # The shrunk fixture still passes the replay gate.
    assert main(["adversary", "replay", str(out)]) == 0


def test_serve_autotune_smoke(capsys):
    assert main(
        ["serve", "--n", "64", "--smoke-queries", "16", "--autotune"]
    ) == 0
    out = capsys.readouterr().out
    assert "autotune on" in out
    assert "trace digest" in out


def test_serve_dynamic_rejects_procs(capsys):
    assert main(["serve", "--dynamic", "--procs", "2"]) == 2
    assert "in-process" in capsys.readouterr().err


def test_serve_dynamic_rejects_heal(capsys):
    assert main(["serve", "--dynamic", "--heal"]) == 2
    assert "lockstep log replay" in capsys.readouterr().err


def test_serve_rejects_negative_procs(capsys):
    assert main(["serve", "--procs", "-1"]) == 2
    assert ">= 0" in capsys.readouterr().err


def test_autotune_inspect(capsys):
    assert main(["autotune", "inspect"]) == 0
    out = capsys.readouterr().out
    assert "policy digest:" in out
    assert "cooldown" in out


def test_autotune_inspect_json(capsys):
    assert main(["autotune", "inspect", "--json"]) == 0
    out = capsys.readouterr().out
    body, digest_line = out.rsplit("\n", 2)[:2]
    data = json.loads(body)
    assert "cooldown" in data and "high_load" in data
    assert digest_line.startswith("policy digest:")


def test_autotune_run_replay_round_trip(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    args = [
        "autotune", "run", "--n", "96", "--requests", "400",
        "--rate", "48", "--shards", "2", "--out", str(trace),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "0 wrong answers" in first
    # The saved trace replays byte-identically...
    assert main(["autotune", "replay", str(trace)]) == 0
    assert "match" in capsys.readouterr().out
    # ...and a second run is decision-for-decision identical.
    trace_b = tmp_path / "trace_b.json"
    assert main(args[:-1] + [str(trace_b)]) == 0
    capsys.readouterr()
    assert trace.read_text() == trace_b.read_text()


def test_autotune_replay_tampered_trace_exits_one(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main([
        "autotune", "run", "--n", "96", "--requests", "400",
        "--rate", "48", "--shards", "2", "--out", str(trace),
    ]) == 0
    payload = json.loads(trace.read_text())
    tampered = [e for e in payload["entries"] if e["decisions"]]
    tampered[0]["decisions"][0]["shard"] = 99
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["autotune", "replay", str(trace)]) == 1
    assert "MISMATCH" in capsys.readouterr().out
