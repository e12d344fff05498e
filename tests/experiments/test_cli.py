"""Tests for the experiment command-line interface."""

import pytest

from repro.experiments import cli


class TestCli:
    def test_every_paper_artifact_has_an_entry(self):
        assert {"fig3", "fig4", "fig6", "fig7", "fig9", "fig10", "fig11",
                "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
                "table5"} <= set(cli.EXPERIMENTS)

    def test_list_option_exits_cleanly(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table5" in out

    def test_no_arguments_behaves_like_list(self, capsys):
        assert cli.main([]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_unknown_experiment_is_an_error(self, capsys):
        assert cli.main(["fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_running_a_light_experiment_prints_its_table(self, capsys):
        assert cli.main(["fig13", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "CPU load distribution" in out

    def test_workers_flag_is_accepted(self, capsys):
        assert cli.main(["fig13", "--quick", "--workers", "2"]) == 0
        assert "CPU load distribution" in capsys.readouterr().out

    def test_retired_engine_flag_is_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["fig13", "--engine", "event"])

    def test_invalid_worker_count_is_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["fig13", "--workers", "0"])


class TestScenarioMode:
    def test_list_scenarios_names_registry_entries(self, capsys):
        assert cli.main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "L10" in out and "poisson_hetero_demo" in out

    def test_list_scenarios_groups_tiers_with_sizes(self, capsys):
        assert cli.main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        standard, _, mega = out.partition("Mega tier")
        # The mega tier is its own labelled group, after the standard one.
        assert "Standard tier" in standard and mega
        for name in ("mega_ci_1k", "mega_diurnal_10k", "mega_diurnal_50k"):
            assert name in mega and name not in standard
        # Per-scenario job and node counts are printed on each line.
        assert "10000 jobs" in mega and "1024 nodes" in mega
        assert "2 jobs" in standard and "40 nodes" in standard

    def test_runs_named_scenario_with_untrained_schemes(self, capsys):
        # Oracle and pairwise need no offline training, so this exercises
        # the full scenario path without touching the model cache.
        assert cli.main(["--scenario", "poisson_hetero_demo",
                         "--schemes", "pairwise,oracle", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "poisson_hetero_demo" in out
        assert "pairwise" in out and "oracle" in out

    def test_runs_scenario_from_json_spec(self, tmp_path, capsys):
        from repro.scenarios import ScenarioSpec

        path = tmp_path / "tiny.json"
        ScenarioSpec(name="tiny", jobs=(("HB.Sort", 10.0),),
                     topology="smallmem24").to_json(path)
        assert cli.main(["--scenario", str(path),
                         "--schemes", "pairwise"]) == 0
        assert "tiny" in capsys.readouterr().out

    def test_unknown_scenario_is_an_error(self, capsys):
        assert cli.main(["--scenario", "L99"]) == 2
        assert "cannot load scenario" in capsys.readouterr().err

    def test_empty_schemes_rejected(self, capsys):
        assert cli.main(["--scenario", "L1", "--schemes", " , "]) == 2
        assert "at least one scheme" in capsys.readouterr().err

    def test_unknown_scheme_rejected_before_training(self, capsys):
        assert cli.main(["--scenario", "L1",
                         "--schemes", "ours,warp_drive"]) == 2
        assert "unknown schemes: warp_drive" in capsys.readouterr().err

    def test_wrong_typed_spec_json_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "bad", "n_apps": "ten"}')
        assert cli.main(["--scenario", str(path)]) == 2
        assert "cannot load scenario" in capsys.readouterr().err

    def test_truncating_horizon_is_a_clean_error(self, tmp_path, capsys):
        from repro.scenarios import ScenarioSpec
        from repro.workloads import ArrivalSpec

        path = tmp_path / "tight.json"
        ScenarioSpec(name="tight", n_apps=3,
                     arrival=ArrivalSpec(kind="poisson", rate_per_min=0.001),
                     max_time_min=10.0).to_json(path)
        assert cli.main(["--scenario", str(path),
                         "--schemes", "pairwise"]) == 1
        err = capsys.readouterr().err
        assert "truncated the workload" in err and "max_time_min" in err

    def test_scenario_and_experiment_names_conflict(self):
        with pytest.raises(SystemExit):
            cli.main(["fig6", "--scenario", "L1"])

    def test_invalid_n_mixes_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["--scenario", "L1", "--n-mixes", "0"])

    def test_user_facing_scenario_run_is_warning_clean(self, capsys):
        # The CLI's internal calls go through repro.api only — none of
        # the deprecated shims — so a user-facing run must not emit a
        # single DeprecationWarning.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert cli.main(["--scenario", "L1",
                             "--schemes", "pairwise"]) == 0
        assert "pairwise" in capsys.readouterr().out


class TestEnvRollout:
    def test_episode_runs_and_emits_json(self, tmp_path, capsys):
        path = tmp_path / "episode.json"
        assert cli.main(["env-rollout", "--scenario", "churn20",
                         "--policy", "random", "--seed", "7",
                         "--episode-json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "episode churn20 policy=random" in out
        assert "faults:" in out  # churn20 declares dynamics
        from repro.env import EpisodeResult

        episode = EpisodeResult.from_json(path)
        assert episode.scenario == "churn20" and episode.seed == 7
        assert episode.stp > 0 and episode.steps > 0

    def test_episode_json_prints_to_stdout_by_default(self, capsys):
        import json

        assert cli.main(["env-rollout", "--scenario", "L1",
                         "--policy", "greedy"]) == 0
        out = capsys.readouterr().out
        document = out[out.index("{"):]
        payload = json.loads(document)
        assert payload["policy"] == "greedy"
        assert payload["reward_kind"] == "stp_delta"

    def test_scheme_policies_resolve_through_the_registry(self, capsys):
        assert cli.main(["env-rollout", "--scenario", "L1",
                         "--policy", "pairwise",
                         "--reward", "antt_delta"]) == 0
        out = capsys.readouterr().out
        assert "policy=pairwise" in out and "antt_delta" in out

    def test_unknown_policy_is_an_error(self, capsys):
        assert cli.main(["env-rollout", "--scenario", "L1",
                         "--policy", "warp_drive"]) == 2
        err = capsys.readouterr().err
        assert "cannot resolve policy" in err and "random" in err

    def test_env_rollout_requires_a_scenario(self):
        with pytest.raises(SystemExit):
            cli.main(["env-rollout"])

    def test_env_rollout_run_is_warning_clean(self, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert cli.main(["env-rollout", "--scenario", "L1",
                             "--policy", "random"]) == 0


class TestEnvTrain:
    def test_trains_saves_and_serves_a_checkpoint(self, tmp_path, capsys):
        checkpoint = tmp_path / "policy.npz"
        curve = tmp_path / "curve.json"
        assert cli.main(["env-train", "--scenario", "L1",
                         "--iters", "2", "--episodes-per-iter", "2",
                         "--seed", "0", "--checkpoint", str(checkpoint),
                         "--train-json", str(curve)]) == 0
        out = capsys.readouterr().out
        assert "iter    0:" in out and "best eval STP" in out
        assert checkpoint.exists()
        from repro.env.train import TrainResult

        result = TrainResult.from_json(curve)
        assert result.scenario == "L1" and len(result.curve) == 2
        # The fresh checkpoint serves through env-rollout.
        assert cli.main(["env-rollout", "--scenario", "L1",
                         "--policy", f"learned:{checkpoint}",
                         "--seed", "7"]) == 0
        assert "policy=learned" in capsys.readouterr().out

    def test_env_train_requires_a_checkpoint(self, capsys):
        assert cli.main(["env-train", "--scenario", "L1"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_env_train_requires_a_scenario(self):
        with pytest.raises(SystemExit):
            cli.main(["env-train"])
