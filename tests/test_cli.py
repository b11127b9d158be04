import json

import pytest

from kmbdf import harness
from kmbdf.cli import main


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "data": {"source": "synthetic", "kind": "ar", "length": 400,
                 "channels": 1, "seed": 3, "coeffs": [0.8]},
        "history_len": 8,
        "horizon": 4,
        "lr": 1e-3,
        "batch_size": 16,
        "max_epochs": 2,
        "patience": 2,
        "seed": 0,
        "objective": {"kind": "mse"},
        "mmd_max_samples": 32,
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return str(p)


class TestTrainCommand:
    def test_runs_and_prints_report(self, config_path, capsys):
        assert main(["train", "--config", config_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["test_mse"] >= 0.0
        assert report["config"]["objective"]["kind"] == "mse"

    def test_set_overrides(self, config_path, capsys):
        rc = main([
            "train", "--config", config_path,
            "--set", "objective.kind=kmb_df",
            "--set", "objective.alpha=0.3",
            "--set", "objective.kernel.family=exponential",
            "--set", "max_epochs=1",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["objective"]["kind"] == "kmb_df"
        assert report["config"]["max_epochs"] == 1
        assert report["resolved_sigma"] > 0.0

    def test_seed_flag_overrides_config(self, config_path, capsys):
        assert main(["--seed", "5", "train", "--config", config_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 5

    def test_out_flag_writes_artifacts(self, config_path, capsys, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["--out", str(out), "train", "--config", config_path]) == 0
        capsys.readouterr()
        assert (out / "report.json").exists()
        assert (out / "checkpoint.json").exists()

    def test_missing_config_errors(self, capsys):
        rc = main(["train", "--config", "/nonexistent/config.json"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "message" in err and "error" in err

    def test_bad_config_value_errors(self, config_path, capsys):
        rc = main(["train", "--config", config_path, "--set", "lr=-1.0"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


    @pytest.mark.parametrize("override", [
        "data.lenght=400",
        "objective.alpah=0.5",
        "max_epochs=0",
    ])
    def test_config_typo_fails_before_training(self, config_path, capsys, override):
        # With kind=kmb_df the objective key set is the balancing one, so
        # "alpah" is a typo, not a key of another objective.
        rc = main([
            "train", "--config", config_path,
            "--set", "objective.kind=kmb_df", "--set", override,
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert override.split("=")[0].split(".")[-1] in err["message"]


    @pytest.mark.parametrize("override, needle", [
        ({"split": {"trian": 0.7}}, "trian"),
        ({"data": {"source": "csv"}}, "path"),
        ({"mmd_max_samples": 1}, "mmd_max_samples"),
        ({"mmd_max_samples": 0}, "mmd_max_samples"),
    ])
    def test_config_gap_fails_before_data(self, config_path, capsys, monkeypatch,
                                          override, needle):
        def forbidden(*args, **kwargs):
            raise AssertionError("data built for an invalid config")

        monkeypatch.setattr(harness, "build_dataset", forbidden)
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw.update(override)
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        rc = main(["train", "--config", config_path])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert needle in err["message"]


class TestEvaluateCommand:
    def test_round_trip_with_checkpoint(self, config_path, capsys, tmp_path):
        out = tmp_path / "run"
        assert main(["--out", str(out), "train", "--config", config_path]) == 0
        train_report = json.loads(capsys.readouterr().out)
        rc = main([
            "evaluate", "--config", config_path,
            "--checkpoint", str(out / "checkpoint.json"),
            "--split", "test",
        ])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["split"] == "test"
        assert result["mse"] == pytest.approx(train_report["test_mse"], rel=1e-12)


class TestSweepCommand:
    def test_alpha_sweep(self, config_path, capsys, tmp_path):
        rc = main([
            "--out", str(tmp_path / "sweep"),
            "sweep", "--config", config_path,
            "--param", "alpha", "--values", "0.0,0.5",
            "--set", "objective.kind=kmb_df",
            "--set", "max_epochs=1",
            "--set", "compute_mmd=false",
        ])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r[0] for r in rows] == ["alpha=0.0", "alpha=0.5"]
        assert (tmp_path / "sweep" / "sweep.csv").exists()


class TestTimingCommand:
    def test_small_probe(self, capsys):
        rc = main([
            "timing", "--horizons", "4,8", "--batch", "8",
            "--channels", "2", "--history", "6", "--reps", "2",
        ])
        assert rc == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [r["horizon"] for r in results] == [4, 8]


class TestGradcheckCommand:
    def test_passes(self, capsys):
        rc = main(["gradcheck", "--trials", "1", "--tol", "1e-5"])
        assert rc == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results and all(r["pass"] for r in results)


class TestMmdTestCommand:
    def test_same_process_small(self, capsys):
        rc = main(["mmd-test", "--phi", "0.8", "--phi-b", "0.8",
                   "--samples", "400", "--window", "8"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["mmd_squared"]) < 0.1
        assert out["biased"] is False

    def test_different_processes_larger(self, capsys):
        main(["mmd-test", "--phi", "0.1", "--phi-b", "0.95",
              "--samples", "800", "--window", "8"])
        far = json.loads(capsys.readouterr().out)["mmd_squared"]
        main(["mmd-test", "--phi", "0.1", "--phi-b", "0.1",
              "--samples", "800", "--window", "8"])
        near = json.loads(capsys.readouterr().out)["mmd_squared"]
        assert far > near
