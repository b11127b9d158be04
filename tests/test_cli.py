import json
import warnings

import pytest

from kmbdf import checks, cli, harness
from kmbdf.balancing import mmd_squared
from kmbdf.cli import main
from kmbdf.errors import ConfigError


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

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_out_that_is_a_file_exits_2_before_training(self, config_path, capsys, tmp_path,
                                                         monkeypatch, command):
        def forbidden(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(harness, "adam_step", forbidden)
        monkeypatch.setattr(harness, "build_dataset", forbidden)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        argv = ["--out", str(afile), command, "--config", config_path]
        if command == "sweep":
            argv += ["--set", "objective.kind=kmb_df", "--param", "alpha", "--values", "0.3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "OSError"
        assert afile.read_text() == "kept"

    def test_missing_config_errors(self, capsys):
        rc = main(["train", "--config", "/nonexistent/config.json"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "message" in err and "error" in err

    @pytest.mark.parametrize("kind", ["mse", "kmb_df"])
    def test_overflowing_csv_channel_errors(self, tmp_path, capsys, kind):
        rows = [f"2020-01-01,{i}.0,{v}" for i, v in enumerate([0.5] * 80)]
        rows[3] = "2020-01-01,3.0,1e308"
        rows[4] = "2020-01-01,4.0,-1e308"
        (tmp_path / "big.csv").write_text("date,a,b\n" + "\n".join(rows) + "\n")
        cfg = {
            "data": {"source": "csv", "path": str(tmp_path / "big.csv")},
            "history_len": 4, "horizon": 2, "batch_size": 8, "max_epochs": 1,
            "objective": {"kind": kind},
        }
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(tmp_path / "config.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "DataError"
        assert "channel 1" in err["message"]

    def test_not_utf8_csv_errors(self, tmp_path, capsys):
        (tmp_path / "latin.csv").write_bytes(
            b"date,a\n" + b"".join(b"2020-01-01,%d.0\n" % i for i in range(80))
            + b"2020-01-02,\xff\xfe\n"
        )
        cfg = {
            "data": {"source": "csv", "path": str(tmp_path / "latin.csv")},
            "history_len": 4, "horizon": 2, "batch_size": 8, "max_epochs": 1,
        }
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(tmp_path / "config.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "DataError"
        assert "latin.csv: not UTF-8" in err["message"]

    @pytest.mark.parametrize("kind", ["mse", "kmb_df"])
    def test_diverging_run_is_one_domain_error(self, config_path, capsys, kind):
        # The command itself turns NumPy's overflow warnings into its error,
        # whatever the caller's warning filters.
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = main(["train", "--config", config_path, "--set", "lr=1e300",
                       "--set", f"objective.kind={kind}"])
        assert rc == 2 and not seen
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DomainError"

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


    @pytest.mark.parametrize("override", [
        "lr=abc",
        "batch_size=32.5",
        "max_epochs=2.5",
        'history_len="24"',
        'seed="x"',
        'compute_mmd="no"',
    ])
    def test_mistyped_scalar_fails_before_data(self, config_path, capsys, monkeypatch,
                                               override):
        def forbidden(*args, **kwargs):
            raise AssertionError("data built for an invalid config")

        monkeypatch.setattr(harness, "build_dataset", forbidden)
        rc = main(["train", "--config", config_path, "--set", override])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert override.split("=")[0] in err["message"]

    @pytest.mark.parametrize("content, overrides", [
        (b"{not json", []),
        (b"\xff\xfe", []),
        (b"[1, 2]", []),
        (b'"config"', []),
        (None, ["max_epochs.x=1"]),
        (None, ["objective.kind.x=1"]),
        (None, ["data.coeffs.x=1"]),
        (None, ["max_epochs"]),
    ], ids=["not-json", "not-utf8", "list", "string", "set-through-int",
            "set-through-kind", "set-through-list", "set-without-value"])
    def test_malformed_config_exits_with_json(self, config_path, capsys, content,
                                              overrides):
        if content is not None:
            with open(config_path, "wb") as fh:
                fh.write(content)
        argv = ["train", "--config", config_path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("overrides", [
        ["objective.kind=kmb_df", 'objective.alpha="abc"'],
        ["objective.kind=kmb_df", "objective.kernel.family=cosine"],
        ["objective.kind=kmb_df", "objective.top_k=2.7"],
        ["objective.kind=kmb_df", "objective.kernel.sigma=auto"],
        ["objective.kind=freq_l1", "objective.beta=2"],
        ['split.train="0.7"'],
        ["split.standardize=no"],
        ["data.length=30"],
        ["out=5"],
    ])
    def test_motivating_inputs_fail_before_data(self, config_path, capsys, monkeypatch,
                                                overrides):
        def forbidden(*args, **kwargs):
            raise AssertionError("data built for an invalid config")

        monkeypatch.setattr(harness, "build_dataset", forbidden)
        argv = ["train", "--config", config_path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ConfigError"

    @pytest.mark.parametrize("sigma", ["1e300", "1e-200"])
    def test_sigma_squaring_outside_floats_fails_before_data(self, config_path, capsys,
                                                              monkeypatch, sigma):
        # 1e300**2 raised OverflowError inside the kernel; 1e-200**2 is 0.0.
        def forbidden(*args, **kwargs):
            raise AssertionError("data built for an invalid config")

        monkeypatch.setattr(harness, "build_dataset", forbidden)
        rc = main(["train", "--config", config_path, "--set", "objective.kind=kmb_df",
                   "--set", f"objective.kernel.sigma={sigma}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert "sigma" in err["message"]

    def test_integer_lr_accepted(self, config_path, capsys):
        assert main(["train", "--config", config_path, "--set", "lr=1"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["lr"] == 1

    def test_test_split_too_small_for_mmd(self, config_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(harness, "forward_batch", forbidden)
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["data"]["length"] = 100
        raw.update(split={"train": 0.6, "val": 0.28, "test": 0.12},
                   history_len=24, horizon=12)
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        rc = main(["train", "--config", config_path])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert "test windows" in err["message"]


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

    @pytest.mark.parametrize("content", [b"{not json", b'{"version": 1}'])
    def test_malformed_checkpoint_exits_with_json(self, config_path, capsys, tmp_path,
                                                  content):
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_bytes(content)
        rc = main(["evaluate", "--config", config_path, "--checkpoint", str(ckpt)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "DataError"
        assert str(ckpt) in err["message"]


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

    def test_mistyped_values_become_failed_rows(self, config_path, capsys):
        # 2.5 is no top_k and "x" no number: each row fails at parse, none
        # trains with a truncated K.
        rc = main([
            "sweep", "--config", config_path,
            "--param", "top_k", "--values", "2.5,x,2",
            "--set", "objective.kind=kmb_df",
            "--set", "max_epochs=1",
            "--set", "compute_mmd=false",
        ])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r[0] for r in rows] == ["DF", "top_k=2.5", "top_k=x", "top_k=2"]
        assert rows[1][1] is None and "top_k" in rows[1][4]
        assert rows[2][1] is None and "top_k" in rows[2][4]
        assert rows[3][1] is not None

    def test_param_outside_sweep_params_exits_2(self, config_path, capsys):
        # argparse offers exactly the parameters run_sweep accepts.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", config_path, "--param", "lr", "--values", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and all(p in err for p in harness.SWEEP_PARAMS)


# Stands for the `config_path` fixture's file in an argv below.
CONFIG = object()


@pytest.mark.parametrize("argv, needle", [
    (["timing", "--horizons", "a"], "--horizons"),
    (["timing", "--reps", "0"], "reps=0"),
    (["timing", "--horizons", "0"], "horizons=[0]"),
    (["timing", "--horizons", "4", "--channels", "0"], "channels=0"),
    (["mmd-test", "--window", "0"], "--window"),
    (["gradcheck", "--trials", "0"], "trials"),
    (["gradcheck", "--trials", "1", "--tol", "inf"], "tol=inf"),
    (["gradcheck", "--tol", "0"], "tol=0.0"),
    (["gradcheck", "--tol", "-1"], "tol=-1.0"),
    (["gradcheck", "--tol", "nan"], "tol=nan"),
    (["--seed", "-1", "gradcheck"], "seed=-1"),
    (["--seed", "-1", "timing", "--horizons", "4", "--batch", "8", "--channels", "2",
      "--history", "6", "--reps", "1"], "seed=-1"),
    (["timing", "--batch", "-3"], "--batch"),
    (["timing", "--batch", "0"], "--batch"),
    (["timing", "--batch", "1"], "--batch"),
    (["mmd-test", "--samples", "10", "--window", "20"], "--samples 10 and --window 20"),
    (["mmd-test", "--samples", "30", "--window", "20"], "--samples 30 and --window 20"),
    (["train", "--config", CONFIG, "--set", "objective.kind=kmb_df",
      "--set", "objective.kernel.scale=0.5"], "unknown objective.kernel keys: ['scale']"),
    (["train", "--config", CONFIG, "--set", "objective.kind=kmb_df",
      "--set", "objective.kernel.offset=1"], "unknown objective.kernel keys: ['offset']"),
])
def test_out_of_range_argument_exits_with_json(capsys, config_path, argv, needle):
    assert main([config_path if arg is CONFIG else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert needle in err["message"]


class TestTimingCommand:
    def test_small_probe(self, capsys):
        rc = main([
            "timing", "--horizons", "4,8", "--batch", "8",
            "--channels", "2", "--history", "6", "--reps", "2",
        ])
        assert rc == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [r["horizon"] for r in results] == [4, 8]

    def test_batch_smaller_than_top_k(self, capsys):
        # The objective clamps its top_k of 3 to the batch, as in training.
        rc = main([
            "timing", "--horizons", "4", "--batch", "2",
            "--channels", "2", "--history", "6", "--reps", "2",
        ])
        assert rc == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [r["horizon"] for r in results] == [4]
        assert results[0]["loss_and_grad_ms"] > 0.0


class TestGradcheckCommand:
    def test_passes(self, capsys):
        rc = main(["gradcheck", "--trials", "1", "--tol", "1e-5"])
        assert rc == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results and all(r["pass"] for r in results)

    @pytest.mark.parametrize("tol, seed", [
        (float("inf"), 0), (0.0, 0), (-1.0, 0), (float("nan"), 0), (1e-5, -1),
    ])
    def test_bad_tol_or_seed_raises_before_any_check(self, monkeypatch, tol, seed):
        # An infinite tol would pass every case, and a tol <= 0 or NaN fail
        # every one: either switches the check off.
        def forbidden(*args):
            raise AssertionError("a gradient was checked")

        monkeypatch.setattr(checks, "kmb_df_grad", forbidden)
        with pytest.raises(ConfigError, match="0 < tol < inf and seed >= 0"):
            checks.run_gradcheck(trials=1, tol=tol, seed=seed)


class TestMmdTestCommand:
    def test_same_process_small(self, capsys):
        rc = main(["mmd-test", "--phi", "0.8", "--phi-b", "0.8",
                   "--samples", "400", "--window", "8"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"mmd_squared"}
        assert abs(out["mmd_squared"]) < 0.1

    def test_different_processes_larger(self, capsys):
        main(["mmd-test", "--phi", "0.1", "--phi-b", "0.95",
              "--samples", "800", "--window", "8"])
        far = json.loads(capsys.readouterr().out)["mmd_squared"]
        main(["mmd-test", "--phi", "0.1", "--phi-b", "0.1",
              "--samples", "800", "--window", "8"])
        near = json.loads(capsys.readouterr().out)["mmd_squared"]
        assert far > near

    def test_last_full_window_used(self, capsys, monkeypatch):
        sizes = []

        def record(kernel, p, q):
            sizes.append((len(p), len(q)))
            return mmd_squared(kernel, p, q)

        monkeypatch.setattr(cli, "mmd_squared", record)
        assert main(["mmd-test", "--samples", "64", "--window", "16"]) == 0
        assert sizes == [(4, 4)]
