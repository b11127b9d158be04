import csv
import json

import numpy as np
import pytest

from types import SimpleNamespace

from kmbdf import data as data_mod
from kmbdf import harness
from kmbdf.data import SplitSpec, WindowPair
from kmbdf.errors import ConfigError, DomainError
from kmbdf.harness import (
    EarlyStopper,
    ExperimentConfig,
    build_dataset,
    evaluate,
    run_sweep,
    timing_probe,
    train,
)
from kmbdf.models import LinearForecaster


def small_config(**overrides):
    base = {
        "data": {"source": "synthetic", "kind": "ar", "length": 400,
                 "channels": 1, "seed": 3, "coeffs": (0.8,)},
        "history_len": 8,
        "horizon": 4,
        "lr": 1e-3,
        "batch_size": 16,
        "max_epochs": 3,
        "patience": 2,
        "seed": 0,
        "objective": {"kind": "mse"},
        "mmd_max_samples": 32,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestEvaluate:
    def test_hand_example(self):
        # Forecast is identically zero; label entries are 1 and 3 so the
        # per-element MSE is (1 + 9) / 2 = 5 and the MAE is (1 + 3) / 2 = 2.
        model = LinearForecaster(np.zeros((2, 2)), np.zeros(2), 2, 2, 1)
        w = WindowPair(history=np.zeros((2, 1)), label=np.array([[1.0], [3.0]]))
        mse, mae = evaluate(model, [w])
        assert mse == 5.0
        assert mae == 2.0

    def test_perfect_model(self):
        model = LinearForecaster(np.array([[0.0, 1.0]]), np.zeros(1), 2, 1, 1)
        w = WindowPair(history=np.array([[5.0], [7.0]]), label=np.array([[7.0]]))
        mse, mae = evaluate(model, [w])
        assert mse == 0.0 and mae == 0.0

    def test_empty_rejected(self):
        model = LinearForecaster(np.zeros((1, 1)), np.zeros(1), 1, 1, 1)
        with pytest.raises(ConfigError):
            evaluate(model, [])


class TestEarlyStopper:
    def test_improving_curve_never_stops(self):
        s = EarlyStopper(patience=2)
        for epoch, v in enumerate([5.0, 4.0, 3.0, 2.0], start=1):
            assert s.update(epoch, v) is False
        assert s.best_epoch == 4
        assert s.best_value == 2.0

    def test_stops_after_patience(self):
        s = EarlyStopper(patience=3)
        script = [5.0, 4.0, 4.5, 4.6, 4.7]
        stops = [s.update(e, v) for e, v in enumerate(script, start=1)]
        assert stops == [False, False, False, False, True]
        assert s.best_epoch == 2

    def test_patience_one(self):
        s = EarlyStopper(patience=1)
        assert s.update(1, 3.0) is False
        assert s.update(2, 3.5) is True
        assert s.best_epoch == 1

    def test_improvement_resets_counter(self):
        s = EarlyStopper(patience=2)
        script = [5.0, 5.5, 4.0, 4.2, 4.3]
        stops = [s.update(e, v) for e, v in enumerate(script, start=1)]
        assert stops == [False, False, False, False, True]
        assert s.best_epoch == 3

    def test_tie_is_not_improvement(self):
        s = EarlyStopper(patience=1)
        assert s.update(1, 2.0) is False
        assert s.update(2, 2.0) is True

    def test_bad_patience(self):
        with pytest.raises(ConfigError):
            EarlyStopper(patience=0)


class TestBuildDataset:
    def test_window_counts_and_shapes(self):
        ds = build_dataset(small_config())
        assert set(ds["windows"]) == {"train", "val", "test"}
        w = ds["windows"]["train"][0]
        assert w.history.shape == (8, 1)
        assert w.label.shape == (4, 1)
        assert ds["stats"] is not None

    def test_standardize_off(self):
        cfg = small_config(split={"standardize": False})
        ds = build_dataset(cfg)
        assert ds["stats"] is None

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            build_dataset(small_config(data={"source": "parquet"}))

    def test_unknown_config_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"learning_rate": 1e-3})

    @pytest.mark.parametrize("overrides", [
        {"data": {"source": "synthetic", "lenght": 400}},
        {"data": {"source": "csv", "path": "x.csv", "seed": 1}},
        {"objective": {"kind": "mse", "alpha": 0.3}},
        {"objective": {"kind": "kmb_df", "alpah": 0.5}},
        {"objective": {"kind": "kmb_df", "kernel": {"familly": "gaussian"}}},
        {"objective": {"kind": "huber"}},
        {"max_epochs": 0},
        {"split": {"trian": 0.7}},
        {"data": {"source": "csv"}},
        {"mmd_max_samples": 1},
        {"compute_mmd": True, "mmd_max_samples": 0},
    ])
    def test_rejected_at_parse(self, monkeypatch, overrides):
        def forbidden(*args, **kwargs):
            raise AssertionError("data built for an invalid config")

        monkeypatch.setattr(data_mod, "generate", forbidden)
        monkeypatch.setattr(data_mod, "load_csv", forbidden)
        with pytest.raises(ConfigError):
            small_config(**overrides)


class TestTrain:
    def test_mse_run_reports(self, tmp_path):
        out = tmp_path / "run"
        rep = train(small_config(out=str(out)))
        assert np.isfinite(rep.test_mse) and rep.test_mse >= 0.0
        assert np.isfinite(rep.test_mae) and rep.test_mae >= 0.0
        assert rep.test_mmd is not None and np.isfinite(rep.test_mmd)
        assert 1 <= rep.best_epoch <= len(rep.epochs)
        assert (out / "report.json").exists()
        assert (out / "trace.csv").exists()
        assert (out / "checkpoint.json").exists()
        loaded = json.loads((out / "report.json").read_text())
        assert loaded["test_mse"] == rep.test_mse

    def test_kmb_df_alpha_zero_matches_mse(self):
        kmb = train(small_config(objective={
            "kind": "kmb_df", "alpha": 0.0, "top_k": 3, "margin_c": 0.001,
            "kernel": {"family": "exponential", "sigma": "median"},
        }))
        mse = train(small_config())
        assert kmb.test_mse == pytest.approx(mse.test_mse, rel=1e-12)
        assert kmb.test_mae == pytest.approx(mse.test_mae, rel=1e-12)

    def test_kmb_df_records_sigma_and_balance(self):
        rep = train(small_config(objective={
            "kind": "kmb_df", "alpha": 0.3, "top_k": 3, "margin_c": 0.001,
            "kernel": {"family": "exponential", "sigma": "median"},
        }))
        assert rep.resolved_sigma is not None and rep.resolved_sigma > 0.0
        assert rep.balance_summary is not None
        assert len(rep.balance_summary["selected"]) == 3

    def test_deterministic(self):
        a = train(small_config()).to_json(include_timing=False)
        b = train(small_config()).to_json(include_timing=False)
        assert a == b

    def test_early_stopping_limits_epochs(self):
        # Once the linear model has converged, validation MSE fluctuates
        # around its floor, so the stopper fires long before the epoch cap.
        rep = train(small_config(max_epochs=300, patience=3, lr=1e-2))
        assert len(rep.epochs) < 300
        assert len(rep.epochs) == rep.best_epoch + 3


class TestRunSweep:
    def base(self):
        return small_config(
            max_epochs=2,
            objective={
                "kind": "kmb_df", "alpha": 0.3, "top_k": 3, "margin_c": 0.001,
                "kernel": {"family": "exponential", "sigma": "median"},
            },
            compute_mmd=False,
        )

    def test_alpha_sweep_with_baseline(self, tmp_path):
        rows, reports = run_sweep(self.base(), "alpha", [0.0, 0.5], out_dir=str(tmp_path))
        labels = [r[0] for r in rows]
        assert labels == ["alpha=0.0", "alpha=0.5"]
        zero = rows[0]
        assert zero[3] == 0.0 and zero[4] == 0.0
        base_mse, base_mae = zero[1], zero[2]
        for label, mse, mae, dmse, dmae in rows[1:]:
            assert dmse == pytest.approx(100.0 * (mse - base_mse) / base_mse, abs=1e-9)
            assert dmae == pytest.approx(100.0 * (mae - base_mae) / base_mae, abs=1e-9)
        with open(tmp_path / "sweep.csv", newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["param", "MSE", "MAE", "dMSE_pct", "dMAE_pct"]
        assert len(parsed) == 3
        assert float(parsed[1][1]) == pytest.approx(base_mse)

    def test_top_k_sweep_adds_reference_row(self):
        rows, reports = run_sweep(self.base(), "top_k", [2])
        assert rows[0][0] == "DF"
        assert rows[0][3] == 0.0
        assert "DF" in reports and "top_k=2" in reports

    def test_bad_param(self):
        with pytest.raises(ConfigError):
            run_sweep(self.base(), "lr", [1e-3])

    @staticmethod
    def fake_train(error):
        def fake(config):
            if config.objective["alpha"] == 0.5:
                raise error
            return SimpleNamespace(test_mse=1.0, test_mae=2.0)

        return fake

    def test_package_error_becomes_failed_row(self, monkeypatch):
        monkeypatch.setattr(harness, "train", self.fake_train(DomainError("diverged")))
        rows, reports = run_sweep(self.base(), "alpha", [0.3, 0.5])
        assert rows == [
            ("DF", 1.0, 2.0, 0.0, 0.0),
            ("alpha=0.3", 1.0, 2.0, 0.0, 0.0),
            ("alpha=0.5", None, None, None, "diverged"),
        ]
        assert set(reports) == {"DF", "alpha=0.3"}

    def test_programming_error_propagates(self, monkeypatch):
        monkeypatch.setattr(harness, "train", self.fake_train(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            run_sweep(self.base(), "alpha", [0.3, 0.5])

    def test_requires_kmb_df(self):
        with pytest.raises(ConfigError):
            run_sweep(small_config(), "alpha", [0.5])


class TestTimingProbe:
    def test_shape_and_fields(self):
        res = timing_probe([4, 8], n=8, channels=2, history_len=6, reps=2, seed=0)
        assert [r["horizon"] for r in res] == [4, 8]
        for r in res:
            assert r["forward_ms"] > 0.0
            assert r["backward_ms"] > 0.0
            assert r["total_ms"] > 0.0
