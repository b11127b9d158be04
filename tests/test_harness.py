import collections
import copy
import csv
import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from types import SimpleNamespace

from kmbdf import data as data_mod
from kmbdf import balancing, harness, kernels
from kmbdf.data import SplitSpec, WindowPair
from kmbdf.balancing import mmd_squared
from kmbdf.errors import ConfigError, DomainError, ShapeError
from kmbdf.harness import (
    ExperimentConfig,
    build_dataset,
    evaluate,
    run_sweep,
    timing_probe,
    train,
)
from kmbdf.kernels import KernelSpec, median_bandwidth
from kmbdf.models import LinearForecaster, forward_batch, init_forecaster
from kmbdf.objectives import KmbDfObjective, MseObjective


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

    def test_squares_the_absolute_errors_exactly(self):
        # The MSE squares |e| in place: the same bits as e * e at signed
        # zeros, an underflowing square and a large error.
        model = LinearForecaster(np.zeros((5, 1)), np.zeros(5), 1, 5, 1)
        labels = np.array([0.0, -0.0, 1e-160, -1e150, 3.0]).reshape(1, 5, 1)
        err = 0.0 - labels
        assert evaluate(model, (np.zeros((1, 1, 1)), labels)) == (
            float(np.mean(err * err)), float(np.mean(np.abs(err)))
        )

    def test_ragged_window_pairs_raise_shape_error(self):
        model = LinearForecaster(np.zeros((2, 3)), np.zeros(2), 3, 2, 1)
        good = WindowPair(np.zeros((3, 1)), np.zeros((2, 1)))
        for bad in (WindowPair(np.zeros((2, 1)), np.zeros((2, 1))),
                    WindowPair(np.zeros((3, 1)), np.zeros((1, 1)))):
            with pytest.raises(ShapeError):
                evaluate(model, [good, bad])

    def test_empty_rejected(self):
        model = LinearForecaster(np.zeros((1, 1)), np.zeros(1), 1, 1, 1)
        with pytest.raises(ConfigError):
            evaluate(model, [])
        with pytest.raises(ConfigError):
            evaluate(model, (np.zeros((0, 1, 1)), np.zeros((0, 1, 1))))

    def test_stacks_equal_lists_exactly(self):
        cfg = small_config(data={"source": "synthetic", "kind": "ar", "length": 400,
                                 "channels": 3, "seed": 3, "coeffs": (0.8,)})
        dataset = build_dataset(cfg)
        model = init_forecaster(cfg.history_len, cfg.horizon, 3, seed=5)
        for split in ("train", "val", "test"):
            assert evaluate(model, dataset["stacks"][split]) == evaluate(
                model, dataset["windows"][split]
            )

    def test_mismatched_labels_rejected(self):
        model = LinearForecaster(np.zeros((2, 3)), np.zeros(2), 3, 2, 1)
        with pytest.raises(ShapeError):
            evaluate(model, (np.zeros((4, 3, 1)), np.zeros((4, 1, 1))))

    def test_inputs_unmodified(self):
        cfg = small_config()
        xs, ys = build_dataset(cfg)["stacks"]["val"]  # read-only views
        model = init_forecaster(cfg.history_len, cfg.horizon, 1, seed=5)
        weight = model.weight.copy()
        writable = xs.copy(), ys.copy()
        for windows in ((xs, ys), writable):
            before = [z.copy() for z in windows]
            preds = forward_batch(model, windows[0])
            err = preds - windows[1]
            assert evaluate(model, windows) == (
                float(np.mean(err * err)), float(np.mean(np.abs(err)))
            )
            for z, b in zip(windows, before):
                np.testing.assert_array_equal(z, b)
        np.testing.assert_array_equal(model.weight, weight)


class TestTestMmd:
    def test_matches_concatenated_joints(self):
        # Reference: the real and forecast joints concatenated, with the
        # bandwidth and MMD^2 computed on them.
        rng = np.random.default_rng(31)
        for n, h, t, d, offset in ((40, 8, 4, 3, 0.0), (60, 12, 6, 2, 1e3), (9, 5, 3, 1, 0.0)):
            hist = offset + rng.normal(size=(n, h, d))
            labels = offset + rng.normal(size=(n, t, d))
            model = init_forecaster(h, t, d, seed=n)
            for max_samples in (n, n // 2):
                idx = np.unique(np.linspace(0, n - 1, min(max_samples, n)).astype(int))
                x = hist[idx]
                reals = np.concatenate([x, labels[idx]], axis=1)
                fcs = np.concatenate([x, forward_batch(model, x)], axis=1)
                kernel = KernelSpec(family="exponential", sigma=median_bandwidth(reals))
                expected = mmd_squared(kernel, reals, fcs).value
                np.testing.assert_allclose(
                    harness._test_mmd(model, hist, labels, max_samples, {}), expected,
                    rtol=1e-10, atol=0,
                )

    def test_window_views_match_concatenated_joints(self, monkeypatch):
        # The blocks of `data.joint_windows`: every window takes the sliding
        # path of `pair_sq_dists` (two `_pairwise` products, for g_qq and
        # g_pq); over the cap the gathered copies take four products (the
        # history block, the labels' distances for the bandwidth and g_pp,
        # g_qq and g_pq).
        rng = np.random.default_rng(32)
        x = np.zeros((120, 3))
        for i in range(1, len(x)):
            x[i] = 0.9 * x[i - 1] + rng.normal(size=3)
        repeated = x.copy()
        repeated[80:110] = repeated[20:50]
        products = []
        pairwise = kernels._pairwise

        def counted(*args, **kwargs):
            products.append(args[0].shape)
            return pairwise(*args, **kwargs)

        monkeypatch.setattr(kernels, "_pairwise", counted)
        for series in (x, 1e3 + x, repeated):
            joints = data_mod.joint_windows(series, 15)
            hist, labels = joints[:, :10], joints[:, 10:]
            model = init_forecaster(10, 5, 3, seed=7)
            n = len(hist)
            for max_samples, expected_products in ((n, 2), (n + 5, 2), (n // 3, 4)):
                idx = np.unique(np.linspace(0, n - 1, min(max_samples, n)).astype(int))
                x_idx = hist[idx]
                reals = np.concatenate([x_idx, labels[idx]], axis=1)
                fcs = np.concatenate([x_idx, forward_batch(model, x_idx)], axis=1)
                kernel = KernelSpec(family="exponential", sigma=median_bandwidth(reals))
                expected = mmd_squared(kernel, reals, fcs).value
                products.clear()
                np.testing.assert_allclose(
                    harness._test_mmd(model, hist, labels, max_samples, {}), expected,
                    rtol=1e-10, atol=0,
                )
                assert len(products) == expected_products


KMB_DF = {
    "kind": "kmb_df", "alpha": 0.3, "top_k": 3, "margin_c": 0.001,
    "kernel": {"family": "exponential", "sigma": "median"},
}


class TestTestMmdReuse:
    """A dataset's test MMD^2 real side is formed by its first run and
    reused by every later one.  small_config's test split holds 77 windows:
    a cap of 100 keeps them all (the sliding path), 32 picks copies."""

    @staticmethod
    def config(cap, **overrides):
        return small_config(max_epochs=2, objective=KMB_DF, mmd_max_samples=cap, **overrides)

    @staticmethod
    def recorded(monkeypatch, module, name, products):
        """Calls of `module.name` as (args, result, `_pairwise` products)."""
        calls, fn = [], getattr(module, name)

        def record(*args, **kwargs):
            before = len(products)
            out = fn(*args, **kwargs)
            calls.append((copy.deepcopy(args), out, len(products) - before))
            return out

        monkeypatch.setattr(module, name, record)
        return calls

    @pytest.mark.parametrize("cap", [100, 32], ids=["sliding", "over the cap"])
    def test_sweep_forms_one_real_side(self, cap, monkeypatch):
        datasets, build = [], harness.build_dataset
        monkeypatch.setattr(harness, "build_dataset",
                            lambda c: datasets.append(build(c)) or datasets[-1])
        products, pairwise = [], kernels._pairwise
        monkeypatch.setattr(kernels, "_pairwise", lambda *a: products.append(1) or pairwise(*a))
        medians = self.recorded(monkeypatch, balancing, "median_gram", products)
        tests = self.recorded(monkeypatch, harness, "_test_mmd", products)
        _, reports = run_sweep(self.config(cap), "alpha", [0.1, 0.3])
        assert list(reports) == ["DF", "alpha=0.1", "alpha=0.3"]
        assert len(medians) == 1
        (dataset,) = datasets
        assert list(dataset["mmd_real"]) == [cap]
        # Every later run forms only g_qq and g_pq; over the cap the first
        # also forms the history block and the labels' distances.
        assert [count for *_, count in tests] == [2 if cap > 77 else 4, 2, 2]
        for report, ((model, hist, labels, *_), value, _) in zip(
            reports.values(), tests
        ):
            picks = slice(None) if cap > 77 else np.unique(np.linspace(0, 76, cap).astype(int))
            fcs = forward_batch(model, hist[picks])
            fresh = mmd_squared(KernelSpec(family="exponential"), labels[picks], fcs, hist[picks])
            assert report.test_mmd == value == fresh.value
            alone = train(ExperimentConfig.from_dict(report.config))
            assert alone.to_json(include_timing=False) == report.to_json(include_timing=False)

    def test_each_cap_has_its_own_real_side(self):
        dataset = build_dataset(self.config(32))
        fresh = {name: [z.copy() for z in views] for name, views in dataset["stacks"].items()}
        train(self.config(32, compute_mmd=False), dataset)
        assert dataset["mmd_real"] == {}
        reports = [train(self.config(cap, seed=seed), dataset)
                   for cap, seed in ((32, 0), (100, 1), (32, 2))]
        real = dataset["mmd_real"]
        assert sorted(real) == [32, 100]
        assert (len(real[32].sample), len(real[100].sample)) == (32, 77)
        assert reports[2].test_mmd == train(self.config(32, seed=2)).test_mmd
        for name, views in dataset["stacks"].items():
            for z, before in zip(views, fresh[name]):
                assert not z.flags.writeable
                np.testing.assert_array_equal(z, before)


class TestBuildDataset:
    def test_window_counts_and_shapes(self):
        ds = build_dataset(small_config())
        assert set(ds["windows"]) == {"train", "val", "test"}
        w = ds["windows"]["train"][0]
        assert w.history.shape == (8, 1)
        assert w.label.shape == (4, 1)
        assert ds["stats"] is not None

    def test_stacks_index_like_stacked_windows(self):
        cfg = small_config(data={"source": "synthetic", "kind": "ar", "length": 400,
                                 "channels": 3, "seed": 3, "coeffs": (0.8,)})
        ds = build_dataset(cfg)
        for name, windows in ds["windows"].items():
            idx = np.random.default_rng(0).permutation(len(windows))[:16]
            hist, labels = ds["stacks"][name]
            np.testing.assert_array_equal(
                ds["joints"][name], np.concatenate([hist, labels], axis=1)
            )
            for view, ref in ((hist, np.stack([w.history for w in windows])),
                              (labels, np.stack([w.label for w in windows]))):
                batch = view[idx]
                assert batch.flags.c_contiguous
                assert batch.shape == ref[idx].shape
                assert batch.tobytes() == ref[idx].tobytes()
                with pytest.raises(ValueError):
                    view[0, 0, 0] = 1.0

    def test_builds_no_window_pair(self, monkeypatch):
        made = []

        def counted(*args):
            made.append(args)
            return WindowPair(*args)

        monkeypatch.setattr(data_mod, "WindowPair", counted)
        ds = build_dataset(small_config())
        assert made == []
        ds["windows"]["val"][0]  # built when read
        assert len(made) == 1

    def test_windows_share_memory_with_joints(self):
        ds = build_dataset(small_config())
        for name, joints in ds["joints"].items():
            windows = ds["windows"][name]
            assert len(windows) == len(joints)
            assert np.shares_memory(windows.joints, joints)
            assert np.shares_memory(windows[-1].label, joints)

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
        {"lr": "abc"},
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"lr": True},
        {"batch_size": 32.5},
        {"max_epochs": 2.5},
        {"history_len": "24"},
        {"seed": "x"},
        {"patience": True},
        {"compute_mmd": "no"},
        {"compute_mmd": 1},
        {"objective": {"kind": "kmb_df", "alpha": "abc"}},
        {"objective": {"kind": "kmb_df", "kernel": {"family": "cosine"}}},
        {"objective": {"kind": "freq_l1", "beta": "x"}},
        {"objective": {"kind": "kmb_df", "top_k": "x"}},
        {"objective": "mse"},
        {"data": "synthetic"},
        {"split": {"train": "0.7"}},
        {"data": {"source": "synthetic", "length": "400"}},
        {"objective": {"kind": "kmb_df", "top_k": 2.7}},
        {"objective": {"kind": "kmb_df", "kernel": {"family": "polynomial", "degree": 2.5}}},
        {"split": {"standardize": "no"}},
        {"objective": {"kind": "kmb_df", "alpha": 2}},
        {"objective": {"kind": "kmb_df", "top_k": 0}},
        {"objective": {"kind": "kmb_df", "margin_c": -1}},
        {"objective": {"kind": "kmb_df", "anchor_mode": "bogus"}},
        {"objective": {"kind": "kmb_df", "kernel": {"sigma": -1}}},
        {"objective": {"kind": "kmb_df", "kernel": {"sigma": "auto"}}},
        {"objective": {"kind": "kmb_df", "kernel": {"family": "polynomial"}}},
        {"objective": {"kind": "freq_l1", "beta": 2}},
        {"data": {"source": "synthetic", "length": 30}},
        {"out": 5},
        {"seed": -1},
        {"lr": 10**400},
        {"data": {1: 2, "lenght": 400}},
        # The inner-product scale and offset are fixed: no config names them.
        {"objective": {"kind": "kmb_df", "kernel": {"family": "sigmoid", "scale": 0.5}}},
        {"objective": {"kind": "kmb_df", "kernel": {"family": "polynomial", "degree": 2,
                                                    "offset": 1.0}}},
    ])
    def test_rejected_at_parse(self, monkeypatch, overrides):
        def forbidden(*args, **kwargs):
            raise AssertionError("data built for an invalid config")

        monkeypatch.setattr(data_mod, "generate", forbidden)
        monkeypatch.setattr(data_mod, "load_csv", forbidden)
        with pytest.raises(ConfigError):
            small_config(**overrides)


    def test_integer_lr_and_numpy_integers_accepted(self):
        # Normalised at parse, so the report's config echo is plain JSON.
        cfg = small_config(lr=1, seed=np.int64(4), compute_mmd=False)
        assert cfg.lr == 1 and cfg.seed == 4
        assert type(cfg.lr) is float and type(cfg.seed) is int
        assert json.loads(json.dumps(cfg.to_dict()))["seed"] == 4

    def test_config_is_frozen_and_typed(self):
        cfg = small_config(objective={"kind": "kmb_df", "top_k": 2})
        with pytest.raises(FrozenInstanceError):
            cfg.max_epochs = 3
        assert isinstance(cfg.data, data_mod.SyntheticSpec)
        assert cfg.data.coeffs == (0.8,)
        balance = cfg.objective.config
        assert (balance.alpha, balance.top_k, balance.margin_c) == (0.3, 2, 0.001)
        assert balance.kernel == KernelSpec(family="exponential", sigma="median")
        assert (balance.anchor_mode, balance.hinge_mode) == ("forecast", "canonical")
        assert ExperimentConfig.from_dict({}).objective == MseObjective()

    def test_csv_source(self, tmp_path):
        cfg = small_config(data={"source": "csv", "path": str(tmp_path / "x.csv")})
        assert cfg.data == data_mod.CsvSpec(path=str(tmp_path / "x.csv"), date_column=True)
        assert cfg.to_dict()["data"] == {"source": "csv", "path": str(tmp_path / "x.csv"),
                                         "date_column": True}


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
        # The bandwidth is the median heuristic over the first batch_size
        # training joints (all 269 of them when batch_size is larger).
        for batch_size in (16, 300):
            cfg = small_config(batch_size=batch_size, objective={
                "kind": "kmb_df", "alpha": 0.3, "top_k": 3, "margin_c": 0.001,
                "kernel": {"family": "exponential", "sigma": "median"},
            })
            rep = train(cfg)
            xs, ys = build_dataset(cfg)["stacks"]["train"]
            joints = np.concatenate([xs[:batch_size], ys[:batch_size]], axis=1)
            np.testing.assert_allclose(
                rep.resolved_sigma, median_bandwidth(joints), rtol=1e-12, atol=0
            )
            assert rep.balance_summary is not None
            assert len(rep.balance_summary["selected"]) == 3

    def test_test_split_too_small_for_mmd_fails_before_training(self, monkeypatch, tmp_path):
        def forbidden(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(harness, "forward_batch", forbidden)
        # 25 / 17 / 1 windows: one test window has no pair for MMD^2.
        split = {"split": {"train": 0.6, "val": 0.28, "test": 0.12},
                 "history_len": 24, "horizon": 12}
        synthetic = {"kind": "ar", "length": 100, "channels": 1, "seed": 3, "coeffs": (0.8,)}
        # A synthetic source's window count follows from the config: parse fails.
        with pytest.raises(ConfigError, match="test windows"):
            small_config(data=synthetic, **split)
        small_config(data=synthetic, compute_mmd=False, **split)
        # A CSV's rows are known only once read: train() fails before a step.
        path = tmp_path / "short.csv"
        series = data_mod.generate(data_mod.SyntheticSpec(**synthetic))
        path.write_text("a\n" + "".join(f"{float(v)!r}\n" for v in series[:, 0]))
        cfg = small_config(data={"source": "csv", "path": str(path), "date_column": False}, **split)
        assert len(build_dataset(cfg)["stacks"]["test"][0]) == 1
        with pytest.raises(ConfigError, match="test windows"):
            train(cfg)

    def test_non_finite_loss_raises_naming_its_step(self):
        # Adam's first step at this rate overflows the forecasts, so the
        # second step's loss is not finite.
        with np.errstate(all="ignore"), pytest.raises(DomainError, match="epoch 1, step 1: "):
            train(small_config(lr=1e300))

    def test_non_finite_validation_raises_naming_its_epoch(self, tmp_path):
        # One step per epoch: its loss is finite, but the step overflows the
        # forecaster, so the validation MSE is not.
        cfg = ExperimentConfig.from_dict({
            "data": {"length": 300}, "history_len": 8, "horizon": 4, "batch_size": 256,
            "max_epochs": 1, "mmd_max_samples": 32, "lr": 1e300, "out": str(tmp_path / "run"),
        })
        with np.errstate(all="ignore"), pytest.raises(DomainError, match="at epoch 1: "):
            train(cfg)
        assert not (tmp_path / "run" / "report.json").exists()
        # The directory is made before the first step, and left empty.
        assert list((tmp_path / "run").iterdir()) == []

    def test_out_that_is_a_file_fails_before_any_step(self, monkeypatch, tmp_path):
        def forbidden(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(harness, "adam_step", forbidden)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        with pytest.raises(FileExistsError):
            train(small_config(out=str(afile)))
        assert afile.read_text() == "kept"

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

    @pytest.mark.parametrize("script, patience, max_epochs, best_epoch", [
        ([5.0, 4.0, 3.0, 2.0], 2, 4, 4),
        ([5.0, 4.0, 4.5, 4.6, 4.7], 3, 10, 2),
        ([3.0, 3.5], 1, 10, 1),
        ([5.0, 5.5, 4.0, 4.2, 4.3], 2, 10, 3),
        ([2.0, 2.0], 1, 10, 1),
    ], ids=["improving", "patience_3", "patience_1", "improvement_resets", "tie"])
    def test_early_stopping_on_scripted_validation(
        self, monkeypatch, script, patience, max_epochs, best_epoch
    ):
        # Each epoch's validation MSE comes from `script`; a later epoch
        # would find it empty.  Only a strictly lower MSE is a new best.
        cfg = small_config(patience=patience, max_epochs=max_epochs, compute_mmd=False)
        dataset = build_dataset(cfg)
        scripted, weights, tested = list(script), [], []
        real_evaluate = harness.evaluate

        def scripted_evaluate(model, windows):
            if windows is dataset["stacks"]["val"]:
                weights.append((model.weight.copy(), model.bias.copy()))
                return scripted.pop(0), 0.0
            tested.append((model.weight.copy(), model.bias.copy()))
            return real_evaluate(model, windows)

        monkeypatch.setattr(harness, "evaluate", scripted_evaluate)
        rep = train(cfg, dataset)
        assert len(rep.epochs) == len(script) and not scripted
        assert rep.best_epoch == best_epoch
        assert [e["val_mse"] for e in rep.epochs] == script
        # The test split sees the best epoch's parameters, not the last's.
        (weight, bias), = tested
        np.testing.assert_array_equal(weight, weights[best_epoch - 1][0])
        np.testing.assert_array_equal(bias, weights[best_epoch - 1][1])
        if best_epoch < len(script):
            assert not np.array_equal(weight, weights[-1][0])

    @pytest.mark.parametrize("other", [
        {"horizon": 5},
        {"split": {"train": 0.6, "val": 0.2, "test": 0.2}},
        {"data": {"source": "synthetic", "kind": "ar", "length": 400,
                  "channels": 1, "seed": 4, "coeffs": (0.8,)}},
    ], ids=["horizon", "split", "data seed"])
    def test_foreign_dataset_rejected_before_a_step(self, monkeypatch, other):
        def forbidden(*args, **kwargs):
            raise AssertionError("a training step ran")

        dataset = build_dataset(small_config(**other))
        monkeypatch.setattr(harness, "forward_batch", forbidden)
        with pytest.raises(ConfigError, match="dataset was built for another"):
            train(small_config(), dataset)

    def test_calls_what_the_benchmark_traces(self, monkeypatch):
        # The benchmark's tracer patches these names in `kmbdf.harness` and
        # `kmbdf.balancing`, and its step clock times a step from one
        # `harness.adam_step` return to the next: every training step calls
        # forward, backward and Adam once each through the harness module,
        # its objective stacks the batch once and runs the score, top-K and
        # hinge stages once each through the balancing module, and the test
        # MMD^2 reaches `mmd_squared` and `gram_matrix`.
        # A call counts as "evaluation" inside `evaluate` or `_test_mmd`.
        calls, active = collections.Counter(), []

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name, "evaluation" if any(active) else "loop"] += 1
                active.append(name in ("evaluate", "_test_mmd"))
                try:
                    return fn(*args, **kwargs)
                finally:
                    active.pop()

            monkeypatch.setattr(module, name, counted)

        for name in ("forward_batch", "backward_batch", "adam_step", "evaluate", "_test_mmd",
                     "mmd_squared"):
            count(harness, name)
        for name in ("gram_matrix", "_as_stacks", "informativeness_scores", "select_top_k",
                     "hinge_slack"):
            count(balancing, name)
        rep = train(small_config(objective={
            "kind": "kmb_df", "alpha": 0.3, "top_k": 3, "margin_c": 0.001,
            "kernel": {"family": "exponential", "sigma": "median"},
        }))
        steps = rep.timing["steps"]
        assert steps == 17 * len(rep.epochs) > 0  # 269 training windows in batches of 16
        for name in ("forward_batch", "backward_batch", "adam_step", "_as_stacks",
                     "informativeness_scores", "select_top_k", "hinge_slack"):
            assert calls[name, "loop"] == steps, name
        assert calls["evaluate", "loop"] == len(rep.epochs) + 1
        assert calls["_test_mmd", "loop"] == 1
        assert calls["mmd_squared", "evaluation"] == 1
        assert calls["gram_matrix", "evaluation"] >= 1
        assert calls["backward_batch", "evaluation"] == calls["adam_step", "evaluation"] == 0

    def test_timing_phases_outside_payload(self):
        cfg = small_config()
        own = train(cfg)
        passed = train(cfg, build_dataset(cfg))
        for rep in (own, passed):
            phases = {k: rep.timing[k] for k in ("build_s", "val_s", "test_mse_s", "test_mmd_s")}
            assert all(isinstance(v, float) and v >= 0.0 for v in phases.values()), phases
            assert not set(phases) & set(rep.to_dict(include_timing=False))
        assert own.timing["build_s"] > 0.0
        assert passed.timing["build_s"] == 0.0
        assert own.to_json(include_timing=False) == passed.to_json(include_timing=False)
        assert train(small_config(compute_mmd=False)).timing["test_mmd_s"] >= 0.0


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

    @pytest.mark.parametrize("param, values", [("alpha", [0.0, 0.3]), ("top_k", [2])])
    def test_reports_equal_separate_runs(self, param, values):
        base = replace(self.base(), compute_mmd=True)
        overrides = {"DF": {"alpha": 0.0}, **{f"{param}={v}": {param: v} for v in values}}
        _, reports = run_sweep(base, param, values)
        assert set(reports) == set(overrides)
        for label, rep in reports.items():
            balance = replace(base.objective.config, **overrides[label])
            alone = train(replace(base, objective=replace(base.objective, config=balance)))
            assert rep.test_mmd is not None
            assert rep.to_json(include_timing=False) == alone.to_json(include_timing=False)

    def test_builds_dataset_once(self, monkeypatch):
        calls = []
        build = harness.build_dataset

        def counted(config):
            calls.append(config)
            return build(config)

        monkeypatch.setattr(harness, "build_dataset", counted)
        _, reports = run_sweep(self.base(), "alpha", [0.3, 0.5])
        assert len(calls) == 1 and len(reports) == 3
        assert all(rep.timing["build_s"] == 0.0 for rep in reports.values())

    def test_bad_param(self):
        with pytest.raises(ConfigError):
            run_sweep(self.base(), "lr", [1e-3])

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="grid is empty"):
            run_sweep(self.base(), "alpha", [])

    @staticmethod
    def fake_train(error):
        def fake(config, dataset=None):
            if config.objective.config.alpha == 0.5:
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

    def test_out_dir_that_is_a_file_fails_before_the_dataset(self, monkeypatch, tmp_path):
        def forbidden(*args):
            raise AssertionError("the dataset was built")

        monkeypatch.setattr(harness, "build_dataset", forbidden)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        with pytest.raises(FileExistsError):
            run_sweep(self.base(), "alpha", [0.3], out_dir=str(afile))
        assert afile.read_text() == "kept"


class TestTimingProbe:
    def test_shape_and_fields(self):
        res = timing_probe([4, 8], n=8, channels=2, history_len=6, reps=2, seed=0)
        assert [r["horizon"] for r in res] == [4, 8]
        for r in res:
            assert set(r) == {"horizon", "loss_and_grad_ms"}
            assert r["loss_and_grad_ms"] > 0.0

    def test_times_the_objective_call(self, monkeypatch):
        calls = []
        original = KmbDfObjective.loss_and_grad

        def counted(self, *batch):
            calls.append(self.config)
            return original(self, *batch)

        monkeypatch.setattr(KmbDfObjective, "loss_and_grad", counted)
        timing_probe([4], n=2, channels=2, history_len=3, reps=3, seed=0)
        # One untimed call and `reps` timed ones, with the default balance
        # settings whatever the batch size.
        assert len(calls) == 4
        assert {(c.alpha, c.top_k, c.margin_c) for c in calls} == {(0.3, 3, 0.001)}

    def test_times_the_horizons_round_robin(self, monkeypatch):
        horizons = []
        original = KmbDfObjective.loss_and_grad

        def recorded(self, hist, labels, fcs):
            horizons.append(labels.shape[1])
            return original(self, hist, labels, fcs)

        monkeypatch.setattr(KmbDfObjective, "loss_and_grad", recorded)
        timing_probe([4, 8, 2], n=4, channels=2, history_len=3, reps=3, seed=0)
        # One untimed call per horizon, then one timed call per horizon in
        # each of the `reps` rounds: a stall spans horizons, not one block.
        assert horizons == [4, 8, 2] * 4

    def test_negative_seed_raises_before_any_call(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the probe ran")

        monkeypatch.setattr(KmbDfObjective, "loss_and_grad", forbidden)
        monkeypatch.setattr(harness, "median_bandwidth", forbidden)
        with pytest.raises(ConfigError, match="seed=-1"):
            timing_probe([4], n=4, channels=2, history_len=3, reps=1, seed=-1)
