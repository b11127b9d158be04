"""Experiment harness: config, training loop, evaluation, sweeps, timing."""

from __future__ import annotations

import csv
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import data as data_mod
from .balancing import BalanceConfig, kmb_df_grad, kmb_df_loss, mmd_squared
from .errors import ConfigError, DomainError, KmbdfError
from .kernels import KernelSpec, median_bandwidth
from .models import (
    LinearForecaster,
    adam_init,
    adam_step,
    backward_batch,
    forward_batch,
    init_forecaster,
    save_forecaster,
)
from .objectives import make_objective

LR_GRID = (5e-3, 2e-3, 1e-3, 5e-4, 2e-4, 1e-4, 5e-5)
ALPHA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
C_GRID = (0.0005, 0.001, 0.005, 0.01, 0.05)
K_GRID = (1, 2, 3, 4, 5)

_DATA_KEYS = {
    "synthetic": {"source"} | {f.name for f in fields(data_mod.SyntheticSpec)},
    "csv": {"source", "path", "date_column"},
}
_OBJECTIVE_KEYS = {
    "mse": {"kind"},
    "freq_l1": {"kind", "beta"},
    "kmb_df": {"kind", "alpha", "top_k", "margin_c", "kernel", "anchor_mode", "hinge_mode"},
}
_KERNEL_KEYS = {"family", "sigma", "degree", "scale", "offset"}


def _reject_unknown(what: str, given, allowed) -> None:
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


@dataclass
class ExperimentConfig:
    data: dict = field(default_factory=dict)
    split: data_mod.SplitSpec = field(default_factory=data_mod.SplitSpec)
    history_len: int = 24
    horizon: int = 12
    objective: dict = field(default_factory=lambda: {"kind": "mse"})
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 15
    seed: int = 0
    out: str | None = None
    compute_mmd: bool = True
    mmd_max_samples: int = 512

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.history_len < 1 or self.horizon < 1:
            raise ConfigError("history_len and horizon must be positive")
        source = self.data.get("source", "synthetic")
        if source not in _DATA_KEYS:
            raise ConfigError(f"unknown data source {source!r}")
        _reject_unknown("data", self.data, _DATA_KEYS[source])
        if source == "csv" and "path" not in self.data:
            raise ConfigError("csv data source requires a path")
        if self.compute_mmd and self.mmd_max_samples < 2:
            raise ConfigError(
                f"test MMD^2 needs mmd_max_samples >= 2, got {self.mmd_max_samples}"
            )
        kind = self.objective.get("kind", "mse")
        if kind not in _OBJECTIVE_KEYS:
            raise ConfigError(f"unknown objective kind {kind!r}")
        _reject_unknown("objective", self.objective, _OBJECTIVE_KEYS[kind])
        if kind == "kmb_df":
            _reject_unknown("objective.kernel", self.objective.get("kernel", {}), _KERNEL_KEYS)
            k = int(self.objective.get("top_k", 3))
            if self.batch_size < k:
                raise ConfigError(
                    f"batch_size {self.batch_size} smaller than top_k {k}"
                )

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        split = d.pop("split", {})
        if not isinstance(split, data_mod.SplitSpec):
            _reject_unknown("split", split, data_mod.SplitSpec.__dataclass_fields__)
            split = data_mod.SplitSpec(**split)
        _reject_unknown("config", d, cls.__dataclass_fields__)
        return cls(split=split, **d)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainReport:
    config: dict
    seed: int
    epochs: list
    best_epoch: int
    test_mse: float
    test_mae: float
    test_mmd: float | None
    balance_summary: dict | None
    resolved_sigma: float | None
    timing: dict

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "config": self.config,
            "seed": self.seed,
            "epochs": self.epochs,
            "best_epoch": self.best_epoch,
            "test_mse": self.test_mse,
            "test_mae": self.test_mae,
            "test_mmd": self.test_mmd,
            "balance_summary": self.balance_summary,
            "resolved_sigma": self.resolved_sigma,
        }
        if include_timing:
            d["timing"] = self.timing
        return d

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), sort_keys=True)


class EarlyStopper:
    """Tracks the best validation metric and signals after `patience`
    consecutive non-improving epochs."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ConfigError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best_value = np.inf
        self.best_epoch = 0
        self.bad_epochs = 0

    def update(self, epoch: int, value: float) -> bool:
        """Record one epoch's metric; returns True when training should stop."""
        if value < self.best_value:
            self.best_value = value
            self.best_epoch = epoch
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        return self.bad_epochs >= self.patience


def build_dataset(config: ExperimentConfig) -> dict:
    """Materialize series, splits, and window pairs for one experiment."""
    src = dict(config.data)
    source = src.pop("source", "synthetic")
    if source == "synthetic":
        spec = data_mod.SyntheticSpec(**src)
        series = data_mod.generate(spec)
    elif source == "csv":
        series = data_mod.load_csv(src["path"], date_column=src.get("date_column", True))
    else:
        raise ConfigError(f"unknown data source {source!r}")
    h, t = config.history_len, config.horizon
    ranges = data_mod.split_ranges(series.shape[0], config.split, h, t)
    stats = None
    if config.split.standardize:
        series, stats = data_mod.standardize(series, train_rows=ranges["train"][1])
    return {
        "series": series,
        "stats": stats,
        "windows": {
            name: data_mod.window(series, h, t, rng) for name, rng in ranges.items()
        },
    }


def _kernel_from_dict(kd: dict, train_joints=None) -> tuple[KernelSpec, float | None]:
    """Build a KernelSpec from config keys, resolving sigma="median"."""
    kd = dict(kd)
    sigma = kd.get("sigma", "median")
    resolved = None
    family = kd.get("family", "exponential")
    if family in ("exponential", "gaussian") and (sigma in (None, "median")):
        if train_joints is None:
            raise ConfigError("median bandwidth requires training data")
        resolved = median_bandwidth(train_joints)
        sigma = resolved
    elif sigma is not None and not isinstance(sigma, str):
        sigma = float(sigma)
    spec = KernelSpec(
        family=family,
        sigma=sigma if not isinstance(sigma, str) else None,
        degree=kd.get("degree"),
        scale=kd.get("scale"),
        offset=kd.get("offset"),
    )
    return spec, resolved


def _resolve_objective(config: ExperimentConfig, train_windows):
    """Instantiate the objective; returns (objective, resolved_sigma)."""
    od = dict(config.objective)
    kind = od.pop("kind", "mse")
    if kind == "mse":
        return make_objective("mse"), None
    if kind == "freq_l1":
        return make_objective("freq_l1", beta=od.get("beta", 0.5)), None
    if kind == "kmb_df":
        first = train_windows[: max(2, config.batch_size)]
        joints = [np.concatenate([w.history, w.label], axis=0) for w in first]
        kernel, resolved = _kernel_from_dict(od.get("kernel", {}), joints)
        cfg = BalanceConfig(
            alpha=float(od.get("alpha", 0.3)),
            top_k=int(od.get("top_k", 3)),
            margin_c=float(od.get("margin_c", 0.001)),
            kernel=kernel,
            anchor_mode=od.get("anchor_mode", "forecast"),
            hinge_mode=od.get("hinge_mode", "canonical"),
        )
        return make_objective("kmb_df", balance=cfg), resolved
    raise ConfigError(f"unknown objective kind {kind!r}")


def evaluate(model: LinearForecaster, windows) -> tuple[float, float]:
    """Per-element mean squared / absolute error over all windows."""
    if not windows:
        raise ConfigError("evaluate requires at least one window")
    xs = np.stack([w.history for w in windows])
    ys = np.stack([w.label for w in windows])
    preds = forward_batch(model, xs)
    err = preds - ys
    return float(np.mean(err * err)), float(np.mean(np.abs(err)))


def _test_mmd(model, windows, max_samples: int) -> float | None:
    if not windows:
        return None
    idx = np.linspace(0, len(windows) - 1, min(max_samples, len(windows))).astype(int)
    idx = np.unique(idx)
    sub = [windows[i] for i in idx]
    xs = np.stack([w.history for w in sub])
    preds = forward_batch(model, xs)
    reals = [np.concatenate([w.history, w.label], axis=0) for w in sub]
    fcs = [np.concatenate([w.history, preds[i]], axis=0) for i, w in enumerate(sub)]
    sigma = median_bandwidth(reals)
    kernel = KernelSpec(family="exponential", sigma=sigma)
    return float(mmd_squared(kernel, reals, fcs).value)


def train(config: ExperimentConfig) -> TrainReport:
    """Mini-batch Adam training with early stopping on validation MSE."""
    dataset = build_dataset(config)
    train_w = dataset["windows"]["train"]
    val_w = dataset["windows"]["val"]
    test_w = dataset["windows"]["test"]
    objective, resolved_sigma = _resolve_objective(config, train_w)

    d = train_w[0].history.shape[1]
    model = init_forecaster(config.history_len, config.horizon, d, seed=config.seed)
    params = model.params()
    state = adam_init(params, lr=config.lr)
    rng = np.random.default_rng(config.seed)

    xs_all = np.stack([w.history for w in train_w])
    ys_all = np.stack([w.label for w in train_w])
    n = len(train_w)

    epochs = []
    trace = []
    step_times = []
    stopper = EarlyStopper(config.patience)
    best_params = None
    last_diag = None
    step = 0
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            xb, yb = xs_all[idx], ys_all[idx]
            t0 = time.perf_counter()
            preds = forward_batch(model, xb)
            loss, grads, diag = objective.loss_and_grad(xb, yb, preds)
            if not np.isfinite(loss):
                raise DomainError(
                    f"non-finite loss at epoch {epoch}, step {step}: {loss!r}"
                )
            gw, gb = backward_batch(model, xb, grads)
            params = adam_step(state, params, {"weight": gw, "bias": gb})
            model.set_params(params)
            step_times.append(time.perf_counter() - t0)
            step += 1
            epoch_loss += loss
            trace.append((step, epoch, loss))
            if diag is not None:
                last_diag = diag
        val_mse, val_mae = evaluate(model, val_w)
        epochs.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss,
                "val_mse": val_mse,
                "val_mae": val_mae,
            }
        )
        should_stop = stopper.update(epoch, val_mse)
        if stopper.best_epoch == epoch:
            best_params = {k: v.copy() for k, v in params.items()}
        if should_stop:
            break

    if best_params is not None:
        model.set_params(best_params)
    test_mse, test_mae = evaluate(model, test_w)
    test_mmd = (
        _test_mmd(model, test_w, config.mmd_max_samples) if config.compute_mmd else None
    )
    report = TrainReport(
        config=config.to_dict(),
        seed=config.seed,
        epochs=epochs,
        best_epoch=stopper.best_epoch,
        test_mse=test_mse,
        test_mae=test_mae,
        test_mmd=test_mmd,
        balance_summary=last_diag.to_dict() if last_diag is not None else None,
        resolved_sigma=resolved_sigma,
        timing={
            "steps": len(step_times),
            "mean_step_ms": 1e3 * float(np.mean(step_times)) if step_times else 0.0,
            "median_step_ms": 1e3 * float(np.median(step_times)) if step_times else 0.0,
        },
    )
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        with open(os.path.join(config.out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        with open(os.path.join(config.out, "trace.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "epoch", "loss"])
            writer.writerows(trace)
        save_forecaster(model, os.path.join(config.out, "checkpoint.json"))
    return report


SWEEP_PARAMS = ("alpha", "top_k", "margin_c")


def run_sweep(base_config: ExperimentConfig, param: str, values, out_dir=None):
    """One train() per grid value plus an alpha=0 reference run.

    Returns (rows, reports).  Each row is (label, mse, mae, dmse_pct,
    dmae_pct) with deltas against the alpha=0 run; failed runs carry an
    error message instead of metrics.
    """
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}, got {param!r}")
    values = list(values)
    if not values:
        raise ConfigError("sweep grid is empty")
    if base_config.objective.get("kind") != "kmb_df":
        raise ConfigError("sweeps operate on the kmb_df objective")

    def variant(**overrides) -> ExperimentConfig:
        cd = base_config.to_dict()
        cd["objective"] = {**cd["objective"], **overrides}
        cd["out"] = None
        return ExperimentConfig.from_dict(cd)

    reports = {}
    rows = []
    baseline_in_grid = param == "alpha" and any(v == 0 for v in values)
    base_report = train(variant(alpha=0.0))
    reports["DF"] = base_report
    base_mse, base_mae = base_report.test_mse, base_report.test_mae
    if not baseline_in_grid:
        rows.append(("DF", base_mse, base_mae, 0.0, 0.0))
    for v in values:
        label = f"{param}={v}"
        if param == "alpha" and v == 0:
            rows.append((label, base_mse, base_mae, 0.0, 0.0))
            reports[label] = base_report
            continue
        try:
            rep = train(variant(**{param: v}))
        except KmbdfError as exc:  # record and continue per sweep contract
            rows.append((label, None, None, None, str(exc)))
            continue
        reports[label] = rep
        dmse = 100.0 * (rep.test_mse - base_mse) / base_mse
        dmae = 100.0 * (rep.test_mae - base_mae) / base_mae
        rows.append((label, rep.test_mse, rep.test_mae, dmse, dmae))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "sweep.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["param", "MSE", "MAE", "dMSE_pct", "dMAE_pct"])
            writer.writerows(rows)
        for label, rep in reports.items():
            safe = label.replace("=", "_")
            with open(os.path.join(out_dir, f"report_{safe}.json"), "w", encoding="utf-8") as fh:
                fh.write(rep.to_json())
    return rows, reports


def timing_probe(
    horizons,
    n: int = 128,
    channels: int = 21,
    history_len: int = 96,
    top_k: int = 3,
    alpha: float = 0.3,
    margin_c: float = 0.001,
    reps: int = 100,
    seed: int = 0,
):
    """Median forward/backward milliseconds of the balancing objective.

    One random batch per horizon; the objective is evaluated `reps` times and
    medians are reported.  Absolute numbers are machine-dependent; only the
    trend across horizons is meaningful.
    """
    results = []
    for t in horizons:
        rng = np.random.default_rng(seed)
        hist = rng.normal(size=(n, history_len, channels))
        labels = rng.normal(size=(n, t, channels))
        fcs = rng.normal(size=(n, t, channels))
        joints = np.concatenate([hist, labels], axis=1)
        kernel = KernelSpec(family="exponential", sigma=median_bandwidth(joints))
        cfg = BalanceConfig(
            alpha=alpha, top_k=top_k, margin_c=margin_c, kernel=kernel
        )
        fwd, bwd = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            kmb_df_loss(cfg, hist, labels, fcs)
            t1 = time.perf_counter()
            kmb_df_grad(cfg, hist, labels, fcs)
            t2 = time.perf_counter()
            fwd.append(1e3 * (t1 - t0))
            bwd.append(1e3 * (t2 - t1))
        results.append(
            {
                "horizon": int(t),
                "forward_ms": statistics.median(fwd),
                "backward_ms": statistics.median(bwd),
                "total_ms": statistics.median(f + b for f, b in zip(fwd, bwd)),
            }
        )
    return results
