"""Experiment harness: config, training loop, evaluation, sweeps, timing."""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from operator import length_hint

import numpy as np

from . import data as data_mod
from .balancing import BalanceConfig, mmd_squared, real_side
from .errors import ConfigError, DomainError, KmbdfError, Node, ShapeError, node_fields
from .kernels import KernelSpec, as_stack, median_bandwidth
from .models import (
    LinearForecaster,
    adam_init,
    adam_step,
    backward_batch,
    forward_batch,
    init_forecaster,
    save_forecaster,
)
from .objectives import FrequencyL1Objective, KmbDfObjective, MseObjective


def _node(classes: tuple, value, path: str, tag: str | None = None):
    """The config node of one of the frozen dataclasses `classes`, told
    apart by the key `tag` (a missing key picks the first), from the dict
    `value`.  A missing node is built from its own defaults; a "flatten"
    field reads its keys from this dict.  Each node checks its own field
    types and ranges; anything amiss raises ConfigError naming `path`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object, got {value!r}")
    value, cls, where = dict(value), classes[0], path or "config"
    if tag is not None:
        name = value.pop(tag, getattr(cls, tag))
        cls = next((c for c in classes if getattr(c, tag) == name), None)
        if cls is None:
            raise ConfigError(f"unknown {path} {tag} {name!r}")
    kwargs = {}
    for f, members in node_fields(cls):
        if f.metadata.get("flatten"):
            own = {g.name: value.pop(g.name) for g in fields(members[0]) if g.name in value}
            kwargs[f.name] = _node(members, own, path)
        elif all(is_dataclass(m) for m in members):
            sub = f"{path}.{f.name}".lstrip(".")
            kwargs[f.name] = _node(members, value.pop(f.name, {}), sub, f.metadata.get("tag"))
        elif f.name in value:
            kwargs[f.name] = value.pop(f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} requires {f.name!r}")
    if value:
        raise ConfigError(f"unknown {where} keys: {sorted(value, key=str)}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None


def _plain(node, tag: str | None = None) -> dict:
    """The dict form of a config node that `_node` reads, every field
    explicit: a union member gains its `tag` key, a "flatten" field's keys
    join this dict."""
    out = {tag: getattr(node, tag)} if tag else {}
    for f in fields(node):
        value = getattr(node, f.name)
        if is_dataclass(value):
            sub = _plain(value, f.metadata.get("tag"))
            out.update(sub if f.metadata.get("flatten") else {f.name: sub})
        else:
            out[f.name] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig(Node):
    """One experiment as a frozen tree of config nodes.

    `data` is a `SyntheticSpec` or a `CsvSpec`, chosen by the key `source`
    ("synthetic" if omitted); `objective` an `MseObjective` (if omitted), a
    `FrequencyL1Objective` or a `KmbDfObjective`, chosen by `kind`, with its
    `BalanceConfig` keys beside `kind` (kernel: exponential, sigma "median").
    Each node checks its own types and ranges, however built; this one also
    checks top_k <= batch_size and, for a synthetic source, that every split
    of `length` rows holds a window (the test split 2 with the test MMD^2
    on).  `to_dict` is the normalised tree:
    `from_dict(to_dict(c)) == c`.
    """

    data: data_mod.SyntheticSpec | data_mod.CsvSpec = field(
        default_factory=data_mod.SyntheticSpec, metadata={"tag": "source"}
    )
    split: data_mod.SplitSpec = field(default_factory=data_mod.SplitSpec)
    history_len: int = 24
    horizon: int = 12
    objective: MseObjective | FrequencyL1Objective | KmbDfObjective = field(
        default_factory=MseObjective, metadata={"tag": "kind"}
    )
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 15
    seed: int = 0
    out: str | None = None
    compute_mmd: bool = True
    mmd_max_samples: int = 512

    def _check(self):
        for name in ("history_len", "horizon", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0 or self.lr <= 0:
            raise ConfigError(f"seed must be >= 0 and lr > 0, got seed={self.seed}, lr={self.lr}")
        if self.compute_mmd and self.mmd_max_samples < 2:
            raise ConfigError(f"test MMD^2 needs mmd_max_samples >= 2, got {self.mmd_max_samples}")
        if isinstance(self.objective, KmbDfObjective):
            k = self.objective.config.top_k
            if self.batch_size < k:
                raise ConfigError(f"batch_size {self.batch_size} smaller than top_k {k}")
        if isinstance(self.data, data_mod.SyntheticSpec):
            h, t = self.history_len, self.horizon
            start, stop = data_mod.split_ranges(self.data.length, self.split, h, t)["test"]
            n_test = stop - start - h - t + 1
            if self.compute_mmd and n_test < 2:
                raise ConfigError(f"test MMD^2 needs at least 2 test windows, got {n_test}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return _node((cls,), d, "")

    def to_dict(self) -> dict:
        return _plain(self)


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
        d = asdict(self)
        if not include_timing:
            del d["timing"]
        return d

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), sort_keys=True)


def _data_key(config: ExperimentConfig) -> tuple:
    return config.data, config.split, config.history_len, config.horizon


def build_dataset(config: ExperimentConfig) -> dict:
    """Build one experiment's series and read-only views of its split windows;
    `built_for` holds the config's data, split, history_len and horizon, and
    `mmd_real`, empty, is the memo of `_test_mmd`'s real sides."""
    spec = config.data
    if isinstance(spec, data_mod.CsvSpec):
        series = data_mod.load_csv(spec.path, date_column=spec.date_column)
    else:
        series = data_mod.generate(spec)
    h, t = config.history_len, config.horizon
    ranges = data_mod.split_ranges(series.shape[0], config.split, h, t)
    stats = None
    if config.split.standardize:
        series, stats = data_mod.standardize(series, train_rows=ranges["train"][1])
    joints = {name: data_mod.joint_windows(series, h + t, rng) for name, rng in ranges.items()}
    return {
        "built_for": _data_key(config),
        "stats": stats,
        "windows": {name: data_mod.Windows(j, h) for name, j in joints.items()},
        "joints": joints,
        "stacks": {name: (j[:, :h], j[:, h:]) for name, j in joints.items()},
        "mmd_real": {},
    }


def _resolve_objective(config: ExperimentConfig, joints):
    """The objective with a distance kernel's sigma="median" set to the
    median bandwidth of the first `batch_size` training joints; returns
    (objective, resolved_sigma)."""
    objective = config.objective
    kernel = objective.config.kernel if isinstance(objective, KmbDfObjective) else None
    if kernel is None or not kernel.is_distance or kernel.sigma != "median":
        return objective, None
    sigma = median_bandwidth(joints[: max(2, config.batch_size)])
    balance = replace(objective.config, kernel=replace(kernel, sigma=sigma))
    return replace(objective, config=balance), sigma


def evaluate(model: LinearForecaster, windows) -> tuple[float, float]:
    """Per-element mean squared / absolute error, formed in place in the
    forecasts, over all windows: `WindowPair`s, such as `Windows`, or (n, H, D)
    and (n, T, D) batches such as `build_dataset`'s read-only views, unmodified.
    No window raises ConfigError; a scalar, empty, ragged or mismatched batch ShapeError."""
    if length_hint(windows, -1) < 0:  # a scalar, which has no length
        raise ShapeError(f"evaluate needs windows or a batch pair, got shape {np.shape(windows)}")
    if len(windows) == 0 or isinstance(windows[0], data_mod.WindowPair):
        windows = [w.history for w in windows], [w.label for w in windows]
    xs, ys = windows
    if length_hint(xs, 1) == length_hint(ys, 1) == 0:  # a scalar counts as 1
        raise ConfigError("evaluate requires at least one window")
    err, ys = forward_batch(model, xs), as_stack(ys)
    if err.shape != ys.shape:
        raise ShapeError(f"labels {ys.shape} do not match forecasts {err.shape}")
    err -= ys
    mae = float(np.mean(np.abs(err, out=err)))
    return float(np.mean(np.multiply(err, err, out=err))), mae  # |e| |e| == e e


def _test_mmd(model, histories, labels, max_samples: int, memo: dict) -> float:
    """MMD^2 between the real and forecast joints of up to `max_samples`
    evenly spaced test windows, which share their history block.  With every
    window in use the stacks are not copied, so window views take the kernels'
    sliding path for the history block and the labels; over the cap the picks
    are copies.  Their `real_side` is kept in `memo[max_samples]` for later calls."""
    if max_samples not in memo:
        picks = slice(None)
        if len(histories) > max_samples:
            picks = np.unique(np.linspace(0, len(histories) - 1, max_samples).astype(int))
        memo[max_samples] = real_side(KernelSpec(), labels[picks], histories[picks])
    real = memo[max_samples]
    fcs = forward_batch(model, real.history)
    return float(mmd_squared(real.kernel, real, fcs).value)


def train(config: ExperimentConfig, dataset: dict | None = None) -> TrainReport:
    """Mini-batch Adam training with early stopping on validation MSE, on a
    new dataset or on `dataset` (its views never written, its `mmd_real`
    filled), which `build_dataset` must have made for this config's data,
    else ConfigError before any step.  Only a strictly lower validation MSE
    is a new best; after `patience` epochs without one training stops, and
    the test metrics and checkpoint use the best epoch's parameters.  A
    non-finite step loss or validation MSE raises DomainError naming its
    epoch.  `config.out` is made a directory first (OSError if it cannot
    be); its report, trace and checkpoint are written after the test
    metrics, so a run that raises leaves none of them.  `timing` adds build
    (0.0 if passed in), validation and test seconds."""
    if config.out:
        os.makedirs(config.out, exist_ok=True)
    build_s = 0.0
    if dataset is None:
        t0 = time.perf_counter()
        dataset = build_dataset(config)
        build_s = time.perf_counter() - t0
    elif dataset.get("built_for") != _data_key(config):
        raise ConfigError("dataset was built for another data, split, history_len or horizon")
    val_w = dataset["stacks"]["val"]
    test_w = dataset["stacks"]["test"]
    # A CSV's test windows are known only once it is read; a synthetic
    # source's are checked at parse.
    if config.compute_mmd and len(test_w[0]) < 2:
        raise ConfigError(f"test MMD^2 needs at least 2 test windows, got {len(test_w[0])}")
    # Batches are gathered from read-only window views: no whole-split copy.
    xs, ys = dataset["stacks"]["train"]
    objective, resolved_sigma = _resolve_objective(config, dataset["joints"]["train"])

    d = xs.shape[2]
    model = init_forecaster(config.history_len, config.horizon, d, seed=config.seed)
    params = model.params()
    state = adam_init(params, lr=config.lr)
    rng = np.random.default_rng(config.seed)

    n = len(xs)

    epochs = []
    trace = []
    step_times = []
    val_s = 0.0
    best_mse, best_epoch = np.inf, 0
    last_diag = None
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            xb, yb = xs[idx], ys[idx]
            t0 = time.perf_counter()
            preds = forward_batch(model, xb)
            loss, grads, diag = objective.loss_and_grad(xb, yb, preds)
            if not math.isfinite(loss):
                raise DomainError(
                    f"non-finite loss at epoch {epoch}, step {len(step_times)}: {loss!r}"
                )
            backward_batch(model, xb, grads)
            adam_step(state, params, model.grad)  # in place: params is the model's vector
            step_times.append(time.perf_counter() - t0)
            epoch_loss += loss
            trace.append((len(step_times), epoch, loss))
            if diag is not None:
                last_diag = diag
        t0 = time.perf_counter()
        val_mse, val_mae = evaluate(model, val_w)
        val_s += time.perf_counter() - t0
        if not math.isfinite(val_mse):
            raise DomainError(f"non-finite validation MSE at epoch {epoch}: {val_mse!r}")
        epochs.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss,
                "val_mse": val_mse,
                "val_mae": val_mae,
            }
        )
        if val_mse < best_mse:
            best_mse, best_epoch = val_mse, epoch
            best_params = params.flat.copy()
        elif epoch - best_epoch >= config.patience:
            break

    params.flat[:] = best_params
    t0 = time.perf_counter()
    test_mse, test_mae = evaluate(model, test_w)
    t1 = time.perf_counter()
    test_mmd = None
    if config.compute_mmd:
        test_mmd = _test_mmd(model, *test_w, config.mmd_max_samples, dataset["mmd_real"])
    t2 = time.perf_counter()
    report = TrainReport(
        config=config.to_dict(),
        seed=config.seed,
        epochs=epochs,
        best_epoch=best_epoch,
        test_mse=test_mse,
        test_mae=test_mae,
        test_mmd=test_mmd,
        balance_summary=last_diag.to_dict() if last_diag is not None else None,
        resolved_sigma=resolved_sigma,
        timing={
            "steps": len(step_times),
            "mean_step_ms": 1e3 * float(np.mean(step_times)) if step_times else 0.0,
            "median_step_ms": 1e3 * float(np.median(step_times)) if step_times else 0.0,
            "build_s": build_s, "val_s": val_s, "test_mse_s": t1 - t0, "test_mmd_s": t2 - t1,
        },
    )
    if config.out:
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
    """One train() per grid value plus an alpha=0 reference run, on one dataset
    and its test MMD^2 real side; each report equals a separate train()'s.

    Returns (rows, reports).  Each row is (label, mse, mae, dmse_pct,
    dmae_pct) with deltas against the alpha=0 run; failed runs carry an
    error message instead of metrics.
    """
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}, got {param!r}")
    values = list(values)
    if not values:
        raise ConfigError("sweep grid is empty")
    objective = base_config.objective
    if not isinstance(objective, KmbDfObjective):
        raise ConfigError("sweeps operate on the kmb_df objective")

    def variant(**overrides) -> ExperimentConfig:
        balance = replace(objective.config, **overrides)
        return replace(base_config, objective=replace(objective, config=balance), out=None)

    if out_dir:  # before any run, so an `out_dir` that cannot be one loses none
        os.makedirs(out_dir, exist_ok=True)
    dataset = build_dataset(base_config)
    reports = {}
    rows = []
    baseline_in_grid = param == "alpha" and any(v == 0 for v in values)
    base_report = train(variant(alpha=0.0), dataset)
    reports["DF"] = base_report
    base_mse, base_mae = base_report.test_mse, base_report.test_mae
    if not baseline_in_grid:
        rows.append(("DF", base_mse, base_mae, 0.0, 0.0))
    for v in values:
        label = f"{param}={v}"
        try:
            rep = (base_report if param == "alpha" and v == 0
                   else train(variant(**{param: v}), dataset))
        except KmbdfError as exc:  # record and continue per sweep contract
            rows.append((label, None, None, None, str(exc)))
            continue
        reports[label] = rep
        dmse = 100.0 * (rep.test_mse - base_mse) / base_mse
        dmae = 100.0 * (rep.test_mae - base_mae) / base_mae
        rows.append((label, rep.test_mse, rep.test_mae, dmse, dmae))
    if out_dir:
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
    reps: int = 100,
    seed: int = 0,
):
    """Median milliseconds of one `KmbDfObjective.loss_and_grad` call, the
    training loop's objective call, with the default `BalanceConfig` and an
    exponential kernel at the batch's median bandwidth, as
    `loss_and_grad_ms`.  One random batch per horizon, each evaluated once
    untimed; then `reps` rounds that time one call per horizon in turn, so
    a stall of the host spreads over all horizons instead of moving one
    horizon's median.  Absolute numbers are machine-dependent; only the
    trend across horizons is meaningful.
    """
    horizons = list(horizons)
    if n < 2 or seed < 0:
        raise ConfigError(f"timing needs n (--batch) >= 2 and seed >= 0, got n={n}, seed={seed}")
    if min(reps, channels, history_len, *horizons) < 1:
        raise ConfigError(
            f"timing needs reps, channels, history_len and horizons >= 1, got reps={reps}, "
            f"channels={channels}, history_len={history_len}, horizons={horizons}"
        )
    calls = []
    for t in horizons:
        rng = np.random.default_rng(seed)
        hist = rng.normal(size=(n, history_len, channels))
        labels = rng.normal(size=(n, t, channels))
        fcs = rng.normal(size=(n, t, channels))
        joints = np.concatenate([hist, labels], axis=1)
        kernel = KernelSpec(family="exponential", sigma=median_bandwidth(joints))
        objective = KmbDfObjective(config=BalanceConfig(kernel=kernel))
        objective.loss_and_grad(hist, labels, fcs)
        calls.append((objective, hist, labels, fcs))
    times = [[] for _ in horizons]
    for _ in range(reps):
        for (objective, *batch), own in zip(calls, times):
            t0 = time.perf_counter()
            objective.loss_and_grad(*batch)
            own.append(1e3 * (time.perf_counter() - t0))
    return [
        {"horizon": int(t), "loss_and_grad_ms": statistics.median(own)}
        for t, own in zip(horizons, times)
    ]
