"""The benchmark's workloads: why each exists, what it bypasses, and its work.

Work per unit is fixed, so every commit does the same number of steps:
`patience` equals `max_epochs`, which early stopping cannot cut short, and
`paper_t720` runs a fixed count of steps.  Each workload's series is part of
its definition (a fixed data seed); `--seed` sets the model initialisation
and the batch order.  Across series realisations the desk test MSE spreads
by about 10% (interquartile range over median, eight seeds), wider than any
usable bound, so the series does not follow `--seed`.

Every call into kmbdf goes through a module attribute (`harness.train`,
`models.forward_batch`, ...) so that the tracer's patches see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import reference
from kmbdf import balancing, data, harness, kernels, models, objectives
from tracing import StepClock

# Relative tolerance of the objective against the exact pairwise reference.
# The exact path agrees to ~1e-13; a fast kernel path that reuses the shared
# history block or BLAS deviates by ~1.5e-8 in delta, well inside this.
REFERENCE_RTOL = 1e-6

KMB_DF = {
    "kind": "kmb_df",
    "alpha": 0.3,
    "top_k": 3,
    "margin_c": 0.001,
    "kernel": {"family": "exponential", "sigma": "median"},
}

# Spans every workload's traced run must record.
_OBJECTIVE_SPANS = (
    "kernels.median_bandwidth",
    "kernels.gram_matrix",
    "kernels.grad_b_sum",
    "balancing.informativeness_scores",
    "balancing.select_top_k",
    "balancing.hinge_slack",
    "balancing.kmb_df_grad",
    "objectives.loss_and_grad",
    "models.forward_batch",
    "models.backward_batch",
    "models.adam_step",
)
_HARNESS_SPANS = (
    "harness.train",
    "harness.evaluate",
    "data.build_dataset",
    "balancing.mmd_squared",
)


class Ledger:
    """Operations attempted and failed; a failure is a KmbdfError or a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


@dataclass
class UnitResult:
    """A unit's interval and its steps' intervals, on the host-speed work clock."""

    span: tuple
    steps: list
    test_mse: float | None = None
    test_mmd: float | None = None
    extra: dict = field(default_factory=dict)


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def check_first_step(name, objective, sigma, model, xb, yb, ledger, joints=None):
    """One untimed step's loss, top-K and forecast gradients, and the median
    bandwidth, against the exact pairwise reference."""
    if joints is None:
        joints = [np.concatenate([x, y]) for x, y in zip(xb, yb)]
    preds = models.forward_batch(model, xb)
    loss, grads, diag = objective.loss_and_grad(xb, yb, preds)
    ref_sigma = reference.median_bandwidth(joints)
    ref_loss, ref_grads, ref_sel = reference.loss_and_grad(
        xb, yb, preds,
        alpha=KMB_DF["alpha"], top_k=KMB_DF["top_k"], margin_c=KMB_DF["margin_c"],
        sigma=ref_sigma,
    )
    sigma_err = abs(sigma - ref_sigma) / ref_sigma
    loss_err = abs(loss - ref_loss) / abs(ref_loss)
    grad_err = float(np.linalg.norm(np.asarray(grads) - ref_grads) / np.linalg.norm(ref_grads))
    ledger.check(sigma_err <= REFERENCE_RTOL, f"{name}: bandwidth off by {sigma_err:.2e}")
    ledger.check(
        [int(i) for i in diag.selected] == ref_sel,
        f"{name}: top-K {list(diag.selected)} vs reference {ref_sel}",
    )
    ledger.check(loss_err <= REFERENCE_RTOL, f"{name}: loss off by {loss_err:.2e}")
    ledger.check(grad_err <= REFERENCE_RTOL, f"{name}: gradients off by {grad_err:.2e}")


class _TrainWorkload:
    """Shared by the two workloads that go through `harness.train`."""

    expected_spans = _OBJECTIVE_SPANS + _HARNESS_SPANS

    def __init__(self, seed: int, smoke: bool):
        self.config = harness.ExperimentConfig.from_dict(self.config_dict(seed, smoke))

    def config_dict(self, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def setup(self):
        """What train() does before its first step, through public functions."""
        cfg = self.config
        dataset = harness.build_dataset(cfg)
        train_w = dataset["windows"]["train"]
        first = train_w[: max(2, cfg.batch_size)]
        sigma = kernels.median_bandwidth(
            [np.concatenate([w.history, w.label]) for w in first]
        )
        balance = balancing.BalanceConfig(
            alpha=KMB_DF["alpha"],
            top_k=KMB_DF["top_k"],
            margin_c=KMB_DF["margin_c"],
            kernel=kernels.KernelSpec(family="exponential", sigma=sigma),
        )
        objective = objectives.make_objective("kmb_df", balance=balance)
        model = models.init_forecaster(
            cfg.history_len, cfg.horizon, train_w[0].history.shape[1], seed=cfg.seed
        )
        models.adam_init(model.params(), lr=cfg.lr)
        return {"n_train": len(train_w), "first": first, "sigma": sigma,
                "objective": objective, "model": model}

    def prepare(self, ctx, ledger):
        first = ctx["first"]
        xb = np.stack([w.history for w in first])
        yb = np.stack([w.label for w in first])
        check_first_step(self.name, ctx["objective"], ctx["sigma"], ctx["model"],
                         xb, yb, ledger)

    @staticmethod
    def _clocked(host, fn, *args):
        """Interval and step intervals of one call into the harness."""
        clock = StepClock(host)
        t0 = host.now()
        with clock.patched():
            out = fn(*args)
        return out, (t0, host.now()), clock.steps

    def expected_steps(self, ctx) -> int:
        return self.config.max_epochs * math.ceil(ctx["n_train"] / self.config.batch_size)

    def _check_report(self, report, ctx, ledger, label) -> None:
        ledger.check(
            report.timing["steps"] == self.expected_steps(ctx)
            and len(report.epochs) == self.config.max_epochs,
            f"{self.name} {label}: {report.timing['steps']} steps in "
            f"{len(report.epochs)} epochs, expected {self.expected_steps(ctx)} "
            f"in {self.config.max_epochs}",
        )
        ledger.check(
            _finite(report.test_mse, report.test_mmd),
            f"{self.name} {label}: non-finite test metrics",
        )


class DeskPair(_TrainWorkload):
    name = "desk_pair"
    probe = "pairwise"
    why = (
        "The README quick start (N=32, H=24, T=12, D=2) as run_sweep runs it: "
        "alpha=0.3 plus its alpha=0 reference, the unit behind every sweep. "
        "Per-step Python, list conversion and 32x32 Grams dominate, and the "
        "alpha=0 run computes Grams it never uses."
    )
    bypasses = "Large Gram matrices: every Gram here is at most 32x32 or 512x512 at 72 dims."
    expected_spans = _TrainWorkload.expected_spans + ("harness.run_sweep",)

    def config_dict(self, seed, smoke):
        epochs = 1 if smoke else 5
        return {
            "data": {
                "source": "synthetic",
                "kind": "ar",
                "length": 600 if smoke else 5000,
                "channels": 2,
                "seed": 100,
                "coeffs": [0.9],
            },
            "history_len": 24,
            "horizon": 12,
            "objective": KMB_DF,
            "lr": 1e-3,
            "batch_size": 32,
            "max_epochs": epochs,
            "patience": epochs,
            "seed": seed,
        }

    def unit(self, ctx, ledger, host) -> UnitResult | None:
        (_, reports), span, steps = self._clocked(
            host, harness.run_sweep, self.config, "alpha", [0.3]
        )
        if not ledger.check(
            set(reports) == {"DF", "alpha=0.3"}, f"desk_pair: sweep reports {sorted(reports)}"
        ):
            return None
        for label, report in reports.items():
            self._check_report(report, ctx, ledger, label)
        rep = reports["alpha=0.3"]
        return UnitResult(span, steps, rep.test_mse, rep.test_mmd)


class PaperT96(_TrainWorkload):
    name = "paper_t96"
    probe = "vector"
    why = (
        "train() at paper scale (N=128, H=96, T=96, D=21) with test MMD^2 on "
        "509 windows: Grams at N=128 for training and 509x509 Grams plus the "
        "median bandwidth for evaluation. History is half of each joint window."
    )
    bypasses = "run_sweep and its alpha=0 reference run."

    def config_dict(self, seed, smoke):
        epochs = 1
        # 0.7 * 3016 = 2111 training rows give 15 full batches of 128
        # windows; the test split holds 509 windows, all used for MMD^2.
        return {
            "data": {
                "source": "synthetic",
                "kind": "ar",
                "length": 400 if smoke else 3016,
                "channels": 3 if smoke else 21,
                "seed": 200,
                "coeffs": [0.9],
            },
            "history_len": 8 if smoke else 96,
            "horizon": 8 if smoke else 96,
            "objective": KMB_DF,
            "lr": 1e-3,
            "batch_size": 16 if smoke else 128,
            "max_epochs": epochs,
            "patience": epochs,
            "seed": seed,
        }

    def unit(self, ctx, ledger, host) -> UnitResult:
        report, span, steps = self._clocked(host, harness.train, self.config)
        self._check_report(report, ctx, ledger, "train")
        return UnitResult(span, steps, report.test_mse, report.test_mmd)


class PaperT720:
    """Runnable with `--workload paper_t720` but not listed in BENCHMARK.json.

    Its Gram rows stream 17.5 MB buffers.  On a shared 2-core box its step
    median spread by 20% over five processes (interquartile range over
    median) in the same hour in which `paper_t96` spread by 5.5%, and within
    one process the medians of 25-second windows ranged from 2.46 s to
    3.59 s.  That is close to the largest bound a listed workload may have;
    `paper_t96` measures the same layers.
    """

    name = "paper_t720"
    probe = "vector"
    why = (
        "Fixed training steps at N=128, H=96, T=720, D=21 called directly: "
        "forward, objective, backward, Adam. The long-horizon end of the "
        "complexity claim; labels are 88% of each joint window."
    )
    bypasses = (
        "The harness loop (no list conversion, no validation) and evaluation; "
        "its test metrics come from an untimed pass on held-out windows."
    )
    expected_spans = _OBJECTIVE_SPANS + ("data.generate", "data.standardize", "data.window")

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.n = 16 if smoke else 128
        self.h, self.t = (8, 24) if smoke else (96, 720)
        self.channels = 3 if smoke else 21
        self.steps = 2 if smoke else 3
        self.pool = 4 * self.n if smoke else 8 * self.n
        self.held_out = 8 if smoke else 64
        span = self.h + self.t
        # Windows: the training pool, a gap so no held-out row is trained
        # on, then the held-out windows.
        self.length = self.pool + span + self.held_out + span - 2
        rng = np.random.default_rng(seed)
        self.batches = [
            np.sort(rng.choice(self.pool, size=self.n, replace=False))
            for _ in range(self.steps)
        ]

    def setup(self):
        spec = data.SyntheticSpec(
            kind="ar", length=self.length, channels=self.channels, seed=300, coeffs=(0.9,)
        )
        series = data.generate(spec)
        series, _ = data.standardize(series, train_rows=self.pool + self.h + self.t - 1)
        windows = data.window(series, self.h, self.t)
        xs = np.stack([w.history for w in windows])
        ys = np.stack([w.label for w in windows])
        joints = list(np.concatenate([xs[: self.n], ys[: self.n]], axis=1))
        sigma = kernels.median_bandwidth(joints)
        balance = balancing.BalanceConfig(
            alpha=KMB_DF["alpha"],
            top_k=KMB_DF["top_k"],
            margin_c=KMB_DF["margin_c"],
            kernel=kernels.KernelSpec(family="exponential", sigma=sigma),
        )
        objective = objectives.make_objective("kmb_df", balance=balance)
        return {
            "xs": xs,
            "ys": ys,
            "held_out": windows[-self.held_out :],
            "joints": joints,
            "sigma": sigma,
            "objective": objective,
        }

    def _init(self):
        model = models.init_forecaster(self.h, self.t, self.channels, seed=self.seed)
        return model, models.adam_init(model.params(), lr=1e-3)

    def prepare(self, ctx, ledger):
        model, _ = self._init()
        idx = self.batches[0]
        check_first_step(self.name, ctx["objective"], ctx["sigma"], model,
                         ctx["xs"][idx], ctx["ys"][idx], ledger, joints=ctx["joints"])

    def unit(self, ctx, ledger, host) -> UnitResult:
        model, state = self._init()
        params = model.params()
        objective = ctx["objective"]
        steps = []
        t0 = host.now()
        for idx in self.batches:
            host.tick()
            s0 = host.now()
            xb, yb = ctx["xs"][idx], ctx["ys"][idx]
            preds = models.forward_batch(model, xb)
            loss, grads, _ = objective.loss_and_grad(xb, yb, preds)
            gw, gb = models.backward_batch(model, xb, np.asarray(grads))
            params = models.adam_step(state, params, {"weight": gw, "bias": gb})
            model.set_params(params)
            steps.append((s0, host.now()))
            ledger.check(math.isfinite(loss), f"paper_t720: non-finite loss {loss!r}")
        host.tick(force=True)
        return UnitResult((t0, host.now()), steps, extra={"model": model})

    def quality(self, ctx, result: UnitResult) -> tuple[float, float]:
        """Untimed test MSE and MMD^2 of a trained model on held-out windows."""
        model, held = result.extra["model"], ctx["held_out"]
        test_mse, _ = harness.evaluate(model, held)
        preds = models.forward_batch(model, np.stack([w.history for w in held]))
        reals = [np.concatenate([w.history, w.label]) for w in held]
        fcs = [np.concatenate([w.history, p]) for w, p in zip(held, preds)]
        kernel = kernels.KernelSpec(family="exponential", sigma=kernels.median_bandwidth(reals))
        return test_mse, float(balancing.mmd_squared(kernel, reals, fcs).value)


WORKLOADS = {w.name: w for w in (DeskPair, PaperT96, PaperT720)}
