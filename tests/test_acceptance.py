"""End-to-end acceptance suite.

Each test prints a single ``[PASS]``/``[FAIL]`` line naming its criterion so
the suite can be eyeballed from the pytest output (run with ``-s`` to see the
lines as they happen).
"""

import csv
import time
from dataclasses import replace

import numpy as np
import pytest

from kmbdf.balancing import (
    ANCHOR_MODES,
    HINGE_MODES,
    BalanceConfig,
    hinge_slack,
    kmb_df_grad,
    mmd_squared,
)
from kmbdf.checks import fd_forecast_grads, relative_error, run_gradcheck
from kmbdf.harness import (
    ExperimentConfig,
    run_sweep,
    timing_probe,
    train,
)
from kmbdf.kernels import KernelSpec, gram_matrix, median_bandwidth
from kmbdf.models import LinearForecaster, backward_batch, forward_batch, init_forecaster
from kmbdf.objectives import FrequencyL1Objective, MseObjective

from kernel_reference import eval_kernel

EXP = KernelSpec(family="exponential", sigma=1.0)
ALPHA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
C_GRID = (0.0005, 0.001, 0.005, 0.01, 0.05)
K_GRID = (1, 2, 3, 4, 5)
MSE = MseObjective()
FREQ_L1 = FrequencyL1Objective(beta=0.5)
KMB_DF = {
    "kind": "kmb_df", "alpha": 0.3, "top_k": 3, "margin_c": 0.001,
    "kernel": {"family": "exponential", "sigma": "median"},
}


def report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def random_batch(rng, n, h, t, d):
    hist = [rng.normal(size=(h, d)) for _ in range(n)]
    labels = [rng.normal(size=(t, d)) for _ in range(n)]
    fcs = [rng.normal(size=(t, d)) for _ in range(n)]
    return hist, labels, fcs


def synthetic_task(seed: int, **overrides) -> ExperimentConfig:
    base = {
        "data": {"source": "synthetic", "kind": "ar", "length": 5000,
                 "channels": 2, "seed": 100 + seed, "coeffs": (0.9,)},
        "history_len": 24,
        "horizon": 12,
        "lr": 1e-3,
        "batch_size": 32,
        "max_epochs": 30,
        "patience": 5,
        "seed": seed,
        "objective": KMB_DF,
        "mmd_max_samples": 512,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        t0 = time.monotonic()
        ok = True

        # Balancing objective: 5 kernels x 2 anchors x 2 hinges = 20 cases.
        results = run_gradcheck(trials=1, tol=1e-5, seed=0)
        ok &= len(results) == 20 and all(r["pass"] for r in results)

        rng = np.random.default_rng(1)
        # Batch MSE on 20 random small instances.
        for _ in range(20):
            _, labels, fcs = random_batch(rng, 4, 3, 3, 2)
            fd = fd_forecast_grads(lambda b: MSE.loss_and_grad(None, labels, b)[0], fcs)
            ok &= relative_error(MSE.loss_and_grad(None, labels, fcs)[1], fd) < 1e-5

        # Frequency-domain L1 on 20 instances away from its kinks.
        checked = 0
        while checked < 20:
            _, labels, fcs = random_batch(rng, 3, 2, 3, 2)
            loss, grads, _ = FREQ_L1.loss_and_grad(None, labels, fcs)
            bumped, _, _ = FREQ_L1.loss_and_grad(None, labels, [f + 1e-4 for f in fcs])
            fd = fd_forecast_grads(lambda b: FREQ_L1.loss_and_grad(None, labels, b)[0], fcs)
            err = relative_error(grads, fd)
            if err >= 1e-5 and abs(bumped - loss) < 1e-3:
                # Possible kink crossing; draw a fresh instance instead.
                continue
            checked += 1
            ok &= err < 1e-5

        # End-to-end model gradients through forward_batch + backward_batch.
        for _ in range(20):
            h, t, d, n = 4, 3, 2, 5
            model = init_forecaster(h, t, d, seed=int(rng.integers(1 << 30)))
            xs = rng.normal(size=(n, h, d))
            ys = rng.normal(size=(n, t, d))

            def loss_of(weight, bias):
                m = LinearForecaster(weight, bias, h, t, d)
                return MSE.loss_and_grad(xs, list(ys), list(forward_batch(m, xs)))[0]

            preds = forward_batch(model, xs)
            gouts = MSE.loss_and_grad(xs, list(ys), list(preds))[1]
            gw, gb = backward_batch(model, xs, gouts)
            eps = 1e-6
            fd_w = np.zeros_like(gw)
            for idx in np.ndindex(gw.shape):
                hi = model.weight.copy(); hi[idx] += eps
                lo = model.weight.copy(); lo[idx] -= eps
                fd_w[idx] = (loss_of(hi, model.bias) - loss_of(lo, model.bias)) / (2 * eps)
            fd_b = np.zeros_like(gb)
            for j in range(t):
                hi = model.bias.copy(); hi[j] += eps
                lo = model.bias.copy(); lo[j] -= eps
                fd_b[j] = (loss_of(model.weight, hi) - loss_of(model.weight, lo)) / (2 * eps)
            ok &= relative_error([gw, gb], [fd_w, fd_b]) < 1e-5

        elapsed = time.monotonic() - t0
        ok &= elapsed < 30.0
        report(f"criterion 1: gradient suite (<1e-5 rel, {elapsed:.1f}s)", ok)


class TestCriterion2BalanceAtOptimum:
    def test_perfect_forecasts_balance(self):
        rng = np.random.default_rng(2)
        ok = True
        for i in range(50):
            n = int(rng.integers(3, 7))
            hist, labels, _ = random_batch(rng, n, 3, 2, 2)
            fcs = [y.copy() for y in labels]
            kernel = [EXP, KernelSpec(family="gaussian", sigma=0.8)][i % 2]
            cfg = BalanceConfig(
                alpha=0.5, top_k=2, margin_c=0.001, kernel=kernel,
                anchor_mode=ANCHOR_MODES[i % 2], hinge_mode="canonical",
            )
            grads, diag = kmb_df_grad(cfg, hist, labels, fcs)
            ok &= np.max(np.abs(diag.deltas)) < 1e-10
            ok &= diag.total == 0.0
            ok &= all(np.all(g == 0.0) for g in grads)
        report("criterion 2: balance at optimum (|delta|<1e-10, loss=grad=0)", ok)


class TestCriterion3Kernels:
    def test_kernel_suite(self):
        rng = np.random.default_rng(3)
        ok = True
        specs = [
            KernelSpec(family="exponential", sigma=1.1),
            KernelSpec(family="gaussian", sigma=0.9),
            KernelSpec(family="linear"),
            KernelSpec(family="polynomial", degree=3),
            KernelSpec(family="sigmoid"),
        ]
        for spec in specs:
            for _ in range(10):
                a = rng.normal(size=(3, 2))
                b = rng.normal(size=(3, 2))
                ok &= eval_kernel(spec, a, b) == eval_kernel(spec, b, a)
        for family in ("exponential", "gaussian"):
            spec = KernelSpec(family=family, sigma=1.2)
            pts = [rng.normal(size=(3, 2)) for _ in range(20)]
            g = gram_matrix(spec, pts, pts)
            ok &= float(np.min(np.linalg.eigvalsh(g))) >= -1e-8
            a = rng.normal(size=(3, 2))
            direction = rng.normal(size=(3, 2))
            direction /= np.linalg.norm(direction)
            for _ in range(100):
                r1, r2 = np.sort(rng.uniform(0.05, 5.0, size=2))
                if r1 == r2:
                    continue
                ok &= eval_kernel(spec, a, a + r2 * direction) < eval_kernel(
                    spec, a, a + r1 * direction
                )
            ok &= eval_kernel(spec, a, a) == 1.0
        report("criterion 3: kernel suite (symmetry, PSD, decay, identity)", ok)


class TestCriterion4Mmd:
    def test_mmd_suite(self):
        rng = np.random.default_rng(4)
        ok = True

        sample = [rng.normal(size=(4, 2)) for _ in range(30)]
        ok &= abs(mmd_squared(EXP, sample, [s.copy() for s in sample]).value) < 1e-12

        near = [rng.normal(0.0, 0.1, size=(4, 2)) for _ in range(30)]
        far = [rng.normal(8.0, 0.1, size=(4, 2)) for _ in range(30)]
        sigma = median_bandwidth(near + far)
        cluster_kernel = KernelSpec(family="exponential", sigma=sigma)
        ok &= mmd_squared(cluster_kernel, near, far).value > 0.5

        vals = []
        for _ in range(20):
            p = [rng.normal(size=(4, 2)) for _ in range(50)]
            q = [rng.normal(size=(4, 2)) for _ in range(50)]
            kernel = KernelSpec(family="exponential", sigma=median_bandwidth(p + q))
            vals.append(mmd_squared(kernel, p, q).value)
        ok &= abs(float(np.mean(vals))) < 0.05
        report("criterion 4: MMD suite (zero, clusters, null calibration)", ok)


class TestCriterion5Directional:
    def test_five_seed_comparison(self):
        t0 = time.monotonic()
        mse_wins = 0
        mmd_wins = 0
        for seed in range(5):
            kmb = train(synthetic_task(seed))
            base = train(synthetic_task(seed, objective={**KMB_DF, "alpha": 0.0}))
            mse_wins += kmb.test_mse <= base.test_mse
            mmd_wins += kmb.test_mmd <= base.test_mmd
        elapsed = time.monotonic() - t0
        ok = mse_wins >= 4 and mmd_wins >= 4 and elapsed < 600.0
        report(
            "criterion 5: directional AR(1) reproduction "
            f"(MSE wins {mse_wins}/5, MMD wins {mmd_wins}/5, {elapsed:.0f}s)",
            ok,
        )


class TestCriterion6Sweeps:
    def test_all_three_sweeps(self, tmp_path):
        base = synthetic_task(0, max_epochs=2, compute_mmd=False)
        base = replace(base, data=replace(base.data, length=1200))
        ok = True
        for param, grid in (
            ("alpha", ALPHA_GRID), ("margin_c", C_GRID), ("top_k", K_GRID)
        ):
            out = tmp_path / param
            rows, _ = run_sweep(base, param, grid, out_dir=str(out))
            grid_rows = [r for r in rows if r[0] != "DF"]
            ok &= len(grid_rows) == len(grid)
            for _, mse, mae, dmse, dmae in rows:
                ok &= all(
                    v is not None and np.isfinite(v) for v in (mse, mae, dmse, dmae)
                )
            with open(out / "sweep.csv", newline="") as fh:
                parsed = list(csv.reader(fh))
            ok &= parsed[0] == ["param", "MSE", "MAE", "dMSE_pct", "dMAE_pct"]
            ok &= len(parsed) == 1 + len(rows)
            for rec in parsed[1:]:
                ok &= len(rec) == 5 and np.isfinite(float(rec[1]))
        report("criterion 6: alpha/C/K sweeps complete with finite delta CSV", ok)


class TestCriterion7Determinism:
    def test_byte_identical_reports(self):
        cfg = synthetic_task(0, max_epochs=3)
        cfg = replace(cfg, data=replace(cfg.data, length=1200))
        a = train(cfg).to_json(include_timing=False)
        b = train(cfg).to_json(include_timing=False)
        ok = a == b
        report("criterion 7: identical train runs byte-identical", ok)


class TestCriterion8ComplexityTrend:
    def test_timing_trend(self):
        horizons = [32, 96, 192, 336, 720]
        results = timing_probe(horizons, n=128, channels=21, history_len=96, reps=5, seed=0)
        totals = [r["loss_and_grad_ms"] for r in results]
        ok = totals[-1] > totals[0]
        ok &= totals[-1] / totals[0] <= 25.0
        report(
            "criterion 8: objective time grows with horizon "
            f"(x{totals[-1] / totals[0]:.1f} from T=32 to T=720, <=25x)",
            ok,
        )


class TestCriterion9CrossModule:
    def test_alpha_zero_equals_mse(self):
        rng = np.random.default_rng(9)
        ok = True
        for _ in range(100):
            n = int(rng.integers(2, 7))
            hist, labels, fcs = random_batch(rng, n, 3, 2, 2)
            cfg = BalanceConfig(alpha=0.0, top_k=min(2, n), kernel=EXP)
            total = kmb_df_grad(cfg, hist, labels, fcs)[1].total
            ref = MSE.loss_and_grad(hist, labels, fcs)[0]
            ok &= abs(total - ref) <= 1e-12 * max(abs(ref), 1.0)
        pairs = [(float(rng.normal(scale=2.0)), float(rng.uniform(0.0, 1.0))) for _ in range(1000)]
        delta, c = np.array(pairs).T
        ok &= bool(np.all(hinge_slack(delta, c, "paper_literal") == np.abs(delta + c)))
        report("criterion 9: alpha=0 equals MSE; two-sided hinge equals |delta+C|", ok)
