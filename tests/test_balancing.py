import numpy as np
import pytest
from hypothesis import given, strategies as st

from kmbdf import balancing
from kmbdf.balancing import (
    BalanceConfig,
    hinge_slack,
    informativeness_scores,
    kmb_df_grad,
    kmb_df_loss,
    kmb_df_loss_and_grad,
    kmb_df_loss_with_selection,
    mmd_squared,
    select_top_k,
)
from kmbdf.errors import ConfigError, DomainError, ShapeError
from kmbdf.kernels import KernelSpec, eval_kernel, kernel_grad_b, median_bandwidth
from kmbdf.objectives import mse_grad, mse_loss

EXP = KernelSpec(family="exponential", sigma=1.0)

ALL_KERNELS = [
    KernelSpec(family="exponential", sigma=1.3),
    KernelSpec(family="gaussian", sigma=0.9),
    KernelSpec(family="linear"),
    KernelSpec(family="polynomial", degree=2),
    KernelSpec(family="sigmoid"),
]


def random_batch(rng, n=4, h=3, t=2, d=2):
    hist = [rng.normal(size=(h, d)) for _ in range(n)]
    labels = [rng.normal(size=(t, d)) for _ in range(n)]
    fcs = [rng.normal(size=(t, d)) for _ in range(n)]
    return hist, labels, fcs


def joints_of(hist, ys):
    return [np.concatenate([x, y], axis=0) for x, y in zip(hist, ys)]


def brute_force_deltas(kernel, reals, fcs, anchor_mode):
    """Independent double-loop oracle over eval_kernel."""
    n = len(reals)
    deltas = np.zeros(n)
    for k in range(n):
        for i in range(n):
            deltas[k] += eval_kernel(kernel, reals[i], reals[k])
            if anchor_mode == "forecast":
                deltas[k] -= eval_kernel(kernel, reals[i], fcs[k])
            else:
                deltas[k] -= eval_kernel(kernel, fcs[i], reals[k])
    return deltas


# The same five families with widths whose kernel values stay away from 0
# and 1 at H * D = T * D = 2016.
WIDE_KERNELS = [
    KernelSpec(family="exponential", sigma=7.0),
    KernelSpec(family="gaussian", sigma=60.0),
    KernelSpec(family="linear"),
    KernelSpec(family="polynomial", degree=2),
    KernelSpec(family="sigmoid"),
]


class TestInformativenessScores:
    @pytest.mark.parametrize("anchor", ["forecast", "real"])
    def test_zero_at_identity(self, anchor):
        rng = np.random.default_rng(0)
        # N=63 with H*D = T*D = 2016 is paper_t96's trailing batch, and N=32
        # with T*D=48 the desk batch: at both, a symmetric product of the
        # labels rounds differently from the general one.  The real and the
        # forecast statistics must run identical operations.
        for kernels, shape in (
            (ALL_KERNELS, {}),
            (ALL_KERNELS, {"n": 32, "h": 24, "t": 24, "d": 2}),
            (WIDE_KERNELS, {"n": 63, "h": 96, "t": 96, "d": 21}),
        ):
            hist, labels, _ = random_batch(rng, **shape)
            for kernel in kernels:
                cfg = BalanceConfig(kernel=kernel, anchor_mode=anchor)
                scores = informativeness_scores(cfg, hist, labels, [y.copy() for y in labels])
                np.testing.assert_array_equal(scores.deltas, np.zeros(len(hist)))

    def test_hand_example(self):
        cfg = BalanceConfig(kernel=EXP, anchor_mode="forecast", top_k=1)
        hist = [np.zeros((0, 1)), np.zeros((0, 1))]
        labels = [np.array([[0.0]]), np.array([[2.0]])]
        fcs = [np.array([[0.0]]), np.array([[4.0]])]
        deltas = informativeness_scores(cfg, hist, labels, fcs).deltas
        assert deltas[0] == pytest.approx(0.0)
        assert deltas[1] == pytest.approx(1.0 - np.exp(-2.0))

    @pytest.mark.parametrize("anchor", ["forecast", "real"])
    def test_matches_brute_force(self, anchor):
        rng = np.random.default_rng(1)
        for shape in ({"n": 6}, {"n": 8, "h": 10, "t": 5, "d": 3}):
            hist, labels, fcs = random_batch(rng, **shape)
            reals = joints_of(hist, labels)
            fc_joints = joints_of(hist, fcs)
            for kernel in ALL_KERNELS:
                cfg = BalanceConfig(kernel=kernel, anchor_mode=anchor)
                got = informativeness_scores(cfg, hist, labels, fcs).deltas
                want = brute_force_deltas(kernel, reals, fc_joints, anchor)
                np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=kernel.family.value)

    def test_anchor_modes_differ_in_general(self):
        rng = np.random.default_rng(2)
        hist, labels, fcs = random_batch(rng, n=5)
        d_fc = informativeness_scores(
            BalanceConfig(kernel=EXP, anchor_mode="forecast"), hist, labels, fcs
        ).deltas
        d_real = informativeness_scores(
            BalanceConfig(kernel=EXP, anchor_mode="real"), hist, labels, fcs
        ).deltas
        assert not np.allclose(d_fc, d_real)

    def test_empty_batch(self):
        cfg = BalanceConfig(kernel=EXP)
        with pytest.raises(ShapeError):
            informativeness_scores(cfg, [], [], [])


class TestSelectTopK:
    def test_by_magnitude(self):
        np.testing.assert_array_equal(select_top_k([0.5, -0.9, 0.1], 2), [1, 0])

    def test_tie_break_by_index(self):
        np.testing.assert_array_equal(select_top_k([0.3, 0.3, 0.3], 2), [0, 1])

    def test_full_selection_is_permutation(self):
        rng = np.random.default_rng(3)
        deltas = rng.normal(size=7)
        sel = select_top_k(deltas, 7)
        assert sorted(sel) == list(range(7))

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            select_top_k([1.0, 2.0], 3)

    def test_selected_dominate_unselected(self):
        rng = np.random.default_rng(4)
        deltas = rng.normal(size=10)
        sel = select_top_k(deltas, 4)
        rest = set(range(10)) - set(int(i) for i in sel)
        assert min(abs(deltas[i]) for i in sel) >= max(abs(deltas[j]) for j in rest)


class TestHingeSlack:
    def test_examples(self):
        assert hinge_slack(0.05, 0.01, "canonical") == pytest.approx(0.04)
        assert hinge_slack(0.005, 0.01, "canonical") == 0.0
        assert hinge_slack(0.05, 0.01, "paper_literal") == pytest.approx(0.06)
        assert hinge_slack(-0.02, 0.01, "canonical") == pytest.approx(0.01)

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(0, 5, allow_nan=False),
    )
    def test_canonical_is_clipped_magnitude(self, delta, c):
        assert hinge_slack(delta, c, "canonical") == max(0.0, abs(delta) - c)

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(0, 5, allow_nan=False),
    )
    def test_paper_literal_is_abs_shifted(self, delta, c):
        assert hinge_slack(delta, c, "paper_literal") == pytest.approx(
            abs(delta + c), abs=1e-15
        )

    def test_deadzone(self):
        for delta in np.linspace(-0.01, 0.01, 21):
            assert hinge_slack(float(delta), 0.01, "canonical") == 0.0

    def test_monotone_in_magnitude(self):
        c = 0.1
        xs = [hinge_slack(d, c, "canonical") for d in (0.2, 0.4, 0.8)]
        assert xs[0] < xs[1] < xs[2]

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigError):
            hinge_slack(0.1, -1.0)


class TestKmbDfLoss:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(5)
        cfg = BalanceConfig(alpha=0.5, top_k=2, margin_c=0.0, kernel=EXP)
        hist, labels, _ = random_batch(rng)
        total, diag = kmb_df_loss(cfg, hist, labels, [y.copy() for y in labels])
        assert total == 0.0
        assert diag.penalty_term == 0.0
        assert diag.mse_term == 0.0

    def test_alpha_zero_is_pure_mse(self):
        rng = np.random.default_rng(6)
        cfg = BalanceConfig(alpha=0.0, top_k=2, kernel=EXP)
        hist, labels, fcs = random_batch(rng)
        total, _ = kmb_df_loss(cfg, hist, labels, fcs)
        expected = sum(float(np.sum((y - f) ** 2)) for y, f in zip(labels, fcs))
        assert total == pytest.approx(expected, rel=1e-12)

    def test_alpha_zero_does_no_kernel_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("kernel work at alpha=0")

        for name in ("joint_stats", "kernel_from_stat", "grad_b_sum", "grad_coeffs"):
            monkeypatch.setattr(balancing, name, forbidden)
        rng = np.random.default_rng(6)
        hist, labels, fcs = random_batch(rng)
        for anchor in ("forecast", "real"):
            cfg = BalanceConfig(alpha=0.0, top_k=2, kernel=EXP, anchor_mode=anchor)
            total, grads, diag = kmb_df_loss_and_grad(cfg, hist, labels, fcs)
            assert total == mse_loss(labels, fcs)
            for g, want in zip(grads, mse_grad(labels, fcs)):
                np.testing.assert_array_equal(g, want)
            assert diag.to_dict() == {
                "deltas": [], "selected": [], "slacks": [],
                "penalty_term": 0.0, "mse_term": total, "total": total,
            }

    def test_alpha_one_hand_example(self):
        cfg = BalanceConfig(alpha=1.0, top_k=1, margin_c=0.0, kernel=EXP)
        hist = [np.zeros((0, 1)), np.zeros((0, 1))]
        labels = [np.array([[0.0]]), np.array([[2.0]])]
        fcs = [np.array([[0.0]]), np.array([[4.0]])]
        total, _ = kmb_df_loss(cfg, hist, labels, fcs)
        assert total == pytest.approx(1.0 - np.exp(-2.0))

    def test_diagnostics_recompose(self):
        rng = np.random.default_rng(7)
        cfg = BalanceConfig(alpha=0.4, top_k=3, margin_c=0.01, kernel=EXP)
        hist, labels, fcs = random_batch(rng, n=6)
        total, diag = kmb_df_loss(cfg, hist, labels, fcs)
        recomposed = 0.4 * diag.penalty_term + 0.6 * diag.mse_term
        assert total == pytest.approx(recomposed, rel=1e-12)
        assert diag.total == total
        assert len(set(int(i) for i in diag.selected)) == 3

    def test_top_k_larger_than_batch(self):
        rng = np.random.default_rng(8)
        hist, labels, fcs = random_batch(rng, n=4)
        for alpha in (0.3, 0.0):
            cfg = BalanceConfig(alpha=alpha, top_k=10, kernel=EXP)
            with pytest.raises(ConfigError):
                kmb_df_loss(cfg, hist, labels, fcs)


def fd_grads(cfg, hist, labels, fcs, selected, eps=1e-6):
    """Finite-difference oracle with the anchor selection pinned."""
    grads = []
    for i, f in enumerate(fcs):
        g = np.zeros_like(f)
        it = np.nditer(f, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            hi = [np.array(x) for x in fcs]
            hi[i][idx] += eps
            lo = [np.array(x) for x in fcs]
            lo[i][idx] -= eps
            fh, _ = kmb_df_loss_with_selection(cfg, hist, labels, hi, selected)
            fl, _ = kmb_df_loss_with_selection(cfg, hist, labels, lo, selected)
            g[idx] = (fh - fl) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


class TestKmbDfGrad:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(9)
        cfg = BalanceConfig(alpha=0.5, top_k=2, margin_c=0.0, kernel=EXP)
        hist, labels, _ = random_batch(rng)
        grads, _ = kmb_df_grad(cfg, hist, labels, [y.copy() for y in labels])
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_alpha_zero_is_mse_gradient(self):
        rng = np.random.default_rng(10)
        cfg = BalanceConfig(alpha=0.0, top_k=2, kernel=EXP)
        hist, labels, fcs = random_batch(rng)
        grads, _ = kmb_df_grad(cfg, hist, labels, fcs)
        for g, y, f in zip(grads, labels, fcs):
            np.testing.assert_allclose(g, 2.0 * (f - y), rtol=1e-14)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.family.value)
    @pytest.mark.parametrize("anchor", ["forecast", "real"])
    @pytest.mark.parametrize("hinge", ["canonical", "paper_literal"])
    def test_finite_difference(self, kernel, anchor, hinge):
        rng = np.random.default_rng(11)
        cfg = BalanceConfig(
            alpha=0.6,
            top_k=2,
            margin_c=0.01,
            kernel=kernel,
            anchor_mode=anchor,
            hinge_mode=hinge,
        )
        hist, labels, fcs = random_batch(rng, n=4, h=3, t=2, d=2)
        grads, diag = kmb_df_grad(cfg, hist, labels, fcs)
        numeric = fd_grads(cfg, hist, labels, fcs, diag.selected)
        a = np.concatenate([g.ravel() for g in grads])
        b = np.concatenate([g.ravel() for g in numeric])
        assert np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12) < 1e-5

    def test_deadzone_kills_penalty_gradient(self):
        rng = np.random.default_rng(12)
        hist, labels, fcs = random_batch(rng)
        # Margin so wide that every |delta| is inside it.
        cfg = BalanceConfig(alpha=1.0, top_k=2, margin_c=1e6, kernel=EXP)
        grads, diag = kmb_df_grad(cfg, hist, labels, fcs)
        assert np.all(np.abs(diag.deltas) <= 1e6)
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_forecast_anchor_touches_only_selected(self):
        rng = np.random.default_rng(13)
        hist, labels, fcs = random_batch(rng, n=6)
        cfg = BalanceConfig(
            alpha=1.0, top_k=2, margin_c=0.0, kernel=EXP, anchor_mode="forecast"
        )
        grads, diag = kmb_df_grad(cfg, hist, labels, fcs)
        selected = set(int(i) for i in diag.selected)
        for n, g in enumerate(grads):
            if n not in selected:
                np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_real_anchor_touches_all(self):
        rng = np.random.default_rng(14)
        hist, labels, fcs = random_batch(rng, n=6)
        cfg = BalanceConfig(
            alpha=1.0, top_k=2, margin_c=0.0, kernel=EXP, anchor_mode="real"
        )
        grads, _ = kmb_df_grad(cfg, hist, labels, fcs)
        assert all(np.any(g != 0.0) for g in grads)


class TestMmdSquared:
    def test_identical_samples(self):
        rng = np.random.default_rng(15)
        sample = [rng.normal(size=(3, 2)) for _ in range(8)]
        result = mmd_squared(EXP, sample, list(sample))
        assert abs(result.value) < 1e-12
        assert not result.biased

    def test_separated_clusters(self):
        near = [np.array([[0.0]]) + 1e-3 * i for i in range(10)]
        far = [np.array([[100.0]]) + 1e-3 * i for i in range(10)]
        result = mmd_squared(EXP, near, far)
        assert result.value == pytest.approx(2.0, abs=0.05)

    def test_same_distribution_small(self):
        values = []
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            pool = [rng.normal(size=(4, 1)) for _ in range(100)]
            sigma = median_bandwidth(pool)
            kernel = KernelSpec(family="exponential", sigma=sigma)
            values.append(mmd_squared(kernel, pool[:50], pool[50:]).value)
        assert abs(np.mean(values)) < 0.05

    def test_v_statistic_nonnegative(self):
        rng = np.random.default_rng(16)
        p = [rng.normal(size=(2, 1))]
        q = [rng.normal(size=(2, 1)) for _ in range(4)]
        result = mmd_squared(EXP, p, q)
        assert result.biased
        assert result.value >= 0.0

    def test_empty_sample(self):
        with pytest.raises(ShapeError):
            mmd_squared(EXP, [], [np.zeros((1, 1))])


class TestBalanceConfig:
    def test_invalid_alpha(self):
        with pytest.raises(ConfigError):
            BalanceConfig(alpha=1.5, kernel=EXP)

    def test_invalid_margin(self):
        with pytest.raises(ConfigError):
            BalanceConfig(margin_c=-0.1, kernel=EXP)

    def test_invalid_modes(self):
        with pytest.raises(ConfigError):
            BalanceConfig(anchor_mode="bogus", kernel=EXP)
        with pytest.raises(ConfigError):
            BalanceConfig(hinge_mode="bogus", kernel=EXP)


def per_pair_grads(cfg, hist, labels, fcs, diag):
    """Penalty gradient oracle: one `kernel_grad_b` call per joint pair."""
    h = hist[0].shape[0]
    reals = joints_of(hist, labels)
    fc_joints = joints_of(hist, fcs)
    grads = [2.0 * (1.0 - cfg.alpha) * (f - y) for y, f in zip(labels, fcs)]
    for k in diag.selected:
        w = cfg.alpha * np.sign(diag.deltas[k])  # canonical hinge, margin 0
        if cfg.anchor_mode == "forecast":
            for z in reals:
                grads[k] = grads[k] - w * kernel_grad_b(cfg.kernel, z, fc_joints[k])[h:]
        else:
            for n, zhat in enumerate(fc_joints):
                grads[n] = grads[n] - w * kernel_grad_b(cfg.kernel, reals[k], zhat)[h:]
    return np.stack(grads)


class TestPenaltyGradient:
    @pytest.mark.parametrize("anchor", ["forecast", "real"])
    def test_matches_per_pair_loop(self, anchor):
        rng = np.random.default_rng(20)
        for kernel in ALL_KERNELS:
            hist, labels, fcs = random_batch(rng, n=8, h=5, t=4, d=3)
            cfg = BalanceConfig(
                alpha=0.6, top_k=8, margin_c=0.0, kernel=kernel, anchor_mode=anchor
            )
            # A forecast within 1e-9 of its label: the exponential kernel's
            # coefficient is ~1/||Z - Zhat||, so the pair statistic and the
            # difference must both keep their relative accuracy.
            fcs[3] = labels[3] + 1e-9 * rng.normal(size=labels[3].shape)
            grads, diag = kmb_df_grad(cfg, hist, labels, fcs)
            want = per_pair_grads(cfg, hist, labels, fcs, diag)
            np.testing.assert_allclose(
                grads, want, rtol=1e-12, atol=1e-13 * np.abs(want).max(),
                err_msg=kernel.family.value,
            )


class TestStackedInputs:
    @pytest.mark.parametrize("anchor", ["forecast", "real"])
    def test_lists_and_stacks_agree(self, anchor):
        rng = np.random.default_rng(21)
        hist, labels, fcs = random_batch(rng, n=6, h=4, t=3, d=2)
        for kernel in ALL_KERNELS:
            cfg = BalanceConfig(alpha=0.4, top_k=3, kernel=kernel, anchor_mode=anchor)
            total_l, grads_l, diag_l = kmb_df_loss_and_grad(cfg, hist, labels, fcs)
            total_s, grads_s, diag_s = kmb_df_loss_and_grad(
                cfg, np.stack(hist), np.stack(labels), np.stack(fcs)
            )
            assert total_l == total_s
            np.testing.assert_array_equal(grads_l, grads_s)
            assert diag_l.to_dict() == diag_s.to_dict()

    def test_stacked_inputs_not_modified(self):
        rng = np.random.default_rng(22)
        batch = [np.stack(b) for b in random_batch(rng, n=6)]
        before = [b.copy() for b in batch]
        for kernel in ALL_KERNELS:
            for anchor in ("forecast", "real"):
                cfg = BalanceConfig(alpha=0.4, top_k=3, kernel=kernel, anchor_mode=anchor)
                kmb_df_loss_and_grad(cfg, *batch)
        for b, b0 in zip(batch, before):
            np.testing.assert_array_equal(b, b0)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_ragged_inputs_raise(self, which):
        rng = np.random.default_rng(23)
        batch = list(random_batch(rng, n=4))
        batch[which] = list(batch[which])
        batch[which][2] = np.zeros((batch[which][2].shape[0] + 1, 2))
        cfg = BalanceConfig(alpha=0.4, top_k=2, kernel=EXP)
        with pytest.raises(ShapeError):
            kmb_df_loss_and_grad(cfg, *batch)
        with pytest.raises(ShapeError):
            informativeness_scores(cfg, *batch)

    def test_mismatched_batches_raise(self):
        rng = np.random.default_rng(24)
        hist, labels, fcs = random_batch(rng, n=4)
        cfg = BalanceConfig(alpha=0.4, top_k=2, kernel=EXP)
        with pytest.raises(ShapeError):
            kmb_df_loss(cfg, hist[:3], labels, fcs)
        with pytest.raises(ShapeError):
            kmb_df_loss(cfg, hist, labels, [np.zeros((3, 2))] * 4)
        with pytest.raises(ShapeError):
            kmb_df_loss(cfg, [np.zeros((3, 1))] * 4, labels, fcs)

    def test_nan_forecast_raises(self):
        rng = np.random.default_rng(25)
        hist, labels, fcs = random_batch(rng, n=4)
        fcs[1][0, 0] = np.nan
        for alpha, anchor in ((0.4, "forecast"), (0.4, "real"), (0.0, "forecast")):
            cfg = BalanceConfig(alpha=alpha, top_k=2, kernel=EXP, anchor_mode=anchor)
            with pytest.raises(DomainError):
                kmb_df_loss_and_grad(cfg, hist, labels, fcs)
