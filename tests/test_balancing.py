import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kmbdf import balancing, data, kernels
from kmbdf.balancing import (
    ANCHOR_MODES,
    HINGE_MODES,
    BalanceConfig,
    hinge_slack,
    informativeness_scores,
    kmb_df_grad,
    mmd_squared,
    real_side,
    select_top_k,
)
from kmbdf.checks import fd_forecast_grads
from kmbdf.errors import ConfigError, DomainError, ShapeError
from kmbdf.kernels import (
    KernelSpec,
    grad_coeffs,
    gram_matrix,
    joint_stats,
    kernel_from_stat,
    median_bandwidth,
    median_gram,
    pair_sq_dists,
)
from kmbdf.objectives import KmbDfObjective, MseObjective, make_objective

from kernel_reference import eval_kernel, kernel_grad_b, refused_unless_distance

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


def stacked(*batches):
    """Float stacks of per-sample lists, as `kmb_df_grad` hands them to its
    stages."""
    return [np.asarray(b, dtype=float) for b in batches]


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
                scores = informativeness_scores(cfg, *stacked(hist, labels, labels))
                np.testing.assert_array_equal(scores.deltas, np.zeros(len(hist)))

    def test_hand_example(self):
        cfg = BalanceConfig(kernel=EXP, anchor_mode="forecast", top_k=1)
        hist = [np.zeros((0, 1)), np.zeros((0, 1))]
        labels = [np.array([[0.0]]), np.array([[2.0]])]
        fcs = [np.array([[0.0]]), np.array([[4.0]])]
        deltas = informativeness_scores(cfg, *stacked(hist, labels, fcs)).deltas
        assert deltas[0] == pytest.approx(0.0)
        assert deltas[1] == pytest.approx(1.0 - np.exp(-2.0))

    @pytest.mark.parametrize("anchor", ["forecast", "real"])
    def test_matches_brute_force(self, anchor):
        rng = np.random.default_rng(1)
        for shape in ({"n": 6}, {"n": 8, "h": 10, "t": 5, "d": 3}):
            hist, labels, fcs = random_batch(rng, **shape)
            reals = joints_of(hist, labels)
            fc_joints = joints_of(hist, fcs)
            stacks = [np.reshape(b, (len(b), -1)) for b in (hist, labels, fcs)]
            size = stacks[0].shape[1] + stacks[1].shape[1]
            for kernel in ALL_KERNELS:
                cfg = BalanceConfig(kernel=kernel, anchor_mode=anchor)
                scores = informativeness_scores(cfg, *stacked(hist, labels, fcs))
                want = brute_force_deltas(kernel, reals, fc_joints, anchor)
                np.testing.assert_allclose(scores.deltas, want, rtol=1e-12, err_msg=kernel.family)
                # The cross statistic is kept as it was, beside its kernel values.
                _, cross = joint_stats(kernel, *stacks, anchor == "forecast")
                np.testing.assert_array_equal(scores.cross, cross)
                np.testing.assert_array_equal(
                    scores.kernel, kernel_from_stat(kernel, cross.copy(), size)
                )

    def test_anchor_modes_differ_in_general(self):
        rng = np.random.default_rng(2)
        batch = stacked(*random_batch(rng, n=5))
        d_fc, d_real = (
            informativeness_scores(BalanceConfig(kernel=EXP, anchor_mode=anchor), *batch).deltas
            for anchor in ("forecast", "real")
        )
        assert not np.allclose(d_fc, d_real)


class TestSelectTopK:
    def test_by_magnitude(self):
        np.testing.assert_array_equal(select_top_k(np.array([0.5, -0.9, 0.1]), 2), [1, 0])

    def test_tie_break_by_index(self):
        np.testing.assert_array_equal(select_top_k(np.array([0.3, 0.3, 0.3]), 2), [0, 1])

    def test_full_selection_is_permutation(self):
        rng = np.random.default_rng(3)
        deltas = rng.normal(size=7)
        sel = select_top_k(deltas, 7)
        assert sorted(sel) == list(range(7))

    def test_numpy_integer_k(self):
        deltas = np.array([0.5, -0.9, 0.1])
        np.testing.assert_array_equal(select_top_k(deltas, np.int64(3)), [1, 0, 2])

    def test_selected_dominate_unselected(self):
        rng = np.random.default_rng(4)
        deltas = rng.normal(size=10)
        sel = select_top_k(deltas, 4)
        rest = set(range(10)) - set(int(i) for i in sel)
        assert min(abs(deltas[i]) for i in sel) >= max(abs(deltas[j]) for j in rest)


def scalar_slack(delta, c, mode):
    """The hinge slack of one score, by definition."""
    if mode == "canonical":
        return max(0.0, abs(delta) - c)
    return max(0.0, -c - delta) + max(0.0, delta + c)


def scalar_subgradient(delta, c, mode):
    """d xi / d delta of one score, 0 at the kinks."""
    if mode == "canonical":
        return 1.0 if delta > c else -1.0 if delta < -c else 0.0
    return 1.0 if delta > -c else -1.0 if delta < -c else 0.0


class TestHingeSlack:
    def test_examples(self):
        deltas = np.array([0.05, 0.005, -0.02])
        canonical = hinge_slack(deltas, 0.01, "canonical")
        np.testing.assert_allclose(canonical, [0.04, 0.0, 0.01])
        assert canonical[1] == 0.0
        assert hinge_slack(deltas[:1], 0.01, "paper_literal")[0] == pytest.approx(0.06)

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(0, 5, allow_nan=False),
    )
    def test_canonical_is_clipped_magnitude(self, delta, c):
        assert hinge_slack(np.array([delta]), c, "canonical")[0] == max(0.0, abs(delta) - c)

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(0, 5, allow_nan=False),
    )
    def test_paper_literal_is_abs_shifted(self, delta, c):
        assert hinge_slack(np.array([delta]), c, "paper_literal")[0] == pytest.approx(
            abs(delta + c), abs=1e-15
        )

    def test_deadzone(self):
        np.testing.assert_array_equal(
            hinge_slack(np.linspace(-0.01, 0.01, 21), 0.01, "canonical"), np.zeros(21)
        )

    def test_monotone_in_magnitude(self):
        c = 0.1
        xs = hinge_slack(np.array([0.2, 0.4, 0.8]), c, "canonical")
        assert xs[0] < xs[1] < xs[2]

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), max_size=12),
        st.floats(0, 5, allow_nan=False),
        st.sampled_from(HINGE_MODES),
    )
    def test_array_equals_scalar_definitions(self, deltas, c, mode):
        d = np.array(deltas + [c, -c, 0.0, -0.0])
        slacks = hinge_slack(d, c, mode)
        subgrads = balancing._hinge_subgradient(d, c, mode)
        assert slacks.shape == subgrads.shape == d.shape
        for i, delta in enumerate(d.tolist()):
            assert slacks[i] == scalar_slack(delta, c, mode)
            assert subgrads[i] == scalar_subgradient(delta, c, mode)


class TestKmbDfLoss:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(5)
        cfg = BalanceConfig(alpha=0.5, top_k=2, margin_c=0.0, kernel=EXP)
        hist, labels, _ = random_batch(rng)
        _, diag = kmb_df_grad(cfg, hist, labels, [y.copy() for y in labels])
        assert diag.total == 0.0
        assert diag.penalty_term == 0.0
        assert diag.mse_term == 0.0

    def test_alpha_zero_is_pure_mse(self):
        rng = np.random.default_rng(6)
        cfg = BalanceConfig(alpha=0.0, top_k=2, kernel=EXP)
        hist, labels, fcs = random_batch(rng)
        total = kmb_df_grad(cfg, hist, labels, fcs)[1].total
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
            total, grads, diag = KmbDfObjective(config=cfg).loss_and_grad(hist, labels, fcs)
            want_total, want, _ = MseObjective().loss_and_grad(hist, labels, fcs)
            assert total == want_total
            np.testing.assert_array_equal(grads, want)
            assert diag.to_dict() == {
                "deltas": [], "selected": [], "slacks": [],
                "penalty_term": 0.0, "mse_term": total, "total": total,
            }

    def test_alpha_one_hand_example(self):
        cfg = BalanceConfig(alpha=1.0, top_k=1, margin_c=0.0, kernel=EXP)
        hist = [np.zeros((0, 1)), np.zeros((0, 1))]
        labels = [np.array([[0.0]]), np.array([[2.0]])]
        fcs = [np.array([[0.0]]), np.array([[4.0]])]
        total = kmb_df_grad(cfg, hist, labels, fcs)[1].total
        assert total == pytest.approx(1.0 - np.exp(-2.0))

    def test_diagnostics_recompose(self):
        rng = np.random.default_rng(7)
        cfg = BalanceConfig(alpha=0.4, top_k=3, margin_c=0.01, kernel=EXP)
        hist, labels, fcs = random_batch(rng, n=6)
        _, diag = kmb_df_grad(cfg, hist, labels, fcs)
        recomposed = 0.4 * diag.penalty_term + 0.6 * diag.mse_term
        assert diag.total == pytest.approx(recomposed, rel=1e-12)
        assert len(set(int(i) for i in diag.selected)) == 3

    @pytest.mark.parametrize(
        "selected", [[5], [3], [-1], [0.5], [1.0], [0, 0], [[0, 1]], [True], [[0], [1, 2]], [0, None]]
    )
    def test_pinned_selection_outside_distinct_indices_rejected(self, selected):
        rng = np.random.default_rng(9)
        hist, labels, fcs = random_batch(rng, n=3)
        cfg = BalanceConfig(alpha=0.4, top_k=2, kernel=EXP)
        with pytest.raises(ConfigError, match="selected"):
            kmb_df_grad(cfg, hist, labels, fcs, selected)

    def test_pinned_selection(self):
        rng = np.random.default_rng(9)
        hist, labels, fcs = random_batch(rng, n=3)
        cfg = BalanceConfig(alpha=0.4, top_k=2, kernel=EXP)
        _, diag = kmb_df_grad(cfg, hist, labels, fcs)
        for selected in ([2, 0], np.array([2, 0], dtype=np.uint8), diag.selected):
            _, pinned = kmb_df_grad(cfg, hist, labels, fcs, selected)
            np.testing.assert_array_equal(pinned.selected, selected)
            slacks = hinge_slack(diag.deltas[list(selected)], cfg.margin_c, cfg.hinge_mode)
            assert pinned.penalty_term == float(np.sum(slacks))

    def test_top_k_larger_than_batch(self):
        rng = np.random.default_rng(8)
        hist, labels, fcs = random_batch(rng, n=4)
        for alpha in (0.3, 0.0):
            cfg = BalanceConfig(alpha=alpha, top_k=10, kernel=EXP)
            with pytest.raises(ConfigError):
                kmb_df_grad(cfg, hist, labels, fcs)


class TestKmbDfGrad:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(9)
        cfg = BalanceConfig(alpha=0.5, top_k=2, margin_c=0.0, kernel=EXP)
        hist, labels, _ = random_batch(rng)
        grads, _ = kmb_df_grad(cfg, hist, labels, [y.copy() for y in labels])
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_alpha_zero_gradient_is_mse(self):
        rng = np.random.default_rng(10)
        cfg = BalanceConfig(alpha=0.0, top_k=2, kernel=EXP)
        hist, labels, fcs = random_batch(rng)
        grads, _ = kmb_df_grad(cfg, hist, labels, fcs)
        for g, y, f in zip(grads, labels, fcs):
            np.testing.assert_allclose(g, 2.0 * (f - y), rtol=1e-14)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.family)
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
        # Finite differences with the anchor selection pinned.
        numeric = fd_forecast_grads(
            lambda b: kmb_df_grad(cfg, hist, labels, b, diag.selected)[1].total, fcs, eps=1e-6
        )
        a = np.concatenate([g.ravel() for g in grads])
        b = np.concatenate([g.ravel() for g in numeric])
        assert np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12) < 1e-5

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        shape=st.tuples(*(st.integers(1, hi) for hi in (6, 4, 3, 3))),
        kernel=st.one_of(
            st.builds(KernelSpec, family=st.sampled_from(["exponential", "gaussian"]),
                      sigma=st.floats(0.5, 5.0)),
            st.builds(KernelSpec, family=st.just("polynomial"), degree=st.integers(1, 4)),
            st.builds(KernelSpec, family=st.sampled_from(["linear", "sigmoid"])),
        ),
        anchor=st.sampled_from(ANCHOR_MODES),
        hinge=st.sampled_from(HINGE_MODES),
        alpha=st.floats(0.1, 0.9),
        margin_c=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_finite_difference_at_random_shapes(self, shape, kernel, anchor, hinge, alpha,
                                                margin_c, seed, data):
        n, h, t, d = shape
        cfg = BalanceConfig(
            alpha=alpha,
            top_k=data.draw(st.integers(1, n), label="top_k"),
            margin_c=margin_c,
            kernel=kernel,
            anchor_mode=anchor,
            hinge_mode=hinge,
        )
        rng = np.random.default_rng(seed)
        hist, labels, fcs = (rng.normal(size=(n, m, d)) for m in (h, t, t))
        grads, diag = kmb_df_grad(cfg, hist, labels, fcs)
        # The hinge has kinks at |delta| = C (canonical) and -delta = C
        # (paper_literal), where a central difference is no derivative.
        chosen = diag.deltas[diag.selected]
        arg = np.abs(chosen) if hinge == "canonical" else -chosen
        assume(np.min(np.abs(arg - margin_c)) > 1e-4)
        numeric = fd_forecast_grads(
            lambda b: kmb_df_grad(cfg, hist, labels, b, diag.selected)[1].total, fcs, eps=1e-6
        )
        assert np.linalg.norm(grads - numeric) / np.linalg.norm(numeric) < 1e-5
        # The penalty's share alone, which the MSE term can dwarf; the
        # differences' rounding is about 1e-10 of the loss per entry.
        mse_part = 2.0 * (1.0 - alpha) * (fcs - labels)
        penalty, numeric_penalty = grads - mse_part, numeric - mse_part
        error = np.linalg.norm(penalty - numeric_penalty)
        assert error <= 1e-5 * np.linalg.norm(numeric_penalty) + 1e-8 * (1.0 + diag.total)

    @pytest.mark.parametrize("family", ["exponential", "gaussian"])
    @pytest.mark.parametrize("anchor", ANCHOR_MODES)
    def test_directional_finite_difference_at_paper_scale(self, family, anchor):
        self.check_directions_at_paper_scale(family, anchor, t=96)

    def test_directional_finite_difference_at_paper_scale_t720(self):
        self.check_directions_at_paper_scale("exponential", "forecast", t=720)

    @staticmethod
    def check_directions_at_paper_scale(family, anchor, t):
        # N=128, H=96, D=21: both anchor modes contract the penalty
        # gradient in several `grad_b_sum` chunks, which the small checks
        # above reach in one.
        n, h, d = 128, 96, 21
        assert kernels._DIFF_ELEMENTS < 2 * n * t * d
        rng = np.random.default_rng(31)
        hist, labels, fcs = (rng.normal(size=(n, m, d)) for m in (h, t, t))
        # The median bandwidth puts a median pair at exp(-1/2) for the
        # exponential kernel; the gaussian, which squares the distance, needs
        # it squared, or every off-diagonal K underflows and the test is void.
        sigma = median_bandwidth(np.concatenate([hist, labels], axis=1))
        sigma = sigma if family == "exponential" else sigma**2
        cfg = BalanceConfig(alpha=1.0, margin_c=0.0, anchor_mode=anchor,
                            kernel=KernelSpec(family=family, sigma=sigma))
        grads, diag = kmb_df_grad(cfg, hist, labels, fcs)
        assert np.linalg.norm(grads) > 1e-2
        directions = [v / np.linalg.norm(v) for v in rng.normal(size=(3, n, t, d))]
        directions.append(grads / np.linalg.norm(grads))
        eps = 1e-4
        for v in directions:
            hi = kmb_df_grad(cfg, hist, labels, fcs + eps * v, diag.selected)[1].total
            lo = kmb_df_grad(cfg, hist, labels, fcs - eps * v, diag.selected)[1].total
            analytic = float(np.sum(grads * v))
            assert abs((hi - lo) / (2 * eps) - analytic) <= 1e-4 * abs(analytic)

    @pytest.mark.parametrize("family", ["exponential", "gaussian"])
    def test_step_forms_each_kernel_block_once(self, family, monkeypatch):
        calls = []
        original = kernels.kernel_from_stat

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "kernel_from_stat", counted)
        monkeypatch.setattr(balancing, "kernel_from_stat", counted)
        hist, labels, fcs = random_batch(np.random.default_rng(8), n=6)
        cfg = BalanceConfig(top_k=3, kernel=KernelSpec(family=family, sigma=1.0))
        _, _, diag = KmbDfObjective(config=cfg).loss_and_grad(hist, labels, fcs)
        assert np.all(diag.slacks > 0.0)  # every selected hinge is active
        # The real block for delta, the cross block for delta and the gradient.
        assert len(calls) == 2

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
        # Exactly 0 for both distance families, and at the paper_t96 test
        # MMD^2 shape, although the within-sample Grams are symmetric
        # products and the cross Gram is not: computed through the Grams,
        # some of these cases come out near 1e-17.
        def check(kernel, stack):
            sample = list(stack)
            for p, q in ((stack, stack.copy()), (sample, [z.copy() for z in sample])):
                assert mmd_squared(kernel, p, q).value == 0.0, (stack.shape, kernel.family)

        for seed in range(32):
            rng = np.random.default_rng(seed)
            for shape, offset in (((8, 3, 2), 0.0), ((32, 12, 4), 0.0), ((32, 12, 4), 1e3)):
                stack = offset + rng.normal(size=shape)
                for kernel in ALL_KERNELS[:2] + [
                    KernelSpec(family=f, sigma=median_bandwidth(stack))
                    for f in ("exponential", "gaussian")
                ]:
                    check(kernel, stack)
        stack = np.random.default_rng(15).normal(size=(509, 192, 21))
        check(KernelSpec(family="exponential", sigma=median_bandwidth(stack)), stack)

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

    def test_empty_sample(self):
        with pytest.raises(ShapeError):
            mmd_squared(EXP, [], [np.zeros((1, 1))])

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.family)
    @pytest.mark.parametrize("n", [2, 7])
    def test_matches_per_pair_definition(self, kernel, n):
        # sum_{i != j} h_ij / (n (n - 1)), with h_ij = k(p_i, p_j) +
        # k(q_i, q_j) - k(p_i, q_j) - k(p_j, q_i); with a history, on the
        # concatenated joints.  The scale keeps the gaussian's off-diagonal
        # K well above rounding beside its unit diagonal.  The inner-product
        # families are refused.
        rng = np.random.default_rng(48 + n)
        hist, lab, fc = 0.3 * rng.normal(size=(3, n, 3, 2))
        joints = [np.concatenate([hist, z], axis=1) for z in (lab, fc)]
        k = lambda a, b: eval_kernel(kernel, a, b)
        for p, q, history, jp, jq in ((lab, fc, None, lab, fc), (lab, fc, hist, *joints)):
            h = [k(jp[i], jp[j]) + k(jq[i], jq[j]) - k(jp[i], jq[j]) - k(jp[j], jq[i])
                 for i in range(n) for j in range(n) if i != j]
            with refused_unless_distance(kernel):
                got = mmd_squared(kernel, p, q, history).value
                np.testing.assert_allclose(got, sum(h) / (n * (n - 1)), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("sizes", [(5, 4), (1, 5), (5, 1), (1, 1)],
                             ids=["m != n", "singleton p", "singleton q", "singletons"])
    def test_unpaired_or_singleton_raises_before_any_gram(self, sizes, monkeypatch):
        calls = []
        for name in ("gram_matrix", "median_gram", "pair_sq_dists"):
            def counted(*args, _f=getattr(balancing, name), _name=name):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(balancing, name, counted)
        rng = np.random.default_rng(49)
        p, q = rng.normal(size=(sizes[0], 3, 2)), rng.normal(size=(sizes[1], 3, 2))
        hist = rng.normal(size=(sizes[0], 4, 2))
        for kernel in (EXP, KernelSpec(family="exponential")):
            for history in (None, hist, list(hist)):
                for form in (lambda z: z, list):
                    with pytest.raises(ShapeError, match="n >= 2 pairs"):
                        mmd_squared(kernel, form(p), form(q), history)
        assert calls == []

    @pytest.mark.parametrize("family", ["exponential", "gaussian"])
    def test_shared_block_matches_concatenated_joints(self, family):
        # Random rows; the same with each odd row within 1e-9 of the even
        # row before it, in every block; and rows at +1e3 with spread 1e-3.
        rng = np.random.default_rng(41)
        hist = rng.normal(size=(12, 6, 3))
        lab, fc = rng.normal(size=(2, 12, 4, 3))
        near = [z.copy() for z in (hist, lab, fc)]
        for z in near:
            z[1::2] = z[::2] + 1e-9
        far = 1e3 + 1e-3 * rng.normal(size=(10, 40, 20))
        far = far, *(1e3 + 1e-3 * rng.normal(size=(2, 10, 40, 20)))
        for hist, lab, fc in ((hist, lab, fc), near, far):
            reals = np.concatenate([hist, lab], axis=1)
            kernel = KernelSpec(family=family, sigma=median_bandwidth(reals))
            expected = mmd_squared(kernel, reals, np.concatenate([hist, fc], axis=1))
            result = mmd_squared(kernel, lab, fc, hist)
            np.testing.assert_allclose(result.value, expected.value, rtol=1e-10, atol=0)
            assert mmd_squared(kernel, lab, lab.copy(), hist).value == 0.0

    def test_shared_block_needs_paired_distance_samples(self):
        z = np.random.default_rng(42).normal(size=(5, 3, 2))
        with pytest.raises(ShapeError):
            mmd_squared(EXP, z, z[:4], z)
        with pytest.raises(ShapeError):
            mmd_squared(EXP, z, z + 1.0, z[:4])
        with pytest.raises(ShapeError):
            mmd_squared(EXP, z, z + 1.0, list(z[:4]))
        bad = z.copy()
        bad[2, 1, 0] = np.nan
        with pytest.raises(DomainError):
            mmd_squared(EXP, z, z + 1.0, bad)

    def test_shared_block_kernel_checked_before_history(self):
        # The family is checked first: a non-finite or misshaped history
        # still raises ConfigError for an inner-product kernel.
        z = np.random.default_rng(42).normal(size=(5, 3, 2))
        for history in (z, np.full_like(z, np.nan), z[:4]):
            with pytest.raises(ConfigError):
                mmd_squared(KernelSpec(family="linear"), z, z + 1.0, history)

    @staticmethod
    def median_cases():
        """(name, real sample, forecast sample, history) for the unresolved
        median: a list, a stack and a read-only window view."""
        rng = np.random.default_rng(43)
        hist, lab, fc = rng.normal(size=(3, 11, 4, 2))
        joints = data.joint_windows(np.cumsum(rng.normal(size=(70, 2)), axis=0), 10)
        view, fc_view = joints[:, 6:], rng.normal(size=(len(joints), 4, 2))
        for with_history in (False, True):
            yield "list", list(lab), list(fc), list(hist) if with_history else None
            yield "stack", lab, fc, hist if with_history else None
            yield "window view", view, fc_view, joints[:, :6] if with_history else None

    @pytest.mark.parametrize("family", ["exponential", "gaussian"])
    def test_unresolved_median_equals_resolved(self, family):
        for name, p, q, history in self.median_cases():
            before = [np.array(z) for z in (p, q, history)]
            shared = None if history is None else pair_sq_dists(history)
            resolved, _ = median_gram(KernelSpec(family=family), p, shared)
            want = mmd_squared(resolved, p, q, history)
            got = mmd_squared(KernelSpec(family=family), p, q, history)
            assert got == want, name
            for z, z_before in zip((p, q, history), before):
                np.testing.assert_array_equal(np.array(z), z_before)

    @pytest.mark.parametrize("family", ["exponential", "gaussian"])
    def test_unresolved_median_needs_two_real_points(self, family):
        joint = np.random.default_rng(44).normal(size=(2, 1))
        with pytest.raises(ConfigError, match="at least 2"):
            median_bandwidth([joint])
        with pytest.raises(ConfigError, match="at least 2"):
            median_gram(KernelSpec(family=family), [joint])

    @pytest.mark.parametrize("kernel", ALL_KERNELS + [KernelSpec(family="exponential"),
                                                      KernelSpec(family="gaussian")],
                             ids=lambda k: f"{k.family}-{k.sigma}")
    def test_real_side_gives_the_same_bits(self, kernel):
        # One real side serves several forecast samples, each with the bits
        # of its own call on the samples and history.
        for name, p, q, history in mmd_reference_cases():
            with refused_unless_distance(kernel):
                real = real_side(kernel, p, history)
                for fc in (q, np.asarray(q) + 0.1, p):
                    want = mmd_squared(kernel, p, fc, history)
                    assert mmd_squared(real.kernel, real, fc) == want, name

    def test_real_side_needs_its_kernel_and_no_history(self):
        z = np.random.default_rng(48).normal(size=(5, 3, 2))
        real = real_side(KernelSpec(family="exponential"), z, z)
        assert real.kernel.sigma != "median"
        for kernel, history in ((KernelSpec(family="exponential"), None), (real.kernel, z)):
            with pytest.raises(ConfigError, match="RealSide"):
                mmd_squared(kernel, real, z + 1.0, history)
        with pytest.raises(ShapeError):
            mmd_squared(real.kernel, real, z[:4] + 1.0)
        with pytest.raises(ConfigError):
            real_side(KernelSpec(family="linear"), z, z)

    @pytest.mark.parametrize("spec", ALL_KERNELS[2:], ids=lambda s: s.family)
    def test_inner_product_families_ignore_sigma(self, spec):
        # Refused at any sigma: they are not characteristic kernels.
        rng = np.random.default_rng(45)
        p, q = rng.normal(size=(2, 7, 3, 2))
        for sigma in ("median", 0.4, 9.0):
            with pytest.raises(ConfigError, match="distance kernel"):
                mmd_squared(replace(spec, sigma=sigma), p, q)


def three_gram_mmd(kernel, sample_p, sample_q, history=None):
    """The estimator with its three Grams alive together, in the order and
    arithmetic that `mmd_squared` keeps while it reduces one at a time."""
    p, q = np.asarray(sample_p, dtype=float), np.asarray(sample_q, dtype=float)
    n = len(p)
    shared = None if history is None else pair_sq_dists(history)
    kernel, g_pp = median_gram(kernel, p, shared)
    g_qq = gram_matrix(kernel, q, q, shared)
    g_pq = gram_matrix(kernel, p, q, shared)
    if np.array_equal(p, q):
        return 0.0
    off = (
        float(g_pp.sum()) - float(np.trace(g_pp))
        + float(g_qq.sum()) - float(np.trace(g_qq))
        - 2.0 * (float(g_pq.sum()) - float(np.trace(g_pq)))
    )
    return off / (n * (n - 1))


def mmd_reference_cases():
    """(name, p, q, history) as lists, stacks and window views, with and
    without a history."""
    rng = np.random.default_rng(46)
    joints = data.joint_windows(np.cumsum(rng.normal(size=(60, 2)), axis=0), 9)
    hist, lab = joints[:, :5], joints[:, 5:]
    fc = lab + 0.3 * rng.normal(size=lab.shape)
    stack_h, stack_p, stack_q = (z.copy() for z in (hist, lab, fc))
    for history in (None, "history"):
        pick = lambda h: None if history is None else h
        yield f"list {history}", list(lab), list(fc), pick(list(hist))
        yield f"stack {history}", stack_p, stack_q, pick(stack_h)
        yield f"window view {history}", lab, fc, pick(hist)
        yield f"coinciding {history}", lab, stack_p, pick(hist)


class TestMmdOneGramAtATime:
    @pytest.mark.parametrize("kernel", ALL_KERNELS + [KernelSpec(family="exponential"),
                                                      KernelSpec(family="gaussian")],
                             ids=lambda k: f"{k.family}-{k.sigma}")
    def test_equals_three_gram_reference(self, kernel):
        for name, p, q, history in mmd_reference_cases():
            with refused_unless_distance(kernel):
                got = mmd_squared(kernel, p, q, history).value
                assert got == three_gram_mmd(kernel, p, q, history), name
                if name.startswith("coinciding"):
                    assert got == 0.0, name

    @pytest.mark.parametrize("sample", ["stack", "list"])
    def test_peak_memory_is_about_two_grams(self, sample):
        # n = 512 paired samples that share a history block, with the
        # median bandwidth: the history statistic and one Gram stay alive,
        # plus the median's upper triangle, for at most 3 n^2 doubles.
        n = 512
        rng = np.random.default_rng(47)
        hist, lab = np.cumsum(rng.normal(size=(2, n, 6, 2)), axis=2)
        fc = lab + 0.1 * rng.normal(size=lab.shape)
        args = (lab, fc, hist) if sample == "stack" else (list(lab), list(fc), list(hist))
        mmd_squared(KernelSpec(family="exponential"), *args)
        tracemalloc.start()
        try:
            mmd_squared(KernelSpec(family="exponential"), *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 8


INNER_PRODUCT_KERNELS = [
    KernelSpec(family="linear"),
    KernelSpec(family="polynomial", degree=2),
    KernelSpec(family="sigmoid"),
]


class TestDistanceKernelsOnly:
    """Grams, their bandwidth and the MMD^2 refuse the inner-product
    families before any pair statistic is formed."""

    @pytest.mark.parametrize("history", [False, True], ids=["no history", "history"])
    @pytest.mark.parametrize("entry", ["gram_matrix", "median_gram", "real_side", "mmd_squared"])
    @pytest.mark.parametrize("kernel", INNER_PRODUCT_KERNELS, ids=lambda k: k.family)
    def test_refused_before_any_statistic(self, kernel, entry, history, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a pair statistic was formed")

        # balancing holds its own reference to pair_sq_dists.
        for module, name in ((kernels, "pair_sq_dists"), (balancing, "pair_sq_dists"),
                             (kernels, "_pairwise")):
            monkeypatch.setattr(module, name, forbidden)
        rng = np.random.default_rng(0)
        z, hist = rng.normal(size=(5, 3, 2)), rng.normal(size=(5, 4, 2))
        shared, block = (np.zeros((5, 5)), hist) if history else (None, None)
        calls = {
            "gram_matrix": lambda: kernels.gram_matrix(kernel, z, z + 1.0, shared),
            "median_gram": lambda: kernels.median_gram(kernel, z, shared),
            "real_side": lambda: real_side(kernel, z, block),
            "mmd_squared": lambda: mmd_squared(kernel, z, z + 1.0, block),
        }
        with pytest.raises(ConfigError, match="distance kernel"):
            calls[entry]()


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

    @pytest.mark.parametrize("k", [-1, 0, 2.0, 1.5, True, "1", None])
    def test_top_k_outside_positive_integers_rejected(self, k):
        with pytest.raises(ConfigError, match="top_k"):
            BalanceConfig(top_k=k, kernel=EXP)


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


def per_anchor_grads(cfg, hist, labels, fcs):
    """Reference gradient: one pass of a Python loop per selected anchor,
    with the scalar hinge subgradient, one coefficient vector and one set of
    explicit label differences per anchor.  Returns (total, grads, selected)."""
    x, y, f = (np.asarray(b, dtype=float) for b in (hist, labels, fcs))
    scores = informativeness_scores(cfg, x, y, f)
    selected = select_top_k(scores.deltas, cfg.top_k)
    slacks = [scalar_slack(float(scores.deltas[i]), cfg.margin_c, cfg.hinge_mode) for i in selected]
    err = f - y
    total = cfg.alpha * float(np.sum(slacks)) + (1.0 - cfg.alpha) * float(np.sum(err * err))
    grads = 2.0 * (1.0 - cfg.alpha) * err
    n = len(y)
    spec = cfg.kernel
    yf, ff, gf = y.reshape(n, -1), f.reshape(n, -1), grads.reshape(n, -1)
    size = x[0].size + yf.shape[1]
    for i in selected:
        w = cfg.alpha * scalar_subgradient(float(scores.deltas[i]), cfg.margin_c, cfg.hinge_mode)
        if w == 0.0:
            continue
        c = grad_coeffs(spec, scores.cross[:, i], scores.kernel[:, i], size)
        if cfg.anchor_mode == "forecast":
            gf[i] -= w * (c @ (yf - ff[i]) if spec.is_distance else c @ yf)
        else:
            c = w * c
            gf -= c[:, None] * (yf[i] - ff if spec.is_distance else yf[i])
    return total, grads, selected


class TestVectorisedStep:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(0, 4),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 11),
        st.sampled_from(ALL_KERNELS),
        st.sampled_from(["forecast", "real"]),
        st.sampled_from(HINGE_MODES),
        st.sampled_from([None, "plus", "minus"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_anchor_loop(self, n, h, t, d, k, kernel, anchor, hinge, kink, seed):
        # H=0 gives history-free joints; top_k > n is a trailing batch, which
        # the objective clamps; `kink` puts one selected delta exactly at +C
        # or -C.
        rng = np.random.default_rng(seed)
        hist, labels, fcs = (rng.normal(size=(n, m, d)) for m in (h, t, t))
        cfg = BalanceConfig(
            alpha=0.6, top_k=k, margin_c=0.01, kernel=kernel,
            anchor_mode=anchor, hinge_mode=hinge,
        )
        clamped = replace(cfg, top_k=min(k, n))
        if kink is not None:
            deltas = informativeness_scores(cfg, hist, labels, fcs).deltas
            picked = deltas[select_top_k(deltas, clamped.top_k)]
            picked = picked[picked > 0] if kink == "plus" else picked[picked < 0]
            if picked.size:
                cfg = replace(cfg, margin_c=abs(float(picked[0])))
                clamped = replace(clamped, margin_c=cfg.margin_c)
        total, grads, diag = make_objective("kmb_df", balance=cfg).loss_and_grad(
            hist, labels, fcs
        )
        want_total, want, want_sel = per_anchor_grads(clamped, hist, labels, fcs)
        assert [int(i) for i in diag.selected] == [int(i) for i in want_sel]
        assert grads.shape == want.shape == (n, t, d)
        np.testing.assert_allclose(total, want_total, rtol=1e-12)
        np.testing.assert_allclose(
            grads, want, rtol=1e-12, atol=1e-12 * max(float(np.abs(want).max()), 1e-300)
        )


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
                err_msg=kernel.family,
            )


class TestStackedInputs:
    @pytest.mark.parametrize("anchor", ["forecast", "real"])
    def test_lists_and_stacks_agree(self, anchor):
        rng = np.random.default_rng(21)
        hist, labels, fcs = random_batch(rng, n=6, h=4, t=3, d=2)
        for kernel in ALL_KERNELS:
            cfg = BalanceConfig(alpha=0.4, top_k=3, kernel=kernel, anchor_mode=anchor)
            objective = KmbDfObjective(config=cfg)
            total_l, grads_l, diag_l = objective.loss_and_grad(hist, labels, fcs)
            total_s, grads_s, diag_s = objective.loss_and_grad(
                np.stack(hist), np.stack(labels), np.stack(fcs)
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
                KmbDfObjective(config=cfg).loss_and_grad(*batch)
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
            KmbDfObjective(config=cfg).loss_and_grad(*batch)

    def test_mismatched_batches_raise(self):
        rng = np.random.default_rng(24)
        hist, labels, fcs = random_batch(rng, n=4)
        cfg = BalanceConfig(alpha=0.4, top_k=2, kernel=EXP)
        with pytest.raises(ShapeError):
            kmb_df_grad(cfg, hist[:3], labels, fcs)
        with pytest.raises(ShapeError):
            kmb_df_grad(cfg, hist, labels, [np.zeros((3, 2))] * 4)
        with pytest.raises(ShapeError):
            kmb_df_grad(cfg, [np.zeros((3, 1))] * 4, labels, fcs)
        with pytest.raises(ConfigError, match="top_k"):
            kmb_df_grad(replace(cfg, top_k=5), hist, labels, fcs)

    @pytest.mark.parametrize("kernel, scale", [
        (KernelSpec(family="exponential", sigma=1.0), 1e160),
        (KernelSpec(family="linear"), 1e160),
        (KernelSpec(family="sigmoid"), 1e160),
        (KernelSpec(family="polynomial", degree=2), 1e80),
    ], ids=["exponential", "linear", "sigmoid", "polynomial"])
    def test_overflowing_pair_statistics_raise(self, kernel, scale):
        # Finite inputs whose pair statistics overflow made a NaN total and
        # NaN deltas, with a gradient that had no penalty part.
        rng = np.random.default_rng(26)
        hist, labels, fcs = (scale * z for z in rng.normal(size=(3, 4, 3, 2)))
        cfg = BalanceConfig(alpha=0.4, top_k=2, kernel=kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert np.isfinite(hist).all() and np.isfinite(fcs).all()
            with pytest.raises(DomainError, match="non-finite objective"):
                kmb_df_grad(cfg, hist, labels, fcs)

    def test_nan_forecast_raises(self):
        rng = np.random.default_rng(25)
        hist, labels, fcs = random_batch(rng, n=4)
        fcs[1][0, 0] = np.nan
        for alpha, anchor in ((0.4, "forecast"), (0.4, "real"), (0.0, "forecast")):
            cfg = BalanceConfig(alpha=alpha, top_k=2, kernel=EXP, anchor_mode=anchor)
            with pytest.raises(DomainError):
                KmbDfObjective(config=cfg).loss_and_grad(hist, labels, fcs)
