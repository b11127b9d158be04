import numpy as np
import pytest

from kmbdf.balancing import BalanceConfig, kmb_df_grad
from kmbdf.checks import fd_forecast_grads
from kmbdf.errors import ConfigError, ShapeError
from kmbdf.kernels import KernelSpec
from kmbdf.objectives import FrequencyL1Objective, MseObjective, make_objective

EXP = KernelSpec(family="exponential", sigma=1.0)


def random_batch(rng, n=4, h=3, t=4, d=2):
    hist = [rng.normal(size=(h, d)) for _ in range(n)]
    labels = [rng.normal(size=(t, d)) for _ in range(n)]
    fcs = [rng.normal(size=(t, d)) for _ in range(n)]
    return hist, labels, fcs


def mse(labels, fcs):
    """MseObjective's loss and gradient; it ignores the histories."""
    loss, grad, diag = MseObjective().loss_and_grad(None, labels, fcs)
    assert diag is None
    return loss, grad


def freq_l1(labels, fcs, beta):
    """FrequencyL1Objective's loss and subgradient; it ignores the histories."""
    loss, grad, diag = FrequencyL1Objective(beta=beta).loss_and_grad(None, labels, fcs)
    assert diag is None
    return loss, grad


def reference_mse(labels, fcs):
    """The free-function formulas the objective replaced."""
    y, f = np.array(labels, dtype=float), np.array(fcs, dtype=float)
    err = f - y
    return float(np.sum(err * err)), 2.0 * (f - y)


def reference_freq_l1(labels, fcs, beta):
    """The free-function formulas the objective replaced: DFT matrices and
    their products built once for the loss and again for the gradient."""
    y, f = np.array(labels, dtype=float), np.array(fcs, dtype=float)
    t = y.shape[1]
    ang = -2.0 * np.pi * np.outer(np.arange(t), np.arange(t)) / t
    fr, fi = np.cos(ang), np.sin(ang)
    d = y - f
    freq_term = float(np.sum(np.abs(fr @ d)) + np.sum(np.abs(fi @ d)))
    loss = beta * freq_term + (1.0 - beta) * reference_mse(y, f)[0]
    gf = -(fr.T @ np.sign(fr @ d) + fi.T @ np.sign(fi @ d))
    return loss, beta * gf + (1.0 - beta) * 2.0 * (f - y)


# (N, T, D) of the README quick start and of the paper-scale benchmark.
SHAPES = [(32, 12, 2), (128, 96, 21)]


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()  # the signs of zeros too


class TestBitIdentity:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_mse_matches_reference(self, shape):
        rng = np.random.default_rng(30)
        labels, fcs = rng.normal(size=shape), rng.normal(size=shape)
        fcs[0] = labels[0]  # a zero error block
        for y, f in ((labels, fcs), (list(labels), list(fcs))):
            loss, grad = mse(y, f)
            want_loss, want_grad = reference_mse(y, f)
            assert loss == want_loss
            assert_same_bits(grad, want_grad)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 1.0])
    def test_freq_l1_matches_reference(self, shape, beta):
        rng = np.random.default_rng(31)
        labels, fcs = rng.normal(size=shape), rng.normal(size=shape)
        fcs[0] = labels[0]  # every DFT coefficient of the error is 0: sign(0)
        for y, f in ((labels, fcs), (list(labels), list(fcs))):
            loss, grad = freq_l1(y, f, beta)
            want_loss, want_grad = reference_freq_l1(y, f, beta)
            assert loss == want_loss
            assert_same_bits(grad, want_grad)


class TestMse:
    def test_zero_at_identity(self):
        y = [np.array([[1.0], [2.0]])]
        assert mse(y, [y[0].copy()])[0] == 0.0

    def test_hand_example(self):
        labels = [np.array([[1.0], [2.0]])]
        fcs = [np.array([[0.0], [0.0]])]
        assert mse(labels, fcs)[0] == 5.0

    def test_matches_balancing_at_alpha_zero(self):
        rng = np.random.default_rng(0)
        cfg = BalanceConfig(alpha=0.0, top_k=2, kernel=EXP)
        for _ in range(20):
            hist, labels, fcs = random_batch(rng)
            total = kmb_df_grad(cfg, hist, labels, fcs)[1].total
            assert total == pytest.approx(mse(labels, fcs)[0], rel=1e-12)

    def test_grad_zero_at_identity(self):
        y = [np.ones((2, 2))]
        _, g = mse(y, [y[0].copy()])
        np.testing.assert_array_equal(g[0], np.zeros((2, 2)))

    def test_grad_hand_example(self):
        _, g = mse([np.array([[1.0]])], [np.array([[3.0]])])
        np.testing.assert_array_equal(g[0], [[4.0]])

    def test_grad_finite_difference(self):
        rng = np.random.default_rng(1)
        _, labels, fcs = random_batch(rng)
        _, grads = mse(labels, fcs)
        numeric = fd_forecast_grads(lambda b: mse(labels, b)[0], fcs, eps=1e-7)
        assert grads.shape == numeric.shape
        assert grads == pytest.approx(numeric, rel=1e-6, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse([np.zeros((2, 1))], [np.zeros((3, 1))])

    def test_empty_batch(self):
        with pytest.raises(ShapeError):
            mse([], [])


class TestFrequencyL1:
    def test_zero_at_identity(self):
        rng = np.random.default_rng(2)
        y = [rng.normal(size=(5, 2))]
        assert freq_l1(y, [y[0].copy()], beta=0.7)[0] == pytest.approx(0.0)

    def test_beta_zero_is_mse(self):
        rng = np.random.default_rng(3)
        _, labels, fcs = random_batch(rng)
        assert freq_l1(labels, fcs, beta=0.0)[0] == pytest.approx(mse(labels, fcs)[0])

    def test_hand_dft_example(self):
        labels = [np.array([[1.0], [1.0]])]
        fcs = [np.array([[0.0], [0.0]])]
        # DFT(y) = [2, 0], DFT(yhat) = [0, 0]: L1 over parts = 2.
        assert freq_l1(labels, fcs, beta=1.0)[0] == pytest.approx(2.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            _, labels, fcs = random_batch(rng)
            assert freq_l1(labels, fcs, beta=0.5)[0] >= 0.0

    def test_grad_finite_difference(self):
        rng = np.random.default_rng(5)
        checked = 0
        trials = 0
        while checked < 5 and trials < 50:
            trials += 1
            _, labels, fcs = random_batch(rng, n=2, t=3, d=1)
            from kmbdf.objectives import _dft_matrices

            fr, fi = _dft_matrices(3)
            # Skip instances where an FD step could cross an L1 kink.  Rows of
            # the sine matrix that are identically zero produce coefficients
            # pinned at 0 for every input and never cross a kink, so they are
            # excluded from the proximity check.
            live = np.concatenate(
                [fr[np.abs(fr).sum(axis=1) > 1e-12], fi[np.abs(fi).sum(axis=1) > 1e-12]]
            )
            near_kink = any(
                np.min(np.abs(live @ (y - f))) < 1e-7 for y, f in zip(labels, fcs)
            )
            if near_kink:
                continue
            checked += 1
            _, grads = freq_l1(labels, fcs, beta=0.5)
            numeric = fd_forecast_grads(lambda b: freq_l1(labels, b, 0.5)[0], fcs, eps=1e-8)
            assert grads.shape == numeric.shape
            assert grads == pytest.approx(numeric, rel=1e-5, abs=1e-6)
        assert checked == 5

    def test_dft_pair_cached_read_only(self):
        from kmbdf.objectives import _dft_matrices

        fr, fi = _dft_matrices(7)
        again = _dft_matrices(7)
        assert again[0] is fr and again[1] is fi
        assert not fr.flags.writeable and not fi.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fr[0, 0] = 2.0
        # Only the last T is kept; a rebuilt pair has the same bits.
        _dft_matrices(5)
        rebuilt = _dft_matrices(7)
        assert rebuilt[0] is not fr
        assert rebuilt[0].tobytes() == fr.tobytes() and rebuilt[1].tobytes() == fi.tobytes()

    def test_bad_beta(self):
        for beta in (1.5, -0.1):
            with pytest.raises(ConfigError, match="beta"):
                FrequencyL1Objective(beta=beta)


class TestMakeObjective:
    def test_kinds(self):
        assert make_objective("mse").kind == "mse"
        assert make_objective("freq_l1", beta=0.3).beta == 0.3
        cfg = BalanceConfig(kernel=EXP)
        assert make_objective("kmb_df", balance=cfg).config is cfg

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_objective("dtw")

    def test_kmb_df_requires_config(self):
        with pytest.raises(ConfigError):
            make_objective("kmb_df")

    def test_partial_batch_clamps_top_k(self):
        rng = np.random.default_rng(6)
        cfg = BalanceConfig(alpha=0.5, top_k=5, kernel=EXP)
        obj = make_objective("kmb_df", balance=cfg)
        hist = [rng.normal(size=(3, 1)) for _ in range(2)]
        labels = [rng.normal(size=(2, 1)) for _ in range(2)]
        fcs = [rng.normal(size=(2, 1)) for _ in range(2)]
        loss, grads, diag = obj.loss_and_grad(hist, labels, fcs)
        assert np.isfinite(loss)
        assert len(diag.selected) == 2
