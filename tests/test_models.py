import copy
import pickle

import numpy as np
import pytest

from kmbdf.errors import ConfigError, DataError, ShapeError
from kmbdf.models import (
    LinearForecaster,
    adam_init,
    adam_step,
    backward_batch,
    forward_batch,
    init_forecaster,
    load_forecaster,
    save_forecaster,
)
from kmbdf.objectives import MseObjective


def forward(model, x):
    """Reference forecast of one history matrix: Yhat[:, d] = W @ X[:, d] + bias."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.history_len, model.channels):
        raise ShapeError(f"input shape {x.shape} != ({model.history_len}, {model.channels})")
    return model.weight @ x + model.bias[:, None]


def backward(model, x, grad_out):
    """Reference parameter gradients of one sample given d loss / d forecast."""
    grad_out = np.asarray(grad_out, dtype=float)
    return grad_out @ np.asarray(x, dtype=float).T, grad_out.sum(axis=1)


def per_key_adam(state, params, grads):
    """Reference Adam: one bias-corrected update per parameter array, with
    its moments kept per key in `state` (a dict with lr, betas, eps, t)."""
    state["t"] += 1
    out = {}
    for k, p in params.items():
        g = grads[k]
        state["m"][k] = state["beta1"] * state["m"][k] + (1.0 - state["beta1"]) * g
        state["v"][k] = state["beta2"] * state["v"][k] + (1.0 - state["beta2"]) * g * g
        m_hat = state["m"][k] / (1.0 - state["beta1"] ** state["t"])
        v_hat = state["v"][k] / (1.0 - state["beta2"] ** state["t"])
        out[k] = p - state["lr"] * m_hat / (np.sqrt(v_hat) + state["eps"])
    return out


class TestLinearForecaster:
    @pytest.mark.parametrize("weight, bias, error", [
        (np.zeros((3, 2)), np.zeros(3), ShapeError),
        (np.zeros((3, 4)), np.zeros(4), ShapeError),
        (np.full((3, 4), np.nan), np.zeros(3), ConfigError),
        (np.zeros((3, 4)), np.array([0.0, np.inf, 0.0]), ConfigError),
    ], ids=["weight-shape", "bias-shape", "nan-weight", "inf-bias"])
    def test_parameters_checked(self, weight, bias, error):
        with pytest.raises(error):
            LinearForecaster(weight, bias, history_len=4, horizon=3, channels=2)


class TestForward:
    def test_zero_model(self):
        m = LinearForecaster(np.zeros((2, 3)), np.zeros(2), 3, 2, 1)
        np.testing.assert_array_equal(forward_batch(m, np.ones((1, 3, 1)))[0], np.zeros((2, 1)))

    def test_persistence(self):
        m = LinearForecaster(np.eye(3), np.zeros(3), 3, 3, 2)
        x = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(forward_batch(m, x[None])[0], x)

    def test_matches_hand_matmul(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        x = rng.normal(size=(2, 2))
        m = LinearForecaster(w, b, 2, 2, 2)
        expected = np.empty((2, 2))
        for t in range(2):
            for d in range(2):
                expected[t, d] = sum(w[t, h] * x[h, d] for h in range(2)) + b[t]
        np.testing.assert_allclose(forward_batch(m, x[None])[0], expected)

    def test_linearity_without_bias(self):
        rng = np.random.default_rng(1)
        m = LinearForecaster(rng.normal(size=(3, 4)), np.zeros(3), 4, 3, 2)
        x1 = rng.normal(size=(4, 2))
        x2 = rng.normal(size=(4, 2))
        lhs = forward_batch(m, (2.0 * x1 + 3.0 * x2)[None])
        rhs = 2.0 * forward_batch(m, x1[None]) + 3.0 * forward_batch(m, x2[None])
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        m = init_forecaster(4, 3, 2, seed=0)
        xs = rng.normal(size=(5, 4, 2))
        batched = forward_batch(m, xs)
        for i in range(5):
            np.testing.assert_allclose(batched[i], forward(m, xs[i]), rtol=1e-12)

    def test_shape_mismatch(self):
        m = init_forecaster(4, 3, 2, seed=0)
        with pytest.raises(ShapeError):
            forward_batch(m, np.zeros((1, 5, 2)))

    def test_inputs_unmodified_and_bias_added_exactly(self):
        rng = np.random.default_rng(3)
        m = LinearForecaster(rng.normal(size=(3, 4)), rng.normal(size=3), 4, 3, 2)
        weight, bias = m.weight.copy(), m.bias.copy()
        xs = rng.normal(size=(6, 4, 2))
        xs.flags.writeable = False
        out = forward_batch(m, xs)
        np.testing.assert_array_equal(out, np.matmul(weight, xs) + bias[None, :, None])
        np.testing.assert_array_equal(m.weight, weight)
        np.testing.assert_array_equal(m.bias, bias)
        assert not np.shares_memory(out, xs)


class TestBackward:
    def test_zero_grad_out(self):
        m = init_forecaster(3, 2, 1, seed=0)
        gw, gb = backward_batch(m, np.ones((1, 3, 1)), np.zeros((1, 2, 1)))
        np.testing.assert_array_equal(gw, np.zeros((2, 3)))
        np.testing.assert_array_equal(gb, np.zeros(2))

    def test_scalar_chain_rule(self):
        m = LinearForecaster(np.zeros((1, 1)), np.zeros(1), 1, 1, 1)
        gw, gb = backward_batch(m, np.array([[[2.0]]]), np.array([[[3.0]]]))
        assert gw[0, 0] == 6.0
        assert gb[0] == 3.0

    def test_batch_matches_sum_of_singles(self):
        rng = np.random.default_rng(3)
        m = init_forecaster(3, 2, 2, seed=1)
        xs = rng.normal(size=(4, 3, 2))
        gouts = rng.normal(size=(4, 2, 2))
        gw, gb = backward_batch(m, xs, gouts)
        gw_ref = sum(backward(m, xs[i], gouts[i])[0] for i in range(4))
        gb_ref = sum(backward(m, xs[i], gouts[i])[1] for i in range(4))
        np.testing.assert_allclose(gw, gw_ref, rtol=1e-12)
        np.testing.assert_allclose(gb, gb_ref, rtol=1e-12)

    def test_mismatched_batches_raise(self):
        m = init_forecaster(3, 2, 2, seed=1)
        with pytest.raises(ShapeError):
            backward_batch(m, np.zeros((4, 3, 2)), np.zeros((3, 2, 2)))
        with pytest.raises(ShapeError):
            backward_batch(m, np.zeros((4, 3, 2)), np.zeros((4, 2, 1)))

    def test_end_to_end_finite_difference(self):
        rng = np.random.default_rng(4)
        m = init_forecaster(3, 2, 2, seed=2)
        xs = rng.normal(size=(3, 3, 2))
        ys = rng.normal(size=(3, 2, 2))

        def loss_of(weight, bias):
            mm = LinearForecaster(weight, bias, 3, 2, 2)
            preds = forward_batch(mm, xs)
            return MseObjective().loss_and_grad(xs, list(ys), list(preds))[0]

        preds = forward_batch(m, xs)
        gouts = MseObjective().loss_and_grad(xs, list(ys), list(preds))[1]
        gw, gb = backward_batch(m, xs, gouts)
        eps = 1e-6
        for idx in np.ndindex(m.weight.shape):
            hi = m.weight.copy()
            hi[idx] += eps
            lo = m.weight.copy()
            lo[idx] -= eps
            num = (loss_of(hi, m.bias) - loss_of(lo, m.bias)) / (2 * eps)
            assert gw[idx] == pytest.approx(num, rel=1e-6, abs=1e-8)
        for t in range(2):
            hi = m.bias.copy()
            hi[t] += eps
            lo = m.bias.copy()
            lo[t] -= eps
            num = (loss_of(m.weight, hi) - loss_of(m.weight, lo)) / (2 * eps)
            assert gb[t] == pytest.approx(num, rel=1e-6, abs=1e-8)


class TestAdam:
    @pytest.mark.parametrize("lr", [0.0, -1e-3, np.nan, np.inf])
    def test_non_positive_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="lr must be > 0"):
            adam_init({"w": np.zeros(2)}, lr=lr)

    def test_zero_gradient_no_move(self):
        params = {"w": np.array([1.0, 2.0])}
        state = adam_init(params, lr=0.1)
        out = adam_step(state, params, {"w": np.zeros(2)})
        np.testing.assert_array_equal(out["w"], params["w"])
        assert state.t == 1

    def test_first_step_magnitude(self):
        params = {"w": np.array([0.0])}
        state = adam_init(params, lr=0.1)
        out = adam_step(state, params, {"w": np.array([1.0])})
        # Bias correction makes m_hat / sqrt(v_hat) ~ 1 on the first step.
        assert out["w"][0] == pytest.approx(-0.1, rel=1e-6)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(5)
            params = {"w": np.zeros((2, 2))}
            state = adam_init(params, lr=0.01)
            for _ in range(100):
                g = rng.normal(size=(2, 2))
                params = adam_step(state, params, {"w": g})
            return params["w"]

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()

    def test_finite_after_many_steps(self):
        rng = np.random.default_rng(6)
        params = {"w": np.zeros(4)}
        state = adam_init(params, lr=5e-3)
        for _ in range(1000):
            params = adam_step(state, params, {"w": rng.normal(size=4)})
        assert np.isfinite(params["w"]).all()

    def test_shape_mismatch(self):
        # A misshaped gradient or parameter of "b", checked after "a", raises
        # before any moment or the step count moves.
        rng = np.random.default_rng(9)
        params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)}
        state = adam_init(params, lr=0.1)
        for _ in range(3):
            params = adam_step(state, params, {k: rng.normal(size=p.shape)
                                               for k, p in params.items()})
        before = {k: (state.m[k].copy(), state.v[k].copy()) for k in params}
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        for bad_params, bad_grads in [(params, {**grads, "b": np.zeros(5)}),
                                      ({**params, "b": np.zeros(5)}, grads)]:
            with pytest.raises(ShapeError, match="'b'"):
                adam_step(state, bad_params, bad_grads)
            assert state.t == 3
            for k, (m, v) in before.items():
                assert state.m[k].tobytes() == m.tobytes()
                assert state.v[k].tobytes() == v.tobytes()

    def test_matches_per_key_reference_bitwise(self):
        rng = np.random.default_rng(7)
        params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5), "c": np.array(0.5)}
        state = adam_init(params, lr=3e-3)
        ref_state = {
            "lr": 3e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "t": 0,
            "m": {k: np.zeros_like(p) for k, p in params.items()},
            "v": {k: np.zeros_like(p) for k, p in params.items()},
        }
        ref = params
        for step in range(200):
            # Mixed scales and exact zeros exercise every rounding path.
            grads = {
                k: rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3)
                for k, p in params.items()
            }
            grads["b"][step % 5] = 0.0
            params = adam_step(state, params, grads)
            ref = per_key_adam(ref_state, ref, grads)
            for k in params:
                assert params[k].shape == ref[k].shape
                assert params[k].tobytes() == ref[k].tobytes(), (step, k)
        assert state.t == ref_state["t"] == 200

    def test_set_params_does_not_alias(self):
        # The training loop keeps copies of the best parameters and restores
        # them with set_params: no later update may write into them.
        rng = np.random.default_rng(8)
        m = init_forecaster(4, 3, 2, seed=4)
        params = m.params()
        state = adam_init(params, lr=1e-2)
        best = {k: v.copy() for k, v in params.items()}
        before = {k: v.copy() for k, v in best.items()}
        for step in range(4):
            if step == 2:
                m.set_params(best)
                params = m.params()
            grads = {"weight": rng.normal(size=(3, 4)), "bias": rng.normal(size=3)}
            new = adam_step(state, params, grads)
            for k, p in new.items():
                for other in (params[k], grads[k], best[k], state.m[k], state.v[k]):
                    assert not np.shares_memory(p, other)
            params = new
            m.set_params(params)
        for k in best:
            np.testing.assert_array_equal(best[k], before[k])
        assert not np.array_equal(m.weight, before["weight"])


class TestInPlacePath:
    """The training loop's path: adam_step updates the model's own vector
    from its `grad` vector, which backward_batch fills."""

    def test_adam_matches_per_key_reference_bitwise(self):
        rng = np.random.default_rng(10)
        model = init_forecaster(5, 3, 2, seed=3)
        params, grad, weight = model.params(), model.grad, model.weight
        state = adam_init(params, lr=3e-3)
        ref_state = {
            "lr": 3e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "t": 0,
            "m": {k: np.zeros_like(p) for k, p in params.items()},
            "v": {k: np.zeros_like(p) for k, p in params.items()},
        }
        ref = {k: p.copy() for k, p in params.items()}
        for step in range(200):
            # Mixed scales and exact zeros exercise every rounding path.
            for g in grad.values():
                g[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-6, 3)
            grad["bias"][step % 3] = 0.0
            grad["weight"][step % 3, step % 5] = 0.0
            assert adam_step(state, params, grad) is params
            ref = per_key_adam(ref_state, ref, {k: g.copy() for k, g in grad.items()})
            for k in ref:
                assert params[k].tobytes() == ref[k].tobytes(), (step, k)
                assert state.m[k].tobytes() == ref_state["m"][k].tobytes(), (step, k)
                assert state.v[k].tobytes() == ref_state["v"][k].tobytes(), (step, k)
        assert state.t == ref_state["t"] == 200
        assert model.weight is weight and model.params() is params
        np.testing.assert_array_equal(model.weight, ref["weight"])

    @pytest.mark.parametrize("n, h, t, d", [(32, 24, 12, 2), (128, 96, 96, 21)],
                             ids=["desk", "paper"])
    def test_backward_writes_the_plain_products(self, n, h, t, d):
        rng = np.random.default_rng(11)
        model = init_forecaster(h, t, d, seed=0)
        xs, gouts = rng.normal(size=(n, h, d)), rng.normal(size=(n, t, d))
        gw, gb = backward_batch(model, xs, gouts)
        g = gouts.transpose(1, 0, 2).reshape(t, -1)
        x = xs.transpose(0, 2, 1).reshape(-1, h)
        assert gw.tobytes() == (g @ x).tobytes()
        assert gb.tobytes() == gouts.sum(axis=(0, 2)).tobytes()
        assert gw.base is gb.base is model.grad.flat

    def test_misshaped_set_params_changes_nothing(self):
        model = init_forecaster(4, 3, 2, seed=5)
        before = model.params().flat.copy()
        for bad in ({"weight": np.ones((3, 4)), "bias": np.ones(4)},
                    {"weight": np.ones((4, 3)), "bias": np.ones(3)}):
            with pytest.raises(ShapeError):
                model.set_params(bad)
            assert model.params().flat.tobytes() == before.tobytes()

    def test_restored_best_copy_survives_later_steps(self):
        rng = np.random.default_rng(12)
        model = init_forecaster(4, 3, 2, seed=6)
        params, grad = model.params(), model.grad
        state = adam_init(params, lr=1e-2)

        def step():
            for g in grad.values():
                g[...] = rng.normal(size=g.shape)
            adam_step(state, params, grad)

        step()
        best = {k: p.copy() for k, p in params.items()}
        kept = {k: p.copy() for k, p in best.items()}
        step()
        model.set_params(best)
        np.testing.assert_array_equal(model.weight, kept["weight"])
        step()
        for k, p in best.items():
            assert p.tobytes() == kept[k].tobytes()
            assert not np.shares_memory(p, params.flat)
        assert not np.array_equal(model.weight, kept["weight"])

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["deepcopy", "pickle"])
    def test_copy_keeps_its_views(self, clone):
        rng = np.random.default_rng(13)
        model = init_forecaster(4, 3, 2, seed=7)
        twin = clone(model)
        for k in ("weight", "bias"):
            assert np.shares_memory(getattr(twin, k), twin.params().flat)
            assert not np.shares_memory(getattr(twin, k), model.params().flat)
            assert getattr(twin, k).tobytes() == getattr(model, k).tobytes()
        xs = rng.normal(size=(5, 4, 2))
        before = forward_batch(model, xs)
        backward_batch(twin, xs, rng.normal(size=(5, 3, 2)))
        adam_step(adam_init(twin.params(), lr=0.1), twin.params(), twin.grad)
        assert not np.array_equal(forward_batch(twin, xs), before)
        assert forward_batch(model, xs).tobytes() == before.tobytes()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        m = init_forecaster(4, 3, 2, seed=7)
        path = tmp_path / "ckpt.json"
        save_forecaster(m, path)
        loaded = load_forecaster(path)
        np.testing.assert_array_equal(loaded.weight, m.weight)
        np.testing.assert_array_equal(loaded.bias, m.bias)
        assert (loaded.history_len, loaded.horizon, loaded.channels) == (4, 3, 2)

    @pytest.mark.parametrize("content", [
        b"{not json", b"\xff\xfe", b"[1, 2]", b'{"version": 1}',
        b'{"version": 1, "H": 2, "T": 1, "D": 1, "weight": [["x", 0]], "bias": [0]}',
        b'{"version": 1, "H": 3, "T": 1, "D": 1, "weight": [[0, 0]], "bias": [0]}',
        b'{"version": 1, "H": 2, "T": 1, "D": 1, "weight": [[0, 0]], "bias": [0, 0]}',
        b'{"version": 1, "H": 2, "T": 1, "D": 1, "weight": [[NaN, 0]], "bias": [0]}',
        b'{"version": 2, "H": 2, "T": 1, "D": 1, "weight": [[0, 0]], "bias": [0]}',
        b'{"version": true, "H": 2, "T": 1, "D": 1, "weight": [[0, 0]], "bias": [0]}',
        b'{"version": 1, "H": 2.9, "T": 1, "D": 1, "weight": [[0, 0]], "bias": [0]}',
        b'{"version": 1, "H": 2, "T": 1, "D": true, "weight": [[0, 0]], "bias": [0]}',
    ], ids=["not-json", "not-utf8", "list", "no-weight", "text-weight", "weight-shape",
            "bias-shape", "nan-weight", "version", "bool-version", "float-dim", "bool-dim"])
    def test_malformed_file_raises_data_error(self, tmp_path, content):
        path = tmp_path / "ckpt.json"
        path.write_bytes(content)
        with pytest.raises(DataError) as exc:
            load_forecaster(path)
        assert str(path) in str(exc.value)

    def test_init_seeded(self):
        a = init_forecaster(4, 3, 2, seed=9)
        b = init_forecaster(4, 3, 2, seed=9)
        np.testing.assert_array_equal(a.weight, b.weight)
        assert np.all(np.abs(a.weight) <= 1.0 / np.sqrt(4))
        np.testing.assert_array_equal(a.bias, np.zeros(3))
