import numpy as np
import pytest

from kmbdf.data import (
    AR_BURN_IN,
    AR_SCALAR_CHANNELS,
    SplitSpec,
    SyntheticSpec,
    WindowPair,
    Windows,
    generate,
    joint_windows,
    load_csv,
    split_ranges,
    standardize,
    window,
)
from kmbdf.errors import ConfigError, DataError, ShapeError


def lag1_autocorr(x):
    x = x - x.mean()
    return float(np.sum(x[1:] * x[:-1]) / np.sum(x * x))


def reference_ar(spec):
    """The AR recursion `generate` replaced: a zero buffer, one accumulator
    copy per row and its write-back, and white noise returned directly."""
    rng = np.random.default_rng(spec.seed)
    phi = np.asarray(spec.coeffs, dtype=float)
    p = phi.size
    total = spec.length + AR_BURN_IN
    noise = rng.normal(0.0, spec.noise_std, size=(total, spec.channels))
    if p == 0:
        return noise[AR_BURN_IN:]
    out = np.zeros((total, spec.channels))
    for t in range(total):
        acc = noise[t].copy()
        for i in range(min(p, t)):
            acc += phi[i] * out[t - 1 - i]
        out[t] = acc
    return out[AR_BURN_IN:]


class TestGenerate:
    # Both recursion forms: per channel below AR_SCALAR_CHANNELS, per row from it.
    @pytest.mark.parametrize("coeffs", [(), (0.9,), (0.5, -0.3, 0.2)])
    @pytest.mark.parametrize(
        "channels", [1, 3, AR_SCALAR_CHANNELS - 1, AR_SCALAR_CHANNELS, AR_SCALAR_CHANNELS + 1, 21]
    )
    def test_ar_bytes_match_reference(self, coeffs, channels):
        spec = SyntheticSpec(
            kind="ar", length=600, channels=channels, seed=12, coeffs=coeffs, noise_std=1.3
        )
        got, want = generate(spec), reference_ar(spec)
        assert got.dtype == want.dtype and got.shape == want.shape == (600, channels)
        assert got.tobytes() == want.tobytes()

    def test_white_noise_is_the_drawn_noise(self):
        spec = SyntheticSpec(kind="ar", length=500, channels=2, seed=4, coeffs=(), noise_std=0.7)
        noise = np.random.default_rng(4).normal(0.0, 0.7, size=(500 + AR_BURN_IN, 2))
        assert generate(spec).tobytes() == noise[AR_BURN_IN:].tobytes()

    def test_white_noise_autocorrelation(self):
        spec = SyntheticSpec(kind="ar", length=10000, coeffs=(), seed=0)
        series = generate(spec)
        assert abs(lag1_autocorr(series[:, 0])) < 0.05

    def test_ar1_autocorrelation(self):
        spec = SyntheticSpec(kind="ar", length=10000, coeffs=(0.8,), seed=1)
        series = generate(spec)
        assert 0.75 <= lag1_autocorr(series[:, 0]) <= 0.85

    def test_deterministic(self):
        spec = SyntheticSpec(kind="ar", length=500, channels=3, seed=7)
        np.testing.assert_array_equal(generate(spec), generate(spec))

    def test_seed_changes_output(self):
        a = generate(SyntheticSpec(length=100, seed=0))
        b = generate(SyntheticSpec(length=100, seed=1))
        assert not np.array_equal(a, b)

    def test_shape(self):
        series = generate(SyntheticSpec(length=321, channels=4))
        assert series.shape == (321, 4)

    def test_nonstationary_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(kind="ar", coeffs=(1.0,))
        with pytest.raises(ConfigError):
            SyntheticSpec(kind="ar", coeffs=(0.6, 0.6))

    def test_seasonal_trend_period(self):
        spec = SyntheticSpec(
            kind="seasonal_trend", length=240, period=24, amplitude=5.0,
            noise_std=0.0, seed=0,
        )
        series = generate(spec)
        np.testing.assert_allclose(series[:24, 0], series[24:48, 0], atol=1e-12)
        assert series[:, 0].max() == pytest.approx(5.0, rel=1e-6)

    def test_seasonal_trend_slope(self):
        spec = SyntheticSpec(
            kind="seasonal_trend", length=48, period=24, amplitude=0.0,
            slope=2.0, noise_std=0.0,
        )
        series = generate(spec)
        np.testing.assert_allclose(series[:, 0], 2.0 * np.arange(48), atol=1e-9)


class TestLoadCsv:
    def test_small_fixture(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text(
            "date,a,b\n"
            "2020-01-01,1.0,2.0\n"
            "2020-01-02,3.0,4.0\n"
            "2020-01-03,5.0,6.0\n"
        )
        got = load_csv(p)
        np.testing.assert_array_equal(got, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_no_date_column(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        got = load_csv(p, date_column=False)
        np.testing.assert_array_equal(got, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(p)

    def test_no_value_columns(self, tmp_path):
        p = tmp_path / "dates.csv"
        p.write_text("date\n2020-01-01\n2020-01-02\n")
        with pytest.raises(DataError, match="dates.csv: no value columns"):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("date,a\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p)

    def test_nan_cell_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,3.0,NaN\n")
        with pytest.raises(DataError, match=r"row 3, column 3"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e999"])
    def test_infinite_cell_located(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,{cell},4.0\n")
        with pytest.raises(DataError, match=rf"non-finite value '{cell}' at row 3, column 2"):
            load_csv(p)

    def test_unparseable_cell_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,a,b\n2020-01-01,oops,2.0\n")
        with pytest.raises(DataError, match=r"row 2, column 2"):
            load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,3.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,\xff\xfe,3.0\n")
        with pytest.raises(DataError, match="latin.csv: not UTF-8"):
            load_csv(p)


class TestStandardize:
    def test_train_stats_oracle(self):
        rng = np.random.default_rng(0)
        series = rng.normal(3.0, 2.0, size=(100, 3))
        out, stats = standardize(series, train_rows=70)
        np.testing.assert_allclose(stats.mean, series[:70].mean(axis=0))
        np.testing.assert_allclose(stats.std, series[:70].std(axis=0))
        np.testing.assert_allclose(out[:70].mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out[:70].std(axis=0), 1.0, atol=1e-12)

    def test_only_train_rows_used(self):
        rng = np.random.default_rng(1)
        series = rng.normal(size=(50, 2))
        _, stats_a = standardize(series, train_rows=30)
        tail_changed = series.copy()
        tail_changed[30:] += 100.0
        _, stats_b = standardize(tail_changed, train_rows=30)
        np.testing.assert_array_equal(stats_a.mean, stats_b.mean)
        np.testing.assert_array_equal(stats_a.std, stats_b.std)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        series = rng.normal(5.0, 0.3, size=(40, 2))
        out, stats = standardize(series, train_rows=30)
        np.testing.assert_allclose(stats.invert(out), series, atol=1e-9)

    def test_constant_channel_flagged(self):
        series = np.column_stack([np.full(20, 7.0), np.arange(20.0)])
        out, stats = standardize(series, train_rows=15)
        assert stats.constant_channels == [0]
        np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ConfigError):
            standardize(np.zeros((10, 1)), train_rows=1)

    @pytest.mark.parametrize("column", [
        # One row at +1e308 and one at -1e308: the std overflows to inf and
        # would scale the channel to all zeros.
        [1.0, 1e308, -1e308] + [0.5] * 17,
        # Every row at +-1e308: the mean overflows too.
        [1e308] * 20,
        [1e308, 1e308, -1e308, 1e308] * 5,
        # Finite statistics, but a later row scales past the float range.
        [0.001 * i for i in range(19)] + [1e308],
    ], ids=["std", "mean", "mixed-signs", "scaled"])
    def test_overflowing_channel_rejected(self, column):
        # Any RuntimeWarning fails the suite, so none may escape either.
        series = np.column_stack([np.arange(20.0), column])
        with pytest.raises(DataError, match="channel 1"):
            standardize(series, train_rows=15)


class TestWindow:
    def test_exact_fit_single_window(self):
        series = np.arange(10.0)[:, None]
        pairs = window(series, history_len=6, horizon=4)
        assert len(pairs) == 1
        np.testing.assert_array_equal(pairs[0].history[:, 0], np.arange(6.0))
        np.testing.assert_array_equal(pairs[0].label[:, 0], np.arange(6.0, 10.0))

    def test_count_small(self):
        series = np.zeros((100, 1))
        assert len(window(series, 96, 1)) == 4

    def test_count_large(self):
        series = np.zeros((8640, 1))
        assert len(window(series, 96, 96)) == 8449

    def test_contiguity(self):
        series = np.arange(30.0)[:, None]
        for i, (h, y) in enumerate(window(series, 5, 3)):
            np.testing.assert_array_equal(h[:, 0], np.arange(i, i + 5.0))
            np.testing.assert_array_equal(y[:, 0], np.arange(i + 5.0, i + 8.0))

    def test_rows_range(self):
        series = np.arange(50.0)[:, None]
        pairs = window(series, 4, 2, rows_range=(10, 20))
        assert len(pairs) == 5
        assert pairs[0].history[0, 0] == 10.0
        assert pairs[-1].label[-1, 0] == 19.0

    def test_too_short(self):
        with pytest.raises(ShapeError):
            window(np.zeros((5, 1)), history_len=4, horizon=2)

    @staticmethod
    def joints_and_windows():
        """33 joint windows of 8 rows and their (5-row history, label) pairs."""
        series = np.random.default_rng(0).normal(size=(40, 2))
        return joint_windows(series, 8), window(series, 5, 3)

    @pytest.mark.parametrize("i", [0, 7, -1, -32, np.int64(4), np.intp(-2), np.uint8(32)])
    def test_integer_index_reads_that_joint_row(self, i):
        joints, pairs = self.joints_and_windows()
        pair = pairs[i]
        assert isinstance(pair, WindowPair)
        assert pair.history.tobytes() == joints[int(i), :5].tobytes()
        assert pair.label.tobytes() == joints[int(i), 5:].tobytes()
        assert np.shares_memory(pair.history, joints) and np.shares_memory(pair.label, joints)

    def test_slice_is_windows_sharing_the_joint_view(self):
        joints, pairs = self.joints_and_windows()
        part = pairs[3:20:4]
        assert isinstance(part, Windows)
        assert np.shares_memory(part.joints, joints)
        assert len(part) == len(range(3, 20, 4)) == 5
        assert part[-1].history.tobytes() == pairs[19].history.tobytes()
        assert len(pairs[100:]) == 0

    @pytest.mark.parametrize("i", [33, -34, 10**20])
    def test_out_of_range_index_raises_index_error(self, i):
        _, pairs = self.joints_and_windows()
        assert len(pairs) == 33
        with pytest.raises(IndexError):
            pairs[i]

    @pytest.mark.parametrize("i", [1.0, np.float64(2.0), [1, 2], None])
    def test_float_or_list_index_raises_type_error(self, i):
        _, pairs = self.joints_and_windows()
        with pytest.raises(TypeError):
            pairs[i]

    def test_iteration_yields_the_joint_blocks_byte_for_byte(self):
        joints, pairs = self.joints_and_windows()
        want = list(zip(joints[:, :5], joints[:, 5:]))
        got = list(pairs)
        assert len(got) == len(want) == 33
        for (h, y), (wh, wy) in zip(got, want):
            assert (h.shape, h.strides, h.tobytes()) == (wh.shape, wh.strides, wh.tobytes())
            assert (y.shape, y.strides, y.tobytes()) == (wy.shape, wy.strides, wy.tobytes())


class TestSplitRanges:
    def test_extended(self):
        spec = SplitSpec()
        r = split_ranges(1000, spec, history_len=24, horizon=12)
        assert r["train"] == (0, 700)
        assert r["val"] == (700 - 24, 800)
        assert r["test"] == (800 - 24, 1000)

    def test_strict(self):
        spec = SplitSpec(convention="strict")
        r = split_ranges(1000, spec, history_len=24, horizon=12)
        assert r["train"] == (0, 700)
        assert r["val"] == (700, 800)
        assert r["test"] == (800, 1000)

    def test_no_label_leak_into_earlier_split(self):
        # Even under the extended convention, every val label row lies at or
        # beyond the train boundary, and every test label beyond the val one.
        spec = SplitSpec()
        h, t = 24, 12
        r = split_ranges(500, spec, h, t)
        series = np.arange(500.0)[:, None]
        val_pairs = window(series, h, t, rows_range=r["val"])
        assert val_pairs[0].label[0, 0] >= r["train"][1]
        test_pairs = window(series, h, t, rows_range=r["test"])
        assert test_pairs[0].label[0, 0] >= r["val"][1]

    def test_fractions_validated(self):
        with pytest.raises(ConfigError):
            SplitSpec(train=0.5, val=0.1, test=0.2)
        with pytest.raises(ConfigError):
            SplitSpec(train=0.8, val=0.0, test=0.2)

    def test_too_small_split(self):
        with pytest.raises(ConfigError):
            split_ranges(40, SplitSpec(), history_len=24, horizon=12)
