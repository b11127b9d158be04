"""Series generation, CSV ingestion, standardization, windowing and splits."""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import ClassVar, Literal, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, Node, ShapeError

AR_BURN_IN = 200
# Below this many channels the AR recursion runs per channel on Python floats:
# measured, 0.3-0.45 us an element beat NumPy's 2-6 us a row up to 8-13 channels.
AR_SCALAR_CHANNELS = 10


class WindowPair(NamedTuple):
    history: np.ndarray  # (H, D)
    label: np.ndarray  # (T, D)


@dataclass(frozen=True)
class SyntheticSpec(Node):
    """Seeded synthetic series: AR(p) or seasonal trend, per channel."""

    source: ClassVar[str] = "synthetic"
    kind: Literal["ar", "seasonal_trend"] = "ar"
    length: int = 1000
    channels: int = 1
    seed: int = 0
    coeffs: tuple[float, ...] = (0.8,)  # AR only
    noise_std: float = 1.0
    period: int = 24  # seasonal_trend only
    amplitude: float = 1.0
    slope: float = 0.0

    def _check(self):
        if self.length < 1 or self.channels < 1:
            raise ConfigError("length and channels must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.kind == "ar" and len(self.coeffs) > 0:
            _check_stationary(self.coeffs)
        if self.kind == "seasonal_trend" and self.period < 1:
            raise ConfigError("period must be >= 1")


@dataclass(frozen=True)
class CsvSpec(Node):
    """An ETT-style CSV file for `load_csv`, read when the dataset is built."""

    source: ClassVar[str] = "csv"
    path: str
    date_column: bool = True  # skip a leading date column


def _check_stationary(coeffs) -> None:
    # Roots of 1 - sum_i phi_i z^i must lie outside the unit circle.
    phi = np.asarray(coeffs, dtype=float)
    poly = np.concatenate([[-c for c in phi[::-1]], [1.0]])
    roots = np.roots(poly)
    if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-9:
        raise ConfigError(f"AR coefficients {list(phi)} define a nonstationary process")


def generate(spec: SyntheticSpec) -> np.ndarray:
    """Deterministic (length, channels) series for the given spec + seed.

    AR(p) runs in place on the drawn noise through one loop body, per channel
    on Python floats below `AR_SCALAR_CHANNELS` channels, else on NumPy row
    views: both add x_t's lags to its noise one at a time, phi_1 x_{t-1}
    first (t of them while t < p), so both give the same bytes.  White noise is the noise.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "seasonal_trend":
        t = np.arange(spec.length)
        base = spec.amplitude * np.sin(2.0 * np.pi * t / spec.period) + spec.slope * t
        noise = rng.normal(0.0, spec.noise_std, size=(spec.length, spec.channels))
        return base[:, None] + noise
    out = rng.normal(0.0, spec.noise_std, size=(spec.length + AR_BURN_IN, spec.channels))
    p, lags = len(spec.coeffs), list(enumerate(map(float, spec.coeffs), 1))  # (k, phi_k)
    scalar = p and spec.channels < AR_SCALAR_CHANNELS
    series = out.T.tolist() if scalar else [list(out)] if p else []
    for seq in series:
        for t in range(1, len(seq)):
            x = seq[t]
            for k, c in lags if t >= p else lags[:t]:
                x += c * seq[t - k]
            seq[t] = x  # a float's write-back; `+=` updated a row view in place
    if scalar:
        out.T[...] = series
    return out[AR_BURN_IN:]


def load_csv(path, date_column: bool = True) -> np.ndarray:
    """Read an ETT-style CSV into an (M, D) float matrix.

    Header row required; an optional leading date column is skipped.  Any
    unparseable or non-finite cell raises with its 1-based row/column, and a
    file that is not UTF-8 text raises naming the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        start = 1 if date_column else 0
        width = len(header) - start
        if width < 1:
            raise DataError(f"{path}: no value columns")
        rows = []
        for r, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise DataError(
                    f"{path}: row {r} has {len(rec)} fields, expected {len(header)}"
                )
            vals = []
            for c, cell in enumerate(rec[start:], start=start + 1):
                try:
                    v = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: unparseable value {cell!r} at row {r}, column {c}"
                    ) from None
                if not math.isfinite(v):
                    raise DataError(
                        f"{path}: non-finite value {cell!r} at row {r}, column {c}"
                    )
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


@dataclass
class Standardization:
    mean: np.ndarray
    std: np.ndarray
    constant_channels: list = field(default_factory=list)

    def apply(self, series: np.ndarray) -> np.ndarray:
        return (np.asarray(series, dtype=float) - self.mean) / self.std

    def invert(self, series: np.ndarray) -> np.ndarray:
        return np.asarray(series, dtype=float) * self.std + self.mean


def standardize(series: np.ndarray, train_rows: int):
    """Per-channel (x - mean) / std using the first `train_rows` rows only.

    Channels with zero training std are passed through mean-shifted (std
    forced to 1) and flagged in the returned Standardization.  A channel
    whose training mean or std overflows, or whose standardized values are
    not finite, raises `DataError`.
    """
    series = np.asarray(series, dtype=float)
    if train_rows < 2:
        raise ConfigError(f"need >= 2 training rows, got {train_rows}")
    train = series[:train_rows]
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = train.mean(axis=0), train.std(axis=0)
        constant = [int(d) for d in np.nonzero(std == 0.0)[0]]
        std = np.where(std == 0.0, 1.0, std)
        stats = Standardization(mean=mean, std=std, constant_channels=constant)
        out = stats.apply(series)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std) & np.isfinite(out).all(axis=0)))
    if bad.size:
        d = bad[0]
        raise DataError(
            f"channel {d} cannot be standardized: values too large for float64 "
            f"(training mean {mean[d]:g}, std {std[d]:g})"
        )
    return out, stats


def joint_windows(series: np.ndarray, length: int, rows_range=None) -> np.ndarray:
    """Stride-1 windows of `length` rows of `rows_range` = (start, stop), as
    a read-only (n, length, D) view of the series: it copies nothing, and
    indexing it with an index array gives a C-contiguous copy."""
    series = np.asarray(series, dtype=float)
    start, stop = (0, series.shape[0]) if rows_range is None else rows_range
    if stop - start < length:
        raise ShapeError(f"range of {stop - start} rows too short for windows of {length}")
    return np.moveaxis(sliding_window_view(series[start:stop], length, axis=0), -1, 1)


class Windows(Sequence):
    """Read-only `WindowPair`s of the rows of an (n, H+T, D) joint-window view,
    each built when read; a slice is a `Windows` of the sliced view."""

    def __init__(self, joints: np.ndarray, history_len: int):
        self.joints, self.history_len = joints, history_len

    def __len__(self) -> int:
        return len(self.joints)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Windows(self.joints[i], self.history_len)
        joint = self.joints[operator.index(i)]
        return WindowPair(joint[: self.history_len], joint[self.history_len :])


def window(series: np.ndarray, history_len: int, horizon: int, rows_range=None) -> Windows:
    """Stride-1 (history, label) pairs of `joint_windows`, as `Windows`."""
    return Windows(joint_windows(series, history_len + horizon, rows_range), history_len)


@dataclass(frozen=True)
class SplitSpec(Node):
    train: float = 0.7
    val: float = 0.1
    test: float = 0.2
    convention: Literal["extended", "strict"] = "extended"
    standardize: bool = True

    def _check(self):
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")
        if min(self.train, self.val, self.test) <= 0:
            raise ConfigError("split fractions must be positive")


def split_ranges(n_rows: int, spec: SplitSpec, history_len: int, horizon: int):
    """Chronological (start, stop) row ranges for train / val / test.

    Under the extended convention the val and test ranges reach back
    `history_len` rows so their first windows have a full history while
    labels stay inside the split.
    """
    n_train = int(n_rows * spec.train)
    n_val = int(n_rows * spec.val)
    back = history_len if spec.convention == "extended" else 0
    ranges = {
        "train": (0, n_train),
        "val": (n_train - back, n_train + n_val),
        "test": (n_train + n_val - back, n_rows),
    }
    for name, (start, stop) in ranges.items():
        if stop - start < history_len + horizon:
            raise ConfigError(
                f"{name} split of {stop - start} rows yields no window "
                f"(H={history_len}, T={horizon})"
            )
    return ranges
