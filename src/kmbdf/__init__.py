"""Kernelized moment balancing for direct time-series forecasting."""

from .balancing import (
    BalanceConfig,
    BalanceDiagnostics,
    MmdResult,
    kmb_df_grad,
    mmd_squared,
)
from .data import CsvSpec, SplitSpec, SyntheticSpec, WindowPair, Windows, generate, load_csv, standardize, window
from .errors import ConfigError, DataError, DomainError, KmbdfError, ShapeError
from .harness import ExperimentConfig, TrainReport, evaluate, run_sweep, timing_probe, train
from .kernels import (
    KernelSpec,
    gram_matrix,
    median_bandwidth,
)
from .models import (
    AdamState,
    LinearForecaster,
    adam_init,
    adam_step,
    init_forecaster,
    load_forecaster,
    save_forecaster,
)
from .objectives import make_objective

__version__ = "0.1.0"
