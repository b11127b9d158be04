"""Kernelized moment balancing for direct time-series forecasting."""

from .balancing import (
    BalanceConfig,
    BalanceDiagnostics,
    kmb_df_grad,
    mmd_squared,
)
from .data import CsvSpec, SplitSpec, SyntheticSpec, generate, load_csv, standardize
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

__version__ = "0.1.0"
