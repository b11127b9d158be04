"""Print the SHA-256 of 20 deterministic outputs as one JSON object.

Each hash covers one `TrainReport.to_json(include_timing=False)`, the three
reports of one sweep, or one `kmbdf mmd-test` stdout:

* the README quick start;
* both reports (alpha=0 and alpha=0.3) of the desk sweep, seeds 1 and 2;
* the paper-scale config (N=128, H=96, T=96, D=21, one epoch);
* two-epoch runs on a 1,500-row series of each kernel family (polynomial at
  degree 2) in both anchor modes;
* the three reports of a two-epoch sweep over alpha in {0.1, 0.3} on that
  series: its 289 test windows fit under `mmd_max_samples`, so the later two
  runs reuse the first run's test MMD^2 real side on the sliding path;
* a two-epoch run read from a CSV file with a date column, through
  `load_csv`;
* `kmbdf mmd-test` at its defaults and at `--samples 400 --window 16`.

A change that must keep every report byte-identical prints the same object
as its parent, at one BLAS thread and at two.  Run from the repository root:

    PYTHONPATH=src python3 scripts/report_hashes.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile
from datetime import datetime, timedelta

from kmbdf import ExperimentConfig, SyntheticSpec, generate, run_sweep, train
from kmbdf.balancing import ANCHOR_MODES
from kmbdf.cli import main
from kmbdf.kernels import KERNEL_FAMILIES

KMB_DF = {
    "kind": "kmb_df", "alpha": 0.3, "top_k": 3, "margin_c": 0.001,
    "kernel": {"family": "exponential", "sigma": "median"},
}
# The README quick start.
QUICK_START = {
    "data": {"source": "synthetic", "kind": "ar", "length": 5000,
             "channels": 2, "seed": 100, "coeffs": [0.9]},
    "history_len": 24,
    "horizon": 12,
    "objective": KMB_DF,
    "lr": 1e-3, "batch_size": 32, "max_epochs": 30, "patience": 5,
}


def config(base: dict = QUICK_START, data: dict | None = None, objective: dict | None = None,
           **top) -> ExperimentConfig:
    return ExperimentConfig.from_dict({
        **base, **top,
        "data": {**base["data"], **(data or {})},
        "objective": {**base["objective"], **(objective or {})},
    })


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_hash(report) -> str:
    return digest(report.to_json(include_timing=False))


def mmd_test_hash(*args: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if main(["mmd-test", *args]) != 0:
            raise SystemExit(f"kmbdf mmd-test {' '.join(args)} failed")
    return digest(out.getvalue())


def csv_hash() -> str:
    """A two-epoch run on a seeded 3-channel series written, after an hourly
    date column, to `series.csv` in a temporary working directory: the
    config names that relative path, so its report does not depend on where
    this script runs."""
    series = generate(SyntheticSpec(length=1500, channels=3, seed=400, coeffs=(0.6, 0.2)))
    start, cwd = datetime(2016, 7, 1), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("series.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["date", "a", "b", "c"])
                writer.writerows([str(start + timedelta(hours=i)), *map(repr, row)]
                                 for i, row in enumerate(series.tolist()))
            run = {**QUICK_START, "data": {"source": "csv", "path": "series.csv"}, "max_epochs": 2}
            return report_hash(train(ExperimentConfig.from_dict(run)))
        finally:
            os.chdir(cwd)


def hashes() -> dict[str, str]:
    out = {"quick_start": report_hash(train(config()))}
    for seed in (1, 2):
        desk = config(max_epochs=5, patience=5, seed=seed)
        _, reports = run_sweep(desk, "alpha", [0.3])
        for label, report in reports.items():
            out[f"desk_sweep/seed={seed}/{label}"] = report_hash(report)
    paper = config(data={"length": 3016, "channels": 21, "seed": 200}, history_len=96,
                   horizon=96, batch_size=128, max_epochs=1, patience=1)
    out["paper_t96"] = report_hash(train(paper))
    for family in KERNEL_FAMILIES:
        kernel = {"family": family, **({"degree": 2} if family == "polynomial" else {})}
        for mode in ANCHOR_MODES:
            run = config(data={"length": 1500}, objective={"kernel": kernel, "anchor_mode": mode},
                         max_epochs=2)
            out[f"kernel/{family}/{mode}"] = report_hash(train(run))
    _, reports = run_sweep(config(data={"length": 1500}, max_epochs=2), "alpha", [0.1, 0.3])
    out["sweep/length=1500"] = digest(json.dumps(
        {label: report.to_dict(include_timing=False) for label, report in reports.items()},
        sort_keys=True))
    out["csv"] = csv_hash()
    out["mmd_test/defaults"] = mmd_test_hash()
    out["mmd_test/samples=400,window=16"] = mmd_test_hash("--samples", "400", "--window", "16")
    return out


if __name__ == "__main__":
    print(json.dumps(hashes(), indent=1))
