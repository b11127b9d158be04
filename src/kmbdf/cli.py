"""Command line entry points.

Subcommands: train, sweep, evaluate, timing, gradcheck, mmd-test.  Configs
are declarative JSON files; dotted --set overrides and the global --seed /
--out flags adjust them per invocation.  Failures exit nonzero and print a
machine-readable error object to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .balancing import mmd_squared
from .checks import run_gradcheck
from .data import SyntheticSpec, generate
from .errors import ConfigError, KmbdfError
from .harness import (
    SWEEP_PARAMS, ExperimentConfig, build_dataset, evaluate, run_sweep, timing_probe, train,
)
from .kernels import KernelSpec
from .models import load_forecaster


def _json_or_str(value: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value


def _load_config(path: str, overrides, seed=None, out=None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise ConfigError(f"{path} is not a JSON file: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {type(raw).__name__}")
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key.path=value, got {item!r}")
        *parents, leaf = key.split(".")
        node = raw
        for p in parents:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {p} is not an object")
        node[leaf] = _json_or_str(value)
    if seed is not None:
        raw["seed"] = seed
    if out is not None:
        raw["out"] = out
    return ExperimentConfig.from_dict(raw)


def _cmd_train(args) -> int:
    config = _load_config(args.config, args.set, args.seed, args.out)
    report = train(config)
    print(report.to_json())
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args.config, args.set, args.seed, None)
    values = [_json_or_str(v) for v in args.values.split(",")]
    rows, _ = run_sweep(config, args.param, values, out_dir=args.out)
    print(json.dumps({"rows": rows}))
    return 0


def _cmd_evaluate(args) -> int:
    config = _load_config(args.config, args.set, args.seed, None)
    model = load_forecaster(args.checkpoint)
    dataset = build_dataset(config)
    mse, mae = evaluate(model, dataset["stacks"][args.split])
    print(json.dumps({"split": args.split, "mse": mse, "mae": mae}))
    return 0


def _cmd_timing(args) -> int:
    try:
        horizons = [int(h) for h in args.horizons.split(",")]
    except ValueError:
        raise ConfigError(
            f"--horizons must be comma-separated integers, got {args.horizons!r}"
        ) from None
    results = timing_probe(
        horizons,
        n=args.batch,
        channels=args.channels,
        history_len=args.history,
        reps=args.reps,
        seed=args.seed or 0,
    )
    print(json.dumps({"results": results}))
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck(trials=args.trials, tol=args.tol, seed=args.seed or 0)
    print(json.dumps({"results": results}))
    return 0 if all(r["pass"] for r in results) else 1


def _cmd_mmd_test(args) -> int:
    if args.window < 1:
        raise ConfigError(f"--window must be >= 1, got {args.window}")
    if args.samples // args.window < 2:
        raise ConfigError(
            f"--samples must hold at least 2 windows of --window, got --samples "
            f"{args.samples} and --window {args.window}"
        )
    seed = args.seed or 0
    spec_a = SyntheticSpec(kind="ar", coeffs=(args.phi,), length=args.samples, channels=1, seed=seed)
    spec_b = SyntheticSpec(kind="ar", coeffs=(args.phi_b,), length=args.samples, channels=1, seed=seed + 1)
    a = generate(spec_a)
    b = generate(spec_b)
    width = args.window
    sample_p = [a[i : i + width] for i in range(0, len(a) - width + 1, width)]
    sample_q = [b[i : i + width] for i in range(0, len(b) - width + 1, width)]
    result = mmd_squared(KernelSpec(family="exponential"), sample_p, sample_q)
    print(json.dumps({"mmd_squared": result.value}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kmbdf")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)
    config.add_argument("--set", action="append", metavar="KEY.PATH=VALUE")

    p = sub.add_parser("train", parents=[config], help="train one experiment")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", parents=[config], help="grid sweep over one balance parameter")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True, help="comma-separated grid values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("evaluate", parents=[config], help="evaluate a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("timing", help="median ms of one objective loss-and-gradient call")
    p.add_argument("--horizons", default="32,96,192,336,720")
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--channels", type=int, default=21)
    p.add_argument("--history", type=int, default=96)
    p.add_argument("--reps", type=int, default=100)
    p.set_defaults(func=_cmd_timing)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("mmd-test", help="two-sample MMD on synthetic AR data")
    p.add_argument("--phi", type=float, default=0.8)
    p.add_argument("--phi-b", type=float, default=0.8)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--window", type=int, default=16)
    p.set_defaults(func=_cmd_mmd_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return args.func(args)
    except (KmbdfError, OSError, RuntimeWarning) as exc:
        # A NumPy overflow or invalid value fails the command as a DomainError.
        name = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        name = "DomainError" if isinstance(exc, RuntimeWarning) else name
        json.dump({"error": name, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
