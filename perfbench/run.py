"""kmbdf benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload desk_pair --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

One workload runs per process, so `peak_rss_mb` belongs to it alone;
`--workload all` starts one process per workload and trace setting and
prints every metric with its unit.  `--smoke` shrinks every workload to a
few seconds for the benchmark's own tests.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The untraced times (`setup_s`, `train_s`, `step_ms`) are corrected for the
host's speed, measured by a probe between the program's calls (see
hostspeed.py); the line before the metrics gives the same times uncorrected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("desk_pair", "paper_t96", "paper_t720")
SETUP_REPS = 7
TRACED_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> int:
    """One BLAS/OpenMP thread, whatever the environment says.

    On a 2-CPU box a second thread made paper_t96 only 6% faster (23.9 s
    against 25.3 s per train()), and it shares a CPU with whatever else runs
    there, which made its times spread more.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(ncpu: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kmbdf").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "cpus_usable": ncpu,
        "cpus_total": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def gradcheck(ledger) -> None:
    from kmbdf.checks import run_gradcheck

    cases = run_gradcheck()
    ledger.check(len(cases) == 20, f"gradcheck ran {len(cases)} cases, expected 20")
    for case in cases:
        ledger.check(
            case["pass"],
            f"gradcheck {case['kernel']}/{case['anchor_mode']}/{case['hinge_mode']}: "
            f"relative error {case['max_rel_error']:.2e}",
        )


def _attempt(ledger, what, fn, *args):
    """Run one operation; a KmbdfError counts as a failed operation."""
    from kmbdf.errors import KmbdfError

    try:
        return fn(*args)
    except KmbdfError as exc:
        ledger.check(False, f"{what}: {type(exc).__name__}: {exc}")
        return None


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def measure(wl, ledger, seconds: float) -> tuple[dict, dict]:
    """Untraced run: set-up several times, then units until `seconds` pass.

    Times are host-corrected (see hostspeed.py).  Returns the metrics and the
    same times uncorrected, with the host's speed factor, for the log.
    """
    from hostspeed import HostSpeed

    host = HostSpeed(wl.probe)
    setups = []
    for _ in range(SETUP_REPS):
        host.tick(force=True)
        t0 = host.now()
        ctx = _attempt(ledger, f"{wl.name} setup", wl.setup)
        if ctx is None:
            raise SystemExit(f"{wl.name}: set-up failed: {ledger.notes[-1]}")
        setups.append((t0, host.now()))
    host.tick(force=True)
    _attempt(ledger, f"{wl.name} prepare", wl.prepare, ctx, ledger)

    deadline = time.perf_counter() + seconds
    results = []
    # Step durations go into flat arrays unit by unit, so that the
    # benchmark's own bookkeeping barely moves peak_rss_mb.
    step_nominal, step_raw = array("d"), array("d")
    while True:
        host.tick(force=True)
        res = _attempt(ledger, f"{wl.name} unit", wl.unit, ctx, ledger, host)
        host.tick(force=True)
        if res is not None:
            step_nominal.extend(host.nominal(a, b) for a, b in res.steps)
            step_raw.extend(b - a for a, b in res.steps)
            res.steps = None
            results.append(res)
        walls = [r.span[1] - r.span[0] for r in results] or [0.0]
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    if not results:
        raise SystemExit(f"{wl.name}: no unit completed: {ledger.notes[-1]}")

    first = results[0]
    if first.test_mse is None:
        first.test_mse, first.test_mmd = wl.quality(ctx, first)
    for res in results[1:]:
        if res.test_mse is not None:
            ledger.check(
                (res.test_mse, res.test_mmd) == (first.test_mse, first.test_mmd),
                f"{wl.name}: unit results differ between repeats",
            )
    units = [r.span for r in results]

    def corrected(intervals):
        return statistics.median(host.nominal(a, b) for a, b in intervals)

    def raw(intervals):
        return statistics.median(b - a for a, b in intervals)

    metrics = {
        "setup_s": (corrected(setups), "s"),
        "train_s": (corrected(units), "s"),
        "step_ms": (1e3 * statistics.median(step_nominal), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "test_mse": (first.test_mse, "1"),
        "test_mmd": (first.test_mmd, "1"),
    }
    uncorrected = {
        "host_factor": host.factor(),
        "probes": len(host.probe_s),
        "setup_s": raw(setups),
        "train_s": raw(units),
        "step_ms": 1e3 * statistics.median(step_raw),
        "steps": len(step_raw),
        "units": len(units),
    }
    return metrics, uncorrected


def trace(wl, ledger) -> dict:
    """One untraced pass for the overhead baseline, then traced passes.

    Per-layer times are raw wall time: no probe runs during a traced pass.
    """
    from hostspeed import HostSpeed
    from tracing import COUNT_METRICS, PER_LAYER_UNITS, Tracer, layer_metrics

    def one_pass():
        wl.unit(wl.setup(), ledger, HostSpeed(None))

    wl.prepare(wl.setup(), ledger)
    _, untraced_s = _timed(one_pass)
    passes, traced_s = [], []
    for _ in range(TRACED_PASSES):
        tracer = Tracer()
        with tracer.patched():
            _, elapsed = _timed(one_pass)
        tracer.check_expected(wl.expected_spans)
        traced_s.append(elapsed)
        passes.append(layer_metrics(tracer.spans))
    for name in COUNT_METRICS:
        values = [p[name] for p in passes]
        ledger.check(len(set(values)) == 1, f"{wl.name}: count {name} differs: {values}")
    overhead = 100.0 * (statistics.mean(traced_s) - untraced_s) / untraced_s
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [p[name] for p in passes]
        out[name] = (values[0] if name in COUNT_METRICS else statistics.mean(values), unit)
    out["trace.overhead_pct"] = (overhead, "%")
    return out


def run_one(args) -> int:
    ncpu = pin_threads()
    if not (ROOT / "src" / "kmbdf" / "__init__.py").is_file():
        print(f"kmbdf sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import kmbdf
    from tracing import TraceError
    from workloads import WORKLOADS, Ledger

    if Path(kmbdf.__file__).resolve().parent != ROOT / "src" / "kmbdf":
        print(f"imported kmbdf from {kmbdf.__file__}, not this checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    print(json.dumps({"environment": environment(ncpu), "workload": wl.name,
                      "why": wl.why, "bypasses": wl.bypasses}))
    ledger = Ledger()
    gradcheck(ledger)
    try:
        if args.trace:
            metrics = trace(wl, ledger)
        else:
            metrics, uncorrected = measure(wl, ledger, args.seconds)
            print(json.dumps({"uncorrected": uncorrected}))
    except TraceError as exc:
        print(f"{wl.name}: {exc}", file=sys.stderr)
        return 1
    for note in ledger.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {traced} exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            print("\n".join(lines[:-1]))
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for self-tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
