"""Spans around the calls the benchmark makes into kmbdf, and the per-layer
metrics derived from them.

Every wrapper is installed from this file: the program itself is not
changed.  A function is patched where its caller looks it up (the training
loop finds `forward_batch` in `kmbdf.harness`, the delta scores find
`gram_matrix` in `kmbdf.balancing`), so each target below names the module
namespace of the caller, not the module that defines the function.

If a later change renames or removes a target, `Patcher.install` raises
`TraceError` naming it; if a target stops being called on a workload that is
expected to call it, `check_expected` raises.  A layer is never silently
reported as zero because its span went missing.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# Distance families of kmbdf.kernels: subtract, square, accumulate per element.
_DISTANCE_FAMILIES = ("exponential", "gaussian")
_FLOAT_BYTES = 8


class TraceError(RuntimeError):
    """A wrapped function is missing, or an expected span never fired."""


def _gram_counts(args, kwargs):
    spec, rows, cols = args[:3]
    r, c = len(rows), len(cols)
    size = int(np.size(rows[0]))
    family = getattr(spec.family, "value", spec.family)
    per_element = 3 if family in _DISTANCE_FAMILIES else 2
    # Computed from the shapes passed in, not measured: per-element flops of
    # the reduction, and the compulsory traffic (both inputs read once, the
    # r x c output written once).
    return {
        "entries": r * c,
        "flops": per_element * r * c * size,
        "bytes": _FLOAT_BYTES * (r * size + c * size + r * c),
    }


def _objective_alpha(args, kwargs):
    return {"alpha": float(args[0].config.alpha)}


# (caller's module, attribute path, span name, attribute hook)
TARGETS = (
    ("kmbdf.harness", "run_sweep", "harness.run_sweep", None),
    ("kmbdf.harness", "train", "harness.train", None),
    ("kmbdf.harness", "evaluate", "harness.evaluate", None),
    ("kmbdf.harness", "build_dataset", "data.build_dataset", None),
    ("kmbdf.data", "generate", "data.generate", None),
    ("kmbdf.data", "standardize", "data.standardize", None),
    ("kmbdf.data", "window", "data.window", None),
    ("kmbdf.harness", "median_bandwidth", "kernels.median_bandwidth", None),
    ("kmbdf.kernels", "median_bandwidth", "kernels.median_bandwidth", None),
    ("kmbdf.balancing", "gram_matrix", "kernels.gram_matrix", _gram_counts),
    ("kmbdf.balancing", "grad_b_sum", "kernels.grad_b_sum", None),
    ("kmbdf.balancing", "informativeness_scores", "balancing.informativeness_scores", None),
    ("kmbdf.balancing", "select_top_k", "balancing.select_top_k", None),
    ("kmbdf.balancing", "hinge_slack", "balancing.hinge_slack", None),
    ("kmbdf.balancing", "kmb_df_grad", "balancing.kmb_df_grad", None),
    ("kmbdf.harness", "mmd_squared", "balancing.mmd_squared", None),
    ("kmbdf.objectives", "KmbDfObjective.loss_and_grad", "objectives.loss_and_grad",
     _objective_alpha),
    ("kmbdf.harness", "forward_batch", "models.forward_batch", None),
    ("kmbdf.models", "forward_batch", "models.forward_batch", None),
    ("kmbdf.harness", "backward_batch", "models.backward_batch", None),
    ("kmbdf.models", "backward_batch", "models.backward_batch", None),
    ("kmbdf.harness", "adam_step", "models.adam_step", None),
    ("kmbdf.models", "adam_step", "models.adam_step", None),
)


class Patcher:
    """Replaces attributes for the duration of a `with` block."""

    def __init__(self, targets, make_wrapper):
        self._targets = targets
        self._make_wrapper = make_wrapper
        self._saved = []

    def install(self):
        resolved, missing = [], []
        for module_name, path, name, hook in self._targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                missing.append(f"{module_name}.{path}")
                continue
            resolved.append((owner, attr, original, name, hook))
        if missing:
            raise TraceError("wrapped functions not found: " + ", ".join(missing))
        for owner, attr, original, name, hook in resolved:
            setattr(owner, attr, self._make_wrapper(original, name, hook))
            self._saved.append((owner, attr, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_s")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = attrs
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Records one span per wrapped call, with its parent, in memory."""

    def __init__(self, targets=TARGETS):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._targets = targets

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = hook(args, kwargs) if hook is not None else None
            span = Span(name, clock(), stack[-1] if stack else None, attrs)
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration

        return traced

    def patched(self):
        return Patcher(self._targets, self._wrap)

    def calls(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def check_expected(self, expected):
        missing = [name for name in expected if self.calls(name) == 0]
        if missing:
            raise TraceError("expected spans never recorded: " + ", ".join(missing))


class StepClock:
    """Step intervals of `kmbdf.harness.train` on a host-speed work clock.

    A step is the interval between the ends of two consecutive optimizer
    updates, so it includes the loop's own overhead.  The clock restarts when
    a validation pass ends and when a `train()` call starts, so neither
    validation nor set-up counts as step time.  After every wrapped call the
    host-speed probe gets its turn (`HostSpeed.tick`); the Gram and bandwidth
    targets are there only to give it turns inside long evaluations.
    """

    _TARGETS = (
        ("kmbdf.harness", "train", "train", None),
        ("kmbdf.harness", "evaluate", "evaluate", None),
        ("kmbdf.harness", "adam_step", "adam_step", None),
        ("kmbdf.harness", "median_bandwidth", "other", None),
        ("kmbdf.balancing", "gram_matrix", "other", None),
    )

    def __init__(self, host):
        self.host = host
        self.steps: list[tuple[float, float]] = []
        self._last = None

    def _wrap(self, fn, name, hook):
        host = self.host

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if name == "train":
                self._last = None
            out = fn(*args, **kwargs)
            now = host.now()
            if name == "adam_step" and self._last is not None:
                self.steps.append((self._last, now))
            host.tick()
            if name != "other":
                self._last = host.now()
            return out

        return timed

    def patched(self):
        return Patcher(self._TARGETS, self._wrap)


# --------------------------------------------------------------------------
# Per-layer metrics, and the end-to-end metric each should move:
#
#   data.build_s, kernels.median_bandwidth_s.setup       -> setup_s
#   kernels.median_bandwidth_s.eval, kernels.gram_s.eval,
#   balancing.mmd_s, harness.eval_s                      -> train_s (paper_t96)
#   kernels.gram_s.train, kernels.grad_s, balancing.*_s,
#   objectives.*, models.*, harness.loop_self_s          -> step_ms
#   kernels.gram.entries.alpha0                          -> train_s (desk_pair)
#
# A kernel rewrite should move kernels.* on paper_t96 and barely touch
# desk_pair; a per-step overhead refactor should move objectives.self_s,
# balancing.penalty_grad_s and harness.loop_self_s on desk_pair and leave
# paper_t96's eval untouched; skipping kernel work at alpha=0 should zero
# kernels.gram.entries.alpha0 and change nothing on paper_t96.

PER_LAYER_UNITS = {
    "data.build_s": "s",
    "kernels.median_bandwidth_s.setup": "s",
    "kernels.median_bandwidth_s.eval": "s",
    "kernels.gram_s.eval": "s",
    "kernels.gram_s.train": "s",
    "kernels.grad_s": "s",
    "kernels.gram.calls": "count",
    "kernels.gram.entries": "count",
    "kernels.gram.flops_computed": "flop",
    "kernels.gram.bytes_computed": "B",
    "kernels.gram.entries.alpha0": "count",
    "balancing.delta_s": "s",
    "balancing.topk_hinge_s": "s",
    "balancing.penalty_grad_s": "s",
    "balancing.mmd_s": "s",
    "objectives.loss_and_grad_s": "s",
    "objectives.self_s": "s",
    "models.forward_s": "s",
    "models.backward_s": "s",
    "models.adam_s": "s",
    "harness.loop_self_s": "s",
    "harness.eval_s": "s",
    "harness.steps": "count",
    "harness.epochs": "count",
    "trace.overhead_pct": "%",
}

COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items() if u != "s" and u != "%")

# Self time of these spans goes to one metric regardless of phase.
_SELF_TIME = {
    "data.build_dataset": "data.build_s",
    "data.generate": "data.build_s",
    "data.standardize": "data.build_s",
    "data.window": "data.build_s",
    "kernels.grad_b_sum": "kernels.grad_s",
    "balancing.informativeness_scores": "balancing.delta_s",
    "balancing.select_top_k": "balancing.topk_hinge_s",
    "balancing.hinge_slack": "balancing.topk_hinge_s",
    "balancing.kmb_df_grad": "balancing.penalty_grad_s",
    "balancing.mmd_squared": "balancing.mmd_s",
    "objectives.loss_and_grad": "objectives.self_s",
    "models.backward_batch": "models.backward_s",
    "models.adam_step": "models.adam_s",
}


def _ancestors(span):
    span = span.parent
    while span is not None:
        yield span
        span = span.parent


def _enclosing(span, name):
    return next((a for a in _ancestors(span) if a.name == name), None)


def _train_phases(spans):
    """For each train() span: start of its loop and start of its final eval.

    The loop starts at the first forecaster call under train(); the final
    evaluation starts with the last `evaluate` call directly under train()
    (test MSE), after which train() only computes the test MMD and the report.
    """
    phases = {}
    for span in spans:
        if span.name == "models.forward_batch":
            train = _enclosing(span, "harness.train")
            if train is not None and _enclosing(span, "harness.evaluate") is None:
                phases.setdefault(id(train), [train, span.start, None])
        elif span.name == "harness.evaluate" and span.parent is not None:
            if span.parent.name == "harness.train":
                entry = phases.setdefault(id(span.parent), [span.parent, None, None])
                entry[2] = span.start
    return phases


def _in_eval(span, phases):
    if _enclosing(span, "harness.evaluate") is not None:
        return True
    train = _enclosing(span, "harness.train")
    if train is None:
        return False
    tail_start = phases.get(id(train), [None, None, None])[2]
    return tail_start is not None and span.start >= tail_start


def layer_metrics(spans):
    """Per-layer metrics from a list of closed spans.

    Times are self times in seconds (span minus its child spans), except
    `objectives.loss_and_grad_s` and `harness.eval_s`, which include their
    children.  Gram flops and bytes are computed from shapes, not measured.
    `trace.overhead_pct` needs an untraced run and is left at 0 here.
    """
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in COUNT_METRICS:
        out[name] = 0
    phases = _train_phases(spans)
    for span in spans:
        name = span.name
        if name in _SELF_TIME:
            out[_SELF_TIME[name]] += span.self_s
        if name == "objectives.loss_and_grad":
            out["objectives.loss_and_grad_s"] += span.duration
        elif name == "kernels.median_bandwidth":
            phase = "eval" if _in_eval(span, phases) else "setup"
            out[f"kernels.median_bandwidth_s.{phase}"] += span.self_s
        elif name == "kernels.gram_matrix":
            phase = "eval" if _enclosing(span, "balancing.mmd_squared") else "train"
            out[f"kernels.gram_s.{phase}"] += span.self_s
            out["kernels.gram.calls"] += 1
            out["kernels.gram.entries"] += span.attrs["entries"]
            out["kernels.gram.flops_computed"] += span.attrs["flops"]
            out["kernels.gram.bytes_computed"] += span.attrs["bytes"]
            objective = _enclosing(span, "objectives.loss_and_grad")
            if objective is not None and objective.attrs["alpha"] == 0.0:
                out["kernels.gram.entries.alpha0"] += span.attrs["entries"]
        elif name == "models.forward_batch" and not _in_eval(span, phases):
            out["models.forward_s"] += span.self_s
        elif name == "models.adam_step":
            out["harness.steps"] += 1
    for train, loop_start, tail_start in phases.values():
        if loop_start is None or tail_start is None:
            raise TraceError("train() span without a training loop and a final evaluation")
        children = [s for s in spans if s.parent is train]
        val_evals = [
            s for s in children if s.name == "harness.evaluate" and s.start < tail_start
        ]
        in_loop = [s for s in children if loop_start <= s.start < tail_start]
        out["harness.epochs"] += len(val_evals)
        out["harness.eval_s"] += sum(s.duration for s in val_evals) + (train.end - tail_start)
        out["harness.loop_self_s"] += (tail_start - loop_start) - sum(s.duration for s in in_loop)
    return out
