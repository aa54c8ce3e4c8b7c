"""Span tracer that times rispose's layers from outside the library.

``Tracer`` rebinds each traced function, in every ``rispose`` module
namespace that holds it, to a wrapper that records one span per call:
name, parent span, trial id, start and end.  No library source changes;
calls resolve through module globals, so the wrappers see every call made
on the sweep path.  ``uninstall`` puts the original functions back.

A traced name that no longer exists (after a later refactor) reports zero
calls instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

# layer (module) -> public functions on the sweep path.  ``config``, ``cli``
# and ``validate`` are not on that path.
LAYERS = {
    "geometry": ("sample_pose",),
    "channel": ("ris_ue_channel", "ris_bs_channel", "ris_profiles", "pilot_matrix",
                "khatri_rao", "noise_sigma_for_snr", "observe"),
    "recovery": ("recover_channel", "measurement_pinv"),
    "estimator": ("estimate_pose", "estimate_pose_from_channel", "estimate_distance",
                  "estimate_direction", "estimate_orientation", "tls_phase_ratio"),
    "montecarlo": ("run_trial",),
}

PACKAGE = "rispose"
FAILURE_STAGES = ("distance", "direction", "orientation", "tls", "nonfinite")

MB = 1e6
GFLOP = 1e9
COMPLEX_MAC_FLOPS = 8  # one complex multiply-add in real flops


# Counters computed from the arguments and result of a successful call.  Each
# takes the call's result first, then the traced function's own parameters,
# so a changed signature shows up as a TypeError (caught; counter skipped).

def _observe_bytes(y, a, h, profiles, s, sigma, rng, hbar=None):
    """Bytes of the observation y plus, when noisy, its complex noise draw."""
    return {"computed_mb": y.nbytes * (2 if sigma > 0 else 1) / MB}


def _khatri_rao_bytes(hbar, profiles, h):
    return {"computed_mb": hbar.nbytes / MB}


def _recovery_flops(rec, y, hbar, s, structured=False):
    """Flops of ``left @ y @ right``: (n x rows)(rows x l) then (n x l)(l x k)."""
    rows, n = hbar.shape
    l_pilot = y.shape[1]
    k = s.shape[0]
    return {"computed_gflop": COMPLEX_MAC_FLOPS * n * l_pilot * (rows + k) / GFLOP}


def _pinv_path(left, hbar, structured=False):
    return {"svd_path_calls": 0 if structured else 1}


def _trial_outcome(result, *args, **kwargs):
    return {f"failures.{result.stage}": 1} if result.failed else {}


COUNTERS = {
    "channel.observe": _observe_bytes,
    "channel.khatri_rao": _khatri_rao_bytes,
    "recovery.recover_channel": _recovery_flops,
    "recovery.measurement_pinv": _pinv_path,
    "montecarlo.run_trial": _trial_outcome,
}


class Tracer:
    """Records spans of calls into the traced rispose functions.

    Use as a context manager around the sweeps to trace; spans accumulate
    over repeated uses of one tracer.  Spans are kept in
    memory as ``[name, parent, trial, start_ns, end_ns, error]`` lists,
    where ``parent`` is the index of the enclosing span (None at top level)
    and ``trial`` is the ``(axis, value, trial)`` id of the trial running.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.trial = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _modules(self):
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _rebind(self, original, replacement) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for layer, names in LAYERS.items():
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                full = f"{layer}.{name}"
                original = getattr(mod, name, None)
                if not callable(original):
                    self.missing.append(full)
                    continue
                self._rebind(original, self._wrap(full, original, COUNTERS.get(full)))
        # run_sweep derives each trial's noise seed from (axis, value, trial)
        # right before the trial; that call marks which trial spans belong to.
        montecarlo = sys.modules.get(f"{PACKAGE}.montecarlo")
        trial_seed = getattr(montecarlo, "trial_seed", None)
        if callable(trial_seed):
            self._rebind(trial_seed, self._trial_marker(trial_seed))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def _trial_marker(self, trial_seed):
        @functools.wraps(trial_seed)
        def marked(master_seed, axis, value, trial):
            self.trial = (axis, float(value), int(trial))
            return trial_seed(master_seed, axis, value, trial)
        return marked

    def _wrap(self, name, fn, counter):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, self.trial,
                    perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[4] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                try:
                    counts = counter(result, *args, **kwargs)
                except (TypeError, AttributeError, ValueError):
                    counts = {}
                for key, value in counts.items():
                    counters[f"{name}.{key}"] += value
            return result
        return traced

    def dump(self) -> dict:
        """Spans in a JSON-ready form (names interned into a table)."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "fields": ["name", "parent", "trial", "start_ns", "end_ns", "error"],
            "names": names,
            "spans": [[index[s[0]], s[1], list(s[2]) if s[2] else None, s[3], s[4], s[5]]
                      for s in self.spans],
        }

    def summarize(self, wall_s: float, trials: int) -> dict:
        """Per-layer metrics per trial from the recorded spans.

        Self time is a span's duration minus its direct children's.  The
        sweep's own time (seeding, pose streams, aggregation) is the wall
        time of the traced sweeps minus every top-level span.
        """
        child_ns = defaultdict(int)
        for span in self.spans:
            if span[1] is not None:
                child_ns[span[1]] += span[4] - span[3]
        self_ns = Counter()
        calls = Counter()
        errors = Counter()
        top_ns = 0
        trial_ms = []
        for i, (name, parent, _, start, end, error) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[i]
            calls[name] += 1
            if error is not None:
                errors[name, error] += 1
            if parent is None:
                top_ns += end - start
            if name == "montecarlo.run_trial":
                trial_ms.append((end - start) / 1e6)

        metrics = {}
        for layer, names in LAYERS.items():
            for fn in names:
                full = f"{layer}.{fn}"
                metrics[f"{full}.ms_per_trial"] = (self_ns[full] / 1e6 / trials, "ms")
                metrics[f"{full}.calls_per_trial"] = (calls[full] / trials, "count")
        per_trial = lambda key: self.counters[key] / trials  # noqa: E731
        metrics["channel.observe.computed_mb_per_trial"] = (
            per_trial("channel.observe.computed_mb"), "MB")
        metrics["channel.khatri_rao.computed_mb_per_trial"] = (
            per_trial("channel.khatri_rao.computed_mb"), "MB")
        metrics["recovery.svd_path_calls_per_trial"] = (
            per_trial("recovery.measurement_pinv.svd_path_calls"), "count")
        metrics["recovery.recover_channel.computed_gflop_per_trial"] = (
            per_trial("recovery.recover_channel.computed_gflop"), "GFLOP")
        metrics["estimator.tls_phase_ratio.degenerate_per_trial"] = (
            errors["estimator.tls_phase_ratio", "DegenerateGeometryError"] / trials,
            "count")

        wall_ns = wall_s * 1e9
        sweep_self_ns = wall_ns - top_ns
        metrics["montecarlo.self_ms_per_trial"] = (sweep_self_ns / 1e6 / trials, "ms")
        p50, p90 = (np.percentile(trial_ms, [50, 90]) if trial_ms else (0.0, 0.0))
        metrics["montecarlo.run_trial.ms_p50"] = (float(p50), "ms")
        metrics["montecarlo.run_trial.ms_p90"] = (float(p90), "ms")
        metrics["montecarlo.run_trial.samples"] = (len(trial_ms), "count")
        prefix = "montecarlo.run_trial.failures."
        for stage in FAILURE_STAGES:
            metrics[f"montecarlo.failures.{stage}"] = (self.counters[prefix + stage], "count")
        failed = sum(v for k, v in self.counters.items() if k.startswith(prefix))
        metrics["montecarlo.failed_trial_frac"] = (failed / trials, "frac")
        # the reported self times plus the sweep's own time, over the traced
        # wall time: 1 when the per-layer metrics cover every span once
        accounted_ms = metrics["montecarlo.self_ms_per_trial"][0] + sum(
            metrics[f"{layer}.{fn}.ms_per_trial"][0]
            for layer, names in LAYERS.items() for fn in names)
        metrics["trace.accounted_frac"] = (accounted_ms * trials / (wall_s * 1e3), "frac")
        metrics["trace.ms_per_trial"] = (wall_s * 1e3 / trials, "ms")
        metrics["trace.missing_names"] = (len(self.missing), "count")
        return metrics
