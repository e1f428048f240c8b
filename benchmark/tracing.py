"""Spans at the program's module boundaries, recorded from outside.

The tracer replaces public functions with timing wrappers in the namespace
where their caller looks them up (for example `cli.run_solver`, which the
CLI imported from `solvers`, or `solvers.prox_eval`, which the sweep calls),
and restores them afterwards. Each call becomes a span (name, start, end,
parent), kept in flat arrays in memory and written out when the run ends.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import math
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = {}
        self._stack: list = []
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as one span named `name`."""
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """A stand-in for fn that records a span per call; `count(result)`,
        when given, returns (counter, amount) to add to self.counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                key, amount = count(result)
                self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return traced

    def install(self, targets) -> None:
        """targets: (owner, attribute, span name, count or None) tuples."""
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, count))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.start)

    def summarize(self, lo: int, hi: int) -> dict:
        """Per span name, over spans lo..hi-1: total time, self time (span
        time minus its child spans) and call count."""
        # slicing copies, so the arrays keep growing freely afterwards
        name = np.frombuffer(self.name[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32)
        dur = np.frombuffer(self.end[lo:hi]) - np.frombuffer(self.start[lo:hi])
        inner = parent >= lo
        child = np.bincount(parent[inner] - lo, weights=dur[inner], minlength=hi - lo)
        k = len(self.names)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        calls = np.bincount(name, minlength=k)
        return {
            n: {"total": float(total[i]), "self": float(own[i]), "calls": int(calls[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _sweeps(trace) -> tuple:
    return "solvers.sweeps", len(trace) - 1


def _trial_sweeps(result) -> tuple:
    traces, _mean = result
    return "rp.trial_sweeps", sum(len(t) - 1 for t in traces)


def _expected_steps(expect) -> tuple:
    return "rp.expected_steps", int(expect.ks[-1])


def layer_targets(cli, model, solvers, rp, spectral) -> list:
    """Every boundary the traced run wraps, named by layer."""
    return [
        (cli, "load_instance", "model.load", None),
        (cli, "run_solver", "solvers.run_solver", _sweeps),
        (cli, "run_rp_solver", "rp.run_rp_solver", _trial_sweeps),
        (cli, "run_expected_iteration", "rp.run_expected_iteration", _expected_steps),
        (cli, "analyze_instance", "spectral.analyze_instance", None),
        (cli, "save_report", "cli.write", None),
        (solvers.Trace, "to_csv", "cli.write", None),
        (rp.ExpectationTrace, "to_csv", "cli.write", None),
        (model.ProblemInstance, "objective", "model.objective", None),
        (solvers, "prox_eval", "prox.prox_eval", None),
        (solvers, "subdiff_distance", "prox.subdiff", None),
        (model, "subdiff_distance", "prox.subdiff", None),
        (rp, "permutation_at", "rp.permutation_at", None),
        (rp, "expected_update_operator", "rp.expected_update_operator", None),
        (spectral, "build_Q_M", "spectral.build_Q_M", None),
        (spectral, "build_perm_matrices", "spectral.build_perm_matrices", None),
        (spectral, "check_eig_QS", "spectral.checks", None),
        (spectral, "check_M_spectrum", "spectral.checks", None),
        (spectral, "rank_identity_check", "spectral.checks", None),
        (spectral, "bcd_rate_matrices", "spectral.bcd_rates", None),
    ]


# (metric, unit): how each per-layer metric is read off one traced pass
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("model.load_s", "s"),
    ("model.objective_s", "s"),
    ("model.objective_calls", "count"),
    ("prox.prox_eval_s", "s"),
    ("prox.prox_eval_calls", "count"),
    ("prox.subdiff_s", "s"),
    ("prox.subdiff_calls", "count"),
    ("solvers.run_self_s", "s"),
    ("solvers.sweeps", "count"),
    ("solvers.self_us_per_sweep", "us"),
    ("rp.trials_self_s", "s"),
    ("rp.trial_sweeps", "count"),
    ("rp.permutation_s", "s"),
    ("rp.permutation_calls", "count"),
    ("rp.expected_operator_self_s", "s"),
    ("rp.expected_iteration_self_s", "s"),
    ("rp.expected_steps", "count"),
    ("spectral.build_Q_M_self_s", "s"),
    ("spectral.perm_matrices_s", "s"),
    ("spectral.perm_matrices_calls", "count"),
    ("spectral.checks_s", "s"),
    ("spectral.bcd_rates_s", "s"),
    ("process.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_values(spans: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced pass from its span summary and
    counters (cli.bytes_written, process.cpu_s and trace.overhead_s are
    measured by the runner)."""

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    sweeps = counts.get("solvers.sweeps", 0)
    run_self = get("solvers.run_solver", "self")
    return {
        "cli.self_s": get("cli.main", "self"),
        "cli.write_s": get("cli.write", "total"),
        "model.load_s": get("model.load", "total"),
        "model.objective_s": get("model.objective", "total"),
        "model.objective_calls": get("model.objective", "calls"),
        "prox.prox_eval_s": get("prox.prox_eval", "total"),
        "prox.prox_eval_calls": get("prox.prox_eval", "calls"),
        "prox.subdiff_s": get("prox.subdiff", "total"),
        "prox.subdiff_calls": get("prox.subdiff", "calls"),
        "solvers.run_self_s": run_self,
        "solvers.sweeps": sweeps,
        "solvers.self_us_per_sweep": 1e6 * run_self / sweeps if sweeps else 0.0,
        "rp.trials_self_s": get("rp.run_rp_solver", "self"),
        "rp.trial_sweeps": counts.get("rp.trial_sweeps", 0),
        "rp.permutation_s": get("rp.permutation_at", "total"),
        "rp.permutation_calls": get("rp.permutation_at", "calls"),
        "rp.expected_operator_self_s": get("rp.expected_update_operator", "self"),
        "rp.expected_iteration_self_s": get("rp.run_expected_iteration", "self"),
        "rp.expected_steps": counts.get("rp.expected_steps", 0),
        "spectral.build_Q_M_self_s": get("spectral.build_Q_M", "self"),
        "spectral.perm_matrices_s": get("spectral.build_perm_matrices", "total"),
        "spectral.perm_matrices_calls": get("spectral.build_perm_matrices", "calls"),
        "spectral.checks_s": get("spectral.checks", "total"),
        "spectral.bcd_rates_s": get("spectral.bcd_rates", "total"),
    }
