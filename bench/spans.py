"""Span recorder for the traced benchmark run.

The recorder wraps functions at the names their callers resolve (module
attributes and class attributes), so the package itself is not edited.
Each wrapped call made while an op is running becomes one span
``[name, start, end, op, child_s]``; ``child_s`` accumulates the time of
the spans and leaf calls directly inside it, so a span's self time is
``end - start - child_s``.

Calls that happen thousands of times per op (``bracket``, ``expm``,
``adjoint_generator``) are recorded as leaves: a call count and a time sum
per name, charged to the enclosing span's ``child_s``.  A span per call
would cost about a tenth of the op time on ``analyze-n4``.

Spans stay in memory; the benchmark turns them into per-op metrics when
the run ends.  Span and leaf names are ``<layer>.<what>``, where the layer
is the package module that does the work.
"""

import statistics
import tracemalloc
from time import perf_counter

import numpy as np

#: Layers that the traced ops pass through.  ``channels`` has no entry:
#: preset documents are generated before timing, so no timed call reaches it.
LAYERS = ("cli", "su_basis", "affine", "states", "dissipator", "liealg",
          "dynamics")

#: Names resolved in ``lindbladctl.cli`` and the span or leaf they record.
CLI_SPANS = {
    "main": "cli.main",
    "dumps_report": "cli.report",
    "cloud_csv": "cli.csv",
    "trajectory_csv": "cli.csv",
    "gellmann_basis": "su_basis.gellmann_basis",
    "assemble_dissipator": "dissipator.assemble",
    "check_psd": "dissipator.check_psd",
    "is_unital": "dissipator.is_unital",
    "split_trace": "dissipator.split_trace",
    "fixed_point": "dissipator.fixed_point",
    "accessibility": "liealg.accessibility",
    "noncontrollability_certificates": "liealg.certificates",
    "hamiltonian_controllability": "liealg.hamiltonian",
    "is_physical": "states.is_physical",
    "propagate": "dynamics.propagate",
    "sample_reachable": "dynamics.sample_reachable",
}
CLI_LEAVES = {
    "adjoint_generator": "su_basis.adjoint_generator",
    "purity": "states.purity",
}


class Tracer:
    """Records spans and leaf counts for the ops of one traced phase."""

    def __init__(self):
        self.spans = []
        self.leaves = {}
        self.assemble_peaks = []
        self.closures = []
        self.op = None
        self._stack = []
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_return=None):
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self.op, 0.0]
            self.spans.append(rec)
            self._stack.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][4] += rec[2] - rec[1]
            if on_return is not None:
                on_return(args, result)
            return result
        return wrapper

    def _leaf(self, name, fn):
        acc = self.leaves.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                acc[0] += 1
                acc[1] += dt
                if self._stack:
                    self._stack[-1][4] += dt
        return wrapper

    def _assemble(self, fn):
        timed = self._span("dissipator.assemble", fn)

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return timed(*args, **kwargs)
            finally:
                self.assemble_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return wrapper

    def _record_closure(self, args, result):
        seeds = [g.homogeneous for g in args[0]]
        self.closures.append((result.dim, result.generations, seeds))

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, make):
        raw = vars(owner)[attr]
        self._patches.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self, cli, liealg, dynamics):
        """Wrap the names the CLI, the closure and the sampler resolve."""
        for attr, name in CLI_SPANS.items():
            if attr == "assemble_dissipator":
                self._patch(cli, attr, self._assemble)
            else:
                self._patch(cli, attr, lambda fn, name=name:
                            self._span(name, fn))
        for attr, name in CLI_LEAVES.items():
            self._patch(cli, attr, lambda fn, name=name: self._leaf(name, fn))
        doc = cli.SystemDocument
        self._patch(doc, "load", lambda fn: self._span("cli.load", fn))
        self._patch(doc, "to_control_system",
                    lambda fn: self._span("cli.build_system", fn))
        self._patch(liealg, "closure", lambda fn: self._span(
            "liealg.closure", fn, on_return=self._record_closure))
        self._patch(liealg, "bracket",
                    lambda fn: self._leaf("affine.bracket", fn))
        self._patch(dynamics, "expm",
                    lambda fn: self._leaf("dynamics.expm", fn))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- report -----------------------------------------------------------

    def layer_metrics(self, ops):
        """Per-op layer metrics over ``ops`` traced ops.

        Times are seconds per op, counts are calls per op; ``closure_dim``
        and ``closure_generations`` are means per closure and repeat
        exactly when every closure reaches the same verdict.
        """
        total = {}
        self_s = {}
        for name, start, end, _, child in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)

        def per_op(table, name):
            return table.get(name, 0.0) / ops

        def leaf(name):
            calls, secs = self.leaves.get(name, (0, 0.0))
            return calls / ops, secs / ops

        bracket_calls, bracket_s = leaf("affine.bracket")
        expm_calls, expm_s = leaf("dynamics.expm")
        adj_calls, adj_s = leaf("su_basis.adjoint_generator")
        dims = [dim for dim, _, _ in self.closures]
        gens = [g for _, g, _ in self.closures]
        grown = sum(dim - _seed_rank(seeds)
                    for dim, _, seeds in self.closures)

        metrics = {
            "cli.main_self_s": per_op(self_s, "cli.main"),
            "cli.load_s": per_op(total, "cli.load"),
            "cli.build_system_self_s": per_op(self_s, "cli.build_system"),
            "cli.report_s": per_op(total, "cli.report"),
            "cli.csv_s": per_op(total, "cli.csv"),
            "su_basis.adjoint_generator_calls": adj_calls,
            "su_basis.adjoint_generator_s": adj_s,
            "dissipator.assemble_s": per_op(total, "dissipator.assemble"),
            "dissipator.assemble_peak_mb":
                max(self.assemble_peaks, default=0) / 2**20,
            "dissipator.check_psd_s": per_op(total, "dissipator.check_psd"),
            "dissipator.fixed_point_s": per_op(total, "dissipator.fixed_point"),
            "states.is_physical_s": per_op(total, "states.is_physical"),
            "liealg.accessibility_self_s":
                per_op(self_s, "liealg.accessibility"),
            "liealg.closure_s": per_op(total, "liealg.closure"),
            "liealg.bracket_calls": bracket_calls,
            "liealg.bracket_yield":
                grown / (bracket_calls * ops) if bracket_calls else 0.0,
            "liealg.closure_dim": statistics.fmean(dims) if dims else 0.0,
            "liealg.closure_generations":
                statistics.fmean(gens) if gens else 0.0,
            "liealg.hamiltonian_s": per_op(total, "liealg.hamiltonian"),
            "liealg.certificates_s": per_op(total, "liealg.certificates"),
            "affine.bracket_s": bracket_s,
            "dynamics.sample_reachable_s":
                per_op(total, "dynamics.sample_reachable"),
            "dynamics.sample_self_s":
                per_op(self_s, "dynamics.sample_reachable"),
            "dynamics.expm_calls": expm_calls,
            "dynamics.expm_s": expm_s,
            "dynamics.propagate_s": per_op(total, "dynamics.propagate"),
        }
        for layer in LAYERS:
            spans = sum(v for n, v in self_s.items()
                        if n.split(".")[0] == layer)
            leaves = sum(secs for n, (_, secs) in self.leaves.items()
                         if n.split(".")[0] == layer)
            metrics[layer + ".self_s"] = (spans + leaves) / ops
        metrics["trace.coverage"] = 1.0 - self_s["cli.main"] / total["cli.main"]
        return metrics


def _seed_rank(seeds, tol=1e-9):
    """How many of the closure's seed generators are linearly independent.

    tol is the default residual tolerance of ``liealg.closure``.
    """
    flat = [s.ravel() / np.linalg.norm(s) for s in seeds
            if np.linalg.norm(s) > 0.0]
    return int(np.linalg.matrix_rank(np.array(flat), tol=tol)) if flat else 0
