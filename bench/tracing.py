"""Spans and counters around framekit's public functions, from outside.

``Tracer.install()`` replaces each listed function in every ``framekit``
module namespace that binds it with a wrapper that records a span (name,
start, end, parent span, job id).  ``scipy.optimize.linprog`` and SLSQP
calls of ``scipy.optimize.minimize`` (the polish solvers framekit.search
calls through the ``scipy.optimize`` module) get spans too, and
``numpy.linalg.svd`` gets a call counter.  Nothing is recorded outside a job,
so the oracle's own numpy calls do not count.  A recursive call of a
wrapped function (``round_floats``) stays inside its outer span.

Spans stay in memory; ``metrics(passes)`` derives self times (span duration
minus the time its child spans cover) and divides every per-layer metric by
the number of passes, so counts are per pass of the fixed job list.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.optimize

# Wrapped functions, by framekit module.
TARGETS = {
    "frames": ("build_operator", "k_frame_bounds", "is_parseval_k_frame", "canonical_k_dual",
               "build_dual_system", "dual_parameterization", "reconstruct_dual"),
    "erasures": ("build_report", "r2_closed_form_argmax", "uniformity", "r2_simplified_uniform",
                 "rm_bruteforce"),
    "pairs": ("pair_bounds", "is_r2_optimal_pair", "construct_optimal_self_dual"),
    "duals": ("weight_partition", "is_linearly_connected_pair", "connected_decomposition",
              "min_r1_fixed_frame", "construct_spectrally_optimal_dual", "perturbation_family",
              "canonical_certificate"),
    "search": ("minimize_measure", "minimize_r2_within_uniform", "brute_force_grid_oracle"),
    "io": ("load_frame_file", "round_floats"),
    "fixtures": ("verify_example",),
    "cli": ("main",),
}

COUNT, SECONDS, BYTES = "count/pass", "s/pass", "computed_B/pass"

# Reported per-layer metrics: name -> unit.  ``<layer>.<function>.calls``
# counts spans, ``.s`` is summed self time, the rest are counters.
PER_LAYER = {
    "frames.dual_parameterization.calls": COUNT,
    "frames.dual_parameterization.s": SECONDS,
    "frames.dual_parameterization.bytes": BYTES,
    "frames.is_parseval_k_frame.calls": COUNT,
    "frames.build_operator.s": SECONDS,
    "frames.k_frame_bounds.s": SECONDS,
    "frames.canonical_k_dual.s": SECONDS,
    "frames.build_dual_system.s": SECONDS,
    "frames.reconstruct_dual.s": SECONDS,
    "linalg.svd.calls": COUNT,
    "search.minimize_measure.calls": COUNT,
    "search.minimize_measure.s": SECONDS,
    "search.minimize_measure.iters": COUNT,
    "search.minimize_r2_within_uniform.s": SECONDS,
    "search.brute_force_grid_oracle.s": SECONDS,
    "search.polish_lp.calls": COUNT,
    "search.polish_lp.s": SECONDS,
    "search.polish_slsqp.calls": COUNT,
    "search.polish_slsqp.s": SECONDS,
    "search.polish_slsqp.nit": COUNT,
    "search.polish_slsqp.success_ratio": "ratio",
    "duals.is_linearly_connected_pair.calls": COUNT,
    "duals.is_linearly_connected_pair.s": SECONDS,
    "duals.connected_decomposition.s": SECONDS,
    "duals.canonical_certificate.s": SECONDS,
    "duals.canonical_certificate.undetermined": COUNT,
    "duals.perturbation_family.s": SECONDS,
    "duals.construct_spectrally_optimal_dual.s": SECONDS,
    "duals.min_r1_fixed_frame.s": SECONDS,
    "duals.weight_partition.s": SECONDS,
    "erasures.build_report.s": SECONDS,
    "erasures.r2_closed_form_argmax.s": SECONDS,
    "erasures.r2_closed_form_argmax.pairs": COUNT,
    "erasures.uniformity.s": SECONDS,
    "erasures.r2_simplified_uniform.s": SECONDS,
    "erasures.rm_bruteforce.s": SECONDS,
    "erasures.rm_bruteforce.patterns": COUNT,
    "pairs.pair_bounds.s": SECONDS,
    "pairs.is_r2_optimal_pair.s": SECONDS,
    "pairs.construct_optimal_self_dual.s": SECONDS,
    "io.load_frame_file.s": SECONDS,
    "io.round_floats.s": SECONDS,
    "cli.main.self_s": SECONDS,
    "fixtures.verify_example.s": SECONDS,
    "trace.overhead_frac": "ratio",
}


def _on_dual_parameterization(counts, args, result):
    counts["frames.dual_parameterization.bytes"] += result.base.synthesis.nbytes + result.basis.nbytes


def _on_minimize_measure(counts, args, result):
    counts["search.minimize_measure.iters"] += len(result.trace)


def _on_r2_argmax(counts, args, result):
    N = args[0].n_vectors
    counts["erasures.r2_closed_form_argmax.pairs"] += N * (N - 1) // 2


def _on_rm(counts, args, result):
    counts["erasures.rm_bruteforce.patterns"] += math.comb(args[0].n_vectors, args[1])


def _on_certificate(counts, args, result):
    counts["duals.canonical_certificate.undetermined"] += result.verdict.value == "undetermined"


def _on_slsqp(counts, args, result):
    counts["search.polish_slsqp.nit"] += int(getattr(result, "nit", 0))
    counts["search.polish_slsqp.successes"] += bool(result.success)


HOOKS = {
    "frames.dual_parameterization": _on_dual_parameterization,
    "search.minimize_measure": _on_minimize_measure,
    "erasures.r2_closed_form_argmax": _on_r2_argmax,
    "erasures.rm_bruteforce": _on_rm,
    "duals.canonical_certificate": _on_certificate,
    "search.polish_slsqp": _on_slsqp,
}


class Tracer:
    """In-memory spans and counters of one traced worker run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job id]
        self.stack = []
        self.job = None
        self.counts = defaultdict(float)

    # -- spans -----------------------------------------------------------
    def begin_job(self, job_id: str) -> None:
        self.job = job_id
        self.stack.append(len(self.spans))
        self.spans.append(["job", time.perf_counter(), None, None, job_id])

    def end_job(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()
        self.job = None

    def _wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if tracer.job is None or tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append([name, time.perf_counter(), None, stack[-1], tracer.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer.spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "framekit" or key.startswith("framekit.")]
        for layer, names in TARGETS.items():
            mod = importlib.import_module(f"framekit.{layer}")
            for fname in names:
                original = getattr(mod, fname)
                span = f"{layer}.{fname}"
                wrapper = self._wrap(span, original, HOOKS.get(span))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

        scipy.optimize.linprog = self._wrap("search.polish_lp", scipy.optimize.linprog)
        minimize = scipy.optimize.minimize
        slsqp = self._wrap("search.polish_slsqp", minimize, HOOKS["search.polish_slsqp"])

        @functools.wraps(minimize)
        def minimize_dispatch(*args, **kwargs):
            if kwargs.get("method") == "SLSQP":
                return slsqp(*args, **kwargs)
            return minimize(*args, **kwargs)

        scipy.optimize.minimize = minimize_dispatch
        svd = np.linalg.svd
        counts = self.counts
        tracer = self

        @functools.wraps(svd)
        def svd_counted(*args, **kwargs):
            if tracer.job is not None:
                counts["linalg.svd.calls"] += 1
            return svd(*args, **kwargs)

        np.linalg.svd = svd_counted

    # -- results ---------------------------------------------------------
    def self_times(self):
        """Per span name: (calls, summed self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += (end - start) - covered
        return out

    def metrics(self, passes: int) -> dict:
        """Every per-layer metric except ``trace.overhead_frac``, per pass."""
        st = self.self_times()
        values = {}
        for metric in PER_LAYER:
            span, stat = metric.rsplit(".", 1)
            if metric == "trace.overhead_frac":
                continue
            if metric == "search.polish_slsqp.success_ratio":
                calls = st["search.polish_slsqp"][0]
                v = self.counts["search.polish_slsqp.successes"] / calls if calls else 0.0
            elif stat == "calls" and span in st:
                v = st[span][0] / passes
            elif stat in ("s", "self_s"):
                v = st[span][1] / passes
            else:
                v = self.counts[metric] / passes
            values[metric] = {"value": float(v), "unit": PER_LAYER[metric]}
        return values

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
