"""Span tracing of the program's layers, installed from outside the program.

`Tracer.installed()` wraps the public functions of each layer for the
duration of a `with` block.  A function bound elsewhere by `from .x import y`
is replaced in every loaded `rqls` module that holds it; methods are replaced
on their class.  Each call records a span (name, start, end, parent index)
in memory; work counts are taken from the call's arguments or result.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

from rqls import estimator, experiments, fourier, kernel_pf, kernel_rte, pauli, sampler, simulator


def _n_cp(args, kw, plan):
    return {"kernel_pf.n_cp": plan.n_cp_per_sample}


def _rte_segments(args, kw, _):
    return {"kernel_rte.segments": args[2]}


def _rte_batch(args, kw, _):
    n, r = args[5], args[2]
    return {"kernel_rte.batch.samples": n, "kernel_rte.batch.segments": n * r}


def _mc_samples(args, kw, _):
    return {"estimator.monte_carlo_mean.samples": args[2]}


def _draws(args, kw, _):
    return {"sampler.sample_batch.draws": args[2]}


def _terms(args, kw, values):
    return {"fourier.evaluate.terms": args[0].n_terms * len(values)}


def _solver_reuse(args, kw, report):
    if args[1].kernel not in ("exact", "pf"):
        return {}
    return {"estimator.cached_kernel.samples": report.n_samples,
            "estimator.cached_kernel.distinct": report.diagnostics["kernel_cache_size"]}


# (span name, owner, attribute, work counter)
TARGETS = (
    ("pauli.pauli_decompose", pauli, "pauli_decompose", None),
    ("pauli.commutator_constant", pauli, "commutator_constant", None),
    ("pauli.materialize", pauli, "materialize", None),
    ("pauli.to_matrix", pauli.PauliString, "to_matrix", None),
    ("fourier.gauss_legendre", fourier, "gauss_legendre", None),
    ("fourier.build_series", fourier, "build_series", None),
    ("fourier.evaluate", fourier.FourierSeries, "evaluate", _terms),
    ("sampler.sample_rng", sampler, "sample_rng", None),
    ("sampler.alias_build", sampler.AliasTable, "__init__", None),
    ("sampler.sample", sampler.TimeSampler, "sample", None),
    ("sampler.sample_batch", sampler.TimeSampler, "sample_batch", _draws),
    ("kernel_pf.build_pf", kernel_pf, "build_pf", _n_cp),
    ("kernel_rte.segment_model", kernel_rte, "segment_model", None),
    ("kernel_rte.sample_rte_unitary", kernel_rte, "sample_rte_unitary", _rte_segments),
    ("kernel_rte.batch", kernel_rte, "sample_rte_overlaps_batch", _rte_batch),
    ("simulator.exact_evolution", simulator, "exact_evolution", None),
    ("simulator.hadamard_shot", simulator, "hadamard_shot", None),
    ("estimator.run_solver", estimator, "run_solver", _solver_reuse),
    ("estimator.overlap_table_exact", estimator, "overlap_table_exact", None),
    ("estimator.overlap_table_pf", estimator, "overlap_table_pf", None),
    ("estimator.monte_carlo_mean", estimator, "monte_carlo_mean", _mc_samples),
    ("experiments.rmse_sweep", experiments, "rmse_sweep", None),
    ("experiments.rte_single", experiments, "rte_single", None),
)


COUNTS = (
    "kernel_pf.n_cp", "kernel_rte.segments", "kernel_rte.batch.samples",
    "kernel_rte.batch.segments", "estimator.monte_carlo_mean.samples",
    "sampler.sample_batch.draws", "fourier.evaluate.terms",
    "estimator.cached_kernel.samples", "estimator.cached_kernel.distinct",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter(dict.fromkeys(COUNTS, 0))
        self._stack = []

    def _wrap(self, name, fn, work):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kw):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kw)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                counts.update(work(args, kw, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rqls" or n.startswith("rqls."))]
        saved = []
        try:
            for name, owner, attr, work in TARGETS:
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, work)
                holders = [owner] if isinstance(owner, type) else [
                    m for m in modules if m.__dict__.get(attr) is original]
                for holder in holders:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def _self_times(self):
        """Each span's duration minus its children's."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def layer_totals(self):
        """{span name: (calls, self seconds)}."""
        calls, self_s = Counter(), defaultdict(float)
        for (name, *_), own in zip(self.spans, self._self_times()):
            calls[name] += 1
            self_s[name] += own
        return {name: (calls[name], self_s[name]) for name, *_ in TARGETS}

    def self_split(self):
        """(self seconds of spans with a traced parent, self seconds of root
        spans).  A root's self time holds whatever untraced code it calls,
        so only the first share shows how much time the named layers
        explain below the entry points."""
        below = roots = 0.0
        for (_, _, _, parent), own in zip(self.spans, self._self_times()):
            if parent >= 0:
                below += own
            else:
                roots += own
        return below, roots

    def write(self, path):
        """One CSV row per span, times in ns from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{round((start - t0) * 1e9)},{round((end - t0) * 1e9)},{parent}\n")
