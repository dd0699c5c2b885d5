"""Spans around the calls into each ke-zeta layer, and the per-layer metrics.

The package itself is not instrumented.  `install` replaces each traced
public function with a wrapper that records a span, in the defining module
and wherever another module bound it by name (`from .x import f`) or keeps it
in a module-level table (verify's criterion dispatch).  `uninstall` puts the
originals back.  Spans stay in memory and are written out when the run ends.

A per-layer metric is computed from the spans and job results of the traced
pass over the workload's own jobs.  A layer that pass does not reach is
measured from the probe set every traced run ends with: one small job per
layer plus direct calls of kernels no job reaches on its own.  So every
metric has a value on every workload, and the report says which source fed
it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "attrs")

    def __init__(self, name, job, parent, start):
        self.name, self.job, self.parent, self.start = name, job, parent, start
        self.end = start
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"name": self.name, "job": self.job, "parent": self.parent,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Tracer:
    """Span recorder for one single-threaded run; `job` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self.job, self._stack[-1] if self._stack else -1, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(result, args, kwargs)
            return result

        return traced


def _mean_field_m(args, kwargs) -> int:
    return kwargs.get("m", args[2] if len(args) > 2 else 800)  # solve_mean_field(curve, beta, m=800)


# (module, public function, span name, attributes taken from the call)
TARGETS = (
    ("closedforms", "selberg_gamma_product", "closedforms.build", None),
    ("closedforms", "selberg_integral_finite", "closedforms.finite", None),
    ("closedforms", "zero_free_in_tube", "closedforms.tube", lambda r, a, k: {"families": r.families_checked}),
    ("gammaprod", "eval_gamma_product", "gammaprod.eval", None),
    ("gammaprod", "zeros_and_poles_in_strip", "gammaprod.strip", None),
    ("stability", "classify", "stability.classify", None),
    ("meanfield", "solve_mean_field", "meanfield.solve",
     lambda r, a, k: {"m": _mean_field_m(a, k), "iterations": r.iterations}),
    ("meanfield", "free_energy_functional", "meanfield.energy", lambda r, a, k: {"m": a[0].m}),
    ("meanfield", "solve_poisson", "meanfield.poisson", None),
    ("meanfield", "phi_n_approximant", "meanfield.phin", lambda r, a, k: {"m": a[0].m}),
    *(("montecarlo", fn, "montecarlo.estimate", lambda r, a, k: {"samples": r.n_samples})
      for fn in ("mc_selberg", "mc_circular", "mc_gaussian_det_ratio", "mc_sphere_partition")),
    ("montecarlo", "free_energy_curve", "montecarlo.free_energy_curve", None),
    ("sampler", "mean_energy_run", "sampler.mean_energy_run", None),
    ("sampler", "run_chain", "sampler.run_chain",
     lambda r, a, k: {"steps": (r.burn_in + r.sweeps) * r.n_points, "chains": r.chains,
                      "acceptance": float(np.mean(r.acceptance_rate))}),
    ("sampler", "marginal_histogram", "sampler.histogram", lambda r, a, k: {"ess": r.effective_sample_size}),
    ("sampler", "mean_energy_estimate", "sampler.mean_energy_estimate",
     lambda r, a, k: {"tau_int": r.diagnostics["tau_int"]}),
    ("verify", "run_verify", "verify.run", None),
    *(("verify", f"criterion_{c}", f"verify.criterion_{c}", None) for c in range(1, 13)),
)


def install(tracer: Tracer) -> list:
    """Wrap every target everywhere the package refers to it; returns the undo list."""
    modules = [m for name, m in list(sys.modules.items()) if name == "kezeta" or name.startswith("kezeta.")]
    undo = []
    for modname, attr, span_name, attrs in TARGETS:
        fn = getattr(sys.modules[f"kezeta.{modname}"], attr)
        traced = tracer.wrap(span_name, fn, attrs)
        for module in modules:
            namespace = vars(module)
            tables = [namespace] + [v for k, v in namespace.items() if isinstance(v, dict) and not k.startswith("__")]
            for table in tables:
                for key, value in list(table.items()):
                    if value is fn:
                        undo.append((table, key, fn))
                        table[key] = traced
    return undo


def uninstall(undo: list) -> None:
    for table, key, fn in reversed(undo):
        table[key] = fn


# ---------------------------------------------------------------------------
# probe set: runs traced after the workload in every traced run

def probe_jobs(seed: int, refs: dict) -> list:
    """One small job per layer, at the workloads' problem sizes where cheap."""
    seeds = (workloads.job_seed("probe", seed, k) for k in range(len(workloads.IMPORTANCE_JOBS) + 2))
    triple = (Fraction(1, 2), Fraction(1, 2), Fraction(2, 5))
    jobs = [
        workloads.stability_job(triple, 6),
        workloads.selberg_value_job(triple, 6),
        workloads.tube_job(6),
        workloads.line_strip_job(Fraction(1, 2), Fraction(1, 2), 6),
        workloads.meanfield_job("1", 800),
        workloads.meanfield_job("1", 6400),
        workloads.poisson_job(),
        workloads.phin_job(6400),
    ]
    jobs += [workloads.mc_job(label, argv, refs["mc"][label], 20_000, next(seeds))
             for label, argv, _, _ in workloads.IMPORTANCE_JOBS]
    jobs.append(workloads.ladder_job(refs, "0.5:1:0.25", 20_000, next(seeds), checked=(0.5, 1.0)))
    jobs.append(workloads.chain_job(refs, 8, 200, next(seeds)))
    jobs.append(workloads.verify_job())
    return jobs


KERNEL_REPEATS = 3


def kernel_probes(tracer: Tracer, seed: int) -> dict:
    """Direct calls of kernels no CLI job reaches on its own; per-unit medians."""
    from kezeta.gammaprod import log_gamma
    from kezeta.montecarlo import ProposalMixture
    from kezeta.sphere import pairwise_log_chordal, sample_uniform_array
    import kezeta

    rng = np.random.default_rng(seed)
    table = Path(kezeta.__file__).parent / "_data" / "loggamma_reference.csv"
    with table.open() as fh:
        zs = [complex(float(r["re_z"]), float(r["im_z"])) for r in csv.DictReader(fh)]
    batch = sample_uniform_array(rng, 20_000 * 8).reshape(20_000, 8, 3)
    mixture = ProposalMixture.cluster_safe((0.5, 0.5, 0.5))
    points = mixture.sample(rng, 200_000)

    def timed(name: str, units: int, call) -> float:
        per_unit = []
        for _ in range(KERNEL_REPEATS):
            with tracer.span(name) as span:
                call()
            per_unit.append(span.seconds * 1e9 / units)
        return statistics.median(per_unit)

    return {
        "gammaprod.log_gamma.ns_per_call": timed("probe.log_gamma", len(zs), lambda: [log_gamma(z) for z in zs]),
        "sphere.pairwise.ns_per_pair": timed("probe.pairwise", 20_000 * 28, lambda: pairwise_log_chordal(batch)),
        "sphere.uniform.ns_per_point": timed("probe.uniform", 200_000, lambda: sample_uniform_array(rng, 200_000)),
        "montecarlo.proposal.sample.ns_per_point":
            timed("probe.proposal.sample", 200_000, lambda: mixture.sample(rng, 200_000)),
        "montecarlo.proposal.log_density.ns_per_point":
            timed("probe.proposal.log_density", 200_000, lambda: mixture.log_density(points)),
    }


# ---------------------------------------------------------------------------
# per-layer metrics

PHASES = ("pass", "probe")  # traced pass first; the probe set fills in


def _self_seconds(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, child)]


class LayerReport:
    """Per-layer metrics from the traced pass, falling back to the probe set."""

    def __init__(self, tracer: Tracer, results: dict):
        self.spans = tracer.spans
        self.self_s = _self_seconds(self.spans)
        self.results = results
        self.metrics: dict = {}

    def spans_of(self, name: str, where=lambda span: True):
        for phase in PHASES:
            found = [i for i, s in enumerate(self.spans)
                     if s.job is not None and s.job[0] == phase and s.name == name and where(s)]
            if found:
                return found, phase
        return [], "none"

    def results_of(self, where):
        for phase in PHASES:
            found = [(k, r) for k, r in enumerate(self.results[phase]) if r.payload is not None and where(r)]
            if found:
                return found, phase
        return [], "none"

    def put(self, name: str, unit: str, value, n: int, source: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit, "n": n, "source": source}

    def timing(self, name: str, span_name: str, unit: str, stat: str = "p50", where=lambda s: True) -> None:
        idx, source = self.spans_of(span_name, where)
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        secs = [self.spans[i].seconds for i in idx] or [0.0]
        value = {"p50": statistics.median(secs), "p95": float(np.percentile(secs, 95)), "sum": sum(secs)}[stat]
        self.put(name, unit, value * scale, len(idx), source)

    def count(self, name: str, span_name: str) -> None:
        idx, source = self.spans_of(span_name)
        self.put(name, "count", len(idx), len(idx), source)

    def attr_sum(self, name: str, span_name: str, attr: str, unit: str = "count") -> None:
        idx, source = self.spans_of(span_name)
        self.put(name, unit, sum(self.spans[i].attrs.get(attr, 0) for i in idx), len(idx), source)

    def self_sum(self, name: str, span_name: str, unit: str) -> None:
        idx, source = self.spans_of(span_name)
        scale = {"s": 1.0, "ms": 1e3}[unit]
        self.put(name, unit, sum(self.self_s[i] for i in idx) * scale, len(idx), source)


def layer_metrics(tracer: Tracer, results: dict, refs: dict, kernels: dict, overhead_s: float) -> dict:
    rep = LayerReport(tracer, results)

    rep.timing("closedforms.build.ms_p50", "closedforms.build", "ms")
    rep.timing("closedforms.finite.ms_p50", "closedforms.finite", "ms")
    rep.timing("closedforms.finite.ms_p95", "closedforms.finite", "ms", "p95")
    rep.count("closedforms.finite.calls", "closedforms.finite")
    rep.timing("closedforms.tube.ms_p50", "closedforms.tube", "ms")
    rep.attr_sum("closedforms.tube.families", "closedforms.tube", "families")
    rep.timing("gammaprod.eval.ms_p50", "gammaprod.eval", "ms")
    rep.count("gammaprod.eval.calls", "gammaprod.eval")
    rep.timing("gammaprod.strip.ms_p50", "gammaprod.strip", "ms")
    rep.timing("stability.classify.us_p50", "stability.classify", "us")
    rep.count("stability.classify.calls", "stability.classify")

    for m in (800, 6400):
        rep.timing(f"meanfield.solve_m{m}.ms_p50", "meanfield.solve", "ms", where=lambda s, m=m: s.attrs.get("m") == m)
        rep.timing(f"meanfield.energy_m{m}.ms_p50", "meanfield.energy", "ms", where=lambda s, m=m: s.attrs.get("m") == m)
        rep.timing(f"meanfield.phin_m{m}.ms_p50", "meanfield.phin", "ms", where=lambda s, m=m: s.attrs.get("m") == m)
    rep.timing("meanfield.poisson.ms_p50", "meanfield.poisson", "ms")
    rep.attr_sum("meanfield.newton_iters", "meanfield.solve", "iterations")

    for label, _, _, _ in workloads.IMPORTANCE_JOBS:
        found, source = rep.results_of(lambda r, label=label: r.job.label == label)
        values = {"samples_per_s": 0.0, "rel_se2_x_s": 0.0, "abs_dev_se": 0.0, "hill": 0.0}
        if found:
            k, res = found[0]
            est = res.payload["estimate"]
            secs = next(s.seconds for s in rep.spans if s.job == (source, k) and s.name == "montecarlo.estimate")
            values = {
                "samples_per_s": est["n_samples"] / secs,
                "rel_se2_x_s": (est["std_error"] / est["mean"]) ** 2 * secs,
                "abs_dev_se": abs(est["mean"] - refs["mc"][label]) / est["std_error"],
                "hill": est["diagnostics"]["tail_index_estimate"],
            }
        for key, unit in (("samples_per_s", "1/s"), ("rel_se2_x_s", "s"), ("abs_dev_se", "SE"), ("hill", "index")):
            rep.put(f"montecarlo.{label}.{key}", unit, values[key], len(found), source)
    found, source = rep.results_of(lambda r: r.job.label != "")
    fallbacks = sum(any("median-of-means" in w for w in r.payload["estimate"]["diagnostics"]["warnings"])
                    for _, r in found)
    rep.put("montecarlo.mom_fallbacks", "count", fallbacks, len(found), source)
    rep.timing("montecarlo.free_energy_curve.s", "montecarlo.free_energy_curve", "s", "sum")
    rep.count("montecarlo.free_energy_curve.nodes", "sampler.mean_energy_run")

    idx, source = rep.spans_of("sampler.run_chain", lambda s: s.attrs)  # a call that raised has no attrs
    self_s = sum(rep.self_s[i] for i in idx)
    steps = sum(rep.spans[i].attrs["steps"] for i in idx)
    lanes = sum(rep.spans[i].attrs["steps"] * rep.spans[i].attrs["chains"] for i in idx)
    rep.put("sampler.run_chain.calls", "count", len(idx), len(idx), source)
    rep.put("sampler.run_chain.self_s", "s", self_s, len(idx), source)
    rep.put("sampler.step_us", "us", self_s / max(steps, 1) * 1e6, len(idx), source)
    rep.put("sampler.lane_updates_per_s", "1/s", lanes / self_s if self_s else 0.0, len(idx), source)
    rep.put("sampler.acceptance", "ratio",
            statistics.mean(rep.spans[i].attrs["acceptance"] for i in idx) if idx else 0.0, len(idx), source)
    idx, source = rep.spans_of("sampler.mean_energy_estimate", lambda s: s.attrs)
    rep.put("sampler.tau_int", "samples",
            statistics.median(rep.spans[i].attrs["tau_int"] for i in idx) if idx else 0.0, len(idx), source)
    idx, source = rep.spans_of("sampler.histogram", lambda s: s.attrs)
    rep.put("sampler.ess", "count", sum(rep.spans[i].attrs["ess"] for i in idx), len(idx), source)
    found, source = rep.results_of(lambda r: r.job.argv[0] == "sample")
    l1 = [workloads.l1_vs_meanfield(refs, r.payload) for _, r in found]
    rep.put("sampler.l1_vs_meanfield", "ratio", statistics.median(l1) if l1 else 0.0, len(l1), source)
    rep.timing("sampler.histogram.ms", "sampler.histogram", "ms", "sum")
    rep.timing("sampler.mean_energy_estimate.ms", "sampler.mean_energy_estimate", "ms", "sum")

    for command in ("stability", "zeta", "oracle"):
        rep.timing(f"cli.{command}.ms_p50", f"cli.{command}", "ms")
    idx = [i for i, s in enumerate(rep.spans) if s.job and s.job[0] == "pass" and s.name.startswith("cli.")]
    rep.put("cli.self_ms", "ms", sum(rep.self_s[i] for i in idx) * 1e3, len(idx), "pass")
    rep.put("cli.bytes_written", "bytes", sum(r.bytes_written for r in results["pass"]), len(results["pass"]), "pass")
    rep.self_sum("cli.sample.csv_ms", "cli.sample", "ms")

    rep.timing("verify.quick.s", "verify.run", "s", "sum")
    for cid in (2, 3, 4, 7, 11, 12):
        rep.timing(f"verify.criterion_{cid}.s", f"verify.criterion_{cid}", "s", "sum")

    for name, value in kernels.items():
        rep.put(name, name.rsplit(".", 1)[1].split("_per_")[0], value, KERNEL_REPEATS, "probe")
    rep.put("trace.overhead_s", "s", overhead_s, 1, "pass")
    rep.put("trace.spans", "count", sum(1 for s in rep.spans if s.job and s.job[0] == "pass"), 1, "pass")
    return rep.metrics
