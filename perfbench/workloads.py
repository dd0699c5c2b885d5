"""Job lists, reference values and output checks for the four workloads.

A job is one `ke-zeta` command line, run in-process through
`kezeta.cli.main(argv)`.  Each job carries a check that compares its output
with a reference from an independent route, or with an exact flag.  A job
fails when it exits non-zero, raises, or its output misses the reference.
Monte Carlo estimates fail beyond GATE_SE standard errors; a miss of
verify's 3 SE inside that is recorded as a note, not a failure.

Workloads are built from the benchmark seed only; the program sees nothing
but the generated argv.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

WEIGHT_GRID = tuple(Fraction(k, 10) for k in range(1, 10))


def borderline(ws) -> bool:
    """Some weight equals the sum of the others: the weight condition's edge."""
    return any(2 * w == sum(ws) for w in ws)


# every weight triple on the grid with positive degree (sum < 2), off the edge
# of the weight condition: `stability` decides the edge in floats and gets two
# of its triples wrong (see borderline_defects)
TRIPLES = tuple(t for t in itertools.combinations_with_replacement(WEIGHT_GRID, 3)
                if sum(t) < 2 and not borderline(t))

MC_SAMPLES = 250_000  # per importance job; verify uses 10^6, a quarter lets a run repeat the pass
LADDER_GRID = "0.25:1:0.0625"
LADDER_BUDGET = 100_000
LADDER_CHECK_BETAS = (0.25, 0.5, 0.75, 1.0)
CHAIN_SWEEPS = 500
SE_TOL = 3.0  # verify's tolerance for every Monte Carlo comparison: a miss is a note
# A miss is a failure beyond GATE_SE.  A run checks about 10 estimates and a
# comparison of two commits makes about 100 runs; 3 SE per estimate would fail
# a correct estimator in most comparisons (circular reached 4.6 SE once in 60
# seeds, the selberg median-of-means sits 0.9-1.4 SE low), while a broken
# weight or normalisation misses by far more than 6 SE.
GATE_SE = 6.0
L1_TOL = 0.05  # criterion 9


@dataclass
class Job:
    name: str  # stable across passes: per-job timings are keyed on it
    argv: list
    check: Callable[["Result"], list]
    label: str = ""  # names the per-job Monte Carlo metrics


@dataclass
class Result:
    job: Job
    code: Optional[int]
    seconds: float
    payload: object  # parsed stdout: dict, or the report text for verify
    out_dir: Path
    bytes_written: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # misses of verify's tolerance within the gate


def run_job(main, job: Job, out_root: Path, span=contextlib.nullcontext) -> Result:
    """Run one job in a fresh output directory, time it and check its output."""
    out = out_root / "job"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    crash = None
    with span(f"cli.{job.argv[0]}"):
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(job.argv + ["--out", str(out)])
        except Exception:  # a crash is a failed job, not a crashed benchmark
            code, crash = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
    res = Result(job, code, seconds, None, out)
    res.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    if code != 0:
        res.problems = [f"exit {code}: {(crash or stderr.getvalue()).strip()[-300:]}"]
        return res
    text = stdout.getvalue()
    try:
        res.payload = text if job.argv[0] == "verify" else json.loads(text)
        res.problems = job.check(res)
    except (ValueError, KeyError, TypeError) as exc:
        res.problems = [f"unreadable output: {exc!r}"]
    return res


def _w(ws) -> str:
    return ",".join(str(w) for w in ws)


def _expect(cond: bool, message: str) -> list:
    return [] if cond else [message]


# ---------------------------------------------------------------------------
# references, each computed once per run through the exact engine or the
# mean-field oracle, outside every timed region

def _sphere_log_z3(log_modulus: float, beta: float) -> float:
    """log Z_3 under the Z(0) = 1 pin from the plane form's log modulus
    (strip the pi^3 2^(-6 beta) chart factor)."""
    return log_modulus - 3.0 * math.log(math.pi) + 6.0 * beta * math.log(2.0)


# label, mc argv, zeta argv of the closed form, finite variance?
IMPORTANCE_JOBS = (
    ("selberg_w05_n3", ["mc", "--target", "selberg", "--w", "1/2,1/2,1/2", "--n", "3"],
     ["zeta", "--family", "selberg", "--n", "3", "--w", "1/2,1/2,1/2"], False),
    ("selberg_w05_n4", ["mc", "--target", "selberg", "--w", "1/2,1/2,1/2", "--n", "4"],
     ["zeta", "--family", "selberg", "--n", "4", "--w", "1/2,1/2,1/2"], False),
    ("selberg_w04_n4", ["mc", "--target", "selberg", "--w", "2/5,2/5,2/5", "--n", "4"],
     ["zeta", "--family", "selberg", "--n", "4", "--w", "2/5,2/5,2/5"], False),
    ("circular_n3_b1", ["mc", "--target", "circular", "--n", "3", "--beta", "1"],
     ["zeta", "--family", "circular", "--n", "3", "--beta", "1"], True),
    ("circular_n5_b2", ["mc", "--target", "circular", "--n", "5", "--beta", "2"],
     ["zeta", "--family", "circular", "--n", "5", "--beta", "2"], True),
    ("gaussdet_ratio_s0", ["mc", "--target", "gaussdet-ratio", "--n", "1", "--s", "0"],
     ["zeta", "--family", "gaussdet", "--n", "1", "--s", "0"], True),
    ("gaussdet_ratio_s05", ["mc", "--target", "gaussdet-ratio", "--n", "1", "--s", "1/2"],
     ["zeta", "--family", "gaussdet", "--n", "1", "--s", "1/2"], True),
    ("sphere_n3_b1", ["mc", "--target", "sphere", "--n", "3", "--beta", "1"],
     ["zeta", "--family", "p1three", "--beta", "1"], True),
)
FINITE_VARIANCE = tuple(label for label, _, _, fv in IMPORTANCE_JOBS if fv)


def _reference_value(label: str, payload: dict) -> float:
    if label.startswith("gaussdet"):
        return float(payload["bernstein_next_ratio"])
    if label.startswith("sphere"):
        return math.exp(_sphere_log_z3(payload["value"]["log_modulus"], 1.0))
    return float(payload["value"]["value_re"])


def _must(res: Result, what: str):
    if res.problems:
        raise RuntimeError(f"reference {what} failed: {res.problems}")
    return res.payload


def references(main, out_root: Path) -> dict:
    """Closed forms and the mean-field density every check compares with."""
    refs: dict = {"mc": {}, "free_energy": {}}
    no_check = lambda res: []  # noqa: E731 - references are trusted inputs
    for label, _, zeta_argv, _ in IMPORTANCE_JOBS:
        res = run_job(main, Job("ref", zeta_argv, no_check), out_root)
        refs["mc"][label] = _reference_value(label, _must(res, label))
    for beta in LADDER_CHECK_BETAS:
        argv = ["zeta", "--family", "p1three", "--beta", str(Fraction(beta))]
        payload = _must(run_job(main, Job("ref", argv, no_check), out_root), argv)
        refs["free_energy"][beta] = -_sphere_log_z3(payload["value"]["log_modulus"], beta) / 3.0
    argv = ["oracle", "meanfield", "--w", "1/2", "--beta", "1"]
    res = run_job(main, Job("ref", argv, no_check), out_root)
    _must(res, argv)
    with (res.out_dir / "meanfield_density.csv").open() as fh:
        rows = [(float(r["t"]), float(r["value"])) for r in csv.DictReader(fh)]
    refs["meanfield_density"] = np.array(rows)
    return refs


def bin_probabilities(density: np.ndarray, edges) -> np.ndarray:
    """Integral of the piecewise-linear density over each histogram bin."""
    t, v = density[:, 0], density[:, 1]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))])
    return np.diff(np.interp(np.asarray(edges, dtype=float), t, cum))


# ---------------------------------------------------------------------------
# exact: stability sweep, closed forms, strips, tube scans, oracles, verify

def stability_job(ws, N: int) -> Job:
    total = sum(ws)
    d = 2 - total
    stable = all(w < total - w for w in ws)
    gamma = float(Fraction(N - 1, N) * 2 * (1 - max(ws)) / d)
    # finite iff Gibbs-stable and free collisions converge (N d' < 2)
    finite = stable and N * d < 2 * (N - 1)

    def check(res):
        p = res.payload
        return (
            _expect(p["verdict"] == ("GibbsStable" if stable else "NotGibbsStable"),
                    f"verdict {p['verdict']}")
            + _expect(abs(p["gamma_N"] - gamma) <= 1e-12 * gamma, f"gamma_N {p['gamma_N']} != {gamma}")
            + _expect(p.get("integral_finite") is finite, f"integral_finite {p.get('integral_finite')}")
        )

    return Job(f"stability/{N}/{_w(ws)}", ["stability", "--w", _w(ws), "--n", str(N)], check)


def selberg_value_job(ws, N: int) -> Job:
    def check(res):
        v = res.payload["value"]
        return _expect(v["kind"] == "regular" and math.isfinite(v["value_re"]) and v["value_re"] > 0,
                       f"finite integral evaluates to {v}")

    argv = ["zeta", "--family", "selberg", "--n", str(N), "--w", _w(ws)]
    return Job(f"zeta/value/{N}/{_w(ws)}", argv, check)


def tube_job(N: int) -> Job:
    def check(res):
        return _expect(res.payload["tube"]["zero_free"] is True, f"canonical tube not zero-free at N={N}")

    return Job(f"zeta/tube/{N}", ["zeta", "--family", "selberg", "--n", str(N), "--tube", "canonical"], check)


STRIP = (Fraction(-2), Fraction(1))


def line_strip_job(a, b, N: int, expected: Optional[list] = None) -> Job:
    """Poles and zeros of the Selberg product on the line (a, b, t)."""

    def check(res):
        entries = [(Fraction(e["location"]), e["net_order"]) for e in res.payload["poles_and_zeros"]]
        locs = [t for t, _ in entries]
        problems = _expect(all(STRIP[0] <= t <= STRIP[1] for t in locs), "entry outside the strip")
        problems += _expect(len(set(locs)) == len(locs) and all(o != 0 for _, o in entries),
                            "repeated location or zero order")
        if expected is not None:
            problems += _expect(entries == expected, "strip differs from the first run")
        return problems

    argv = ["zeta", "--family", "selberg", "--n", str(N), "--w", f"{a},{b},t",
            f"--poles-in={STRIP[0]}:{STRIP[1]}"]
    return Job(f"zeta/strip/{N}/{a},{b}", argv, check)


def pointwise_job(a, b, t: Fraction, N: int, order: int) -> Job:
    """Evaluate the full product at one strip entry: the second route."""
    want = ("pole" if order > 0 else "zero", abs(order))

    def check(res):
        v = res.payload["value"]
        return _expect((v["kind"], v.get("order")) == want, f"pointwise {v['kind']} vs strip {want}")

    argv = ["zeta", "--family", "selberg", "--n", str(N), "--w", f"{a},{b},{t}"]
    return Job(f"zeta/point/{N}/{a},{b},{t}", argv, check)


def first_pole_job(family: str, n: Optional[int], strip: str, first: Fraction) -> Job:
    """Criteria 3 and 4: the rightmost pole sits at `first`, nothing right of it."""

    def check(res):
        entries = [(Fraction(e["location"]), e["net_order"]) for e in res.payload["poles_and_zeros"]]
        poles = [t for t, o in entries if o > 0]
        return _expect(poles and max(poles) == first and max(t for t, _ in entries) == first,
                       f"{family} first pole {max(poles) if poles else None}, want {first}")

    argv = ["zeta", "--family", family] + (["--n", str(n)] if n is not None else []) + [f"--poles-in={strip}"]
    return Job(f"zeta/{family}/{n}", argv, check)


def meanfield_job(beta: str, m: int) -> Job:
    def check(res):
        p = res.payload
        return _expect(p["residual"] <= 1e-8 and p["laplacian_defect"] < 1e-8
                       and math.isfinite(p["free_energy"]), f"meanfield {beta} m={m}: {p}")

    return Job(f"oracle/meanfield/{beta}/{m}",
               ["oracle", "meanfield", "--w", "1/2", f"--beta={beta}", "--m", str(m)], check)


def poisson_job() -> Job:
    def check(res):
        return _expect(res.payload["spectral_residual"] < 1e-4, f"poisson residual {res.payload}")

    return Job("oracle/poisson", ["oracle", "poisson", "--target", "exp:1"], check)


def phin_job(m: int) -> Job:
    def check(res):  # the uniform target's potential is identically zero
        return _expect(res.payload["sup_abs"] < 1e-3, f"phin sup {res.payload['sup_abs']}")

    return Job(f"oracle/phin/{m}", ["oracle", "phin", "--N", "8", "--m", str(m)], check)


def verify_job() -> Job:
    def check(res):
        return _expect("summary: 6/6 criteria passed" in res.payload, "verify quick did not pass 6/6")

    return Job("verify/quick", ["verify", "--level", "quick"], check)


STABILITY_PER_N = 12
BORDERLINE = tuple(t for t in itertools.combinations_with_replacement(WEIGHT_GRID, 3)
                   if sum(t) < 2 and borderline(t))


def borderline_defects(main, out_root: Path) -> list:
    """The borderline triples `stability` gets wrong at N = 4, as failure
    messages.  They are kept out of the job list, so they neither count nor
    are timed; the report shows them on every exact run."""
    results = (run_job(main, stability_job(ws, 4), out_root) for ws in BORDERLINE)
    return [f"{r.job.name}: {p}" for r in results for p in r.problems]


class Exact:
    """Deterministic jobs only; the seed picks the weight triples."""

    def __init__(self, seed: int, main, out_root: Path):
        rng = random.Random(f"exact:{seed}")
        jobs = [stability_job(ws, N) for N in range(3, 9) for ws in rng.sample(TRIPLES, STABILITY_PER_N)]
        for N in range(2, 9):
            finite = [t for t in TRIPLES if all(w < sum(t) - w for w in t) and N * (2 - sum(t)) < 2 * (N - 1)]
            jobs.append(selberg_value_job(rng.choice(finite), N))
            jobs.append(tube_job(N))
            a, b = rng.choice(WEIGHT_GRID), rng.choice(WEIGHT_GRID)
            # a first, untimed run of each strip fixes the pointwise cross-check
            first = run_job(main, line_strip_job(a, b, N), out_root)
            if first.problems:
                raise RuntimeError(f"strip preparation failed: {first.problems}")
            entries = [(Fraction(e["location"]), e["net_order"]) for e in first.payload["poles_and_zeros"]]
            jobs.append(line_strip_job(a, b, N, entries))
            t, order = rng.choice(entries)
            jobs.append(pointwise_job(a, b, t, N, order))
        jobs += [first_pole_job("pnmin", n, "-1:0", Fraction(-1, n + 1)) for n in range(1, 7)]
        jobs.append(first_pole_job("p1three", None, "-99/100:-1/100", Fraction(-2, 3)))
        jobs += [meanfield_job(beta, 800) for beta in ("-1/2", "1", "4")]
        jobs += [meanfield_job("1", 6400), poisson_job(), phin_job(6400), verify_job()]
        self.jobs = jobs

    def efficiency(self, results: list) -> dict:
        return {}


# ---------------------------------------------------------------------------
# stochastic workloads: the seed fixes every job's argv, so each pass repeats
# the same work and gets the same estimates

def job_seed(workload: str, seed: int, job: int = 0) -> str:
    return str(random.Random(f"{workload}:{seed}:{job}").randrange(2**31))


def se_check(res: Result, what: str, dev: float) -> list:
    """Fail beyond GATE_SE; note a miss of verify's SE_TOL inside it."""
    if abs(dev) > SE_TOL:
        res.notes.append(f"{what} {dev:+.2f} SE from the closed form")
    return _expect(abs(dev) <= GATE_SE, f"{what} {dev:+.2f} SE from the closed form")


def mc_job(label: str, argv: list, ref: float, samples: int, seed: str) -> Job:
    def check(res):
        est = res.payload["estimate"]
        return se_check(res, f"{label}:", (est["mean"] - ref) / est["std_error"])

    full = argv + ["--samples", str(samples), "--workers", "4", "--seed", seed]
    return Job(f"mc/{label}", full, check, label=label)


class Importance:
    """Eight importance-sampling jobs, each against its closed form."""

    def __init__(self, seed: int, refs: dict):
        self.jobs = [
            mc_job(label, argv, refs["mc"][label], MC_SAMPLES, job_seed("importance", seed, k))
            for k, (label, argv, _, _) in enumerate(IMPORTANCE_JOBS)
        ]

    def efficiency(self, results: list) -> dict:
        """Seconds to relative SE 1e-3 over the finite-variance jobs: the
        geometric-mean relative SE squared times their seconds, over 1e-6."""
        fv = [r for r in results if r.job.label in FINITE_VARIANCE and not r.problems]
        if len(fv) != len(FINITE_VARIANCE):
            return {}
        log_rel = [math.log(r.payload["estimate"]["std_error"] / abs(r.payload["estimate"]["mean"])) for r in fv]
        rel_se = math.exp(sum(log_rel) / len(log_rel))
        return {"time_to_1e-3_s": rel_se**2 * sum(r.seconds for r in fv) / 1e-6}


def ladder_job(refs: dict, grid: str, budget: int, seed: str, checked=LADDER_CHECK_BETAS) -> Job:
    def check(res):
        rows = {r["beta"]: r for r in res.payload["records"]}
        problems = []
        for beta in checked:
            dev = (rows[beta]["free_energy"] - refs["free_energy"][beta]) / rows[beta]["std_error"]
            problems += se_check(res, f"F({beta})", dev)
        return problems

    argv = ["mc", "--target", "free-energy", "--n", "3", "--grid", grid, "--budget", str(budget), "--seed", seed]
    return Job("mc/free-energy", argv, check)


class Ladder:
    """Criterion 10's thermodynamic-integration ladder on the trivial curve."""

    def __init__(self, seed: int, refs: dict):
        self.jobs = [ladder_job(refs, LADDER_GRID, LADDER_BUDGET, job_seed("ladder", seed))]

    def efficiency(self, results: list) -> dict:
        (res,) = results
        if res.problems:
            return {}
        se = max(res.payload["records"], key=lambda r: r["beta"])["std_error"]
        return {"time_to_1e-3_s": se**2 * res.seconds / 1e-6}


def l1_vs_meanfield(refs: dict, payload: dict) -> float:
    hist = payload["run"]["axial_histogram"]
    counts = np.asarray(hist["counts"])
    return float(np.abs(counts / counts.sum() - bin_probabilities(refs["meanfield_density"], hist["edges"])).sum())


def chain_job(refs: dict, chains: int, sweeps: int, seed: str) -> Job:
    def check(res):
        l1 = l1_vs_meanfield(refs, res.payload)
        return _expect(l1 < L1_TOL, f"L1 {l1:.4f} vs mean-field density")

    argv = ["sample", "--w", "1/2", "--beta", "1", "--N", "16", "--chains", str(chains),
            "--thinning", "10", "--sweeps", str(sweeps), "--seed", seed]
    return Job("sample", argv, check)


class Chain:
    """One long, wide sampler run against the mean-field marginal."""

    def __init__(self, seed: int, refs: dict):
        self.jobs = [chain_job(refs, 64, CHAIN_SWEEPS, job_seed("chain", seed))]

    def efficiency(self, results: list) -> dict:
        (res,) = results
        if res.problems:
            return {}
        return {"ess_per_s": res.payload["run"]["axial_histogram"]["effective_sample_size"] / res.seconds}


def make(name: str, seed: int, main, out_root: Path, refs: dict):
    if name == "exact":
        return Exact(seed, main, out_root)
    return {"importance": Importance, "ladder": Ladder, "chain": Chain}[name](seed, refs)
