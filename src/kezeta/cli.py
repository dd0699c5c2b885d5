"""Command-line front door.

    ke-zeta <zeta|stability|mc|sample|oracle|verify> [flags] [--config path.json] [--out dir]

One invocation runs exactly one operation: closed-form evaluation (zeta),
stability verdicts (stability), Monte Carlo estimates (mc), Gibbs-chain runs
(sample), the axial field oracles (oracle), or the acceptance gate (verify).
Results print to stdout as JSON (verify: plain text); bulk payloads land in
--out as CSV files with header rows, and every successful run appends one
JSON line to <out>/manifest.jsonl.

Config precedence: built-in defaults < --config JSON file < explicit flags.
The config file is a flat JSON object whose keys are the flag names
(weights and grids as the same strings the flags take).

Exit codes, fixed so CI can triage: 0 ok, 2 validation (malformed input,
nothing written), 3 stability refusal (unstable weights / beta at or below
the finiteness threshold), 4 solver non-convergence, 5 verification
criterion failed.

Numbers are parsed as exact rationals where poles matter ("1/2", "0.6",
"-2/3" all work), so strip enumeration and pole reports stay exact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, asdict
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, meanfield
from .closedforms import (
    bernstein_product,
    circular_Z,
    gaussian_det_Z,
    p1_three_point_Z,
    pn_minimal_Z,
    selberg_gamma_product,
    selberg_integral_finite,
    selberg_tube,
    zero_free_in_tube,
)
from .errors import (
    ConvergenceError,
    PoleError,
    StabilityError,
    ThresholdError,
    ValidationError,
)
from .gammaprod import (
    eval_gamma_product,
    gp_to_json,
    log_gamma,
    restrict_to_line,
    zeros_and_poles_in_strip,
)
from .meanfield import (
    density_from_function,
    phi_n_approximant,
    poisson_residual,
    reduced_laplacian,
    solve_mean_field,
    solve_poisson,
    uniform_density,
)
from .montecarlo import (
    free_energy_curve,
    mc_circular,
    mc_gaussian_det,
    mc_gaussian_det_ratio,
    mc_selberg,
    mc_sphere_partition,
)
from .sampler import (
    ks_against,
    ks_threshold,
    log_target,
    marginal_histogram,
    mean_energy_estimate,
    run_chain,
)
from .sphere import chordal, config_energy, config_from_csv, config_to_plane_json, green
from .stability import LogFanoCurve, classify, lct_point_divisor
from .verify import run_verify

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STABILITY = 3
EXIT_CONVERGENCE = 4
EXIT_MISMATCH = 5

MANIFEST_SCHEMA = 1

# Which public operation is exercised by which subcommand; the coverage test
# in tests/test_cli.py walks this table against the package's exported API.
OPERATION_COVERAGE = {
    "gammaprod.log_gamma": ("zeta", "--log-gamma Z"),
    "gammaprod.eval_gamma_product": ("zeta", "--family with full parameter values"),
    "gammaprod.restrict_to_line": ("zeta", "--family selberg --w with one 't' entry"),
    "gammaprod.zeros_and_poles_in_strip": ("zeta", "--poles-in lo:hi"),
    "gammaprod.gp_to_json": ("zeta", "symbolic product in every report"),
    "sphere.stereo_to_sphere": ("sample", "marked points of the curve"),
    "sphere.sphere_to_stereo": ("sample", "--score plane-coordinate echo"),
    "sphere.chordal": ("sample", "--score closest-pair field"),
    "sphere.green": ("sample", "--score strongest-pair field"),
    "sphere.config_energy": ("sample", "--score"),
    "sphere.sample_uniform_array": ("sample", "chain initialization"),
    "closedforms.selberg_gamma_product": ("zeta", "--family selberg"),
    "closedforms.pn_minimal_Z": ("zeta", "--family pnmin"),
    "closedforms.p1_three_point_Z": ("zeta", "--family p1three"),
    "closedforms.circular_Z": ("zeta", "--family circular"),
    "closedforms.gaussian_det_Z": ("zeta", "--family gaussdet"),
    "closedforms.bernstein_product": ("zeta", "--family gaussdet --s"),
    "closedforms.zero_free_in_tube": ("zeta", "--tube canonical|widened|display"),
    "closedforms.selberg_integral_finite": ("stability", "--n with three weights"),
    "stability.weight_condition": ("stability", "verdict JSON field"),
    "stability.gamma_threshold": ("stability", "--n"),
    "stability.classify": ("stability", "--w"),
    "stability.lct_point_divisor": ("stability", "--lct"),
    "montecarlo.mc_selberg": ("mc", "--target selberg"),
    "montecarlo.mc_sphere_partition": ("mc", "--target sphere"),
    "montecarlo.mc_circular": ("mc", "--target circular"),
    "montecarlo.mc_gaussian_det": ("mc", "--target gaussdet"),
    "montecarlo.mc_gaussian_det_ratio": ("mc", "--target gaussdet-ratio"),
    "montecarlo.free_energy_curve": ("mc", "--target free-energy"),
    "sampler.log_target": ("sample", "--score"),
    "sampler.run_chain": ("sample", "run mode"),
    "sampler.mean_energy_estimate": ("sample", "run report"),
    "sampler.marginal_histogram": ("sample", "run report"),
    "sampler.ks_against": ("sample", "--ks-uniform"),
    "meanfield.reduced_laplacian": ("oracle", "meanfield defect check"),
    "meanfield.solve_mean_field": ("oracle", "meanfield"),
    "meanfield.free_energy_functional": ("oracle", "meanfield summary"),
    "meanfield.solve_poisson": ("oracle", "poisson"),
    "meanfield.phi_n_approximant": ("oracle", "phin"),
    "verify.run_verify": ("verify", "--level quick|full"),
}


@dataclass
class ExperimentConfig:
    """Merged defaults + config file + flags for one invocation.

    Everything numeric stays a string until the handler parses it, so exact
    rationals survive and malformed input fails validation before any file
    is touched.
    """

    command: str
    out: str = "."
    family: Optional[str] = None
    target: Optional[str] = None
    solver: Optional[str] = None
    w: Optional[str] = None
    n: Optional[int] = None
    N: Optional[int] = None
    beta: Optional[str] = None
    s: Optional[str] = None
    samples: int = 100_000
    sweeps: Optional[int] = None
    chains: int = 4
    thinning: int = 10
    burn_in: Optional[int] = None
    seed: int = 0
    workers: int = 1
    bins: int = 40
    m: int = 800
    degree: int = 120
    mode: str = "quadrature"
    grid: Optional[str] = None
    budget: int = 200_000
    level: str = "quick"
    poles_in: Optional[str] = None
    tube: Optional[str] = None
    log_gamma: Optional[str] = None
    lct: Optional[str] = None
    score: Optional[str] = None
    ks_uniform: bool = False
    batch_csv: Optional[str] = None

    def echo(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


# ---------------------------------------------------------------------------
# small parsers (all raise ValidationError, never ValueError)

def _parse_fraction(tok, what: str) -> Fraction:
    try:
        if isinstance(tok, str):
            return Fraction(tok.strip())
        if isinstance(tok, int):
            return Fraction(tok)
        if isinstance(tok, float):
            return Fraction(tok).limit_denominator(10**12)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse {what} {tok!r} as a rational") from exc
    raise ValidationError(f"cannot parse {what} {tok!r} as a rational")


def _parse_weights(text, allow_symbol: bool = False):
    """Comma list of rationals; at most one entry may be the symbol 't'."""
    if not isinstance(text, str):
        raise ValidationError("weight list must be a comma-separated string")
    if not text.strip():
        raise ValidationError("empty weight list")
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "t":
            if not allow_symbol:
                raise ValidationError("symbolic weight 't' is only supported by zeta")
            out.append("t")
        else:
            out.append(_parse_fraction(tok, "weight"))
    if out.count("t") > 1:
        raise ValidationError("at most one weight may be the symbol 't'")
    return out


def _parse_complex(text: str) -> complex:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (1, 2):
        raise ValidationError(f"expected RE or RE,IM, got {text!r}")
    try:
        re = float(Fraction(parts[0]))
        im = float(Fraction(parts[1])) if len(parts) == 2 else 0.0
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse complex number {text!r}") from exc
    return complex(re, im)


def _parse_strip(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValidationError(f"--poles-in wants LO:HI, got {text!r}")
    lo = _parse_fraction(parts[0], "strip bound")
    hi = _parse_fraction(parts[1], "strip bound")
    if lo > hi:
        raise ValidationError("strip lower bound exceeds upper bound")
    return lo, hi


def _parse_grid(text) -> list[float]:
    """Either 'start:stop:step' (inclusive) or a comma list of rationals."""
    if not isinstance(text, str):
        raise ValidationError("grid must be a string (START:STOP:STEP or comma list)")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid range wants START:STOP:STEP, got {text!r}")
        start, stop, step = (_parse_fraction(p, "grid bound") for p in parts)
        if step <= 0 or stop < start:
            raise ValidationError("grid range needs step > 0 and stop >= start")
        vals, x = [], start
        while x <= stop:
            vals.append(float(x))
            x += step
        return vals
    return [float(_parse_fraction(tok, "grid point")) for tok in text.split(",")]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _mero_to_json(mv) -> dict:
    if mv.kind == "regular":
        val = mv.value
        return {
            "kind": "regular",
            "value_re": val.real,
            "value_im": val.imag,
            "log_modulus": mv.log_modulus,
            "warnings": list(mv.warnings),
        }
    out = {"kind": mv.kind, "order": mv.order, "warnings": list(mv.warnings)}
    if mv.kind == "zero" and mv.limit_of_scaled is not None:
        out["limit_of_scaled_re"] = complex(mv.limit_of_scaled).real
        out["limit_of_scaled_im"] = complex(mv.limit_of_scaled).imag
    return out


def _standard_curve(cfg: ExperimentConfig, default_trivial: bool = False) -> LogFanoCurve:
    if cfg.w is None:
        _require(default_trivial, f"{cfg.command} needs --w")
        return LogFanoCurve.standard(())
    return LogFanoCurve.standard(tuple(_parse_weights(cfg.w)))


# ---------------------------------------------------------------------------
# handlers: each returns (stdout payload, manifest outcome, files written)

def _run_zeta(cfg: ExperimentConfig, out_dir: Path):
    if cfg.log_gamma is not None:
        z = _parse_complex(cfg.log_gamma)
        val = log_gamma(z)
        report = {
            "log_gamma_of": [z.real, z.imag],
            "value_re": val.real,
            "value_im": val.imag,
        }
        return report, {"value_re": val.real, "value_im": val.imag}, []

    families = ("selberg", "pnmin", "p1three", "circular", "gaussdet")
    _require(cfg.family in families, f"--family must be one of {'|'.join(families)}")
    report: dict = {"family": cfg.family}

    if cfg.family == "selberg":
        _require(cfg.n is not None and cfg.n >= 2, "selberg needs --n >= 2")
        gp = selberg_gamma_product(cfg.n)
        if cfg.beta is not None:
            _require(
                _parse_fraction(cfg.beta, "beta") == -1,
                "the three-point closed form is pinned at beta = -1",
            )
        weights = _parse_weights(cfg.w, allow_symbol=True) if cfg.w is not None else None
        if weights is not None:
            _require(len(weights) == 3, "selberg needs three weights")
            if "t" in weights:
                line = {
                    name: ((1, 0) if wv == "t" else (0, wv))
                    for name, wv in zip(("w1", "w2", "w3"), weights)
                }
                gp = restrict_to_line(gp, line)
                report["restricted_to_line"] = {
                    name: [str(sl), str(ic)] for name, (sl, ic) in line.items()
                }
            else:
                params = dict(zip(("w1", "w2", "w3"), weights))
                report["value_at"] = {k: str(v) for k, v in params.items()}
                report["value"] = _mero_to_json(eval_gamma_product(gp, params))
        if cfg.tube is not None:
            tube_report = zero_free_in_tube(selberg_gamma_product(cfg.n), selberg_tube(cfg.tube))
            report["tube"] = {"kind": cfg.tube, **tube_report.to_json()}
    else:
        param = "s" if cfg.family == "gaussdet" else "beta"
        if cfg.family == "pnmin":
            _require(cfg.n is not None and cfg.n >= 1, "pnmin needs --n >= 1")
            gp = pn_minimal_Z(cfg.n)
        elif cfg.family == "p1three":
            gp = p1_three_point_Z()
        elif cfg.family == "circular":
            _require(cfg.n is not None and cfg.n >= 2, "circular needs --n >= 2")
            gp = circular_Z(cfg.n)
        else:
            _require(cfg.n is not None and cfg.n >= 0, "gaussdet needs --n >= 0")
            gp = gaussian_det_Z(cfg.n)
        arg = getattr(cfg, param)
        if arg is not None:
            value = _parse_fraction(arg, param)
            report["value_at"] = {param: str(value)}
            report["value"] = _mero_to_json(eval_gamma_product(gp, {param: value}))
            if cfg.family == "gaussdet":
                report["bernstein_next_ratio"] = float(bernstein_product(cfg.n, value))

    if cfg.poles_in is not None:
        lo, hi = _parse_strip(cfg.poles_in)
        entries = zeros_and_poles_in_strip(gp, lo, hi)
        report["strip"] = [str(lo), str(hi)]
        report["poles_and_zeros"] = [
            {"location": str(t), "net_order": o} for t, o in entries
        ]

    report["gamma_product"] = json.loads(gp_to_json(gp))
    outcome = {k: v for k, v in report.items() if k != "gamma_product"}
    return report, outcome, []


def _run_stability(cfg: ExperimentConfig, out_dir: Path):
    report: dict = {}
    if cfg.lct is not None:
        coeffs = [float(x) for x in _parse_weights(cfg.lct)]
        report["lct_point_divisor"] = lct_point_divisor(coeffs)
        if cfg.w is None:
            return report, dict(report), []
    _require(cfg.w is not None, "stability needs --w (or --lct)")
    ws = _parse_weights(cfg.w)
    report.update(classify(LogFanoCurve.standard(tuple(ws)), N=cfg.n).to_json())
    if len(ws) == 3 and cfg.n is not None and all(0 < x < 1 for x in ws) and sum(ws) < 2:
        report["integral_finite"] = selberg_integral_finite(ws, cfg.n)
    return report, dict(report), []


def _run_mc(cfg: ExperimentConfig, out_dir: Path):
    targets = ("selberg", "sphere", "circular", "gaussdet", "gaussdet-ratio", "free-energy")
    _require(cfg.target in targets, f"--target must be one of {'|'.join(targets)}")

    if cfg.target == "free-energy":
        _require(cfg.grid is not None, "free-energy needs --grid")
        _require(cfg.n is not None and cfg.n >= 2, "free-energy needs --n >= 2")
        curve = _standard_curve(cfg, default_trivial=True)
        rows = free_energy_curve(curve, cfg.n, _parse_grid(cfg.grid), cfg.budget, seed=cfg.seed)
        report = {
            "target": cfg.target,
            "records": [
                {"beta": b, "free_energy": f, "std_error": e} for b, f, e in rows
            ],
        }
        return report, dict(report), []

    if cfg.target == "selberg":
        _require(cfg.w is not None, "mc selberg needs --w")
        _require(cfg.n is not None and cfg.n >= 2, "mc selberg needs --n >= 2")
        ws = _parse_weights(cfg.w)
        _require(len(ws) == 3, "mc selberg needs three weights")
        est = mc_selberg(ws, cfg.n, cfg.samples, seed=cfg.seed, workers=cfg.workers)
    elif cfg.target == "sphere":
        _require(cfg.beta is not None, "mc sphere needs --beta")
        _require(cfg.n is not None and cfg.n >= 2, "mc sphere needs --n >= 2")
        curve = _standard_curve(cfg, default_trivial=True)
        est = mc_sphere_partition(
            curve, float(_parse_fraction(cfg.beta, "beta")), cfg.n, cfg.samples,
            seed=cfg.seed, workers=cfg.workers,
        )
    elif cfg.target == "circular":
        _require(cfg.beta is not None, "mc circular needs --beta")
        _require(cfg.n is not None and cfg.n >= 2, "mc circular needs --n >= 2")
        est = mc_circular(
            cfg.n, float(_parse_fraction(cfg.beta, "beta")), cfg.samples,
            seed=cfg.seed, workers=cfg.workers,
        )
    else:
        _require(cfg.s is not None, f"mc {cfg.target} needs --s")
        _require(cfg.n is not None and cfg.n >= 0, f"mc {cfg.target} needs --n >= 0")
        fn = mc_gaussian_det if cfg.target == "gaussdet" else mc_gaussian_det_ratio
        est = fn(cfg.n, float(_parse_fraction(cfg.s, "s")), cfg.samples,
                 seed=cfg.seed, workers=cfg.workers)

    report = {"target": cfg.target, "estimate": est.to_json()}
    files = []
    if cfg.batch_csv is not None:
        path = out_dir / cfg.batch_csv
        lines = ["batch_index,batch_mean"]
        lines += [f"{i},{float(b)!r}" for i, b in enumerate(est.diagnostics["batch_means"])]
        path.write_text("\n".join(lines) + "\n")
        files.append(str(path))
    outcome = {
        "target": cfg.target,
        "mean": est.mean,
        "std_error": est.std_error,
        "n_samples": est.n_samples,
        "diagnostics": est.diagnostics,
    }
    return report, outcome, files


def _run_sample(cfg: ExperimentConfig, out_dir: Path):
    if cfg.score is not None:
        _require(cfg.beta is not None, "sample --score needs --beta")
        curve = _standard_curve(cfg, default_trivial=True)
        text = Path(cfg.score).read_text()
        config = config_from_csv(text)
        beta = float(_parse_fraction(cfg.beta, "beta"))
        pts = config.points
        pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
        report = {
            "n_points": len(config),
            "energy": config_energy(config, curve),
            "log_target": log_target(config, curve, beta),
            "min_pair_chordal": min(chordal(pts[i], pts[j]) for i, j in pairs),
            "max_pair_green": max(green(pts[i], pts[j]) for i, j in pairs),
            "plane_coords": json.loads(config_to_plane_json(config)),
        }
        outcome = {k: report[k] for k in ("n_points", "energy", "log_target")}
        return report, outcome, []

    _require(cfg.beta is not None, "sample needs --beta")
    _require(cfg.N is not None and cfg.N >= 2, "sample needs --N >= 2")
    _require(cfg.sweeps is not None and cfg.sweeps >= 1, "sample needs --sweeps >= 1")
    curve = _standard_curve(cfg, default_trivial=True)
    beta = float(_parse_fraction(cfg.beta, "beta"))
    stream = run_chain(
        curve, beta, cfg.N, sweeps=cfg.sweeps, burn_in=cfg.burn_in,
        seed=cfg.seed, thinning=cfg.thinning, chains=cfg.chains,
    )

    csv_path = out_dir / "samples.csv"
    header = ["chain", "step", "energy"]
    for k in range(cfg.N):
        header += [f"x{k}", f"y{k}", f"z{k}"]
    lines = [",".join(header)]
    for c, s, e, row in zip(
        stream.chain_index, stream.step_index, stream.energies, stream.configs
    ):
        cells = [str(int(c)), str(int(s)), repr(float(e))]
        cells += [repr(float(v)) for v in row.ravel()]
        lines.append(",".join(cells))
    csv_path.write_text("\n".join(lines) + "\n")

    run_report = stream.to_report()
    hist = marginal_histogram(stream, bins=cfg.bins)
    est = mean_energy_estimate(stream)
    run_report["mean_energy"] = {"mean": est.mean, "std_error": est.std_error}
    run_report["axial_histogram"] = {
        "edges": [float(x) for x in hist.edges],
        "counts": [float(x) for x in hist.counts],
        "effective_sample_size": hist.effective_sample_size,
    }
    if cfg.ks_uniform:
        ks = ks_against(hist, lambda t: (np.asarray(t) + 1.0) / 2.0)
        run_report["ks_uniform"] = {
            "ks": ks,
            "threshold_99": ks_threshold(hist.effective_sample_size),
        }
    json_path = out_dir / "sample_run.json"
    json_path.write_text(json.dumps(run_report, indent=2, sort_keys=True) + "\n")

    outcome = {
        "kept": run_report["kept"],
        "acceptance_rate_mean": float(np.mean(run_report["acceptance_rate"])),
        "mean_energy": est.mean,
        "mean_energy_se": est.std_error,
    }
    report = {"csv": str(csv_path), "run": run_report}
    return report, outcome, [str(csv_path), str(json_path)]


def _oracle_target(cfg: ExperimentConfig):
    spec_ = cfg.target if cfg.target is not None else "uniform"
    if spec_ == "uniform":
        return uniform_density(cfg.m), spec_
    if spec_.startswith("exp:"):
        try:
            a = float(Fraction(spec_[4:]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad exponent in target {spec_!r}") from exc
        return density_from_function(lambda t: np.exp(a * t), m=cfg.m), spec_
    raise ValidationError(f"oracle target must be 'uniform' or 'exp:<a>', got {spec_!r}")


def _field_csv(path: Path, field) -> str:
    lines = ["t,value"]
    lines += [f"{float(t)!r},{float(v)!r}" for t, v in zip(field.grid, field.values)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _run_oracle(cfg: ExperimentConfig, out_dir: Path):
    solvers = ("meanfield", "poisson", "phin")
    _require(cfg.solver in solvers, f"oracle solver must be one of {'|'.join(solvers)}")

    if cfg.solver == "meanfield":
        _require(cfg.beta is not None, "oracle meanfield needs --beta")
        curve = _standard_curve(cfg, default_trivial=True)
        beta = float(_parse_fraction(cfg.beta, "beta"))
        sol = solve_mean_field(curve, beta, m=cfg.m)
        # self-check: mu reconstructed from the potential via the reduced
        # Laplacian must match the solver's density
        lap = reduced_laplacian(sol.potential, coupling=1.0 / (2.0 * curve.d_L))
        defect = float(np.max(np.abs(0.5 + lap.values - sol.density.values)))
        files = [
            _field_csv(out_dir / "meanfield_density.csv", sol.density),
            _field_csv(out_dir / "meanfield_potential.csv", sol.potential),
        ]
        report = {
            "solver": cfg.solver,
            "beta": beta,
            "residual": sol.residual,
            "iterations": sol.iterations,
            "log_partition": sol.log_partition,
            "free_energy": meanfield.free_energy_functional(sol.density, curve, beta),
            "laplacian_defect": defect,
            "files": files,
        }
        outcome = {k: report[k] for k in ("residual", "iterations", "free_energy", "laplacian_defect")}
        return report, outcome, files

    target, target_name = _oracle_target(cfg)
    if cfg.solver == "poisson":
        phi, coeffs = solve_poisson(target, degree=cfg.degree, return_coeffs=True)
        files = [_field_csv(out_dir / "poisson_potential.csv", phi)]
        report = {
            "solver": cfg.solver,
            "target": target_name,
            "degree": cfg.degree,
            "spectral_residual": poisson_residual(coeffs, target),
            "tail_mass": coeffs.tail_mass(),
            "files": files,
        }
        outcome = {k: report[k] for k in ("target", "spectral_residual", "tail_mass")}
        return report, outcome, files

    _require(cfg.N is not None and cfg.N >= 2, "oracle phin needs --N >= 2")
    mode = {"quadrature": "quadrature", "montecarlo": "montecarlo"}.get(cfg.mode)
    _require(mode is not None, "--mode must be quadrature or montecarlo")
    phi = phi_n_approximant(target, cfg.N, mode=mode, samples=cfg.samples, seed=cfg.seed)
    files = [_field_csv(out_dir / "phi_n.csv", phi)]
    report = {
        "solver": cfg.solver,
        "target": target_name,
        "n_points": cfg.N,
        "mode": mode,
        "sup_abs": float(np.max(np.abs(phi.values))),
        "files": files,
    }
    outcome = {k: report[k] for k in ("target", "n_points", "mode", "sup_abs")}
    return report, outcome, files


def _run_verify(cfg: ExperimentConfig, out_dir: Path):
    report = run_verify(cfg.level)
    outcome = {
        "level": report.level,
        "passed": report.all_passed,
        "results": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "measured": r.measured,
             "tolerance": r.tolerance}
            for r in report.results
        ],
    }
    return report.text(), outcome, []


_DISPATCH = {
    "zeta": _run_zeta,
    "stability": _run_stability,
    "mc": _run_mc,
    "sample": _run_sample,
    "oracle": _run_oracle,
    "verify": _run_verify,
}


# ---------------------------------------------------------------------------
# argument plumbing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ke-zeta",
        description="Partition functions, stability verdicts, samplers and "
        "field oracles for weighted point ensembles on the sphere.",
        epilog="Precedence: defaults < --config JSON < flags.",
    )
    parser.add_argument("--version", action="version", version=f"ke-zeta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with flag defaults")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        p.add_argument("--workers", type=int, help="worker streams (default 1)")

    p = sub.add_parser("zeta", help="closed-form partition functions")
    common(p)
    p.add_argument("--family", help="selberg|pnmin|p1three|circular|gaussdet")
    p.add_argument("--n", type=int, help="points N or dimension n, per family")
    p.add_argument("--w", help="weights w1,w2,w3; one entry may be 't'")
    p.add_argument("--beta", help="inverse temperature (rational)")
    p.add_argument("--s", help="determinant-moment exponent (rational)")
    p.add_argument("--poles-in", dest="poles_in", help="strip LO:HI for pole/zero enumeration")
    p.add_argument("--tube", help="canonical|widened|display zero-free scan (selberg)")
    p.add_argument("--log-gamma", dest="log_gamma", help="evaluate log Gamma at RE[,IM]")

    p = sub.add_parser("stability", help="Gibbs-stability verdicts")
    common(p)
    p.add_argument("--w", help="weights, e.g. 0.5,0.5,0.5")
    p.add_argument("--n", type=int, help="particle number for gamma_N / integral check")
    p.add_argument("--lct", help="coefficients for the point-divisor threshold")

    p = sub.add_parser("mc", help="Monte Carlo estimates")
    common(p)
    p.add_argument("--target", help="selberg|sphere|circular|gaussdet|gaussdet-ratio|free-energy")
    p.add_argument("--w", help="weights")
    p.add_argument("--n", type=int, help="points N (selberg/sphere/circular/free-energy) or size n")
    p.add_argument("--beta", help="inverse temperature")
    p.add_argument("--s", help="determinant-moment exponent")
    p.add_argument("--samples", type=int, help="sample budget (default 100000)")
    p.add_argument("--grid", help="beta grid START:STOP:STEP or comma list (free-energy)")
    p.add_argument("--budget", type=int, help="total MCMC sweeps for free-energy (default 200000)")
    p.add_argument("--batch-csv", dest="batch_csv", help="also write per-batch means CSV")

    p = sub.add_parser("sample", help="Gibbs sampler runs")
    common(p)
    p.add_argument("--w", help="weights")
    p.add_argument("--beta", help="inverse temperature")
    p.add_argument("--N", type=int, help="points per configuration")
    p.add_argument("--sweeps", type=int, help="measurement sweeps per chain")
    p.add_argument("--chains", type=int, help="parallel chains (default 4)")
    p.add_argument("--thinning", type=int, help="keep every k-th sweep (default 10)")
    p.add_argument("--burn-in", dest="burn_in", type=int, help="override burn-in sweeps")
    p.add_argument("--bins", type=int, help="axial histogram bins (default 40)")
    p.add_argument("--ks-uniform", dest="ks_uniform", action="store_const", const=True,
                   help="KS test of the axial marginal against uniform")
    p.add_argument("--score", help="score a stored configuration CSV instead of sampling")

    p = sub.add_parser("oracle", help="axial field oracles")
    common(p)
    p.add_argument("solver", nargs="?", help="meanfield|poisson|phin")
    p.add_argument("--w", help="axial weights (1: north pole, 2: south,north)")
    p.add_argument("--beta", help="inverse temperature (meanfield)")
    p.add_argument("--target", help="source density: uniform or exp:<a>")
    p.add_argument("--m", type=int, help="grid intervals (default 800)")
    p.add_argument("--degree", type=int, help="spectral degree (default 120)")
    p.add_argument("--N", type=int, help="points N (phin)")
    p.add_argument("--mode", help="quadrature|montecarlo (phin)")
    p.add_argument("--samples", type=int, help="montecarlo samples (phin)")

    p = sub.add_parser("verify", help="run the acceptance gate")
    common(p)
    p.add_argument("--level", help="quick (exact checks) or full (adds MC/MCMC)")

    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    fields = {f for f in ExperimentConfig.__dataclass_fields__}
    merged: dict = {"command": args.command}

    file_values: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ValidationError(f"config file {path} does not exist")
        try:
            file_values = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ValidationError("config file must hold a single JSON object")
        own = sorted(set(vars(args)) & fields - {"command"})  # the subcommand's own flags
        for key in file_values:
            if key not in fields:
                raise ValidationError(f"unknown config key {key!r}")
            if key not in own:
                raise ValidationError(f"{args.command} takes the config keys {', '.join(own)}, not {key}")

    for name in fields:
        if name == "command":
            continue
        flag = getattr(args, name, None)
        if flag is not None:
            merged[name] = flag
        elif name in file_values:
            merged[name] = file_values[name]
    cfg = ExperimentConfig(**merged)

    for int_field in ("n", "N", "samples", "sweeps", "chains", "thinning", "burn_in",
                      "seed", "workers", "bins", "m", "degree", "budget"):
        val = getattr(cfg, int_field)
        if val is not None and not isinstance(val, int):
            raise ValidationError(f"{int_field} must be an integer, got {val!r}")
    _require(cfg.workers >= 1, "workers must be >= 1")
    _require(cfg.samples >= 2, "samples must be >= 2")
    return cfg


def _append_manifest(out_dir: Path, cfg: ExperimentConfig, outcome: dict,
                     wall_clock_s: float, files: list) -> None:
    record = {
        "schema": MANIFEST_SCHEMA,
        "artifact_version": __version__,
        "command": cfg.command,
        "config": cfg.echo(),
        "outcome": outcome,
        "files": files,
        "wall_clock_s": wall_clock_s,
    }
    with (out_dir / "manifest.jsonl").open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    start = time.perf_counter()
    try:
        cfg = _merge_config(args)
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload, outcome, files = _DISPATCH[cfg.command](cfg, out_dir)
    except (ValidationError, PoleError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (StabilityError, ThresholdError) as exc:
        print(f"stability refusal: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE

    if isinstance(payload, str):
        print(payload, end="")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    _append_manifest(out_dir, cfg, outcome, time.perf_counter() - start, files)

    if cfg.command == "verify" and not outcome["passed"]:
        return EXIT_MISMATCH
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
