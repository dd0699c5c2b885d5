"""The numeric subcommands of the command line: mc, sample, oracle and verify.

`cli.main` imports this module the first time one of these commands runs, so
numpy and the numeric modules (`sphere`, `montecarlo`, `sampler`,
`meanfield`, `verify`) load then, all at once, and never for `zeta` or
`stability`.  Each handler takes the parsed namespace and the output
directory and returns (stdout payload, manifest outcome, files written), as
the exact handlers in `cli` do; `HANDLERS` maps each command to its handler.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import meanfield, sampler
from .chart import COINCIDENCE_TOL
from .cli import (
    _parse_fraction,
    _parse_grid,
    _parse_weights,
    _refuse_unread,
    _require,
)
from .errors import CoincidenceError, ValidationError
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
    MIN_BINS,
    ks_against,
    ks_threshold,
    marginal_histogram,
    mean_energy_estimate,
    run_chain,
)
from .sphere import config_energy, config_from_csv, config_to_plane_json, pairwise_sq_chord
from .stability import LogFanoCurve
from .verify import run_verify


def _standard_curve(args: argparse.Namespace) -> LogFanoCurve:
    if args.w is None:
        return LogFanoCurve.standard(())
    return LogFanoCurve.standard(tuple(_parse_weights(args.w)))


# of the value flags --w, --beta, --s and --grid, the ones each mc target leaves unread
_MC_UNREAD = {
    "selberg": ("beta", "s", "grid"),
    "sphere": ("s", "grid"),
    "circular": ("w", "s", "grid"),
    "gaussdet": ("w", "beta", "grid"),
    "gaussdet-ratio": ("w", "beta", "grid"),
    "free-energy": ("beta", "s"),
}


def _run_mc(args: argparse.Namespace, out_dir: Path):
    _require(args.target in _MC_UNREAD, f"--target must be one of {'|'.join(_MC_UNREAD)}")
    _refuse_unread(args, _MC_UNREAD[args.target], f"mc --target {args.target}")
    batch_csv = None if args.batch_csv is None else out_dir / args.batch_csv
    _require(batch_csv is None or (batch_csv.parent.is_dir() and not batch_csv.is_dir()),
             f"--batch-csv {args.batch_csv} is not a file path in an existing directory under --out")

    if args.target == "free-energy":
        _require(batch_csv is None, "free-energy has no batch means to write to --batch-csv")
        _require(args.grid is not None, "free-energy needs --grid")
        _require(args.n is not None and args.n >= 2, "free-energy needs --n >= 2")
        curve = _standard_curve(args)
        rows = free_energy_curve(curve, args.n, _parse_grid(args.grid), args.budget, seed=args.seed)
        report = {
            "target": args.target,
            "records": [
                {"beta": b, "free_energy": f, "std_error": e} for b, f, e in rows
            ],
        }
        return report, dict(report), []

    if args.target == "selberg":
        _require(args.w is not None, "mc selberg needs --w")
        _require(args.n is not None and args.n >= 2, "mc selberg needs --n >= 2")
        ws = _parse_weights(args.w)
        _require(len(ws) == 3, "mc selberg needs three weights")
        est = mc_selberg(ws, args.n, args.samples, seed=args.seed, workers=args.workers)
    elif args.target == "sphere":
        _require(args.beta is not None, "mc sphere needs --beta")
        _require(args.n is not None and args.n >= 2, "mc sphere needs --n >= 2")
        curve = _standard_curve(args)
        est = mc_sphere_partition(
            curve, float(_parse_fraction(args.beta, "beta")), args.n, args.samples,
            seed=args.seed, workers=args.workers,
        )
    elif args.target == "circular":
        _require(args.beta is not None, "mc circular needs --beta")
        _require(args.n is not None and args.n >= 2, "mc circular needs --n >= 2")
        est = mc_circular(
            args.n, float(_parse_fraction(args.beta, "beta")), args.samples,
            seed=args.seed, workers=args.workers,
        )
    else:
        _require(args.s is not None, f"mc {args.target} needs --s")
        _require(args.n is not None and args.n >= 0, f"mc {args.target} needs --n >= 0")
        fn = mc_gaussian_det if args.target == "gaussdet" else mc_gaussian_det_ratio
        est = fn(args.n, float(_parse_fraction(args.s, "s")), args.samples,
                 seed=args.seed, workers=args.workers)

    report = {"target": args.target, "estimate": est.to_json()}
    files = []
    if batch_csv is not None:
        rows = enumerate(est.diagnostics["batch_means"])  # a list of floats
        files.append(_write_csv(batch_csv, ("batch_index", "batch_mean"), rows))
    outcome = {
        "target": args.target,
        "mean": est.mean,
        "std_error": est.std_error,
        "n_samples": est.n_samples,
        "diagnostics": est.diagnostics,
    }
    return report, outcome, files


def _run_sample(args: argparse.Namespace, out_dir: Path):
    if args.score is not None:
        _refuse_unread(args, ("N", "sweeps", "burn_in", "ks_uniform"), "sample --score")
        _require(Path(args.score).is_file(), f"--score {args.score} is not a file")
        _require(args.beta is not None, "sample --score needs --beta")
        curve = _standard_curve(args)
        try:
            text = Path(args.score).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"--score {args.score} is not a text file: {exc}") from exc
        # the pair buffers scale as N^2: count rows before any point is built
        n = sum(1 for line in text.splitlines()[1:] if line)
        nbytes = 8 * (n * (n - 1) // 2)
        _require(nbytes <= sampler._MAX_STATE_BYTES,
                 f"--score {args.score} has {n} points, whose pair terms need {nbytes / 2**20:.0f} MiB, "
                 f"more than {sampler._MAX_STATE_BYTES // 2**20} MiB")
        config = config_from_csv(text)
        beta = float(_parse_fraction(args.beta, "beta"))
        energy = config_energy(config, curve)
        target = sampler._log_target(config, curve, beta, energy)
        # sqrt and -log are monotone, so the closest pair gives both fields
        chords = np.sqrt(pairwise_sq_chord(config.array))
        close = chords < COINCIDENCE_TOL
        if close.any():
            raise CoincidenceError(f"green evaluated at chordal distance {chords[close.argmax()]:.3e}")
        closest = min(float(chords.min()), 2.0)
        report = {
            "n_points": len(config),
            "energy": energy,
            "log_target": target,
            "min_pair_chordal": closest,
            "max_pair_green": -math.log(closest),
            "plane_coords": json.loads(config_to_plane_json(config)),
        }
        outcome = {k: report[k] for k in ("n_points", "energy", "log_target")}
        return report, outcome, []

    _require(args.beta is not None, "sample needs --beta")
    _require(args.N is not None and args.N >= 2, "sample needs --N >= 2")
    _require(args.sweeps is not None and args.sweeps >= 1, "sample needs --sweeps >= 1")
    _require(args.sweeps >= args.thinning, "sample keeps nothing unless --sweeps >= --thinning")
    _require(args.bins >= MIN_BINS, f"sample needs --bins >= {MIN_BINS}")
    curve = _standard_curve(args)
    beta = float(_parse_fraction(args.beta, "beta"))
    stream = run_chain(
        curve, beta, args.N, sweeps=args.sweeps, burn_in=args.burn_in,
        seed=args.seed, thinning=args.thinning, chains=args.chains,
    )

    # the CSV is opened only after run_chain returns: a refused run writes nothing
    header = ("chain", "step", "energy", *(f"{a}{k}" for k in range(args.N) for a in "xyz"))
    kept = stream.sweeps // stream.thinning
    steps = range(stream.thinning - 1, kept * stream.thinning, stream.thinning)
    rows = (
        (c, step, e, *xyz.tolist())
        for c, (energies, configs) in enumerate(zip(stream.energies.tolist(), stream.configs))
        for step, e, xyz in zip(steps, energies, configs.reshape(kept, -1))
    )
    csv_path = _write_csv(out_dir / "samples.csv", header, rows)

    run_report = stream.to_report()
    hist = marginal_histogram(stream, bins=args.bins)
    est = mean_energy_estimate(stream)
    run_report["mean_energy"] = {"mean": est.mean, "std_error": est.std_error}
    run_report["axial_histogram"] = {
        "edges": [float(x) for x in hist.edges],
        "counts": [float(x) for x in hist.counts],
        "effective_sample_size": hist.effective_sample_size,
    }
    if args.ks_uniform:
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
    report = {"csv": csv_path, "run": run_report}
    return report, outcome, [csv_path, str(json_path)]


def _oracle_target(args: argparse.Namespace):
    spec_ = args.target if args.target is not None else "uniform"
    if spec_ == "uniform":
        return uniform_density(args.m), spec_
    if spec_.startswith("exp:"):
        a = float(_parse_fraction(spec_[4:], "target exponent"))
        return density_from_function(lambda t: np.exp(a * t), m=args.m), spec_
    raise ValidationError(f"oracle target must be 'uniform' or 'exp:<a>', got {spec_!r}")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[tuple]) -> str:
    """Write a CSV table to path and return the path: the header line, then
    one line per row, a tuple of Python ints and floats as wide as the
    header, each value as its repr.  A row is written as soon as it is
    formatted, so the table's text never exists whole; every line, the last
    included, ends in a newline."""
    line = ",".join(["%r"] * len(header)) + "\n"
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % row)
    return str(path)


def _field_csv(path: Path, field) -> str:
    return _write_csv(path, ("t", "value"), zip(map(float, field.grid), map(float, field.values)))


# of the flags --w, --beta, --target and --N, the ones each oracle solver leaves unread
_ORACLE_UNREAD = {"meanfield": ("target", "N"), "poisson": ("w", "beta", "N"), "phin": ("w", "beta")}


def _run_oracle(args: argparse.Namespace, out_dir: Path):
    solver = getattr(args, "solver", None)  # absent when neither argv nor --config names it
    _require(solver in _ORACLE_UNREAD, f"oracle solver must be one of {'|'.join(_ORACLE_UNREAD)}")
    _refuse_unread(args, _ORACLE_UNREAD[solver], f"oracle {solver}")

    if solver == "meanfield":
        _require(args.beta is not None, "oracle meanfield needs --beta")
        curve = _standard_curve(args)
        beta = float(_parse_fraction(args.beta, "beta"))
        sol = solve_mean_field(curve, beta, m=args.m)
        # self-check: mu reconstructed from the potential via the reduced
        # Laplacian must match the solver's density
        lap = reduced_laplacian(sol.potential, coupling=1.0 / (2.0 * curve.d_L))
        defect = float(np.max(np.abs(0.5 + lap.values - sol.density.values)))
        files = [
            _field_csv(out_dir / "meanfield_density.csv", sol.density),
            _field_csv(out_dir / "meanfield_potential.csv", sol.potential),
        ]
        report = {
            "solver": solver,
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

    target, target_name = _oracle_target(args)
    if solver == "poisson":
        phi, coeffs = solve_poisson(target, degree=args.degree)
        files = [_field_csv(out_dir / "poisson_potential.csv", phi)]
        report = {
            "solver": solver,
            "target": target_name,
            "degree": args.degree,
            "spectral_residual": poisson_residual(coeffs, target),
            "tail_mass": coeffs.tail_mass(),
            "files": files,
        }
        outcome = {k: report[k] for k in ("target", "spectral_residual", "tail_mass")}
        return report, outcome, files

    _require(args.N is not None and args.N >= 2, "oracle phin needs --N >= 2")
    phi = phi_n_approximant(target)  # --N is only echoed, as n_points
    files = [_field_csv(out_dir / "phi_n.csv", phi)]
    report = {
        "solver": solver,
        "target": target_name,
        "n_points": args.N,
        "sup_abs": float(np.max(np.abs(phi.values))),
        "files": files,
    }
    outcome = {k: report[k] for k in ("target", "n_points", "sup_abs")}
    return report, outcome, files


def _run_verify(args: argparse.Namespace, out_dir: Path):
    report = run_verify(args.level)
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


HANDLERS = {
    "mc": _run_mc,
    "sample": _run_sample,
    "oracle": _run_oracle,
    "verify": _run_verify,
}
