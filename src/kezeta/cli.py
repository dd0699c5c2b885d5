"""Command-line front door.

    ke-zeta <zeta|stability|mc|sample|oracle|verify> [flags] [--config path.json] [--out dir]

One invocation runs exactly one operation: closed-form evaluation (zeta),
stability verdicts (stability), Monte Carlo estimates (mc), Gibbs-chain runs
(sample), the axial field oracles (oracle), or the acceptance gate (verify).
Results print to stdout as JSON (verify: plain text); bulk payloads land in
--out as CSV files with header rows, zeta's Gamma product as
gamma_product.json (gp_to_json), and every successful run appends one JSON
line to <out>/manifest.jsonl.  Its "config" echoes the subcommand's own
flags (and the command name), nothing else.

Each subcommand takes only the flags it reads: --seed exists on mc and
sample, the two that draw random numbers, and --workers on mc only.
Every subcommand takes --config and --out.  A value flag that the chosen
mode (zeta family, mc target, oracle solver, sample --score) does not read
is a validation error too; flags with a default cannot be told from it and
are not checked.

Config precedence: built-in defaults < --config JSON file < explicit flags.
The config file is a flat JSON object whose keys are the subcommand's flag
names (weights and grids as the same strings the flags take).  Its values
fill the parsed namespace, and main parses the subcommand's own arguments
again on top of them, so a flag wins wherever it stands.  The parser is
built once per process and parsing never changes it: main can be called
repeatedly in one process and carries no state from one call to the next.
A key of another subcommand, or a value of the wrong type, is a validation
error.  Integer flags take a JSON integer (not true or 5.5), --ks-uniform
takes true or false, --beta and --s take a string or a number, and every
other flag takes a string.

Exit codes, fixed so CI can triage: 0 ok, 2 validation (malformed input,
coincident points included; nothing written), 3 stability refusal
(unstable weights / beta at or below the finiteness threshold), 4 solver
non-convergence, 5 verification criterion failed.

Numbers are parsed as exact rationals where poles matter ("1/2", "0.6",
"-2/3" all work), so strip enumeration and pole reports stay exact.

The commands load in two tiers.  `zeta` and `stability` (and --help and
--version) run on the exact engine alone, `gammaprod`, `closedforms`,
`stability` and `chart`, and load no numpy.  The handlers of `mc`,
`sample`, `oracle` and `verify` live in `cli_numeric`, which main imports
the first time one of them runs: numpy and every numeric module load then,
together.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__
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
    CoincidenceError,
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
from .stability import LogFanoCurve, classify, lct_point_divisor

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STABILITY = 3
EXIT_CONVERGENCE = 4
EXIT_MISMATCH = 5

MANIFEST_SCHEMA = 1

# ---------------------------------------------------------------------------
# small parsers (all raise ValidationError, never ValueError)

def _parse_fraction(tok, what: str) -> Fraction:
    """The exact rational; refused when it overflows a float, since every
    handler computes with it in floats somewhere."""
    try:
        if isinstance(tok, float):
            value = Fraction(tok).limit_denominator(10**12)
        elif isinstance(tok, (str, int)):
            value = Fraction(tok)  # a string may carry surrounding whitespace
        else:
            raise ValueError(tok)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"cannot parse {what} {tok!r} as a rational") from exc
    try:
        float(value)
    except OverflowError as exc:
        raise ValidationError(f"{what} {tok!r} overflows a float") from exc
    return value


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
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValidationError(f"expected RE or RE,IM, got {text!r}")
    re = float(_parse_fraction(parts[0], "real part"))
    im = float(_parse_fraction(parts[1], "imaginary part")) if len(parts) == 2 else 0.0
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


_MAX_GRID_NODES = 1000  # of a --grid; the ladder and criterion 10 use 13
# --n of the zeta families that build O(n) Gamma factors: selberg, pnmin and
# gaussdet.  circular_Z is O(1) in N (two factors whatever N), so it has no cap.
_MAX_ZETA_N = 1000


def _parse_grid(text) -> list[float]:
    """Either 'start:stop:step' (inclusive) or a comma list of rationals, of
    at most _MAX_GRID_NODES nodes either way."""
    if not isinstance(text, str):
        raise ValidationError("grid must be a string (START:STOP:STEP or comma list)")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid range wants START:STOP:STEP, got {text!r}")
        start, stop, step = (_parse_fraction(p, "grid bound") for p in parts)
        if step <= 0 or stop < start:
            raise ValidationError("grid range needs step > 0 and stop >= start")
        nodes = (stop - start) // step + 1
        if nodes > _MAX_GRID_NODES:
            raise ValidationError(f"grid range has {nodes} nodes, more than {_MAX_GRID_NODES}")
        vals, x = [], start
        while x <= stop:
            vals.append(float(x))
            x += step
        return vals
    toks = text.split(",")
    if len(toks) > _MAX_GRID_NODES:
        raise ValidationError(f"grid list has {len(toks)} nodes, more than {_MAX_GRID_NODES}")
    return [float(_parse_fraction(tok, "grid point")) for tok in toks]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _refuse_unread(args: argparse.Namespace, dests: Sequence[str], mode: str) -> None:
    """Validation error if any flag among dests, which `mode` does not read,
    was given (a switch counts when it is on)."""
    given = [
        f"--{d.replace('_', '-')}" for d in dests
        if (v := getattr(args, d)) is not None and v is not False
    ]
    _require(not given, f"{mode} does not read {' '.join(given)}")


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


# ---------------------------------------------------------------------------
# handlers: each returns (stdout payload, manifest outcome, files written)

# every zeta flag but --log-gamma, which evaluates log Gamma alone
_ZETA_FAMILY_FLAGS = ("family", "n", "w", "beta", "s", "poles_in", "tube")


def _run_zeta(args: argparse.Namespace, out_dir: Path):
    if args.log_gamma is not None:
        _refuse_unread(args, _ZETA_FAMILY_FLAGS, "--log-gamma")
        z = _parse_complex(args.log_gamma)
        val = log_gamma(z)
        report = {
            "log_gamma_of": [z.real, z.imag],
            "value_re": val.real,
            "value_im": val.imag,
        }
        return report, {"value_re": val.real, "value_im": val.imag}, []

    families = ("selberg", "pnmin", "p1three", "circular", "gaussdet")
    _require(args.family in families, f"--family must be one of {'|'.join(families)}")
    report: dict = {"family": args.family}
    if args.family != "selberg":
        _require(args.tube is None, "--tube needs --family selberg")
        _require(args.w is None, "--w needs --family selberg")
    _refuse_unread(args, ("beta",) if args.family == "gaussdet" else ("s",), f"--family {args.family}")
    if args.family in ("selberg", "pnmin", "gaussdet"):
        _require(args.n is None or args.n <= _MAX_ZETA_N, f"{args.family} needs --n <= {_MAX_ZETA_N}")

    if args.family == "selberg":
        _require(args.n is not None and args.n >= 2, "selberg needs --n >= 2")
        gp = full = selberg_gamma_product(args.n)
        if args.beta is not None:
            _require(
                _parse_fraction(args.beta, "beta") == -1,
                "the three-point closed form is pinned at beta = -1",
            )
        weights = _parse_weights(args.w, allow_symbol=True) if args.w is not None else None
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
        if args.tube is not None:
            # the tube is scanned on the whole product, also when --w restricts it to a line
            tube_report = zero_free_in_tube(full, selberg_tube(args.tube))
            report["tube"] = {"kind": args.tube, **tube_report.to_json()}
    else:
        param = "s" if args.family == "gaussdet" else "beta"
        if args.family == "pnmin":
            _require(args.n is not None and args.n >= 1, "pnmin needs --n >= 1")
            gp = pn_minimal_Z(args.n)
        elif args.family == "p1three":
            gp = p1_three_point_Z()
        elif args.family == "circular":
            _require(args.n is not None and args.n >= 2, "circular needs --n >= 2")
            gp = circular_Z(args.n)
        else:
            _require(args.n is not None and args.n >= 0, "gaussdet needs --n >= 0")
            gp = gaussian_det_Z(args.n)
        arg = getattr(args, param)
        if arg is not None:
            value = _parse_fraction(arg, param)
            report["value_at"] = {param: str(value)}
            report["value"] = _mero_to_json(eval_gamma_product(gp, {param: value}))
            if args.family == "gaussdet":
                b = bernstein_product(args.n, value)
                try:
                    report["bernstein_next_ratio"] = float(b)
                except OverflowError:  # past the float range, as value_re reports it
                    report["bernstein_next_ratio"] = math.inf if b > 0 else -math.inf

    if args.poles_in is not None:
        lo, hi = _parse_strip(args.poles_in)
        entries = zeros_and_poles_in_strip(gp, lo, hi)
        report["strip"] = [str(lo), str(hi)]
        report["poles_and_zeros"] = [
            {"location": str(t), "net_order": o} for t, o in entries
        ]

    outcome = dict(report)
    path = out_dir / "gamma_product.json"
    path.write_text(gp_to_json(gp), encoding="utf-8")
    report["files"] = files = [str(path)]
    return report, outcome, files


def _run_stability(args: argparse.Namespace, out_dir: Path):
    report: dict = {}
    if args.lct is not None:
        coeffs = [float(x) for x in _parse_weights(args.lct)]
        report["lct_point_divisor"] = lct_point_divisor(coeffs)
        if args.w is None:
            return report, dict(report), []
    _require(args.w is not None, "stability needs --w (or --lct)")
    ws = _parse_weights(args.w)
    report.update(classify(LogFanoCurve.standard(tuple(ws)), N=args.n).to_json())
    if len(ws) == 3 and args.n is not None and all(0 < x < 1 for x in ws) and sum(ws) < 2:
        report["integral_finite"] = selberg_integral_finite(ws, args.n)
    return report, dict(report), []


# the exact tier's handlers; the others are cli_numeric.HANDLERS
_EXACT_HANDLERS = {
    "zeta": _run_zeta,
    "stability": _run_stability,
}


# ---------------------------------------------------------------------------
# argument plumbing

class _Subcommand(argparse.ArgumentParser):
    """One subcommand's parser; `flags` maps each dest to the action that
    declares it, so that a --config file is checked against these flags."""

    def __init__(self, **kwargs):
        self.flags = {}
        super().__init__(**kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action


# String flags that the handlers parse as rationals (`_parse_fraction`), so a
# config file may also give them as JSON numbers.
_RATIONAL_FLAGS = frozenset({"beta", "s"})


def _config_value_fits(action: argparse.Action, value) -> bool:
    """A JSON integer for an int flag, true or false for a switch, a string
    for the rest, or a number for a rational flag."""
    if isinstance(value, bool):
        return action.nargs == 0
    if action.type is int:
        return isinstance(value, int)
    numbers = (int, float) if action.dest in _RATIONAL_FLAGS else ()
    return action.nargs != 0 and isinstance(value, (str, *numbers))


class _ConfigFile(argparse.Action):
    """--config PATH: the JSON object's entries, checked against the
    subcommand's own flags, are set on the namespace; the parser is never
    changed.  `main` then parses the subcommand's arguments again on top of
    them, so flags win."""

    def __call__(self, parser, namespace, text, option_string=None):
        if getattr(namespace, self.dest, None) == text:
            return  # main's second parse: the file's values are already in place
        setattr(namespace, self.dest, text)
        path = Path(text)
        if not path.is_file():
            raise ValidationError(f"config file {path} does not exist")
        try:
            values = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise ValidationError("config file must hold a single JSON object")
        own = sorted(set(parser.flags) - {"help", "config"})
        for key, value in values.items():
            if key not in own:
                raise ValidationError(f"{parser.prog} takes the config keys {', '.join(own)}, not {key}")
            if not _config_value_fits(parser.flags[key], value):
                raise ValidationError(f"config key {key} cannot be {value!r}")
        for key, value in values.items():
            setattr(namespace, key, value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ke-zeta",
        description="Partition functions, stability verdicts, samplers and "
        "field oracles for weighted point ensembles on the sphere.",
        epilog="Precedence: defaults < --config JSON < flags.",
    )
    parser.add_argument("--version", action="version", version=f"ke-zeta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    parser.commands = sub.choices  # name -> subcommand parser, for main's second parse

    def command(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", action=_ConfigFile,
                       help="JSON object of this subcommand's flags (without dashes); flags win")
        p.add_argument("--out", default=".", help="output directory (default .)")
        return p

    seed = {"type": int, "default": 0, "help": "RNG seed (default 0)"}

    p = command("zeta", "closed-form partition functions")
    p.add_argument("--family", help="selberg|pnmin|p1three|circular|gaussdet")
    p.add_argument("--n", type=int, help="points N or dimension n, per family")
    p.add_argument("--w", help="weights w1,w2,w3; one entry may be 't'")
    p.add_argument("--beta", help="inverse temperature (rational)")
    p.add_argument("--s", help="determinant-moment exponent (rational)")
    p.add_argument("--poles-in", dest="poles_in", help="strip LO:HI for pole/zero enumeration")
    p.add_argument("--tube", help="canonical|widened|display zero-free scan (selberg)")
    p.add_argument("--log-gamma", dest="log_gamma", help="evaluate log Gamma at RE[,IM]")

    p = command("stability", "Gibbs-stability verdicts")
    p.add_argument("--w", help="weights, e.g. 0.5,0.5,0.5")
    p.add_argument("--n", type=int, help="particle number for gamma_N / integral check")
    p.add_argument("--lct", help="coefficients for the point-divisor threshold")

    p = command("mc", "Monte Carlo estimates")
    p.add_argument("--target", help="selberg|sphere|circular|gaussdet|gaussdet-ratio|free-energy")
    p.add_argument("--w", help="weights")
    p.add_argument("--n", type=int, help="points N (selberg/sphere/circular/free-energy) or size n")
    p.add_argument("--beta", help="inverse temperature")
    p.add_argument("--s", help="determinant-moment exponent")
    p.add_argument("--samples", type=int, default=100_000, help="sample budget (default 100000)")
    p.add_argument("--grid", help="beta grid START:STOP:STEP or comma list (free-energy)")
    p.add_argument("--budget", type=int, default=200_000,
                   help="total MCMC sweeps for free-energy (default 200000)")
    p.add_argument("--batch-csv", dest="batch_csv", help="also write per-batch means CSV")
    p.add_argument("--seed", **seed)
    p.add_argument("--workers", type=int, default=1, help="importance-sampling streams (default 1)")

    p = command("sample", "Gibbs sampler runs")
    p.add_argument("--w", help="weights")
    p.add_argument("--beta", help="inverse temperature")
    p.add_argument("--N", type=int, help="points per configuration")
    p.add_argument("--sweeps", type=int, help="measurement sweeps per chain")
    p.add_argument("--chains", type=int, default=4, help="parallel chains (default 4)")
    p.add_argument("--thinning", type=int, default=10, help="keep every k-th sweep (default 10)")
    p.add_argument("--burn-in", dest="burn_in", type=int, help="override burn-in sweeps")
    p.add_argument("--bins", type=int, default=40, help="axial histogram bins (default 40)")
    p.add_argument("--ks-uniform", dest="ks_uniform", action="store_true",
                   help="KS test of the axial marginal against uniform")
    p.add_argument("--score", help="score a stored configuration CSV instead of sampling")
    p.add_argument("--seed", **seed)

    p = command("oracle", "axial field oracles")
    # SUPPRESS: when argv names no solver, argparse sets nothing, so a
    # --config "solver" is not overwritten with None
    p.add_argument("solver", nargs="?", default=argparse.SUPPRESS, help="meanfield|poisson|phin")
    p.add_argument("--w", help="axial weights (1: north pole, 2: south,north)")
    p.add_argument("--beta", help="inverse temperature (meanfield)")
    p.add_argument("--target", help="source density: uniform or exp:<a>")
    p.add_argument("--m", type=int, default=800, help="grid intervals (default 800)")
    p.add_argument("--degree", type=int, default=120, help="spectral degree (default 120)")
    p.add_argument("--N", type=int, help="points N (phin)")

    p = command("verify", "run the acceptance gate")
    p.add_argument("--level", default="quick", help="quick (exact checks) or full (adds MC/MCMC)")

    return parser


def _append_manifest(out_dir: Path, args: argparse.Namespace, outcome: dict,
                     wall_clock_s: float, files: list) -> None:
    record = {
        "schema": MANIFEST_SCHEMA,
        "artifact_version": __version__,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if v is not None and k != "config"},
        "outcome": outcome,
        "files": files,
        "wall_clock_s": wall_clock_s,
    }
    with (out_dir / "manifest.jsonl").open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first `main` call.  Parsing
    leaves it unchanged, so every call shares it."""
    return _build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    start = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file's values overwrote any flag given before --config:
            # parse the subcommand's own arguments again on top of them
            own = argv[argv.index(args.command) + 1:]
            args = parser.commands[args.command].parse_args(own, argparse.Namespace(**vars(args)))
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValidationError(f"--out {out_dir} is not a directory") from exc
        handler = _EXACT_HANDLERS.get(args.command)
        if handler is None:
            from . import cli_numeric  # numpy and the numeric modules load here, once
            handler = cli_numeric.HANDLERS[args.command]
        payload, outcome, files = handler(args, out_dir)
    except SystemExit as exc:  # argparse: --help, --version, a malformed command line
        return int(exc.code or 0)
    except (ValidationError, PoleError, CoincidenceError) as exc:
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
    _append_manifest(out_dir, args, outcome, time.perf_counter() - start, files)

    if args.command == "verify" and not outcome["passed"]:
        return EXIT_MISMATCH
    return EXIT_OK
