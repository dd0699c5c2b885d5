"""ke-zeta: partition functions of Coulomb gases on the round sphere.

Exact Gamma-product continuations of the canonical partition functions of
log Fano curves, Monte Carlo estimators that cross-validate them, a Gibbs
sampler for the point ensembles, and axially symmetric mean-field PDE
oracles — each computable route checked against the others.

The public names below are looked up on first use (PEP 562), each in the
module that defines it, so `import kezeta` loads no submodule: the exact
engine runs without numpy, and the numeric modules load when one of their
names (or the module itself, e.g. `kezeta.meanfield`) is first asked for.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it contributes to the package
_EXPORTS = {
    "errors": (
        "CoincidenceError",
        "ConvergenceError",
        "GridTooCoarseError",
        "KeZetaError",
        "PoleError",
        "StabilityError",
        "ThresholdError",
        "ValidationError",
    ),
    "gammaprod": (
        "AffineArg",
        "GammaFactor",
        "GammaProduct",
        "MeroValue",
        "eval_gamma_product",
        "gp_from_json",
        "gp_to_json",
        "log_gamma",
        "restrict_to_line",
        "zeros_and_poles_in_strip",
    ),
    "closedforms": (
        "TubeDomain",
        "ZeroFreeReport",
        "bernstein_product",
        "circular_Z",
        "gaussian_det_Z",
        "p1_three_point_Z",
        "pn_minimal_Z",
        "selberg_gamma_product",
        "selberg_integral_finite",
        "selberg_tube",
        "zero_free_in_tube",
    ),
    "stability": (
        "LogFanoCurve",
        "StabilityVerdict",
        "classify",
        "gamma_threshold",
        "weight_condition",
    ),
    "chart": (
        "INFINITY",
        "SpherePoint",
        "chordal",
        "green",
        "sphere_to_stereo",
        "stereo_to_sphere",
    ),
    "sphere": (
        "PointConfiguration",
        "config_energy",
    ),
    "montecarlo": (
        "McEstimate",
        "ProposalMixture",
        "free_energy_curve",
        "mc_circular",
        "mc_gaussian_det",
        "mc_gaussian_det_ratio",
        "mc_selberg",
        "mc_sphere_partition",
    ),
    "sampler": (
        "MarginalHistogram",
        "SampleStream",
        "ks_against",
        "ks_threshold",
        "log_target",
        "marginal_histogram",
        "mean_energy_estimate",
        "mean_energy_run",
        "run_chain",
    ),
    "meanfield": (
        "AxialField",
        "HarmonicCoeffs",
        "MeanFieldSolution",
        "bin_probabilities",
        "density_from_function",
        "free_energy_functional",
        "interaction_energy",
        "pair_kernel",
        "phi_n_approximant",
        "reduced_laplacian",
        "relative_entropy",
        "solve_mean_field",
        "solve_poisson",
        "uniform_density",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *__all__})
