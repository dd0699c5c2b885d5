"""Overlay the sampler's axial marginal on the mean-field density.

One weighted point at the north pole breaks the sphere's symmetry down to
rotations about the axis, so the one-point function only depends on the
axial coordinate t = z.  At large N the empirical marginal should converge
to the mean-field density mu_beta(t); this script prints both as text
columns (and the L1 distance), which is enough to watch the agreement
improve as N grows.

Usage:  python3 scripts/marginal_vs_meanfield.py [--w 0.5] [--beta 1] [--N 16]
"""

import argparse

import numpy as np

from kezeta.meanfield import bin_probabilities, solve_mean_field
from kezeta.sampler import marginal_histogram, run_chain
from kezeta.stability import LogFanoCurve
from kezeta.sphere import INFINITY


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--w", type=float, default=0.5, help="weight at the north pole")
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--N", type=int, default=16)
    ap.add_argument("--sweeps", type=int, default=4000)
    ap.add_argument("--bins", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    curve = LogFanoCurve((INFINITY,), (args.w,))
    sol = solve_mean_field(curve, args.beta)
    stream = run_chain(curve, args.beta, args.N, sweeps=args.sweeps,
                       chains=8, seed=args.seed, thinning=10)
    hist = marginal_histogram(stream, bins=args.bins)

    emp = hist.probabilities()
    mf = bin_probabilities(sol.density, hist.edges)
    widths = np.diff(hist.edges)
    print(f"# w = {args.w} (north pole), beta = {args.beta}, N = {args.N}")
    print(f"# solver residual {sol.residual:.2e} in {sol.iterations} newton steps")
    print("t_mid     sampler   meanfield")
    for mid, e, m, dt in zip((hist.edges[:-1] + hist.edges[1:]) / 2, emp, mf, widths):
        bars = "#" * int(60 * e / dt / max(emp / widths))
        print(f"{mid:+.3f}   {e / dt:.4f}    {m / dt:.4f}  {bars}")

    l1 = float(np.abs(emp - mf).sum())
    print(f"\nL1 distance between binned laws: {l1:.4f}")
    print(f"acceptance: {np.asarray(stream.acceptance_rate).mean():.3f}, "
          f"kept {stream.energies.size} configurations")


if __name__ == "__main__":
    main()
