"""Scan the free energy F_N(beta) for the trivial divisor and compare the
Monte Carlo thermodynamic-integration curve against the exact three-point
closed form.

F_3 comes in two independent ways:

  * free_energy_curve: mean-energy MCMC runs integrated over beta
    (cumulative Simpson, from F = 0 at beta = 0), and
  * the Gamma-product partition function evaluated exactly, normalized the
    same way (per point, plane measure pulled back to the sphere).

The scan prints both, their difference in combined standard errors, and the
second difference of the MC curve (concavity check: F is concave in beta).

Usage:  python3 scripts/free_energy_scan.py [--n 3] [--budget 400000]
"""

import argparse
import math

import numpy as np

from kezeta.montecarlo import free_energy_curve
from kezeta.stability import LogFanoCurve
from kezeta.verify import three_point_free_energy


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=3, help="points per configuration")
    ap.add_argument("--budget", type=int, default=400_000, help="total MCMC sweeps")
    ap.add_argument("--seed", type=int, default=17)
    args = ap.parse_args()

    grid = [round(0.1 * k, 10) for k in range(1, 13)]  # 0.1 .. 1.2
    curve = LogFanoCurve.standard(())
    rows = free_energy_curve(curve, args.n, grid, args.budget, seed=args.seed)

    have_exact = args.n == 3
    print(f"# N = {args.n}, budget = {args.budget} sweeps, seed = {args.seed}")
    header = "beta      F_mc        se          "
    if have_exact:
        header += "F_exact     dev/se  "
    print(header)
    devs = []
    for beta, f, se in rows:
        line = f"{beta:5.2f}  {f: .6f}  {se:.6f}  "
        if have_exact:
            fx = three_point_free_energy(beta)
            dev = (f - fx) / se
            devs.append(dev)
            line += f"{fx: .6f}  {dev:+5.2f}"
        print(line)

    # concavity: second differences of F over the uniform grid should be <= 0
    # up to noise
    fs = np.array([f for _, f, _ in rows])
    d2 = fs[2:] - 2 * fs[1:-1] + fs[:-2]
    print(f"\nmax second difference: {d2.max():+.6f} (want <= noise, F concave)")
    if have_exact:
        print(f"worst |dev|/se vs closed form: {max(abs(d) for d in devs):.2f}")


if __name__ == "__main__":
    main()
