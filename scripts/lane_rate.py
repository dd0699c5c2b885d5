"""Time the Metropolis sweep loop, sampler._run_lanes, in lane-updates per
second: lanes x N x sweeps over the wall time of one call, best of
--repeat calls.

Shapes: the ladder workload's batch, 432 lanes (27 beta nodes x 16 chains)
at N = 3 on the trivial curve; then 64 lanes at N = 16, 64 and 128 on the
chain workload's curve (weight 1/2 at one marked point), to follow the
step's cost as N grows.  `perfbench/run.py --trace 1` reports
lane-updates/s too, but on `ladder` its sampler.* numbers come from the
probe set's small `sample` job, not from the ladder's own batch.

Every lane runs at beta = 1, with no burn-in and one kept energy per lane.
Run it once on each checkout, alternating, to get before/after pairs.

Usage:  PYTHONPATH=src python3 scripts/lane_rate.py [--sweeps 50] [--repeat 3]
"""

import argparse
import time

import numpy as np

import kezeta
from kezeta import sampler
from kezeta.stability import LogFanoCurve

CHAIN = (0.5,)  # the chain workload's weights
SHAPES = [(432, 3, ()), (64, 16, CHAIN), (64, 64, CHAIN), (64, 128, CHAIN)]  # lanes, N, weights


def lane_rate(lanes, N, weights, sweeps, repeat, seed):
    """Best lane-updates/s of `repeat` _run_lanes calls."""
    curve = LogFanoCurve.standard(weights)
    betas = np.ones(lanes)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        sampler._run_lanes(curve, betas, N, sweeps, 0, seed, sweeps, keep_configs=False)
        best = min(best, time.perf_counter() - t0)
    return lanes * N * sweeps / best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sweeps", type=int, default=50, help="sweeps per call")
    ap.add_argument("--repeat", type=int, default=3, help="calls per shape; the fastest counts")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"# kezeta from {kezeta.__path__[0]}, {args.sweeps} sweeps, best of {args.repeat}")
    print("lanes    N   weights   lane_updates_per_s")
    for lanes, N, weights in SHAPES:
        rate = lane_rate(lanes, N, weights, args.sweeps, args.repeat, args.seed)
        print(f"{lanes:5d}  {N:3d}   {','.join(map(str, weights)) or '-':7s}   {rate:,.0f}")


if __name__ == "__main__":
    main()
