"""Reference figures for the scaling points: 8x8, 16x16 and 32x32 grids
with 2x2 and 3x3 tensors, a fixed number of solver iterations each.

    python3 bench/scaling.py

Each point runs in its own process (``PYTHONPATH`` must reach ``src``, as
``bench/run.py`` sets it for its children): ``sinkhorn_solve`` on two
anisotropic-bump grids with the default config and ``tol`` so small that
exactly ``ITERS`` iterations run.  It prints one line per point: the
median milliseconds per iteration (from the iteration callback) and the
peak RSS of the whole solve, finalisation included.  These are reference
figures for the README, not benchmark workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time

POINTS = [(8, 2), (16, 2), (32, 2), (8, 3), (16, 3), (32, 3)]
ITERS = 5


def _point(side: int, d: int) -> dict:
    from gen import bump_field
    from qot import SolverConfig, euclidean_cost, sinkhorn_solve

    mu = bump_field(side, (0.3, 0.35), 0.0, d)
    nu = bump_field(side, (0.7, 0.65), math.pi / 2, d)
    stamps = [time.perf_counter()]
    sinkhorn_solve(mu, nu, euclidean_cost(mu.points, nu.points),
                   SolverConfig(max_iter=ITERS, tol=1e-300),
                   callback=lambda *_: stamps.append(time.perf_counter()))
    steps = [b - a for a, b in zip(stamps, stamps[1:])]
    return {"grid": f"{side}x{side}", "d": d, "pairs": side**4,
            "iterations": len(steps),
            "ms_per_iter": 1e3 * statistics.median(steps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--point", nargs=2, type=int, metavar=("SIDE", "D"))
    args = parser.parse_args()
    if args.point:
        print(json.dumps(_point(*args.point)))
        return
    import run

    env = run.child_env()
    for side, d in POINTS:
        out = subprocess.run([sys.executable, __file__, "--point", str(side), str(d)],
                             env=env, check=True, capture_output=True, text=True)
        row = json.loads(out.stdout.splitlines()[-1])
        print(f"{row['grid']:>6s} d={row['d']} {row['pairs']:>8d} pairs  "
              f"{row['ms_per_iter']:9.1f} ms/iter  {row['peak_rss_mb']:7.1f} MB "
              f"peak RSS  ({row['iterations']} iterations)", flush=True)


if __name__ == "__main__":
    main()
