#!/usr/bin/env python3
"""Dense repeated-eigendecomposition reference for README.md.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/reference.py

For each workload: run the continuation job, then, on a freshly built
provider, call ``full_spectrum`` at every p of the job's accepted grid,
which is what a user without eigtrack's tracker would do.  Both are timed
``REPEATS`` times in reference-core seconds (``hostspeed.py``) and the
medians and their ratio are printed.  Not part of the benchmark runs.
"""

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from eigtrack import spectrum  # noqa: E402

REPEATS = 3


def dense_sweep(built, grids):
    for sweep, grid in zip(built.sweeps, grids):
        for p in grid:
            spectrum.full_spectrum(built.provider, p,
                                   pencil_coords=sweep.pencil_coords)


def main():
    sampler = hostspeed.SpeedSampler()
    sampler.start()
    try:
        print(f"{'workload':18s}{'points':>8s}{'track_s':>10s}{'dense_s':>10s}"
              f"{'dense/track':>13s}")
        for name, build in workloads.WORKLOADS.items():
            grids = [r.trajectory.p_values for r in workloads.run(build())]
            track, dense = [], []
            for _ in range(REPEATS):
                built = build()
                t0 = time.perf_counter()
                workloads.run(built)
                track.append(sampler.measure(t0, time.perf_counter())[1])
                built = build()
                t0 = time.perf_counter()
                dense_sweep(built, grids)
                dense.append(sampler.measure(t0, time.perf_counter())[1])
            t, d = statistics.median(track), statistics.median(dense)
            points = sum(len(g) for g in grids)
            print(f"{name:18s}{points:8d}{t:10.3f}{d:10.3f}{d / t:12.2f}x")
    finally:
        sampler.stop()


if __name__ == "__main__":
    main()
