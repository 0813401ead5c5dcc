"""The blow-up time read from the resolved Riccati rate of the minimum slope,
and where the strong and the weak solution part.

Along the minimum slope of a strong solution, m1' = -m1^2 + (u - K*u), and
the forcing is bounded by 2 sup|u|.  So near the blow-up time T*, 1/m1 is a
line of slope 1 in t, and T* = t - (1/m1) / (d(1/m1)/dt) extrapolates it
from data the grid still resolves.  The breaking datum of demo 03
(u0 = -2x exp(-x^2/2) on [-8, 8], upwind, dt = 2e-4, no stop) is run to
T = 0.6 at each n; the rate d(1/m1)/dt (``np.gradient`` over the recorded
series) is read where m1 first drops below -5, -10 and -20, and T* where it
first drops below -5.  The rate falls away from 1 once |m1| h is no longer
small, so the finer grids keep it near 1 to larger |m1|.

An FV run of the same datum at the same dt gives the entropy solution, and
the second table is the L1 distance ||u_strong - u_FV|| every 0.05 from
t = 0.3.  Before T* it halves per doubling of n; past T* it no longer falls,
although the strong run still reports completed.

    python demos/07_blowup_rate.py [n ...]

runs n = 2560 and 5120 by default; larger n (20480 takes about 13 s on a
2-CPU host) may be given on the command line.
"""

import sys
import time

import numpy as np

from fwlab import (FVConfig, StrongConfig, breaking_precheck, line, run_fv,
                   run_strong, sample)

LEVELS = (-5.0, -10.0, -20.0)
FIRST = 6  # the snapshot at t = 0.3
sizes = [int(arg) for arg in sys.argv[1:]] or [2560, 5120]
# both runs record a snapshot every 250 steps of 2e-4: every 0.05
cfg = StrongConfig(dt=2e-4, T=0.6, advect="upwind", stop_slope=1e300,
                   snapshot_stride=250)
fv_cfg = FVConfig(dt=cfg.dt, T=cfg.T, snapshot_stride=cfg.snapshot_stride)

rows = []
print(f"{'n':>6} " + " ".join(f"{f'rate@{lev:g}':>9}" for lev in LEVELS)
      + f" {'T*':>8} {'seconds':>8}")
for n in sizes:
    t0 = time.perf_counter()
    u0 = sample("gaussian_derivative", line(-8, 8), n, beta=2.0)
    traj = run_strong(u0, cfg)
    seconds = time.perf_counter() - t0
    t, m1 = traj.times, traj.series["m1"]
    rate = np.gradient(1.0 / m1, t)
    # the first recorded index below each level (None: never reached)
    first = [int(np.argmax(m1 < lev)) if (m1 < lev).any() else None
             for lev in LEVELS]
    cells = [f"{rate[i]:>9.5f}" if i is not None else f"{'-':>9}"
             for i in first]
    i = first[0]
    t_blow = (f"{t[i] - (1.0 / m1[i]) / rate[i]:>8.5f}" if i is not None
              else f"{'-':>8}")
    print(f"{n:>6} " + " ".join(cells) + f" {t_blow} {seconds:>8.2f}")
    fv = run_fv(u0, fv_cfg)
    gap = np.asarray(traj.snapshots[FIRST:]) - np.asarray(fv.snapshots[FIRST:])
    rows.append((n, u0.h * np.abs(gap).sum(axis=1), traj.stop_reason))
print(f"the criterion's bound t* = {breaking_precheck(u0).t_star:.5f}")

print(f"\n{'n':>6} " + " ".join(f"{f't={s:.2f}':>8}"
                                  for s in traj.snap_times[FIRST:])
      + "  strong run")
for n, dists, stop in rows:
    print(f"{n:>6} " + " ".join(f"{d:>8.2e}" for d in dists) + f"  {stop}")
