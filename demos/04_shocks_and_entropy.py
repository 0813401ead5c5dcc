"""Weak entropy solutions by Godunov flux splitting, and their checks.

A regularized Riemann datum steepens into a shock.  The run is screened
against the weak form, the Kruzhkov entropy inequality, the Oleinik
one-sided bound, and L1 stability; a hand-built stationary expansion shock
(-1 -> +1) shows the entropy check rejecting an inadmissible field.
Vanishing viscosity converges to the eps = 0 flux-splitting run at first
order in eps.
"""

import numpy as np

from fwlab import (FVConfig, GridFn, entropy_report, l1_stability_check,
                   line, make_test_family, norm, run_fv, sample,
                   viscosity_sweep)
from fwlab.diagnostics import kruzhkov_residual
from fwlab.trajectory import drain, synthetic_trajectory

dom = line(-20, 20)
n = 4000

# --- shock-forming run and its entropy report
u0 = sample("step", dom, n, left=1.0, right=-1.0, width=0.2)
traj = run_fv(u0, FVConfig(T=0.5, snapshot_stride=2))
rep = entropy_report(traj, lambdas=np.linspace(-1.5, 1.5, 9))
print("weak residual max:", rep.weak_residual_max)
print("Kruzhkov residual min:", rep.kruzhkov_min)
print("Oleinik margin:", rep.oleinik_margin, "(>= 0 means the bound holds)")

# --- an inadmissible stationary up-jump is rejected loudly
adv = drain(synthetic_trajectory(dom, n, np.linspace(0, 0.5, 101),
                                 lambda x, t: np.where(x < 0, -1.0, 1.0)))
fam = make_test_family(dom, 0.5)
print("up-jump Kruzhkov residual:",
      kruzhkov_residual(adv, np.linspace(-1.5, 1.5, 9), fam))

# --- L1 stability between nearby runs: |u - v|_1 <= e^t |u0 - v0|_1
pk = sample("peakon", dom, n)
bump = sample("bump", dom, n, amplitude=0.01, radius=2.0)
dt = 0.45 * pk.h / (1 + norm(pk, "Linf"))
cfg = FVConfig(T=1.0, dt=dt, snapshot_stride=8)
ratio = l1_stability_check(run_fv(pk, cfg),
                           run_fv(GridFn(dom, pk.values + bump.values), cfg))
print("L1 stability ratio (<= 1 + scheme slack):", ratio)

# --- vanishing viscosity: distances to the eps = 0 run scale like eps
pairs = viscosity_sweep(sample("gaussian", dom, 2000), [1e-2, 5e-3, 2.5e-3],
                        FVConfig(T=0.5))
print("viscosity distances:", [f"{d:.6f}" for _, d in pairs])
print("ratios (first order in eps gives 2):",
      [f"{a / b:.3f}" for (_, a), (_, b) in zip(pairs, pairs[1:])])
