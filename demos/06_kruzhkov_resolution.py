"""How the Kruzhkov residual of an admissible run falls with resolution.

The AC-8 set-up (regularized Riemann step 1 -> -1 on [-20, 20], flux
splitting to T = 0.5, every second step snapshotted, 12 bumps, 9 entropy
levels) is run at each n, and the residuals are contracted as the run
records its snapshots, so no snapshot is stored and memory grows with n
only.  The first-order field error floors the minimum residual: it halves
per doubling of n, and the bound -1e-6 of AC-8a needs n near 1e5.

    python demos/06_kruzhkov_resolution.py [n ...]

runs n = 2000, 4000 and 8000 by default; larger n (up to 128000 takes a
few minutes and about 0.1 GB) may be given on the command line.  The peak
is the largest memory traced by ``tracemalloc`` during the run.
"""

import sys
import time
import tracemalloc

from fwlab import FVConfig, line, make_test_family, run_fv, sample
from fwlab.diagnostics import ResidualQuadrature

dom = line(-20, 20)
T = 0.5
family = make_test_family(dom, T)
sizes = [int(arg) for arg in sys.argv[1:]] or [2000, 4000, 8000]

# ratio: the residual at the previous n over the residual at this n
print(f"{'n':>7} {'min Kruzhkov':>13} {'ratio':>6} {'peak MB':>8} "
      f"{'seconds':>8}")
previous = None
tracemalloc.start()
for n in sizes:
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    t0 = time.perf_counter()
    u0 = sample("step", dom, n, left=1.0, right=-1.0, width=0.2)
    # lambdas=None: nine levels across +-1.5 max|u0|, as the entropy check's
    quad = ResidualQuadrature(dom, n, family, lambdas=None)
    run_fv(u0, FVConfig(T=T, snapshot_stride=2), sink=quad)
    kmin = float(quad.value()[1].min())
    seconds = time.perf_counter() - t0
    peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    ratio = f"{previous / kmin:6.2f}" if previous else f"{'':>6}"
    print(f"{n:>7} {kmin:>13.4e} {ratio} {peak_mb:>8.1f} {seconds:>8.2f}")
    previous = kmin
    del u0, quad
tracemalloc.stop()
