"""Convolution with the exponential kernel K(x) = exp(-|x|)/2.

K is the fundamental solution of 1 - d^2/dx^2, so K*g is obtained by an
inverse-Helmholtz solve: a Fourier multiplier on the torus, a tridiagonal
solve on the line.  conv_K builds that operator from the grid of its
input; the KernelOp methods act on raw arrays.  This script checks the
identity, a closed-form value, and the operator bounds used by the
stability theory.
"""

import numpy as np

from fwlab import KernelOp, conv_K, kernel_eval, line, sample, torus
from fwlab.grid import second_difference

# --- the identity (I - D2)(K*g) = g holds by construction on the line
dom = line(-20, 20)
n = 2000
g = sample("gaussian", dom, n, amplitude=1.0, width=1.5)
w = conv_K(g)
resid = w.values - second_difference(w.values, g.h, False) - g.values
print("line Helmholtz identity, interior residual:",
      np.abs(resid[1:-1]).max())

# --- (K*K)(0) = int K^2 = 1/4
kk = conv_K(sample("kernel", dom, n))
print("(K*K)(0) =", kk.values[n // 2 - 1], " (analytic value 0.25)")

# --- the periodic kernel: K(0) = (1+e)/(2(e-1)), unit mass over a period
print("periodic K at 0:", kernel_eval("K_torus", 0.0))
xt = (np.arange(100000) + 0.5) / 100000
print("periodic K mass:", np.mean(kernel_eval("K_torus", xt)))

# --- operator bounds behind the L1 theory: |K'*u| <= |u| in L1 and Linf,
#     |d/dx K'*u|_inf <= 2 |u|_inf
rng = np.random.default_rng(1)
opt = KernelOp(torus(), 512)
worst = [0.0, 0.0]
for _ in range(50):
    u = rng.uniform(-1, 1, size=512)
    ku = opt.conv_Kprime_values(u)
    worst[0] = max(worst[0], np.abs(ku).max() / np.abs(u).max())
    worst[1] = max(worst[1], np.abs(opt.dx_values(ku)).max() / np.abs(u).max())
print("sup |K'*u|_inf / |u|_inf over 50 random fields:", worst[0])
print("sup |(K'*u)'|_inf / |u|_inf (bound 2):", worst[1])
