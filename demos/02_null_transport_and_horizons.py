"""The null cone boundary, its inverse transport, and horizons.
=============================================================

Causality in a warped cone is governed by F(r) = integral of 1/f from the
base time: a later point is chronologically related exactly when F(q0)
exceeds the fiber distance, and the null boundary is the graph of the
inverse h.  Horizons are the (possibly infinite) limits of F toward the
interval ends.  For the analytic warp kinds F, h and the horizons are closed
forms; sampled warps sum exact integrals of 1/f over their knot pieces.
"""

import math

import numpy as np

from lorcone import NullTransport, WarpSpec

print("warp f = exp(t) on R, base time 0")
nt = NullTransport(WarpSpec.exp(), 0.0)
print("  F(1)             : %.9f   (exact 1 - e^-1 = %.9f)"
      % (nt.null_parameter(1.0), 1 - math.exp(-1)))
print("  h(0.5)           : %.9f   (exact ln 2 = %.9f)"
      % (nt.h_solve(0.5), math.log(2)))
print("  forward horizon  : %.9f   (closed form e^-p0: 1/f is integrable)"
      % nt.forward_horizon)
print("  backward horizon :", nt.backward_horizon)

print("\nwarp f = t on (0, inf), base time 1")
nt_id = NullTransport(WarpSpec.identity(), 1.0)
print("  F(e)             : %.9f   (exact 1)" % nt_id.null_parameter(math.e))
print("  forward horizon  :", nt_id.forward_horizon, "  (closed form: log r diverges)")
print("  backward horizon :", nt_id.backward_horizon)

print("\nbig-bang warp f = t^(2/3) on (0, inf), base time 1")
nt_bb = NullTransport(WarpSpec.power(2.0 / 3.0), 1.0)
print("  backward horizon : %.9f   (closed form -3 p0^(1/3): a particle horizon)"
      % nt_bb.backward_horizon)
print("  forward horizon  :", nt_bb.forward_horizon)

print("\nsampled warp: exp(t) on a 401-point grid over (-2, 2), base time 0")
ts = np.linspace(-2.0, 2.0, 401)
nt_s = NullTransport(WarpSpec.sampled(list(zip(ts, np.exp(ts)))), 0.0)
print("  F(1)             : %.9f   (integral of the linear interpolant)"
      % nt_s.null_parameter(1.0))
print("  forward horizon  : %.9f   (knot table; exp itself gives 1 - e^-2 = %.9f)"
      % (nt_s.forward_horizon, 1 - math.exp(-2)))

print("\nODE check: h' = f(h) by central differences, f = sin on (0, pi)")
w = WarpSpec.sin()
nt_sin = NullTransport(w, 1.0)
eps = 1e-5
for s in (-0.5, 0.0, 0.8):
    h = nt_sin.h_solve(s)
    deriv = (nt_sin.h_solve(s + eps) - nt_sin.h_solve(s - eps)) / (2 * eps)
    print("  s = %5.2f: h = %.6f, h' = %.9f, f(h) = %.9f"
          % (s, h, deriv, w(h)))
