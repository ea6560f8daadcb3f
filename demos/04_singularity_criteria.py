"""Singularity criteria from the warping function.
================================================

A lower timelike curvature bound K forces f'' - K f <= 0.  For K < 0 this
confines the interval to finite length (the time separation is bounded by
b - a); for K = 0 with non-constant f at least one end must be finite.
Vanishing f with exploding slope at an endpoint (big bang / big crunch)
rules out every upper curvature bound.

The report decides all of this from each warp kind's formula over the whole
interval, without sampling: the sign of f'' - K f from closed forms, and the
big bang from the kind itself (t^p on (0, inf) with 0 < p < 1 has one).
"""

import math

from lorcone import GeneralizedCone, RealLine, WarpSpec, singularity_report

import numpy as np


def show(name, warp, K):
    rep = singularity_report(warp, K)
    print(f"{name}  (candidate lower bound K = {K:g})")
    print(f"  K-concavity consistent : {rep.lower_bound_K_consistent}")
    print(f"  interval finite        : a={rep.a_finite} b={rep.b_finite}")
    print(f"  tau diameter bound     : {rep.tau_diameter_bound:.9g}")
    print(f"  big bang / big crunch  : {rep.big_bang} / {rep.big_crunch}")
    print(f"  upper bound possible   : {rep.upper_bound_possible}")
    for v in rep.verdicts:
        print(f"  - {v}")
    print()


show("f = sin on (0, pi)", WarpSpec.sin(), -1.0)
show("f = exp on R", WarpSpec.exp(), 0.0)
show("f = t^(2/3) on (0, inf)", WarpSpec.power(2.0 / 3.0), 0.0)

# the sin cone really is tau-bounded by pi: sample random causal pairs
Y = GeneralizedCone(WarpSpec.sin(), RealLine())
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(300):
    p0 = rng.uniform(0.05, 2.5)
    q0 = rng.uniform(p0 + 0.05, math.pi - 0.02)
    tau = Y.time_separation(Y.point(p0, 0.0), Y.point(q0, rng.uniform(0, 3)))
    worst = max(worst, tau)
print("largest sampled tau on the sin cone: %.6f  (diameter bound pi = %.6f)"
      % (worst, math.pi))
