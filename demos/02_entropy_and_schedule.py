"""Entropy estimates and the scale schedule.

The schedule search reproduces n_1 = 9 for the golden mean at K = 2: the
smallest threshold past which the capacity chain
#V_1^n <= e^{n(h+a/4)} < K^{n(1-a/2)-1} holds for every n.
"""

import math

from shiftembed import build_schedule, conditional_count, htop_estimate, verify_schedule
from shiftembed.systems import dyadic_odometer, full_shift, golden_mean

gm = golden_mean()
est = htop_estimate(gm, 12)
print("golden mean: upper %.5f  spectral %.5f  (log phi = %.5f)"
      % (est.upper, est.spectral, math.log((1 + 5 ** 0.5) / 2)))

print("conditional_count radius 0 -> 1:",
      [conditional_count(gm, 0, 1, n) for n in (2, 3, 5, 8)])

sched = build_schedule(gm, K=2, kmax=2, C=0.0, m=(0, 0))
print("\ngolden schedule: n =", sched.n, " r =", sched.r, " alpha = %.5f" % sched.alpha_float)
print("re-verification:", verify_schedule(gm, sched).passed)

odo = dyadic_odometer(8)
osched = build_schedule(odo, K=2, kmax=3, N_cert=128)
print("odometer schedule (headroom C=8): n =", osched.n)

try:
    build_schedule(full_shift(), K=2, kmax=1)
except Exception as exc:
    print("full 2-shift at K=2 rejected:", exc)
