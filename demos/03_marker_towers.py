"""Marker towers: periodic neighborhoods, the greedy, return partitions.

The dyadic odometer's towers collapse to digit-prefix cylinders and verify
by exact residue algebra; the golden mean's towers are query-based and
verified through their structural atoms plus probe sweeps.
"""

from shiftembed import PeriodicNeighborhood, build_towers, return_partition, verify_tower
from shiftembed.entropy import build_schedule
from shiftembed.pipeline import build_pipeline, sample_points
from shiftembed.systems import OdometerPoint, Point, dyadic_odometer, golden_mean

nb = PeriodicNeighborhood(golden_mean(), 2, 2)
print("orbits of period <= 2 (necklace, least period):", sorted(nb.orbits.items()))

odo = dyadic_odometer(8)
osched = build_schedule(odo, K=2, kmax=3, N_cert=128)
stack = build_towers(odo, osched)
for k in (1, 2, 3):
    print("odometer U_%d residues (mod %d):" % (k, odo.modulus(stack[k].depth)),
          sorted(stack[k].residues), "->", verify_tower(stack, k).passed)

zero = OdometerPoint(odo, (0,) * 8)
part = return_partition(zero, stack, 1, (0, 90))
print("returns of 0 at scale 1:", part.returns[:6], "... gaps of", osched.n[0], "+")

pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
x = Point("10", "00100", "001", -2)
part = return_partition(x, pipe.stack, 1, (-30, 30))
for iv in part.intervals:
    print("golden scale-1:", iv.start, iv.end, iv.kind,
          "orbit=%s" % iv.orbit if iv.orbit else "")
probes = sample_points(golden_mean(), 3, seed=5)
for k in (1, 2):
    rep = verify_tower(pipe.stack, k, probe_points=probes)
    print("golden tower scale %d:" % k, "PASS" if rep.passed else "FAIL")
