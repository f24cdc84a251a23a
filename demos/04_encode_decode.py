"""The codes: markers, filling letters, protected prefixes, round trips.

psi_1 writes each block's itinerary codeword after its marker; psi_2 adds
brackets and conditional codes; singular stretches carry the repetition of
the orbit's name, anchored so that the first n_1 letters identify it.
"""

from shiftembed import itinerary
from shiftembed.pipeline import build_pipeline
from shiftembed.systems import Point, golden_mean

pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
x = Point("10", "00100", "001", -2)

s1, s2 = pipe.encode_scales(x, (-40, 40))     # one pass writes every scale
sl = s2.unresolved()
print("psi_1:", "".join(s1.symbols))
print("psi_2:", "".join(s2.symbols))
print("psi  :", "".join(sl.symbols))

margin = pipe.decode_margin()
stream = pipe.encode(x, 2, (-60 - margin, 60 + margin))
res = pipe.decode(stream, 2)
print("\ndecoded orbits:", res.orbits)
for l in (1, 2):
    want = itinerary(golden_mean(), x, pipe.schedule.m[l - 1], (-60, 60))
    got = res.itinerary_list(l, (-60, 60))
    print("scale %d itinerary exact:" % l, got == want)

print("invert at time 0:", pipe.invert(pipe.encode(x, 1, (-margin, margin)), 1),
      "(true letter: %s)" % x.letter(0))

p = Point("01", "01", "01", 0)
print("\nfully periodic point encodes to:", "".join(pipe.encode(p, 2, (-12, 12)).symbols))
