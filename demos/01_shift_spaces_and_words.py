"""Shift spaces, words, and eventually periodic points.

A transition matrix over {0, 1} describes which symbol can follow which.
The shift space is everything the matrix allows; the golden-mean space
below forbids the word 2 2.  Everything the library computes lives on
exact finite data: admissible words of each length and points stored as
(preperiod, cycle) pairs.
"""

from orbiteq import (
    build_shift_space,
    canonical_point,
    count_periodic,
    enumerate_points,
    shift_point,
)

golden = build_shift_space([[1, 1], [1, 0]])
print("golden mean space on", golden.n, "symbols")

for m in range(1, 5):
    words = golden.words(m)
    print(f"  depth {m}: {len(words):3d} words   e.g. {words[:4]}")

# points are exact: preperiod + repeating cycle, canonical form
p = canonical_point(golden, (2,), (1,))
print("\npoint 2 1 1 1 ... =", p)
print("shifted once:      ", shift_point(golden, p))

q = canonical_point(golden, (1,), (2, 1))
print("point 1 2 1 2 1 ... canonicalizes to", q, "(the preperiod is absorbed)")

# periodic points are counted exactly by traces of matrix powers
print("\nperiodic point counts vs trace(A^n):")
for n in range(1, 7):
    fixed = [
        pt for pt in enumerate_points(golden, 0, n) if n % len(pt.cycle) == 0
    ]
    print(f"  n={n}: enumerated {len(fixed):3d}   trace {count_periodic(golden, n):3d}")

pts = enumerate_points(golden, 1, 3)
print(f"\nall {len(pts)} canonical points with preperiod <= 1, cycle <= 3:")
for pt in pts:
    print("  ", pt)
