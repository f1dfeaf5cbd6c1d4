"""State splittings, amalgamation, and integer invariants.

Out-splitting a state produces a conjugate shift space together with the
conjugacy and its inverse as block codes; Williams' total amalgamation
(merge states with equal columns, add their rows) undoes it, and the edge
each 2-word lands on gives the conjugacy back as block codes.  The
cokernel invariants of I - A (with the determinant sign) survive every
equivalence on the ladder, so they refute all of it at once when they
disagree -- and certify nothing when they agree.
"""

import random

from orbiteq import (
    RunConfig,
    bowen_franks,
    build_shift_space,
    classify,
    conjugacy_from_amalgamation,
    decide_one_sided_conjugacy,
    matrices_isomorphic,
    obstruction_report,
    out_split,
    smith_normal_form,
    total_amalgamation,
    verify_inverse_pair,
)
from orbiteq.generators import random_shift_space, split_chain

cfg = RunConfig(depth=6)
golden = build_shift_space([[1, 1], [1, 0]])

# split state 1 by its two followers: a 3-state conjugate presentation
split, code, inverse = out_split(golden, {1: [(1,), (2,)]})
print("golden mean out-split matrix:")
for row in split.matrix.entries.tolist():
    print("  ", row)
print("inverse pair verified:", verify_inverse_pair(code, inverse)[0])
print("classification of the split code:", classify(code, inverse, cfg).kind)

back = total_amalgamation(split)
print("full 2-shift amalgamates to one state with two loops:",
      total_amalgamation(build_shift_space([[1, 1], [1, 1]])).tolist())
print("amalgamates back to golden mean:", matrices_isomorphic(back, golden.matrix))
print("decision oracle agrees:", decide_one_sided_conjugacy(golden, split))

pair = conjugacy_from_amalgamation(golden, split)
print("explicit conjugacy read off the terminal edges:",
      pair is not None and verify_inverse_pair(*pair)[0])

# integer invariants: exact Smith normal forms of I - A; I - A^T has the
# same diagonal, so the factors are also K0 = coker(I - A^T) and their
# zeros count the rank of K1 = ker(I - A^T)
full2 = build_shift_space([[1, 1], [1, 1]])
full3 = build_shift_space([[1, 1, 1]] * 3)
for name, space in (("full 2-shift", full2), ("full 3-shift", full3), ("golden", golden)):
    bf, sign = bowen_franks(space)
    k0, k1 = bf, bf.count(0)
    print(f"{name}: cokernel factors {bf or 'trivial'}, det sign {sign}, "
          f"K0 {k0 or 'trivial'}, K1 rank {k1}")

rep = obstruction_report(full2, full3)
print("\nfull-2 vs full-3 ruled out at every rung:", rep.ruled_out)

# invariants are stable across random splittings
rng = random.Random(7)
base = random_shift_space(rng, 3)
chain, _, _ = split_chain(rng, base, 2)
print("\nrandom base invariants:   ", bowen_franks(base))
print("after two random splits:  ", bowen_franks(chain))

u, d, v = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
print("\nnormal form diagonal of a sample integer matrix:",
      [d[i][i] for i in range(3)])
