"""Orbit cocycles, the induced potential, and the equivalence ladder.

The star of this demo is a homeomorphism of the full 2-shift that
replaces the first symbol by 1 when the first two symbols agree and by 2
otherwise, copying everything else.  It is its own inverse.  Shifting
first and mapping differs from mapping first and shifting, but only in
one symbol, so applying the shift once more reconciles the two: an
eventual conjugacy with lag 1 that is not a conjugacy.

The orbit cocycles (k, l) measure how far the two images must be shifted
to meet.  From them the induced potential carries integer functions
backwards through the map; it equals plain composition exactly when the
map is a conjugacy, and the demo exhibits an indicator function
witnessing the failure.
"""

from orbiteq import (
    RunConfig,
    build_shift_space,
    check_conjugacy,
    check_eventual_conjugacy,
    check_potential_identity,
    classify,
    indicator,
    induced_potential,
    orbit_cocycles,
    pullback,
    tables_equal,
    transducer,
    verify_inverse_pair,
)

cfg = RunConfig(depth=6)
full2 = build_shift_space([[1, 1], [1, 1]])

recoder = transducer(
    full2,
    full2,
    ["start", "saw1", "saw2", "copy"],
    "start",
    {
        ("start", 1): ("saw1", ()),
        ("start", 2): ("saw2", ()),
        ("saw1", 1): ("copy", (1, 1)),
        ("saw1", 2): ("copy", (2, 2)),
        ("saw2", 1): ("copy", (2, 1)),
        ("saw2", 2): ("copy", (1, 2)),
        ("copy", 1): ("copy", (1,)),
        ("copy", 2): ("copy", (2,)),
    },
)

ok, _ = verify_inverse_pair(recoder, recoder)
print("involutive homeomorphism verified:", ok)

conj, witness = check_conjugacy(recoder)
print("commutes with the shift:", conj, "   witness:", witness)
for K in (0, 1):
    ev, _ = check_eventual_conjugacy(recoder, recoder, K)
    print(f"lag-{K} intertwining (both directions):", ev)

kl = orbit_cocycles(recoder, 3)
print("\nminimal orbit cocycles per depth-3 cylinder (k, l):")
for w in full2.words(3):
    print(f"  {w}: ({kl.k.table[w]}, {kl.l.table[w]})")

ok, bad = check_potential_identity(recoder, kl, 2)
print("\ninduced potential equals composition for all depth-2 functions:", ok)
print("failing indicator cylinder:", bad)
f = indicator(full2, bad)
print("  induced table:   ", induced_potential(recoder, kl, f).values())
print("  composed table:  ", pullback(f, recoder).values())
print("  tables equal:    ", tables_equal(induced_potential(recoder, kl, f), pullback(f, recoder)))

verdict = classify(recoder, recoder, cfg)
print(f"\nclassification: {verdict.kind} (lag {verdict.lag})")
