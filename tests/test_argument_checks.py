"""The argument checks of the public routines, each called once with an
argument it refuses: a function or map on the wrong space, a negative lag,
a word outside the alphabet, a map type with no JSON form."""

import pytest

from orbiteq import (
    InadmissibleWord,
    OrbiteqError,
    block_to_transducer,
    build_shift_space,
    canonical_point,
    check_eventual_conjugacy,
    combine,
    compose_block_codes,
    constant,
    identity_code,
    induced_potential,
    orbit_cocycles,
    point_with_prefix,
    pullback,
    refine,
    tables_equal,
    verify_inverse_pair,
)
from orbiteq import jsonio

FULL2 = build_shift_space([[1, 1], [1, 1]])
GOLDEN = build_shift_space([[1, 1], [1, 0]])
IDENT2, IDENTG = identity_code(FULL2), identity_code(GOLDEN)
ON_FULL2, ON_GOLDEN = constant(FULL2, 1, 2), constant(GOLDEN, 1)

# (call, the exception and message it raises, or the value it returns)
CHECKS = {
    "induced-potential-space": (
        lambda: induced_potential(IDENT2, orbit_cocycles(IDENT2, 1), ON_GOLDEN),
        (ValueError, "f must live on the target space of the map"),
    ),
    "eventual-lag-negative": (
        lambda: check_eventual_conjugacy(IDENT2, IDENT2, -1),
        (ValueError, "lag must be nonnegative"),
    ),
    "refine-shallower": (
        lambda: refine(ON_FULL2, 1),
        (ValueError, "refinement depth must be >= current depth"),
    ),
    "combine-spaces": (
        lambda: combine(1, ON_FULL2, 1, ON_GOLDEN),
        (ValueError, "functions live on different spaces"),
    ),
    "tables-equal-spaces": (lambda: tables_equal(ON_FULL2, ON_GOLDEN), False),
    "pullback-space": (
        lambda: pullback(ON_GOLDEN, IDENT2),
        (ValueError, "function must live on the target space of the map"),
    ),
    "compose-codes": (
        lambda: compose_block_codes(IDENTG, IDENT2),
        (ValueError, "codes are not composable"),
    ),
    "inverse-pair-codes": (
        lambda: verify_inverse_pair(IDENT2, IDENTG),
        (ValueError, "codes are not composable"),
    ),
    "inverse-pair-machines": (
        lambda: verify_inverse_pair(block_to_transducer(IDENT2), IDENTG),
        (ValueError, "maps are not composable"),
    ),
    "admissible-symbol-0": (lambda: FULL2.is_admissible((1, 0)), False),
    "admissible-symbol-3": (lambda: FULL2.is_admissible((3,)), False),
    "canonical-empty-cycle": (
        lambda: canonical_point(FULL2, (1,), ()),
        (InadmissibleWord, "cycle must be nonempty"),
    ),
    "prefix-empty": (
        lambda: point_with_prefix(FULL2, ()),
        (InadmissibleWord, r"word \(\) not admissible"),
    ),
    "prefix-inadmissible": (
        lambda: point_with_prefix(GOLDEN, (2, 2)),
        (InadmissibleWord, r"word \(2, 2\) not admissible"),
    ),
    "map-to-json-type": (
        lambda: jsonio.map_to_json(object()),
        (OrbiteqError, "cannot serialize map of type object"),
    ),
}


@pytest.mark.parametrize("call, outcome", CHECKS.values(), ids=CHECKS)
def test_argument_check(call, outcome):
    if isinstance(outcome, tuple):
        error, message = outcome
        with pytest.raises(error, match=f"^{message}$"):
            call()
    else:
        assert call() is outcome
