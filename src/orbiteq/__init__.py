"""Exact arithmetic for one-sided shift spaces and the equivalences
between them: topological conjugacy, eventual conjugacy, and (strong)
continuous orbit equivalence, all certified or refuted with re-checkable
witnesses."""

from .config import RunConfig
from .errors import (
    ImageInadmissible,
    InadmissibleWord,
    InconsistentRoutes,
    InvalidPartition,
    NoAlignment,
    NotIrreducible,
    NotTotal,
    NotZeroOne,
    OrbiteqError,
    PermutationMatrix,
    PreconditionFailed,
    StallingCycle,
    TooLarge,
)
from .functions import (
    CylinderFunction,
    combine,
    compose_shift,
    constant,
    evaluate,
    find_transfer,
    indicator,
    pullback,
    refine,
    tables_equal,
    transfer_obstruction,
)
from .generators import (
    prefix_exchange,
    random_shift_space,
    random_single_split,
    split_chain,
)
from .invariants import (
    InvariantReport,
    ObstructionReport,
    amalgamation_terminals,
    bowen_franks,
    conjugacy_from_amalgamation,
    decide_one_sided_conjugacy,
    exact_det,
    find_isomorphism,
    invariant_report,
    matrices_isomorphic,
    obstruction_report,
    out_split,
    smith_normal_form,
    total_amalgamation,
)
from .maps import (
    BlockCode,
    Transducer,
    apply_map,
    block_to_transducer,
    compile_block_code,
    compose_block_codes,
    identity_code,
    transducer,
    verify_inverse_pair,
)
from .orbit import (
    OrbitCocyclePair,
    SegmentReduction,
    Verdict,
    aperiodic_point_with_prefix,
    check_conjugacy,
    check_eventual_conjugacy,
    check_potential_identity,
    check_strong_coe,
    classify,
    cylinder_family,
    induced_potential,
    orbit_cocycles,
    reduce_orbit_segments,
    verify_cocycles,
)
from .shifts import (
    Point,
    ShiftSpace,
    TransitionMatrix,
    build_shift_space,
    canonical_point,
    count_periodic,
    enumerate_points,
    point_with_prefix,
    shift_point,
)

__version__ = "0.1.0"
