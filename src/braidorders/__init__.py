"""Exact computation with left-orderings of braid groups.

Braid words are tuples of signed generator indices; every ordering is a sign
oracle mapping a braid to -1/0/+1.  Handle reduction decides the Dehornoy
ordering; ray orders compare the image of a geodesic word under the free
group action by boundary angle; combinators conjugate orders and re-order
abelian soul blocks; experiments measure agreement radii between orders on
balls.
"""

from .braids import (
    BallSpec,
    BraidWord,
    conjugate,
    invert,
    linking_number,
    multiply,
    parse_braid,
    permutation_of,
    sigma,
)
from .catalog import (
    CalibrationResult,
    calibrate_conventions,
    catalog,
    catalog_order,
    dehornoy_word,
)
from .dehornoy import (
    DEFAULT_BUDGET,
    HandleFreeWord,
    dehornoy_sign,
    handle_reduce,
    is_trivial_braid,
)
from .errors import (
    BudgetExceededError,
    CalibrationError,
    MalformedInputError,
    SearchFailureError,
    SoulValidationError,
    StreamGrowthError,
    UndecidedComparisonError,
)
from .experiments import (
    AgreementReport,
    agreement_radii,
    agreement_radius,
    converge_conjugates_experiment,
    converge_extensions_experiment,
    limit_probe_experiment,
    small_positive_search,
)
from .freewords import (
    Custom,
    EventuallyPeriodic,
    FreeWord,
    QuadraticIrrational,
    Sturmian,
    parse_free_word,
    parse_infinite_word,
)
from .nt import (
    ChainReport,
    ConradWitness,
    GeodesicSpec,
    NTOrder,
    TotalityReport,
    conrad_witness_search,
    convex_chain_report,
    divergence_depth,
    format_geodesic_spec,
    in_convex_subgroup,
    is_conrad_witness,
    order_cmp,
    parse_geodesic_spec,
    soul_of,
    totality_probe,
)
from .orders import (
    ConjugatedOrder,
    ConvexExtensionOrder,
    DehornoyOrder,
    OrderOracle,
    ZkIntegerSlope,
    ZkLex,
    ZkQuadraticSlope,
    soul_lex_of_base,
    zk_membership,
    zk_sign,
)
from .planar import (
    DEFAULT_DEPTH_CAP,
    EQUAL,
    FROZEN_CONVENTION,
    GREATER,
    LESS,
    GermConvention,
)

__version__ = "0.1.0"
