"""Polymatroid and matroid workbench.

Dense rank vectors with exact-integer and float modes, polymatroid duality
and tightening, entropy vectors of joint distributions, the MMRV non-Shannon
inequality, lazy Helgason expansions, and matroid-port access structures.
"""

from .core import (
    CommaInLabel,
    DuplicateLabel,
    GroundSet,
    GroundSetMismatch,
    ModeError,
    NonFiniteRank,
    NonNumericRank,
    RankOverflow,
    RankVector,
    UnknownLabel,
    load_rank_vector,
    mu,
    rank_vector_from_json,
    rank_vector_to_json,
    save_rank_vector,
    subset_format,
    subset_parse,
)
from .polymatroid import (
    FactorMap,
    Polymatroid,
    ResidualTooLarge,
    ValidationError,
    Violation,
    basis_r,
    check_polymatroid,
    collapse_pair,
    dual,
    factor,
    is_connected,
    is_independent_set,
    is_tight,
    linear_combine,
    principal_extension,
    round_to_integer,
    split_atom,
    tighten,
    uniform_matroid,
    validate_polymatroid,
)
from .entropy import (
    JointDistribution,
    MarginalMismatch,
    conditional_product,
    entropy_vector,
    load_distribution,
    marginal,
    product_power,
    save_distribution,
)
from .inequalities import (
    InfoExpression,
    InfoTerm,
    conditional_entropy,
    eval_expression,
    mmrv,
    mmrv_identity_residual,
    mutual_information,
)
from .matroid import (
    ExpandedMatroid,
    block_collapse,
    circuit_connected,
    circuits,
    expanded_mmrv,
    helgason_expand,
    is_matroid,
)
from .secret_sharing import (
    AccessStructure,
    dual_structure,
    important_bound_check,
    important_participants,
    is_qualified,
    load_access_structure,
    matroid_port,
    minimal_qualified,
    realizes,
    save_access_structure,
    sigma,
    threshold_structure,
)
from .reproduce import ReproductionReport, StepRecord, run_reproduction

__version__ = "0.1.0"
