"""Polymatroid and matroid workbench.

Dense rank vectors with exact-integer and float modes, polymatroid duality
and tightening, entropy vectors of joint distributions, the MMRV non-Shannon
inequality, lazy Helgason expansions, and matroid-port access structures.

The names below are exported lazily: ``import polyshare`` loads none of the
modules (nor numpy) until one of their names is first used, so that a CLI
command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "CommaInLabel",
        "DuplicateLabel",
        "GroundSet",
        "GroundSetMismatch",
        "ModeError",
        "NonFiniteRank",
        "NonNumericRank",
        "RankOverflow",
        "RankVector",
        "UnknownLabel",
        "load_rank_vector",
        "mu",
        "rank_vector_from_json",
        "save_rank_vector",
        "subset_format",
        "subset_parse",
    ),
    "polymatroid": (
        "Polymatroid",
        "ResidualTooLarge",
        "ValidationError",
        "Violation",
        "basis_r",
        "check_polymatroid",
        "collapse_pair",
        "dual",
        "factor",
        "is_connected",
        "is_tight",
        "linear_combine",
        "principal_extension",
        "round_to_integer",
        "split_atom",
        "tighten",
        "uniform_matroid",
        "validate_polymatroid",
    ),
    "entropy": (
        "JointDistribution",
        "MarginalMismatch",
        "conditional_product",
        "entropy_vector",
        "load_distribution",
        "marginal",
    ),
    "inequalities": (
        "InfoTerm",
        "conditional_entropy",
        "eval_term",
        "mmrv",
        "mmrv_identity_residual",
    ),
    "matroid": (
        "ExpandedMatroid",
        "block_collapse",
        "circuit_connected",
        "circuits",
        "expanded_mmrv",
        "helgason_expand",
        "is_matroid",
    ),
    "secret_sharing": (
        "AccessStructure",
        "dual_structure",
        "is_qualified",
        "load_access_structure",
        "matroid_port",
        "minimal_qualified",
        "realizes",
        "save_access_structure",
        "sigma",
        "threshold_structure",
    ),
    "reproduce": ("ReproductionReport", "StepRecord", "run_reproduction"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the module that exports ``name`` and keep the name here, so the
    next lookup is a plain attribute read."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
