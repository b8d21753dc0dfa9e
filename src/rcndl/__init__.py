"""Minimum cross entropy reasoning over recursive causal networks.

The package interprets RCNDL, a small clause language describing recursive
causal models over binary variables.  A program is parsed, preprocessed
into per-clause joint tables, and then updated against evidence constraint
sets by iterative minimum-cross-entropy projections with greatest-gradient
scheduling.  A desk-scale oracle over the expanded full joint validates the
decomposed machinery.
"""

from importlib import import_module

from .errors import (
    ArityError,
    ConvergenceError,
    InfeasibleEvidenceError,
    MultiplyConnectedError,
    NetworkStructureError,
    ParseError,
    RcndlError,
    ScopeError,
    SizeLimitError,
)
from .model import (
    GREATEST_GRADIENT,
    PROGRAM_ORDER,
    ConditionalConstraint,
    JointTable,
    LinearConstraint,
    MarginalConstraint,
    ObservationClause,
    QueryClause,
    RuleClause,
    Scope,
    marginalize,
)
from .parser import SourceProgram, parse_program, render_program
from .preprocess import PreparedNetwork, preprocess, render_intermediate

# The other submodules and the names they define load on first access, so
# importing the package loads only the parse and preprocess path and each
# command of the command line pays for the modules it runs.
_LAZY = {
    "engine": "engine", "DualState": "engine", "conditional_update": "engine",
    "constraint_gradient": "engine", "cross_entropy": "engine",
    "gradient_scalar": "engine", "jeffrey_update": "engine", "lec_solve": "engine",
    "evidence": "evidence", "parse_evidence": "evidence",
    "oracle": "oracle", "ce_decomposition_check": "oracle",
    "expand_full_joint": "oracle", "oracle_mce": "oracle",
    "scheduler": "scheduler", "EvidenceSet": "scheduler", "RunTrace": "scheduler",
    "apply_constraint": "scheduler", "posterior_marginal": "scheduler",
    "propagate_clause_update": "scheduler", "run_reasoning": "scheduler",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "ConditionalConstraint",
    "ConvergenceError",
    "DualState",
    "EvidenceSet",
    "GREATEST_GRADIENT",
    "InfeasibleEvidenceError",
    "JointTable",
    "LinearConstraint",
    "MarginalConstraint",
    "MultiplyConnectedError",
    "NetworkStructureError",
    "ObservationClause",
    "PROGRAM_ORDER",
    "ParseError",
    "PreparedNetwork",
    "QueryClause",
    "RcndlError",
    "RuleClause",
    "RunTrace",
    "Scope",
    "ScopeError",
    "SizeLimitError",
    "SourceProgram",
    "apply_constraint",
    "ce_decomposition_check",
    "conditional_update",
    "constraint_gradient",
    "cross_entropy",
    "expand_full_joint",
    "gradient_scalar",
    "jeffrey_update",
    "lec_solve",
    "marginalize",
    "oracle_mce",
    "parse_evidence",
    "parse_program",
    "posterior_marginal",
    "preprocess",
    "propagate_clause_update",
    "render_intermediate",
    "render_program",
    "run_reasoning",
]
