"""Minimum cross entropy reasoning over recursive causal networks.

The package interprets RCNDL, a small clause language describing recursive
causal models over binary variables.  A program is parsed, preprocessed
into per-clause joint tables, and then updated against evidence constraint
sets by iterative minimum-cross-entropy projections with greatest-gradient
scheduling.  A desk-scale oracle over the expanded full joint validates the
decomposed machinery.
"""

from .engine import (
    DualState,
    conditional_update,
    constraint_gradient,
    cross_entropy,
    gradient_scalar,
    jeffrey_update,
    lec_solve,
)
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
from .evidence import parse_evidence
from .model import (
    ConditionalConstraint,
    JointTable,
    LinearConstraint,
    MarginalConstraint,
    ObservationClause,
    QueryClause,
    RuleClause,
    Scope,
    marginalize,
    multiply_condition,
    state_index,
)
from .oracle import ce_decomposition_check, expand_full_joint, oracle_mce
from .parser import SourceProgram, parse_program, render_program
from .preprocess import (
    PreparedNetwork,
    preprocess,
    render_intermediate,
)
from .scheduler import (
    GREATEST_GRADIENT,
    PROGRAM_ORDER,
    EvidenceSet,
    RunTrace,
    apply_constraint,
    posterior_marginal,
    propagate_clause_update,
    run_reasoning,
)

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
    "multiply_condition",
    "oracle_mce",
    "parse_evidence",
    "parse_program",
    "posterior_marginal",
    "preprocess",
    "propagate_clause_update",
    "render_intermediate",
    "render_program",
    "run_reasoning",
    "state_index",
]
