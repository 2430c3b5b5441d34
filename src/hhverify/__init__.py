"""hhverify: numerical verification of Hermite-Hadamard-type inequality
chains for harmonic and symmetrized-harmonic convex functions."""

__version__ = "0.1.0"

from .fnspec import (
    EvalDomainError,
    ExpressionError,
    FunctionSpec,
    ParseError,
    compose,
    parse,
    to_source,
)
from .hmean import (
    HInterval,
    TransformedFunction,
    antisym_transform,
    hcomb,
    sym_transform,
)
from .quad import (
    QuadratureBudgetError,
    QuadResult,
    integrate,
    reflected_weighted_integral,
    refinement_double_integral,
    weighted_integral,
)
from .convexity import (
    ConvexityVerdict,
    SampleGrid,
    StrictInclusionWitness,
    check_convex,
    check_harmonic_convex,
    check_harmonic_h_convex,
    check_symmetrized,
    find_strict_inclusion_witness,
    second_derivative,
)
from .ineq import (
    CHAINS,
    ChainReport,
    ChainTerm,
    HFunction,
    bounds_h_pointwise,
    bounds_pointwise,
    chain_harmonic_full,
    chain_harmonic_hh,
    chain_hh_classic,
    chain_h_subinterval,
    chain_reflected_pair,
    chain_refinement,
    chain_subinterval,
    product_inequalities,
    refinement_reports,
    run_chain,
    weighted_bounds,
)
from .corpus import (
    CorpusEntry,
    CorpusError,
    builtin_functions,
    builtin_h,
    export_json,
    import_json,
    random_harmonic_convex,
)

__all__ = [name for name in dir() if not name.startswith("_")]
