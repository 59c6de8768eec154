"""Analysis toolkit for two-phase relative-mobility models.

Checks the sufficient conditions for an S-shaped fractional-flow
(Buckley-Leverett) function, locates flux inflection points, and solves
scalar Riemann problems by the convex-envelope construction.
"""

from .jet import DomainError, Jet3, seed, mul, add, sub, div, neg, pow_const, exp_jet, reflect
from .models import (
    ModelExpr,
    ModelPair,
    ParseError,
    brooks_b,
    catalog,
    chierici,
    corey_a,
    corey_b,
    parse,
    parse_model_file,
    load_model_file,
    power,
    preset,
    product,
)
from .classifier import (
    ConditionReport,
    Witness,
    check_conditions,
    criterion_T3,
    monotonicity_change_of_ratio,
)
from .flux import (
    FluxAnalysis,
    Inflection,
    f2_closed,
    f_jet,
    f_value,
    find_s1,
    find_s2,
    inflection_points,
)
from .riemann import (
    ContactArc,
    Rarefaction,
    RiemannProblem,
    Shock,
    WaveFan,
    envelope,
)
from . import riemann

__all__ = [
    "DomainError", "Jet3", "seed", "mul", "add", "sub", "div", "neg",
    "pow_const", "exp_jet", "reflect",
    "ModelExpr", "ModelPair", "ParseError", "parse", "parse_model_file",
    "load_model_file", "preset", "product", "power", "corey_a", "corey_b",
    "brooks_b", "chierici", "catalog",
    "ConditionReport", "Witness", "check_conditions", "criterion_T3",
    "monotonicity_change_of_ratio",
    "FluxAnalysis", "Inflection", "f_jet", "f_value", "f2_closed",
    "find_s1", "find_s2", "inflection_points",
    "RiemannProblem", "WaveFan", "Shock", "Rarefaction", "ContactArc",
    "envelope", "riemann",
]
