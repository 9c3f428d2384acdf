"""Exact polynomial/rational arithmetic, parsing, and certified numerics."""

from .gaussian import GaussianRational
from .parse import (parse_bivariate, parse_expression, parse_rational,
                    parse_univariate)
from .poly import (BivariatePolynomial, RationalFunction,
                   UnivariatePolynomial, discriminant_y, resultant_y,
                   squarefree_factorization)
from .roots import ComplexInterval, complex_roots, exact_nth_root

__all__ = [
    "GaussianRational", "exact_nth_root",
    "parse_expression", "parse_bivariate", "parse_rational", "parse_univariate",
    "UnivariatePolynomial", "BivariatePolynomial", "RationalFunction",
    "resultant_y", "discriminant_y", "squarefree_factorization",
    "ComplexInterval", "complex_roots",
]
