"""Skew polynomial arithmetic over truncated Puiseux series.

The ring F[t, sigma, delta_a] over the Puiseux field F (twist
sigma(x) = alpha*x, inner derivation delta_a) with left division,
substitution, residue reduction, a skew Hensel lifting engine, and a
factorization driver that splits any monic polynomial into linear factors
and extracts sigma-zeros.  The skew power series ring C[[x, rho]] is a
second coefficient ring for the same polynomial and lifting code; its
elements are L = 1 Puiseux series.

Public API (exactly the names in ``__all__``):

  scalars:      Alpha, GaussianRational, bits
  series:       PuiseuxSeries
  rings:        ComplexConjRing, ConjSeriesRing, PuiseuxRing, puiseux_ring
  polynomials:  SkewPoly
  residues:     ResiduePoly, TMap, delta_set_member, ext_gcd, roots,
                twist_coprime_affine, twist_coprime_periodic, twist_residue
  structure:    normalize_scaled, scaling_exponent, shift_iso, trace_solve
  lifting:      HenselState, hensel_lift, twist_precheck
  factoring:    FactorConfig, Factorization, newton_puiseux_factor,
                sigma_zero, sigma_zero_quadratic, verify_factorization
  text:         parse_poly, parse_scalar, parse_series, poly_to_str,
                series_to_str
  errors:       ContextMismatch, MathObstruction, NotMonicError, Obstruction,
                ParseError, PrecisionExhausted, RootFindingError, SkewError,
                TwistCoprimeFailure, UsageError, ZeroInversion
"""

from .errors import (ContextMismatch, MathObstruction, NotMonicError, Obstruction,
                     ParseError, PrecisionExhausted, RootFindingError, SkewError,
                     TwistCoprimeFailure, UsageError, ZeroInversion)
from .factorizer import (FactorConfig, Factorization, newton_puiseux_factor,
                         sigma_zero, sigma_zero_quadratic, verify_factorization)
from .hensel import HenselState, hensel_lift, twist_precheck
from .parsing import parse_poly, parse_scalar, parse_series, poly_to_str, series_to_str
from .puiseux import PuiseuxSeries
from .residue import (ResiduePoly, TMap, delta_set_member, ext_gcd, roots,
                      twist_coprime_affine, twist_coprime_periodic, twist_residue)
from .scalar import Alpha, GaussianRational, bits
from .skewpoly import ComplexConjRing, ConjSeriesRing, PuiseuxRing, SkewPoly, puiseux_ring
from .structure import normalize_scaled, scaling_exponent, shift_iso, trace_solve

__version__ = "0.1.0"

__all__ = [
    "Alpha", "ComplexConjRing", "ConjSeriesRing", "ContextMismatch",
    "FactorConfig", "Factorization", "GaussianRational", "HenselState",
    "MathObstruction", "NotMonicError", "Obstruction",
    "ParseError", "PrecisionExhausted", "PuiseuxRing",
    "PuiseuxSeries", "ResiduePoly", "RootFindingError", "SkewError",
    "SkewPoly", "TMap", "TwistCoprimeFailure", "UsageError", "ZeroInversion",
    "bits", "delta_set_member", "ext_gcd", "hensel_lift",
    "newton_puiseux_factor", "normalize_scaled",
    "parse_poly", "parse_scalar", "parse_series", "poly_to_str",
    "puiseux_ring", "roots", "scaling_exponent",
    "series_to_str", "shift_iso", "sigma_zero", "sigma_zero_quadratic",
    "trace_solve", "twist_coprime_affine", "twist_coprime_periodic",
    "twist_precheck", "twist_residue", "verify_factorization",
]
