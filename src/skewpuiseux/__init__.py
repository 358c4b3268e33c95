"""Skew polynomial arithmetic over truncated Puiseux series.

The ring F[t, sigma, delta_a] over the Puiseux field F (twist
sigma(x) = alpha*x, inner derivation delta_a) with left division,
substitution, residue reduction, conjugation by the uniformizer, a skew
Hensel lifting engine, and a factorization driver that splits any monic
polynomial into linear factors and extracts sigma-zeros.
"""

from .errors import (ContextMismatch, MathObstruction, NoSplittingRoot,
                     NotMonicError, Obstruction, ParseError, PrecisionExhausted,
                     RootFindingError, SkewError, TwistCoprimeFailure,
                     UsageError, ZeroInversion)
from .factorizer import (FactorConfig, Factorization, factor_step,
                         newton_puiseux_factor, sigma_zero,
                         sigma_zero_quadratic, verify_factorization)
from .hensel import HenselState, hensel_lift, twist_precheck
from .parsing import parse_poly, parse_scalar, parse_series, poly_to_str, series_to_str
from .puiseux import PuiseuxSeries, SkewContext, sigma_apply, trace_apply
from .residue import (OrbitPartition, ResiduePoly, TMap, delta_set_member,
                      ext_gcd, orbit_partition, refine_factor_pair, roots,
                      twist_coprime_affine, twist_coprime_periodic,
                      twist_residue)
from .scalar import Alpha, GaussianRational, Rational, alpha_pow, bits
from .skewpoly import (ComplexConjRing, ConjSeries, ConjSeriesRing,
                       PuiseuxRing, SkewPoly, puiseux_ring)
from .structure import (IsoRecord, normalize_scaled, pull_unit_through_linear,
                        scale_back_monic, scale_iso, scaled_power_unit,
                        scaling_exponent, shift_iso, trace_solve)

__version__ = "0.1.0"

__all__ = [
    "Alpha", "ComplexConjRing", "ConjSeries", "ConjSeriesRing",
    "ContextMismatch", "FactorConfig", "Factorization", "GaussianRational",
    "HenselState", "IsoRecord", "MathObstruction", "NoSplittingRoot",
    "NotMonicError", "Obstruction", "OrbitPartition", "ParseError",
    "PrecisionExhausted", "PuiseuxRing", "PuiseuxSeries", "Rational",
    "ResiduePoly", "RootFindingError", "SkewContext", "SkewError", "SkewPoly",
    "TMap", "TwistCoprimeFailure", "UsageError", "ZeroInversion", "alpha_pow",
    "bits", "delta_set_member", "ext_gcd", "factor_step", "hensel_lift",
    "newton_puiseux_factor", "normalize_scaled", "orbit_partition",
    "parse_poly", "parse_scalar", "parse_series", "poly_to_str",
    "puiseux_ring", "pull_unit_through_linear", "refine_factor_pair", "roots",
    "scale_back_monic", "scale_iso", "scaled_power_unit", "scaling_exponent",
    "series_to_str", "shift_iso", "sigma_apply", "sigma_zero",
    "sigma_zero_quadratic", "trace_apply", "trace_solve",
    "twist_coprime_affine", "twist_coprime_periodic", "twist_precheck",
    "twist_residue", "verify_factorization",
]
