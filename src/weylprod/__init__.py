"""Workbench for trigonometric products P_N = prod_{k<=N} 2 sin(pi x_k)
over Kronecker, van der Corput, extremal and random point sequences, with
exact star-discrepancy and checkers for the quantitative product bounds."""

from .irrational import (ConvergentTable, FracPartEvaluator, FractionalPart,
                         IrrationalSpec, OstrowskiDigits, cf_expand,
                         cf_expand_until, ostrowski, ostrowski_digit_sums,
                         parse_alpha, surd_from_cf)
from .sequences import (PointSet, RationalArray, kronecker, uniform_grid,
                        van_der_corput)
from .discrepancy import (DiscrepancyResult, DiscrepancyTrace,
                          PrefixDiscrepancy, brute_force_star_discrepancy,
                          discrepancy_trace, kronecker_discrepancy,
                          star_discrepancy, vdc_discrepancy)
from .products import ProductTrace, closed_form_shifted, product_trace
from .extremal import (ExtremalConfig, build_extremal,
                       extremal_product_closed_form, sup_product_lower_bound,
                       sup_product_upper_bound, sup_search, threshold_B)
from .bounds import (BoundReport, check_cesaro_log_bound, check_hlawka,
                     check_kronecker_conjectures, check_kronecker_sandwich,
                     check_ostrowski_bound, check_type_growth,
                     check_vdc_limits)
from .stochastic import (PathStatistics, iid_lil_experiment, log_integral,
                         rademacher_lil_experiment,
                         subsequence_product_experiment, variance_integral)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
