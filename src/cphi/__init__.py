"""Exact q-series engine and verification suite for colored Frobenius partitions.

The package computes, in exact rational arithmetic, the theta-quotient
generating function of N-colored generalized Frobenius partitions, the
partition-side series of the main identity, the cusp-form residual linking
them, and all supporting objects (quadratic Gauss sums, character constants,
eta quotients, Eisenstein expansions), each checked against independent
brute-force oracles in the test suite.
"""

from .qseries import QSeries, eta_power, euler_product
from .radicals import QuarterRadical, rational_str
from .characters import (
    CharacterContext,
    bernoulli_chi,
    chi,
    context,
    eisenstein_sign,
    epsilon_c,
    gauss_w,
    kronecker,
    sigma_twisted,
    unit_a,
)
from .gauss_sums import (
    GaussSumQuery,
    coprime_split,
    gauss_sum_by_reduction,
    gauss_sum_closed,
    gauss_sum_numeric,
    gauss_sum_prime_closed,
    galois_twist_holds,
    reduce_step,
    reduction_unit,
    theta_form,
    twist_orbit,
)
from .theta import cphi_series, theta_cusp_constant, theta_series
from .eta_partition import (
    EtaQuotientSpec,
    cusp_vanishing_order,
    eta_cusp_constant,
    eta_quotient_series,
    main_term,
    multi_partition_series,
    partition_count,
    scaled_partition_term,
)
from .eisenstein import (
    EisensteinProfile,
    eisenstein_coefficient,
    eisenstein_coefficient_factored,
    eisenstein_profile,
    eta_eisenstein_series,
    partition_eisenstein_series,
    theta_eisenstein_series,
)
from .verify import (
    VerificationReport,
    asymptotic_ratios,
    correction_series,
    main_term_series,
    residual_series,
    run_verification,
    sturm_bound,
)

__version__ = "0.1.0"
