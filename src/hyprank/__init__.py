"""Moment statistics of Frobenius traces for hyperelliptic families.

Exact arithmetic throughout: traces and moments are integers and
rationals, closed forms are checked against enumeration oracles, and the
high-rank family construction verifies its defining identities.  The only
floating-point outputs are the Nagao-style partial-sum estimates.
"""

from .construction import (
    ConstructionResult,
    InternalCheckError,
    RootData,
    build_family,
    expand_roots,
    solve_coefficients,
    to_monic_model,
)
from .curves import HyperFamily, trace_row
from .finite_field import (
    PrimeCtx,
    PrimeRange,
    double_sum_S,
    is_prime,
    legendre,
    nu2,
    power_pair_count,
    primes_in,
    quadratic_char_sum,
)
from .moments import (
    MomentRow,
    MomentSeries,
    NagaoEstimate,
    NonGenericPrime,
    SnWitnessReport,
    make_big_rank,
    make_linear_twist,
    make_power,
    make_shift_square,
    moment,
    moment_series,
    nagao_sum,
    power_sum,
    predict_first_moment,
    sn_witness,
)
from .polynomials import (
    BiPoly,
    IntPoly,
    ModPoly,
    PolyParseError,
    degree_pattern_mod,
    mod_gcd,
    parse_bipoly,
    parse_int_poly,
    reduce_mod,
    root_count_mod,
    squarefree_over_q,
)
from .second_moment import (
    BiasReport,
    BiasRow,
    PowerFamily,
    bias_report,
    michel_deviation,
    second_moment_brute,
    second_moment_closed,
)

__version__ = "0.1.0"
