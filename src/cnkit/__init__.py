"""cnkit: congruent-number certificates and Selmer/class-group densities
over GF(2).

The package factors squarefree integers, turns their Legendre symbols
into bit-packed matrices, evaluates the matched pairs of divisor sums
and determinants that certify congruent numbers, and measures corank
and 4-rank distributions against their closed-form limit laws.
"""

__version__ = "0.1.0"

from .numtheory import (  # noqa: F401
    FactoredInteger,
    NotSquarefreeError,
    PrimeSieve,
    ResourceLimitError,
    enumerate_squarefree,
    factor_squarefree,
    legendre,
    legendre_plus,
    sieve_init,
)
from .gf2 import F2Matrix, F2Vector  # noqa: F401
from .monsky import TwistData, build_twist, redei_g, selmer_rank  # noqa: F401
from .lfun import LCache, divisor_sum, lvalue_parity, verify_rows  # noqa: F401
from .altsim import (  # noqa: F401
    AltConfig,
    alpha,
    build_alt,
    corank_distribution_mc,
    delta,
    ensemble_config,
    equivalence_check,
    gerth_pmf,
)
from .classgroup import classgroup_oracle  # noqa: F401
from .density import certified_table, fourrank_census, scan  # noqa: F401
