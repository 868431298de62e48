"""Cesaro-averaged counting of prime-plus-two-squares representations and the
matching explicit-formula main terms built from Riemann zeta zeros."""

from .arithmetic import (
    CesaroParams,
    LinnikTable,
    cesaro_lhs,
    compute_rq,
    omega2,
    s_tilde,
    sieve_von_mangoldt,
)
from .errors import (
    DomainError,
    LinnikError,
    PrecisionError,
    ZeroTableError,
)
from .formula import (
    FormulaReport,
    TruncationSpec,
    default_truncation,
    evaluate,
    threshold_probe,
    m1_term,
    m2_term,
    m3_term,
    m4_term,
    scaling_study,
)
from .specfun import (
    bessel_j,
    gamma_ratio,
    log_gamma,
)
from .zeros import (
    ZeroSet,
    bundled_zeros_path,
    compute_zeros,
    load_zeros,
    paired_zero_sum,
    zero_tail_bound,
)

__version__ = "0.1.0"
