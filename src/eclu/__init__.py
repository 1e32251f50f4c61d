"""Error correction for outsourced exact linear algebra over finite fields.

Given a candidate answer (an LU factorization, a triangular-system solution,
a triangular inverse, or a linear-system solution) that may contain a few
wrong entries, these routines repair it with cost that scales with the
number of errors rather than with a full recomputation, and certify the
result with a tunable failure probability.
"""

from .blackbox import BlackboxRHS
from .croutec import (GrpViolation, crout_ec, crout_reference,
                      make_grp_instance, rank_deficient_ec, rect_ec)
from .ff import (FieldError, extend_field, make_ext_field, make_prime_field,
                 element_of_order_at_least)
from .mat import (DimensionError, Mat, PackedLU, SingularMatrixError, Tri,
                  multiply)
from .report import CorrectionReport
from .sparseint import SparseColumn, batch_interpolate, interpolate_column
from .syssolve import (LargeRhsBundle, SmallRhsBundle, solve_large_rhs,
                       solve_small_rhs, tr_inv_ec)
from .trsmec import (MonteCarloFailure, TrsmEcParams, trsm_ec_lower_left,
                     trsm_ec_lower_right, trsm_ec_upper_left,
                     trsm_ec_upper_right)

__version__ = "0.1.0"

__all__ = [
    "BlackboxRHS", "CorrectionReport", "DimensionError", "FieldError",
    "GrpViolation", "LargeRhsBundle", "Mat", "MonteCarloFailure", "PackedLU",
    "SingularMatrixError", "SmallRhsBundle", "SparseColumn", "Tri",
    "TrsmEcParams", "batch_interpolate", "crout_ec", "crout_reference",
    "element_of_order_at_least", "extend_field", "interpolate_column",
    "make_ext_field", "make_grp_instance", "make_prime_field", "multiply",
    "rank_deficient_ec", "rect_ec", "solve_large_rhs", "solve_small_rhs",
    "tr_inv_ec", "trsm_ec_lower_left", "trsm_ec_lower_right",
    "trsm_ec_upper_left", "trsm_ec_upper_right",
]
