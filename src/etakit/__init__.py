"""Level-one modular forms mod ell, with half-integral weight support.

Exact 1/24-indexed q-series arithmetic, echelon bases with membership
certificates, certified theta-lifts and U_ell descent, a three-case
classifier for forms supported on the square classes {1, ell}, and
numeric verification of the transformation laws.
"""

from .qseries import (
    PrecisionError,
    QExp24,
    eta_series,
    is_prime,
    kronecker,
    series_from_text,
    series_to_text,
    squarefree_part,
    theta_op,
    u_op,
    v_op,
)
from .spaces import (
    CertificationError,
    MembershipCertificate,
    NotMember,
    SpaceBasis,
    coordinates,
    dims,
    eta_membership,
    filtration,
    membership_depth,
    miller_basis,
)
from .halfint import (
    HalfIntForm,
    canonical_t1,
    canonical_t2,
    certify,
    eta_form,
    hecke_eigenvalue_check,
    hecke_tp2,
    shimura_coeffs,
    theta_lift,
    u_ell_descent,
)
from .classify import (
    CaseReport,
    CheckResult,
    check_multiplier,
    check_two_classes,
    classify,
)
from .numeric import (
    UnimodularMatrix,
    epsilon_identities,
    eta_multiplier_exponent,
    eta_multiplier_value,
    eta_value,
    verify_eta_transform,
)

__version__ = "0.1.0"
