"""Gaussian relative entropy of entanglement for continuous-variable states.

Covariance matrices (CMs) use the qqpp quadrature ordering F = (q_1..q_n,
p_1..p_n) with vacuum variance 1/2; a Gaussian state can equivalently be
held as the exponential matrix (EM) M of rho ~ exp(-(1/2) F^T M F).  The
package converts between the two, evaluates von Neumann and relative
entropies in closed form, checks them against a Fock-space oracle, and
minimizes the relative entropy over the border of the separable set to
obtain the entanglement measure, either by direct search over the border
families or by a monotone descent of the objective.
"""

from .errors import NumericalGuardError, SearchFailureError, ValidationError
from .symplectic import (
    WilliamsonResult,
    elementary_transform,
    is_symplectic,
    random_cm,
    random_symplectic,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)
from .gaussian import (
    StandardForm,
    SymmetricParams,
    TypeLabel,
    border_residual,
    bosonic_entropy,
    check_physical,
    classify,
    cm_to_em,
    em_spectrum,
    em_to_cm,
    gamma_of_em_spectrum,
    is_separable,
    normalization_log_c,
    standard_cm,
    standard_form,
    symmetric_cm,
    tmst_cm,
    tmsv_cm,
    von_neumann_entropy,
)
from .relent import RelEntResult, displacement_penalty, relative_entropy
from .fockoracle import (
    FockDensity,
    fock_apply_squeeze,
    fock_product,
    fock_relative_entropy,
    fock_schmidt_entropy,
    fock_thermal,
    mode_populations,
)
from .gree import (
    BorderParams,
    GreeResult,
    border_em,
    border_x_prime,
    gree,
    gree_symmetric,
    gree_tmst,
    inner_minimize,
)
from .descent import (
    DescentState,
    align_gammas,
    descend,
    descent_objective,
    descent_step,
    initial_state,
    sigma_cm_of,
    sigma_em_of,
)

__all__ = [
    "BorderParams",
    "DescentState",
    "FockDensity",
    "GreeResult",
    "NumericalGuardError",
    "RelEntResult",
    "SearchFailureError",
    "StandardForm",
    "SymmetricParams",
    "TypeLabel",
    "ValidationError",
    "WilliamsonResult",
    "align_gammas",
    "border_em",
    "border_residual",
    "border_x_prime",
    "bosonic_entropy",
    "check_physical",
    "classify",
    "cm_to_em",
    "descend",
    "descent_objective",
    "descent_step",
    "displacement_penalty",
    "elementary_transform",
    "em_spectrum",
    "em_to_cm",
    "fock_apply_squeeze",
    "fock_product",
    "fock_relative_entropy",
    "fock_schmidt_entropy",
    "fock_thermal",
    "gamma_of_em_spectrum",
    "gree",
    "gree_symmetric",
    "gree_tmst",
    "initial_state",
    "inner_minimize",
    "is_separable",
    "is_symplectic",
    "mode_populations",
    "normalization_log_c",
    "random_cm",
    "random_symplectic",
    "relative_entropy",
    "sigma_cm_of",
    "sigma_em_of",
    "standard_cm",
    "standard_form",
    "symmetric_cm",
    "symplectic_eigenvalues",
    "symplectic_form",
    "tmst_cm",
    "tmsv_cm",
    "von_neumann_entropy",
    "williamson",
]
