"""Relative entropy S(rho||sigma) = Tr rho (log rho - log sigma) for
Gaussian states, split into the self term and the cross term
-Tr rho log sigma = -log c(gamma_sigma) + (1/2) Tr(alpha_rho M_sigma).  One
Williamson decomposition of a sigma CM gives M_sigma and gamma_sigma; a sigma
EM gives gamma_sigma = (1/2) coth(Mtilde/2) from its own symplectic spectrum.
"""

from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalGuardError, ValidationError
from .gaussian import (
    _check_positive_definite,
    _cm_to_em,
    gamma_of_em_spectrum,
    normalization_log_c,
    von_neumann_entropy,
)
from .symplectic import symplectic_eigenvalues, symplectic_form

# values in [-NEGATIVE_CLAMP, 0) are rounded up to zero
NEGATIVE_CLAMP = 1e-10


class RelEntResult(NamedTuple):
    """value = self_term + cross_term, with self_term = Tr rho log rho
    and cross_term = -Tr rho log sigma (both in nats)."""

    value: float
    self_term: float
    cross_term: float


def relative_entropy(
    alpha_rho: np.ndarray,
    sigma: np.ndarray,
    sigma_kind: str = "cm",
    z: Optional[np.ndarray] = None,
) -> RelEntResult:
    """Relative entropy of the Gaussian state rho from sigma, in nats.

    Args:
        alpha_rho: physical CM of rho (means fixed at zero).
        sigma: sigma's CM (default) or EM, per sigma_kind.
        sigma_kind: "cm" or "em".
        z: optional displacement of sigma; adds displacement_penalty.

    Returns:
        RelEntResult; tiny negative values (>= -1e-10) are clamped to 0,
        anything more negative raises NumericalGuardError.

    Raises:
        ValidationError: invalid rho or sigma, or differing mode counts.
        NumericalGuardError: a sigma CM so nearly pure that its EM diverges.
    """
    alpha_rho = np.asarray(alpha_rho, dtype=float)
    self_term = -von_neumann_entropy(alpha_rho)
    if sigma_kind == "cm":
        m_sigma, gammas_sigma = _cm_to_em(sigma)
    elif sigma_kind == "em":
        m_sigma = np.asarray(sigma, dtype=float)
        _check_positive_definite(m_sigma, "EM")
        gammas_sigma = gamma_of_em_spectrum(symplectic_eigenvalues(m_sigma))
    else:
        raise ValidationError("sigma_kind must be 'cm' or 'em'")
    if alpha_rho.shape != m_sigma.shape:
        raise ValidationError("mode-count mismatch between rho and sigma")
    cross = float(-normalization_log_c(gammas_sigma) + 0.5 * np.trace(alpha_rho @ m_sigma))
    if z is not None:
        cross += displacement_penalty(m_sigma, z)
    value = clamp_negative(self_term + cross, "relative entropy")
    return RelEntResult(value=value, self_term=self_term, cross_term=cross)


def clamp_negative(value: float, what: str) -> float:
    """value, with [-NEGATIVE_CLAMP, 0) rounded up to zero.

    Raises:
        NumericalGuardError: value < -NEGATIVE_CLAMP (what names it).
    """
    if value < 0.0:
        if value < -NEGATIVE_CLAMP:
            raise NumericalGuardError("%s came out %.3e < 0" % (what, value))
        return 0.0
    return value


def displacement_penalty(m_sigma: np.ndarray, z: np.ndarray) -> float:
    """Penalty (1/2) (Delta z)^T M_sigma (Delta z) for displacing sigma by z.

    Args:
        m_sigma: EM of sigma (positive definite).
        z: real 2n displacement vector.
    """
    m_sigma = np.asarray(m_sigma, dtype=float)
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != m_sigma.shape[0]:
        raise ValidationError("displacement vector length does not match the EM")
    dz = symplectic_form(m_sigma.shape[0] // 2) @ z
    return float(0.5 * dz @ m_sigma @ dz)
