"""Shared state generators for the test suite."""

import numpy as np

from gree import (
    ValidationError,
    cm_to_em,
    is_separable,
    random_cm,
    symplectic_eigenvalues,
)
from gree.cli import _oracle_pair as oracle_pair  # noqa: F401  (shared with verify)
from gree.gaussian import PHYSICAL_TOL


def thermal_cm(*gammas):
    """Thermal product CM diag(gamma, gamma) in qqpp ordering."""
    g = np.asarray(gammas, dtype=float)
    return np.diag(np.concatenate([g, g]))


def ppt_margin(alpha):
    """Reference distance of the partial transpose's smallest symplectic
    eigenvalue above the PPT threshold 1/2 - PHYSICAL_TOL, by eigensolver."""
    flip = np.array([1.0, 1.0, 1.0, -1.0])
    return symplectic_eigenvalues(alpha * np.outer(flip, flip))[-1] - (0.5 - PHYSICAL_TOL)


def eigensolver_ppt_verdict(alpha):
    """Reference PPT verdict from two symplectic eigensolves: alpha must be
    physical, and the verdict is whether its partial transpose is too."""
    if symplectic_eigenvalues(alpha)[-1] < 0.5 - PHYSICAL_TOL:
        raise ValidationError("CM violates the uncertainty relation")
    return bool(ppt_margin(alpha) >= 0.0)


def draw_separable_cm(rng, gamma_lo=0.55, gamma_hi=1.7):
    """Rejection-sample a separable two-mode CM (moderate squeezing)."""
    while True:
        alpha = random_cm(rng, 2, gamma_lo, gamma_hi)
        if is_separable(alpha)[0]:
            return alpha


def draw_separable_em(rng, gamma_lo=0.55, gamma_hi=1.7):
    return cm_to_em(draw_separable_cm(rng, gamma_lo, gamma_hi))
