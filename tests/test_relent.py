"""Tests for the closed-form Gaussian relative entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import logm, sqrtm

from gree import (
    NumericalGuardError,
    ValidationError,
    cm_to_em,
    displacement_penalty,
    random_cm,
    random_symplectic,
    relative_entropy,
    symplectic_form,
    von_neumann_entropy,
    williamson,
)
from gree.descent import make_state
from gree.relent import NEGATIVE_CLAMP, clamp_negative
from conftest import thermal_cm

# thermal gamma_rho = 1 against gamma_sigma = 3/2, one mode:
# -g(1/2) - log c(3/2) + gamma_rho Mtilde(3/2) = log 2 - (3/2) log(3/2)
THERMAL_ANCHOR = 0.0849495183976987


def test_thermal_anchor():
    res = relative_entropy(thermal_cm(1.0), thermal_cm(1.5))
    assert abs(res.value - THERMAL_ANCHOR) < 1e-12
    assert abs(res.value - (res.self_term + res.cross_term)) < 1e-15


def test_zero_on_identical_states():
    rng = np.random.default_rng(9)
    for n in (1, 2):
        for _ in range(5):
            alpha = random_cm(rng, n, 0.6, 2.0)
            assert relative_entropy(alpha, alpha).value < 1e-9


def test_cross_term_of_self_is_the_entropy():
    # -Tr rho log sigma at sigma = rho is the von Neumann entropy
    rng = np.random.default_rng(15)
    alpha = random_cm(rng, 2, 0.6, 2.0)
    got = relative_entropy(alpha, cm_to_em(alpha), sigma_kind="em").cross_term
    assert abs(got - von_neumann_entropy(alpha)) < 1e-9


def reference_gammas(alpha):
    """Symplectic eigenvalues from the eigenvalues +-i gamma of Delta alpha."""
    delta = symplectic_form(alpha.shape[0] // 2)
    return np.sort(np.abs(np.linalg.eigvals(delta @ alpha).imag))[::2]


def reference_relative_entropy(alpha_rho, alpha_sigma):
    """S(rho||sigma) with no Williamson decomposition: Delta M_sigma =
    phi(sqrt(-X^2)) X for X = alpha_sigma Delta and
    phi(nu) = log((2 nu + 1)/(2 nu - 1)) / nu, and both spectra from
    eigenvalues of Delta alpha."""
    dim = alpha_sigma.shape[0]
    delta = symplectic_form(dim // 2)
    eye = np.eye(dim)
    x = alpha_sigma @ delta
    nu = sqrtm(-x @ x).real
    phi = logm((2.0 * nu + eye) @ np.linalg.inv(2.0 * nu - eye)).real @ np.linalg.inv(nu)
    m_sigma = -delta @ phi @ x
    occ = reference_gammas(alpha_rho) - 0.5
    entropy = float(np.sum((occ + 1.0) * np.log1p(occ) - occ * np.log(occ)))
    gammas_sigma = reference_gammas(alpha_sigma)
    log_c = -0.5 * float(np.sum(np.log(gammas_sigma**2 - 0.25)))
    return -entropy - log_c + 0.5 * float(np.trace(alpha_rho @ m_sigma))


def reference_pairs():
    """Seeded random_cm pairs at n = 1, 2, 3, then sigmas with a near-pure
    (gamma - 1/2 = 1e-6) and a degenerate symplectic spectrum."""
    rng = np.random.default_rng(33)
    pairs = [(random_cm(rng, n), random_cm(rng, n)) for n in (1, 2, 3) for _ in range(20)]
    for gammas in ([0.5 + 1e-6], [1.3, 0.5 + 1e-6], [1.2, 1.2], [0.9, 0.9, 0.9]):
        n = len(gammas)
        s = random_symplectic(rng, n)
        sigma = s * np.array(gammas * 2) @ s.T
        pairs.append((random_cm(rng, n), 0.5 * (sigma + sigma.T)))
    return pairs


@pytest.mark.filterwarnings("ignore:logm result may be inaccurate")
def test_relative_entropy_matches_a_reference_without_williamson():
    eps = np.finfo(float).eps
    for alpha_rho, alpha_sigma in reference_pairs():
        expect = reference_relative_entropy(alpha_rho, alpha_sigma)
        # a rounding of sigma's entries moves gamma_sigma by about
        # eps |sigma|, and log(gamma - 1/2) by that over gamma - 1/2: room
        # that only a near-pure sigma needs
        gap = reference_gammas(alpha_sigma)[0] - 0.5
        tol = 1e-12 * max(1.0, abs(expect)) + 16.0 * eps * np.max(np.abs(alpha_sigma)) / gap
        s_sigma, gammas_sigma = williamson(alpha_sigma)
        got = (
            relative_entropy(alpha_rho, alpha_sigma).value,
            relative_entropy(alpha_rho, cm_to_em(alpha_sigma), sigma_kind="em").value,
            make_state(alpha_rho, s_sigma, gammas_sigma).objective,
        )
        for value in got:
            assert abs(value - expect) <= tol, (value, expect, tol)


def test_em_route_matches_cm_route():
    rng = np.random.default_rng(21)
    alpha = random_cm(rng, 2, 0.6, 2.0)
    sigma = random_cm(rng, 2, 0.7, 1.8)
    via_cm = relative_entropy(alpha, sigma).value
    via_em = relative_entropy(alpha, cm_to_em(sigma), sigma_kind="em").value
    assert abs(via_cm - via_em) < 1e-10
    with pytest.raises(ValidationError):
        relative_entropy(alpha, sigma, sigma_kind="bogus")


def test_additive_over_product_states():
    # qqpp direct sum of single-mode states: diag(aq, bq, ap, bp)
    rho_a, rho_b = (1.3, 0.7), (0.9, 1.1)
    sig_a, sig_b = (1.6, 1.5), (1.4, 1.2)
    rho = np.diag([rho_a[0], rho_b[0], rho_a[1], rho_b[1]])
    sig = np.diag([sig_a[0], sig_b[0], sig_a[1], sig_b[1]])
    total = relative_entropy(rho, sig).value
    parts = sum(
        relative_entropy(np.diag(r), np.diag(s)).value
        for r, s in ((rho_a, sig_a), (rho_b, sig_b))
    )
    assert abs(total - parts) < 1e-12


def test_displacement_penalty_thermal():
    # diagonal EM c I: penalty (1/2) c ||z||^2 (Delta is orthogonal)
    m = 0.8 * np.eye(4)
    z = np.array([0.3, -0.2, 0.5, 0.1])
    expect = 0.5 * 0.8 * float(z @ z)
    assert abs(displacement_penalty(m, z) - expect) < 1e-15
    with pytest.raises(ValidationError):
        displacement_penalty(m, np.ones(3))


def test_displacement_only_increases():
    rng = np.random.default_rng(27)
    alpha = random_cm(rng, 2, 0.6, 1.8)
    sigma = random_cm(rng, 2, 0.7, 1.9)
    base = relative_entropy(alpha, sigma).value
    moved = relative_entropy(alpha, sigma, z=np.array([0.4, 0.0, -0.3, 0.2])).value
    assert moved > base


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_relative_entropy_is_nonnegative(seed):
    rng = np.random.default_rng(seed)
    alpha = random_cm(rng, 2, 0.55, 2.5)
    sigma = random_cm(rng, 2, 0.55, 2.5)
    res = relative_entropy(alpha, sigma)
    assert res.value >= 0.0
    assert math.isfinite(res.value)


def test_negative_clamp_boundary():
    assert clamp_negative(0.25, "value") == 0.25
    assert clamp_negative(-NEGATIVE_CLAMP, "value") == 0.0
    with pytest.raises(NumericalGuardError, match="GREE came out"):
        clamp_negative(-2.0 * NEGATIVE_CLAMP, "GREE")
