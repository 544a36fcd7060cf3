"""Tests for the closed-form Gaussian relative entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gree import (
    NumericalGuardError,
    ValidationError,
    cm_to_em,
    cross_term,
    displacement_penalty,
    random_cm,
    relative_entropy,
    von_neumann_entropy,
)
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
    got = cross_term(alpha, cm_to_em(alpha))
    assert abs(got - von_neumann_entropy(alpha)) < 1e-9


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
