"""Tests for CM/EM transforms, standard form, classification, separability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gree import (
    BorderParams,
    NumericalGuardError,
    StandardForm,
    SymmetricParams,
    ValidationError,
    border_em,
    border_residual,
    border_x_prime,
    bosonic_entropy,
    check_physical,
    classify,
    cm_to_em,
    descend,
    elementary_transform,
    em_to_cm,
    gamma_of_em_spectrum,
    is_separable,
    normalization_log_c,
    random_cm,
    relative_entropy,
    standard_cm,
    standard_form,
    symmetric_cm,
    symplectic_eigenvalues,
    symplectic_form,
    tmst_cm,
    tmsv_cm,
    von_neumann_entropy,
    williamson,
)
from gree.gaussian import _frame_verdict, _ppt_verdict, bosonic_entropy_sum
from conftest import eigensolver_ppt_verdict, thermal_cm

LN3 = 1.0986122886681098


def test_bosonic_entropy_values():
    assert bosonic_entropy(0.0) == 0.0
    expect = 1.5 * math.log(1.5) - 0.5 * math.log(0.5)
    assert abs(bosonic_entropy(0.5) - expect) < 1e-15
    xs = np.linspace(0.0, 3.0, 20)
    gs = [bosonic_entropy(x) for x in xs]
    assert np.all(np.diff(gs) > 0)


def test_von_neumann_entropy_thermal():
    expect = 2.0 * (1.5 * math.log(1.5) - 0.5 * math.log(0.5))
    assert abs(von_neumann_entropy(thermal_cm(1.0, 1.0)) - expect) < 1e-12


def test_check_physical_rejects_sub_vacuum():
    with pytest.raises(ValidationError):
        check_physical(np.diag([0.4, 0.4]))


def test_check_physical_accepts_squeezed_vacua_up_to_r_3_5():
    for r in np.arange(0.0, 3.5 + 1e-9, 0.05):
        gammas = check_physical(tmsv_cm(r))
        np.testing.assert_allclose(gammas, [0.5, 0.5], rtol=0, atol=1e-10)


# -alpha has alpha's symplectic spectrum; an indefinite matrix can pass the
# uncertainty bound with det alpha > 0
NOT_POSITIVE_DEFINITE = {
    "negative TMSV": -tmsv_cm(0.5),
    "indefinite": np.diag([0.6, -0.6, 0.6, -0.6]),
}


@pytest.mark.parametrize("alpha", list(NOT_POSITIVE_DEFINITE.values()),
                         ids=list(NOT_POSITIVE_DEFINITE))
def test_cms_that_are_not_positive_definite_are_rejected_on_entry(alpha):
    for check in (check_physical, von_neumann_entropy, is_separable, standard_form,
                  _ppt_verdict):
        with pytest.raises(ValidationError, match="not positive definite"):
            check(alpha)
    with pytest.raises(ValidationError, match="not positive definite"):
        check_physical(-thermal_cm(1.0))
    with pytest.raises(ValidationError, match="not positive definite"):
        check_physical(-thermal_cm(1.0, 1.2, 0.9))


def test_cm_to_em_thermal_gives_ln3():
    m = cm_to_em(thermal_cm(1.0))
    np.testing.assert_allclose(m, LN3 * np.eye(2), atol=1e-12)


def test_cm_to_em_rejects_pure():
    with pytest.raises(NumericalGuardError, match="pure"):
        cm_to_em(0.5 * np.eye(4))


def test_em_to_cm_thermal():
    gamma = gamma_of_em_spectrum(np.array([LN3]))[0]
    assert abs(gamma - 1.0) < 1e-12
    np.testing.assert_allclose(em_to_cm(LN3 * np.eye(4)), np.eye(4), atol=1e-12)


def test_round_trip_and_commutation():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for _ in range(10):
            alpha = random_cm(rng, n)
            m = cm_to_em(alpha)
            delta_inv = -symplectic_form(n)
            comm = m @ alpha @ delta_inv - delta_inv @ alpha @ m
            assert float(np.max(np.abs(comm))) < 1e-9
            back = em_to_cm(m)
            assert float(np.max(np.abs(back - alpha))) < 1e-9


def test_normalization_log_c_thermal():
    # c = prod 1/sqrt(gamma^2 - 1/4); gamma = 1 gives log c = -log(sqrt(3)/2)
    expect = -0.5 * math.log(0.75)
    assert abs(normalization_log_c(np.array([1.0])) - expect) < 1e-15
    with pytest.raises(NumericalGuardError):
        normalization_log_c(np.array([0.5]))


def test_standard_form_tmsv():
    r = 1.0
    sf = standard_form(tmsv_cm(r))
    a = 0.5 * math.cosh(2 * r)
    c = 0.5 * math.sinh(2 * r)
    np.testing.assert_allclose([sf.a, sf.b, sf.c1, sf.c2], [a, a, c, c], atol=1e-12)


def test_standard_form_product_state_has_zero_cross():
    s = elementary_transform("general_local", (0.4, -0.3, 0.2, -0.1, 0.5, 0.2))
    alpha = s @ thermal_cm(1.2, 0.8) @ s.T
    sf = standard_form(0.5 * (alpha + alpha.T))
    assert abs(sf.c1) < 1e-10
    assert abs(sf.c2) < 1e-10
    np.testing.assert_allclose([sf.a, sf.b], [1.2, 0.8], atol=1e-10)


def test_standard_form_local_matrix_reduces_the_input():
    rng = np.random.default_rng(5)
    for _ in range(10):
        alpha = random_cm(rng, 2, 0.6, 2.0)
        sf = standard_form(alpha)
        std = sf.local @ alpha @ sf.local.T
        target = standard_cm(sf.a, sf.b, sf.c1, sf.c2)
        assert float(np.max(np.abs(std - target))) < 1e-9
        assert sf.c1 >= abs(sf.c2) - 1e-12


@settings(max_examples=30, deadline=None)
@given(
    params=st.tuples(*[st.floats(-0.6, 0.6) for _ in range(6)]),
    r=st.floats(0.05, 0.8),
    m_scale=st.floats(1.0, 2.0),
)
def test_standard_form_is_a_local_invariant(params, r, m_scale):
    base = tmst_cm(m_scale * math.cosh(2 * r), math.sinh(2 * r))
    s = elementary_transform("general_local", params)
    moved = s @ base @ s.T
    sf0 = standard_form(base)
    sf1 = standard_form(0.5 * (moved + moved.T))
    np.testing.assert_allclose(
        [sf1.a, sf1.b, sf1.c1, sf1.c2],
        [sf0.a, sf0.b, sf0.c1, sf0.c2],
        rtol=1e-7,
        atol=1e-8,
    )


def test_classify_branches():
    eye = np.eye(4)
    assert classify(StandardForm(1.2, 0.8, 0.40, 0.38, eye)).label == "I"
    assert classify(StandardForm(1.2, 0.8, 0.50, 0.30, eye)).label == "II"
    assert classify(StandardForm(1.2, 0.8, 0.48, 0.32, eye)).label == "III"
    assert classify(StandardForm(0.9, 0.9, 0.50, 0.30, eye)).label == "IV"
    with pytest.raises(ValidationError):
        classify(StandardForm(1.2, 0.8, 0.5, 0.0, eye))


def test_classify_ratio_value():
    sf = StandardForm(1.2, 0.8, 0.5, 0.3, np.eye(4))
    expect = (1.2 / 0.8 + 0.8 / 1.2) / (0.5 / 0.3 + 0.3 / 0.5)
    assert abs(classify(sf).ratio - expect) < 1e-15


def test_separability_verdicts():
    verdict, residual = is_separable(thermal_cm(1.0, 1.3))
    assert verdict and residual > 0
    verdict, residual = is_separable(tmsv_cm(0.5))
    assert not verdict and residual < 0
    with pytest.raises(ValidationError):
        is_separable(np.eye(6))


def test_border_residual_on_separable_border():
    # a = b = gamma, c1 = c2 = c: the partial transpose has symplectic
    # eigenvalues gamma -+ c, so the border sits exactly at c = gamma - 1/2
    gamma = 0.9
    c = gamma - 0.5
    sf = standard_form(standard_cm(gamma, gamma, c, c))
    assert abs(border_residual(sf)) < 1e-10


def standard_form_residual(sf):
    """The border residual as the standard form spells it:
    4 det(aq ap) - Tr(aq ap) - 2(|e| - e) + 1/4 with e = c1 (-c2)."""
    e = -sf.c1 * sf.c2
    det_q = sf.a * sf.b - sf.c1 ** 2
    det_p = sf.a * sf.b - sf.c2 ** 2
    trace = sf.a ** 2 + sf.b ** 2 + 2.0 * e
    return 4.0 * det_q * det_p - trace - 2.0 * (abs(e) - e) + 0.25


def residual_scale(sf):
    """Sum of the magnitudes of the residual's terms."""
    ab = sf.a * sf.b
    det_alpha = (ab - sf.c1 ** 2) * (ab - sf.c2 ** 2)
    return 4.0 * abs(det_alpha) + sf.a ** 2 + sf.b ** 2 + 2.0 * abs(sf.c1 * sf.c2) + 0.25


def on_border_cms(rng):
    """Border states: a = b = g, c1 = c2 = g - 1/2, bare and dressed by a
    random local symplectic, and the CMs of border EMs of every family."""
    out = []
    for g in (0.6, 0.9, 1.5, 3.0):
        bare = standard_cm(g, g, g - 0.5, g - 0.5)
        local = elementary_transform("general_local", tuple(rng.uniform(-1.0, 1.0, 6)))
        out += [bare, local @ bare @ local.T]
    for label, shape in (("I", 0.3), ("II", 0.6)):
        x_prime = border_x_prime(label, 1.3, 0.9, shape)
        out.append(em_to_cm(border_em(BorderParams(label, 1.3, 0.9, shape, x_prime))))
    for params in (BorderParams("III", 1.2, 0.8, 0.0, 1.0),
                   BorderParams("III", 0.9, 1.7, 0.0, 1.0),
                   BorderParams("IV", 1.1, 1.4, 0.0, 1.0)):
        out.append(em_to_cm(border_em(params)))
    return out


def test_invariant_residual_matches_the_standard_form_expression():
    rng = np.random.default_rng(13)
    draws = [random_cm(rng, 2) for _ in range(3000)]
    border = on_border_cms(rng)
    for alpha in draws + border:
        sf = standard_form(alpha)
        expect = standard_form_residual(sf)
        scale = residual_scale(sf)
        verdict, residual = is_separable(alpha)
        assert verdict == _ppt_verdict(alpha)
        assert abs(residual - expect) <= 1e-12 * scale
        assert abs(border_residual(sf) - expect) <= 1e-12 * scale
    for alpha in border:
        assert abs(is_separable(alpha)[1]) < 1e-10


def test_symmetric_params_and_gammas():
    p = SymmetricParams(m=1.5, kq=0.9, kp=0.9)
    np.testing.assert_allclose(symplectic_eigenvalues(symmetric_cm(p)), [0.6, 0.6], atol=1e-12)
    np.testing.assert_allclose(
        symmetric_cm(p), tmst_cm(1.5, 0.9), atol=1e-15
    )
    with pytest.raises(ValidationError):
        symmetric_cm(SymmetricParams(m=1.0, kq=1.1, kp=0.0))


def test_tmsv_is_pure_and_entangled():
    alpha = tmsv_cm(0.7)
    np.testing.assert_allclose(check_physical(alpha), [0.5, 0.5], atol=1e-12)
    assert not is_separable(alpha)[0]


def test_bosonic_entropy_sum_matches_the_scalar_entropy():
    rng = np.random.default_rng(31)
    for size in (1, 2, 3, 6):
        x = rng.uniform(-0.2, 4.0, size)
        x[0] = 0.0
        expect = sum(bosonic_entropy(max(v, 0.0)) for v in x)
        assert abs(bosonic_entropy_sum(x) - expect) <= 1e-12 * max(1.0, expect)
    assert bosonic_entropy_sum(np.array([-0.1, 0.0])) == 0.0
    assert math.isnan(bosonic_entropy_sum(np.array([1.0, float("nan")])))


def test_asymmetric_input_is_rejected_on_entry():
    # the symmetry check runs once per caller-supplied matrix, wherever
    # it enters: rho, sigma as a CM or an EM, or the descent's start
    alpha = tmst_cm(1.4, 0.6)
    sigma = thermal_cm(1.2, 0.9)
    skewed = alpha.copy()
    skewed[0, 1] += 1e-6
    skewed_sigma = sigma.copy()
    skewed_sigma[1, 2] += 1e-6
    skewed_em = cm_to_em(sigma)
    skewed_em[1, 2] += 1e-6
    calls = [
        lambda: check_physical(skewed),
        lambda: symplectic_eigenvalues(skewed),
        lambda: williamson(skewed),
        lambda: is_separable(skewed),
        lambda: relative_entropy(skewed, sigma),
        lambda: relative_entropy(alpha, skewed_sigma),
        lambda: relative_entropy(alpha, skewed_em, sigma_kind="em"),
        lambda: descend(skewed, cm_to_em(sigma)),
        lambda: descend(alpha, skewed_em),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="not symmetric"):
            call()


def test_ppt_verdict_matches_is_separable_on_random_draws():
    rng = np.random.default_rng(32)
    verdicts = []
    for _ in range(60):
        alpha = random_cm(rng, 2, 0.55, 2.0, scale=0.4)
        verdicts.append(_ppt_verdict(alpha))
        assert verdicts[-1] == is_separable(alpha)[0]
    assert 0 < sum(verdicts) < len(verdicts)
    with pytest.raises(ValidationError):
        _ppt_verdict(np.eye(2))
    with pytest.raises(ValidationError):
        _ppt_verdict(0.1 * np.eye(4))


def passive_dressed_cm(gammas, r, theta):
    """Two-mode squeezed thermal CM with symplectic eigenvalues gammas,
    then a passive qq rotation (a beam splitter) by theta."""
    s = elementary_transform("two_mode_rotation_qq", theta) @ elementary_transform(
        "two_mode_squeeze_qq", r
    )
    alpha = s @ thermal_cm(*gammas) @ s.T
    return 0.5 * (alpha + alpha.T)


@pytest.mark.parametrize("excess", [0.0] + [10.0**-k for k in range(12, -1, -1)])
def test_ppt_verdict_at_a_degenerate_spectrum(excess):
    """Equal gammas make the CM's spectrum degenerate, the regime where
    the invariant route loses about sqrt(eps); gammas split by 1e-14 to
    1e-6 relative sit on either side of the eigensolver fallback band.
    Excess 0 with r = 0 is the vacuum."""
    gamma = 0.5 + excess
    verdicts = []
    for split in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
        for r in (0.0, 1e-9, 0.02, 0.3, 1.0):
            for theta in (0.0, 0.3, 0.25 * math.pi, 1.2):
                alpha = passive_dressed_cm((gamma * (1.0 + split), gamma), r, theta)
                verdicts.append(_ppt_verdict(alpha))
                assert verdicts[-1] == eigensolver_ppt_verdict(alpha)
    assert any(verdicts) and not all(verdicts)


def test_ppt_verdict_matches_the_eigensolver_on_3000_draws():
    rng = np.random.default_rng(33)
    verdicts = []
    for _ in range(3000):
        alpha = random_cm(rng, 2)
        verdicts.append(_ppt_verdict(alpha))
        assert verdicts[-1] == eigensolver_ppt_verdict(alpha)
    assert 0 < sum(verdicts) < len(verdicts)


def test_ppt_verdict_errors():
    alpha = tmst_cm(1.4, 0.6)
    skewed = alpha.copy()
    skewed[0, 1] += 1e-6
    with pytest.raises(ValidationError, match="not symmetric"):
        _ppt_verdict(skewed)
    with pytest.raises(ValidationError, match="uncertainty relation"):
        _ppt_verdict(0.3 * np.eye(4))
    squeezed_below = passive_dressed_cm((0.45, 0.9), 0.3, 0.2)
    with pytest.raises(ValidationError, match="uncertainty relation"):
        _ppt_verdict(squeezed_below)
    for indefinite in ([1.0, 1.0, -1.0, 1.0], [1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, 1.0]):
        with pytest.raises(ValidationError, match="not positive definite"):
            _ppt_verdict(np.diag(indefinite))
    with pytest.raises(NumericalGuardError):
        _ppt_verdict(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_frame_verdict_reads_float_rows():
    """The verdict on float rows, as the descent monitor hands them over,
    falls back to the eigensolver on a degenerate spectrum like the array
    verdict does."""
    alphas = [passive_dressed_cm((g, g * (1.0 + split)), r, 0.3)
              for g in (0.5, 0.7, 1.2) for split in (0.0, 1e-10) for r in (0.0, 0.02, 1.0)]
    verdicts = [_frame_verdict(alpha.tolist()) for alpha in alphas]
    assert verdicts == [eigensolver_ppt_verdict(alpha) for alpha in alphas]
    assert verdicts == [_ppt_verdict(alpha) for alpha in alphas]
    with pytest.raises(NumericalGuardError):
        _frame_verdict(np.diag([1.0, 1.0, 1.0, -1.0]).tolist())
