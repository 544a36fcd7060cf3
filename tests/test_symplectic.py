"""Tests for the symplectic form, elementary transforms, and Williamson."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gree import (
    NumericalGuardError,
    ValidationError,
    elementary_transform,
    is_symplectic,
    random_cm,
    random_symplectic,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)
from gree.descent import transform_matrix
from conftest import thermal_cm

RECON_TOL = 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_form_squares_to_minus_identity(n):
    delta = symplectic_form(n)
    np.testing.assert_allclose(delta @ delta, -np.eye(2 * n))
    np.testing.assert_allclose(delta.T, -delta)


def test_symplectic_form_is_cached_read_only():
    delta = symplectic_form(2)
    assert symplectic_form(2) is delta
    assert not delta.flags.writeable
    with pytest.raises(ValueError):
        delta[0, 2] = 5.0


def test_symplectic_form_rejects_bad_mode_count():
    with pytest.raises(ValidationError):
        symplectic_form(0)


def test_is_symplectic_identity_and_rejects_odd_shape():
    assert is_symplectic(np.eye(6))
    assert not is_symplectic(2.0 * np.eye(4))
    with pytest.raises(ValidationError):
        is_symplectic(np.eye(3))


TRANSFORMS = [
    ("local_rotation", 0.7, 1),
    ("local_squeeze_X", 1.3, None),
    ("local_squeeze_Y", 0.4, None),
    ("two_mode_rotation_qq", -0.3, (0, 1)),
    ("two_mode_squeeze_qq", 0.5, (0, 1)),
    ("two_mode_rotation_qp", 0.9, (0, 1)),
    ("two_mode_squeeze_qp", -0.2, (0, 1)),
    ("general_local", (0.3, -0.2, 0.25, -0.15, 0.1, 0.4), None),
]


@pytest.mark.parametrize("kind,params,modes", TRANSFORMS)
def test_elementary_transforms_are_symplectic(kind, params, modes):
    s = elementary_transform(kind, params, modes=modes)
    assert s.shape == (4, 4)
    assert is_symplectic(s)


def test_local_rotation_closed_form():
    c, s = np.cos(0.3), np.sin(0.3)
    got = elementary_transform("local_rotation", 0.3, modes=0, n=1)
    np.testing.assert_allclose(got, [[c, s], [-s, c]], atol=1e-15)


def test_two_mode_squeeze_qq_closed_form():
    r = 0.45
    ch, sh = np.cosh(r), np.sinh(r)
    got = elementary_transform("two_mode_squeeze_qq", r)
    expect = np.array(
        [
            [ch, sh, 0.0, 0.0],
            [sh, ch, 0.0, 0.0],
            [0.0, 0.0, ch, -sh],
            [0.0, 0.0, -sh, ch],
        ]
    )
    np.testing.assert_allclose(got, expect, atol=1e-15)


def test_elementary_transform_input_validation():
    with pytest.raises(ValidationError):
        elementary_transform("unknown", 0.1)
    with pytest.raises(ValidationError):
        elementary_transform("two_mode_rotation_qq", 0.1, modes=(0, 0))
    with pytest.raises(ValidationError):
        elementary_transform("local_rotation", 0.1, modes=5)
    with pytest.raises(ValidationError):
        elementary_transform("local_rotation", np.nan)
    with pytest.raises(ValidationError):
        elementary_transform("local_squeeze_X", -1.0)


# the generator table against matrices written out entry by entry: each
# case is (table kind, params, n, the entries that differ from the identity)
C, S = math.cos(0.7), math.sin(0.7)
CH, SH = math.cosh(0.4), math.sinh(0.4)
TABLE_CASES = [
    ("local_rotation", (1, 0.7), 2, {(1, 1): C, (1, 3): S, (3, 1): -S, (3, 3): C}),
    ("local_rotation", (2, 0.7), 3, {(2, 2): C, (2, 5): S, (5, 2): -S, (5, 5): C}),
    ("local_squeeze", (0, 1.3), 2, {(0, 0): 1.3, (2, 2): 1 / 1.3}),
    ("local_squeeze", (1, 1.3), 3, {(1, 1): 1.3, (4, 4): 1 / 1.3}),
    ("rotation_qq", (0, 1, 0.7), 2, {
        (0, 0): C, (0, 1): S, (1, 0): -S, (1, 1): C,
        (2, 2): C, (2, 3): S, (3, 2): -S, (3, 3): C}),
    ("rotation_qq", (0, 2, 0.7), 3, {
        (0, 0): C, (0, 2): S, (2, 0): -S, (2, 2): C,
        (3, 3): C, (3, 5): S, (5, 3): -S, (5, 5): C}),
    ("squeeze_qq", (0, 1, 0.4), 2, {
        (0, 0): CH, (0, 1): SH, (1, 0): SH, (1, 1): CH,
        (2, 2): CH, (2, 3): -SH, (3, 2): -SH, (3, 3): CH}),
    ("squeeze_qq", (1, 2, 0.4), 3, {
        (1, 1): CH, (1, 2): SH, (2, 1): SH, (2, 2): CH,
        (4, 4): CH, (4, 5): -SH, (5, 4): -SH, (5, 5): CH}),
    ("rotation_qp", (0, 1, 0.7), 2, {
        (0, 0): C, (0, 3): S, (3, 0): -S, (3, 3): C,
        (1, 1): C, (1, 2): S, (2, 1): -S, (2, 2): C}),
    ("rotation_qp", (0, 2, 0.7), 3, {
        (0, 0): C, (0, 5): S, (5, 0): -S, (5, 5): C,
        (2, 2): C, (2, 3): S, (3, 2): -S, (3, 3): C}),
    ("squeeze_qp", (0, 1, 0.4), 2, {
        (0, 0): CH, (0, 3): SH, (3, 0): SH, (3, 3): CH,
        (1, 1): CH, (1, 2): SH, (2, 1): SH, (2, 2): CH}),
    ("squeeze_qp", (1, 2, 0.4), 3, {
        (1, 1): CH, (1, 5): SH, (5, 1): SH, (5, 5): CH,
        (2, 2): CH, (2, 4): SH, (4, 2): SH, (4, 4): CH}),
]
TWO_MODE_KINDS = {
    "rotation_qq": "two_mode_rotation_qq",
    "squeeze_qq": "two_mode_squeeze_qq",
    "rotation_qp": "two_mode_rotation_qp",
    "squeeze_qp": "two_mode_squeeze_qp",
}


def written_out(n, entries):
    t = np.eye(2 * n)
    for (row, col), value in entries.items():
        t[row, col] = value
    return t


@pytest.mark.parametrize("kind,params,n,entries", TABLE_CASES)
def test_generator_table_matches_written_out_matrices(kind, params, n, entries):
    expect = written_out(n, entries)
    np.testing.assert_allclose(transform_matrix(n, kind, params), expect, rtol=0, atol=1e-15)
    if kind == "local_rotation":
        got = elementary_transform(kind, params[1], modes=params[0], n=n)
    elif kind in TWO_MODE_KINDS:
        got = elementary_transform(TWO_MODE_KINDS[kind], params[2], modes=params[:2], n=n)
    else:
        return  # local_squeeze is a descent kind only
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)


def test_two_mode_local_kinds_match_written_out_matrices():
    w = math.sqrt(1.3)
    np.testing.assert_allclose(
        elementary_transform("local_squeeze_X", 1.3), np.diag([w, 1 / w, 1 / w, w]),
        rtol=0, atol=1e-15,
    )
    np.testing.assert_allclose(
        elementary_transform("local_squeeze_Y", 1.3), np.diag([w, w, 1 / w, 1 / w]),
        rtol=0, atol=1e-15,
    )
    ta1, tb1, tau_a, tau_b, ta2, tb2 = 0.3, -0.2, 0.25, -0.15, 0.1, 0.4

    def rotations(ta, tb):
        ca, sa, cb, sb = math.cos(ta), math.sin(ta), math.cos(tb), math.sin(tb)
        return written_out(2, {
            (0, 0): ca, (0, 2): sa, (2, 0): -sa, (2, 2): ca,
            (1, 1): cb, (1, 3): sb, (3, 1): -sb, (3, 3): cb})

    squeeze = np.diag([math.exp(tau_a), math.exp(tau_b), math.exp(-tau_a), math.exp(-tau_b)])
    np.testing.assert_allclose(
        elementary_transform("general_local", (ta1, tb1, tau_a, tau_b, ta2, tb2)),
        rotations(ta2, tb2) @ squeeze @ rotations(ta1, tb1),
        rtol=0, atol=1e-15,
    )
    # the standard-form squeezes and general_local exist at n = 2 only
    for kind, params in (("local_squeeze_X", 1.3), ("local_squeeze_Y", 1.3),
                         ("general_local", (ta1, tb1, tau_a, tau_b, ta2, tb2))):
        with pytest.raises(ValidationError):
            elementary_transform(kind, params, n=3)


def test_symplectic_eigenvalues_thermal():
    np.testing.assert_allclose(
        symplectic_eigenvalues(thermal_cm(1.5, 0.8)), [1.5, 0.8]
    )


def test_symplectic_eigenvalues_invariant_under_conjugation():
    rng = np.random.default_rng(7)
    for _ in range(10):
        gammas = np.sort(rng.uniform(0.55, 3.0, 3))[::-1]
        s = random_symplectic(rng, 3)
        alpha = s @ np.diag(np.concatenate([gammas, gammas])) @ s.T
        got = symplectic_eigenvalues(0.5 * (alpha + alpha.T))
        np.testing.assert_allclose(got, gammas, rtol=1e-9, atol=1e-9)


def test_symplectic_eigenvalues_rejects_asymmetric():
    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(ValidationError):
        symplectic_eigenvalues(bad)


def _assert_williamson(alpha, gammas_expect=None):
    s, gammas = williamson(alpha)
    assert is_symplectic(s, tol=1e-8)
    assert np.all(np.diff(gammas) <= 1e-12)
    recon = s @ np.diag(np.concatenate([gammas, gammas])) @ s.T
    scale = max(1.0, float(np.max(np.abs(alpha))))
    assert float(np.max(np.abs(recon - alpha))) <= RECON_TOL * scale
    if gammas_expect is not None:
        np.testing.assert_allclose(gammas, gammas_expect, rtol=1e-9, atol=1e-9)


def test_williamson_blockdiag_route():
    rng = np.random.default_rng(11)
    for _ in range(10):
        # qq/pp blocks only: S comes out as S_q (+) S_p
        alpha = random_cm(rng, 2)
        alpha[:2, 2:] = 0.0
        alpha[2:, :2] = 0.0
        s, _ = williamson(alpha)
        assert np.max(np.abs(s[:2, 2:])) <= 1e-12 and np.max(np.abs(s[2:, :2])) <= 1e-12
        _assert_williamson(alpha)


def test_williamson_of_a_thermal_cm_is_the_identity():
    # each eigenvector's phase is fixed by its leading q component, so a
    # diagonal input gets S = I whatever phase the eigensolver returns
    s, gammas = williamson(thermal_cm(1.4, 1.1, 0.7))
    np.testing.assert_allclose(s, np.eye(6), rtol=0, atol=1e-14)
    np.testing.assert_allclose(gammas, [1.4, 1.1, 0.7], rtol=0, atol=1e-14)


def test_williamson_general_route():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        for _ in range(10):
            _assert_williamson(random_cm(rng, n))


def test_williamson_degenerate_gammas():
    rng = np.random.default_rng(17)
    s = random_symplectic(rng, 3, scale=0.5)
    alpha = 0.9 * s @ s.T
    _assert_williamson(alpha, gammas_expect=[0.9, 0.9, 0.9])


def test_williamson_near_degenerate_gap():
    # a gap at the eigensolver noise level must not corrupt the basis
    rng = np.random.default_rng(19)
    s = random_symplectic(rng, 2, scale=0.5)
    gammas = np.array([1.2 + 3e-9, 1.2])
    alpha = s @ np.diag(np.concatenate([gammas, gammas])) @ s.T
    _assert_williamson(0.5 * (alpha + alpha.T))


def test_williamson_rejects_indefinite():
    # -alpha has alpha's symplectic spectrum; both functions need alpha^(1/2)
    for decompose in (williamson, symplectic_eigenvalues):
        with pytest.raises(NumericalGuardError, match="not positive definite"):
            decompose(-np.eye(4))


def test_random_cm_is_physical():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        alpha = random_cm(rng, n, 0.7, 2.0)
        gammas = symplectic_eigenvalues(alpha)
        assert gammas[-1] >= 0.7 - 1e-9
        assert gammas[0] <= 2.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    gammas=st.lists(st.floats(0.55, 3.0), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_williamson_recovers_spectrum(gammas, seed):
    rng = np.random.default_rng(seed)
    n = len(gammas)
    s = random_symplectic(rng, n)
    d = np.concatenate([gammas, gammas])
    alpha = s @ np.diag(d) @ s.T
    _assert_williamson(0.5 * (alpha + alpha.T), gammas_expect=sorted(gammas)[::-1])
