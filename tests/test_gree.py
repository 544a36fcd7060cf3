"""Tests for the border families, the inner minimization, and the GREE
searches (full, symmetric, and squeezed-thermal routes)."""

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize import minimize_scalar

from gree import (
    BorderParams,
    NumericalGuardError,
    SymmetricParams,
    ValidationError,
    border_em,
    border_x_prime,
    bosonic_entropy,
    check_physical,
    elementary_transform,
    em_spectrum,
    em_to_cm,
    gree,
    gree_symmetric,
    gree_tmst,
    inner_minimize,
    is_separable,
    relative_entropy,
    standard_cm,
    symmetric_cm,
    tmst_cm,
    tmsv_cm,
)
from gree.cli import _fig12_state
from gree.gree import _inner_core, fold_cross_terms, minimize, xy_strip
from conftest import draw_separable_cm

# the module itself: the package attribute `gree` is the function
gree_module = importlib.import_module("gree.gree")


def border_equality_residual(label, gamma_a, gamma_b, shape, x_prime):
    """Residual of the defining equality for the type I/II x' branch."""
    lhs = (2.0 * gamma_a**2 - 0.5) * (2.0 * gamma_b**2 - 0.5)
    t = x_prime**2 + x_prime**-2
    if label == "I":
        strength = math.sinh(2.0 * shape) ** 2
        rhs = strength * (t * gamma_a * gamma_b + gamma_a**2 + gamma_b**2)
    else:
        strength = math.sin(2.0 * shape) ** 2
        rhs = strength * (t * gamma_a * gamma_b - gamma_a**2 - gamma_b**2)
    return (lhs - rhs) / max(1.0, abs(lhs))


@pytest.mark.parametrize(
    "label, gamma_a, gamma_b, shape",
    [
        ("I", 1.2, 0.9, 0.3),
        ("I", 0.7, 2.1, -0.25),
        ("I", 1.5, 1.5, 0.4),
        ("II", 1.3, 0.8, 0.4),
        ("II", 2.0, 1.1, 1.2),
    ],
)
def test_border_x_prime_satisfies_defining_equality(label, gamma_a, gamma_b, shape):
    x_prime = border_x_prime(label, gamma_a, gamma_b, shape)
    assert x_prime >= 1.0
    assert abs(border_equality_residual(label, gamma_a, gamma_b, shape, x_prime)) < 1e-10


def test_border_x_prime_domain_errors():
    with pytest.raises(ValidationError):
        border_x_prime("III", 1.2, 0.9, 1.0)
    with pytest.raises(ValidationError):
        border_x_prime("I", 0.5, 0.9, 0.3)
    # strong squeezing of near-pure gammas pushes t below 2
    with pytest.raises(NumericalGuardError, match="t ="):
        border_x_prime("I", 0.6, 0.6, 3.0)
    with pytest.raises(NumericalGuardError):
        border_x_prime("I", 1.2, 0.9, 0.0)
    # equal near-pure gammas at full rotation collapse x' onto its open
    # lower bound
    with pytest.raises(NumericalGuardError, match="range"):
        border_x_prime("II", 0.5 + 1e-9, 0.5 + 1e-9, math.pi / 4)


BORDER_POINTS = [
    BorderParams("I", 1.2, 0.9, 0.3, border_x_prime("I", 1.2, 0.9, 0.3)),
    BorderParams("I", 0.7, 2.1, -0.25, border_x_prime("I", 0.7, 2.1, -0.25)),
    BorderParams("II", 1.3, 0.8, 0.4, border_x_prime("II", 1.3, 0.8, 0.4)),
    BorderParams("III", 1.4, 0.9, 1.0, 1.0),
    BorderParams("III", 1.4, 0.9, 2.0, 1.0),
    BorderParams("IV", 1.1, 0.8, 0.0, 1.0),
]


@pytest.mark.parametrize("params", BORDER_POINTS, ids=lambda p: "%s-%g" % (p.label, p.shape))
def test_border_em_sits_on_the_border(params):
    m = border_em(params)
    assert np.allclose(m, m.T)
    assert np.linalg.eigvalsh(m)[0] > 0
    alpha = em_to_cm(m)
    check_physical(alpha)
    separable, residual = is_separable(alpha)
    assert separable
    assert abs(residual) < 1e-8


def test_border_em_rejects_near_pure_gammas():
    with pytest.raises(NumericalGuardError):
        border_em(BorderParams("IV", 0.5, 0.9, 0.0, 1.0))


def stationarity_roots(alpha_sf, m_std):
    """Positive feasible roots of d/dx [P(x) Q(x)] = 0.

    Clearing denominators from the product rule leaves the quartic
    2pq x^4 + (pt + qs) x^3 - (ps + qt) x - 2pq = 0 with p = alpha1 M1,
    q = alpha3 M3, s = 2 alpha2 M2, t = 2 alpha4 M4.
    """
    a1, a2, a3, a4 = alpha_sf
    m1, m2, m3, m4 = m_std
    p, q = a1 * m1, a3 * m3
    s, t = 2.0 * a2 * m2, 2.0 * a4 * m4
    roots = np.roots([2.0 * p * q, p * t + q * s, 0.0, -(p * s + q * t), -2.0 * p * q])
    out = []
    for r in roots:
        if abs(r.imag) > 1e-9 * (1.0 + abs(r)) or r.real <= 0:
            continue
        x = r.real
        pv = p * x + q / x + s
        qv = p / x + q * x + t
        if pv > 0 and qv > 0:
            out.append((math.sqrt(pv * qv), x))
    return sorted(out)


@pytest.mark.parametrize(
    "alpha_sf, source",
    [
        ((1.4, 0.6, 1.1, -0.5), BORDER_POINTS[0]),
        ((2.0, 0.9, 0.8, -0.2), BORDER_POINTS[2]),
        ((0.9, 0.25, 1.6, -0.7), BORDER_POINTS[3]),
        ((1.1, 0.5, 1.1, -0.5), BORDER_POINTS[5]),
    ],
)
def test_inner_minimize_agrees_with_stationarity_roots(alpha_sf, source):
    m1, ms2, m3, ms4 = xy_strip(border_em(source))
    m2, m4 = fold_cross_terms(ms2, ms4)
    state = inner_minimize(alpha_sf, (m1, m2, m3, m4))
    roots = stationarity_roots(alpha_sf, (m1, m2, m3, m4))
    assert roots, "the stationarity quartic lost all feasible roots"
    best_value, best_x = roots[0]
    assert abs(state.half_trace - best_value) < 1e-9 * max(1.0, best_value)
    assert abs(state.x_opt - best_x) < 1e-5 * best_x


def test_inner_minimize_matches_explicit_trace():
    a1, a2, a3, a4 = 1.4, 0.6, 1.1, -0.5
    m1, ms2, m3, ms4 = xy_strip(border_em(BORDER_POINTS[0]))
    m2, m4 = fold_cross_terms(ms2, ms4)
    state = inner_minimize((a1, a2, a3, a4), (m1, m2, m3, m4))
    x, y = state.x_opt, state.y_opt
    s = np.diag(
        [
            math.sqrt(x * y),
            math.sqrt(y / x),
            1.0 / math.sqrt(x * y),
            math.sqrt(x / y),
        ]
    )
    m_std = np.zeros((4, 4))
    m_std[:2, :2] = [[m1, m2], [m2, m3]]
    m_std[2:, 2:] = [[m1, m4], [m4, m3]]
    alpha = standard_cm(a1, a3, a2, -a4)
    half_trace = 0.5 * np.trace(alpha @ s @ m_std @ s.T)
    assert abs(state.half_trace - half_trace) < 1e-12 * max(1.0, half_trace)
    # y is eliminated in closed form, so the trace is stationary in y
    for y_off in (0.999, 1.001):
        s_off = s @ np.diag([math.sqrt(y_off)] * 2 + [1.0 / math.sqrt(y_off)] * 2)
        assert 0.5 * np.trace(alpha @ s_off @ m_std @ s_off.T) >= half_trace


def test_inner_minimize_validation():
    with pytest.raises(ValidationError):
        inner_minimize((1.0, 0.5, -1.0, -0.4), (1.0, -0.5, 1.0, -0.2))
    with pytest.raises(ValidationError):
        inner_minimize((1.0, -0.5, 1.0, 0.4), (1.0, -0.5, 1.0, -0.2))


def test_xy_strip_requires_decorrelated_em():
    m = np.eye(4)
    m[0, 2] = m[2, 0] = 0.2
    with pytest.raises(ValidationError):
        xy_strip(m)


def test_gree_separable_state_returns_zero():
    rng = np.random.default_rng(11)
    alpha = draw_separable_cm(rng)
    res = gree(alpha)
    assert res.value == 0.0
    assert res.label is None and res.params is None
    assert res.diagnostics["separable"] is True
    assert res.diagnostics["rho_border_residual"] >= -1e-12


def test_gree_tmsv_increases_with_squeezing():
    values = [gree(tmsv_cm(r), starts=6).value for r in (0.2, 0.5, 0.8)]
    assert values[0] < values[1] < values[2]
    # the Schmidt entropy bounds the Gaussian measure from below (the
    # closest separable state of a pure state is not Gaussian, so the
    # bound is not tight)
    for r, value in zip((0.2, 0.5, 0.8), values):
        assert value >= bosonic_entropy(math.sinh(r) ** 2) - 1e-4


def test_gree_local_symplectic_invariance():
    alpha = standard_cm(1.2, 0.9, 0.7, 0.6)
    assert not is_separable(alpha)[0]
    s = elementary_transform("general_local", (0.4, -0.3, 0.2, -0.1, 0.5, 0.2))
    res = gree(alpha, starts=12)
    res_moved = gree(s @ alpha @ s.T, starts=12)
    assert abs(res.value - res_moved.value) < 1e-6 * max(1.0, res.value)


def test_gree_value_is_attained_by_best_em():
    alpha = standard_cm(1.2, 0.9, 0.7, 0.6)
    res = gree(alpha, starts=8)
    m = res.best_em
    assert np.allclose(m, m.T)
    sigma = em_to_cm(m)
    separable, residual = is_separable(sigma)
    assert separable
    assert abs(residual) < 1e-8
    assert abs(residual - res.diagnostics["border_residual"]) < 1e-15
    attained = relative_entropy(alpha, m, sigma_kind="em").value
    assert abs(res.value - attained) < 1e-8 * max(1.0, attained)


def test_gree_per_type_minimum_is_the_value():
    alpha = standard_cm(1.2, 0.9, 0.7, 0.6)
    res = gree(alpha, starts=8)
    per_type = res.diagnostics["per_type"]
    assert list(per_type) == [t for t in ("I", "II", "III", "IV") if t in per_type]
    assert math.isclose(min(per_type.values()), res.value, rel_tol=0, abs_tol=1e-12)
    assert per_type[res.label] == min(per_type.values())


def test_gree_is_reproducible():
    alpha = standard_cm(1.2, 0.9, 0.7, 0.6)
    first = gree(alpha, starts=6)
    second = gree(alpha, starts=6)
    assert first.value == second.value
    assert first.label == second.label
    assert first.params == second.params
    assert np.array_equal(first.best_em, second.best_em)


def test_gree_families_restriction():
    alpha = standard_cm(1.2, 0.9, 0.7, 0.6)
    res = gree(alpha, starts=6, families=("III",))
    assert res.label == "III"
    assert set(res.diagnostics["per_type"]) == {"III"}
    with pytest.raises(ValidationError):
        gree(alpha, families=("V",))


@pytest.mark.parametrize("families", ["I", "III", "IV"])
def test_gree_rejects_a_bare_family_string(families):
    # iterated, "III" would search type I three times
    with pytest.raises(ValidationError):
        gree(standard_cm(1.2, 0.9, 0.7, 0.6), starts=4, families=families)


def test_gree_symmetric_route_matches_full_search():
    p = SymmetricParams(m=2.0, kq=1.2, kp=1.0)
    alpha = symmetric_cm(p)
    assert not is_separable(alpha)[0]
    res_sym = gree_symmetric(p)
    res_full = gree(alpha, starts=16)
    assert abs(res_sym.value - res_full.value) < 1e-4
    assert res_sym.label == "IV"
    assert abs(res_sym.diagnostics["border_residual"]) < 1e-8
    assert math.isfinite(res_sym.diagnostics["alt_reading_residual"])


def test_gree_tmst_route_agreement_and_balanced_minimizer():
    m, k = 1.5, 0.9
    res_tmst = gree_tmst(m, k)
    res_sym = gree_symmetric(SymmetricParams(m=m, kq=k, kp=k))
    res_full = gree(tmst_cm(m, k), starts=12)
    assert abs(res_tmst.value - res_sym.value) < 1e-8
    assert abs(res_tmst.value - res_full.value) < 1e-4
    # the squeezed-thermal minimizer has equal EM eigenvalues per mode
    assert abs(res_sym.params.gamma_a - res_sym.params.gamma_b) < 1e-6
    assert res_tmst.params.gamma_a == res_tmst.params.gamma_b
    _, residual = is_separable(em_to_cm(res_tmst.best_em))
    assert abs(residual) < 1e-8


def tmst_objective(m, k, t):
    """The one-variable TMST objective
    f(Mt) = -2 log(2 sinh(Mt/2)) + (Mt/2) [(m-k) coth(Mt/2) + (m+k) tanh(Mt/2)],
    which the symmetric objective W reads on its diagonal."""
    return (-2.0 * math.log(2.0 * math.sinh(0.5 * t))
            + 0.5 * t * ((m - k) / math.tanh(0.5 * t) + (m + k) * math.tanh(0.5 * t)))


@pytest.mark.parametrize("m, k", [(1.1, 0.4), (1.5, 0.9), (3.0, 2.8), (30.0, 29.98)])
def test_gree_tmst_is_the_one_variable_objective_at_its_minimizer(m, k):
    res = gree_tmst(m, k)
    gammas = check_physical(tmst_cm(m, k))
    self_term = -sum(bosonic_entropy(g - 0.5) for g in gammas)
    t = res.diagnostics["minimizer_mtilde"]
    assert abs(res.value - (self_term + tmst_objective(m, k, t))) <= 1e-14
    # and it is a minimum: points 0.01 away in log Mt do no better
    for step in (-0.01, 0.01):
        assert tmst_objective(m, k, t) <= tmst_objective(m, k, t * math.exp(step))


def test_gree_symmetric_starts_are_a_cap():
    p = SymmetricParams(2.0, 1.2, 1.0)
    res = gree_symmetric(p)
    # two starts agree on the minimum long before the default cap of 8
    assert 2 <= res.diagnostics["starts"] < 8
    one = gree_symmetric(p, starts=1)
    assert one.diagnostics["starts"] == 1
    assert abs(one.value - res.value) <= 1e-12


@pytest.mark.parametrize("knobs", [
    {"starts": 0}, {"starts": -3}, {"starts": 0.5}, {"starts": float("nan")},
    {"families": ()}, {"families": ("V",)},
])
def test_gree_rejects_bad_search_knobs(knobs):
    with pytest.raises(ValidationError):
        gree(tmsv_cm(0.5), **knobs)
    # the knobs are input too where the state is separable
    with pytest.raises(ValidationError):
        gree(draw_separable_cm(np.random.default_rng(3)), **knobs)


@pytest.mark.parametrize("starts", [0, -3])
def test_gree_symmetric_rejects_bad_starts(starts):
    with pytest.raises(ValidationError):
        gree_symmetric(SymmetricParams(2.0, 1.2, 1.0), starts=starts)


def test_gree_separable_routes_return_zero():
    p = SymmetricParams(m=1.6, kq=0.2, kp=0.1)
    assert is_separable(symmetric_cm(p))[0]
    assert gree_symmetric(p).value == 0.0
    assert gree_tmst(1.6, 0.2).value == 0.0


def transform_border_em(params):
    """Types I/II built as G^T X(x') Mtilde X(x') G from the checked
    elementary transforms."""
    mta, mtb = em_spectrum(np.array([params.gamma_a, params.gamma_b]))
    mtilde = np.diag([mta, mtb, mta, mtb])
    x_op = elementary_transform("local_squeeze_X", params.x_prime)
    kind = "two_mode_squeeze_qq" if params.label == "I" else "two_mode_rotation_qq"
    g_op = elementary_transform(kind, params.shape)
    return g_op.T @ x_op @ mtilde @ x_op @ g_op


def test_closed_form_border_em_matches_transform_construction():
    rng = np.random.default_rng(5)
    built = 0
    while built < 200:
        label = "I" if built % 2 == 0 else "II"
        gamma_a, gamma_b = rng.uniform(0.52, 3.0, 2)
        if label == "I":
            shape = rng.uniform(-1.5, 1.5)
        else:
            shape = rng.uniform(0.02, 0.5 * math.pi)
        try:
            x_prime = border_x_prime(label, gamma_a, gamma_b, shape)
        except NumericalGuardError:
            continue
        params = BorderParams(label, gamma_a, gamma_b, shape, x_prime)
        closed = border_em(params)
        reference = transform_border_em(params)
        scale = float(np.max(np.abs(reference)))
        assert float(np.max(np.abs(closed - reference))) <= 1e-13 * scale
        built += 1


def trace_factors(alpha_sf, m_std, u):
    """P and Q at x = exp(u)."""
    a1, a2, a3, a4 = alpha_sf
    m1, m2, m3, m4 = m_std
    x = np.exp(u)
    return (a1 * m1 * x + a3 * m3 / x + 2 * a2 * m2,
            a1 * m1 / x + a3 * m3 * x + 2 * a4 * m4)


def dense_grid_minimum(alpha_sf, m_std, points=20001):
    """min over log x in [-6, 6] of sqrt(P Q) from a dense grid, each
    grid valley refined by bounded Brent; None when P or Q is
    non-positive at a grid point."""
    grid = np.linspace(-6.0, 6.0, points)
    p, q = trace_factors(alpha_sf, m_std, grid)
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        return None
    values = np.sqrt(p * q)
    best = float(min(values[0], values[-1]))
    valleys = np.flatnonzero((values[1:-1] <= values[:-2]) & (values[1:-1] <= values[2:])) + 1
    for k in valleys:
        res = minimize_scalar(
            lambda u: math.sqrt(math.prod(trace_factors(alpha_sf, m_std, u))),
            bounds=(grid[k - 1], grid[k + 1]),
            method="bounded",
            options={"xatol": 1e-12},
        )
        best = min(best, float(res.fun), float(values[k]))
    return best


def inner_draws():
    """The 200 seeded (alpha_sf, m_std) pairs of the inner-minimum tests."""
    rng = np.random.default_rng(17)
    for draw in range(200):
        a1, a3 = rng.uniform(0.6, 3.0, 2)
        bound = math.sqrt(a1 * a3)
        if draw % 4:
            # log M spread wide enough to push P's and Q's vertices off
            # the bracket; |M2|, |M4| up to 2 sqrt(M1 M3) leave M
            # indefinite, which opens an infeasible stretch of x
            alpha_sf = (a1, rng.uniform(0.0, 0.95) * bound, a3, -rng.uniform(0.0, 0.95) * bound)
            m1, m3 = np.exp(rng.uniform(-7.0, 7.0, 2))
            cross = math.sqrt(m1 * m3)
            m_std = (m1, -rng.uniform(0.0, 2.0) * cross, m3, rng.uniform(-2.0, 2.0) * cross)
        else:
            # P's vertex at log x = +-(8..12) and 2 sqrt(pq) + s < 0: the
            # infeasible stretch lies wholly off the bracket
            alpha_sf = (a1, 0.9 * bound, a3, -rng.uniform(0.0, 0.95) * bound)
            u_vertex = rng.choice([-1.0, 1.0]) * rng.uniform(8.0, 12.0)
            m1 = math.exp(rng.uniform(-3.0, 3.0))
            m3 = m1 * a1 / a3 * math.exp(2.0 * u_vertex)
            cross = math.sqrt(m1 * m3)
            m_std = (m1, -rng.uniform(1.2, 2.0) * cross, m3, rng.uniform(-1.0, 1.0) * cross)
        yield alpha_sf, m_std


def test_inner_minimize_matches_dense_grid():
    matched = raised = off_bracket = 0
    for alpha_sf, m_std in inner_draws():
        reference = dense_grid_minimum(alpha_sf, m_std)
        if reference is None:
            with pytest.raises(NumericalGuardError):
                inner_minimize(alpha_sf, m_std)
            raised += 1
            continue
        state = inner_minimize(alpha_sf, m_std)
        assert state.half_trace <= reference * (1.0 + 1e-12)
        assert state.half_trace >= reference * (1.0 - 1e-10)
        assert math.exp(-6.0) <= state.x_opt <= math.exp(6.0)
        matched += 1
        p, q = trace_factors(alpha_sf, m_std, np.linspace(-30.0, 30.0, 60001))
        off_bracket += bool(np.any(p <= 0.0) or np.any(q <= 0.0))
    assert matched >= 100 and raised >= 10 and off_bracket >= 20


# default gree(): the value, the label, then the per-family minima I, II,
# III, IV; the first four recorded before the start budget, tmst and
# symmetric before the shared generator table and invariant residual
PINNED = {
    "fig1": (0.7550057071828664, "I",
             (0.7550057071828664, 0.7557400563105754, 0.7557400563105665, 0.7561760786786775)),
    "fig2": (0.02182972987007714, "II",
             (0.022006914354501417, 0.02182972987007714, 0.022006914354495866,
              0.022888440902640195)),
    "tmsv": (0.7341251564695732, "I",
             (0.7341251564695734, 0.7341251564695732, 0.7341251564695739, 0.7341251564695739)),
    "standard": (0.048828691185982986, "I",
                 (0.048828691185982986, 0.048914193841594455, 0.04891419384158935,
                  0.08804518770348335)),
    "tmst": (0.17833072225230362, "I",
             (0.17833072225230362, 0.17833072225230362, 0.17833072225230318,
              0.17833072225230362)),
    "symmetric": (0.007839546502098838, "II",
                  (0.013694980799571876, 0.007839546502098838, 0.013694980799563883,
                   0.007839546502098838)),
}


def pinned_state(name):
    if name == "fig1":
        return _fig12_state("fig1", 1.3, 1.5, 1.1, 5.0)[0]
    if name == "fig2":
        return _fig12_state("fig2", 1.3, 1.5, 0.5 * math.asinh(0.5), 1.5)[0]
    if name == "tmsv":
        return tmsv_cm(0.5)
    if name == "tmst":
        return tmst_cm(1.5, 0.9)
    if name == "symmetric":
        return symmetric_cm(SymmetricParams(2.0, 1.2, 1.0))
    return standard_cm(1.2, 0.9, 0.7, 0.6)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_default_gree_matches_pinned_values(name):
    value, label, per_family = PINNED[name]
    res = gree(pinned_state(name))
    assert abs(res.value - value) <= 1e-12
    assert res.label == label
    per_type = res.diagnostics["per_type"]
    for family, expected in zip(("I", "II", "III", "IV"), per_family):
        assert abs(per_type[family] - expected) <= 1e-12
    starts = res.diagnostics["starts"]
    assert list(starts) == ["I", "II", "III_1", "III_2", "IV"]
    assert all(1 <= n <= 32 for n in starts.values())


def test_closed_route_values_and_labels_are_pinned():
    res = gree_symmetric(SymmetricParams(2.0, 1.2, 1.0))
    assert abs(res.value - 0.007839546502098838) <= 1e-12
    assert res.label == "IV"
    res = gree_symmetric(SymmetricParams(1.5, 0.9, 0.9))
    assert abs(res.value - 0.1783307222523035) <= 1e-12
    res = gree_tmst(1.5, 0.9)
    assert abs(res.value - 0.17833072225230395) <= 1e-12
    assert res.label == "IV"
    assert abs(res.diagnostics["minimizer_mtilde"] - 1.6247283563752115) <= 1e-7


def test_gree_label_is_stable_under_ties_and_start_counts():
    # all four family minima of the TMSV agree within 5e-16
    results = [gree(tmsv_cm(0.5), starts=n) for n in (2, 32)]
    for res in results:
        assert res.label == "I"
        assert res.diagnostics["tied_families"] == ["I", "II", "III", "IV"]
        assert res.value == res.diagnostics["per_type"]["I"]
    assert abs(results[0].value - results[1].value) <= 1e-12


def test_gree_start_budget_is_capped():
    res = gree(standard_cm(1.2, 0.9, 0.7, 0.6), starts=1)
    assert res.diagnostics["starts"] == {"I": 1, "II": 1, "III_1": 1, "III_2": 1, "IV": 1}
    assert res.diagnostics["tied_families"] == ["I"]


def closure_inner_minimum(alpha_sf, m_std):
    """(x_opt, P, Q) by the closure-and-generator form the float core
    replaced, kept as its reference: the same operations in the same
    order, so the two must agree bit for bit."""
    a1, a2, a3, a4 = (float(v) for v in alpha_sf)
    m1, m2, m3, m4 = (float(v) for v in m_std)
    p_c, q_c, s_c, t_c = a1 * m1, a3 * m3, 2.0 * a2 * m2, 2.0 * a4 * m4

    def factors(x):
        return p_c * x + q_c / x + s_c, p_c / x + q_c * x + t_c

    x_lo, x_hi = math.exp(-6.0), math.exp(6.0)
    x_p = min(max(math.sqrt(q_c / p_c), x_lo), x_hi)
    x_q = min(max(math.sqrt(p_c / q_c), x_lo), x_hi)
    if factors(x_p)[0] <= 0.0 or factors(x_q)[1] <= 0.0:
        return None
    pq2 = 2.0 * p_c * q_c
    k = 0.5 * (p_c + q_c) * (s_c + t_c)
    h = 0.5 * (p_c - q_c) * (t_c - s_c)

    def g(z):
        return pq2 * z + k * z / math.sqrt(z * z + 4.0) + h

    def dg(z):
        return pq2 + 4.0 * k / (z * z + 4.0) ** 1.5

    def increasing_root(a, b):
        z = 0.5 * (a + b)
        for _ in range(200):
            gz = g(z)
            if gz == 0.0:
                return z
            if gz < 0.0:
                a = z
            else:
                b = z
            slope = dg(z)
            step = gz / slope if slope > 0.0 else math.inf
            z_new = z - step
            if not a < z_new < b:
                z_new = 0.5 * (a + b)
                if not a < z_new < b:
                    return z
            elif abs(step) <= 1e-15 * (1.0 + abs(z)):
                return z_new
            z = z_new
        return z

    z_min = max(x_lo - 1.0 / x_lo, (-h - abs(k)) / pq2)
    z_max = min(x_hi - 1.0 / x_hi, (-h + abs(k)) / pq2)
    if pq2 + 0.5 * k >= 0.0:
        stretches = [(z_min, z_max)]
    else:
        z_c = math.sqrt((-4.0 * k / pq2) ** (2.0 / 3.0) - 4.0)
        stretches = [(z_min, min(z_max, -z_c)), (max(z_min, z_c), z_max)]
    candidates = [x_lo, x_hi]
    for a, b in stretches:
        if a < b and g(a) < 0.0 < g(b):
            z = increasing_root(a, b)
            w = math.sqrt(z * z + 4.0)
            candidates.append(0.5 * (z + w) if z >= 0.0 else 2.0 / (w - z))
    x_opt = min(candidates, key=lambda x: math.prod(factors(x)))
    return (x_opt,) + factors(x_opt)


def test_inner_core_matches_the_closure_form_bitwise():
    compared = 0
    for alpha_sf, m_std in inner_draws():
        reference = closure_inner_minimum(alpha_sf, m_std)
        args = tuple(float(v) for v in alpha_sf) + tuple(float(v) for v in m_std)
        if reference is None:
            with pytest.raises(NumericalGuardError):
                _inner_core(*args)
            continue
        x_opt, p, q = _inner_core(*args)
        assert (x_opt, p, q) == reference
        state = inner_minimize(alpha_sf, m_std)
        assert state.half_trace == math.sqrt(p * q) == math.sqrt(reference[1] * reference[2])
        assert state.x_opt == x_opt
        compared += 1
    assert compared >= 100


def rosenbrock(v):
    return sum(
        100.0 * (v[i + 1] - v[i] * v[i]) * (v[i + 1] - v[i] * v[i]) + (1.0 - v[i]) * (1.0 - v[i])
        for i in range(len(v) - 1)
    )


def walled_quadratic(v):
    """A tilted quadratic whose minimum lies beyond the wall v0 = 0.3."""
    if v[0] > 0.3:
        return math.inf
    return sum((j + 1.0) * (c - 0.5) * (c - 0.5) for j, c in enumerate(v)) + 0.3 * v[0] * v[-1]


@pytest.mark.parametrize("fun", [rosenbrock, walled_quadratic])
@pytest.mark.parametrize("n", [2, 3])
def test_minimize_matches_scipy_nelder_mead_bitwise(fun, n):
    rng = np.random.default_rng(23 + n)
    for _ in range(8):
        x0 = rng.uniform(-1.5, 0.2, n)
        simplex = np.vstack([x0, x0 + 0.1 * np.eye(n)])
        ref = scipy_minimize(fun, x0, method="Nelder-Mead",
                             options={"initial_simplex": simplex, "fatol": 1e-10,
                                      "xatol": 1e-8, "maxiter": 600})
        got = minimize(fun, tuple(x0), [tuple(v) for v in simplex[1:]], 1e-10, 1e-8, 600)
        assert got.x == tuple(float(c) for c in ref.x)
        assert got.fun == float(ref.fun)
        assert got.nit == ref.nit
        assert all(isinstance(c, float) for c in got.x)


def test_default_simplex_matches_scipy_default():
    # scipy's default simplex: coordinate k stepped by 5%, or set to
    # 0.00025 where it is 0
    x0 = (0.0, -0.7)
    simplex = [tuple((1.05 * c if c != 0 else 0.00025) if j == k else c
                     for j, c in enumerate(x0)) for k in range(len(x0))]
    ref = scipy_minimize(rosenbrock, np.array(x0), method="Nelder-Mead",
                         options={"fatol": 1e-12, "xatol": 1e-10, "maxiter": 600})
    got = minimize(rosenbrock, x0, simplex, 1e-12, 1e-10, 600)
    assert (got.x, got.fun, got.nit) == (tuple(float(c) for c in ref.x), float(ref.fun), ref.nit)


def test_minimize_breaks_ties_by_vertex_order():
    # on a constant function every step shrinks towards the first vertex,
    # which a stable ranking keeps first throughout; x0 is the largest
    # vertex in coordinate order, so no tie-break by coordinates keeps it
    x0 = (0.3, -1.1, 2.0)
    simplex = [(0.2, -1.1, 2.0), (0.3, -1.2, 2.0), (0.3, -1.1, 1.9)]
    res = minimize(lambda v: 1.0, x0, simplex, 1e-10, 1e-8, 600)
    assert res.x == x0 and res.fun == 1.0 and res.nit < 600

    # a flat-bottomed valley: the minimizer inside the plateau repeats
    def plateau(v):
        return max(0.0, v[0] * v[0] + v[1] * v[1] - 1.0)

    runs = [minimize(plateau, (2.0, 1.5), [(2.1, 1.5), (2.0, 1.6)], 1e-10, 1e-8, 600)
            for _ in range(3)]
    assert runs[0].fun == 0.0
    assert runs[0].x[0] ** 2 + runs[0].x[1] ** 2 <= 1.0
    assert all(r == runs[0] for r in runs)


def test_minimize_rejects_a_malformed_simplex():
    with pytest.raises(ValidationError):
        minimize(rosenbrock, (0.0, 0.0), [(0.1, 0.0)], 1e-10, 1e-8, 600)


def test_multistart_caps_the_starts_at_the_pool(monkeypatch):
    # three basins whose minima 0, 1 and 2 lie far more than fatol apart,
    # so no two starts agree and every pool point starts a run
    def basins(v):
        return min((v[0] - c) ** 2 + d for c, d in ((0.0, 0.0), (10.0, 1.0), (20.0, 2.0)))

    first_vertices = []
    plain = gree_module.minimize

    def recording(fun, x0, *args):
        first_vertices.append(x0)
        return plain(fun, x0, *args)

    monkeypatch.setattr(gree_module, "minimize", recording)
    pool = [(20.0,), (0.0,), (10.0,)]
    (value, x), runs, nit = gree_module._multistart(basins, pool, 10, 1e-10, 1e-8)
    assert runs == 3
    assert first_vertices == [(0.0,), (10.0,), (20.0,)]
    assert value < 1e-10 and abs(x[0]) < 1e-4
    assert nit > 3


def test_gree_reports_evaluations_per_family(monkeypatch):
    # count what the simplex runs evaluate, as a tracer would, and add the
    # seed pools: 100 points for types I and II, 25 for the others
    seen = {"calls": 0, "inf": 0}
    plain = gree_module.minimize

    def counting(fun, x0, *args):
        def counted(v):
            value = fun(v)
            seen["calls"] += 1
            seen["inf"] += not math.isfinite(value)
            return value
        return plain(counted, x0, *args)

    monkeypatch.setattr(gree_module, "minimize", counting)
    res = gree(pinned_state("fig1"))
    evaluations = res.diagnostics["evaluations"]
    assert list(evaluations) == list(res.diagnostics["starts"])
    pool_sizes = {"I": 100, "II": 100, "III_1": 25, "III_2": 25, "IV": 25}
    assert all(e["calls"] >= pool_sizes[key] for key, e in evaluations.items())
    assert all(0 <= e["inf"] <= e["calls"] for e in evaluations.values())
    assert sum(e["calls"] for e in evaluations.values()) == sum(pool_sizes.values()) + seen["calls"]
    assert sum(e["inf"] for e in evaluations.values()) >= seen["inf"]


def test_importing_the_package_leaves_scipy_optimize_and_sparse_out():
    """Importing the package, and running the transforms, the spectrum, the
    Williamson decomposition and a two-mode descent, loads no scipy module."""
    code = (
        "import sys, numpy as np, gree, gree.cli\n"
        "rng = np.random.default_rng(0)\n"
        "rho, sigma = gree.random_cm(rng, 2), gree.random_cm(rng, 2)\n"
        "gree.em_to_cm(gree.cm_to_em(rho))\n"
        "gree.williamson(rho), gree.symplectic_eigenvalues(rho)\n"
        "gree.descend(rho, gree.cm_to_em(sigma))\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(gree_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == ""
