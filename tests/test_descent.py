"""Tests for the monotone relative-entropy descent over Gaussian sigma."""

import math

import numpy as np
import pytest

from gree import (
    DescentState,
    NumericalGuardError,
    ValidationError,
    align_gammas,
    bosonic_entropy,
    cm_to_em,
    descend,
    descent_objective,
    descent_step,
    em_to_cm,
    gree,
    initial_state,
    is_separable,
    is_symplectic,
    random_cm,
    relative_entropy,
    sigma_cm_of,
    sigma_em_of,
    standard_cm,
    symplectic_eigenvalues,
    tmst_cm,
)
from gree import descent
from gree.descent import make_state, transform_matrix
from gree.gaussian import PHYSICAL_TOL, _ppt_verdict
from conftest import draw_separable_em, eigensolver_ppt_verdict, ppt_margin, thermal_cm

RHO_TWO_MODE = standard_cm(1.2, 0.9, 0.7, 0.6)
# a two-mode squeezed vacuum r = 0.4 with 10% extra thermal noise
RHO_NOISY_TMSV = tmst_cm(1.1 * math.cosh(0.8), math.sinh(0.8))


def coupled_cm(b, c, d):
    """CM with one qq/pp-antisymmetric and one qp-symmetric coupling."""
    return np.array(
        [
            [b, c, 0.0, d],
            [c, b, d, 0.0],
            [0.0, d, b, -c],
            [d, 0.0, -c, b],
        ]
    )


def squeeze_gain(bar_sum_half, coupling):
    """Objective drop of the maximal two-mode squeeze at equal beta_bar."""
    shrunk = math.sqrt(bar_sum_half**2 - coupling**2)
    return 2.0 * (bosonic_entropy(bar_sum_half - 0.5) - bosonic_entropy(shrunk - 0.5))


def border_start_near(rng, rho):
    """Separable EM just past the border from rho, in a random thermal
    direction; descents from here cross immediately near the start."""
    g = rng.uniform(0.8, 1.6, 2)
    target = np.diag(np.concatenate([g, g]))
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if is_separable((1.0 - mid) * rho + mid * target)[0]:
            hi = mid
        else:
            lo = mid
    return cm_to_em((1.0 - hi) * rho + hi * target)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("local_rotation", (1, 0.7)),
        ("local_squeeze", (0, 1.3)),
        ("rotation_qq", (0, 2, 0.5)),
        ("squeeze_qq", (0, 1, 0.4)),
        ("rotation_qp", (1, 2, 0.6)),
        ("squeeze_qp", (0, 2, 0.3)),
    ],
)
def test_transform_matrix_symplectic_with_inverse(kind, params):
    t = transform_matrix(3, kind, params)
    assert is_symplectic(t)
    if kind == "local_squeeze":
        inverse = params[:-1] + (1.0 / params[-1],)
    else:
        inverse = params[:-1] + (-params[-1],)
    assert np.allclose(t @ transform_matrix(3, kind, inverse), np.eye(6), atol=1e-12)


def test_transform_matrix_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        transform_matrix(2, "shear", (0, 1, 0.1))


def test_make_state_objective_is_the_relative_entropy():
    rng = np.random.default_rng(0)
    alpha = random_cm(rng, 2, 0.7, 1.5)
    s_sigma = transform_matrix(2, "squeeze_qq", (0, 1, 0.25))
    gammas = np.array([1.3, 0.9])
    state = make_state(alpha, s_sigma, gammas)
    expect = relative_entropy(alpha, sigma_cm_of(state)).value
    assert abs(state.objective - expect) < 1e-10


def test_make_state_rejects_boundary_gammas():
    with pytest.raises(ValidationError):
        make_state(thermal_cm(1.0, 1.0), np.eye(4), [0.5, 1.0])


def test_initial_state_reproduces_sigma():
    rng = np.random.default_rng(1)
    alpha = random_cm(rng, 2, 0.7, 1.5)
    sigma0 = draw_separable_em(rng)
    state = initial_state(alpha, sigma0)
    assert np.allclose(sigma_cm_of(state), em_to_cm(sigma0), atol=1e-10)
    assert np.allclose(sigma_em_of(state), sigma0, atol=1e-10)


def test_sigma_em_of_pure_boundary_raises():
    state = DescentState(
        s_sigma=np.eye(4),
        gammas_sigma=np.array([0.5, 1.0]),
        beta=thermal_cm(1.0, 1.0),
        objective=0.0,
        step_log=(),
    )
    with pytest.raises(NumericalGuardError):
        sigma_em_of(state)


def test_objective_vanishes_when_sigma_is_rho():
    state = initial_state(RHO_TWO_MODE, cm_to_em(RHO_TWO_MODE))
    aligned = align_gammas(state)
    assert abs(aligned.objective) < 1e-10
    assert abs(descent_objective(aligned)) < 1e-10


def test_align_gammas_sets_bar_and_drops_objective():
    state = make_state(thermal_cm(1.2, 1.7), np.eye(4), [2.0, 2.0])
    aligned = align_gammas(state)
    assert np.allclose(aligned.gammas_sigma, [1.2, 1.7])
    assert aligned.objective < state.objective
    assert abs(aligned.objective) < 1e-12
    kind, params, logged = aligned.step_log[-1]
    assert (kind, params) == ("align", ())
    assert logged == aligned.objective
    # aligned input is a fixed point of the objective
    again = align_gammas(aligned)
    assert again.objective == aligned.objective


def test_alignment_sweep_is_monotone_through_interior_points():
    alpha = RHO_TWO_MODE
    s_sigma = transform_matrix(2, "rotation_qq", (0, 1, 0.4))
    start = np.array([2.0, 2.0])
    bar = align_gammas(make_state(alpha, s_sigma, start)).gammas_sigma
    gammas = start.copy()
    for j in range(2):
        values = []
        for t in np.linspace(0.0, 1.0, 12):
            g = gammas.copy()
            g[j] = (1.0 - t) * start[j] + t * bar[j]
            values.append(make_state(alpha, s_sigma, g).objective)
        assert np.all(np.diff(values) <= 1e-12)
        gammas[j] = bar[j]


def test_descent_step_diagonal_beta_is_a_fixed_point():
    state = align_gammas(make_state(thermal_cm(1.1, 0.9), np.eye(4), [1.1, 0.9]))
    stepped = descent_step(state)
    assert stepped.step_log == state.step_log
    assert stepped.objective == state.objective


def test_descent_step_single_coupling_squeeze_closed_form():
    b, c = 1.0, 0.4
    state = make_state(coupled_cm(b, c, 0.0), np.eye(4), [b, b])
    stepped = descent_step(state)
    delta = stepped.step_log[len(state.step_log):]
    assert [kind for kind, _, _ in delta] == ["squeeze_qq"]
    (_, (i, j, r), _) = delta[0]
    assert (i, j) == (0, 1)
    assert abs(r - 0.5 * math.atanh(-c / b)) < 1e-12
    assert abs((state.objective - stepped.objective) - squeeze_gain(b, c)) < 1e-12
    off = stepped.beta - np.diag(np.diagonal(stepped.beta))
    assert np.max(np.abs(off)) < 1e-14
    assert np.allclose(stepped.gammas_sigma, math.sqrt(b * b - c * c))


@pytest.mark.parametrize(
    "c, d, expect",
    [(0.3, 0.2, "squeeze_qq"), (0.2, 0.35, "squeeze_qp")],
)
def test_descent_step_picks_the_larger_gain_group(c, d, expect):
    b = 1.2
    state = make_state(coupled_cm(b, c, d), np.eye(4), [b, b])
    stepped = descent_step(state)
    delta = stepped.step_log[len(state.step_log):]
    assert [kind for kind, _, _ in delta] == [expect]
    winner = max(squeeze_gain(b, c), squeeze_gain(b, d))
    assert abs((state.objective - stepped.objective) - winner) < 1e-12


def test_descent_per_step_invariants():
    rng = np.random.default_rng(7)
    alpha = random_cm(rng, 2, 0.7, 1.5)
    spectrum = symplectic_eigenvalues(alpha)
    state = align_gammas(initial_state(alpha, draw_separable_em(rng)))
    for _ in range(400):
        stepped = descent_step(state)
        assert stepped.objective <= state.objective + 1e-12
        assert np.max(np.abs(symplectic_eigenvalues(stepped.beta) - spectrum)) < 1e-8
        assert np.min(stepped.gammas_sigma) >= 0.5 - 1e-9
        if state.objective - stepped.objective < 1e-13:
            state = stepped
            break
        state = stepped
    assert state.objective < 1e-8


def test_descend_stop_validation():
    with pytest.raises(ValidationError):
        descend(RHO_TWO_MODE, cm_to_em(RHO_TWO_MODE), stop="midway")
    with pytest.raises(ValidationError):
        descend(thermal_cm(1.0), cm_to_em(thermal_cm(1.0)), stop="at_border")


@pytest.mark.parametrize("rho, sigma0", [
    (RHO_TWO_MODE, cm_to_em(thermal_cm(1.1, 1.2, 1.3))),
    (thermal_cm(0.9), cm_to_em(thermal_cm(1.1, 1.2))),
], ids=["n2-vs-n3", "n1-vs-n2"])
def test_descend_rejects_a_mode_count_mismatch(rho, sigma0):
    with pytest.raises(ValidationError, match="mode-count mismatch"):
        descend(rho, sigma0)


def test_descend_from_rho_terminates_immediately():
    final, border = descend(RHO_TWO_MODE, cm_to_em(RHO_TWO_MODE), stop="at_rho")
    assert border is None
    assert final.objective < 1e-10
    assert [kind for kind, _, _ in final.step_log] == ["align"]


def test_descend_at_rho_random_runs():
    rng = np.random.default_rng(13)
    for n in (2, 2, 2, 3, 3, 1):
        alpha = random_cm(rng, n, 0.6, 1.6)
        sigma0 = cm_to_em(random_cm(rng, n, 0.55, 1.7))
        final, border = descend(alpha, sigma0, stop="at_rho")
        assert border is None
        assert final.objective <= 1e-8
        bar = np.sort(final.gammas_sigma)[::-1]
        assert np.max(np.abs(bar - symplectic_eigenvalues(alpha))) < 1e-6
        logged = [obj for _, _, obj in final.step_log]
        assert all(b - a > -1e-11 for a, b in zip(logged[1:], logged))


def test_descend_at_border_upper_bounds_the_measure():
    rng = np.random.default_rng(2)
    sigma0 = draw_separable_em(rng)
    border_state, border_em = descend(RHO_NOISY_TMSV, sigma0, stop="at_border")
    assert border_em is not None
    assert any(kind == "crossing" for kind, _, _ in border_state.step_log)
    separable, residual = is_separable(em_to_cm(border_em))
    assert separable and abs(residual) < 1e-8
    attained = relative_entropy(RHO_NOISY_TMSV, border_em, sigma_kind="em").value
    assert abs(border_state.objective - attained) < 1e-8
    assert border_state.objective >= gree(RHO_NOISY_TMSV, starts=8).value - 1e-6


def test_descend_at_border_without_crossing_returns_none():
    final, border = descend(RHO_TWO_MODE, cm_to_em(RHO_TWO_MODE), stop="at_border")
    assert border is None
    assert final.objective < 1e-10


def test_descend_border_minimum_approaches_the_measure():
    rho = RHO_NOISY_TMSV
    best = gree(rho, starts=8).value
    rng = np.random.default_rng(5)
    values = []
    for _ in range(100):
        border_state, border_em = descend(rho, border_start_near(rng, rho), stop="at_border")
        assert border_em is not None
        values.append(border_state.objective)
    assert all(v >= best - 1e-6 for v in values)
    assert min(values) - best < 1e-2


PINNED_TRANSFORMS = [
    (n, kind, params)
    for n in (1, 2, 3)
    for kind, params in [
        ("local_rotation", (n - 1, 0.7)),
        ("local_squeeze", (0, 1.3)),
        ("rotation_qq", (0, n - 1, 0.5)),
        ("squeeze_qq", (0, n - 1, 0.4)),
        ("rotation_qp", (n - 1, 0, -0.6)),
        ("squeeze_qp", (0, n - 1, 0.3)),
    ]
    if n > 1 or kind.startswith("local")
]


@pytest.mark.parametrize("n, kind, params", PINNED_TRANSFORMS)
def test_apply_on_touched_rows_matches_the_dense_congruence(n, kind, params):
    rng = np.random.default_rng(40 + n)
    alpha = random_cm(rng, n, 0.7, 1.8)
    s_sigma = transform_matrix(n, "local_rotation", (0, 0.3)) @ np.diag(
        rng.uniform(0.8, 1.2, 2 * n)
    )
    state = make_state(alpha, s_sigma, np.full(n, 1.4))
    applied = descent._apply(state, kind, params)

    t = transform_matrix(n, kind, params)
    beta = t @ state.beta @ t.T
    s_expect = state.s_sigma @ np.linalg.inv(t)
    for got, expect in ((applied.beta, beta), (applied.s_sigma, s_expect)):
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
    assert abs(applied.objective - descent_objective(applied)) <= 1e-12
    assert applied.self_entropy == state.self_entropy


def test_apply_on_a_state_without_a_carried_self_term():
    state = make_state(RHO_TWO_MODE, np.eye(4), [1.3, 1.0])
    bare = DescentState(*state[:5])
    assert bare.self_entropy is None
    applied = descent._apply(bare, "squeeze_qq", (0, 1, 0.2))
    assert applied.self_entropy == state.self_entropy
    assert abs(applied.objective - descent_objective(applied)) <= 1e-12


def test_ppt_verdict_matches_is_separable_across_border_crossings():
    rng = np.random.default_rng(41)
    crossed, verdicts = 0, []
    for _ in range(6):
        border_state, border_em = descend(
            RHO_NOISY_TMSV, draw_separable_em(rng), stop="at_border"
        )
        if border_em is None:
            continue
        crossed += 1
        sigmas = [sigma_cm_of(border_state), em_to_cm(border_em)]
        # the partial transform that reached the border, scaled around it
        kind, part, _ = border_state.step_log[-2]
        if kind != "align":
            inverse = part[:-1] + ((1.0 / part[-1]) if kind == "local_squeeze" else -part[-1],)
            back = descent._apply(border_state, kind, inverse)
            for scale in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0):
                if kind == "local_squeeze":
                    scaled = part[:-1] + (part[-1] ** scale,)
                else:
                    scaled = part[:-1] + (scale * part[-1],)
                sigmas.append(sigma_cm_of(descent._apply(back, kind, scaled)))
        found = [_ppt_verdict(sigma) for sigma in sigmas]
        assert found == [is_separable(sigma)[0] for sigma in sigmas]
        # at the border itself the partial transpose sits within roundoff of
        # 1/2, above the verdict's threshold 1/2 - PHYSICAL_TOL; 1e-9 to
        # either side of the border, and further out, the routes must agree
        assert all(abs(ppt_margin(sigma) - PHYSICAL_TOL) <= 1e-14 for sigma in sigmas[:2])
        assert found[2:] == [eigensolver_ppt_verdict(sigma) for sigma in sigmas[2:]]
        verdicts += found
    assert crossed >= 3
    assert any(verdicts) and not all(verdicts)


def test_border_states_read_separable_at_one_half():
    """Every crossing is bisected to where the partial transpose's smallest
    symplectic eigenvalue is 1/2 itself, not to the verdict's slack edge
    1/2 - PHYSICAL_TOL, so the returned border EM reads separable."""
    rng = np.random.default_rng(5)
    crossed = 0
    for _ in range(100):
        rho = random_cm(rng, 2, 0.6, 2.5)
        sigma0 = cm_to_em(random_cm(rng, 2, 0.6, 2.5))
        _, border_em = descend(rho, sigma0, stop="at_border")
        if border_em is None:
            continue
        crossed += 1
        sigma = em_to_cm(border_em)
        assert is_separable(sigma)[0]
        assert abs(ppt_margin(sigma) - PHYSICAL_TOL) <= 1e-12
    assert crossed >= 5


def test_carried_objective_matches_an_independent_eigensolve():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 1, 2, 3):
        alpha = random_cm(rng, n, 0.6, 2.5)
        sigma0 = cm_to_em(random_cm(rng, n, 0.6, 2.5))
        final, _ = descend(alpha, sigma0, stop="at_rho")
        assert abs(descent_objective(final) - final.objective) <= 1e-12
        if n == 2:
            border_state, _ = descend(alpha, sigma0, stop="at_border")
            assert abs(descent_objective(border_state) - border_state.objective) <= 1e-12


def test_descend_guards_the_symplectic_spectrum_of_beta(monkeypatch):
    """A congruence keeps beta's spectrum; a converged beta whose spectrum
    moved by 1e-7 (too little for the at_rho end test) must raise."""
    real_step = descent.descent_step

    def drifting_step(state):
        stepped = real_step(state)
        if state.objective - stepped.objective < descent.CONVERGENCE_TOL:
            stepped = stepped._replace(beta=stepped.beta * (1.0 + 1e-7))
        return stepped

    monkeypatch.setattr(descent, "descent_step", drifting_step)
    for stop in ("at_rho", "at_border"):
        with pytest.raises(NumericalGuardError):
            descend(RHO_TWO_MODE, cm_to_em(thermal_cm(1.1, 1.2)), stop=stop)


# descend's results on the pinned pairs: the CLI tests' rho with both of
# their sigma0 documents, and the noisy TMSV from the first of them.  The
# at_rho results were recorded before the float kernel (numpy transforms
# and eigensolver verdicts); the at_border ones when the border bisection
# moved from the verdict's slack edge 1/2 - PHYSICAL_TOL to 1/2 itself
BORDER_EM_NOISY_TMSV = np.array([
    [2.132771441838936, -0.5322349128266288, 0.0, 0.0],
    [-0.5322349128266288, 2.1327714418389365, 0.0, 0.0],
    [0.0, 0.0, 2.132771441838936, 0.5322349128266283],
    [0.0, 0.0, 0.5322349128266283, 2.1327714418389374],
])
BORDER_EM_TWO_MODE = np.array([
    [1.333412383849826, -0.9515154672751354, 0.0, 0.0],
    [-0.9515154672751354, 2.305639077049277, 0.0, 0.0],
    [0.0, 0.0, 1.2397802774814781, 0.5231962523020897],
    [0.0, 0.0, 0.5231962523020897, 1.6933653309354453],
])
AT_RHO_TWO_MODE = (-1.5543122344752192e-15, [0.9867862448410658, 0.6604944413032301], 0, None)
AT_BORDER_TWO_MODE = (0.0830812975340125, [1.0143065149889647, 0.6881942873556791], 1,
                      BORDER_EM_TWO_MODE)
PINNED_DESCENTS = [
    ("noisy_tmsv", RHO_NOISY_TMSV, (1.3, 1.4), "at_rho",
     (0.0, [0.5864370745176892, 0.5864370745176893], 0, None)),
    ("noisy_tmsv", RHO_NOISY_TMSV, (1.3, 1.4), "at_border",
     (0.2674564017531136, [0.6451880777108063, 0.6451880777108061], 1, BORDER_EM_NOISY_TMSV)),
    ("cli_border_pair", RHO_TWO_MODE, (1.3, 1.4), "at_rho", AT_RHO_TWO_MODE),
    ("cli_border_pair", RHO_TWO_MODE, (1.3, 1.4), "at_border", AT_BORDER_TWO_MODE),
    ("cli_rho_pair", RHO_TWO_MODE, (1.1, 1.2), "at_rho", AT_RHO_TWO_MODE),
    ("cli_rho_pair", RHO_TWO_MODE, (1.1, 1.2), "at_border", AT_BORDER_TWO_MODE),
]


@pytest.mark.parametrize(
    "rho, sigma0_gammas, stop, pinned",
    [case[1:] for case in PINNED_DESCENTS],
    ids=["%s-%s" % (case[0], case[3]) for case in PINNED_DESCENTS],
)
def test_descend_results_stay_pinned(rho, sigma0_gammas, stop, pinned):
    objective, gammas, crossings, em = pinned
    state, border_em = descend(rho, cm_to_em(thermal_cm(*sigma0_gammas)), stop=stop)
    assert abs(state.objective - objective) <= 1e-12
    assert np.max(np.abs(state.gammas_sigma - gammas)) <= 1e-12
    assert sum(kind == "crossing" for kind, _, _ in state.step_log) == crossings
    if em is None:
        assert border_em is None
    else:
        assert np.max(np.abs(border_em - em)) <= 1e-12


def test_replayed_transforms_reproduce_the_step_bit_for_bit():
    """The border monitor replays a step's logged transforms through the
    float kernel; it must land on exactly the state the step returned."""
    rng = np.random.default_rng(43)
    for n in (1, 2, 3):
        alpha = random_cm(rng, n, 0.6, 2.5)
        state = align_gammas(initial_state(alpha, cm_to_em(random_cm(rng, n, 0.6, 2.5))))
        for _ in range(4):
            stepped = descent_step(state)
            replay = descent._Walk(state)
            for kind, params, _ in stepped.step_log[len(state.step_log):]:
                replay.transform(kind, params)
            again = replay.state(state)
            assert again.step_log == stepped.step_log
            for name in ("beta", "s_sigma", "gammas_sigma"):
                assert np.array_equal(getattr(again, name), getattr(stepped, name))
            assert again.objective == stepped.objective
            state = stepped


def test_walk_verdict_matches_the_ppt_verdict():
    """The border monitor reads its verdict from the walk's floats; along
    descents that cross the border it agrees with the verdict on the
    numpy sigma CM."""
    rng = np.random.default_rng(41)
    verdicts = []
    for _ in range(4):
        state = align_gammas(initial_state(RHO_NOISY_TMSV, draw_separable_em(rng)))
        for _ in range(6):
            stepped = descent_step(state)
            walk = descent._Walk(state)
            for kind, params, _ in stepped.step_log[len(state.step_log):]:
                walk.transform(kind, params)
                verdicts.append(descent._separable(walk.s_cols, walk.bar))
                assert verdicts[-1] == _ppt_verdict(sigma_cm_of(walk.state(state)))
            state = stepped
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("stop,sigma0_gammas", [("at_rho", (1.1, 1.2)), ("at_border", (1.3, 1.4))])
def test_step_choices_do_not_follow_roundoff(stop, sigma0_gammas):
    """Pair and cleanup-mode sizes that tie in exact arithmetic pick the
    first candidate: scaling rho by 1 + 2^-52 keeps every kind and mode of
    the step log (the two local cleanups after the CLI pair's last squeeze
    tie exactly and act on disjoint planes)."""
    sigma0 = cm_to_em(thermal_cm(*sigma0_gammas))
    logs = []
    for scale in (1.0, 1.0 + 2.0 ** -52):
        state, _ = descend(RHO_TWO_MODE * scale, sigma0, stop=stop)
        logs.append([(kind, params[:-1]) for kind, params, _ in state.step_log])
    assert logs[0] == logs[1]
