"""Monotone relative-entropy descent over Gaussian sigma.

The descent works on beta = S_sigma^-1 alpha_rho (S_sigma^T)^-1, which is
itself a covariance matrix with the symplectic eigenvalues of alpha_rho.
After aligning gamma_sigma_j with beta_bar_jj = (beta_jj + beta_n+j,n+j)/2
the relative entropy is sum_j g(beta_bar_jj - 1/2) - sum_j g(gamma_rho_j -
1/2), and every further decrease comes from symplectic congruences of
beta: local rotations and squeezes clean up single modes, while two-mode
rotations and squeezes of the first (qq/pp) and second (qp/pq) kinds each
remove one of the four inter-mode couplings.  Iterating pair by pair
drives beta diagonal and sigma into rho; monitoring separability along
the way locates border states that upper-bound the GREE.

A congruence leaves beta's symplectic spectrum, and so the self term
S(rho) = sum_j g(gamma_rho_j - 1/2), unchanged: the state carries S(rho)
from make_state on, and descend checks beta's spectrum against rho's once
before it returns.  Each transform is a rotation or squeeze on one or two
coordinate planes (the generator table symplectic._planes), so it is
applied to the two or four rows and columns of beta (and columns of
S_sigma) it touches.

descent_step runs on plain floats: it reads beta and S_sigma into Python
rows once, applies every transform of both transform groups with math on
the touched rows and columns, updates beta_bar and the entropy sum on the
touched modes only, and builds one DescentState at the end.  The border
monitor replays the kept transforms through the same kernel, so it sees
the very iterates the step saw, and asks only for the closed-form PPT
verdict of gaussian._ppt_verdict, not for the border residual.  Every
verdict descend takes forms sigma on plain floats the same way, so the
replay compares like with like.  It rebuilds the iterate before a
transform only when that transform crosses the border.
"""

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import NumericalGuardError, SearchFailureError, ValidationError
from .gaussian import (
    _em_frame,
    _frame_verdict,
    _pt_nu_minus,
    bosonic_entropy,
    bosonic_entropy_sum,
    check_physical,
    em_spectrum,
    normalization_log_c,
)
from .symplectic import _embed, _frame, _planes, _symplectic_spectrum, symplectic_eigenvalues

# convergence and safety knobs for descend()
MAX_ITERS = 10_000
CONVERGENCE_TOL = 1e-12
# rounds of local-squeeze / two-mode-rotation preparation before a squeeze
INNER_ROUNDS = 3
# bisection steps used to localize a border crossing along one transform
BISECT_ITERS = 60
AT_RHO_TOL = 1e-8
# transform parameters below this are dropped as no-ops
PARAM_FLOOR = 1e-15
# couplings below this (relative) do not justify a rotation: the angle of a
# diagonalizing rotation stays O(1) even for noise-level couplings
COUPLING_FLOOR = 1e-14
# slack allowed on the per-step monotonicity of the objective
MONOTONE_SLACK = 1e-12
# relative drift allowed between beta's symplectic spectrum and rho's
SPECTRUM_TOL = 1e-8
# a later pair or cleanup mode replaces the current pick only when its size
# is larger by more than this, relative: sizes that tie in exact arithmetic
# keep the first candidate whatever roundoff does to them
SIZE_TIE_RTOL = 1e-12

_UNCERTAINTY_TOL = 1e-9


class DescentState(NamedTuple):
    """One iterate of the descent.

    step_log holds (kind, params, objective after) triples; params is
    (mode, value) for local transforms, (i, j, value) for pair transforms,
    () for the initial alignment and (border value,) for a border
    crossing marker.  self_entropy is S(rho), which no congruence of beta
    changes; None makes the next transform compute it from beta."""

    s_sigma: np.ndarray
    gammas_sigma: np.ndarray
    beta: np.ndarray
    objective: float
    step_log: Tuple
    self_entropy: Optional[float] = None


def _beta_bar(beta: np.ndarray) -> np.ndarray:
    n = beta.shape[0] // 2
    d = np.diagonal(beta)
    return 0.5 * (d[:n] + d[n:])


def _self_entropy(beta: np.ndarray) -> float:
    return bosonic_entropy_sum(symplectic_eigenvalues(beta) - 0.5)


def _carried_self_entropy(state: DescentState) -> float:
    if state.self_entropy is None:
        return _self_entropy(state.beta)
    return state.self_entropy


def _general_objective(
    beta: np.ndarray, gammas_sigma: np.ndarray, self_entropy: float
) -> float:
    """S(rho||sigma) for arbitrary (not necessarily aligned) gamma_sigma."""
    g = np.asarray(gammas_sigma, dtype=float)
    cross = -normalization_log_c(g) + float(np.sum(_beta_bar(beta) * em_spectrum(g)))
    return -self_entropy + cross


def make_state(
    alpha_rho: np.ndarray,
    s_sigma: np.ndarray,
    gammas_sigma,
    step_log: Tuple = (),
) -> DescentState:
    """Assemble a descent state from sigma's symplectic data."""
    alpha_rho = np.asarray(alpha_rho, dtype=float)
    s_sigma = np.asarray(s_sigma, dtype=float)
    gammas_sigma = np.asarray(gammas_sigma, dtype=float)
    if s_sigma.ndim != 2 or s_sigma.shape[0] != s_sigma.shape[1] or s_sigma.shape[0] % 2:
        raise ValidationError("expected a square even-dimension matrix")
    if alpha_rho.shape != s_sigma.shape:
        raise ValidationError("mode-count mismatch between rho and sigma")
    if np.any(gammas_sigma <= 0.5):
        raise ValidationError(
            "sigma symplectic eigenvalues must stay above the pure-state bound 1/2"
        )
    s_inv = np.linalg.inv(s_sigma)
    beta = s_inv @ alpha_rho @ s_inv.T
    beta = 0.5 * (beta + beta.T)
    # beta is symmetric by construction: its spectrum needs no check
    self_entropy = bosonic_entropy_sum(_symplectic_spectrum(beta) - 0.5)
    objective = _general_objective(beta, gammas_sigma, self_entropy)
    return DescentState(
        s_sigma=s_sigma,
        gammas_sigma=gammas_sigma,
        beta=beta,
        objective=objective,
        step_log=tuple(step_log),
        self_entropy=self_entropy,
    )


def initial_state(alpha_rho: np.ndarray, sigma0_em: np.ndarray) -> DescentState:
    """Start from sigma given as an exponential matrix."""
    return make_state(alpha_rho, *_em_frame(np.asarray(sigma0_em, dtype=float)))


def sigma_cm_of(state: DescentState) -> np.ndarray:
    return _frame(state.s_sigma, state.gammas_sigma)


def sigma_em_of(state: DescentState) -> np.ndarray:
    g = np.asarray(state.gammas_sigma, dtype=float)
    if np.any(g <= 0.5):
        raise NumericalGuardError("sigma is on the pure-state boundary")
    return _frame(np.linalg.inv(state.s_sigma).T, em_spectrum(g))


def descent_objective(state: DescentState) -> float:
    """Aligned objective sum_j g(beta_bar_jj - 1/2) - S(rho)."""
    bar = _beta_bar(state.beta)
    if np.any(bar < 0.5 - _UNCERTAINTY_TOL):
        raise ValidationError("beta violates the uncertainty bound beta_bar >= 1/2")
    return bosonic_entropy_sum(bar - 0.5) - _self_entropy(state.beta)


def align_gammas(state: DescentState) -> DescentState:
    """Set each gamma_sigma_j to beta_bar_jj; never increases the objective."""
    bar = _beta_bar(state.beta)
    if np.any(bar < 0.5 - _UNCERTAINTY_TOL):
        raise ValidationError("beta violates the uncertainty bound beta_bar >= 1/2")
    self_entropy = _carried_self_entropy(state)
    objective = bosonic_entropy_sum(bar - 0.5) - self_entropy
    return state._replace(
        gammas_sigma=bar,
        objective=objective,
        step_log=state.step_log + (("align", (), objective),),
        self_entropy=self_entropy,
    )


def transform_matrix(n: int, kind: str, params: Tuple) -> np.ndarray:
    """Elementary descent transform embedded in 2n dimensions."""
    return _embed(n, _planes(n, kind, params))


class _Walk:
    """A descent iterate on plain floats: beta's rows, S_sigma's columns,
    beta_bar and the per-mode terms g(beta_bar_j - 1/2) of the objective.

    transform() changes only what a transform touches, in place, and logs
    it; copy() before branching.  state() builds the DescentState once."""

    __slots__ = ("beta", "s_cols", "bar", "terms", "self_entropy", "objective", "log")

    def __init__(self, state: DescentState):
        beta = state.beta.tolist()
        n = len(beta) // 2
        self.beta = beta
        self.s_cols = state.s_sigma.T.tolist()
        self.bar = [0.5 * (beta[j][j] + beta[n + j][n + j]) for j in range(n)]
        self.terms = [bosonic_entropy(max(b - 0.5, 0.0)) for b in self.bar]
        self.self_entropy = _carried_self_entropy(state)
        self.objective = state.objective
        self.log = []

    def copy(self) -> "_Walk":
        other = _Walk.__new__(_Walk)
        # transform() replaces S_sigma's columns whole but edits beta's rows
        other.beta = [row[:] for row in self.beta]
        other.s_cols = self.s_cols[:]
        other.bar = self.bar[:]
        other.terms = self.terms[:]
        other.self_entropy = self.self_entropy
        other.objective = self.objective
        other.log = self.log[:]
        return other

    def transform(self, kind: str, params: Tuple) -> None:
        """beta -> T beta T^T and S_sigma -> S_sigma T^-1 on the touched
        rows and columns; beta_bar and the objective follow on the touched
        modes, params[:-1]."""
        beta = self.beta
        n = len(self.bar)
        planes = _planes(n, kind, params)
        touched = []
        s_cols = self.s_cols
        for (a, b), (t_aa, t_ab, t_ba, t_bb) in planes:
            row_a, row_b = beta[a], beta[b]
            beta[a] = [t_aa * x + t_ab * y for x, y in zip(row_a, row_b)]
            beta[b] = [t_ba * x + t_bb * y for x, y in zip(row_a, row_b)]
            # each block has det 1, so T^-1 acts on the plane by its adjugate
            col_a, col_b = s_cols[a], s_cols[b]
            s_cols[a] = [t_bb * x - t_ba * y for x, y in zip(col_a, col_b)]
            s_cols[b] = [t_aa * y - t_ab * x for x, y in zip(col_a, col_b)]
            touched += (a, b)
        # the touched rows now hold (T beta)[k]; finish their touched columns,
        # then restore symmetry: average the touched block, mirror the rest
        for k in touched:
            row = beta[k]
            for (a, b), (t_aa, t_ab, t_ba, t_bb) in planes:
                x, y = row[a], row[b]
                row[a] = t_aa * x + t_ab * y
                row[b] = t_ba * x + t_bb * y
        for p, k in enumerate(touched):
            row = beta[k]
            for m in touched[p + 1:]:
                row[m] = beta[m][k] = 0.5 * (row[m] + beta[m][k])
        for r in range(2 * n):
            if r not in touched:
                row = beta[r]
                for k in touched:
                    row[k] = beta[k][r]

        bar, terms = self.bar, self.terms
        modes = params[:-1]
        for j in modes:
            bar[j] = 0.5 * (beta[j][j] + beta[n + j][n + j])
        if min(bar) < 0.5 - _UNCERTAINTY_TOL:
            raise NumericalGuardError("transform left beta numerically indefinite")
        for j in modes:
            terms[j] = bosonic_entropy(max(bar[j] - 0.5, 0.0))
        self.objective = sum(terms) - self.self_entropy
        self.log.append((kind, params, self.objective))

    def state(self, base: DescentState) -> DescentState:
        """The DescentState this walk reached from base."""
        if not self.log:
            return base
        return DescentState(
            s_sigma=np.array(self.s_cols).T.copy(),
            gammas_sigma=np.array(self.bar),
            beta=np.array(self.beta),
            objective=self.objective,
            step_log=base.step_log + tuple(self.log),
            self_entropy=self.self_entropy,
        )


def _apply(state: DescentState, kind: str, params: Tuple) -> DescentState:
    """Congruence-transform beta, update sigma accordingly, realign."""
    walk = _Walk(state)
    walk.transform(kind, params)
    return walk.state(state)


def _fold_angle(theta: float) -> float:
    """Reduce a diagonalizing angle to the order-preserving |theta|<=pi/4."""
    if theta > 0.25 * math.pi:
        return theta - 0.5 * math.pi
    if theta < -0.25 * math.pi:
        return theta + 0.5 * math.pi
    return theta


def _prep_local(walk: _Walk, i: int) -> _Walk:
    """Zero beta_{i,n+i} and equalize beta_ii = beta_{n+i,n+i}."""
    n = len(walk.bar)
    b = walk.beta
    if abs(b[i][n + i]) > COUPLING_FLOOR * max(1.0, b[i][i] + b[n + i][n + i]):
        theta = _fold_angle(
            0.5 * math.atan2(2.0 * b[i][n + i], b[i][i] - b[n + i][n + i])
        )
        if abs(theta) > PARAM_FLOOR:
            walk.transform("local_rotation", (i, theta))
    if b[i][i] <= 0.0 or b[n + i][n + i] <= 0.0:
        raise NumericalGuardError("transform left beta numerically indefinite")
    s = (b[n + i][n + i] / b[i][i]) ** 0.25
    if abs(s - 1.0) > PARAM_FLOOR:
        walk.transform("local_squeeze", (i, s))
    return walk


def _separable(s_cols: list, bar: list) -> bool:
    """PPT verdict of the two-mode sigma = S_sigma diag(bar, bar)
    S_sigma^T, formed on plain floats from S_sigma's columns, one
    triangle mirrored; descend takes every verdict from here."""
    c0, c1, c2, c3 = s_cols
    b0, b1 = bar
    sigma = [[0.0] * 4 for _ in range(4)]
    for r in range(4):
        x0, x1, x2, x3 = c0[r] * b0, c1[r] * b1, c2[r] * b0, c3[r] * b1
        for c in range(r, 4):
            sigma[r][c] = sigma[c][r] = x0 * c0[c] + x1 * c1[c] + x2 * c2[c] + x3 * c3[c]
    return _frame_verdict(sigma)


def _pair_couplings(beta: list, i: int, j: int) -> Tuple[float, float, float, float]:
    """(qq/pp symmetric, qq/pp antisymmetric, qp antisymmetric, qp symmetric)."""
    n = len(beta) // 2
    return (
        0.5 * (beta[i][j] + beta[n + i][n + j]),
        0.5 * (beta[i][j] - beta[n + i][n + j]),
        0.5 * (beta[i][n + j] - beta[n + i][j]),
        0.5 * (beta[i][n + j] + beta[n + i][j]),
    )


def _group_pass(walk: _Walk, i: int, j: int, second_kind: bool) -> _Walk:
    """Local prep + rotation rounds, then the matching two-mode squeeze.
    The walk arrives with the first round's local prep done: both kinds
    start from it, so descent_step runs it once."""
    rot_kind = "rotation_qp" if second_kind else "rotation_qq"
    sqz_kind = "squeeze_qp" if second_kind else "squeeze_qq"
    bar = walk.bar
    for round_ in range(INNER_ROUNDS):
        if round_:
            _prep_local(walk, i)
            _prep_local(walk, j)
        sym_qq, _, asym_qp, _ = _pair_couplings(walk.beta, i, j)
        c = asym_qp if second_kind else sym_qq
        if abs(c) > COUPLING_FLOOR * max(1.0, bar[i] + bar[j]):
            theta = _fold_angle(0.5 * math.atan2(2.0 * c, bar[i] - bar[j]))
            if abs(theta) > PARAM_FLOOR:
                walk.transform(rot_kind, (i, j, theta))
    _, asym_qq, _, sym_qp = _pair_couplings(walk.beta, i, j)
    c = sym_qp if second_kind else asym_qq
    arg = -2.0 * c / (bar[i] + bar[j])
    if abs(arg) >= 1.0:
        raise NumericalGuardError("transform left beta numerically indefinite")
    r = 0.5 * math.atanh(arg)
    if abs(r) > PARAM_FLOOR:
        walk.transform(sqz_kind, (i, j, r))
    return walk


def _outgrows(size: float, best: float) -> bool:
    return size - best > SIZE_TIE_RTOL * best


def descent_step(state: DescentState) -> DescentState:
    """Run one transform group on the pair with the largest coupling.

    Both the first-kind (qq/pp) and the second-kind (qp/pq) group are
    evaluated and the one reaching the lower objective is kept; with no
    inter-mode coupling left, single modes are cleaned up locally, and a
    fully diagonal beta is a fixed point.  Of pairs (or modes) whose sizes
    agree within SIZE_TIE_RTOL the first is taken."""
    walk = _Walk(state)
    beta = walk.beta
    n = len(walk.bar)
    scale = max(1.0, max(abs(x) for row in beta for x in row))

    best_pair, best_size = None, 0.0
    for i in range(n):
        for j in range(i + 1, n):
            size = max(
                abs(beta[i][j]), abs(beta[n + i][n + j]),
                abs(beta[i][n + j]), abs(beta[n + i][j]),
            )
            if _outgrows(size, best_size):
                best_pair, best_size = (i, j), size
    if best_pair is not None and best_size > 1e-13 * scale:
        i, j = best_pair
        _prep_local(walk, i)
        _prep_local(walk, j)
        first = _group_pass(walk.copy(), i, j, second_kind=False)
        second = _group_pass(walk, i, j, second_kind=True)
        chosen = second if second.objective < first.objective else first
        if chosen.objective > state.objective + MONOTONE_SLACK:
            raise NumericalGuardError("descent step increased the objective")
        return chosen.state(state)

    # no pair coupling: local cleanup of the worst mode, if any
    worst, size = None, PARAM_FLOOR * scale
    for i in range(n):
        local = abs(beta[i][n + i]) + abs(beta[i][i] - beta[n + i][n + i])
        if _outgrows(local, size):
            worst, size = i, local
    if worst is None:
        return state
    return _prep_local(walk, worst).state(state)


def _bisect_crossing(
    state: DescentState, kind: str, params: Tuple, was_separable: bool
) -> DescentState:
    """Bisect one transform's parameter to the separability border: where the
    partial transpose's nu_- crosses 1/2 itself, not the verdict's slack edge
    1/2 - PHYSICAL_TOL.  The iterate returned has nu_- >= 1/2."""

    def at(t: float) -> DescentState:
        if kind == "align":
            g = (1.0 - t) * state.gammas_sigma + t * _beta_bar(state.beta)
            obj = _general_objective(state.beta, g, _carried_self_entropy(state))
            return state._replace(
                gammas_sigma=g, objective=obj,
                step_log=state.step_log + (("align", (), obj),),
            )
        if kind == "local_squeeze":
            part = params[:-1] + (params[-1] ** t,)
        else:
            part = params[:-1] + (t * params[-1],)
        return _apply(state, kind, part)

    lo, hi = 0.0, 1.0
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if (_pt_nu_minus(sigma_cm_of(at(mid)).tolist()) >= 0.5) == was_separable:
            lo = mid
        else:
            hi = mid
    t_sep = lo if was_separable else hi
    return at(t_sep)


def _check_spectrum(state: DescentState, gammas_rho: np.ndarray) -> None:
    """Guard: the congruences must have kept beta's symplectic spectrum.
    descend's iterates come from make_state and _Walk, which both keep
    beta symmetric, so its spectrum is read unchecked."""
    drift = float(np.max(np.abs(_symplectic_spectrum(state.beta) - gammas_rho)))
    if drift > SPECTRUM_TOL * max(1.0, float(gammas_rho[0])):
        raise NumericalGuardError(
            "beta's symplectic spectrum drifted from rho's by %.3e" % drift
        )


def descend(
    alpha_rho: np.ndarray, sigma0: np.ndarray, stop: str = "at_rho"
) -> Tuple[DescentState, Optional[np.ndarray]]:
    """Iterate align + descent_step from sigma0 (an exponential matrix).

    With stop="at_rho" the descent runs to convergence and is required to
    end at rho (objective <= 1e-8, beta_bar matching rho's symplectic
    eigenvalues up to mode interchange).  With stop="at_border" every
    separability flip along the way is bisected to the border; the last
    (lowest) border iterate and its exponential matrix are returned, and
    each crossing leaves a ("crossing", (value,), objective) marker in
    the step log.  With either stop, beta's symplectic spectrum must still
    match rho's within SPECTRUM_TOL * max(1, gamma_max), else
    NumericalGuardError."""
    if stop not in ("at_rho", "at_border"):
        raise ValidationError("stop must be 'at_rho' or 'at_border'")
    alpha_rho = np.asarray(alpha_rho, dtype=float)
    gammas_rho = check_physical(alpha_rho)
    monitor = stop == "at_border"
    if monitor and alpha_rho.shape[0] != 4:
        raise ValidationError("border monitoring is defined for two-mode states")

    state = initial_state(alpha_rho, sigma0)
    separable = False
    if monitor:
        separable = _separable(state.s_sigma.T.tolist(), state.gammas_sigma.tolist())
    aligned = align_gammas(state)
    border: Optional[DescentState] = None
    if monitor:
        now = _separable(aligned.s_sigma.T.tolist(), aligned.gammas_sigma.tolist())
        if now != separable:
            border = _bisect_crossing(state, "align", (), separable)
            marker = ("crossing", (border.objective,), border.objective)
            border = border._replace(step_log=border.step_log + (marker,))
            aligned = aligned._replace(step_log=aligned.step_log + (marker,))
            separable = now
    state = aligned

    converged = False
    for _ in range(MAX_ITERS):
        before = state
        stepped = descent_step(before)
        if monitor:
            replay = _Walk(before)
            kept = stepped.step_log[len(before.step_log):]
            for t, (kind, params, _) in enumerate(kept):
                replay.transform(kind, params)
                now = _separable(replay.s_cols, replay.bar)
                if now != separable:
                    # rebuild the iterate before this transform
                    prev = _Walk(before)
                    for kind_k, params_k, _ in kept[:t]:
                        prev.transform(kind_k, params_k)
                    border = _bisect_crossing(prev.state(before), kind, params, separable)
                    marker = ("crossing", (border.objective,), border.objective)
                    border = border._replace(step_log=border.step_log + (marker,))
                    stepped = stepped._replace(step_log=stepped.step_log + (marker,))
                    separable = now
        if before.objective - stepped.objective < CONVERGENCE_TOL:
            state = stepped
            converged = True
            break
        state = stepped
    if not converged:
        raise SearchFailureError(
            "descent did not converge in %d iterations (objective %.3e after %d transforms)"
            % (MAX_ITERS, state.objective, len(state.step_log))
        )

    _check_spectrum(state, gammas_rho)
    if border is not None:
        _check_spectrum(border, gammas_rho)
    if stop == "at_rho":
        bar = np.sort(_beta_bar(state.beta))[::-1]
        if state.objective > AT_RHO_TOL or np.max(np.abs(bar - gammas_rho)) > 1e-6:
            raise SearchFailureError(
                "descent converged away from rho (objective %.3e after %d transforms)"
                % (state.objective, len(state.step_log))
            )
        return state, None
    if border is None:
        return state, None
    return border, sigma_em_of(border)
