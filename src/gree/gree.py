"""Gaussian relative entropy of entanglement (GREE) of two-mode states.

GREE minimizes S(rho||sigma) over separable Gaussian sigma; the minimum is
attained on the separable/inseparable border, which for two modes is
covered by four families of border exponential matrices (types I-IV).
Types III and IV are faces of types I and II: after strip and fold, type
III is the r -> 0 face of type I and the theta -> 0 face of type II, and
type IV is type II at theta = pi/4 (see `_family_blocks`).  So `gree`
searches types I and II by default, and types III and IV only when
`families` names them.  The outer search runs over the two gammas, plus
the shape of types I and II; every candidate is completed by closed-form
y-elimination and a 1-D search in the local squeeze x.  Symmetric states
admit a two-variable objective W, which two-mode squeezed thermal states
take on its diagonal: two independent routes, which `gree` never takes,
whose minimizer is a type IV border point.  All three routes run one
multistart simplex driver (`_multistart`) and end in `_border_result`.

The searches run on plain Python floats: a Nelder-Mead simplex in this
module (`minimize`, scipy's non-adaptive method step for step) over one
module-level family objective (`_family_objective`).  It goes from log
gaps to gammas, x', the six q/p blocks of the border EM, strip and fold,
the inner minimum and the value, and scores a point with no border state
inf without raising.  Each formula lives in one float helper (`_x_prime`,
`_family_blocks`, `_strip_blocks`, `fold_cross_terms`, `_inner_core`)
that returns its result, or as a str the reason there is none;
`border_x_prime`, `border_em`, `xy_strip` and `inner_minimize` are thin
wrappers that validate their arguments and raise those reasons as
NumericalGuardError.  Vertices are ranked by Python's stable sort, so the
order of exactly tied vertices, and with it the minimizer inside a flat
valley, does not depend on the machine.
"""

import math
from bisect import insort
from functools import partial
from itertools import repeat
from operator import add, index, itemgetter, mul, sub, truediv
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalGuardError, SearchFailureError, ValidationError
from .gaussian import (
    PURITY_EPS,
    SymmetricParams,
    _qp_block_matrix,
    bosonic_entropy_sum,
    check_physical,
    classify,
    cm_to_em,
    em_spectrum,
    em_to_cm,
    gamma_of_em_spectrum,
    is_separable,
    standard_form,
    symmetric_cm,
)
from .relent import clamp_negative

# search-domain floor on gamma - 1/2 for border states
PURITY_FLOOR_GAP = 1e-7
# x' beyond this is treated as an unreachable border point
X_PRIME_CAP = 1e6
# bracket for the inner minimization over log x
LOG_X_BRACKET = 6.0
_X_LO, _X_HI = math.exp(-LOG_X_BRACKET), math.exp(LOG_X_BRACKET)
# the bracket in z = x - 1/x
_Z_LO, _Z_HI = _X_LO - 1.0 / _X_LO, _X_HI - 1.0 / _X_HI
# edge of the initial simplex along every search variable; scipy's default
# simplex steps 5% of a coordinate, or 0.00025 where it is 0 (the log-gap
# anchor of any gamma = 3/2), and such a flat simplex stalls away from the
# minimum
SIMPLEX_STEP = 0.1

# ranks the (value, vertex) pairs of a simplex
_VALUE = itemgetter(0)
# the simplex steps' coefficients as one-argument products
_HALF, _THREE_HALVES = partial(mul, 0.5), partial(mul, 1.5)
_TWICE, _THRICE = partial(mul, 2.0), partial(mul, 3.0)
_TYPE_ORDER = {"I": 0, "II": 1, "III": 2, "IV": 3}
# family minima within this of the lowest are tied; the first of them in
# type order gives the label
TIE_TOL = 1e-12
# function tolerance of a family's simplex refinements, and the agreement
# between two starts that stops the family
SEARCH_FATOL = 1e-10


class BorderParams(NamedTuple):
    """A point in one of the border families.

    shape is r for type I, theta for type II and 0.0 for types III and
    IV; x_prime is derived for types I/II and fixed at 1.0 otherwise."""

    label: str
    gamma_a: float
    gamma_b: float
    shape: float
    x_prime: float


class InnerMinState(NamedTuple):
    """Result of the local-squeeze minimization of (1/2) Tr(alpha M):
    alpha_sf = (alpha1..alpha4), m_std = folded (M1..M4)."""

    alpha_sf: Tuple[float, float, float, float]
    m_std: Tuple[float, float, float, float]
    x_opt: float
    y_opt: float
    half_trace: float


class SimplexResult(NamedTuple):
    """Lowest vertex x of a finished simplex search, its value fun and
    the iteration count nit (counted from 1)."""

    x: Tuple[float, ...]
    fun: float
    nit: int


class GreeResult(NamedTuple):
    """GREE value (nats) with the best border family, its parameters, the
    minimizing EM in the input frame, and search diagnostics."""

    value: float
    label: Optional[str]
    params: Optional[BorderParams]
    best_em: Optional[np.ndarray]
    diagnostics: dict


def _coth(x: float) -> float:
    return 1.0 / math.tanh(x)


# the reason a family point has no border EM once a parameter overflows
_OVERFLOW = "border parameters overflow double precision"


def _x_prime(label: str, gamma_a: float, gamma_b: float, shape: float):
    """border_x_prime's x' as a float, or as a str the reason that no
    border state exists at these parameters.  The label and the gammas
    are the caller's to check."""
    try:
        lhs = (2.0 * gamma_a**2 - 0.5) * (2.0 * gamma_b**2 - 0.5)
        strength = math.sinh(2.0 * shape) ** 2 if label == "I" else math.sin(2.0 * shape) ** 2
    except OverflowError:
        return _OVERFLOW
    if strength < 1e-300:
        return "degenerate shape parameter: x' out of domain"
    cross = gamma_a**2 + gamma_b**2
    if label == "I":
        t = (lhs / strength - cross) / (gamma_a * gamma_b)
    else:
        t = (lhs / strength + cross) / (gamma_a * gamma_b)
    if t < 2.0:
        return "no border state at these parameters (t = %.6g < 2)" % t
    x_prime = math.sqrt(0.5 * (t + math.sqrt(t * t - 4.0)))
    if x_prime == math.inf:
        return _OVERFLOW
    if label == "II":
        low = max(math.sqrt(gamma_a / gamma_b), math.sqrt(gamma_b / gamma_a))
        if x_prime <= low:
            return "type II x' range violation"
    return x_prime


def border_x_prime(label: str, gamma_a: float, gamma_b: float, shape: float) -> float:
    """The derived squeeze x' putting (gamma_a, gamma_b, shape) on the border.

    Solves the type I equality
    (2 gamma_A^2 - 1/2)(2 gamma_B^2 - 1/2)
        = sinh^2(2r) [(x'^2 + x'^-2) gamma_A gamma_B + gamma_A^2 + gamma_B^2]
    (type II: sin^2(2 theta) and a minus sign on the last bracket term) for
    t = x'^2 + x'^-2 and returns the branch x' = sqrt((t + sqrt(t^2-4))/2).

    Args:
        label: "I" or "II".
        gamma_a, gamma_b: border-state symplectic eigenvalues, > 1/2.
        shape: r for type I, theta for type II; must give a nonzero
            squeeze/rotation.

    Raises:
        NumericalGuardError: t < 2 (no border state at these parameters),
            the type II admissibility range is violated, or a parameter
            overflows double precision.
    """
    if label not in ("I", "II"):
        raise ValidationError("x' is defined for types I and II only")
    if min(gamma_a, gamma_b) <= 0.5:
        raise ValidationError("border gammas must exceed 1/2")
    x_prime = _x_prime(label, gamma_a, gamma_b, shape)
    if isinstance(x_prime, str):
        raise NumericalGuardError(x_prime)
    return x_prime


def _congruence_blocks(
    s11: float, s12: float, s21: float, s22: float, mta: float, mtb: float
) -> Tuple[float, float, float, float, float, float]:
    """Blocks of S^-T diag(Mtilde) S^-1 for the local pair S = S_q (+) S_q^-T:
    the q block S_q^-T diag(mta, mtb) S_q^-1 and the p block
    S_q diag(mta, mtb) S_q^T, each as (upper-left, off-diagonal,
    lower-right)."""
    det = s11 * s22 - s12 * s21
    k11, k12, k21, k22 = s22 / det, -s12 / det, -s21 / det, s11 / det
    return (
        k11 * k11 * mta + k21 * k21 * mtb,
        k11 * k12 * mta + k21 * k22 * mtb,
        k12 * k12 * mta + k22 * k22 * mtb,
        s11 * s11 * mta + s12 * s12 * mtb,
        s11 * s21 * mta + s12 * s22 * mtb,
        s21 * s21 * mta + s22 * s22 * mtb,
    )


def _family_blocks(label: str, ga: float, gb: float, shape: float, x_prime: float):
    """The six q and p blocks (a1, a2, a3, b1, b2, b3) of border_em's EM,
    whose q-p cross block vanishes in every family, as floats, or as a
    str the reason the family point has no EM.  The label, a finite
    shape and a positive x_prime for types I/II are the caller's to
    check; types III and IV read neither.

    Faces.  Strip and fold read the blocks only through M1^2 = a1 b1,
    M3^2 = a3 b3, y0^4 = a1 a3 / (b1 b3), Ms2^2 = a2^2 / y0^2,
    Ms4^2 = b2^2 y0^2 and the sign of a2 b2.  For types I and II put
    A, B = Mtilde(gamma_A), Mtilde(gamma_B), c, s = cosh, sinh(r) (I) or
    cos, sin(theta) (II), P = c^2 s^2 and t = x'^2 + x'^-2.  Then
        a1 b1 = c^4 A^2 + s^4 B^2 + P t A B,
        a3 b3 = s^4 A^2 + c^4 B^2 + P t A B,
        a1 a3 = P x'^2 A^2 + (c^4 + s^4) A B + P B^2 / x'^2,
        b1 b3 = P A^2 / x'^2 + (c^4 + s^4) A B + P x'^2 B^2,
        a2^2 = P (x' A +- B / x')^2,  b2^2 = P (A / x' +- x' B)^2
    (+ for I, - for II); a2 b2 < 0 in type I, and in type II once x'^2
    exceeds both A / B and B / A.  The border equality reads
    P t = K -+ P (gamma_A^2 + gamma_B^2) / (gamma_A gamma_B), with
    K = (2 gamma_A^2 - 1/2)(2 gamma_B^2 - 1/2) / (4 gamma_A gamma_B).
    As r -> 0 (I) or theta -> 0 (II), P -> 0 and
    x' -> oo with P x'^2 -> K, so every product above tends, with an
    error O(P) = O(r^2) or O(theta^2), to
        M1^2 = A^2 + K A B,  M3^2 = B^2 + K A B,
        y0^4 = (K A^2 + A B) / (A B + K B^2),
        Ms2^2 = K A^2 / y0^2,  Ms4^2 = K B^2 y0^2,  Ms2 Ms4 < 0:
    the folded M of type III.  At theta = pi/4,
    c = s, so a1 = a3 and b1 = b3, and the type II point with
    t = (4 K gamma_A gamma_B + gamma_A^2 + gamma_B^2) / (gamma_A gamma_B)
    folds to the type IV point.  So a type III or IV minimum is a limit
    or a point of the type I and II searches, and lies below both of
    theirs by roundoff at most."""
    if (gb if gb < ga else ga) <= 0.5 + PURITY_EPS:
        return "border gamma too close to 1/2"
    mta, mtb = float(em_spectrum(ga)), float(em_spectrum(gb))
    try:
        if label == "I" or label == "II":
            x = x_prime
            # X Mtilde X is diagonal; G^T (.) G mixes it within each block
            d0, d1, d2, d3 = x * mta, mtb / x, mta / x, x * mtb
            if label == "I":
                ch, sh = math.cosh(shape), math.sinh(shape)
                blocks = (
                    ch * ch * d0 + sh * sh * d1,
                    ch * sh * (d0 + d1),
                    sh * sh * d0 + ch * ch * d1,
                    ch * ch * d2 + sh * sh * d3,
                    -ch * sh * (d2 + d3),
                    sh * sh * d2 + ch * ch * d3,
                )
            else:
                c, s = math.cos(shape), math.sin(shape)
                blocks = (
                    c * c * d0 + s * s * d1,
                    c * s * (d0 - d1),
                    s * s * d0 + c * c * d1,
                    c * c * d2 + s * s * d3,
                    c * s * (d2 - d3),
                    s * s * d2 + c * c * d3,
                )
        elif label == "III":
            delta = (ga**2 - 0.25) * (gb**2 - 0.25)
            blocks = _congruence_blocks(
                (1.0 + delta / ga**2) ** 0.25,
                0.0,
                (delta**2 / (ga**2 * (gb**2 + delta))) ** 0.25,
                (gb**2 / (gb**2 + delta)) ** 0.25,
                mta, mtb,
            )
        else:
            s1 = (4.0 * ga**2 * (4.0 * gb**2 + 1.0) / (4.0 * ga**2 + 1.0)) ** 0.25
            s2 = ((4.0 * gb**2 + 1.0) / (4.0 * gb**2 * (4.0 * ga**2 + 1.0))) ** 0.25
            w = 1.0 / math.sqrt(2.0)
            blocks = _congruence_blocks(s1 * w, s2 * w, s1 * w, -s2 * w, mta, mtb)
    except OverflowError:
        return _OVERFLOW
    # the diagonals are sums of non-negative terms that bound the
    # off-diagonals, so an inf or NaN anywhere shows in their sum
    if not blocks[0] + blocks[2] + blocks[3] + blocks[5] < math.inf:
        return _OVERFLOW
    return blocks


def border_em(params: BorderParams) -> np.ndarray:
    """Exponential matrix of the border state described by params.

    Types I/II are the congruence G^T X(x') Mtilde X(x') G with the
    two-mode squeeze (I) or rotation (II) G; types III/IV use the
    closed-form S_q matrices with delta = (gamma_A^2 - 1/4)(gamma_B^2 - 1/4).
    Every family is assembled from closed-form 2x2 blocks.

    Args:
        params: family point; gammas must be strictly mixed.

    Returns:
        Symmetric positive-definite 4x4 EM whose state lies on the
        separable border.

    Raises:
        ValidationError: an unknown label, a shape that is not finite,
            a type III or IV shape other than 0.0, or a missing x' for
            types I/II.
        NumericalGuardError: a gamma within PURITY_EPS of 1/2, or a
            parameter that overflows double precision.
    """
    label, ga, gb, shape, x_prime = params
    if label not in _TYPE_ORDER:
        raise ValidationError("unknown border type %r" % (label,))
    if not math.isfinite(shape):
        raise ValidationError("shape parameter must be finite")
    if label in ("I", "II"):
        if not x_prime > 0:
            raise ValidationError("x_prime must be precomputed for types I/II")
    elif shape != 0.0:
        raise ValidationError("types III and IV take shape 0.0, got %r" % (shape,))
    blocks = _family_blocks(label, ga, gb, shape, x_prime)
    if isinstance(blocks, str):
        raise NumericalGuardError(blocks)
    return _qp_block_matrix(*blocks)


def _strip_blocks(a1: float, a2: float, a3: float, b1: float, b2: float, b3: float):
    """xy_strip's (M1, Ms2, M3, Ms4) from the six blocks, or as a str the
    reason there is none."""
    # min(a1, a3, b1, b3), with the builtin's result on NaN
    low = a3 if a3 < a1 else a1
    low = b1 if b1 < low else low
    if (b3 if b3 < low else low) <= 0:
        return "EM diagonal is not positive"
    y0 = (a1 * a3 / (b1 * b3)) ** 0.25
    return math.sqrt(a1 * b1), a2 / y0, math.sqrt(a3 * b3), b2 * y0


def xy_strip(m: np.ndarray) -> Tuple[float, float, float, float]:
    """Remove the X(x)Y(y) freedom from a q-p decorrelated EM.

    Returns the canonical parameters (M1, Ms2, M3, Ms4) of the EM with
    equal per-mode diagonals in the q and p blocks; the input is
    X(x0)Y(y0)-congruent to that canonical form.

    Args:
        m: symmetric 4x4 EM with vanishing q-p cross block.

    Raises:
        NumericalGuardError: a diagonal entry is not positive.
    """
    m = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.max(np.abs(m))))
    if m.shape != (4, 4) or float(np.max(np.abs(m - m.T))) > 1e-10 * scale:
        raise ValidationError("expected a symmetric 4x4 EM")
    if float(np.max(np.abs(m[:2, 2:]))) > 1e-10 * scale:
        raise ValidationError("EM has q-p correlations; strip is undefined")
    strip = _strip_blocks(m[0, 0], m[0, 1], m[1, 1], m[2, 2], m[2, 3], m[3, 3])
    if isinstance(strip, str):
        raise NumericalGuardError(strip)
    return strip


def fold_cross_terms(ms2: float, ms4: float) -> Tuple[float, float]:
    """Sign-fold the canonical off-diagonals:
    M2 = -(|Ms2+Ms4| + |Ms2-Ms4|)/2, M4 = -(|Ms2+Ms4| - |Ms2-Ms4|)/2,
    i.e. M2 = -max(|Ms2|, |Ms4|) and M4 = -sign(Ms2 Ms4) min(|Ms2|, |Ms4|),
    the orientation that minimizes the trace term against a standard-form
    CM with alpha2 > 0 > alpha4."""
    plus = abs(ms2 + ms4)
    minus = abs(ms2 - ms4)
    return -0.5 * (plus + minus), -0.5 * (plus - minus)


def minimize(
    fun: Callable[[Tuple[float, ...]], float],
    x0: Sequence[float],
    simplex: Sequence[Sequence[float]],
    fatol: float,
    xatol: float,
    maxiter: int,
) -> SimplexResult:
    """Nelder-Mead minimum of fun from the initial simplex [x0, *simplex].

    The non-adaptive method of scipy.optimize, step for step, on tuples
    of floats: reflection 1, expansion 2, contraction 1/2 (outside when
    the reflected value beats the worst vertex, inside otherwise) and
    shrink 1/2 towards the best vertex; the centroid of the N best
    vertices is summed in rank order.  Vertices are ranked by Python's
    stable sort (a step that replaces only the worst vertex inserts the
    new one where that sort would put it), so vertices of equal value
    keep their order and a tie resolves the same way on every machine.
    The search stops once every vertex lies within xatol of the best in
    every coordinate and within fatol of it in value, or once nit
    reaches maxiter.

    Args:
        fun: objective on a tuple of floats; +inf marks points outside
            its domain.  It must not return NaN, which has no rank.
        x0: first vertex of the initial simplex.
        simplex: the other N vertices.
        fatol, xatol: value and coordinate tolerances of the stop test.
        maxiter: cap on nit.
    """
    n = len(x0)
    start = [tuple(map(float, x0))] + [tuple(map(float, v)) for v in simplex]
    if len(start) != n + 1 or any(len(v) != n for v in start):
        raise ValidationError("the initial simplex needs N + 1 vertices of length N")
    verts = [(fun(v), v) for v in start]
    verts.sort(key=_VALUE)
    nit = 1
    while nit < maxiter:
        f_best, best = verts[0]
        f_worst, worst = verts[-1]
        # the vertices are sorted, so every value lies within fatol of the
        # best exactly when the worst does
        if abs(f_best - f_worst) <= fatol and all(
            abs(c - b) <= xatol for _, v in verts[1:] for c, b in zip(v, best)
        ):
            break
        # coordinate-wise maps over operator functions: per coordinate
        # (best + v1) + v2 ... then / n, 2c - w and so on, the same float
        # operations in the same order as the written-out expressions
        centroid = best
        for _, v in verts[1:n]:
            centroid = map(add, centroid, v)
        centroid = list(map(truediv, centroid, repeat(n)))
        xr = tuple(map(sub, map(_TWICE, centroid), worst))
        fxr = fun(xr)
        replacement = None
        if fxr < f_best:
            xe = tuple(map(sub, map(_THRICE, centroid), map(_TWICE, worst)))
            fxe = fun(xe)
            replacement = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < verts[-2][0]:
            replacement = (fxr, xr)
        elif fxr < f_worst:
            xc = tuple(map(sub, map(_THREE_HALVES, centroid), map(_HALF, worst)))
            fxc = fun(xc)
            if fxc <= fxr:
                replacement = (fxc, xc)
        else:
            xcc = tuple(map(add, map(_HALF, centroid), map(_HALF, worst)))
            fxcc = fun(xcc)
            if fxcc < f_worst:
                replacement = (fxcc, xcc)
        nit += 1
        if replacement is None:
            # shrink towards the best vertex: b + (c - b) / 2 per coordinate
            for j in range(1, n + 1):
                v = tuple(map(add, best, map(_HALF, map(sub, verts[j][1], best))))
                verts[j] = (fun(v), v)
            verts.sort(key=_VALUE)
        else:
            # the other vertices stay sorted: the new one goes where a
            # stable sort puts it, after every vertex of no greater value
            del verts[-1]
            insort(verts, replacement, key=_VALUE)
    f_best, best = verts[0]
    return SimplexResult(x=best, fun=f_best, nit=nit)


def _inner_core(
    a1: float, a2: float, a3: float, a4: float,
    m1: float, m2: float, m3: float, m4: float,
):
    """Float core of inner_minimize: the minimizing x and the trace
    factors P and Q there, or as a str the reason (a trace factor that
    is non-positive on the bracket) there is no minimum.

    Raises:
        ValidationError: non-positive diagonal parameters, or alpha
            without the standard-form signs.
    """
    sqrt = math.sqrt
    # conditional expressions stand in for min and max, with the same
    # result on NaN and inf: min(a, b) is b only when b < a
    if (a3 if a3 < a1 else a1) <= 0 or (m3 if m3 < m1 else m1) <= 0:
        raise ValidationError("diagonal parameters must be positive")
    if not (a2 > 0 > a4):
        raise ValidationError("expected the standard-form signs alpha2 > 0 > alpha4")
    p_c = a1 * m1
    q_c = a3 * m3
    s_c = 2.0 * a2 * m2
    t_c = 2.0 * a4 * m4

    # P and Q are convex in x: each is smallest at its vertex, clipped
    # to the bracket
    x_p = sqrt(q_c / p_c)
    x_p = _X_LO if _X_LO > x_p else x_p
    x_p = _X_HI if _X_HI < x_p else x_p
    x_q = sqrt(p_c / q_c)
    x_q = _X_LO if _X_LO > x_q else x_q
    x_q = _X_HI if _X_HI < x_q else x_q
    if p_c * x_p + q_c / x_p + s_c <= 0.0 or p_c / x_q + q_c * x_q + t_c <= 0.0:
        return "trace factor non-positive on the x bracket"

    pq2 = 2.0 * p_c * q_c
    k = 0.5 * (p_c + q_c) * (s_c + t_c)
    h = 0.5 * (p_c - q_c) * (t_c - s_c)
    # |k z / sqrt(z^2 + 4)| < |k| confines every root to [z_min, z_max]
    z_min = (-h - abs(k)) / pq2
    z_min = z_min if z_min > _Z_LO else _Z_LO
    z_max = (-h + abs(k)) / pq2
    z_max = z_max if z_max < _Z_HI else _Z_HI
    if pq2 + 0.5 * k >= 0.0:
        stretches = ((z_min, z_max),)
    else:
        z_c = sqrt((-4.0 * k / pq2) ** (2.0 / 3.0) - 4.0)
        stretches = ((z_min, -z_c if -z_c < z_max else z_max),
                     (z_c if z_c > z_min else z_min, z_max))

    x_opt = _X_LO
    p_opt, q_opt = p_c * _X_LO + q_c / _X_LO + s_c, p_c / _X_LO + q_c * _X_LO + t_c
    candidates = [_X_HI]
    for a, b in stretches:
        if not (
            a < b
            and pq2 * a + k * a / sqrt(a * a + 4.0) + h < 0.0
            < pq2 * b + k * b / sqrt(b * b + 4.0) + h
        ):
            continue
        # g(z) = 2pq z + k z / sqrt(z^2 + 4) + h increases from g(a) < 0
        # to g(b) > 0: Newton steps, bisecting whenever one leaves [a, b]
        z = 0.5 * (a + b)
        for _ in range(200):
            zz4 = z * z + 4.0
            gz = pq2 * z + k * z / sqrt(zz4) + h
            if gz == 0.0:
                break
            if gz < 0.0:
                a = z
            else:
                b = z
            slope = pq2 + 4.0 * k / zz4 ** 1.5
            step = gz / slope if slope > 0.0 else math.inf
            z_new = z - step
            if not a < z_new < b:
                z_new = 0.5 * (a + b)
                if not a < z_new < b:
                    break
            elif abs(step) <= 1e-15 * (1.0 + abs(z)):
                z = z_new
                break
            z = z_new
        w = sqrt(z * z + 4.0)
        candidates.append(0.5 * (z + w) if z >= 0.0 else 2.0 / (w - z))
    # strict <: of equal products the first candidate wins
    for x in candidates:
        p, q = p_c * x + q_c / x + s_c, p_c / x + q_c * x + t_c
        if p * q < p_opt * q_opt:
            x_opt, p_opt, q_opt = x, p, q
    return x_opt, p_opt, q_opt


def inner_minimize(
    alpha_sf: Sequence[float], m_std: Sequence[float]
) -> InnerMinState:
    """Minimize (1/2) Tr(alpha M(x, y)) over the local squeezes x, y > 0.

    With P(x) = a1 M1 x + a3 M3 / x + 2 a2 M2 and
    Q(x) = a1 M1 / x + a3 M3 x + 2 a4 M4, the y minimization is closed
    form: min_y (y P + Q/y)/2 = sqrt(P Q) at y = sqrt(Q/P).  The minimum
    of P Q over log x in [-6, 6] lies at an end of that bracket or at a
    root of the stationarity quartic
    2pq x^4 + (pt + qs) x^3 - (ps + qt) x - 2pq = 0, with p = a1 M1,
    q = a3 M3, s = 2 a2 M2 and t = 2 a4 M4.  In z = x - 1/x the quartic
    reads g(z) = 2pq z + k z / sqrt(z^2 + 4) + h = 0, with
    k = (p + q)(s + t)/2 and h = (p - q)(t - s)/2.  g increases
    everywhere unless k < -4pq, and then everywhere but on one central
    stretch, so the minima are the roots on the increasing stretches,
    each found by a safeguarded Newton iteration.  The border search
    calls the float core of this function directly.

    Args:
        alpha_sf: rho's standard-form parameters (a1, a2, a3, a4) with
            a2 > 0 > a4.
        m_std: folded EM parameters (M1, M2, M3, M4).

    Raises:
        NumericalGuardError: P or Q is non-positive somewhere on the
            bracket, so the M parameters cannot be a positive-definite
            EM (there the trace would run down to 0 at a wall).
    """
    a1, a2, a3, a4 = (float(v) for v in alpha_sf)
    m1, m2, m3, m4 = (float(v) for v in m_std)
    core = _inner_core(a1, a2, a3, a4, m1, m2, m3, m4)
    if isinstance(core, str):
        raise NumericalGuardError(core)
    x_opt, p, q = core
    return InnerMinState(
        alpha_sf=(a1, a2, a3, a4),
        m_std=(m1, m2, m3, m4),
        x_opt=x_opt,
        y_opt=math.sqrt(q / p),
        half_trace=math.sqrt(p * q),
    )


def _squeeze_xy(x: float, y: float) -> np.ndarray:
    return np.diag(
        [
            math.sqrt(x * y),
            math.sqrt(y / x),
            1.0 / math.sqrt(x * y),
            math.sqrt(x / y),
        ]
    )


def _self_term(gammas_rho: np.ndarray) -> float:
    return -bosonic_entropy_sum(gammas_rho - 0.5)


def _neg_log_c(gamma_a: float, gamma_b: float) -> float:
    return 0.5 * (math.log(gamma_a**2 - 0.25) + math.log(gamma_b**2 - 0.25))


def _infeasible(tally: list) -> float:
    """Count an infeasible family point and score it inf."""
    tally[1] += 1
    return math.inf


def _family_objective(
    tally: list, alpha: Tuple[float, float, float, float], self_term: float,
    label: str, v: Tuple[float, ...],
) -> float:
    """The border-search objective of one family, on plain floats.

    v is (u_A, u_B, shape) for types I and II and (u_A, u_B) for types
    III and IV, whose shape is 0.0; the point is gamma = 1/2 + e^u for
    both modes (|u| <= 30, gap at least PURITY_FLOOR_GAP), and types I/II
    derive x' (at most X_PRIME_CAP).  Its border EM's blocks are stripped
    and folded, and the value is S(rho||sigma) = self_term - log c + the
    inner minimum of (1/2) Tr(alpha M) against rho's standard-form
    parameters alpha: the composition of border_x_prime, border_em,
    xy_strip, fold_cross_terms and inner_minimize, with inf where the
    point is outside the search domain or one of them has no result.
    tally counts the calls and the inf values; gree binds all but v with
    functools.partial.
    """
    tally[0] += 1
    ua, ub = v[0], v[1]
    if abs(ua) > 30.0 or abs(ub) > 30.0:
        return _infeasible(tally)
    gap_a, gap_b = math.exp(ua), math.exp(ub)
    if (gap_b if gap_b < gap_a else gap_a) < PURITY_FLOOR_GAP:
        return _infeasible(tally)
    ga, gb = 0.5 + gap_a, 0.5 + gap_b
    shape, x_prime = 0.0, 1.0
    if label == "I" or label == "II":
        shape = v[2]
        x_prime = _x_prime(label, ga, gb, shape)
        if isinstance(x_prime, str) or x_prime > X_PRIME_CAP:
            return _infeasible(tally)
    blocks = _family_blocks(label, ga, gb, shape, x_prime)
    if isinstance(blocks, str):
        return _infeasible(tally)
    strip = _strip_blocks(*blocks)
    if isinstance(strip, str):
        return _infeasible(tally)
    m1, ms2, m3, ms4 = strip
    m2, m4 = fold_cross_terms(ms2, ms4)
    core = _inner_core(*alpha, m1, m2, m3, m4)
    if isinstance(core, str):
        return _infeasible(tally)
    _, p, q = core
    value = self_term + _neg_log_c(ga, gb) + math.sqrt(p * q)
    if value == math.inf:
        tally[1] += 1
    return value


def _multistart(
    fun: Callable[[tuple], float], pool: Sequence[tuple], starts: int,
    fatol: float, xatol: float,
) -> Tuple[Tuple[float, Optional[tuple]], int, int]:
    """Multistart simplex minimum of fun over a seed pool.

    The pool is scored and sorted stably, best first; its first `starts`
    points (all of them when `starts` exceeds the pool) start simplices
    SIMPLEX_STEP wide.  The runs stop once two of them agree on the
    lowest minimum within fatol, after the last of those points, or
    before the first when even the best pool point is infeasible.

    Returns:
        ((value, x) of the best run, or (inf, None) when no run found a
        finite value), the starts run and their total iterations.
    """
    scores = [fun(p) for p in pool]
    order = sorted(range(len(pool)), key=scores.__getitem__)
    best, minima, nit = (math.inf, None), [], 0
    # the pool is sorted, so an infeasible best point means all are
    if math.isfinite(scores[order[0]]):
        for x0 in (pool[i] for i in order[:starts]):
            simplex = [
                tuple(c + SIMPLEX_STEP if j == k else c for j, c in enumerate(x0))
                for k in range(len(x0))
            ]
            res = minimize(fun, x0, simplex, fatol, xatol, 600)
            nit += res.nit
            minima.append(res.fun)
            if res.fun < best[0]:
                best = (res.fun, res.x)
            # a second start within fatol of the lowest minimum confirms it
            if len(minima) > 1 and sorted(minima)[1] - best[0] <= fatol:
                break
    return best, len(minima), nit


def _check_knobs(starts: int) -> None:
    """Reject a start cap that is not an integer of at least 1."""
    try:
        valid = index(starts) >= 1
    except TypeError:
        valid = False
    if not valid:
        raise ValidationError("starts must be an integer of at least 1, got %r" % (starts,))


def _entry(alpha_rho: np.ndarray) -> Tuple[np.ndarray, Optional[GreeResult]]:
    """rho's symplectic eigenvalues, with the GREE result 0 when rho is
    separable (None otherwise)."""
    gammas = check_physical(alpha_rho)
    separable, residual = is_separable(alpha_rho)
    if not separable:
        return gammas, None
    try:
        best_em = cm_to_em(alpha_rho) if gammas[-1] > 0.5 + PURITY_EPS else None
    except NumericalGuardError:
        best_em = None
    return gammas, GreeResult(
        value=0.0,
        label=None,
        params=None,
        best_em=best_em,
        diagnostics={"separable": True, "rho_border_residual": residual},
    )


def gree(
    alpha_rho: np.ndarray,
    starts: int = 32,
    families: Optional[Sequence[str]] = None,
) -> GreeResult:
    """GREE of a two-mode Gaussian state by search over border families.

    Separable input returns 0 immediately.  Otherwise the state is put in
    standard form and, for each selected family (I, II by default; III
    and IV on request), simplex searches run over (gamma_A, gamma_B) plus
    the shape of types I and II, each candidate completed by the inner
    x/y minimization.  Types III and IV are faces of types I and II: type
    III is the r -> 0 face of type I and the theta -> 0 face of type II,
    and type IV is type II at theta = pi/4 (derived at `_family_blocks`).
    So they never beat I and II by more than roundoff, and the tie rule below gives the
    same result with or without them; name them in `families` for their
    per-type minima.  The starts are the family's seed-grid points (100
    for types I and II, 25 for the others), best first; a family stops once
    two starts reach the same lowest minimum within SEARCH_FATOL, after
    `starts` starts or the whole grid, or at once when even its best seed
    point is infeasible.  Family minima within TIE_TOL of the lowest count as
    tied, and the first of them in type order
    I < II < III < IV gives the label, the value and the minimizing EM,
    so the label does not depend on roundoff or on the start count.

    Args:
        alpha_rho: physical two-mode CM.
        starts: cap on the simplex starts per family search, an integer
            of at least 1.
        families: a sequence of labels to search (default ("I", "II"));
            a bare string is rejected.

    Returns:
        GreeResult with the value in nats, the winning family, its
        parameters, the minimizing EM transformed back to the input
        frame, and diagnostics: per-family minima, the tied families,
        the starts run per family, the simplex iterations, and per
        family the objective calls (seed pool plus simplex) and how many
        of them returned inf (`evaluations`).
    """
    alpha_rho = np.asarray(alpha_rho, dtype=float)
    if families is None:
        selected = ("I", "II")
    else:
        selected = tuple(families)
        bad = set(selected) - set(_TYPE_ORDER)
        if isinstance(families, str) or bad or not selected:
            raise ValidationError("families must be a nonempty sequence of labels I..IV")
    _check_knobs(starts)
    gammas_rho, zero = _entry(alpha_rho)
    if zero is not None:
        return zero

    sf = standard_form(alpha_rho)
    alpha_params = (float(sf.a), float(sf.c1), float(sf.b), -float(sf.c2))
    self_term = _self_term(gammas_rho)

    u_anchor = [math.log(max(g - 0.5, 1e-4)) for g in gammas_rho]
    u_grid = [-2.3, -0.7, 0.3, 1.2]
    shape_grid = [0.15, 0.4, 0.8, 1.3]

    per_type: dict = {}
    found: dict = {}  # label -> (value, params, inner), in type order
    starts_run: dict = {}
    evaluations: dict = {}
    total_iters = 0

    for label in (t for t in _TYPE_ORDER if t in selected):
        with_shape = label == "I" or label == "II"
        tally = [0, 0]  # objective calls, and how many returned inf
        fun = partial(_family_objective, tally, alpha_params, self_term, label)
        tails = [(sh,) for sh in shape_grid] if with_shape else [()]
        pool = [(ua, ub) + tail for ua in u_anchor[:1] + u_grid
                for ub in u_anchor[1:] + u_grid for tail in tails]
        (best, v), starts_run[label], nit = _multistart(fun, pool, starts, SEARCH_FATOL, 1e-8)
        total_iters += nit
        evaluations[label] = {"calls": tally[0], "inf": tally[1]}
        per_type[label] = best
        if math.isfinite(best):
            # the best point through the public functions, whose
            # composition is the objective's: its value is `best`
            ga, gb = 0.5 + math.exp(v[0]), 0.5 + math.exp(v[1])
            shape = v[2] if with_shape else 0.0
            x_prime = border_x_prime(label, ga, gb, shape) if with_shape else 1.0
            params = BorderParams(label, ga, gb, shape, x_prime)
            m1, ms2, m3, ms4 = xy_strip(border_em(params))
            m2, m4 = fold_cross_terms(ms2, ms4)
            found[label] = best, params, inner_minimize(alpha_params, (m1, m2, m3, m4))

    if not found:
        raise SearchFailureError(
            "no feasible border candidate in any family; per-type minima %r"
            % (per_type,)
        )

    lowest = min(entry[0] for entry in found.values())
    tied = [label for label, entry in found.items() if entry[0] <= lowest + TIE_TOL]
    value, params, inner = found[tied[0]]
    m1, m2, m3, m4 = inner.m_std
    m_fold = _qp_block_matrix(m1, m2, m3, m1, m4, m3)
    xy = _squeeze_xy(inner.x_opt, inner.y_opt)
    m_best_std = xy @ m_fold @ xy
    best_em = sf.local.T @ m_best_std @ sf.local
    return _border_result(value, params, best_em, {
        "per_type": per_type,
        "tied_families": tied,
        "starts": starts_run,
        "iterations": total_iters,
        "evaluations": evaluations,
        "rho_type": classify(sf).label,
    })


def _border_result(
    value: float, params: BorderParams, best_em: np.ndarray, diagnostics: dict
) -> GreeResult:
    """The GREE result of an inseparable state whose minimizing border
    point params has the EM best_em; the route's diagnostics go between
    `separable` and the border residual of best_em."""
    _, border_residual = is_separable(em_to_cm(best_em))
    return GreeResult(
        value=clamp_negative(value, "GREE"),
        label=params.label,
        params=params,
        best_em=best_em,
        diagnostics={"separable": False, **diagnostics, "border_residual": border_residual},
    )


def _symmetric_w(p: SymmetricParams):
    """The two-variable border objective W(log Mt_A, log Mt_B) for a
    symmetric state, and its no-square-root alternative reading."""
    c_a = (p.m + p.kq) * (p.m - p.kp)
    c_b = (p.m - p.kq) * (p.m + p.kp)
    c_c = (p.m - p.kq) * (p.m - p.kp)
    c_t = (p.m + p.kq) * (p.m + p.kp)

    def bracket(ta, tb):
        return (
            c_a * ta * ta
            + c_b * tb * tb
            + c_c * ta * tb * _coth(0.5 * ta) * _coth(0.5 * tb)
            + c_t * ta * tb * math.tanh(0.5 * ta) * math.tanh(0.5 * tb)
        )

    def w(v):
        if abs(v[0]) > 6.0 or abs(v[1]) > 6.0:
            return math.inf
        ta, tb = math.exp(v[0]), math.exp(v[1])
        logs = math.log(2.0 * math.sinh(0.5 * ta)) + math.log(2.0 * math.sinh(0.5 * tb))
        return -logs + 0.5 * math.sqrt(bracket(ta, tb))

    def w_alt(v):
        ta, tb = math.exp(v[0]), math.exp(v[1])
        logs = math.log(2.0 * math.sinh(0.5 * ta)) + math.log(2.0 * math.sinh(0.5 * tb))
        return -logs + 0.5 * bracket(ta, tb)

    return w, w_alt


def _symmetric_result(
    p: SymmetricParams, gammas_rho: np.ndarray, w_min: float, ta: float, tb: float, diagnostics: dict
) -> GreeResult:
    """The GREE result of a closed route for the state p whose minimum
    w_min of W lies at the EM eigenvalues (ta, tb).  The minimizer is the
    type IV border point of gamma = (1/2) coth(Mt/2) under the local
    squeeze Y(y) that W eliminates in closed form.  The route's
    diagnostics follow per_type."""
    gamma_a, gamma_b = (float(g) for g in gamma_of_em_spectrum(np.array([ta, tb])))
    params = BorderParams("IV", gamma_a, gamma_b, 0.0, 1.0)
    m_iv = border_em(params)
    # (1/2) Tr(alpha_rho Y M Y) = (y t_q + t_p / y) / 4 is least at y = sqrt(t_p / t_q)
    t_q = p.m * (m_iv[0, 0] + m_iv[1, 1]) + 2.0 * p.kq * m_iv[0, 1]
    t_p = p.m * (m_iv[2, 2] + m_iv[3, 3]) - 2.0 * p.kp * m_iv[2, 3]
    y = _squeeze_xy(1.0, math.sqrt(t_p / t_q))
    value = clamp_negative(_self_term(gammas_rho) + w_min, "GREE")
    return _border_result(value, params, y @ m_iv @ y, {"per_type": {"IV": value}, **diagnostics})


def gree_symmetric(p: SymmetricParams, starts: int = 8) -> GreeResult:
    """GREE of a symmetric two-mode state by the two-variable border
    objective in (Mt_A, Mt_B); the minimizer is the type IV border point
    under a local squeeze Y(y) common to both modes, and needs no x
    squeeze (x = 1).

    Args:
        p: symmetric-state parameters (m, kq, kp).
        starts: cap on the simplex starts, seeded from a coarse grid of
            16 or 17 points (a cap beyond it runs the grid); they stop
            once two agree within 1e-12, and diagnostics["starts"]
            counts the starts run.
    """
    _check_knobs(starts)
    gammas_rho, zero = _entry(symmetric_cm(p))
    if zero is not None:
        return zero

    w, w_alt = _symmetric_w(p)
    grid = [-1.5, -0.5, 0.5, 1.5]
    pool = [(ua, ub) for ua in grid for ub in grid]
    if gammas_rho[-1] > 0.5 + PURITY_EPS:
        mt_rho = em_spectrum(gammas_rho)
        pool.insert(0, (math.log(mt_rho[0]), math.log(mt_rho[1])))
    (best_w, best_v), runs, iters = _multistart(w, pool, starts, 1e-12, 1e-10)
    if not math.isfinite(best_w):
        raise SearchFailureError("symmetric border search failed")
    diagnostics = {"starts": runs, "iterations": iters,
                   "alt_reading_residual": abs(w_alt(best_v) - best_w)}
    ta, tb = math.exp(best_v[0]), math.exp(best_v[1])
    return _symmetric_result(p, gammas_rho, best_w, ta, tb, diagnostics)


def gree_tmst(m: float, k: float) -> GreeResult:
    """GREE of a two-mode squeezed thermal state (kq = kp = k): the
    symmetric objective W on its diagonal Mt_A = Mt_B = Mt, where it reads
    f(Mt) = -2 log(2 sinh(Mt/2)) + (Mt/2) [(m-k) coth(Mt/2) + (m+k) tanh(Mt/2)],
    minimized over log Mt in [-6, 6] from the best of 49 grid points.

    Args:
        m, k: TMST parameters; inseparable exactly when m - |k| < 1.
    """
    p = SymmetricParams(m=float(m), kq=float(k), kp=float(k))
    gammas_rho, zero = _entry(symmetric_cm(p))
    if zero is not None:
        return zero

    w, _ = _symmetric_w(p)
    grid = [(-6.0 + 0.25 * j,) for j in range(49)]
    (best_w, best_v), _, _ = _multistart(lambda v: w((v[0], v[0])), grid, 1, 1e-12, 1e-10)
    t_opt = math.exp(best_v[0])
    return _symmetric_result(p, gammas_rho, best_w, t_opt, t_opt, {"minimizer_mtilde": t_opt})
