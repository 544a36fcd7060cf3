"""Gaussian-state representations and transforms.

Correlation matrices (CM, second moments with vacuum variance 1/2) and
exponential matrices (EM, the matrix M of rho ~ exp(-1/2 F^T M F)) are plain
real symmetric 2n x 2n arrays in (q1..qn, p1..pn) ordering.  This module
converts between them, evaluates entropies, and provides the two-mode
standard form, classification, and separability tests.
"""

import math
from typing import NamedTuple, Tuple

import numpy as np

from .errors import NumericalGuardError, ValidationError
from .symplectic import (
    _check_symmetric,
    _embed,
    _frame,
    _symplectic_spectrum,
    symplectic_form,
    williamson,
)

# gamma_j must exceed 1/2 by at least this much before an EM exists
PURITY_EPS = 1e-9
# physicality slack on the uncertainty bound gamma_j >= 1/2
PHYSICAL_TOL = 1e-10
# a = b test and ratio comparisons in classify
CLASSIFY_TOL = 1e-9
# below this relative gap (D^2 - 4 det alpha) / D^2 the closed-form two-mode
# spectrum has lost about sqrt(eps), and the eigensolver decides instead
CLOSED_FORM_GAP = 1e-6


class StandardForm(NamedTuple):
    """Two-mode standard form: alpha_q = [[a, c1], [c1, b]],
    alpha_p = [[a, -c2], [-c2, b]], and the local symplectic with
    standard_cm = local @ alpha @ local.T."""

    a: float
    b: float
    c1: float
    c2: float
    local: np.ndarray


class TypeLabel(NamedTuple):
    """Classification label I/II/III/IV with the diagnostic ratio
    (a/b + b/a) / (c1/c2 + c2/c1)."""

    label: str
    ratio: float


def bosonic_entropy(x: float) -> float:
    """g(x) = (x+1)log(x+1) - x log x in nats, with g(0) = 0.

    Args:
        x: mean occupancy, x >= 0.
    """
    if x < 0:
        raise ValidationError("bosonic entropy needs a non-negative argument")
    if x == 0:
        return 0.0
    return (x + 1.0) * math.log1p(x) - x * math.log(x)


def bosonic_entropy_sum(x: np.ndarray) -> float:
    """sum_j g(x_j) over occupancies x_j, each clamped at 0 from below."""
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    x = x[x != 0.0]
    return float(np.sum((x + 1.0) * np.log1p(x) - x * np.log(x)))


def check_physical(alpha: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of alpha after checking that alpha is positive
    definite (-alpha has the same symplectic spectrum) and gamma_j >= 1/2."""
    alpha = _check_symmetric(alpha)
    _check_positive_definite(alpha)
    gammas = _symplectic_spectrum(alpha)
    _check_uncertainty(gammas[-1])
    return gammas


def _check_positive_definite(matrix: np.ndarray, what: str = "CM") -> None:
    """Raise ValidationError unless matrix has a Cholesky factorisation."""
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise ValidationError("%s is not positive definite" % what) from None


def _check_uncertainty(gamma_min: float) -> None:
    """Raise ValidationError if gamma_min < 1/2 - PHYSICAL_TOL."""
    if gamma_min < 0.5 - PHYSICAL_TOL:
        raise ValidationError(
            "CM violates the uncertainty relation (min gamma = %.12g)" % gamma_min
        )


def von_neumann_entropy(alpha: np.ndarray) -> float:
    """Entropy sum_j g(gamma_j - 1/2) of the state with CM alpha, in nats."""
    return bosonic_entropy_sum(check_physical(alpha) - 0.5)


def em_spectrum(gammas: np.ndarray) -> np.ndarray:
    """EM symplectic eigenvalues log((2 gamma + 1) / (2 gamma - 1))."""
    return np.log((2.0 * gammas + 1.0) / (2.0 * gammas - 1.0))


def gamma_of_em_spectrum(mtilde: np.ndarray) -> np.ndarray:
    """Inverse map: gamma = (1/2) coth(mtilde / 2)."""
    return 0.5 / np.tanh(0.5 * np.asarray(mtilde))


def cm_to_em(alpha: np.ndarray) -> np.ndarray:
    """Exponential matrix M = (S^T)^-1 diag(Mtilde) S^-1 of the CM alpha.

    Mtilde_j = log((2 gamma_j + 1)/(2 gamma_j - 1)) diverges for pure
    directions, so strictly mixed input is required.

    Args:
        alpha: physical CM (else ValidationError) with all
            gamma_j >= 1/2 + 1e-9 (else NumericalGuardError).

    Returns:
        The EM, checked to commute with alpha in the symplectic sense
        (||M alpha Delta^-1 - Delta^-1 alpha M||_max <= 1e-8).
    """
    return _cm_to_em(alpha)[0]


def _cm_to_em(alpha: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """cm_to_em's EM together with alpha's symplectic eigenvalues, both from
    one Williamson decomposition of alpha."""
    alpha = np.asarray(alpha, dtype=float)
    _check_positive_definite(alpha)
    s, gammas = williamson(alpha)
    _check_uncertainty(gammas[-1])
    if gammas[-1] <= 0.5 + PURITY_EPS:
        raise NumericalGuardError(
            "pure direction: min gamma = %.12g, EM diverges" % gammas[-1]
        )
    m = _frame(np.linalg.inv(s).T, em_spectrum(gammas))
    dinv = -symplectic_form(alpha.shape[0] // 2)
    residual = float(np.max(np.abs(m @ alpha @ dinv - dinv @ alpha @ m)))
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(m)))):
        raise NumericalGuardError("commutation residual %.3e" % residual)
    return m, gammas


def _em_frame(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(S, gammas) of the state with EM m = (S^T)^-1 diag(Mtilde, Mtilde) S^-1,
    from one Williamson decomposition of m, with gamma = 1/2 coth(Mtilde/2);
    the state's CM is S diag(gamma, gamma) S^T.

    Raises:
        ValidationError: m is not symmetric positive definite.
    """
    _check_positive_definite(m, "EM")
    w = williamson(m)
    return np.linalg.inv(w.s).T, gamma_of_em_spectrum(w.gammas)


def em_to_cm(m: np.ndarray) -> np.ndarray:
    """CM alpha = S diag(1/2 coth(Mtilde/2)) S^T of the EM m.

    Args:
        m: symmetric positive-definite EM (else ValidationError).
    """
    return _frame(*_em_frame(m))


def normalization_log_c(gammas: np.ndarray) -> float:
    """log of the normalization c = prod 1/sqrt(gamma_j^2 - 1/4).

    Args:
        gammas: symplectic eigenvalues of the state, each > 1/2.
    """
    gammas = np.asarray(gammas, dtype=float)
    if np.any(gammas <= 0.5):
        raise NumericalGuardError("normalization needs all gamma > 1/2")
    return float(-0.5 * np.sum(np.log(gammas**2 - 0.25)))


def _mode_blocks(alpha: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-mode 2x2 blocks A, B and the cross block C in (q_i, p_i) order."""
    idx_a = np.ix_((0, 2), (0, 2))
    idx_b = np.ix_((1, 3), (1, 3))
    idx_c = np.ix_((0, 2), (1, 3))
    return alpha[idx_a], alpha[idx_b], alpha[idx_c]


def _embed_local(block_a: np.ndarray, block_b: np.ndarray) -> np.ndarray:
    """Embed per-mode 2x2 matrices (acting on (q_i, p_i)) into qqpp order."""
    return _embed(2, (((0, 2), block_a.ravel()), ((1, 3), block_b.ravel())))


def standard_form(alpha: np.ndarray) -> StandardForm:
    """Reduce a two-mode CM to its local-invariant standard form.

    One read of the local invariants det A, det B, det C and det alpha
    checks physicality (the closed-form verdict) and the parameters.  The
    explicit local symplectic is built from the per-mode Williamson
    reductions and the rotation pair that diagonalizes the cross block;
    a = sqrt(det A), b = sqrt(det B) and (c1, c2) come from the reduced
    cross block, ordered c1 >= |c2|; c1^2 and c2^2 must solve
    z^2 - s z + (det C)^2 with s = ((ab)^2 + (det C)^2 - det alpha)/(ab).

    Args:
        alpha: physical two-mode CM.

    Returns:
        StandardForm; the sign convention puts +c1 in alpha_q and -c2 in
        alpha_p, so c2 > 0 exactly when det C < 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (4, 4):
        raise ValidationError("standard form is defined for two-mode CMs")
    alpha, det_a, det_b, det_c, det_alpha = _local_invariants(alpha)
    _verdict(alpha, det_a, det_b, det_c, det_alpha)
    block_a, block_b, block_c = _mode_blocks(alpha)
    a, b = math.sqrt(det_a), math.sqrt(det_b)
    ab = a * b

    # explicit local symplectic: per-mode Williamson, then the rotation pair
    # from the SVD of the cross block (signs pushed into the second value);
    # the singular values are the well-conditioned source for c1 and |c2|
    # (the invariant solve below amplifies roundoff through a square root
    # whenever the state is close to a product state)
    l_a = np.sqrt(a) * _sqrtm_inv_2x2(block_a)
    l_b = np.sqrt(b) * _sqrtm_inv_2x2(block_b)
    local = _embed_local(l_a, l_b)
    cross = l_a @ block_c @ l_b.T
    u, sigma, vt = np.linalg.svd(cross)
    du, dv = np.linalg.det(u), np.linalg.det(vt.T)
    r1 = u @ np.diag([1.0, du])
    r2 = vt.T @ np.diag([1.0, dv])
    local = _embed_local(r1.T, r2.T) @ local
    c1 = float(sigma[0])
    # alpha_p off-diagonal is -c2, so c2 = -det C / c1 has the sign of -det C
    c2 = float(-du * dv * sigma[1])

    # local-invariant cross-check: c1^2 and c2^2 solve z^2 - s z + (det C)^2
    s = (ab * ab + det_c * det_c - det_alpha) / ab
    s_scale = (ab * ab + det_c * det_c + abs(det_alpha)) / ab
    if abs(c1 * c1 + c2 * c2 - s) > 1e-8 * max(1.0, s_scale):
        raise NumericalGuardError("standard-form parameters break the invariant solve")
    if abs(c1 * abs(c2) - abs(det_c)) > 1e-8 * max(1.0, abs(det_c)):
        raise NumericalGuardError("standard-form parameters break the invariant solve")

    std = local @ alpha @ local.T
    target = standard_cm(a, b, c1, c2)
    if float(np.max(np.abs(std - target))) > 1e-8 * max(1.0, float(np.max(np.abs(target)))):
        raise NumericalGuardError("standard-form reduction residual too large")
    return StandardForm(a=float(a), b=float(b), c1=float(c1), c2=float(c2), local=local)


def _sqrtm_inv_2x2(block: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive-definite 2x2 matrix."""
    w, v = np.linalg.eigh(block)
    if w[0] <= 0:
        raise ValidationError("mode block is not positive definite")
    return v / np.sqrt(w) @ v.T


def standard_cm(a: float, b: float, c1: float, c2: float) -> np.ndarray:
    """Assemble the standard-form CM from its four parameters."""
    return _qp_block_matrix(a, c1, b, a, -c2, b)


def classify(sf: StandardForm) -> TypeLabel:
    """Type I/II/III/IV from (a/b + b/a) versus (c1/c2 + c2/c1).

    Args:
        sf: standard form with c1, c2 > 0 (states with a non-positive c are
            separable outright and not classified).
    """
    if sf.c1 <= 0 or sf.c2 <= 0:
        raise ValidationError("classification needs c1, c2 > 0 (state is separable)")
    ratio = (sf.a / sf.b + sf.b / sf.a) / (sf.c1 / sf.c2 + sf.c2 / sf.c1)
    if abs(sf.a - sf.b) <= CLASSIFY_TOL * max(sf.a, sf.b):
        return TypeLabel(label="IV", ratio=float(ratio))
    if ratio > 1.0 + CLASSIFY_TOL:
        return TypeLabel(label="I", ratio=float(ratio))
    if ratio < 1.0 - CLASSIFY_TOL:
        return TypeLabel(label="II", ratio=float(ratio))
    return TypeLabel(label="III", ratio=float(ratio))


def _border_residual(det_a: float, det_b: float, det_c: float, det_alpha: float) -> float:
    """4 det alpha - det A - det B - 2 |det C| + 1/4: zero exactly on the
    separable/inseparable border, positive inside the separable set."""
    return 4.0 * det_alpha - det_a - det_b - 2.0 * abs(det_c) + 0.25


def border_residual(sf: StandardForm) -> float:
    """The border residual of a standard form, whose local invariants are
    det A = a^2, det B = b^2, det C = -c1 c2 and
    det alpha = (ab - c1^2)(ab - c2^2)."""
    ab = sf.a * sf.b
    return float(_border_residual(
        sf.a * sf.a, sf.b * sf.b, -sf.c1 * sf.c2,
        (ab - sf.c1 * sf.c1) * (ab - sf.c2 * sf.c2),
    ))


def _local_invariants(alpha: np.ndarray) -> Tuple[np.ndarray, float, float, float, float]:
    """The symmetrized two-mode CM with its det A, det B, det C and
    det alpha, read from its entries as plain floats.

    Raises:
        ValidationError: alpha is not a symmetric 4x4 matrix, or its
            leading 3x3 block is not positive definite (then neither is
            alpha; det alpha itself is checked by _verdict).
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (4, 4):
        raise ValidationError("separability test is defined for two-mode CMs")
    alpha = _check_symmetric(alpha)
    return (alpha,) + _row_invariants(alpha.tolist())


def _row_invariants(a: list) -> Tuple[float, float, float, float]:
    """det A, det B, det C and det alpha of a two-mode CM given as float
    rows that are symmetric by construction, with no shape or symmetry
    check.  Its leading 3x3 block is checked by its leading minors, which
    are all positive exactly when a Cholesky factorisation exists."""
    minor2 = a[0][0] * a[1][1] - a[0][1] * a[0][1]
    minor3 = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[1][2])
        - a[0][1] * (a[0][1] * a[2][2] - a[1][2] * a[0][2])
        + a[0][2] * (a[0][1] * a[1][2] - a[1][1] * a[0][2])
    )
    if not (a[0][0] > 0.0 and minor2 > 0.0 and minor3 > 0.0):
        raise ValidationError("CM is not positive definite")
    det_a = a[0][0] * a[2][2] - a[0][2] * a[0][2]
    det_b = a[1][1] * a[3][3] - a[1][3] * a[1][3]
    det_c = a[0][1] * a[2][3] - a[0][3] * a[1][2]
    return det_a, det_b, det_c, _det4(a)


def _ppt_verdict(alpha: np.ndarray) -> bool:
    """PPT verdict alone: is the partially transposed two-mode CM physical?

    Partial transposition flips the sign of the second mode's momentum.
    That leaves det A, det B and det alpha alone and flips det C, so both
    spectra follow from the local invariants: with
    D = det A + det B +- 2 det C (+ for alpha, - for its partial transpose),
    nu_+^2 = (D + sqrt(D^2 - 4 det alpha)) / 2 and
    nu_-^2 = det alpha / nu_+^2.  Where D^2 - 4 det alpha falls below
    CLOSED_FORM_GAP * D^2 the spectrum is (near-)degenerate and that route
    loses about sqrt(eps), so symplectic_eigenvalues decides there.

    Raises:
        ValidationError: alpha is not a symmetric 4x4 matrix, it is not
            positive definite, or it violates the uncertainty relation by
            more than PHYSICAL_TOL.
        NumericalGuardError: det alpha <= 0, or a spectrum that is not a
            set of +-i nu pairs.
    """
    return _verdict(*_local_invariants(alpha))


def _frame_verdict(a: list) -> bool:
    """_ppt_verdict of a two-mode CM given as float rows that are
    symmetric by construction, with no shape or symmetry check."""
    return _verdict(a, *_row_invariants(a))


def _verdict(alpha, det_a: float, det_b: float, det_c: float, det_alpha: float) -> bool:
    """_ppt_verdict on the output of _local_invariants; alpha is the CM as
    an array or as rows."""
    _check_uncertainty(_nu_minus(alpha, det_alpha, det_a + det_b + 2.0 * det_c, False))
    return _nu_minus(alpha, det_alpha, det_a + det_b - 2.0 * det_c, True) >= 0.5 - PHYSICAL_TOL


def _nu_minus(alpha, det_alpha: float, delta: float, flip: bool) -> float:
    """Smallest symplectic eigenvalue of the two-mode CM alpha (flip: of its
    partial transpose) from D = delta and det alpha, as in _ppt_verdict;
    alpha, an array or rows, is read only where the spectrum is
    (near-)degenerate."""
    if det_alpha <= 0.0:
        raise NumericalGuardError("CM has det alpha = %.12g <= 0" % det_alpha)
    disc = delta * delta - 4.0 * det_alpha
    if disc < CLOSED_FORM_GAP * delta * delta:
        cm = np.asarray(alpha, dtype=float)
        return float(_symplectic_spectrum(_partial_transpose(cm) if flip else cm)[-1])
    if delta <= 0.0:
        raise NumericalGuardError("symplectic spectrum is not a set of +-i nu pairs")
    return math.sqrt(det_alpha / (0.5 * (delta + math.sqrt(disc))))


def _pt_nu_minus(a: list) -> float:
    """_nu_minus of the partial transpose of a two-mode CM given as float
    rows that are symmetric by construction, with no slack and no
    uncertainty check."""
    det_a, det_b, det_c, det_alpha = _row_invariants(a)
    return _nu_minus(a, det_alpha, det_a + det_b - 2.0 * det_c, True)


def _partial_transpose(alpha: np.ndarray) -> np.ndarray:
    tilde = alpha.copy()
    tilde[3, :] = -tilde[3, :]
    tilde[:, 3] = -tilde[:, 3]
    return tilde


def _det4(a) -> float:
    """Determinant of a 4x4 matrix given as rows, by 2x2 minors."""
    (a00, a01, a02, a03), (a10, a11, a12, a13) = a[0], a[1]
    (a20, a21, a22, a23), (a30, a31, a32, a33) = a[2], a[3]
    return (
        (a00 * a11 - a10 * a01) * (a22 * a33 - a32 * a23)
        - (a00 * a12 - a10 * a02) * (a21 * a33 - a31 * a23)
        + (a00 * a13 - a10 * a03) * (a21 * a32 - a31 * a22)
        + (a01 * a12 - a11 * a02) * (a20 * a33 - a30 * a23)
        - (a01 * a13 - a11 * a03) * (a20 * a32 - a30 * a22)
        + (a02 * a13 - a12 * a03) * (a20 * a31 - a30 * a21)
    )


def is_separable(alpha: np.ndarray) -> Tuple[bool, float]:
    """PPT separability test for a two-mode CM, with the border residual.

    The state is separable iff the CM with the second mode's momentum
    flipped is still physical.  Both the verdict and the residual are read
    from the local invariants det A, det B, det C and det alpha, so no
    standard form is built.

    Returns:
        (verdict, residual) where residual is
        4 det alpha - det A - det B - 2 |det C| + 1/4, <= 1e-8 in magnitude
        exactly for border states.
    """
    invariants = _local_invariants(alpha)
    return _verdict(*invariants), _border_residual(*invariants[1:])


class SymmetricParams(NamedTuple):
    """Symmetric two-mode state: alpha_q = (1/2)[[m, kq], [kq, m]],
    alpha_p = (1/2)[[m, -kp], [-kp, m]]."""

    m: float
    kq: float
    kp: float


def symmetric_cm(p: SymmetricParams) -> np.ndarray:
    """CM of the symmetric state (vacuum variance 1/2 units)."""
    if not (p.m > 0 and abs(p.kq) < p.m and abs(p.kp) < p.m):
        raise ValidationError("symmetric parameters must satisfy m > 0, |k| < m")
    return 0.5 * standard_cm(p.m, p.m, p.kq, p.kp)


def symmetric_gammas(p: SymmetricParams) -> Tuple[float, float]:
    """Symplectic eigenvalues (1/2)sqrt((m +- kq)(m -+ kp))."""
    ga = 0.5 * np.sqrt((p.m + p.kq) * (p.m - p.kp))
    gb = 0.5 * np.sqrt((p.m - p.kq) * (p.m + p.kp))
    return float(ga), float(gb)


def symmetric_em(p: SymmetricParams) -> np.ndarray:
    """Closed-form EM of a symmetric state.

    Uses S_q = (1/sqrt 2)[[s1, s2], [s1, -s2]] with
    s1 = ((m+kq)/(m-kp))^(1/4), s2 = ((m-kq)/(m+kp))^(1/4) and
    M = (S^T)^-1 diag(Mtilde) S^-1, whose blocks are _congruence_blocks.

    Args:
        p: physical symmetric parameters with both gamma_j > 1/2.
    """
    if not (p.m > 0 and abs(p.kq) < p.m and abs(p.kp) < p.m):
        raise ValidationError("symmetric parameters must satisfy m > 0, |k| < m")
    ga, gb = symmetric_gammas(p)
    if min(ga, gb) <= 0.5 + PURITY_EPS:
        raise NumericalGuardError("pure direction: min gamma = %.12g" % min(ga, gb))
    s1 = ((p.m + p.kq) / (p.m - p.kp)) ** 0.25
    s2 = ((p.m - p.kq) / (p.m + p.kp)) ** 0.25
    w = 1.0 / math.sqrt(2.0)
    mta, mtb = em_spectrum(np.array([ga, gb]))
    return _qp_block_matrix(*_congruence_blocks(s1 * w, s2 * w, s1 * w, -s2 * w, mta, mtb))


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


def _qp_block_matrix(
    a1: float, a2: float, a3: float, b1: float, b2: float, b3: float
) -> np.ndarray:
    """The 4x4 matrix with q block [[a1, a2], [a2, a3]], p block
    [[b1, b2], [b2, b3]] and no q-p correlations."""
    return np.array(
        [
            [a1, a2, 0.0, 0.0],
            [a2, a3, 0.0, 0.0],
            [0.0, 0.0, b1, b2],
            [0.0, 0.0, b2, b3],
        ]
    )


def tmst_cm(m: float, k: float) -> np.ndarray:
    """CM of a two-mode squeezed thermal state (symmetric with kq = kp = k)."""
    return symmetric_cm(SymmetricParams(m=m, kq=k, kp=k))


def tmsv_cm(r: float) -> np.ndarray:
    """CM of the two-mode squeezed vacuum with squeeze parameter r."""
    return tmst_cm(float(np.cosh(2 * r)), float(np.sinh(2 * r)))
