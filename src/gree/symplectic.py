"""Real symplectic linear algebra in the (q1..qn, p1..pn) ordering.

Provides the canonical antisymmetric form Delta, elementary symplectic
generators, symplectic eigenvalues, and the Williamson decomposition
alpha = S diag(gamma, gamma) S^T used by all state transforms.
"""

import math
from typing import NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import NumericalGuardError, ValidationError

# relative tolerance for eigenvalue pair matching
PAIRING_RTOL = 1e-8


class WilliamsonResult(NamedTuple):
    """Symplectic diagonalization: s is symplectic, gammas descending,
    and alpha = s @ diag(gammas, gammas) @ s.T."""

    s: np.ndarray
    gammas: np.ndarray


_FORMS = {}


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n canonical form Delta = [[0, I], [-I, 0]].

    The array is built once per n and shared, so it is read-only.

    Args:
        n: mode count, n >= 1.
    """
    if n < 1:
        raise ValidationError("mode count must be >= 1")
    delta = _FORMS.get(n)
    if delta is None:
        eye = np.eye(n)
        zero = np.zeros((n, n))
        delta = np.block([[zero, eye], [-eye, zero]])
        delta.setflags(write=False)
        _FORMS[n] = delta
    return delta


def is_symplectic(s: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff ||S Delta S^T - Delta||_max <= tol."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 != 0:
        raise ValidationError("expected a square even-dimension matrix")
    delta = symplectic_form(s.shape[0] // 2)
    return float(np.max(np.abs(s @ delta @ s.T - delta))) <= tol


def _check_constructed(s: np.ndarray) -> np.ndarray:
    if not is_symplectic(s, tol=1e-10):
        raise NumericalGuardError("constructed matrix failed the symplectic check")
    return s


# -- the generator table (qqpp ordering, mode count n) -----------------------

def _rot(theta: float) -> Tuple[float, float, float, float]:
    c, s = math.cos(theta), math.sin(theta)
    return (c, s, -s, c)


def _sqz(r: float) -> Tuple[float, float, float, float]:
    ch, sh = math.cosh(r), math.sinh(r)
    return (ch, sh, sh, ch)


def _planes(n: int, kind: str, params: Tuple) -> Tuple:
    """The coordinate planes (a, b) a generator acts on, each with its 2x2
    block (t_aa, t_ab, t_ba, t_bb) as plain floats; every block has det 1.
    The local kinds take (i, value) and act on (q_i, p_i), local_squeeze
    as diag(s, 1/s); the pair kinds take (i, j, value)."""
    if kind == "local_rotation":
        i, theta = params
        return (((i, n + i), _rot(theta)),)
    if kind == "local_squeeze":
        i, s = params
        return (((i, n + i), (s, 0.0, 0.0, 1.0 / s)),)
    if kind == "rotation_qq":
        i, j, theta = params
        return (((i, j), _rot(theta)), ((n + i, n + j), _rot(theta)))
    if kind == "squeeze_qq":
        i, j, r = params
        return (((i, j), _sqz(r)), ((n + i, n + j), _sqz(-r)))
    if kind == "rotation_qp":
        i, j, theta = params
        return (((i, n + j), _rot(theta)), ((n + i, j), _rot(-theta)))
    if kind == "squeeze_qp":
        i, j, r = params
        return (((i, n + j), _sqz(r)), ((n + i, j), _sqz(r)))
    raise ValidationError("unknown transform kind %r" % (kind,))


def _embed(n: int, planes: Tuple) -> np.ndarray:
    """The 2n x 2n identity with each plane's block written in."""
    t = np.eye(2 * n)
    for (a, b), (t_aa, t_ab, t_ba, t_bb) in planes:
        t[a, a], t[a, b], t[b, a], t[b, b] = t_aa, t_ab, t_ba, t_bb
    return t


# elementary_transform's two-mode kinds: two_mode_<kind> is the table's <kind>
_TWO_MODE_KINDS = (
    "two_mode_rotation_qq", "two_mode_squeeze_qq", "two_mode_rotation_qp", "two_mode_squeeze_qp"
)


def _local_pair(kind: str, value_a: float, value_b: float) -> np.ndarray:
    """One local table kind on both modes of a two-mode embedding."""
    return _embed(2, _planes(2, kind, (0, value_a)) + _planes(2, kind, (1, value_b)))


def elementary_transform(
    kind: str,
    params: Union[float, Sequence[float]],
    modes: Union[int, Sequence[int], None] = None,
    n: int = 2,
) -> np.ndarray:
    """Build the 2n x 2n embedding of a named symplectic generator.

    Kinds (Theta(t) = [[cos t, sin t], [-sin t, cos t]],
    R(r) = [[cosh r, sinh r], [sinh r, cosh r]]):
      local_rotation       Theta(theta) on (q_i, p_i); params=theta, modes=i.
      local_squeeze_X      diag(sqrt(x), 1/sqrt(x), 1/sqrt(x), sqrt(x)); n=2.
      local_squeeze_Y      diag(sqrt(y), sqrt(y), 1/sqrt(y), 1/sqrt(y)); n=2.
      two_mode_rotation_qq Theta(theta) on (q_i, q_j) and on (p_i, p_j).
      two_mode_squeeze_qq  R(r) on (q_i, q_j) and R(-r) on (p_i, p_j).
      two_mode_rotation_qp Theta(phi) on (q_i, p_j) and on (q_j, p_i).
      two_mode_squeeze_qp  R(r) on (q_i, p_j) and on (q_j, p_i).
      general_local        L3 L2 L1 with per-mode rotations L1, L3 and the
                           squeeze L2 = diag(e^tauA, e^tauB, e^-tauA, e^-tauB);
                           params = (thetaA1, thetaB1, tauA, tauB,
                           thetaA2, thetaB2); n=2.

    Args:
        kind: one of the names above.
        params: scalar parameter, or the 6-tuple for general_local.
        modes: single mode index or an (i, j) pair; defaults to 0 or (0, 1).
        n: mode count of the embedding.

    Returns:
        The 2n x 2n symplectic matrix (checked to 1e-10).
    """
    if not np.all(np.isfinite(np.atleast_1d(params))):
        raise ValidationError("transform parameters must be finite")

    if kind == "local_rotation":
        i = 0 if modes is None else int(modes)
        if not 0 <= i < n:
            raise ValidationError("invalid mode index %r" % (modes,))
        return _check_constructed(_embed(n, _planes(n, kind, (i, float(params)))))

    if kind in ("local_squeeze_X", "local_squeeze_Y"):
        if n != 2:
            raise ValidationError("%s is a two-mode standard-form squeeze" % kind)
        v = float(params)
        if v <= 0:
            raise ValidationError("squeeze scale must be positive")
        w = math.sqrt(v)
        return _check_constructed(
            _local_pair("local_squeeze", w, 1.0 / w if kind == "local_squeeze_X" else w)
        )

    if kind in _TWO_MODE_KINDS:
        ij = (0, 1) if modes is None else tuple(modes)
        if len(ij) != 2 or not all(0 <= k < n for k in ij) or ij[0] == ij[1]:
            raise ValidationError("invalid mode pair %r" % (ij,))
        planes = _planes(n, kind[len("two_mode_"):], ij + (float(params),))
        return _check_constructed(_embed(n, planes))

    if kind == "general_local":
        if n != 2:
            raise ValidationError("general_local is defined for n=2")
        ta1, tb1, tau_a, tau_b, ta2, tb2 = (float(p) for p in params)
        l1 = _local_pair("local_rotation", ta1, tb1)
        l2 = _local_pair("local_squeeze", math.exp(tau_a), math.exp(tau_b))
        l3 = _local_pair("local_rotation", ta2, tb2)
        return _check_constructed(l3 @ l2 @ l1)

    raise ValidationError("unknown transform kind %r" % (kind,))


def _check_symmetric(alpha: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1] or alpha.shape[0] % 2:
        raise ValidationError("expected a square even-dimension matrix")
    scale = max(1.0, float(np.max(np.abs(alpha))))
    if float(np.max(np.abs(alpha - alpha.T))) > tol * scale:
        raise ValidationError("matrix is not symmetric")
    return 0.5 * (alpha + alpha.T)


def symplectic_eigenvalues(alpha: np.ndarray) -> np.ndarray:
    """Moduli of the +-i*gamma eigenvalue pairs of Delta^-1 alpha, descending.

    Args:
        alpha: real symmetric 2n x 2n matrix.

    Raises:
        NumericalGuardError: if the spectrum does not form +-i*gamma pairs
            within the pairing tolerance (corrupted or non-symmetric input).
    """
    alpha = _check_symmetric(alpha)
    n = alpha.shape[0] // 2
    delta = symplectic_form(n)
    m = -delta @ alpha  # Delta^-1 = -Delta
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError:
        # the real QR iteration can stall on nearly repeated +-i gamma
        # pairs (near-vacuum, near-degenerate CMs); the complex one does not
        w = np.linalg.eigvals(m.astype(complex))
    scale = max(1.0, float(np.max(np.abs(w))))
    if float(np.max(np.abs(w.real))) > PAIRING_RTOL * scale:
        raise NumericalGuardError("eigenvalues of Delta^-1 alpha are not imaginary pairs")
    pos = np.sort(w.imag[w.imag > 0])[::-1]
    neg = np.sort(-w.imag[w.imag < 0])[::-1]
    if len(pos) != n or len(neg) != n or np.max(np.abs(pos - neg)) > PAIRING_RTOL * scale:
        raise NumericalGuardError("eigenvalue pairing failure")
    return pos


def _williamson_blockdiag(alpha_q: np.ndarray, alpha_p: np.ndarray) -> WilliamsonResult:
    """Eigenvector route for alpha = alpha_q (+) alpha_p.

    Eigenvectors c_j of alpha_p alpha_q (eigenvalues gamma_j^2) are obtained
    through the symmetric problem L^T alpha_p L with alpha_q = L L^T, which
    makes them alpha_q-orthonormal by construction (degenerate subspaces
    included).  They are then scaled to c_j^T alpha_q c_j = gamma_j, the phase
    fixed by a positive diagonal component, and assembled into
    S = S_q (+) (S_q^T)^-1 with S_q columns alpha_q c_j / gamma_j.
    """
    n = alpha_q.shape[0]
    try:
        chol = np.linalg.cholesky(alpha_q)
    except np.linalg.LinAlgError:
        raise NumericalGuardError("q block is not positive definite")
    gamma_sq, vecs = np.linalg.eigh(chol.T @ alpha_p @ chol)
    if gamma_sq[0] <= 0:
        raise NumericalGuardError("p block is not positive definite")
    order = np.argsort(gamma_sq)[::-1]
    gammas = np.sqrt(gamma_sq[order])
    c = np.linalg.solve(chol.T, vecs[:, order]) * np.sqrt(gammas)
    for j in range(n):
        anchor = c[j, j]
        if abs(anchor) < 1e-12 * np.max(np.abs(c[:, j])):
            anchor = c[np.argmax(np.abs(c[:, j])), j]
        if anchor < 0:
            c[:, j] = -c[:, j]
    s_q = alpha_q @ c / gammas
    s = np.zeros((2 * n, 2 * n))
    s[:n, :n] = s_q
    s[n:, n:] = c  # c = (S_q^T)^-1 since C^T alpha_q C = diag(gamma)
    return WilliamsonResult(s=s, gammas=gammas)


def _williamson_general(alpha: np.ndarray) -> WilliamsonResult:
    """Schur construction, stable under (near-)degenerate gammas.

    With B = alpha^(1/2), the antisymmetric N = B^-1 Delta B^-1 has the
    real Schur form Q^T N Q = (+)_j gamma_j^-1 [[0, 1], [-1, 0]]; then
    S = B Q D^(-1/2) P (P the interleaved-to-qqpp permutation) satisfies
    both S Delta S^T = Delta and alpha = S diag(gamma, gamma) S^T.
    """
    from scipy.linalg import schur

    n = alpha.shape[0] // 2
    delta = symplectic_form(n)
    w, v = np.linalg.eigh(alpha)
    if w[0] <= 0:
        raise NumericalGuardError("matrix is not positive definite")
    b_inv = v / np.sqrt(w) @ v.T
    skew = b_inv @ delta @ b_inv
    skew = 0.5 * (skew - skew.T)
    t, q = schur(skew, output="real")

    mus = np.array([t[2 * j, 2 * j + 1] for j in range(n)])
    junk = float(np.max(np.abs(t - _paired_blocks(n, mus))))
    if junk > PAIRING_RTOL * max(1.0, float(np.max(np.abs(mus)))):
        raise NumericalGuardError("Schur form is not in paired blocks")
    # orient each block to a positive upper-right entry, then sort by gamma
    for j in range(n):
        if mus[j] < 0:
            mus[j] = -mus[j]
            q[:, [2 * j, 2 * j + 1]] = q[:, [2 * j + 1, 2 * j]]
    gammas = 1.0 / mus
    order = np.argsort(gammas)[::-1]
    gammas = gammas[order]
    cols = np.empty(2 * n, dtype=int)
    cols[0::2] = 2 * order
    cols[1::2] = 2 * order + 1
    q = q[:, cols]

    b = v * np.sqrt(w) @ v.T
    half = np.repeat(1.0 / np.sqrt(gammas), 2)
    s_interleaved = b @ q * half
    s = np.empty_like(s_interleaved)
    s[:, :n] = s_interleaved[:, 0::2]
    s[:, n:] = s_interleaved[:, 1::2]
    if not is_symplectic(s, tol=1e-8):
        raise NumericalGuardError("assembled transform failed the symplectic condition")
    return WilliamsonResult(s=s, gammas=gammas)


def _paired_blocks(n: int, mus: np.ndarray) -> np.ndarray:
    out = np.zeros((2 * n, 2 * n))
    for j, mu in enumerate(mus):
        out[2 * j, 2 * j + 1] = mu
        out[2 * j + 1, 2 * j] = -mu
    return out


def williamson(alpha: np.ndarray) -> WilliamsonResult:
    """Williamson decomposition alpha = S diag(gamma, gamma) S^T.

    For q-p block-diagonal inputs the real eigenvector construction on
    alpha_p alpha_q is used; otherwise the general construction from the
    real Schur form of alpha^-1/2 Delta alpha^-1/2.

    Args:
        alpha: real symmetric 2n x 2n matrix with positive symplectic
            spectrum (a CM or an EM).

    Returns:
        WilliamsonResult with S symplectic and gammas descending.
    """
    alpha = _check_symmetric(alpha)
    n = alpha.shape[0] // 2
    scale = max(1.0, float(np.max(np.abs(alpha))))
    if float(np.max(np.abs(alpha[:n, n:]))) <= 1e-12 * scale:
        result = _williamson_blockdiag(alpha[:n, :n], alpha[n:, n:])
    else:
        result = _williamson_general(alpha)
    d = np.concatenate([result.gammas, result.gammas])
    residual = float(np.max(np.abs(result.s * d @ result.s.T - alpha)))
    if residual > 1e-8 * scale:
        raise NumericalGuardError(
            "Williamson reconstruction residual %.3e" % residual
        )
    return result


def random_symplectic(rng: np.random.Generator, n: int, scale: float = 0.3) -> np.ndarray:
    """Random symplectic exp(Delta K) with K symmetric Gaussian.

    Args:
        rng: numpy Generator.
        n: mode count.
        scale: entrywise standard deviation of K; ~0.3 keeps squeezing
            moderate (condition number of S typically below ~10).
    """
    from scipy.linalg import expm

    k = rng.normal(0.0, scale, (2 * n, 2 * n))
    s = expm(symplectic_form(n) @ (0.5 * (k + k.T)))
    return _check_constructed(s)


def random_cm(
    rng: np.random.Generator,
    n: int,
    gamma_lo: float = 0.55,
    gamma_hi: float = 3.0,
    scale: float = 0.3,
) -> np.ndarray:
    """Random physical CM S diag(gamma, gamma) S^T with uniform gammas.

    Args:
        rng: numpy Generator.
        n: mode count.
        gamma_lo, gamma_hi: symplectic eigenvalue range (> 1/2 keeps the
            state safely mixed).
        scale: passed to random_symplectic.
    """
    gammas = rng.uniform(gamma_lo, gamma_hi, n)
    s = random_symplectic(rng, n, scale)
    alpha = s * np.concatenate([gammas, gammas]) @ s.T
    return 0.5 * (alpha + alpha.T)
