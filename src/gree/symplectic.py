"""Real symplectic linear algebra in the (q1..qn, p1..pn) ordering.

Provides the canonical antisymmetric form Delta, elementary symplectic
generators, symplectic eigenvalues, and the Williamson decomposition
alpha = S diag(gamma, gamma) S^T used by all state transforms.  Both of
the latter take a positive-definite alpha and solve one Hermitian
eigenproblem, that of H = i alpha^(1/2) Delta alpha^(1/2), whose
eigenvalues are +-gamma_j.  The module needs numpy only.
"""

import math
from typing import NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import NumericalGuardError, ValidationError

# relative tolerance for +-gamma eigenvalue pair matching
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


def _hermitian_form(alpha: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(B, H) with B = alpha^(1/2) and the Hermitian H = i B Delta B, whose
    eigenvalues are +-gamma_j (H is similar to i Delta alpha), for a
    symmetric float alpha of even dimension; the callers check that."""
    w, v = np.linalg.eigh(alpha)
    if w[0] <= 0:
        raise NumericalGuardError("matrix is not positive definite")
    b = v * np.sqrt(w) @ v.T
    return b, 1j * (b @ symplectic_form(alpha.shape[0] // 2) @ b)


def _positive_half(lam: np.ndarray) -> np.ndarray:
    """gamma_j, descending, from H's ascending eigenvalues -gamma, +gamma."""
    n = lam.shape[0] // 2
    pos = lam[n:][::-1]
    if np.max(np.abs(pos + lam[:n])) > PAIRING_RTOL * max(1.0, np.max(np.abs(lam))):
        raise NumericalGuardError("eigenvalue pairing failure")
    return pos


def _symplectic_spectrum(alpha: np.ndarray) -> np.ndarray:
    """symplectic_eigenvalues of an alpha already checked to be symmetric
    (or symmetric by construction), with no second check."""
    return _positive_half(np.linalg.eigvalsh(_hermitian_form(alpha)[1]))


def symplectic_eigenvalues(alpha: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues gamma_j of alpha, descending: the positive half
    of the spectrum of H = i alpha^(1/2) Delta alpha^(1/2), the one Hermitian
    eigenproblem that williamson also solves.

    Args:
        alpha: real symmetric positive-definite 2n x 2n matrix.

    Raises:
        ValidationError: alpha is not a symmetric even-dimension matrix.
        NumericalGuardError: alpha is not positive definite, or H's spectrum
            does not form +-gamma pairs within PAIRING_RTOL.
    """
    return _symplectic_spectrum(_check_symmetric(alpha))


def _frame(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """S diag(d, d) S^T, symmetrized: the CM or EM whose symplectic frame is
    S and whose symplectic eigenvalues are d."""
    m = s * np.concatenate([d, d]) @ s.T
    return 0.5 * (m + m.T)


def williamson(alpha: np.ndarray) -> WilliamsonResult:
    """Williamson decomposition alpha = S diag(gamma, gamma) S^T.

    With B = alpha^(1/2), an eigenvector x - iy of the Hermitian
    H = i B Delta B for +gamma_j gives S's q_j column sqrt(2/gamma_j) B x and
    its p_j column sqrt(2/gamma_j) B y.  Any orthonormal eigenbasis does, so
    S is symplectic for degenerate gammas too; each eigenvector's phase makes
    its leading q component real positive, so a diagonal alpha gets S = I.

    Args:
        alpha: real symmetric positive-definite 2n x 2n matrix (a CM or EM).

    Returns:
        WilliamsonResult with S symplectic and gammas descending; S is
        checked to be symplectic and to reconstruct alpha, both to 1e-8.
    """
    alpha = _check_symmetric(alpha)
    b, h = _hermitian_form(alpha)
    n = alpha.shape[0] // 2
    lam, z = np.linalg.eigh(h)
    gammas = _positive_half(lam)
    z = z[:, n:][:, ::-1]
    mag = np.abs(z[:n])  # the leading q component: first within 1e-12 of the largest
    lead = z[np.argmax(mag >= (1.0 - 1e-12) * mag.max(axis=0), axis=0), range(n)]
    z = z * (np.abs(lead) / lead * np.sqrt(2.0 / gammas))
    s = np.concatenate([b @ z.real, b @ -z.imag], axis=1)
    if not is_symplectic(s, tol=1e-8):
        raise NumericalGuardError("assembled transform failed the symplectic condition")
    residual = float(np.max(np.abs(_frame(s, gammas) - alpha)))
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(alpha)))):
        raise NumericalGuardError("Williamson reconstruction residual %.3e" % residual)
    return WilliamsonResult(s=s, gammas=gammas)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.25)))) if norm > 0.25 else 0
    a = a / 2.0**squarings
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 20):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def random_symplectic(rng: np.random.Generator, n: int, scale: float = 0.3) -> np.ndarray:
    """Random symplectic exp(Delta K) with K symmetric Gaussian.

    Args:
        rng: numpy Generator.
        n: mode count.
        scale: entrywise standard deviation of K; ~0.3 keeps squeezing
            moderate (condition number of S typically below ~10).
    """
    k = rng.normal(0.0, scale, (2 * n, 2 * n))
    return _check_constructed(_expm(symplectic_form(n) @ (0.5 * (k + k.T))))


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
    return _frame(random_symplectic(rng, n, scale), gammas)
