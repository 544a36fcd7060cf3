"""Brute-force verification oracle in a truncated Fock basis.

States are dense density matrices over per-mode number bases; entropies
are computed by spectral calculus with no Gaussian formulas involved, so
results can be compared against the closed-form path independently.

Thermal products are diagonal, two-mode squeezing conserves n0 - n1 and
every squeeze here conserves total-number parity, so the states built by
this module have no weight between sectors of those charges.  That
structure is read from exact zeros in rho (nothing records it): squeezes
are applied chain by chain and spectra are taken per sector block, over
the n0 - n1 sectors when the state respects them, over the two parity
sectors otherwise, and on the whole matrix when it respects neither.
"""

import warnings
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from .errors import NumericalGuardError, ValidationError

# computed sigma eigenvalues below this are dominated by eigh roundoff and
# are floored before taking the log (dense sigma only; diagonal entries are
# exact and used down to underflow)
SIGMA_FLOOR = 1e-14
# rho mass allowed on floored/dead sigma directions before declaring
# divergence; below this the omitted contribution stays ~1e-5 or smaller
SUPPORT_MASS_TOL = 1e-7
# default ceiling on the top-two-level population of a squeezed mode
DEFECT_TOL = 1e-3


class FockDensity(NamedTuple):
    """Truncated density matrix: dims per mode, rho of size prod(dims),
    and the trace lost to truncation before renormalization."""

    dims: Tuple[int, ...]
    rho: np.ndarray
    trace_deficit: float


def fock_thermal(gamma: float, dim: int) -> FockDensity:
    """Single-mode thermal state with mean occupancy n_bar = gamma - 1/2.

    Args:
        gamma: symplectic eigenvalue, >= 1/2 (1/2 gives the vacuum).
        dim: number of kept Fock levels, >= 2.
    """
    if gamma < 0.5:
        raise ValidationError("thermal state needs gamma >= 1/2")
    if dim < 2:
        raise ValidationError("need at least two Fock levels")
    n_bar = gamma - 0.5
    ratio = n_bar / (n_bar + 1.0)
    weights = ratio ** np.arange(dim) / (n_bar + 1.0)
    total = float(weights.sum())
    return FockDensity(
        dims=(dim,), rho=np.diag(weights / total), trace_deficit=1.0 - total
    )


def fock_product(*states: FockDensity) -> FockDensity:
    """Tensor product of mode states (mode order = argument order)."""
    dims: Tuple[int, ...] = ()
    rho = np.eye(1)
    deficit = 0.0
    for st in states:
        dims = dims + tuple(st.dims)
        rho = np.kron(rho, st.rho)
        deficit = deficit + st.trace_deficit - deficit * st.trace_deficit
    return FockDensity(dims=dims, rho=rho, trace_deficit=deficit)


def mode_populations(state: FockDensity) -> list:
    """Per-mode number populations (marginals of the diagonal)."""
    diag = np.real(np.diagonal(state.rho)).reshape(state.dims)
    out = []
    for axis in range(len(state.dims)):
        other = tuple(k for k in range(len(state.dims)) if k != axis)
        out.append(diag.sum(axis=other) if other else diag.copy())
    return out


def _chain_exp(coup: np.ndarray) -> np.ndarray:
    """Exponential of the antisymmetric tridiagonal generator with
    sub-diagonal coup (super-diagonal -coup); orthogonal by construction."""
    k = np.arange(len(coup))
    gen = np.zeros((len(coup) + 1, len(coup) + 1))
    gen[k + 1, k] = coup
    gen[k, k + 1] = -coup
    return expm(gen)


@lru_cache(maxsize=None)
def _two_mode_chains(d0: int, d1: int) -> tuple:
    """(flat indices, sqrt couplings) of each n0 - n1 sector of a d0 x d1
    basis, indices ordered along the sector's two-mode squeeze chain."""
    chains = []
    for diff in range(-(d1 - 1), d0):
        n0 = max(diff, 0)
        m0 = max(-diff, 0)
        length = min(d0 - n0, d1 - m0)
        idx = np.arange(length) * (d1 + 1) + n0 * d1 + m0
        k = np.arange(length - 1)
        coup = np.sqrt((n0 + k + 1.0) * (m0 + k + 1.0))
        idx.flags.writeable = coup.flags.writeable = False
        chains.append((idx, coup))
    return tuple(chains)


@lru_cache(maxsize=None)
def _sector_partitions(dims: Tuple[int, ...]) -> tuple:
    """Index partitions of the basis left invariant by the squeezes, finest
    first: n0 - n1 sectors (two modes only), then total-number parity."""
    parity = np.indices(dims).sum(axis=0).ravel() % 2
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
    even.flags.writeable = odd.flags.writeable = False
    if len(dims) == 2:
        return tuple(idx for idx, _ in _two_mode_chains(*dims)), (even, odd)
    return ((even, odd),)


def _sector_blocks(matrix: np.ndarray, sectors: Sequence[np.ndarray]) -> Optional[list]:
    """Diagonal blocks of matrix over sectors, or None if any entry
    between two sectors is nonzero (the structure is read from exact
    zeros, which every squeeze and product here preserves)."""
    blocks = [matrix[np.ix_(idx, idx)] for idx in sectors]
    inside = sum(np.count_nonzero(b) for b in blocks)
    return blocks if inside == np.count_nonzero(matrix) else None


def _sectors_of(state: FockDensity) -> Tuple[Optional[tuple], list]:
    """(sectors, blocks) of the finest partition the state respects;
    (None, [rho]) when it respects none."""
    for sectors in _sector_partitions(tuple(state.dims)):
        blocks = _sector_blocks(state.rho, sectors)
        if blocks is not None:
            return sectors, blocks
    return None, [state.rho]


def _local_squeeze_unitary(d: int, s: float) -> np.ndarray:
    """exp(s (a+^2 - a^2) / 2) truncated to d levels (parity chains)."""
    u = np.zeros((d, d))
    for start in (0, 1):
        idx = np.arange(start, d, 2)
        n = idx[:-1].astype(float)
        u[np.ix_(idx, idx)] = _chain_exp(0.5 * s * np.sqrt((n + 1.0) * (n + 2.0)))
    return u


def _apply_two_mode(state: FockDensity, r: float) -> np.ndarray:
    """u rho u^T for exp(r (a0+ a1+ - a0 a1)), one n0 - n1 chain at a time.

    The generator conserves n0 - n1, so the truncated unitary is a direct
    sum of orthogonal chain exponentials and is never assembled.  A
    sector-diagonal rho is conjugated block by block; any other rho is
    transformed chain-wise on its rows, then on its columns.
    """
    chains = [(idx, _chain_exp(r * coup)) for idx, coup in _two_mode_chains(*state.dims)]
    blocks = _sector_blocks(state.rho, [idx for idx, _ in chains])
    if blocks is None:
        rho = np.array(state.rho, dtype=float)
        for idx, u in chains:
            rho[idx, :] = u @ rho[idx, :]
        for idx, u in chains:
            rho[:, idx] = rho[:, idx] @ u.T
        return 0.5 * (rho + rho.T)
    rho = np.zeros_like(state.rho, dtype=float)
    for (idx, u), block in zip(chains, blocks):
        block = u @ block @ u.T
        rho[np.ix_(idx, idx)] = 0.5 * (block + block.T)
    return rho


def _apply_local(state: FockDensity, i: int, s: float) -> np.ndarray:
    """(1 x u x 1) rho (1 x u x 1)^T with u acting on mode i's tensor axes."""
    dims = tuple(state.dims)
    n = len(dims)
    u = _local_squeeze_unitary(dims[i], s)
    t = state.rho.reshape(dims + dims)
    t = np.moveaxis(np.tensordot(u, t, axes=(1, i)), 0, i)
    t = np.moveaxis(np.tensordot(t, u, axes=(n + i, 1)), -1, n + i)
    rho = t.reshape(state.rho.shape)
    return 0.5 * (rho + rho.T)


def fock_apply_squeeze(
    state: FockDensity,
    kind: str,
    r: float,
    modes: Union[int, Sequence[int], None] = None,
    defect_tol: float = DEFECT_TOL,
) -> FockDensity:
    """Conjugate the state by a truncated squeeze unitary.

    Kinds:
      two_mode  exp(r(a+b+ - ab)) on modes (0, 1): the R(r) (+) R(-r)
                symplectic on the quadratures.
      local     exp(s(a+^2 - a^2)/2) on one mode: q -> e^s q, p -> e^-s p,
                i.e. the X(x) squeeze with s = log(x)/2.

    Args:
        state: input density matrix.
        kind: "two_mode" or "local".
        r: squeeze parameter (|r| <= 1 recommended for truncation quality).
        modes: mode pair for two_mode (must be (0, 1)), index for local.
        defect_tol: ceiling on the top-two-level mass of each squeezed
            mode after the transform; exceeding it raises.

    Raises:
        NumericalGuardError: truncation defect above defect_tol.
    """
    if kind == "two_mode":
        if len(state.dims) != 2 or (modes is not None and tuple(modes) != (0, 1)):
            raise ValidationError("two_mode squeeze acts on modes (0, 1)")
        rho = _apply_two_mode(state, float(r))
        touched = (0, 1)
    elif kind == "local":
        i = 0 if modes is None else int(modes)
        if not 0 <= i < len(state.dims):
            raise ValidationError("invalid mode index %r" % (modes,))
        rho = _apply_local(state, i, float(r))
        touched = (i,)
    else:
        raise ValidationError("unknown squeeze kind %r" % (kind,))

    out = FockDensity(dims=state.dims, rho=rho, trace_deficit=state.trace_deficit)
    pops = mode_populations(out)
    for i in touched:
        defect = float(pops[i][-2:].sum())
        if defect > defect_tol:
            raise NumericalGuardError(
                "truncation defect %.3e on mode %d (raise dims or lower r)"
                % (defect, i)
            )
    return out


def _is_diagonal(matrix: np.ndarray) -> bool:
    return np.count_nonzero(matrix) == np.count_nonzero(np.diagonal(matrix))


def _self_term(state: FockDensity) -> float:
    """Tr rho log rho by spectral calculus (0 log 0 = 0), per sector."""
    if _is_diagonal(state.rho):
        p = np.real(np.diagonal(state.rho))
    else:
        p = np.concatenate([np.linalg.eigvalsh(b) for b in _sectors_of(state)[1]])
    if p.min() < -1e-10:
        raise ValidationError("matrix is not positive semidefinite")
    p = p[p > 1e-18]
    return float(np.sum(p * np.log(p)))


def fock_relative_entropy(rho: FockDensity, sigma: FockDensity) -> float:
    """Tr rho log rho - Tr rho log sigma on the kept subspace, in nats.

    Diagonal sigma uses its exact diagonal down to underflow, and rho's
    mass on exactly zero entries is left out; otherwise sigma is
    eigendecomposed (per sector when it has no weight between sectors;
    rho then enters only through its diagonal sector blocks) and
    eigenvalues below 1e-14 (eigh noise level) are floored before the
    log, so rho's mass there is charged at log(1e-14).  If rho puts more
    than 1e-7 of its mass on dead/floored directions the value is
    divergent and +inf is returned (with a warning).

    Args:
        rho, sigma: density matrices with matching dims.
    """
    if rho.dims != sigma.dims:
        raise ValidationError("dims mismatch between rho and sigma")
    self_term = _self_term(rho)
    if _is_diagonal(sigma.rho):
        q = np.real(np.diagonal(sigma.rho)).copy()
        masses = np.real(np.diagonal(rho.rho))
        dead = q < 1e-300
        # exact zeros: the mass there is dropped (charged at log 1)
        q[dead] = 1.0
    else:
        sectors, sig_blocks = _sectors_of(sigma)
        if sectors is None:
            rho_blocks = [rho.rho]
        else:
            rho_blocks = [rho.rho[np.ix_(idx, idx)] for idx in sectors]
        qs, ms = [], []
        for s_blk, r_blk in zip(sig_blocks, rho_blocks):
            q, v = np.linalg.eigh(s_blk)
            qs.append(q)
            ms.append(np.einsum("ik,ik->k", v, r_blk @ v))
        q, masses = np.concatenate(qs), np.concatenate(ms)
        dead = q < SIGMA_FLOOR
        q = np.maximum(q, SIGMA_FLOOR)
    lost = float(masses[dead].sum())
    if lost > SUPPORT_MASS_TOL:
        warnings.warn(
            "rho mass %.3e outside sigma's numerical support; "
            "relative entropy diverges" % lost
        )
        return float("inf")
    cross = float(masses @ np.log(q))
    return self_term - cross


def fock_entropy(state: FockDensity) -> float:
    """Von Neumann entropy -Tr rho log rho in nats."""
    return -_self_term(state)


def truncate(state: FockDensity, drop: int) -> FockDensity:
    """Remove the top `drop` levels of every mode and renormalize."""
    new_dims = tuple(d - drop for d in state.dims)
    if min(new_dims) < 2:
        raise ValidationError("truncation would leave fewer than 2 levels")
    tensor = state.rho.reshape(state.dims + state.dims)
    sl = tuple(slice(0, d) for d in new_dims)
    tensor = tensor[sl + sl]
    size = int(np.prod(new_dims, dtype=int))
    rho = tensor.reshape(size, size)
    tr = float(np.trace(rho))
    deficit = 1.0 - (1.0 - state.trace_deficit) * tr
    return FockDensity(dims=new_dims, rho=rho / tr, trace_deficit=deficit)


def fock_truncation_sensitivity(
    rho: FockDensity, sigma: FockDensity, drop: int = 5
) -> float:
    """|value change| of fock_relative_entropy when all dims shrink by drop."""
    full = fock_relative_entropy(rho, sigma)
    small = fock_relative_entropy(truncate(rho, drop), truncate(sigma, drop))
    return abs(full - small)


def fock_schmidt_entropy(r: float, dim: int) -> float:
    """Entanglement entropy of the two-mode squeezed vacuum from its
    Schmidt spectrum lambda_n = tanh(r)^(2n) / cosh(r)^2.

    Args:
        r: squeeze parameter.
        dim: number of Schmidt terms; tanh(r)^(2 dim) must be < 1e-10.
    """
    t2 = np.tanh(r) ** 2
    if t2**dim >= 1e-10:
        raise ValidationError("dim too small for the requested squeeze")
    lam = t2 ** np.arange(dim) / np.cosh(r) ** 2
    lam = lam[lam > 0]
    return float(-np.sum(lam * np.log(lam)))


def fock_covariance(state: FockDensity) -> np.ndarray:
    """Quadrature second moments 1/2 <{F_j, F_k}> in (q.., p..) order.

    Means are not subtracted (the states in scope are zero-mean), so for
    a Gaussian input this reproduces its CM.
    """
    dims = state.dims
    n = len(dims)
    ops = []
    for i, d in enumerate(dims):
        a = sp.diags(np.sqrt(np.arange(1, d)), 1)
        q = (a + a.T) / np.sqrt(2.0)
        p = 1j * (a.T - a) / np.sqrt(2.0)
        left = int(np.prod(dims[:i], dtype=int))
        right = int(np.prod(dims[i + 1 :], dtype=int))
        ops.append((i, sp.kron(sp.kron(sp.identity(left), q), sp.identity(right))))
        ops.append((n + i, sp.kron(sp.kron(sp.identity(left), p), sp.identity(right))))
    ops.sort(key=lambda t: t[0])
    mats = [op.tocsr() for _, op in ops]
    prods = [op @ state.rho for op in mats]  # F_k rho, dense
    g = np.empty((2 * n, 2 * n), dtype=complex)
    for j in range(2 * n):
        fj_t = mats[j].T
        for k in range(2 * n):
            # Tr(rho F_j F_k) = Tr((F_k rho) F_j)
            g[j, k] = fj_t.multiply(prods[k]).sum()
    return np.real(0.5 * (g + g.T))
