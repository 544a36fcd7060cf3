"""Brute-force verification oracle in a truncated Fock basis.

States are density matrices over per-mode number bases; entropies are
computed by spectral calculus with no Gaussian formulas involved, so
results can be compared against the closed-form path independently.

Thermal products are diagonal, two-mode squeezing conserves n0 - n1 and
every squeeze here conserves total-number parity.  States built by this
module carry that structure from construction: the partition of the
basis they respect (the diagonal, the n0 - n1 chains or the two parity
halves), their rho blocks over it, their spectrum (the product of the
thermal weights, which the orthogonal squeezes leave unchanged) and the
squeeze unitaries applied to them, whose product holds the eigenvectors.
Squeezes act block by block, self terms read the carried spectrum and
cross terms push rho back through sigma's squeezes, so no eigensolver
runs on a built state.  A thermal product holds prod(dims) numbers and a
two-mode squeezed one its chain blocks, O(d^3) for two modes of d levels.
The n0 - n1 = +k and -k chains have the same couplings, so a two-mode
squeeze computes one chain exponential per |n0 - n1| (per length, when
the two cutoffs differ) and shares it.  Its chain blocks of a thermal
product are W W^T with W = U sqrt(p), symmetric by construction, and the
push-back through a two-mode squeeze reads only the diagonals
diag(U^T B U) that the cross term needs.
A local squeeze of a two-mode state held over the chains holds the chain
blocks of its output, O(d^3) numbers read from the input's chain blocks
in about 4 d^4 flops; its two parity halves, half the dense size, are
built from the input only when something reads them (rho, a further
squeeze, truncate, or a path without a carried spectrum).  The dense
rho is assembled only when read.

A user-built FockDensity(dims, rho, trace_deficit) carries nothing: its
structure is read from exact zeros in rho (n0 - n1 sectors, then parity,
then the whole matrix) and its spectra come from per-block
eigendecompositions.  The output of truncate keeps the partition but not
the spectrum, and takes the same spectral path.
"""

import itertools
import warnings
from functools import lru_cache, partial, reduce
from typing import NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import NumericalGuardError, ValidationError

# computed sigma eigenvalues below this are dominated by eigh roundoff and
# are floored before taking the log (sigma without a carried spectrum and
# not diagonal); for a built sigma it is the support threshold
SIGMA_FLOOR = 1e-14
# rho mass allowed on floored/dead sigma directions before declaring
# divergence; below this the omitted contribution stays ~1e-5 or smaller
SUPPORT_MASS_TOL = 1e-7
# ceiling on the top-two-level population of a squeezed mode
DEFECT_TOL = 1e-3


class _Squeeze(NamedTuple):
    """One applied squeeze: its orthogonal blocks, one per n0 - n1 chain
    (two_mode) or the even- and odd-level parts acting on `mode` (local)."""

    kind: str
    mode: int
    parts: tuple

    def transposed(self) -> "_Squeeze":
        return self._replace(parts=tuple(u.T for u in self.parts))


class FockDensity:
    """Truncated density matrix: dims per mode, rho of size prod(dims),
    and the trace lost to truncation before renormalization.

    States built by this module's constructors carry their sector blocks
    and spectrum; their rho is assembled from the blocks on first access.
    """

    __slots__ = (
        "dims", "trace_deficit", "_rho", "_kind", "_held", "_chains", "_spectrum", "_squeezes")

    def __init__(self, dims: Sequence[int], rho: np.ndarray, trace_deficit: float):
        self.dims: Tuple[int, ...] = tuple(dims)
        self.trace_deficit = trace_deficit
        self._rho = rho
        # carried structure: partition kind and its blocks, or the deferred
        # build of them; the blocks over the n0 - n1 chains of a state held
        # over a coarser partition; the spectrum (flat basis order) and the
        # squeezes that rotate it into rho; each None when not carried
        self._kind = self._held = self._chains = self._spectrum = self._squeezes = None

    @property
    def rho(self) -> np.ndarray:
        """Dense prod(dims) x prod(dims) density matrix."""
        if self._rho is None:
            self._rho = _assemble(self.dims, self._kind, self._blocks)
        return self._rho

    @property
    def _blocks(self):
        """Blocks over the carried partition, built on first read when deferred."""
        if callable(self._held):
            # a deferred _squeeze: its output's (kind, blocks)
            self._held = self._held()[1]
        return self._held


def _built(dims, trace_deficit, kind, blocks, spectrum=None, squeezes=None, chains=None):
    """A state held as blocks over a partition, or as a deferred _squeeze
    that builds them; chains are its blocks over the n0 - n1 chains."""
    state = FockDensity(dims, None, trace_deficit)
    state._kind, state._held, state._chains = kind, blocks, chains
    if spectrum is not None:
        state._spectrum, state._squeezes = spectrum, squeezes
    return state


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
    p = weights / total
    return _built((dim,), 1.0 - total, "diagonal", p, p, ())


def fock_product(*states: FockDensity) -> FockDensity:
    """Tensor product of mode states (mode order = argument order)."""
    dims: Tuple[int, ...] = ()
    deficit = 0.0
    for st in states:
        dims = dims + tuple(st.dims)
        deficit = deficit + st.trace_deficit - deficit * st.trace_deficit
    if all(st._kind == "diagonal" for st in states):
        diag = reduce(np.kron, [st._blocks for st in states], np.ones(1))
        exact = all(st._spectrum is not None for st in states)
        return _built(dims, deficit, "diagonal", diag, diag if exact else None, ())
    rho = reduce(np.kron, [st.rho for st in states], np.eye(1))
    return FockDensity(dims, rho, deficit)


def _diagonal(dims: Tuple[int, ...], kind: str, blocks) -> np.ndarray:
    """Flat diagonal of a state held as blocks over a partition."""
    if kind == "diagonal":
        return blocks
    return _scattered(dims, kind, [b.diagonal() for b in blocks])


def _scattered(dims: Tuple[int, ...], kind: str, parts: list) -> np.ndarray:
    """Flat vector from one part per sector of a partition, each in the
    sector's basis order: one concatenate and one scatter."""
    out = np.empty(int(np.prod(dims, dtype=int)))
    out[_flat(dims, kind)] = np.real(np.concatenate(parts))
    return out


def _state_diagonal(state: FockDensity) -> np.ndarray:
    if state._kind is None:
        return np.real(np.diagonal(state.rho))
    if state._chains is not None:
        return _diagonal(state.dims, "chains", state._chains)
    return _diagonal(state.dims, state._kind, state._blocks)


def mode_populations(state: FockDensity) -> list:
    """Per-mode number populations (marginals of the diagonal)."""
    diag = _state_diagonal(state).reshape(state.dims)
    out = []
    for axis in range(len(state.dims)):
        other = tuple(k for k in range(len(state.dims)) if k != axis)
        out.append(diag.sum(axis=other) if other else diag.copy())
    return out


class _Chain(NamedTuple):
    """Eigen-data of a squeeze chain: the symmetric tridiagonal J with
    off-diagonal couplings c, as eigenvalues and eigenvectors, and the
    sign pattern (-1)^floor((j - k) / 2)."""

    lam: np.ndarray
    vec: np.ndarray
    sign: np.ndarray


def _chain(coup: np.ndarray) -> _Chain:
    k = np.arange(len(coup) + 1)
    jac = np.diag(coup, 1) + np.diag(coup, -1)
    lam, vec = np.linalg.eigh(jac)
    sign = (-1.0) ** ((k[:, None] - k[None, :]) // 2)
    for a in (lam, vec, sign):
        a.flags.writeable = False
    return _Chain(lam, vec, sign)


def _chain_exp(chain: _Chain, r: float) -> np.ndarray:
    """exp(r G), G the antisymmetric tridiagonal generator with sub-diagonal
    c and super-diagonal -c; orthogonal to roundoff.

    With D = diag(i^k), G = -i D J D^-1, so exp(r G) = D V e^(-i r L) V^T
    D^-1.  J's spectrum is symmetric (its graph is bipartite), so entries
    with j - k even sum only cosines and those with j - k odd only sines:
    exp(r G) = sign * (V (cos + sin)(r L) V^T), one matmul per chain.
    """
    rl = r * chain.lam
    return chain.sign * ((chain.vec * (np.cos(rl) + np.sin(rl))) @ chain.vec.T)


def _chain_exps(chains: Sequence[_Chain], r: float) -> tuple:
    """Read-only _chain_exp(chain, r) of each chain, computed once per
    distinct _Chain object and shared by the sectors holding it."""
    done = {}
    for chain in chains:
        if id(chain) not in done:
            u = _chain_exp(chain, r)
            u.flags.writeable = False
            done[id(chain)] = u
    return tuple(done[id(chain)] for chain in chains)


@lru_cache(maxsize=None)
def _two_mode_chains(d0: int, d1: int) -> tuple:
    """(flat indices, chain) of each n0 - n1 sector of a d0 x d1 basis,
    indices ordered along the sector's two-mode squeeze chain, whose
    couplings are sqrt((n0 + 1) (n1 + 1)).  The n0 - n1 = +k and -k chains
    start at (k, 0) and (0, k), so their couplings agree bit for bit: when
    their lengths agree too they share one _Chain."""
    chains, shared = [], {}
    for diff in range(-(d1 - 1), d0):
        n0 = max(diff, 0)
        m0 = max(-diff, 0)
        length = min(d0 - n0, d1 - m0)
        idx = np.arange(length) * (d1 + 1) + n0 * d1 + m0
        idx.flags.writeable = False
        key = (abs(diff), length)
        if key not in shared:
            k = np.arange(length - 1)
            shared[key] = _chain(np.sqrt((n0 + k + 1.0) * (m0 + k + 1.0)))
        chains.append((idx, shared[key]))
    return tuple(chains)


@lru_cache(maxsize=None)
def _local_chains(d: int) -> Tuple[_Chain, _Chain]:
    """Chains of (a+^2 - a^2) / 2 over the even and the odd levels of d."""
    return tuple(
        _chain(0.5 * np.sqrt((n + 1.0) * (n + 2.0)))
        for n in (np.arange(start, d - 2, 2, dtype=float) for start in (0, 1))
    )


# partitions of the basis left invariant by the squeezes, finest first;
# "parity" is the two total-number parity halves, "whole" one sector
_KINDS = ("diagonal", "chains", "parity", "whole")


@lru_cache(maxsize=None)
def _orthants(dims: Tuple[int, ...], kind: str) -> tuple:
    """Per parity half (or for the whole basis): its orthants, the basis
    states whose levels have given parities per mode, as (parities, grid
    shape, slice of the sector) in sector order."""
    orthants = list(itertools.product((0, 1), repeat=len(dims)))
    if kind == "parity":
        groups = [[bits for bits in orthants if sum(bits) % 2 == half] for half in (0, 1)]
    else:
        groups = [orthants]
    layout = []
    for members in groups:
        start, sector = 0, []
        for bits in members:
            shape = tuple(len(range(b, d, 2)) for b, d in zip(bits, dims))
            size = int(np.prod(shape, dtype=int))
            sector.append((bits, shape, slice(start, start + size)))
            start += size
        layout.append(tuple(sector))
    return tuple(layout)


@lru_cache(maxsize=None)
def _partition(dims: Tuple[int, ...], kind: str) -> tuple:
    """Flat basis indices of each sector of a partition: chains in squeeze
    chain order, parity halves and the whole basis orthant by orthant."""
    if kind == "chains":
        return tuple(idx for idx, _ in _two_mode_chains(*dims))
    sectors = []
    for layout in _orthants(dims, kind):
        grids = [
            np.ravel_multi_index(np.ix_(*(np.arange(b, d, 2) for b, d in zip(bits, dims))), dims)
            for bits, _, _ in layout
        ]
        idx = np.concatenate([g.ravel() for g in grids])
        idx.flags.writeable = False
        sectors.append(idx)
    return tuple(sectors)


@lru_cache(maxsize=None)
def _flat(dims: Tuple[int, ...], kind: str) -> np.ndarray:
    """The partition's flat basis indices, sector after sector."""
    idx = np.concatenate(_partition(dims, kind))
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=None)
def _locate(dims: Tuple[int, ...], kind: str) -> Tuple[np.ndarray, np.ndarray]:
    """(sector, position within it) of every flat basis index."""
    size = int(np.prod(dims, dtype=int))
    owner, pos = np.empty(size, dtype=int), np.empty(size, dtype=int)
    for s, idx in enumerate(_partition(dims, kind)):
        owner[idx] = s
        pos[idx] = np.arange(len(idx))
    owner.flags.writeable = pos.flags.writeable = False
    return owner, pos


def _structure(state: FockDensity) -> Tuple[str, object]:
    """(kind, blocks) of the state: carried, or else read from exact zeros
    in rho, finest partition first."""
    if state._kind is not None:
        return state._kind, state._blocks
    rho = state.rho
    nonzero = np.count_nonzero(rho)
    if nonzero == np.count_nonzero(np.diagonal(rho)):
        return "diagonal", np.real(np.diagonal(rho))
    for kind in ("chains", "parity") if len(state.dims) == 2 else ("parity",):
        blocks = [rho[np.ix_(idx, idx)] for idx in _partition(state.dims, kind)]
        if sum(np.count_nonzero(b) for b in blocks) == nonzero:
            return kind, blocks
    idx = _partition(state.dims, "whole")[0]
    return "whole", [rho[np.ix_(idx, idx)]]


def _regroup(dims: Tuple[int, ...], kind: str, blocks, target: str) -> list:
    """Diagonal blocks over the target partition of a state held as blocks
    over another.  From a finer partition this is exact; from a coarser one
    the weight between target sectors is dropped, which leaves every
    diagonal block, and so every quantity read from them, unchanged."""
    if kind == target:
        return blocks
    sectors = _partition(dims, target)
    if kind == "diagonal":
        return [np.diag(blocks[idx]) for idx in sectors]
    if _KINDS.index(kind) < _KINDS.index(target):
        owner, pos = _locate(dims, target)
        dtype = np.result_type(float, *blocks)
        out = [np.zeros((len(idx), len(idx)), dtype=dtype) for idx in sectors]
        for idx, block in zip(_partition(dims, kind), blocks):
            at = pos[idx]
            out[owner[idx[0]]][np.ix_(at, at)] = block
        return out
    owner, pos = _locate(dims, kind)
    return [blocks[owner[idx[0]]][np.ix_(pos[idx], pos[idx])] for idx in sectors]


def _over(state: FockDensity, target: str) -> list:
    """Diagonal blocks of the state over the target partition, read from
    its carried chain blocks where those suffice."""
    if target == "chains" and state._chains is not None:
        return state._chains
    return _regroup(state.dims, *_structure(state), target)


def _assemble(dims: Tuple[int, ...], kind: str, blocks) -> np.ndarray:
    """Dense rho from blocks over a partition."""
    if kind == "diagonal":
        return np.diag(blocks)
    size = int(np.prod(dims, dtype=int))
    rho = np.zeros((size, size), dtype=np.result_type(float, *blocks))
    for idx, block in zip(_partition(dims, kind), blocks):
        rho[np.ix_(idx, idx)] = block
    return rho


def _symmetrized(blocks: list) -> list:
    return [0.5 * (b + b.T) for b in blocks]


def _squeeze(dims: Tuple[int, ...], kind: str, blocks, step: _Squeeze) -> Tuple[str, list]:
    """(kind, blocks) of U rho U^T for one squeeze step U."""
    if step.kind == "two_mode":
        if kind == "diagonal":
            pairs = zip(step.parts, _partition(dims, "chains"))
            if blocks.min() >= 0.0:
                # W W^T with W = U sqrt(p): numpy forms it exactly symmetric
                root = np.sqrt(blocks)
                return "chains", [w @ w.T for w in (u * root[idx] for u, idx in pairs)]
            return "chains", _symmetrized([(u * blocks[idx]) @ u.T for u, idx in pairs])
        if kind == "chains":
            return "chains", _symmetrized([u @ b @ u.T for u, b in zip(step.parts, blocks)])
        # parity halves or the whole matrix: each chain's rows, then columns
        owner, pos = _locate(dims, kind)
        out = [np.array(b, dtype=np.result_type(float, b)) for b in blocks]
        pairs = list(zip(_partition(dims, "chains"), step.parts))
        for idx, u in pairs:
            b, at = out[owner[idx[0]]], pos[idx]
            b[at, :] = u @ b[at, :]
        for idx, u in pairs:
            b, at = out[owner[idx[0]]], pos[idx]
            b[:, at] = b[:, at] @ u.T
        return kind, _symmetrized(out)
    # local: the even/odd level parts act on the mode's axes of each pair
    # of orthants of the parity halves (or of the whole basis)
    if kind != "whole":
        kind, blocks = "parity", _regroup(dims, kind, blocks, "parity")
    n, i = len(dims), step.mode
    out = []
    for layout, block in zip(_orthants(dims, kind), blocks):
        new = np.empty_like(block, dtype=np.result_type(float, block))
        for rows, row_shape, row_slice in layout:
            left = step.parts[rows[i]]
            for cols, col_shape, col_slice in layout:
                t = block[row_slice, col_slice].reshape(row_shape + col_shape)
                t = np.moveaxis(np.tensordot(left, t, axes=(1, i)), 0, i)
                t = np.tensordot(t, step.parts[cols[i]], axes=(n + i, 1))
                new[row_slice, col_slice] = np.moveaxis(t, -1, n + i).reshape(
                    row_slice.stop - row_slice.start, col_slice.stop - col_slice.start)
        out.append(new)
    return kind, _symmetrized(out)


@lru_cache(maxsize=None)
def _local_plan(dims: Tuple[int, int], mode: int) -> tuple:
    """Index plans of _local_over_chains for a local squeeze on `mode`.

    The grid has axes (shift t, level of the squeezed mode, level of the
    other mode); a cell names the chain-block entry between the basis
    state with those levels and the state t lower on both modes.  take maps
    each cell to that entry in the chain blocks raveled and concatenated,
    or to one padding zero after them where the lower state is outside the
    basis; back maps each entry to its cell.  partner maps each (t, a, n)
    to (a - t, n - t) in the raveled d x d level matrix, or to a padding
    zero after it.  Returns (take, back, partner, block starts, block
    sizes).
    """
    d, width = dims[mode], min(dims)
    shift = np.arange(1 - width, width)[:, None, None]
    level = np.arange(d)[None, :, None]
    other = np.arange(dims[1 - mode])[None, None, :]
    l0, l1 = (level, other) if mode == 0 else (other, level)
    sizes = np.array([len(idx) for idx in _partition(dims, "chains")])
    starts = np.concatenate(([0], np.cumsum(sizes * sizes)))
    chain = l0 - l1 + dims[1] - 1
    size = sizes[chain]
    # a state's position along its chain is its lower level
    row = np.minimum(l0, l1)
    col = row - shift
    inside = (col >= 0) & (col < size)
    take = np.where(inside, starts[chain] + row * size + col, starts[-1])
    back = np.empty(starts[-1], dtype=np.intp)
    back[take[inside]] = np.flatnonzero(inside)
    lower = np.arange(d) - shift
    fits = (lower >= 0) & (lower < d)
    partner = np.where(
        fits.transpose(0, 2, 1) & fits, lower.transpose(0, 2, 1) * d + lower, d * d)
    plan = (take, back, partner, starts[:-1], sizes)
    for a in plan:
        a.flags.writeable = False
    return plan


def _local_over_chains(dims: Tuple[int, int], chain_blocks, step: _Squeeze) -> list:
    """Blocks over the n0 - n1 chains of L rho L^T, for a local squeeze
    step L and a two-mode rho held exactly by its chain blocks.

    For a squeeze on mode 0 and a shift t, the entry between (a, m) and
    (a - t, m - t) is sum_n L[a, n] L[a - t, n - t] rho[(n, m), (n - t, m - t)]:
    only rho's chain blocks enter, and each shift is one product K_t S_t
    with K_t[a, n] = L[a, n] L[a - t, n - t] and S_t[n, m] gathered from
    the chain blocks.  All shifts make one batched matmul, about 4 d^4
    flops for d levels per mode; mode 1 follows with the roles swapped.
    """
    take, back, partner, starts, sizes = _local_plan(dims, step.mode)
    d = dims[step.mode]
    level = np.zeros((d, d))
    level[0::2, 0::2], level[1::2, 1::2] = step.parts
    kernel = level * np.append(level.ravel(), 0.0)[partner]
    flat = np.concatenate([b.ravel() for b in chain_blocks] + [np.zeros(1)])
    out = np.matmul(kernel, flat[take]).ravel()[back]
    return _symmetrized([out[s : s + n * n].reshape(n, n) for s, n in zip(starts, sizes)])


def fock_apply_squeeze(
    state: FockDensity,
    kind: str,
    r: float,
    modes: Union[int, Sequence[int], None] = None,
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

    Raises:
        NumericalGuardError: the top-two-level mass of a squeezed mode
            after the transform (its truncation defect) exceeds
            DEFECT_TOL.
    """
    dims = state.dims
    if kind == "two_mode":
        if len(dims) != 2 or (modes is not None and tuple(modes) != (0, 1)):
            raise ValidationError("two_mode squeeze acts on modes (0, 1)")
        # the generator conserves n0 - n1, so the truncated unitary is a
        # direct sum of chain exponentials, one per distinct chain
        chains = [ch for _, ch in _two_mode_chains(*dims)]
        step = _Squeeze("two_mode", 0, _chain_exps(chains, float(r)))
        touched = (0, 1)
    elif kind == "local":
        i = 0 if modes is None else int(modes)
        if not 0 <= i < len(dims):
            raise ValidationError("invalid mode index %r" % (modes,))
        # one chain over the mode's even levels and one over its odd ones
        step = _Squeeze("local", i, _chain_exps(_local_chains(dims[i]), float(r)))
        touched = (i,)
    else:
        raise ValidationError("unknown squeeze kind %r" % (kind,))

    kind, blocks = _structure(state)
    chains = None
    if step.kind == "local" and len(dims) == 2 and kind in ("diagonal", "chains"):
        # the input is held exactly by its chain blocks: carry the output's
        # chain blocks; its parity halves wait for a reader
        chains = _local_over_chains(dims, _regroup(dims, kind, blocks, "chains"), step)
        kind, blocks = "parity", partial(_squeeze, dims, kind, blocks, step)
    else:
        kind, blocks = _squeeze(dims, kind, blocks, step)
    squeezes = None if state._spectrum is None else state._squeezes + (step,)
    out = _built(dims, state.trace_deficit, kind, blocks, state._spectrum, squeezes, chains)
    pops = mode_populations(out)
    for i in touched:
        defect = float(pops[i][-2:].sum())
        if defect > DEFECT_TOL:
            raise NumericalGuardError(
                "truncation defect %.3e on mode %d (raise dims or lower r)"
                % (defect, i)
            )
    return out


def _self_term(state: FockDensity) -> float:
    """Tr rho log rho by spectral calculus (0 log 0 = 0): the carried
    spectrum, else the diagonal or per-sector eigenvalues."""
    if state._spectrum is not None:
        p = state._spectrum
    else:
        kind, blocks = _structure(state)
        if kind == "diagonal":
            p = blocks
        else:
            p = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
    if p.min() < -1e-10:
        raise ValidationError("matrix is not positive semidefinite")
    p = p[p > 1e-18]
    return float(np.sum(p * np.log(p)))


def _pushed_back_diagonal(rho: FockDensity, squeezes: tuple) -> np.ndarray:
    """Diagonal of U^T rho U, U the product of the squeezes in the order
    applied: rho is pushed back through their transposes in reverse."""
    if not squeezes:
        return _state_diagonal(rho)
    dims = rho.dims
    first, rest = squeezes[0], squeezes[1:]
    # only the diagonal is read after the first squeeze, and it depends only
    # on rho's blocks over the sectors that squeeze mixes within
    target = "chains" if first.kind == "two_mode" else "parity"
    if rest:
        kind, blocks = _structure(rho)
        for step in reversed(rest):
            kind, blocks = _squeeze(dims, kind, blocks, step.transposed())
        blocks = _regroup(dims, kind, blocks, target)
    else:
        blocks = _over(rho, target)
    if first.kind == "two_mode":
        # diag(U^T B U) per chain, with no off-diagonal entries formed
        return _scattered(
            dims, "chains", [np.einsum("ik,ik->k", u, b @ u) for u, b in zip(first.parts, blocks)])
    return _diagonal(dims, *_squeeze(dims, target, blocks, first.transposed()))


def fock_relative_entropy(rho: FockDensity, sigma: FockDensity) -> float:
    """Tr rho log rho - Tr rho log sigma on the kept subspace, in nats.

    A sigma built by this module carries its exact spectrum q and the
    squeezes U whose product holds its eigenvectors, so the cross term is
    sum_k log q_k [U^T rho U]_kk with no eigensolver.  If rho puts more
    than 1e-7 of its mass on directions with q below 1e-14 the value is
    divergent and +inf is returned (with a warning); smaller mass there
    is charged at log q, and left out where q underflows to 0.

    A user-built sigma, or the output of truncate, carries no spectrum.
    When diagonal it uses its exact diagonal down to underflow, and rho's
    mass on exactly zero entries is left out; otherwise it is
    eigendecomposed (per sector when it has no weight between sectors;
    rho then enters only through its diagonal sector blocks) and
    eigenvalues below 1e-14 (eigh noise level) are floored before the
    log, so rho's mass there is charged at log(1e-14).  The same 1e-7
    support rule applies to the dead/floored directions.

    Args:
        rho, sigma: density matrices with matching dims.
    """
    if rho.dims != sigma.dims:
        raise ValidationError("dims mismatch between rho and sigma")
    self_term = _self_term(rho)
    if sigma._spectrum is not None:
        q = sigma._spectrum
        masses = _pushed_back_diagonal(rho, sigma._squeezes)
        dead = q < SIGMA_FLOOR
        log_q = np.log(np.where(q > 0.0, q, 1.0))
    else:
        kind, sig_blocks = _structure(sigma)
        if kind == "diagonal":
            q = sig_blocks.copy()
            masses = _state_diagonal(rho)
            dead = q < 1e-300
            # exact zeros: the mass there is dropped (charged at log 1)
            q[dead] = 1.0
        else:
            qs, ms = [], []
            for s_blk, r_blk in zip(sig_blocks, _over(rho, kind)):
                q, v = np.linalg.eigh(s_blk)
                qs.append(q)
                ms.append(np.einsum("ik,ik->k", v, r_blk @ v))
            q, masses = np.concatenate(qs), np.concatenate(ms)
            dead = q < SIGMA_FLOOR
            q = np.maximum(q, SIGMA_FLOOR)
        log_q = np.log(q)
    lost = float(masses[dead].sum())
    if lost > SUPPORT_MASS_TOL:
        warnings.warn(
            "rho mass %.3e outside sigma's numerical support; "
            "relative entropy diverges" % lost
        )
        return float("inf")
    cross = float(masses @ log_q)
    return self_term - cross


def truncate(state: FockDensity, drop: int) -> FockDensity:
    """Remove the top `drop` levels of every mode and renormalize.

    A built state keeps its partition (not its spectrum)."""
    if drop < 0:
        raise ValidationError("drop must be >= 0, got %r" % (drop,))
    dims = state.dims
    new_dims = tuple(d - drop for d in dims)
    if min(new_dims) < 2:
        raise ValidationError("truncation would leave fewer than 2 levels")
    kept = tuple(slice(0, d) for d in new_dims)
    if state._kind is None:
        size = int(np.prod(new_dims, dtype=int))
        rho = state.rho.reshape(dims + dims)[kept + kept].reshape(size, size)
        tr = float(np.trace(rho))
        deficit = 1.0 - (1.0 - state.trace_deficit) * tr
        return FockDensity(dims=new_dims, rho=rho / tr, trace_deficit=deficit)
    kind = state._kind
    if kind == "diagonal":
        blocks = state._blocks.reshape(dims)[kept].ravel()
    else:
        # each sector keeps its states below the new cutoffs, in order; the
        # sectors left non-empty are those of the new dims' partition
        blocks = []
        for idx, block in zip(_partition(dims, kind), state._blocks):
            levels = np.array(np.unravel_index(idx, dims))
            keep = np.flatnonzero(np.all(levels < np.array(new_dims)[:, None], axis=0))
            if keep.size:
                blocks.append(block[np.ix_(keep, keep)])
    tr = float(np.sum(_diagonal(new_dims, kind, blocks)))
    deficit = 1.0 - (1.0 - state.trace_deficit) * tr
    blocks = blocks / tr if kind == "diagonal" else [b / tr for b in blocks]
    return _built(new_dims, deficit, kind, blocks)


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
