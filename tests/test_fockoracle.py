"""Tests for the truncated Fock-space oracle."""

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from gree import (
    FockDensity,
    NumericalGuardError,
    ValidationError,
    bosonic_entropy,
    elementary_transform,
    fock_apply_squeeze,
    fock_product,
    fock_relative_entropy,
    fock_schmidt_entropy,
    fock_thermal,
    mode_populations,
    relative_entropy,
    tmsv_cm,
)
from gree import fockoracle
from gree.fockoracle import _partition, _regroup, _squeeze, truncate

THERMAL_ANCHOR = 0.0849495183976987


def fock_entropy(state):
    """Von Neumann entropy -Tr rho log rho in nats."""
    return -fockoracle._self_term(state)


def fock_truncation_sensitivity(rho, sigma, drop=5):
    """|value change| of fock_relative_entropy when all dims shrink by drop."""
    full = fock_relative_entropy(rho, sigma)
    small = fock_relative_entropy(truncate(rho, drop), truncate(sigma, drop))
    return abs(full - small)


def fock_covariance(state):
    """Quadrature second moments 1/2 <{F_j, F_k}> in (q.., p..) order.

    Means are not subtracted (the states in scope are zero-mean), so for
    a Gaussian input this reproduces its CM.  Each F_k rho is one ladder
    contraction on a row axis of rho as a dims + dims tensor, and
    Tr(F_j F_k rho) reads it traced down to F_j's mode.
    """
    dims = state.dims
    n = len(dims)
    t = state.rho.reshape(dims + dims)
    ladders = [np.diag(np.sqrt(np.arange(1.0, d)), 1) for d in dims]
    ops = [(i, (a + a.T) / np.sqrt(2.0)) for i, a in enumerate(ladders)]
    ops += [(i, 1j * (a.T - a) / np.sqrt(2.0)) for i, a in enumerate(ladders)]
    g = np.empty((2 * n, 2 * n), dtype=complex)
    for k, (mode_k, f_k) in enumerate(ops):
        applied = np.moveaxis(np.tensordot(f_k, t, axes=(1, mode_k)), 0, mode_k)
        for j, (mode_j, f_j) in enumerate(ops):
            # F_k rho traced over every mode but mode_j's: rows and columns
            # share their labels except on that mode
            cols = [n if m == mode_j else m for m in range(n)]
            reduced = np.einsum(applied, list(range(n)) + cols, [mode_j, n])
            g[j, k] = np.sum(f_j * reduced.T)
    return np.real(0.5 * (g + g.T))


def test_fock_thermal_populations_are_geometric():
    gamma, dim = 1.2, 25
    state = fock_thermal(gamma, dim)
    q = (2 * gamma - 1) / (2 * gamma + 1)
    pops = mode_populations(state)[0]
    expect = (1 - q) * q ** np.arange(dim)
    np.testing.assert_allclose(pops, expect, atol=1e-12)
    assert state.trace_deficit < 1e-6


def test_fock_thermal_rejects_sub_vacuum():
    with pytest.raises(ValidationError):
        fock_thermal(0.4, 10)


def test_fock_covariance_thermal():
    np.testing.assert_allclose(
        fock_covariance(fock_thermal(1.2, 30)), 1.2 * np.eye(2), atol=1e-6
    )


def test_two_mode_relative_entropy_loads_no_scipy():
    code = (
        "import sys, gree\n"
        "def pair(g0, g1):\n"
        "    return gree.fock_product(gree.fock_thermal(g0, 10), gree.fock_thermal(g1, 10))\n"
        "rho = gree.fock_apply_squeeze(pair(0.6, 0.7), 'two_mode', 0.3)\n"
        "sigma = gree.fock_apply_squeeze(pair(0.9, 0.8), 'two_mode', 0.2)\n"
        "assert gree.fock_relative_entropy(rho, sigma) > 0.0\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    src = str(Path(fockoracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_fock_entropy_matches_bosonic_entropy():
    gamma = 1.1
    got = fock_entropy(fock_thermal(gamma, 40))
    assert abs(got - bosonic_entropy(gamma - 0.5)) < 1e-6


def test_fock_product_dims_and_trace():
    a, b = fock_thermal(0.8, 8), fock_thermal(1.0, 9)
    pair = fock_product(a, b)
    assert pair.dims == (8, 9)
    # states are renormalized, deficits combine multiplicatively
    assert abs(np.trace(pair.rho) - 1.0) < 1e-12
    combined = 1 - (1 - a.trace_deficit) * (1 - b.trace_deficit)
    assert abs(pair.trace_deficit - combined) < 1e-15


def test_thermal_relative_entropy_anchor():
    rho = fock_thermal(1.0, 30)
    sigma = fock_thermal(1.5, 30)
    assert abs(fock_relative_entropy(rho, sigma) - THERMAL_ANCHOR) < 1e-4


def test_relative_entropy_of_identical_states_is_zero():
    state = fock_apply_squeeze(
        fock_product(fock_thermal(0.9, 20), fock_thermal(1.1, 20)), "two_mode", 0.3
    )
    assert abs(fock_relative_entropy(state, state)) < 1e-10


def test_two_mode_squeeze_reproduces_tmsv_covariance():
    r = 0.4
    vac = fock_product(fock_thermal(0.5, 25), fock_thermal(0.5, 25))
    state = fock_apply_squeeze(vac, "two_mode", r)
    np.testing.assert_allclose(fock_covariance(state), tmsv_cm(r), atol=1e-6)


def test_local_squeeze_scales_quadratures():
    s = 0.3
    state = fock_apply_squeeze(fock_thermal(1.0, 30), "local", s)
    expect = np.diag([math.exp(2 * s), math.exp(-2 * s)])
    np.testing.assert_allclose(fock_covariance(state), expect, atol=1e-6)


def test_truncation_defect_guard():
    with pytest.raises(NumericalGuardError, match="defect"):
        fock_apply_squeeze(fock_thermal(1.4, 6), "local", 1.0)


def test_divergence_outside_sigma_support():
    # a cold (dense-path) sigma cannot carry a hot rho's tail: the
    # truncated value is reported as +inf rather than a large junk number
    rho = fock_thermal(1.4, 30)
    sigma = fock_apply_squeeze(fock_thermal(0.551, 30), "local", 0.1)
    with pytest.warns(UserWarning, match="support"):
        assert math.isinf(fock_relative_entropy(rho, sigma))


def test_dims_mismatch_rejected():
    with pytest.raises(ValidationError):
        fock_relative_entropy(fock_thermal(1.0, 10), fock_thermal(1.0, 12))


def test_truncation_sensitivity_small_for_covered_states():
    rho = fock_thermal(0.9, 25)
    sigma = fock_thermal(1.2, 25)
    shift = fock_truncation_sensitivity(rho, sigma, drop=2)
    assert shift < 1e-6


def test_schmidt_entropy_closed_form():
    for r in (0.2, 0.5, 0.8):
        expect = bosonic_entropy(math.sinh(r) ** 2)
        assert abs(fock_schmidt_entropy(r, 60) - expect) < 1e-8


def test_truncate_combines_trace_deficits():
    state = fock_product(fock_thermal(1.3, 12), fock_thermal(1.1, 12))
    small = truncate(state, 3)
    kept = float(np.trace(state.rho.reshape(12, 12, 12, 12)[:9, :9, :9, :9].reshape(81, 81)))
    assert small.dims == (9, 9)
    assert abs(np.trace(small.rho) - 1.0) < 1e-12
    assert abs(small.trace_deficit - (1 - (1 - state.trace_deficit) * kept)) < 1e-15
    assert small.trace_deficit > state.trace_deficit


def _indefinite_two_mode():
    # no weight between n0 - n1 sectors, but the (|00>, |11>) block has
    # eigenvalues 0.65 and -0.05
    rho = np.diag([0.3, 0.4, 0.0, 0.0, 0.0, 0.3] + [0.0] * 10)
    rho[0, 5] = rho[5, 0] = 0.35
    return FockDensity((4, 4), rho, 0.0)


@pytest.mark.parametrize(
    "rho",
    [
        # diagonal path: the negative entry is not the first one
        FockDensity((3,), np.diag([0.6, 0.7, -0.3]), 0.0),
        _indefinite_two_mode(),  # per-sector path
        FockDensity((3,), np.array([[0.5, 0.6, 0.0], [0.6, 0.5, 0.0], [0.0, 0.0, 0.0]]), 0.0),
    ],
    ids=["diagonal", "sector", "dense"],
)
def test_indefinite_rho_rejected_on_every_path(rho):
    sigma = fock_product(*(fock_thermal(1.2, d) for d in rho.dims))
    with pytest.raises(ValidationError, match="positive semidefinite"):
        fock_relative_entropy(rho, sigma)
    with pytest.raises(ValidationError, match="positive semidefinite"):
        fock_entropy(rho)


# dense references at small dims: the truncated unitaries built from the full
# d^2 x d^2 generators and entropies from whole-matrix eigendecompositions

DIM = 12


def _ladders(dims):
    d0, d1 = dims
    return (np.kron(np.diag(np.sqrt(np.arange(1.0, d0)), 1), np.eye(d1)),
            np.kron(np.eye(d0), np.diag(np.sqrt(np.arange(1.0, d1)), 1)))


def _dense_two_mode(r, d=DIM):
    a0, a1 = _ladders((d, d))
    return expm(r * (a0.T @ a1.T - a0 @ a1))


def _dense_local(s, mode, dims=(DIM, DIM)):
    a = _ladders(dims)[mode]
    return expm(0.5 * s * (a.T @ a.T - a @ a))


def _dense_relative_entropy(rho, sigma):
    p = np.linalg.eigvalsh(rho)
    p = p[p > 1e-18]
    q, v = np.linalg.eigh(sigma)
    masses = np.einsum("ik,ik->k", v, rho @ v)
    return float(p @ np.log(p) - masses @ np.log(q))


def _pair(g0, g1, d=DIM, d1=None):
    return fock_product(fock_thermal(g0, d), fock_thermal(g1, d if d1 is None else d1))


def test_two_mode_squeeze_of_product_matches_dense():
    r = 0.35
    state = _pair(0.6, 0.75)
    got = fock_apply_squeeze(state, "two_mode", r)
    u = _dense_two_mode(r)
    np.testing.assert_allclose(got.rho, u @ state.rho @ u.T, rtol=0, atol=1e-12)
    sigma = fock_apply_squeeze(_pair(0.9, 0.8), "two_mode", 0.25)
    expect = _dense_relative_entropy(got.rho, sigma.rho)
    assert abs(fock_relative_entropy(got, sigma) - expect) <= 1e-12


def test_two_mode_squeeze_of_locally_squeezed_input_matches_dense():
    state = _pair(0.6, 0.7)
    local = fock_apply_squeeze(state, "local", 0.2, 1)
    lu = _dense_local(0.2, 1)
    np.testing.assert_allclose(local.rho, lu @ state.rho @ lu.T, rtol=0, atol=1e-12)
    got = fock_apply_squeeze(local, "two_mode", -0.3)
    u = _dense_two_mode(-0.3)
    np.testing.assert_allclose(got.rho, u @ local.rho @ u.T, rtol=0, atol=1e-12)


def _random_dense(seed, d=DIM):
    # full rank, no sector structure, eigenvalues well above eigh noise
    x = np.random.default_rng(seed).normal(size=(d * d, d * d))
    m = x @ x.T + d * d * np.eye(d * d)
    return FockDensity((d, d), m / np.trace(m), 0.0)


@pytest.mark.parametrize(
    "rho_kind, sigma_kind", [("local", "sector"), ("sector", "dense"), ("dense", "dense")]
)
def test_relative_entropy_matches_dense(rho_kind, sigma_kind):
    sector = fock_apply_squeeze(_pair(0.6, 0.7), "two_mode", 0.3)
    rho = {
        "local": fock_apply_squeeze(sector, "local", -0.15, 0),
        "sector": sector,
        "dense": _random_dense(5),
    }[rho_kind]
    if sigma_kind == "sector":
        sigma = fock_apply_squeeze(_pair(0.9, 0.8), "two_mode", 0.2)
    else:
        sigma = _random_dense(6)
    expect = _dense_relative_entropy(rho.rho, sigma.rho)
    assert abs(fock_relative_entropy(rho, sigma) - expect) <= 1e-12
    assert abs(fock_entropy(rho) + _dense_relative_entropy(rho.rho, np.eye(DIM * DIM))) <= 1e-12


def test_squeezes_leave_exact_zeros_between_sectors():
    n0, n1 = np.divmod(np.arange(DIM * DIM), DIM)
    diff = n0 - n1
    two_mode = fock_apply_squeeze(_pair(0.6, 0.7), "two_mode", 0.3)
    off_sector = diff[:, None] != diff[None, :]
    assert np.count_nonzero(two_mode.rho[off_sector]) == 0
    assert np.count_nonzero(two_mode.rho[~off_sector]) > 0
    local = fock_apply_squeeze(two_mode, "local", 0.1, 0)
    off_parity = (diff[:, None] - diff[None, :]) % 2 == 1
    assert np.count_nonzero(local.rho[off_parity]) == 0
    assert np.count_nonzero(local.rho[off_sector & ~off_parity]) > 0


def _forbid_parity_halves(monkeypatch):
    # every parity-half build, eager or deferred, runs _squeeze on a local step
    def squeeze(dims, kind, blocks, step):
        assert step.kind != "local", "parity halves were built"
        return _squeeze(dims, kind, blocks, step)

    monkeypatch.setattr(fockoracle, "_squeeze", squeeze)


@pytest.mark.parametrize("dims", [(10, 7), (7, 10)])
@pytest.mark.parametrize("mode", [0, 1])
@pytest.mark.parametrize("s", [0.25, -0.25])
def test_local_squeeze_over_chains_matches_dense(dims, mode, s):
    chained = fock_apply_squeeze(_pair(0.6, 0.7, *dims), "two_mode", 0.3, defect_tol=1.0)
    got = fock_apply_squeeze(chained, "local", s, mode, defect_tol=1.0)
    assert got._kind == "parity" and callable(got._held)
    # the dense branch on the input's chain blocks, regrouped to the chains
    dense = _regroup(dims, *_squeeze(dims, "chains", chained._blocks, got._squeezes[-1]), "chains")
    u = _dense_local(s, mode, dims)
    expect = u @ chained.rho @ u.T
    for idx, block, ref in zip(_partition(dims, "chains"), got._chains, dense):
        np.testing.assert_allclose(block, ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(block, expect[np.ix_(idx, idx)], rtol=0, atol=1e-14)
    np.testing.assert_allclose(got.rho, expect, rtol=0, atol=1e-12)
    assert not callable(got._held)


def test_locally_squeezed_sigma_over_a_chain_rho_matches_dense():
    rho = fock_apply_squeeze(_pair(0.6, 0.7), "two_mode", 0.3)
    two_mode = fock_apply_squeeze(_pair(0.9, 0.8), "two_mode", 0.25)
    got = fock_relative_entropy(rho, fock_apply_squeeze(two_mode, "local", -0.15, 1))
    u = _dense_local(-0.15, 1)
    assert abs(got - _dense_relative_entropy(rho.rho, u @ two_mode.rho @ u.T)) <= 1e-12


def test_locally_squeezed_rho_at_dim_45_builds_no_parity_halves(monkeypatch):
    _forbid_parity_halves(monkeypatch)
    dim = 45
    two_mode = fock_apply_squeeze(_pair(0.9, 0.7, dim), "two_mode", 0.3)
    two_mode_sigma = fock_apply_squeeze(_pair(1.3, 1.2, dim), "two_mode", 0.2)
    two_mode_local = fock_apply_squeeze(two_mode, "local", 0.12, 0)
    value = fock_relative_entropy(two_mode_local, two_mode_sigma)
    assert math.isfinite(value) and value > 0.0


def test_deferred_parity_halves_survive_pickling():
    # process pools pickle their arguments; the deferred build must travel
    state = fock_apply_squeeze(
        fock_apply_squeeze(_pair(0.6, 0.7), "two_mode", 0.3), "local", 0.1, 0)
    copy = pickle.loads(pickle.dumps(state))
    assert callable(copy._held)
    np.testing.assert_array_equal(copy.rho, state.rho)


def _local_pair_errors(g_rho, g_sig, r_rho, r_sig, s_local):
    """|gaussian - fock| at dims 30 and 45 for a benchmark-style pair whose
    rho is locally squeezed on mode 0 after its two-mode squeeze."""
    s_rho = elementary_transform("two_mode_squeeze_qq", r_rho)
    s_sig = elementary_transform("two_mode_squeeze_qq", r_sig)
    local = np.diag([math.exp(s_local), 1.0, math.exp(-s_local), 1.0])
    alpha_rho = local @ s_rho @ np.diag(g_rho + g_rho) @ s_rho.T @ local.T
    alpha_sig = s_sig @ np.diag(g_sig + g_sig) @ s_sig.T
    gauss = relative_entropy(alpha_rho, alpha_sig).value
    errors = {}
    for dim in (30, 45):
        rho = fock_apply_squeeze(
            fock_product(fock_thermal(g_rho[0], dim), fock_thermal(g_rho[1], dim)),
            "two_mode", r_rho)
        rho = fock_apply_squeeze(rho, "local", s_local, 0)
        sigma = fock_apply_squeeze(
            fock_product(fock_thermal(g_sig[0], dim), fock_thermal(g_sig[1], dim)),
            "two_mode", r_sig)
        errors[dim] = abs(fock_relative_entropy(rho, sigma) - gauss)
    return errors


def test_dead_sigma_mass_is_charged_on_a_locally_squeezed_pair():
    # a locally squeezed rho puts ~1e-11 of its mass on sigma eigen-directions
    # below SIGMA_FLOOR; leaving that mass out moved the dim-45 value about
    # 4.6e-10 away from the Gaussian one
    errors = _local_pair_errors(
        (0.980387431116233, 0.6266026375380961),
        (1.1614420844495412, 1.2730669677773594),
        0.0780556545197933, 0.27364870546278375, 0.13904883520678216)
    assert errors[45] <= errors[30]


@pytest.mark.parametrize(
    "g_rho, g_sig, r_rho, r_sig, s_local",
    [
        ((0.8635538775086699, 0.865477834293521), (1.1502692382677204, 1.2010507330189564),
         -0.34736535623057896, -0.17436142437382113, 0.1483550676494623),
        ((0.8508931588441111, 0.8618533860385732), (1.1294092630007901, 1.1601588016206494),
         0.3441060953308889, 0.18285143328180364, 0.13137554829566253),
    ],
    ids=["seed7-round127", "seed24-round69"],
)
def test_sub_floor_sigma_mass_is_charged_at_the_carried_spectrum(g_rho, g_sig, r_rho, r_sig, s_local):
    # benchmark pool pairs where charging rho's sub-floor mass at
    # log(SIGMA_FLOOR) put dim 45 further from the Gaussian value than
    # dim 30 (8.2e-12 vs 1.2e-12 and 3.2e-12 vs 2.2e-12); a built sigma's
    # spectrum is exact, so that mass is charged at log q
    errors = _local_pair_errors(g_rho, g_sig, r_rho, r_sig, s_local)
    assert errors[45] <= errors[30] + 1e-12


def _built_states():
    product = _pair(0.9, 1.0)
    two_mode = fock_apply_squeeze(product, "two_mode", 0.3)
    two_mode_local = fock_apply_squeeze(two_mode, "local", -0.15, 0)
    local = fock_apply_squeeze(product, "local", 0.2, 1)
    return {
        "product": product,
        "two_mode": two_mode,
        "local": local,
        "local-two_mode": fock_apply_squeeze(local, "two_mode", -0.25),
        "two_mode-local": two_mode_local,
        "truncate-chains": truncate(two_mode, 3),
        "truncate-parity": truncate(two_mode_local, 3),
    }


@pytest.mark.parametrize("name", list(_built_states()))
def test_carried_structure_matches_scan_path(name):
    # a built state and its user-built copy (structure read from exact
    # zeros, spectra from eigensolvers) give the same entropies on either
    # side of the relative entropy
    state = _built_states()[name]
    foreign = FockDensity(state.dims, state.rho, state.trace_deficit)
    cold = fock_apply_squeeze(_pair(0.6, 0.7), "two_mode", 0.2)
    hot = fock_apply_squeeze(_pair(1.2, 1.1), "two_mode", 0.1)
    if state.dims != cold.dims:
        cold, hot = truncate(cold, DIM - state.dims[0]), truncate(hot, DIM - state.dims[0])
    assert abs(fock_entropy(state) - fock_entropy(foreign)) <= 1e-12
    for rho, sigma in ((state, hot), (cold, state), (state, state)):
        as_foreign = (foreign if rho is state else rho, foreign if sigma is state else sigma)
        got = fock_relative_entropy(rho, sigma)
        assert abs(got - fock_relative_entropy(*as_foreign)) <= 1e-12
    if name.startswith("truncate"):
        assert state._spectrum is None
    else:
        spectrum = np.sort(state._spectrum)
        np.testing.assert_allclose(spectrum, np.linalg.eigvalsh(state.rho), rtol=0, atol=1e-13)


def test_truncate_of_built_state_matches_dense_truncate():
    for state in _built_states().values():
        foreign = FockDensity(state.dims, state.rho, state.trace_deficit)
        small, expect = truncate(state, 2), truncate(foreign, 2)
        assert small.dims == expect.dims
        np.testing.assert_allclose(small.rho, expect.rho, rtol=0, atol=1e-15)
        assert abs(small.trace_deficit - expect.trace_deficit) <= 1e-15


def test_truncate_rejects_negative_drop():
    with pytest.raises(ValidationError, match="drop"):
        truncate(_pair(0.9, 1.0), -1)


# per-chain work of the two-mode squeeze and of the push-back


@pytest.mark.parametrize("dims", [(9, 9), (9, 6), (6, 9)])
def test_mirror_chains_share_one_chain_equal_to_a_fresh_one(dims):
    d0, d1 = dims
    diffs = range(-(d1 - 1), d0)
    chains = dict(zip(diffs, fockoracle._two_mode_chains(*dims)))
    for diff, (idx, chain) in chains.items():
        n0, m0 = max(diff, 0), max(-diff, 0)
        k = np.arange(len(idx) - 1)
        fresh = fockoracle._chain(np.sqrt((n0 + k + 1.0) * (m0 + k + 1.0)))
        for got, expect in zip(chain, fresh):
            np.testing.assert_array_equal(got, expect)
        if -diff in chains:
            mirror = chains[-diff][1]
            assert (mirror is chain) == (len(mirror.lam) == len(chain.lam))
    distinct = {id(chain) for _, chain in chains.values()}
    assert len(distinct) == (d0 if d0 == d1 else d0 + d1 - 1)


def test_two_mode_squeeze_runs_one_exponential_per_distinct_chain(monkeypatch):
    calls = []
    chain_exp = fockoracle._chain_exp

    def counted(chain, r):
        calls.append(chain)
        return chain_exp(chain, r)

    monkeypatch.setattr(fockoracle, "_chain_exp", counted)
    state = fock_apply_squeeze(_pair(0.6, 0.7), "two_mode", 0.3)
    assert len(calls) == len({id(chain) for chain in calls}) == DIM
    parts = state._squeezes[-1].parts
    assert len(parts) == 2 * DIM - 1
    for k in range(1, DIM):
        # sectors n0 - n1 = +k and -k hold the same read-only exponential
        assert parts[DIM - 1 + k] is parts[DIM - 1 - k]
    assert not any(u.flags.writeable for u in parts)


def test_squeezed_thermal_chain_blocks_are_symmetric_by_construction():
    product = _pair(0.6, 0.7, 12, 9)
    p = product._blocks
    state = fock_apply_squeeze(product, "two_mode", 0.3, defect_tol=1.0)
    assert state._kind == "chains"
    chains = _partition(state.dims, "chains")
    for b, u, idx in zip(state._blocks, state._squeezes[-1].parts, chains):
        np.testing.assert_array_equal(b, b.T)
        np.testing.assert_allclose(b, u @ np.diag(p[idx]) @ u.T, rtol=0, atol=1e-14)


def test_diagonal_with_a_negative_entry_takes_the_symmetrized_product():
    product = _pair(0.6, 0.7)
    parts = fock_apply_squeeze(product, "two_mode", 0.3)._squeezes[-1].parts
    p = product._blocks.copy()
    p[5] = -1e-18
    with np.errstate(invalid="raise"):
        state = fock_apply_squeeze(
            FockDensity((DIM, DIM), np.diag(p), 0.0), "two_mode", 0.3, defect_tol=1.0)
    assert state._kind == "chains"
    for b, u, idx in zip(state._blocks, parts, _partition(state.dims, "chains")):
        prod = (u * p[idx]) @ u.T
        np.testing.assert_array_equal(b, 0.5 * (prod + prod.T))


@pytest.mark.parametrize("rho_kind", ["chains", "local"])
def test_pushed_back_diagonal_matches_dense(rho_kind):
    rho = fock_apply_squeeze(_pair(0.6, 0.7), "two_mode", 0.3)
    if rho_kind == "local":
        rho = fock_apply_squeeze(rho, "local", -0.15, 0)
    sigma = fock_apply_squeeze(_pair(0.9, 0.8), "two_mode", 0.25)
    u = fockoracle._assemble(sigma.dims, "chains", sigma._squeezes[0].parts)
    got = fockoracle._pushed_back_diagonal(rho, sigma._squeezes)
    np.testing.assert_allclose(got, np.diagonal(u.T @ rho.rho @ u), rtol=0, atol=1e-14)
