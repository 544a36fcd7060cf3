"""Seeded benchmark inputs, built with plain numpy.

Nothing here imports the package under test, so the program never shapes
its own inputs.  The constructions restate the package's formulas (qqpp
ordering, vacuum variance 1/2): random covariance matrices as in
`random_cm`, oracle pairs as in the test suite's `oracle_pair`, and the
fig1/fig2 scan recipes.  Each workload gets a fixed pool of rounds; the
runner cycles through it, and `digest` hashes the whole pool so runs on
two commits can show they saw the same inputs.
"""

import hashlib
import math

import numpy as np

# rounds per pool, sized so that a run at several times the seed
# commit's speed still sees no repeated input
POOL_ROUNDS = {"search": 64, "oracle": 128, "descent": 512}

# each border family twice per round: type I (fig1), type II (fig2), the
# squeezed thermal family (pure TMSV, then TMST) and kq != kp symmetric
SEARCH_KINDS = ("fig1", "fig2", "tmsv", "symmetric", "fig1", "fig2", "tmst", "symmetric")
ORACLE_PAIRS_PER_ROUND = 4
DESCENT_MODES = (1, 2, 3)


def symplectic_form(n):
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def expm(a):
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


def random_symplectic(rng, n, scale=0.3):
    k = rng.normal(0.0, scale, (2 * n, 2 * n))
    return expm(symplectic_form(n) @ (0.5 * (k + k.T)))


def random_state(rng, n, gamma_lo, gamma_hi):
    """(CM, EM) of S diag(gamma, gamma) S^T with uniform gammas."""
    gammas = rng.uniform(gamma_lo, gamma_hi, n)
    s = random_symplectic(rng, n)
    g = np.concatenate([gammas, gammas])
    alpha = s * g @ s.T
    s_inv = np.linalg.inv(s)
    mt = np.log((2.0 * g + 1.0) / (2.0 * g - 1.0))
    m = s_inv.T * mt @ s_inv
    return 0.5 * (alpha + alpha.T), 0.5 * (m + m.T)


def _blocks(q_block, p_block):
    out = np.zeros((4, 4))
    out[:2, :2] = q_block
    out[2:, 2:] = p_block
    return out


def two_mode_squeeze_qq(r):
    ch, sh = math.cosh(r), math.sinh(r)
    return _blocks([[ch, sh], [sh, ch]], [[ch, -sh], [-sh, ch]])


def two_mode_rotation_qq(theta):
    c, s = math.cos(theta), math.sin(theta)
    rot = [[c, s], [-s, c]]
    return _blocks(rot, rot)


def local_squeeze_x(x):
    w = math.sqrt(x)
    return np.diag([w, 1.0 / w, 1.0 / w, w])


def local_rotation(theta_a, theta_b):
    s = np.eye(4)
    for i, theta in ((0, theta_a), (1, theta_b)):
        c, sn = math.cos(theta), math.sin(theta)
        s[i, i], s[i, i + 2], s[i + 2, i], s[i + 2, i + 2] = c, sn, -sn, c
    return s


def general_local(params):
    """L3 L2 L1: per-mode rotations around the local squeeze
    diag(e^tauA, e^tauB, e^-tauA, e^-tauB)."""
    ta1, tb1, tau_a, tau_b, ta2, tb2 = params
    l2 = np.diag([math.exp(tau_a), math.exp(tau_b), math.exp(-tau_a), math.exp(-tau_b)])
    return local_rotation(ta2, tb2) @ l2 @ local_rotation(ta1, tb1)


def thermal_cm(gamma_a, gamma_b):
    return np.diag([gamma_a, gamma_b, gamma_a, gamma_b])


def symmetric_cm(m, kq, kp):
    return 0.5 * _blocks([[m, kq], [kq, m]], [[m, -kp], [-kp, m]])


def type_ii_border_x(gamma_a, gamma_b, theta):
    """x' of the type II border state (the branch with x' > 1)."""
    lhs = (2.0 * gamma_a**2 - 0.5) * (2.0 * gamma_b**2 - 0.5)
    t = (lhs / math.sin(2.0 * theta) ** 2 + gamma_a**2 + gamma_b**2) / (gamma_a * gamma_b)
    return math.sqrt(0.5 * (t + math.sqrt(t * t - 4.0)))


def fig1_cm(gamma_a, gamma_b=1.5, x=1.1, offset=5.0):
    """Two-mode squeeze pushed `offset` in sinh(2r) past the type I border."""
    num = (2.0 * gamma_a**2 - 0.5) * (2.0 * gamma_b**2 - 0.5)
    den = (x * x + 1.0 / (x * x)) * gamma_a * gamma_b + gamma_a**2 + gamma_b**2
    r = 0.5 * math.asinh(math.sqrt(num / den) + offset)
    s = two_mode_squeeze_qq(-r) @ local_squeeze_x(1.0 / x)
    return s @ thermal_cm(gamma_a, gamma_b) @ s.T


def fig2_cm(gamma_a, gamma_b=1.5, sinh_2theta=0.5, offset=1.5):
    """Local squeeze pushed `offset` past the type II border."""
    theta = 0.5 * math.asinh(sinh_2theta)
    x = type_ii_border_x(gamma_a, gamma_b, theta) + offset
    s = two_mode_rotation_qq(-theta) @ local_squeeze_x(1.0 / x)
    return s @ thermal_cm(gamma_a, gamma_b) @ s.T


def _search_state(rng, kind):
    """One search input: the dressed CM plus its closed route, if any."""
    if kind == "fig1":
        cm, route = fig1_cm(rng.uniform(0.6, 3.0)), None
    elif kind == "fig2":
        cm, route = fig2_cm(rng.uniform(0.6, 3.0)), None
    elif kind == "tmsv":
        r = rng.uniform(0.1, 1.0)
        m, k = math.cosh(2.0 * r), math.sinh(2.0 * r)
        cm, route = symmetric_cm(m, k, k), ("tmst", m, k)
    elif kind == "tmst":
        m = rng.uniform(1.2, 2.2)
        k = rng.uniform(m - 0.95, math.sqrt(m * m - 1.0) - 0.05)
        cm, route = symmetric_cm(m, k, k), ("tmst", m, k)
    else:
        while True:
            m = rng.uniform(1.2, 2.2)
            kq, kp = rng.uniform(0.1, 0.9 * m, 2)
            physical = (m + kq) * (m - kp) >= 1.0 and (m - kq) * (m + kp) >= 1.0
            if physical and (m - kq) * (m - kp) < 1.0:
                break
        cm, route = symmetric_cm(m, kq, kp), ("symmetric", m, kq, kp)
    s = general_local(rng.uniform(-0.5, 0.5, 6))
    dressed = s @ cm @ s.T
    return {"kind": kind, "cm": 0.5 * (dressed + dressed.T), "route": route}


def _oracle_pair(rng, local_squeeze):
    g_rho = rng.uniform(0.55, 1.0, 2)
    g_sig = rng.uniform(1.1, 1.5, 2)
    r_rho = rng.uniform(-0.4, 0.4)
    r_sig = r_rho + rng.uniform(-0.2, 0.2)
    s_local = rng.uniform(-0.15, 0.15)
    s_rho, s_sig = two_mode_squeeze_qq(r_rho), two_mode_squeeze_qq(r_sig)
    alpha_rho = s_rho @ thermal_cm(*g_rho) @ s_rho.T
    alpha_sig = s_sig @ thermal_cm(*g_sig) @ s_sig.T
    if local_squeeze:
        # exp(s (a^+2 - a^2)/2) on mode 0 maps q0 -> e^s q0, p0 -> e^-s p0
        sq = np.diag([math.exp(s_local), 1.0, math.exp(-s_local), 1.0])
        alpha_rho = sq @ alpha_rho @ sq.T
    return {
        "alpha_rho": alpha_rho,
        "alpha_sig": alpha_sig,
        "g_rho": tuple(float(g) for g in g_rho),
        "g_sig": tuple(float(g) for g in g_sig),
        "r_rho": float(r_rho),
        "r_sig": float(r_sig),
        "local_squeeze": float(s_local) if local_squeeze else None,
    }


def _descent_pair(rng, n):
    alpha, _ = random_state(rng, n, 0.6, 2.5)
    _, sigma0_em = random_state(rng, n, 0.6, 2.5)
    return {"n": n, "alpha": alpha, "sigma0_em": sigma0_em}


def make_pool(workload, seed):
    """List of rounds; each round is the list of that workload's op inputs."""
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(POOL_ROUNDS[workload]):
        if workload == "search":
            rounds.append([_search_state(rng, kind) for kind in SEARCH_KINDS])
        elif workload == "oracle":
            rounds.append([
                _oracle_pair(rng, local_squeeze=(k == ORACLE_PAIRS_PER_ROUND - 1))
                for k in range(ORACLE_PAIRS_PER_ROUND)
            ])
        else:
            rounds.append([_descent_pair(rng, n) for n in DESCENT_MODES])
    return rounds


def digest(pool):
    """sha256 over every array and scalar in the pool, in pool order."""
    h = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            h.update(np.ascontiguousarray(value, dtype=float).tobytes())
        elif isinstance(value, dict):
            for key in sorted(value):
                h.update(key.encode())
                feed(value[key])
        elif isinstance(value, (list, tuple)):
            for item in value:
                feed(item)
        else:
            h.update(repr(value).encode())

    feed(pool)
    return h.hexdigest()
