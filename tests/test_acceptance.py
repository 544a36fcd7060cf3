"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises a documented behavior of the package at its stated
tolerance: transform round trips, Fock-oracle agreement, closed-form
anchors, border constructors, descent convergence, measure sanity
properties, route agreement, figure-recipe scans, and CLI determinism.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from gree import (
    BorderParams,
    NumericalGuardError,
    SymmetricParams,
    bosonic_entropy,
    border_em,
    border_x_prime,
    cm_to_em,
    descend,
    elementary_transform,
    em_spectrum,
    em_to_cm,
    fock_relative_entropy,
    fock_schmidt_entropy,
    fock_apply_squeeze,
    fock_product,
    fock_thermal,
    gree,
    gree_symmetric,
    gree_tmst,
    is_separable,
    random_cm,
    relative_entropy,
    standard_cm,
    symmetric_cm,
    symplectic_eigenvalues,
    symplectic_form,
    tmst_cm,
    tmsv_cm,
)
from gree.cli import main
from conftest import draw_separable_cm, oracle_pair, thermal_cm

THERMAL_ANCHOR = 0.08495


def test_cm_em_round_trip_500_states():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_round, worst_comm = 0.0, 0.0
    for i in range(500):
        n = 1 + i % 3
        alpha = random_cm(rng, n, 0.55, 3.0)
        m = cm_to_em(alpha)
        worst_round = max(worst_round, float(np.max(np.abs(em_to_cm(m) - alpha))))
        dinv = np.linalg.inv(symplectic_form(n))
        left = m @ alpha @ dinv
        right = dinv @ alpha @ m
        scale = max(1.0, float(np.max(np.abs(left))))
        worst_comm = max(worst_comm, float(np.max(np.abs(left - right))) / scale)
    elapsed = time.monotonic() - start
    assert worst_round <= 1e-8
    assert worst_comm <= 1e-8
    assert elapsed <= 10.0


def test_fock_oracle_agreement_30_states():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    for _ in range(30):
        alpha_rho, alpha_sig, (g_rho, g_sig, r_rho, r_sig) = oracle_pair(rng)
        gauss = relative_entropy(alpha_rho, alpha_sig).value
        diffs = {}
        for dim in (30, 45):
            f_rho = fock_apply_squeeze(
                fock_product(fock_thermal(g_rho[0], dim), fock_thermal(g_rho[1], dim)),
                "two_mode",
                r_rho,
            )
            f_sig = fock_apply_squeeze(
                fock_product(fock_thermal(g_sig[0], dim), fock_thermal(g_sig[1], dim)),
                "two_mode",
                r_sig,
            )
            diffs[dim] = abs(gauss - fock_relative_entropy(f_rho, f_sig))
        assert diffs[30] <= 1e-3
        assert diffs[45] <= 2e-4
        assert diffs[45] <= diffs[30] + 1e-12
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0


def test_fock_oracle_agreement_at_dims_60_and_80():
    # built states carry their chain blocks, so these cutoffs fit in memory
    # (a dense rho at dim 80 would take 328 MB) and the truncation error
    # falls far below the dim-45 tolerance
    rng = np.random.default_rng(606)
    start = time.monotonic()
    for _ in range(10):
        alpha_rho, alpha_sig, (g_rho, g_sig, r_rho, r_sig) = oracle_pair(rng)
        gauss = relative_entropy(alpha_rho, alpha_sig).value
        for dim in (60, 80):
            f_rho = fock_apply_squeeze(
                fock_product(fock_thermal(g_rho[0], dim), fock_thermal(g_rho[1], dim)),
                "two_mode",
                r_rho,
            )
            f_sig = fock_apply_squeeze(
                fock_product(fock_thermal(g_sig[0], dim), fock_thermal(g_sig[1], dim)),
                "two_mode",
                r_sig,
            )
            assert abs(gauss - fock_relative_entropy(f_rho, f_sig)) <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0


def test_thermal_anchor_matches_both_routes():
    gauss = relative_entropy(thermal_cm(1.0), thermal_cm(1.5)).value
    fock = fock_relative_entropy(fock_thermal(1.0, 30), fock_thermal(1.5, 30))
    assert abs(gauss - THERMAL_ANCHOR) <= 1e-4
    assert abs(fock - THERMAL_ANCHOR) <= 1e-4
    assert abs(gauss - fock) <= 1e-6


def test_border_constructors_200_random_points():
    rng = np.random.default_rng(303)
    built = 0
    while built < 200:
        label = ("I", "II", "III", "III", "IV")[built % 5]
        gamma_a, gamma_b = rng.uniform(0.55, 2.5, 2)
        if label == "I":
            shape = rng.uniform(-0.8, 0.8)
            try:
                x_prime = border_x_prime("I", gamma_a, gamma_b, shape)
            except NumericalGuardError:
                continue  # no border state at this squeeze strength
        elif label == "II":
            shape = rng.uniform(0.05, 0.25 * math.pi)
            try:
                x_prime = border_x_prime("II", gamma_a, gamma_b, shape)
            except NumericalGuardError:
                continue
        else:
            shape, x_prime = 0.0, 1.0
        m = border_em(BorderParams(label, gamma_a, gamma_b, shape, x_prime))
        assert np.linalg.eigvalsh(m)[0] > 0.0
        separable, residual = is_separable(em_to_cm(m))
        assert separable
        assert abs(residual) <= 1e-8
        built += 1


def test_descent_50_runs_reach_rho_monotonically():
    rng = np.random.default_rng(404)
    for i in range(50):
        n = 1 + i % 3
        alpha = random_cm(rng, n, 0.6, 2.5)
        sigma0 = cm_to_em(random_cm(rng, n, 0.6, 2.5))
        final, border = descend(alpha, sigma0, stop="at_rho")
        assert border is None
        assert final.objective <= 1e-8
        logged = [obj for kind, _, obj in final.step_log if kind != "crossing"]
        assert all(b - a <= 1e-11 for a, b in zip(logged, logged[1:]))
        bar = np.sort(final.gammas_sigma)[::-1]
        assert np.max(np.abs(bar - symplectic_eigenvalues(alpha))) <= 1e-6


def test_gree_sanity_suite():
    rng = np.random.default_rng(505)
    for _ in range(5):
        assert gree(draw_separable_cm(rng)).value <= 1e-6

    for alpha in (tmsv_cm(0.5), standard_cm(1.2, 0.9, 0.7, 0.6)):
        params = rng.uniform(-0.5, 0.5, 6)
        s = elementary_transform("general_local", params)
        base = gree(alpha, starts=12).value
        moved = gree(s @ alpha @ s.T, starts=12).value
        assert abs(base - moved) <= 1e-6

    grid = [round(0.1 * k, 1) for k in range(1, 11)]
    values = {r: gree(tmsv_cm(r), starts=8).value for r in grid}
    ordered = [values[r] for r in grid]
    assert all(b - a >= -1e-10 for a, b in zip(ordered, ordered[1:]))
    for r in (0.2, 0.5, 0.8):
        assert values[r] >= fock_schmidt_entropy(r, 60) - 1e-4


def test_route_agreement_on_20_symmetric_states():
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 20:
        m = rng.uniform(1.2, 2.2)
        kq, kp = rng.uniform(0.1, 0.9 * m, 2)
        physical = (m + kq) * (m - kp) >= 1.0 and (m - kq) * (m + kp) >= 1.0
        inseparable = (m - kq) * (m - kp) < 1.0
        if not (physical and inseparable):
            continue
        p = SymmetricParams(m=m, kq=kq, kp=kp)
        res_sym = gree_symmetric(p)
        res_full = gree(symmetric_cm(p), starts=16)
        assert abs(res_sym.value - res_full.value) <= 1e-4
        checked += 1

    for m, k in ((1.5, 0.9), (1.8, 1.1), (2.2, 1.5)):
        res = gree_symmetric(SymmetricParams(m=m, kq=k, kp=k))
        mta, mtb = em_spectrum(np.array([res.params.gamma_a, res.params.gamma_b]))
        assert abs(mta - mtb) <= 1e-6
        res_tmst = gree_tmst(m, k)
        assert res_tmst.params.gamma_a == res_tmst.params.gamma_b


def scan_rows(path):
    lines = path.read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    return body[0].split(","), [line.split(",") for line in body[1:]]


def test_figure_scans_qualitative(tmp_path):
    start = time.monotonic()
    fig1 = tmp_path / "fig1.csv"
    fig2 = tmp_path / "fig2.csv"
    fig3 = tmp_path / "fig3.csv"
    assert main(["scan", "fig1", "-o", str(fig1)]) == 0
    assert main(["scan", "fig2", "-o", str(fig2)]) == 0
    assert main(["scan", "fig3", "-o", str(fig3)]) == 0
    elapsed = time.monotonic() - start

    for path, column in ((fig1, "type_I"), (fig2, "type_II")):
        header, rows = scan_rows(path)
        own = header.index(column)
        value = header.index("value")
        family = [header.index(c) for c in ("type_I", "type_II", "type_III", "type_IV")]
        assert len(rows) == 40
        for r in rows:
            assert r[-1] == "ok"
            others = [float(r[c]) for c in family if c != own and math.isfinite(float(r[c]))]
            assert float(r[own]) <= min(others) + 1e-9
            assert abs(float(r[value]) - float(r[own])) <= 1e-12

    header, rows = scan_rows(fig3)
    orig = header.index("ratio_original")
    mini = header.index("ratio_minimizer")
    assert len(rows) == 40
    for r in rows:
        assert r[-1] == "ok"
        assert float(r[mini]) <= float(r[orig]) + 1e-9
    assert elapsed <= 600.0


def test_cli_gree_determinism(tmp_path):
    doc = {
        "n": 2,
        "ordering": "qqpp",
        "kind": "cm",
        "matrix": tmsv_cm(0.4).tolist(),
        "metadata": {},
    }
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(doc))
    argv = [sys.executable, "-m", "gree.cli", "gree", "-i", str(path),
            "--starts", "6"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["value_nats"] > 0.0
