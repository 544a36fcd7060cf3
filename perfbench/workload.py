"""One workload in one process: a single caller in a closed loop.

Started by run.py with the BLAS/OpenMP thread counts already pinned in
the environment.  The next op starts when the previous one returns.  The
loop runs whole rounds of the input pool, so every run sees each kind of
op in the same proportion, and starts no round that it expects to end
after --seconds; the first round always runs.  Only the op is timed; its
correctness check runs after the clock stops.  The last two lines of
stdout are JSON for run.py: the run's inputs and environment, then the
result.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import tracing

# acceptance-suite tolerances
ROUTE_TOL = 1e-4
RELENT_TOL = 1e-9
BORDER_TOL = 1e-8
FOCK_TOL = {30: 1e-3, 45: 2e-4}
ROUND_TRIP_TOL = 1e-8
TERMINAL_TOL = 1e-8
RISE_TOL = 1e-11
SPECTRUM_TOL = 1e-6


def search_op(lib, state):
    res = lib.gree(state["cm"])
    route = state["route"]
    if route is None:
        closed = None
    elif route[0] == "tmst":
        closed = lib.gree_tmst(*route[1:])
    else:
        closed = lib.gree_symmetric(lib.SymmetricParams(*route[1:]))
    return res, closed


def search_check(lib, state, out):
    res, closed = out
    if not res.value >= 0.0:
        return "gree value %r < 0" % res.value
    if res.best_em is None:
        return "no minimizing EM for an inseparable state"
    rel = lib.relative_entropy(state["cm"], res.best_em, sigma_kind="em").value
    if abs(rel - res.value) > RELENT_TOL:
        return "S(rho||best_em) = %.17g but gree = %.17g" % (rel, res.value)
    _, residual = lib.is_separable(lib.em_to_cm(res.best_em))
    if abs(residual) > BORDER_TOL:
        return "border residual %.3e" % residual
    if closed is not None and abs(closed.value - res.value) > ROUTE_TOL:
        return "closed route %.17g vs search %.17g" % (closed.value, res.value)
    return None


def oracle_op(lib, pair):
    gauss = lib.relative_entropy(pair["alpha_rho"], pair["alpha_sig"]).value
    fock = {}
    for dim in FOCK_TOL:
        f_rho = lib.fock_apply_squeeze(
            lib.fock_product(lib.fock_thermal(pair["g_rho"][0], dim),
                             lib.fock_thermal(pair["g_rho"][1], dim)),
            "two_mode", pair["r_rho"])
        if pair["local_squeeze"] is not None:
            f_rho = lib.fock_apply_squeeze(f_rho, "local", pair["local_squeeze"], 0)
        f_sig = lib.fock_apply_squeeze(
            lib.fock_product(lib.fock_thermal(pair["g_sig"][0], dim),
                             lib.fock_thermal(pair["g_sig"][1], dim)),
            "two_mode", pair["r_sig"])
        fock[dim] = lib.fock_relative_entropy(f_rho, f_sig)
    return gauss, fock


def oracle_check(lib, pair, out):
    gauss, fock = out
    diffs = {dim: abs(gauss - value) for dim, value in fock.items()}
    for dim, tol in FOCK_TOL.items():
        if not diffs[dim] <= tol:
            return "|gaussian - fock| = %.3e at dim %d" % (diffs[dim], dim)
    if not diffs[45] <= diffs[30] + 1e-12:
        return "dim 45 (%.3e) no closer than dim 30 (%.3e)" % (diffs[45], diffs[30])
    return None


def descent_op(lib, pair):
    alpha, sigma0 = pair["alpha"], pair["sigma0_em"]
    back = lib.em_to_cm(lib.cm_to_em(alpha))
    rel = lib.relative_entropy(alpha, sigma0, sigma_kind="em").value
    final, _ = lib.descend(alpha, sigma0, stop="at_rho")
    if pair["n"] == 2:
        lib.descend(alpha, sigma0, stop="at_border")
    return back, rel, final


def symplectic_spectrum(alpha):
    """Descending symplectic eigenvalues, from numpy alone."""
    w = np.linalg.eigvals(-inputs.symplectic_form(alpha.shape[0] // 2) @ alpha)
    return np.sort(w.imag[w.imag > 0])[::-1]


def descent_check(lib, pair, out):
    back, rel, final = out
    alpha = pair["alpha"]
    trip = float(np.max(np.abs(back - alpha)))
    if not trip <= ROUND_TRIP_TOL:
        return "CM -> EM -> CM residual %.3e" % trip
    if not (math.isfinite(rel) and rel >= 0.0):
        return "relative entropy %r" % rel
    if not final.objective <= TERMINAL_TOL:
        return "terminal objective %.3e" % final.objective
    logged = [obj for kind, _, obj in final.step_log if kind != "crossing"]
    rise = max((b - a for a, b in zip(logged, logged[1:])), default=0.0)
    if rise > RISE_TOL:
        return "objective rose by %.3e" % rise
    bar = np.sort(final.gammas_sigma)[::-1]
    gap = float(np.max(np.abs(bar - symplectic_spectrum(alpha))))
    if not gap <= SPECTRUM_TOL:
        return "final spectrum off by %.3e" % gap
    return None


WORKLOADS = {
    "search": (search_op, search_check),
    "oracle": (oracle_op, oracle_check),
    "descent": (descent_op, descent_check),
}


def warm_up(lib):
    """Touch each layer once on fixed small inputs, so lazy imports and
    first-call costs fall outside the timed ops."""
    rho = inputs.fig1_cm(1.3)
    lib.gree(rho, starts=1, families=("IV",))
    lib.gree_tmst(1.5, 0.9)
    lib.gree_symmetric(lib.SymmetricParams(1.6, 0.9, 0.7), starts=1)
    alpha, sigma0 = inputs.random_state(np.random.default_rng(0), 2, 0.6, 2.5)
    lib.relative_entropy(alpha, lib.cm_to_em(alpha), sigma_kind="em")
    lib.descend(alpha, sigma0, stop="at_border")
    small = lib.fock_product(lib.fock_thermal(0.6, 12), lib.fock_thermal(0.7, 12))
    lib.fock_relative_entropy(lib.fock_apply_squeeze(small, "local", 0.1, 0), small)


def run_once(op, check, lib, item):
    """(seconds, failure message or None) of one untraced op."""
    start = perf_counter()
    try:
        out = op(lib, item)
    except Exception:
        return perf_counter() - start, traceback.format_exc()
    elapsed = perf_counter() - start
    return elapsed, _checked(check, lib, item, out)


def run_traced(op, check, lib, item, tracer, op_id):
    try:
        with tracer.installed(), tracer.op_span(op_id):
            out = op(lib, item)
    except Exception:
        return tracer.last_op_s, traceback.format_exc()
    return tracer.last_op_s, _checked(check, lib, item, out)


def run_pair(op, check, lib, item, tracer, op_id):
    """Untraced and traced copies of one op; which runs first alternates,
    so cache warmth does not bias the tracing overhead."""
    if op_id % 2:
        t_traced, fail_traced = run_traced(op, check, lib, item, tracer, op_id)
        seconds, failure = run_once(op, check, lib, item)
    else:
        seconds, failure = run_once(op, check, lib, item)
        t_traced, fail_traced = run_traced(op, check, lib, item, tracer, op_id)
    return seconds, t_traced, failure or fail_traced


def _checked(check, lib, item, out):
    try:
        return check(lib, item, out)
    except Exception:
        return traceback.format_exc()


def git_sha(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = root / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_config": blas.get("openblas configuration"),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(root),
    }


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(args.root / "src"))
    import gree as lib
    import gree.cli  # noqa: F401  (the CLI layer is part of the set-up cost)

    src = (args.root / "src").resolve()
    if src not in Path(lib.__file__).resolve().parents:
        sys.exit("imported gree from %s, not from %s" % (lib.__file__, src))

    pool = inputs.make_pool(args.workload, args.seed)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": inputs.digest(pool),
        "environment": environment(args.root),
    }
    op, check = WORKLOADS[args.workload]
    warm_up(lib)

    times, traced_times, failures = [], [], []
    tracer = tracing.Tracer() if args.trace else None
    start = perf_counter()
    rounds = 0
    while True:
        for item in pool[rounds % len(pool)]:
            op_id = len(times)
            if tracer is None:
                seconds, failure = run_once(op, check, lib, item)
            else:
                seconds, t_traced, failure = run_pair(op, check, lib, item, tracer, op_id)
                traced_times.append(t_traced)
            times.append(seconds)
            if failure:
                failures.append(op_id)
                print("op %d failed:\n%s" % (op_id, failure), file=sys.stderr)
        rounds += 1
        # stop before a round that would, at the mean pace so far, end
        # after the deadline; the first round always runs
        elapsed = perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break

    attempted = len(times)
    passed = attempted - len(failures)
    info.update(rounds=rounds, samples=attempted)
    if tracer is None:
        metrics = {
            "ops_per_s": (passed / sum(times), "1/s"),
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_p90": (percentile(times, 90), "s"),
            "ok_frac": (passed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(attempted)
        metrics["trace.overhead_frac"] = (sum(traced_times) / sum(times) - 1.0, "ratio")
        spans = args.root / ".perfbench" / ("spans-%s-%d.npz" % (args.workload, args.seed))
        spans.parent.mkdir(exist_ok=True)
        tracer.save(spans)
        info["spans"] = str(spans.relative_to(args.root))
        info["spans_recorded"] = len(tracer.start)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
