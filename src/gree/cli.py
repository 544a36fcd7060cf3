"""Command-line surface: state documents in, result documents and CSV out.

States travel as JSON documents with the fields

    n         mode count
    ordering  fixed token "qqpp" (F = (q_1..q_n, p_1..p_n))
    kind      "cm" or "em"
    matrix    2n x 2n row-major array, symmetric within 1e-10
    metadata  free-form dict, passed through untouched

All floats are written with 17 significant digits, so identical inputs
and flags produce byte-identical outputs.  Exit codes:
0 success, 2 validation error, 3 numerical guard, 4 search failure; on
error a {"error": {...}} document goes to stdout.  Values are in nats
unless --bits is given; gree documents always carry both.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

import json

import numpy as np

from .descent import descend, initial_state
from .errors import NumericalGuardError, SearchFailureError, ValidationError
from .fockoracle import (
    fock_apply_squeeze,
    fock_product,
    fock_relative_entropy,
    fock_thermal,
)
from .gaussian import (
    SymmetricParams,
    classify,
    cm_to_em,
    em_to_cm,
    is_separable,
    standard_cm,
    standard_form,
    von_neumann_entropy,
)
from .gree import border_x_prime, gree, gree_symmetric, gree_tmst
from .relent import relative_entropy
from .symplectic import elementary_transform, random_cm

LN2 = math.log(2.0)
# largest rise of the logged objective `verify --suite descent` accepts; the
# acceptance suite and the benchmark's descent check use the same bound
DESCENT_RISE_TOL = 1e-11

_EXIT_CODES = (
    (ValidationError, 2),
    (NumericalGuardError, 3),
    (SearchFailureError, 4),
)

_STEP_GROUPS = {
    "local_rotation": "local",
    "local_squeeze": "local",
    "rotation_qq": "first_kind",
    "squeeze_qq": "first_kind",
    "rotation_qp": "second_kind",
    "squeeze_qp": "second_kind",
    "align": "align",
    "crossing": "crossing",
}


# ---------------------------------------------------------------------------
# canonical serialization


def format_float(x: float) -> str:
    """17-significant-digit token; Infinity/NaN spelled as JSON accepts."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def dumps_canonical(value, indent: int = 0) -> str:
    """Serialize dicts/lists/scalars deterministically (insertion order)."""
    pad = "  " * indent
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        items = list(value)
        if all(not isinstance(x, (list, tuple, dict, np.ndarray)) for x in items):
            return "[" + ", ".join(dumps_canonical(x) for x in items) + "]"
        inner = ",\n".join(pad + "  " + dumps_canonical(x, indent + 1) for x in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + dumps_canonical(v, indent + 1)
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise ValidationError("cannot serialize %r" % type(value).__name__)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc))


def _write_text(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ---------------------------------------------------------------------------
# state documents


class StateDocument(NamedTuple):
    """Parsed and validated state file."""

    n: int
    kind: str
    matrix: np.ndarray
    metadata: dict


def load_document(path: str) -> StateDocument:
    """Read and validate a state document (see the module docstring)."""
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError("not a valid state document: %s" % exc)
    if not isinstance(raw, dict):
        raise ValidationError("state document must be a JSON object")
    missing = {"n", "ordering", "kind", "matrix"} - set(raw)
    if missing:
        raise ValidationError("state document missing fields %s" % sorted(missing))
    if raw["ordering"] != "qqpp":
        raise ValidationError('ordering token must be "qqpp"')
    if raw["kind"] not in ("cm", "em"):
        raise ValidationError('kind must be "cm" or "em"')
    n = raw["n"]
    if not isinstance(n, int) or n < 1:
        raise ValidationError("n must be a positive integer")
    try:
        matrix = np.array(raw["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError("matrix is not a numeric array: %s" % exc)
    if matrix.shape != (2 * n, 2 * n):
        raise ValidationError(
            "matrix shape %r does not match n=%d" % (matrix.shape, n)
        )
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(matrix))))
    if float(np.max(np.abs(matrix - matrix.T))) > 1e-10 * scale:
        raise ValidationError("matrix is not symmetric within 1e-10")
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError("metadata must be an object")
    return StateDocument(n=n, kind=raw["kind"], matrix=matrix, metadata=metadata)


def state_document(kind: str, matrix: np.ndarray, metadata: dict) -> dict:
    return {
        "n": matrix.shape[0] // 2,
        "ordering": "qqpp",
        "kind": kind,
        "matrix": matrix,
        "metadata": metadata,
    }


def _as_cm(doc: StateDocument) -> np.ndarray:
    """The document's CM, converting EM inputs on the fly."""
    return doc.matrix if doc.kind == "cm" else em_to_cm(doc.matrix)


def _emit(doc: dict, path: str) -> int:
    _write_text(dumps_canonical(doc) + "\n", path)
    return 0


def _unit_pair(value: float, bits: bool) -> Tuple[float, str]:
    return (value / LN2, "bits") if bits else (value, "nats")


# ---------------------------------------------------------------------------
# simple state commands


def _cmd_convert(args) -> int:
    doc = load_document(args.input)
    want = "cm" if args.direction == "cm-to-em" else "em"
    if doc.kind != want:
        raise ValidationError(
            "direction %s expects a %s document, got %s"
            % (args.direction, want, doc.kind)
        )
    out = cm_to_em(doc.matrix) if want == "cm" else em_to_cm(doc.matrix)
    kind = "em" if want == "cm" else "cm"
    return _emit(state_document(kind, out, doc.metadata), args.output)


def _cmd_entropy(args) -> int:
    doc = load_document(args.input)
    value, unit = _unit_pair(von_neumann_entropy(_as_cm(doc)), args.bits)
    return _emit({"command": "entropy", "value": value, "unit": unit}, args.output)


def _cmd_relent(args) -> int:
    rho = load_document(args.input)
    sigma = load_document(args.sigma)
    z = None
    if args.dz is not None:
        try:
            z = np.array([float(t) for t in args.dz.split(",")])
        except ValueError:
            raise ValidationError("--dz must be a comma-separated float list")
    res = relative_entropy(_as_cm(rho), sigma.matrix, sigma_kind=sigma.kind, z=z)
    scale = 1.0 / LN2 if args.bits else 1.0
    return _emit(
        {
            "command": "relent",
            "value": res.value * scale,
            "self_term": res.self_term * scale,
            "cross_term": res.cross_term * scale,
            "unit": "bits" if args.bits else "nats",
        },
        args.output,
    )


def _cmd_classify(args) -> int:
    cm = _as_cm(load_document(args.input))
    sf = standard_form(cm)
    separable, residual = is_separable(cm)
    try:
        tag = classify(sf)
        label, ratio = tag.label, tag.ratio
    except ValidationError:
        label, ratio = None, None
    return _emit(
        {
            "command": "classify",
            "a": sf.a,
            "b": sf.b,
            "c1": sf.c1,
            "c2": sf.c2,
            "separable": separable,
            "border_residual": residual,
            "label": label,
            "ratio": ratio,
        },
        args.output,
    )


def _cmd_separable(args) -> int:
    separable, residual = is_separable(_as_cm(load_document(args.input)))
    return _emit(
        {
            "command": "separable",
            "separable": separable,
            "border_residual": residual,
        },
        args.output,
    )


# ---------------------------------------------------------------------------
# gree commands


def _gree_document(command: str, res) -> dict:
    params = None
    if res.params is not None:
        params = {
            "label": res.params.label,
            "gamma_a": res.params.gamma_a,
            "gamma_b": res.params.gamma_b,
            "shape": res.params.shape,
            "x_prime": res.params.x_prime,
        }
    return {
        "command": command,
        "value_nats": res.value,
        "value_bits": res.value / LN2,
        "label": res.label,
        "params": params,
        "best_em": res.best_em,
        "diagnostics": res.diagnostics,
    }


def _cmd_gree(args) -> int:
    cm = _as_cm(load_document(args.input))
    families = None
    if args.types is not None:
        families = tuple(t.strip() for t in args.types.split(",") if t.strip())
    res = gree(cm, starts=args.starts, families=families)
    return _emit(_gree_document("gree", res), args.output)


def _cmd_gree_sym(args) -> int:
    p = SymmetricParams(m=args.m, kq=args.kq, kp=args.kp)
    res = gree_symmetric(p, starts=args.starts)
    return _emit(_gree_document("gree-sym", res), args.output)


def _cmd_gree_tmst(args) -> int:
    res = gree_tmst(args.m, args.k)
    return _emit(_gree_document("gree-tmst", res), args.output)


# ---------------------------------------------------------------------------
# descent command


def _step_log_csv(alpha_rho: np.ndarray, sigma0_em: np.ndarray, state) -> str:
    lines = ["# columns: iteration, group, gain, objective"]
    prev = initial_state(alpha_rho, sigma0_em).objective
    for i, (kind, _, objective) in enumerate(state.step_log):
        group = _STEP_GROUPS.get(kind, kind)
        gain = 0.0 if group == "crossing" else prev - objective
        if group != "crossing":
            prev = objective
        lines.append(
            "%d,%s,%s,%s" % (i, group, format_float(gain), format_float(objective))
        )
    return "\n".join(lines) + "\n"


def _cmd_descend(args) -> int:
    rho = _as_cm(load_document(args.input))
    sigma0 = load_document(args.sigma0)
    sigma0_em = sigma0.matrix if sigma0.kind == "em" else cm_to_em(sigma0.matrix)
    stop = args.stop.replace("-", "_")
    state, border_em = descend(rho, sigma0_em, stop=stop)
    crossings = sum(1 for kind, _, _ in state.step_log if kind == "crossing")
    doc = {
        "command": "descend",
        "stop": stop,
        "objective": state.objective,
        "steps": len(state.step_log) - crossings,
        "crossings": crossings,
        "gammas_sigma": list(state.gammas_sigma),
        "crossed": border_em is not None,
        "border_value": state.objective if border_em is not None else None,
        "border_residual": (
            is_separable(em_to_cm(border_em))[1] if border_em is not None else None
        ),
        "border_em": border_em,
    }
    if args.log is not None:
        _write_text(_step_log_csv(rho, sigma0_em, state), args.log)
    return _emit(doc, args.output)


# ---------------------------------------------------------------------------
# scan command


def _fig12_state(
    recipe: str, gamma_a: float, gamma_b: float, shape: float, offset: float
) -> Tuple[np.ndarray, float]:
    """Grid-point CM for the fig1/fig2 recipes, plus the derived parameter.

    fig1 fixes the local squeeze x (= shape) and pushes the two-mode
    squeeze past the border: sinh(2r) = sinh(2r_border) + offset, where
    r_border solves the type I border equality at this x.  Returns
    (cm, sinh(2r)).  fig2 fixes the rotation angle theta (= shape) and
    pushes the local squeeze: x = x'_border + offset.  Returns (cm, x).
    """
    if recipe == "fig1":
        x = shape
        num = (2.0 * gamma_a**2 - 0.5) * (2.0 * gamma_b**2 - 0.5)
        den = (x * x + 1.0 / (x * x)) * gamma_a * gamma_b + gamma_a**2 + gamma_b**2
        sinh_2r = math.sqrt(num / den) + offset
        r = 0.5 * math.asinh(sinh_2r)
        s = elementary_transform("two_mode_squeeze_qq", -r) @ elementary_transform(
            "local_squeeze_X", 1.0 / x
        )
        return s @ standard_cm(gamma_a, gamma_b, 0.0, 0.0) @ s.T, sinh_2r
    theta = shape
    x = border_x_prime("II", gamma_a, gamma_b, theta) + offset
    s = elementary_transform("two_mode_rotation_qq", -theta) @ elementary_transform(
        "local_squeeze_X", 1.0 / x
    )
    return s @ standard_cm(gamma_a, gamma_b, 0.0, 0.0) @ s.T, x


def _per_type_cells(cm: np.ndarray, starts: int):
    res = gree(cm, starts=starts)
    per = res.diagnostics.get("per_type")
    if not per:
        return [format_float(0.0)] + ["nan"] * 4, "separable"
    cells = [format_float(res.value)]
    cells += [format_float(per[k]) for k in ("I", "II", "III", "IV")]
    return cells, "ok"


def _scan_worker(task) -> List[str]:
    recipe = task[0]
    if recipe in ("fig1", "fig2"):
        _, gamma_a, gamma_b, shape, offset, starts = task
        head = [format_float(v) for v in (gamma_a, gamma_b, shape)]
        try:
            cm, derived = _fig12_state(recipe, gamma_a, gamma_b, shape, offset)
            cells, status = _per_type_cells(cm, starts)
            return head + [format_float(derived)] + cells + [status]
        except (ValidationError, NumericalGuardError, SearchFailureError) as exc:
            return head + ["nan"] * 6 + ["error:" + type(exc).__name__]
    _, target, gamma_a, gamma_b, x, offset, starts = task
    head = [format_float(v) for v in (target, gamma_a, gamma_b)]
    try:
        cm, _ = _fig12_state("fig1", gamma_a, gamma_b, x, offset)
        original = classify(standard_form(cm)).ratio
        res = gree(cm, starts=starts)
        if res.best_em is None:
            return head + [format_float(0.0), format_float(original), "nan", "separable"]
        minimizer = classify(standard_form(em_to_cm(res.best_em))).ratio
        return head + [
            format_float(res.value),
            format_float(original),
            format_float(minimizer),
            "ok",
        ]
    except (ValidationError, NumericalGuardError, SearchFailureError) as exc:
        return head + ["nan"] * 3 + ["error:" + type(exc).__name__]


def _map_rows(tasks, workers: int) -> List[List[str]]:
    if workers <= 1:
        return [_scan_worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # slow to import, so only here
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_scan_worker, tasks, chunksize=1))


def _cmd_scan(args) -> int:
    points = args.points
    if args.recipe in ("fig1", "fig2"):
        if points is None:
            points = 40
        grid = np.linspace(args.gamma_a_min, args.gamma_a_max, points)
        if args.recipe == "fig1":
            shape = args.x
            comments = [
                "# recipe: fig1 (two-mode squeeze pushed past the type I border)",
                "# fixed: gamma_b = %s, x = %s, sinh(2r) = sinh(2r_border) + %s"
                % tuple(format_float(v) for v in (args.gamma_b, args.x, args.offset)),
                "# columns: gamma_a, gamma_b, x, sinh_2r, value,"
                " type_I, type_II, type_III, type_IV, status",
            ]
            header = "gamma_a,gamma_b,x,sinh_2r,value,type_I,type_II,type_III,type_IV,status"
        else:
            shape = 0.5 * math.asinh(args.sinh_2theta)
            comments = [
                "# recipe: fig2 (local squeeze pushed past the type II border)",
                "# fixed: gamma_b = %s, sinh(2 theta) = %s, x = x'_border + %s"
                % tuple(
                    format_float(v)
                    for v in (args.gamma_b, args.sinh_2theta, args.offset)
                ),
                "# columns: gamma_a, gamma_b, theta, x, value,"
                " type_I, type_II, type_III, type_IV, status",
            ]
            header = "gamma_a,gamma_b,theta,x,value,type_I,type_II,type_III,type_IV,status"
        tasks = [
            (args.recipe, float(ga), args.gamma_b, shape, args.offset, args.starts)
            for ga in grid
        ]
    else:
        if points is None:
            points = 10
        try:
            targets = [float(t) for t in args.ratios.split(",") if t.strip()]
        except ValueError:
            raise ValidationError("--ratios must be a comma-separated float list")
        if any(not 0.0 < q < 1.0 for q in targets):
            raise ValidationError("ratio targets must lie in (0, 1)")
        comments = [
            "# recipe: fig3 (classification ratio of the minimizer vs the input)",
            "# fixed: x = %s, sinh(2r) = sinh(2r_border) + %s;"
            " gamma_b = (1 + target) / (2 (1 - target))"
            % tuple(format_float(v) for v in (args.x, args.offset)),
            "# columns: target, gamma_a, gamma_b, value,"
            " ratio_original, ratio_minimizer, status",
        ]
        header = "target,gamma_a,gamma_b,value,ratio_original,ratio_minimizer,status"
        grid = np.linspace(args.gamma_a_min, args.gamma_a_max, points)
        tasks = [
            ("fig3", q, float(ga), (1.0 + q) / (2.0 * (1.0 - q)), args.x,
             args.offset, args.starts)
            for q in targets
            for ga in grid
        ]
    rows = _map_rows(tasks, args.workers)
    text = "\n".join(comments + [header] + [",".join(r) for r in rows]) + "\n"
    _write_text(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# verify command


def _verify_roundtrip(seed: int) -> Tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst, count = 0.0, 0
    for n in (1, 2, 3):
        for _ in range(40):
            alpha = random_cm(rng, n)
            back = em_to_cm(cm_to_em(alpha))
            worst = max(worst, float(np.max(np.abs(back - alpha))))
            count += 1
    ok = worst <= 1e-8
    return ok, "states %d   max residual %.3e" % (count, worst)


def _oracle_pair(rng: np.random.Generator):
    """(alpha_rho, alpha_sigma, (g_rho, g_sig, r_rho, r_sig)): two squeezed
    thermal states for relent-vs-Fock checks.

    sigma is drawn hotter than rho and only mildly squeezed relative to
    it, so rho stays inside sigma's numerical support at Fock cutoffs of
    a few tens of levels and the true relative entropy is finite (a cold
    or crossed-squeezed sigma makes it diverge).
    """
    g_rho = rng.uniform(0.55, 1.0, 2)
    g_sig = rng.uniform(1.1, 1.5, 2)
    r_rho = rng.uniform(-0.4, 0.4)
    r_sig = r_rho + rng.uniform(-0.2, 0.2)
    s_rho = elementary_transform("two_mode_squeeze_qq", r_rho)
    s_sig = elementary_transform("two_mode_squeeze_qq", r_sig)
    alpha_rho = s_rho @ standard_cm(*g_rho, 0.0, 0.0) @ s_rho.T
    alpha_sig = s_sig @ standard_cm(*g_sig, 0.0, 0.0) @ s_sig.T
    return alpha_rho, alpha_sig, (tuple(g_rho), tuple(g_sig), r_rho, r_sig)


def _verify_oracle(seed: int, dim: int) -> Tuple[bool, str]:
    rng = np.random.default_rng(seed)
    tol = 1e-3 if dim < 45 else 2e-4
    worst = 0.0
    # six pairs, then one whose rho is also locally squeezed on mode 0
    pairs = 7
    for k in range(pairs):
        try:
            alpha, sigma, (g_rho, g_sig, r_rho, r_sig) = _oracle_pair(rng)
            f_rho = fock_apply_squeeze(
                fock_product(fock_thermal(g_rho[0], dim), fock_thermal(g_rho[1], dim)),
                "two_mode",
                r_rho,
            )
            if k == pairs - 1:
                s = rng.uniform(-0.15, 0.15)
                # exp(s (a^+2 - a^2)/2) on mode 0 maps q0 -> e^s q0, p0 -> e^-s p0
                local = np.diag([math.exp(s), 1.0, math.exp(-s), 1.0])
                alpha = local @ alpha @ local.T
                f_rho = fock_apply_squeeze(f_rho, "local", s, 0)
            gauss = relative_entropy(alpha, sigma).value
            f_sig = fock_apply_squeeze(
                fock_product(fock_thermal(g_sig[0], dim), fock_thermal(g_sig[1], dim)),
                "two_mode",
                r_sig,
            )
            worst = max(worst, abs(gauss - fock_relative_entropy(f_rho, f_sig)))
        except NumericalGuardError as exc:
            return False, "pair %d of %d   %s   (dim %d)" % (k + 1, pairs, exc, dim)
    ok = worst <= tol
    return ok, "pairs %d   max |gaussian - fock| %.3e   (dim %d, tol %g)" % (
        pairs,
        worst,
        dim,
        tol,
    )


def _verify_descent(seed: int) -> Tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst_terminal, worst_rise = 0.0, 0.0
    for _ in range(50):
        alpha = random_cm(rng, 2, 0.6, 2.5)
        sigma0 = cm_to_em(random_cm(rng, 2, 0.6, 2.5))
        state, _ = descend(alpha, sigma0, stop="at_rho")
        prev = initial_state(alpha, sigma0).objective
        for kind, _, objective in state.step_log:
            if kind == "crossing":
                continue
            worst_rise = max(worst_rise, objective - prev)
            prev = objective
        worst_terminal = max(worst_terminal, state.objective)
    ok = worst_terminal <= 1e-8 and worst_rise <= DESCENT_RISE_TOL
    return ok, "runs 50   max terminal %.3e   max rise %.3e" % (
        worst_terminal,
        worst_rise,
    )


def _cmd_verify(args) -> int:
    suites = ("roundtrip", "oracle", "descent") if args.suite == "all" else (args.suite,)
    lines, failed = [], False
    for name in suites:
        if name == "roundtrip":
            ok, detail = _verify_roundtrip(args.seed)
        elif name == "oracle":
            ok, detail = _verify_oracle(args.seed, args.dim)
        else:
            ok, detail = _verify_descent(args.seed)
        failed = failed or not ok
        lines.append("%-9s  %s   %s" % (name, "PASS" if ok else "FAIL", detail))
    lines.append("overall    %s" % ("FAIL" if failed else "PASS"))
    _write_text("\n".join(lines) + "\n", args.output)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _add_io(sub, input_file: bool = True) -> None:
    if input_file:
        sub.add_argument("-i", "--input", default="-", help="state document ('-' = stdin)")
    sub.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gree",
        description="Gaussian relative entropy of entanglement toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a state document between cm and em")
    p.add_argument("direction", choices=("cm-to-em", "em-to-cm"))
    _add_io(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("entropy", help="von Neumann entropy of a state")
    _add_io(p)
    p.add_argument("--bits", action="store_true", help="report in bits")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("relent", help="relative entropy S(rho || sigma)")
    _add_io(p)
    p.add_argument("--sigma", required=True, help="state document for sigma")
    p.add_argument("--dz", default=None, help="displacement of sigma (comma-separated)")
    p.add_argument("--bits", action="store_true", help="report in bits")
    p.set_defaults(func=_cmd_relent)

    p = sub.add_parser("classify", help="standard form and type label of a two-mode CM")
    _add_io(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("separable", help="PPT separability verdict for a two-mode CM")
    _add_io(p)
    p.set_defaults(func=_cmd_separable)

    p = sub.add_parser("gree", help="Gaussian relative entropy of entanglement")
    _add_io(p)
    p.add_argument("--starts", type=int, default=32)
    p.add_argument(
        "--types", default=None, help="restrict the search, e.g. --types I,III"
    )
    p.set_defaults(func=_cmd_gree)

    p = sub.add_parser("gree-sym", help="gree of a symmetric state (m, kq, kp)")
    _add_io(p, input_file=False)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--kq", type=float, required=True)
    p.add_argument("--kp", type=float, required=True)
    p.add_argument("--starts", type=int, default=8)
    p.set_defaults(func=_cmd_gree_sym)

    p = sub.add_parser("gree-tmst", help="gree of a squeezed thermal state (m, k)")
    _add_io(p, input_file=False)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.set_defaults(func=_cmd_gree_tmst)

    p = sub.add_parser("descend", help="monotone descent from sigma0 toward rho")
    _add_io(p)
    p.add_argument("--sigma0", required=True, help="state document for sigma0")
    p.add_argument("--stop", choices=("at-rho", "at-border"), default="at-rho")
    p.add_argument("--log", default=None, help="write the step log as CSV")
    p.set_defaults(func=_cmd_descend)

    p = sub.add_parser("scan", help="figure-recipe grid scans (CSV)")
    p.add_argument("recipe", choices=("fig1", "fig2", "fig3"))
    _add_io(p, input_file=False)
    p.add_argument("--points", type=int, default=None,
                   help="abscissa points (default 40; fig3: 10 per target)")
    p.add_argument("--gamma-a-min", type=float, default=0.6)
    p.add_argument("--gamma-a-max", type=float, default=None)
    p.add_argument("--gamma-b", type=float, default=1.5)
    p.add_argument("--x", type=float, default=1.1,
                   help="fixed local squeeze (fig1/fig3)")
    p.add_argument("--sinh-2theta", type=float, default=0.5,
                   help="fixed rotation strength (fig2)")
    p.add_argument("--offset", type=float, default=None,
                   help="past-the-border offset (default 5 fig1/fig3, 1.5 fig2)")
    p.add_argument("--ratios", default="0.2,0.4,0.6,0.8",
                   help="target original ratios (fig3)")
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="self-check suites (roundtrip, oracle, descent)")
    _add_io(p, input_file=False)
    p.add_argument("--suite", choices=("roundtrip", "oracle", "descent", "all"),
                   default="all")
    p.add_argument("--dim", type=int, default=30, help="Fock cutoff for the oracle suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "scan":
        if args.offset is None:
            args.offset = 1.5 if args.recipe == "fig2" else 5.0
        if args.gamma_a_max is None:
            args.gamma_a_max = 2.4 if args.recipe == "fig3" else 3.0
    try:
        return args.func(args)
    except (ValidationError, NumericalGuardError, SearchFailureError) as exc:
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(dumps_canonical(doc) + "\n")
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 2  # unreachable


if __name__ == "__main__":
    sys.exit(main())
