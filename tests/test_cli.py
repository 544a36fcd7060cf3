"""Tests for the command-line interface: state documents, output
determinism, exit codes, and the scan/verify subcommands."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gree import (
    SearchFailureError,
    ValidationError,
    bosonic_entropy,
    cm_to_em,
    em_to_cm,
    relative_entropy,
    standard_cm,
    tmst_cm,
    tmsv_cm,
)
from gree import cli as cli_module
from gree.cli import (
    DESCENT_RISE_TOL,
    dumps_canonical,
    format_float,
    load_document,
    main,
    state_document,
)
from conftest import draw_separable_cm, thermal_cm

LN2 = math.log(2.0)


def write_doc(path, state, kind="cm", **overrides):
    doc = {
        "n": state.shape[0] // 2,
        "ordering": "qqpp",
        "kind": kind,
        "matrix": state.tolist(),
        "metadata": {},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_format_float_tokens_and_precision():
    assert format_float(float("nan")) == "NaN"
    assert format_float(float("inf")) == "Infinity"
    assert format_float(float("-inf")) == "-Infinity"
    assert format_float(0.25) == "0.25"
    for x in (1.0 / 3.0, math.pi, 1e-17, -2.5e300):
        assert float(format_float(x)) == x


def test_dumps_canonical_layout():
    text = dumps_canonical(
        {"b": [1.0, 2.5], "a": {"nested": None, "flag": True}, "m": np.eye(2)}
    )
    parsed = json.loads(text)
    assert list(parsed) == ["b", "a", "m"]
    assert parsed["m"] == [[1.0, 0.0], [0.0, 1.0]]
    assert "[1, 2.5]" in text  # scalar lists stay on one line
    with pytest.raises(ValidationError):
        dumps_canonical({"bad": object()})


def test_document_round_trip(tmp_path):
    matrix = thermal_cm(1.0, 1.5)
    path = tmp_path / "state.json"
    path.write_text(
        dumps_canonical(state_document("cm", matrix, {"note": "thermal"})) + "\n"
    )
    doc = load_document(str(path))
    assert doc.n == 2 and doc.kind == "cm"
    assert np.array_equal(doc.matrix, matrix)
    assert doc.metadata == {"note": "thermal"}


@pytest.mark.parametrize(
    "overrides",
    [
        {"ordering": "qpqp"},
        {"kind": "density"},
        {"n": 3},
        {"n": 2.0},
        {"matrix": [[1.0, "x"], ["x", 1.0]]},
        {"matrix": [[1.0, 2.0], [2.1, 1.0]], "n": 1},
        {"metadata": []},
    ],
)
def test_load_document_rejects_malformed(tmp_path, overrides):
    path = write_doc(tmp_path / "bad.json", thermal_cm(1.0, 1.0), **overrides)
    with pytest.raises(ValidationError):
        load_document(path)


def test_load_document_rejects_non_finite(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text(
        '{"n": 1, "ordering": "qqpp", "kind": "cm",'
        ' "matrix": [[Infinity, 0.0], [0.0, 1.0]]}'
    )
    with pytest.raises(ValidationError):
        load_document(path)
    (tmp_path / "notjson.json").write_text("q1 q2 p1 p2")
    with pytest.raises(ValidationError):
        load_document(str(tmp_path / "notjson.json"))


def test_convert_round_trip(tmp_path, capsys):
    cm_path = write_doc(tmp_path / "cm.json", thermal_cm(1.0, 1.5))
    em_path = str(tmp_path / "em.json")
    assert main(["convert", "cm-to-em", "-i", cm_path, "-o", em_path]) == 0
    em_doc = load_document(em_path)
    assert em_doc.kind == "em"
    assert np.allclose(em_doc.matrix, cm_to_em(thermal_cm(1.0, 1.5)))
    back_path = str(tmp_path / "back.json")
    assert main(["convert", "em-to-cm", "-i", em_path, "-o", back_path]) == 0
    assert np.allclose(load_document(back_path).matrix, thermal_cm(1.0, 1.5), atol=1e-12)
    capsys.readouterr()


def test_convert_direction_mismatch_exits_2(tmp_path, capsys):
    cm_path = write_doc(tmp_path / "cm.json", thermal_cm(1.0, 1.0))
    code, out = run(capsys, ["convert", "em-to-cm", "-i", cm_path])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"


def test_convert_pure_state_exits_3(tmp_path, capsys):
    vacuum = write_doc(tmp_path / "vac.json", 0.5 * np.eye(2))
    code, out = run(capsys, ["convert", "cm-to-em", "-i", vacuum])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "NumericalGuardError"


def test_search_failure_exits_4(tmp_path, capsys, monkeypatch):
    def forced(*args, **kwargs):
        raise SearchFailureError("forced")

    monkeypatch.setattr("gree.cli.gree", forced)
    doc = write_doc(tmp_path / "rho.json", tmsv_cm(0.4))
    code, out = run(capsys, ["gree", "-i", doc, "--starts", "2"])
    assert code == 4
    assert json.loads(out)["error"] == {"type": "SearchFailureError", "message": "forced"}


def test_entropy_bits_scaling(tmp_path, capsys):
    doc = write_doc(tmp_path / "rho.json", thermal_cm(1.0))
    _, out_nats = run(capsys, ["entropy", "-i", doc])
    _, out_bits = run(capsys, ["entropy", "-i", doc, "--bits"])
    nats = json.loads(out_nats)
    bits = json.loads(out_bits)
    assert (nats["unit"], bits["unit"]) == ("nats", "bits")
    assert abs(nats["value"] - bosonic_entropy(0.5)) < 1e-12
    assert abs(bits["value"] * LN2 - nats["value"]) < 1e-15


def test_relent_matches_library(tmp_path, capsys):
    rho = thermal_cm(1.0, 0.8)
    sigma = thermal_cm(1.5, 1.2)
    rho_path = write_doc(tmp_path / "rho.json", rho)
    sig_path = write_doc(tmp_path / "sig.json", cm_to_em(sigma), kind="em")
    z = np.array([0.1, 0.0, -0.2, 0.3])
    code, out = run(
        capsys,
        ["relent", "-i", rho_path, "--sigma", sig_path, "--dz", "0.1,0,-0.2,0.3"],
    )
    assert code == 0
    doc = json.loads(out)
    expect = relative_entropy(rho, cm_to_em(sigma), sigma_kind="em", z=z)
    assert abs(doc["value"] - expect.value) < 1e-12
    assert abs(doc["self_term"] - expect.self_term) < 1e-12
    assert abs(doc["cross_term"] - expect.cross_term) < 1e-12
    code, out = run(capsys, ["relent", "-i", rho_path, "--sigma", sig_path, "--dz", "a,b"])
    assert code == 2


def test_classify_and_separable_documents(tmp_path, capsys):
    doc = write_doc(tmp_path / "tmsv.json", tmsv_cm(0.5))
    _, out = run(capsys, ["classify", "-i", doc])
    tag = json.loads(out)
    assert tag["separable"] is False
    assert tag["label"] == "IV"
    assert abs(tag["ratio"] - 1.0) < 1e-12
    assert abs(tag["a"] - tag["b"]) < 1e-12

    doc = write_doc(tmp_path / "thermal.json", thermal_cm(1.0, 1.2))
    _, out = run(capsys, ["separable", "-i", doc])
    verdict = json.loads(out)
    assert verdict["separable"] is True
    assert verdict["border_residual"] > 0


def test_gree_output_is_byte_identical(tmp_path, capsys):
    doc = write_doc(tmp_path / "rho.json", tmsv_cm(0.4))
    args = ["gree", "-i", doc, "--starts", "4"]
    code_a, out_a = run(capsys, args)
    code_b, out_b = run(capsys, args)
    assert code_a == code_b == 0
    assert out_a == out_b
    res = json.loads(out_a)
    assert res["label"] in ("I", "II", "III", "IV")
    assert abs(res["value_bits"] * LN2 - res["value_nats"]) < 1e-15
    assert np.array(res["best_em"]).shape == (4, 4)
    assert res["diagnostics"]["separable"] is False


def test_gree_separable_document(tmp_path, capsys):
    rng = np.random.default_rng(11)
    doc = write_doc(tmp_path / "sep.json", draw_separable_cm(rng))
    _, out = run(capsys, ["gree", "-i", doc])
    res = json.loads(out)
    assert res["value_nats"] == 0.0
    assert res["label"] is None and res["params"] is None
    assert res["diagnostics"]["separable"] is True


def test_gree_family_routes_agree(tmp_path, capsys):
    doc = write_doc(tmp_path / "tmst.json", tmst_cm(1.5, 0.9))
    _, full = run(capsys, ["gree", "-i", doc, "--starts", "8"])
    _, tmst = run(capsys, ["gree-tmst", "--m", "1.5", "--k", "0.9"])
    _, sym = run(
        capsys,
        ["gree-sym", "--m", "1.5", "--kq", "0.9", "--kp", "0.9", "--starts", "6"],
    )
    v_full = json.loads(full)["value_nats"]
    v_tmst = json.loads(tmst)["value_nats"]
    v_sym = json.loads(sym)["value_nats"]
    assert abs(v_full - v_tmst) < 1e-6
    assert abs(v_sym - v_tmst) < 1e-8
    assert json.loads(tmst)["params"]["gamma_a"] == json.loads(tmst)["params"]["gamma_b"]


@pytest.mark.parametrize("argv", [
    ["gree-sym", "--m", "2.0", "--kq", "1.2", "--kp", "1.0", "--starts", "0"],
    ["gree", "--starts", "0"],
    ["gree", "--starts", "-3"],
])
def test_bad_search_knobs_exit_2(tmp_path, capsys, argv):
    if argv[0] == "gree":
        argv = argv[:1] + ["-i", write_doc(tmp_path / "rho.json", tmsv_cm(0.4))] + argv[1:]
    code, out = run(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"


NOT_POSITIVE_DEFINITE = "not positive definite"
UNCERTAINTY = "violates the uncertainty relation"


# argv, the option that reads the invalid document ("-i": the state itself;
# otherwise rho is tmsv_cm(0.5)), its kind and matrix, and the error message
@pytest.mark.parametrize("argv, option, kind, matrix, message", [
    pytest.param(["entropy"], "-i", "cm", -tmsv_cm(0.5), NOT_POSITIVE_DEFINITE, id="entropy"),
    pytest.param(["separable"], "-i", "cm", -tmsv_cm(0.5), NOT_POSITIVE_DEFINITE,
                 id="separable"),
    pytest.param(["classify"], "-i", "cm", -tmsv_cm(0.5), NOT_POSITIVE_DEFINITE, id="classify"),
    pytest.param(["gree"], "-i", "cm", -tmsv_cm(0.5), NOT_POSITIVE_DEFINITE, id="gree"),
    pytest.param(["relent"], "--sigma", "cm", -np.eye(4), NOT_POSITIVE_DEFINITE,
                 id="relent-sigma-cm"),
    pytest.param(["descend"], "--sigma0", "cm", -np.eye(4), NOT_POSITIVE_DEFINITE,
                 id="descend-sigma0-cm"),
    pytest.param(["convert", "cm-to-em"], "-i", "cm", -np.eye(4), NOT_POSITIVE_DEFINITE,
                 id="convert-cm"),
    pytest.param(["relent"], "--sigma", "cm", 0.3 * np.eye(4), UNCERTAINTY,
                 id="relent-sigma-cm-below-vacuum"),
    pytest.param(["descend"], "--sigma0", "cm", 0.3 * np.eye(4), UNCERTAINTY,
                 id="descend-sigma0-cm-below-vacuum"),
    pytest.param(["convert", "cm-to-em"], "-i", "cm", 0.3 * np.eye(4), UNCERTAINTY,
                 id="convert-cm-below-vacuum"),
    pytest.param(["convert", "em-to-cm"], "-i", "em", -np.eye(4), NOT_POSITIVE_DEFINITE,
                 id="convert-em"),
    pytest.param(["relent"], "--sigma", "em", -np.eye(4), NOT_POSITIVE_DEFINITE,
                 id="relent-sigma-em"),
    pytest.param(["descend"], "--sigma0", "em", -np.eye(4), NOT_POSITIVE_DEFINITE,
                 id="descend-sigma0-em"),
    pytest.param(["entropy"], "-i", "em", -np.eye(4), NOT_POSITIVE_DEFINITE, id="entropy-em"),
])
def test_negative_definite_cm_exits_2(tmp_path, capsys, argv, option, kind, matrix, message):
    doc = write_doc(tmp_path / "bad.json", matrix, kind=kind)
    if option == "-i":
        argv = argv + ["-i", doc]
    else:
        argv = argv + ["-i", write_doc(tmp_path / "rho.json", tmsv_cm(0.5)), option, doc]
    code, out = run(capsys, argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValidationError" and message in error["message"]


def test_gree_types_restriction(tmp_path, capsys):
    doc = write_doc(tmp_path / "rho.json", standard_cm(1.2, 0.9, 0.7, 0.6))
    _, out = run(capsys, ["gree", "-i", doc, "--starts", "4", "--types", "II,IV"])
    res = json.loads(out)
    assert set(res["diagnostics"]["per_type"]) == {"II", "IV"}


def test_descend_at_border_document_and_log(tmp_path, capsys):
    rho_path = write_doc(tmp_path / "rho.json", standard_cm(1.2, 0.9, 0.7, 0.6))
    sig_path = write_doc(tmp_path / "sig.json", thermal_cm(1.3, 1.4))
    log_path = tmp_path / "steps.csv"
    code, out = run(
        capsys,
        [
            "descend", "-i", rho_path, "--sigma0", sig_path,
            "--stop", "at-border", "--log", str(log_path),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["stop"] == "at_border"
    assert doc["crossed"] is True and doc["crossings"] >= 1
    assert doc["border_value"] == doc["objective"]
    assert abs(doc["border_residual"]) < 1e-8
    assert np.array(doc["border_em"]).shape == (4, 4)

    lines = log_path.read_text().splitlines()
    assert lines[0].startswith("# columns: iteration, group, gain, objective")
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    groups = {r[1] for r in rows}
    assert groups <= {"align", "local", "first_kind", "second_kind", "crossing"}
    assert all(float(r[2]) >= -1e-11 for r in rows)
    last_values = [float(r[3]) for r in rows if r[1] != "crossing"]
    assert all(b - a <= 1e-11 for a, b in zip(last_values, last_values[1:]))


def test_descend_at_rho_document(tmp_path, capsys):
    rho_path = write_doc(tmp_path / "rho.json", standard_cm(1.2, 0.9, 0.7, 0.6))
    sig_path = write_doc(tmp_path / "sig.json", thermal_cm(1.1, 1.2))
    code, out = run(capsys, ["descend", "-i", rho_path, "--sigma0", sig_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["stop"] == "at_rho"
    assert doc["objective"] <= 1e-8
    assert doc["crossed"] is False
    assert doc["border_value"] is None and doc["border_em"] is None
    assert doc["steps"] > 0 and doc["crossings"] == 0
    assert len(doc["gammas_sigma"]) == 2


@pytest.mark.parametrize("rho, sigma0", [
    (standard_cm(1.2, 0.9, 0.7, 0.6), thermal_cm(1.1, 1.2, 1.3)),
    (thermal_cm(0.9), thermal_cm(1.1, 1.2)),
], ids=["n2-vs-n3", "n1-vs-n2"])
def test_descend_mode_count_mismatch_exits_2(tmp_path, capsys, rho, sigma0):
    rho_path = write_doc(tmp_path / "rho.json", rho)
    sig_path = write_doc(tmp_path / "sig.json", cm_to_em(sigma0), kind="em")
    code, out = run(capsys, ["descend", "-i", rho_path, "--sigma0", sig_path])
    assert code == 2
    error = json.loads(out)["error"]
    assert error == {
        "type": "ValidationError",
        "message": "mode-count mismatch between rho and sigma",
    }


@pytest.mark.parametrize("argv", [
    ["gree"],
    ["gree-sym", "--m", "1.6", "--kq", "0.9", "--kp", "0.7"],
    ["scan", "fig1"],
], ids=["gree", "gree-sym", "scan"])
def test_search_commands_take_no_seed(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--seed", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["gree"], ["scan", "fig1"]], ids=["gree", "scan"])
def test_search_commands_take_no_tol(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--tol", "1e-10"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tol 1e-10" in capsys.readouterr().err


def test_cli_import_leaves_the_process_pool_unloaded():
    code = (
        "import sys, gree, gree.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    )
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def scan_rows(text):
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    return comments, body[0].split(","), [line.split(",") for line in body[1:]]


def test_scan_fig1_grid(tmp_path):
    out = tmp_path / "fig1.csv"
    argv = [
        "scan", "fig1", "--points", "3", "--gamma-a-min", "0.8",
        "--gamma-a-max", "1.2", "--starts", "4", "-o", str(out),
    ]
    assert main(argv) == 0
    comments, header, rows = scan_rows(out.read_text())
    assert len(comments) == 3
    assert header[:5] == ["gamma_a", "gamma_b", "x", "sinh_2r", "value"]
    assert len(rows) == 3 and all(len(r) == 10 for r in rows)
    for r in rows:
        assert r[-1] == "ok"
        value = float(r[4])
        types = [float(v) for v in r[5:9]]
        finite = [v for v in types if math.isfinite(v)]
        assert finite and abs(value - min(finite)) < 1e-12

    twin = tmp_path / "fig1-workers.csv"
    assert main(argv[:-1] + [str(twin), "--workers", "2"]) == 0
    assert twin.read_bytes() == out.read_bytes()


def test_scan_fig2_and_fig3_grids(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(
        ["scan", "fig2", "--points", "2", "--gamma-a-min", "0.9",
         "--gamma-a-max", "1.1", "--starts", "4", "-o", str(out)]
    ) == 0
    _, header, rows = scan_rows(out.read_text())
    assert header[2] == "theta"
    assert len(rows) == 2 and all(r[-1] == "ok" for r in rows)

    out = tmp_path / "fig3.csv"
    assert main(
        ["scan", "fig3", "--points", "2", "--ratios", "0.4", "--starts", "4",
         "--gamma-a-min", "1.0", "--gamma-a-max", "1.6", "-o", str(out)]
    ) == 0
    _, header, rows = scan_rows(out.read_text())
    assert header == [
        "target", "gamma_a", "gamma_b", "value",
        "ratio_original", "ratio_minimizer", "status",
    ]
    assert len(rows) == 2
    for r in rows:
        assert r[-1] == "ok"
        assert float(r[5]) <= float(r[4]) + 1e-9


def test_scan_empty_grid_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["scan", "fig1", "--points", "0", "-o", str(out)]) == 0
    comments, header, rows = scan_rows(out.read_text())
    assert rows == []
    assert header[0] == "gamma_a"


def test_scan_rejects_bad_ratios(capsys):
    code, out = run(capsys, ["scan", "fig3", "--ratios", "0.2,1.4"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"


def test_verify_roundtrip_suite(capsys):
    code, out = run(capsys, ["verify", "--suite", "roundtrip"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("roundtrip") and "PASS" in lines[0]
    assert lines[-1] == "overall    PASS"


def test_verify_descent_suite_holds_the_rise_bound(capsys):
    code, out = run(capsys, ["verify", "--suite", "descent"])
    assert code == 0
    line = out.splitlines()[0]
    assert line.startswith("descent") and "PASS" in line
    assert float(line.split("max rise")[1]) <= DESCENT_RISE_TOL == 1e-11
    assert out.splitlines()[-1] == "overall    PASS"


@pytest.mark.parametrize("dim_args", [[], ["--dim", "80"]], ids=["default", "dim80"])
def test_verify_oracle_suite(capsys, dim_args):
    code, out = run(capsys, ["verify", "--suite", "oracle"] + dim_args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("oracle") and "PASS" in lines[0]
    assert ("(dim 80," if dim_args else "(dim 30,") in lines[0]
    # six pairs, then one with a locally squeezed rho
    assert "pairs 7 " in lines[0]
    if not dim_args:
        assert lines[0] == (
            "oracle     PASS   pairs 7   max |gaussian - fock| 1.745e-09   (dim 30, tol 0.001)")
    assert lines[-1] == "overall    PASS"


def test_verify_reports_a_small_fock_cutoff_as_fail(capsys):
    """A cutoff too small for the oracle pairs trips the truncation guard;
    verify reports that as the oracle suite's FAIL and still runs every
    other suite."""
    code, out = run(capsys, ["verify", "--suite", "all", "--dim", "8"])
    assert code == 1
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["roundtrip", "PASS"], ["oracle", "FAIL"], ["descent", "PASS"], ["overall", "FAIL"]]
    assert "pair 1 of 7   truncation defect" in lines[1] and "(dim 8)" in lines[1]


def test_verify_reports_failure(capsys, monkeypatch):
    monkeypatch.setattr("gree.cli._verify_roundtrip", lambda seed: (False, "forced"))
    code, out = run(capsys, ["verify", "--suite", "roundtrip"])
    assert code == 1
    assert "FAIL" in out.splitlines()[0]
    assert out.splitlines()[-1] == "overall    FAIL"


def test_output_file_matches_stdout(tmp_path, capsys):
    doc = write_doc(tmp_path / "rho.json", thermal_cm(1.0))
    _, out = run(capsys, ["entropy", "-i", doc])
    target = tmp_path / "entropy.json"
    assert main(["entropy", "-i", doc, "-o", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text() == out
