"""Command-line frontend: eval/check/suite/table, configs, exit codes."""

import json
import math

import numpy as np
import pytest

from conefourier import QuadratureConfig, ball_op, cli, gegenbauer, run_suite
from conefourier.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------- eval

def test_eval_gegenbauer_exact_string(capsys):
    code, out, _ = run_cli(capsys, "eval", "gegenbauer", "n=1", "mu=1",
                           "x=0.5")
    assert code == 0
    assert out.strip() == "1.000000000000000e0"


def test_eval_ft_f_pi(capsys):
    code, out, _ = run_cli(capsys, "eval", "ft-f", "d=1", "k=0", "a=0.5",
                           "xi=0")
    assert code == 0
    assert abs(float(out.strip().replace(" ", "")) - math.pi) < 1e-14


def test_eval_hahn_unit(capsys):
    code, out, _ = run_cli(capsys, "eval", "hahn", "k=0", "x=0.3", "a=1",
                           "b=1", "c=1", "d=1")
    assert code == 0
    assert out.strip() == "1.000000000000000e0"


def test_eval_complex_output_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "ft-f", "d=1", "k=2", "a=0.8",
                           "mu=0.6", "xi=1.3")
    assert code == 0
    text = out.strip()
    # "re + im i" or "re - im i" with bare exponents
    assert text.endswith(" i") or " i" not in text
    for tok in ("e0", "e-1", "e-2", "e1"):
        if tok in text:
            break
    else:
        pytest.fail(f"no bare exponent in {text!r}")


def test_eval_unknown_function_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "zeta", "s=2")
    assert code == 2
    assert "error" in err.lower()


def test_eval_malformed_argument(capsys):
    code, _, err = run_cli(capsys, "eval", "gegenbauer", "n=1", "mu=1",
                           "x=barley")
    assert code == 2


def test_eval_missing_mu_for_nonzero_k(capsys):
    code, _, err = run_cli(capsys, "eval", "ft-f", "d=1", "k=2", "a=0.8",
                           "xi=0.5")
    assert code == 2
    assert "mu" in err


@pytest.mark.parametrize("command,x", [("eval", "x=0.5,0.7"),
                                       ("table", "x=0.5,0:1:3")])
def test_scalar_argument_rejects_extra_components(capsys, command, x):
    code, out, err = run_cli(capsys, command, "gegenbauer", "n=1", "mu=1", x)
    assert code == 2
    assert out == ""
    assert "scalar" in err


def test_eval_domain_error_exit_3(capsys):
    code, _, err = run_cli(capsys, "eval", "gegenbauer", "n=2", "mu=-0.6",
                           "x=0.1")
    assert code == 3
    assert "-1/2" in err or "mu" in err


# ---------------------------------------------------------------- check

def test_check_pass_exit_0(capsys):
    code, out, _ = run_cli(capsys, "check", "gegenbauer-orth", "n=2", "m=2",
                           "mu=1")
    assert code == 0
    assert '"pass": true' in out


def test_check_offdiagonal_pass(capsys):
    code, out, _ = run_cli(capsys, "check", "gegenbauer-orth", "n=2", "m=3",
                           "mu=1")
    assert code == 0
    rep = json.loads(out)
    assert rep["rhs"]["re"] == 0.0  # closed form: delta_{nm} = 0
    assert abs(rep["lhs"]["re"]) < 1e-10  # quadrature at roundoff scale


def test_check_domain_error_exit_3(capsys):
    code, _, err = run_cli(capsys, "check", "gegenbauer-orth", "n=2", "m=2",
                           "mu=-0.6")
    assert code == 3
    assert "-1/2" in err


def test_check_norm_past_double_range_exit_3(capsys):
    code, _, err = run_cli(capsys, "check", "parseval-a", "a1=48", "a2=36",
                           "b1=54", "b2=42", "n=0", "k=0", "m=0", "l=0")
    assert code == 3
    assert "double range" in err


def test_check_failure_exit_1(tmp_path, capsys):
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({
        "quadrature": {"abs_tol": 1e-30, "rel_tol": 1e-30, "max_levels": 4},
    }))
    code, out, _ = run_cli(capsys, "check", "gegenbauer-orth", "n=4", "m=4",
                           "mu=0.3", "--config", str(cfg))
    assert code == 1
    assert '"pass": false' in out


def test_check_report_schema(capsys):
    code, out, _ = run_cli(capsys, "check", "theta-dual", "j=1", "d=1",
                           "k=3", "a=0.5", "mu=1", "xi=2")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"id", "params", "lhs", "rhs", "abs_err", "rel_err",
                        "tol", "pass", "seconds", "evals"}
    assert set(rep["lhs"]) == {"re", "im"}
    assert rep["pass"] is True


@pytest.mark.parametrize("argv", [
    ("ball-eigen", "k=1", "mu=0.9", "x=0.3"),
    ("fd-recursion", "k=2", "a=0.8", "mu=0.6", "x=0.3")],
    ids=["ball-eigen", "fd-recursion"])
def test_check_one_coordinate_point(capsys, argv):
    # a single x reaches the check as a scalar, not a 1-tuple
    code, out, _ = run_cli(capsys, "check", *argv)
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("argv,code", [
    (("k=0,0", "mu=0.5", "x=0.1,0.2"), 0),
    (("k=2,0", "mu=0.7", "x=1.2,0"), 3)],
    ids=["zero-eigenvalue", "outside-the-ball"])
def test_check_ball_eigen_exit_code(capsys, argv, code):
    # a zero eigenvalue is judged, not divided by; a point off the open
    # ball is a domain error
    assert run_cli(capsys, "check", "ball-eigen", *argv)[0] == code


@pytest.mark.parametrize("argv,match", [
    (("n=1", "m=1", "mu=0.7", "foo=3"), "takes no parameter 'foo'"),
    (("n=1", "m=1"), "missing parameter 'mu'"),
    (("n=1.5", "m=1", "mu=0.7"), "n must be an integer"),
    (("n=1", "m=1", "mu=0.7+1j"), "mu must be real")],
    ids=["unknown", "missing", "non-integral", "complex"])
def test_check_parameter_off_the_declaration_exit_2(capsys, argv, match):
    code, out, err = run_cli(capsys, "check", "gegenbauer-orth", *argv)
    assert code == 2
    assert out == ""
    assert match in err


@pytest.mark.parametrize("argv", [
    ("norm-constants", "which=gegenbauer-vs-ball", "n=2", "mu=0.7"),
    ("basis-factor", "basis=ball", "k=1,2", "mu=0.7", "s=0.3,-0.2")],
    ids=["which", "basis"])
def test_check_takes_a_selector_as_text(capsys, argv):
    code, out, _ = run_cli(capsys, "check", *argv)
    assert code == 0
    assert json.loads(out)["params"][argv[1].partition("=")[0]] == (
        argv[1].partition("=")[2])


# ---------------------------------------------------------------- suite

def test_suite_empty_ids_exit_0(tmp_path, capsys):
    out_file = tmp_path / "empty.json"
    code, out, _ = run_cli(capsys, "suite", "--ids", "--out",
                           str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["reports"] == []
    assert doc["summary"]["total"] == 0


def test_suite_algebraic_subset_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, _, _ = run_cli(capsys, "suite", "--ids", "theta-dual",
                          "fd-recursion", "--out", str(f1))
    code2, _, _ = run_cli(capsys, "suite", "--ids", "theta-dual",
                          "fd-recursion", "--out", str(f2))
    assert code1 == 0 and code2 == 0
    assert f1.read_bytes() == f2.read_bytes()
    doc = json.loads(f1.read_text())
    assert doc["summary"]["passed"] == doc["summary"]["total"] > 0
    assert set(doc["summary"]["max_rel_err_by_id"]) == {"theta-dual",
                                                        "fd-recursion"}


def test_suite_summary_on_stdout(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "suite", "--ids", "norm-constants",
                           "--out", str(out_file))
    assert code == 0
    assert "total" in out and "passed" in out


# ---------------------------------------------------------------- table

def test_table_gegenbauer_rows(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "table", "gegenbauer", "n=3", "mu=1",
                         "x=-1:1:201", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 202
    assert '"' not in lines[1]
    # U_3(x) = 8x^3 - 4x at swept points
    for row in (lines[1], lines[101], lines[151]):
        x, re, im = (float(v) for v in row.split(","))
        assert re == pytest.approx(8 * x ** 3 - 4 * x, rel=1e-12, abs=1e-13)
        assert im == 0.0


def test_table_ft_f_sech(capsys):
    code, out, _ = run_cli(capsys, "table", "ft-f", "d=1", "k=0", "a=0.5",
                           "xi=-4:4:81")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "xi,re,im"
    assert len(lines) == 82
    for row in (lines[1], lines[41], lines[81]):
        xi, re, im = (float(v) for v in row.split(","))
        assert re == pytest.approx(math.pi / math.cosh(math.pi * xi / 2),
                                   rel=1e-12)


def test_table_single_point(capsys):
    code, out, _ = run_cli(capsys, "table", "gegenbauer", "n=1", "mu=1",
                           "x=0.25:0.75:1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    x, re, im = (float(v) for v in lines[1].split(","))
    assert x == 0.25
    assert re == pytest.approx(0.5)


def test_table_two_axes_lexicographic(capsys):
    code, out, _ = run_cli(capsys, "table", "gegenbauer", "n=1",
                           "mu=0.5:1.5:3", "x=-1:1:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,x,re,im"
    assert len(lines) == 10
    keys = [tuple(float(v) for v in row.split(",")[:2]) for row in lines[1:]]
    assert keys == sorted(keys)


def _parse_eval(text):
    # "re" or "re +/- im i", as printed by eval
    parts = text.split()
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    sign = 1.0 if parts[1] == "+" else -1.0
    return complex(float(parts[0]), sign * float(parts[2]))


def test_table_sweeps_one_vector_component(capsys):
    fixed = ["k=1,0", "a=0.8", "mu=0.6"]
    code, out, _ = run_cli(capsys, "table", "ft-f", *fixed, "xi=0.5,-4:4:5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "xi[1],re,im"
    assert len(lines) == 6
    for row in lines[1:]:
        xi, re, im = (float(v) for v in row.split(","))
        code, text, _ = run_cli(capsys, "eval", "ft-f", *fixed,
                                f"xi=0.5,{xi!r}")
        assert code == 0
        want = _parse_eval(text)
        assert abs(complex(re, im) - want) <= 1e-15 * abs(want)


# Scalar arguments of every catalog entry, at points inside its domain.
_ENTRY_ARGS = {
    "gegenbauer": {"n": "3", "mu": "0.7", "x": "0.3"},
    "laguerre": {"n": "3", "alpha": "0.5", "t": "1.5"},
    "jacobi": {"n": "3", "alpha": "0.5", "beta": "1.5", "t": "0.2"},
    "hahn": {"k": "3", "x": "0.4", "a": "0.7", "b": "1.1", "c": "0.7",
             "d": "1.1"},
    "ball-op": {"k": "1,2", "mu": "0.6", "x": "0.2,0.3"},
    "laguerre-cone": {"k": "1,1", "n": "3", "beta": "0.5", "mu": "0.7",
                      "t": "1.5", "x": "0.1,0.2"},
    "jacobi-cone": {"k": "1,0", "n": "2", "beta": "0.5", "mu": "0.7",
                    "gamma": "0.3", "t": "0.8", "x": "0.1,0.05"},
    "f-d": {"k": "1,2", "a": "0.8", "mu": "0.6", "x": "0.4,-0.3"},
    "g-laguerre": {"n": "2", "k": "1", "a": "0.7", "b": "1.2", "beta": "0.5",
                   "mu": "0.9", "t": "0.4", "x": "0.3"},
    "g-jacobi": {"n": "2", "k": "1,0", "a": "0.7", "b": "1.2", "c": "0.9",
                 "beta": "0.5", "mu": "0.9", "gamma": "0.4", "t": "0.3",
                 "x": "0.4,0.1"},
    "ft-f-closed": {"k": "1,2", "a": "0.8", "mu": "0.6", "xi": "0.5,-1.5"},
    "ft-g-laguerre-closed": {"n": "3", "k": "1,1", "a": "0.7", "b": "1.2",
                             "beta": "0.5", "mu": "0.9",
                             "xi": "0.5,0.4,-1.0"},
    "ft-g-jacobi-closed": {"n": "2", "k": "1", "a": "0.7", "b": "1.2",
                           "c": "0.9", "beta": "0.5", "mu": "0.9",
                           "gamma": "0.4", "xi": "0.3,0.6"},
    "a-family": {"n": "3", "k": "1,1", "t": "0.3", "x": "0.7,-0.2",
                 "a1": "0.8", "a2": "0.6", "b1": "0.9", "b2": "0.7"},
    "b-family": {"n": "2", "k": "1", "t": "0.3", "x": "0.7", "a1": "0.8",
                 "a2": "0.6", "b1": "0.9", "b2": "0.7", "c1": "1.1",
                 "c2": "0.5", "form": "hahn"},
}

_SWEEP_CASES = [(name, key, i)
                for name, (_, spec) in cli._CATALOG.items()
                for key in cli._POINT_KEYS if key in spec
                for i in range(len(_ENTRY_ARGS[name][key].split(",")))]


def _eval_value(name, args):
    # exactly what eval computes, before it rounds for printing
    name, evaluate, spec = cli._lookup(name)
    return complex(evaluate(cli._take(args, spec, name)))


# Array and scalar arithmetic round differently in the last bit, and a
# series that cancels (the imaginary part of a real Hahn polynomial, a
# Beta-3F2 sum) lifts that to a few eps of the sweep's largest value.
_SWEEP_TOL = 1e-14


def test_sweep_cases_cover_the_catalog():
    assert set(_ENTRY_ARGS) == set(cli._CATALOG)
    assert {name for name, _, _ in _SWEEP_CASES} == set(cli._CATALOG)


@pytest.mark.parametrize("name,key,i", _SWEEP_CASES,
                         ids=[f"{n}-{k}{i}" for n, k, i in _SWEEP_CASES])
def test_table_point_sweep_matches_eval(capsys, name, key, i):
    args = dict(_ENTRY_ARGS[name])
    parts = args[key].split(",")
    lo, hi = (0.5, 1.5) if key == "t" else (-0.5, 0.5)
    parts[i] = f"{lo}:{hi}:7"
    args[key] = ",".join(parts)
    code, out, _ = run_cli(capsys, "table", name,
                           *[f"{k}={v}" for k, v in args.items()])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == f"{key if len(parts) == 1 else f'{key}[{i}]'},re,im"
    assert len(lines) == 8
    got, want = [], []
    for row in lines[1:]:
        c, re, im = (float(v) for v in row.split(","))
        parts[i] = repr(c)
        got.append(complex(re, im))
        want.append(_eval_value(name, {**args, key: ",".join(parts)}))
    scale = max(abs(w) for w in want)
    assert scale > 0.0
    assert max(abs(g - w) for g, w in zip(got, want)) <= _SWEEP_TOL * scale


@pytest.mark.parametrize("first", ["param", "point"])
def test_table_rows_lexicographic_in_axis_order(capsys, first):
    fixed = ["k=1,2", "mu=0.6"]
    axes = ["a=0.6:1.0:3", "xi=0.5,-2:2:5"]
    if first == "point":
        axes.reverse()
    code, out, _ = run_cli(capsys, "table", "ft-f", *axes, *fixed)
    assert code == 0
    lines = out.strip().splitlines()
    names = [ax.split("=")[0] for ax in axes]
    assert lines[0] == ",".join([n if n == "a" else "xi[1]" for n in names]
                                + ["re", "im"])
    assert len(lines) == 16
    coords = [tuple(float(v) for v in row.split(",")[:2]) for row in lines[1:]]
    assert coords == sorted(coords)
    got, want = [], []
    for row, c in zip(lines[1:], coords):
        at = dict(zip(names, c))
        re, im = (float(v) for v in row.split(",")[2:])
        got.append(complex(re, im))
        want.append(_eval_value("ft-f", {"k": "1,2", "mu": "0.6",
                                         "a": repr(at["a"]),
                                         "xi": f"0.5,{at['xi']!r}"}))
    scale = max(abs(w) for w in want)
    assert max(abs(g - w) for g, w in zip(got, want)) <= _SWEEP_TOL * scale


@pytest.mark.parametrize("argv", [
    ["ball-op", "k=1,2", "mu=0.6", "x=-1.2:1.2:7,0.2"],
    ["laguerre-cone", "k=1,1", "n=3", "beta=0.5", "mu=0.7", "t=-1:3:5",
     "x=0.1,0.2"],
], ids=["ball-op", "laguerre-cone"])
def test_table_sweep_leaving_domain_exits_3_without_rows(capsys, argv):
    code, out, err = run_cli(capsys, "table", *argv)
    assert code == 3
    assert out == ""
    assert "domain error" in err


@pytest.mark.parametrize("argv,calls,rows", [
    (["gegenbauer", "n=2", "mu=1", "x=-1:1:201"], 1, 201),
    (["gegenbauer", "n=2", "mu=0.5:1.5:3", "x=-1:1:201"], 3, 603),
    (["gegenbauer", "x=0.25", "n=2", "mu=0.5:1.5:4"], 4, 4),
])
def test_table_calls_evaluator_once_per_parameter_value(capsys, monkeypatch,
                                                        argv, calls, rows):
    seen = []

    def counting(n, mu, x):
        seen.append(np.shape(x))
        return gegenbauer(n, mu, x)

    monkeypatch.setattr(cli, "gegenbauer", counting)
    code, out, _ = run_cli(capsys, "table", *argv)
    assert code == 0
    assert len(seen) == calls
    assert len(out.strip().splitlines()) == 1 + rows


def test_table_two_point_axes_one_call(capsys, monkeypatch):
    seen = []

    def counting(k, mu, p):
        seen.append(tuple(np.shape(c) for c in p))
        return ball_op(k, mu, p)

    monkeypatch.setattr(cli, "ball_op", counting)
    code, out, _ = run_cli(capsys, "table", "ball-op", "k=1,2", "mu=0.6",
                           "x=-0.5:0.5:5,-0.5:0.5:4")
    assert code == 0
    assert seen == [((5, 4), (5, 4))]
    assert out.splitlines()[0] == "x[0],x[1],re,im"
    assert len(out.strip().splitlines()) == 21


# --------------------------------------------------------------- config

def test_config_loads_and_drives_the_suite(tmp_path, capsys):
    from conefourier.cli import RunConfig, load_config

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "quadrature": {"abs_tol": 1e-10, "rel_tol": 1e-8},
        "seed": 7,
        "format": "json",
    }))
    cfg = load_config(str(cfg_path))
    quad = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8)
    assert cfg == RunConfig(quadrature=quad, seed=7)

    # the run under --config is the library run at the loaded settings,
    # and its quadrature override shows in the evaluation counts
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for argv in (("--config", str(cfg_path), "--out", str(f1)),
                 ("--out", str(f2))):
        code, _, _ = run_cli(capsys, "suite", "--ids", "gegenbauer-orth",
                             *argv)
        assert code == 0
    want = cli._suite_json(run_suite(["gegenbauer-orth"], cfg=quad, seed=7))
    assert f1.read_text() == want
    assert f1.read_bytes() != f2.read_bytes()


def _assert_csv_row_is_report(row, rep, params_text):
    # a CSV row carries the JSON report's values, cell by cell; seconds,
    # check's wall time, differs between two runs
    cells = row.split(",")
    assert len(cells) == 12
    assert cells[:2] == [rep["id"], params_text]
    assert [float(c) for c in cells[2:9]] == [
        rep["lhs"]["re"], rep["lhs"]["im"], rep["rhs"]["re"], rep["rhs"]["im"],
        rep["abs_err"], rep["rel_err"], rep["tol"]]
    assert cells[9] == ("true" if rep["pass"] else "false")
    assert int(cells[11]) == rep["evals"]


def test_suite_csv_on_config_grids_matches_json(tmp_path, capsys):
    grids = {
        "theta-dual": [
            {"j": 1, "d": 2, "k": [1, 2], "a": 0.8, "mu": 0.6, "xi": 1.5},
            {"j": 2, "d": 2, "k": [0, 3], "a": 1.1, "mu": 0.9, "xi": -2.25}],
        "fd-recursion": [{"x": [-0.3, 1.25], "k": [2, 1], "a": 0.8,
                          "mu": 0.6}]}
    text = {}
    for fmt in ("csv", "json"):
        cfg, out = tmp_path / f"{fmt}.json", tmp_path / f"suite.{fmt}"
        cfg.write_text(json.dumps({"grids": grids, "format": fmt,
                                   "out": str(out)}))
        code, _, _ = run_cli(capsys, "suite", "--ids", "theta-dual",
                             "fd-recursion", "--config", str(cfg))
        assert code == 0
        text[fmt] = out.read_text()
    header, *rows = text["csv"].splitlines()
    assert header == ("id,params,lhs_re,lhs_im,rhs_re,rhs_im,"
                      "abs_err,rel_err,tol,pass,seconds,evals")
    reports = json.loads(text["json"])["reports"]
    params_text = {"fd-recursion": ["a=0.8;k=2|1;mu=0.6;x=-0.3|1.25"],
                   "theta-dual": ["a=0.8;d=2;j=1;k=1|2;mu=0.6;xi=1.5",
                                  "a=1.1;d=2;j=2;k=0|3;mu=0.9;xi=-2.25"]}
    assert len(rows) == len(reports) == 3
    for row, rep in zip(rows, reports):
        _assert_csv_row_is_report(row, rep, params_text[rep["id"]].pop(0))


def test_check_writes_to_out_what_it_prints(tmp_path, capsys):
    argv = ("check", "theta-dual", "j=1", "d=1", "k=3", "a=0.5", "mu=1",
            "xi=2")
    cfg, out = tmp_path / "cfg.json", tmp_path / "check.csv"
    cfg.write_text(json.dumps({"format": "csv", "out": str(out)}))
    code, printed, _ = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 0
    assert out.read_text() == printed
    header, row = printed.splitlines()
    assert header.startswith("id,params,lhs_re,")
    code, as_json, _ = run_cli(capsys, *argv)
    assert code == 0
    _assert_csv_row_is_report(row, json.loads(as_json),
                              "a=0.5;d=1;j=1;k=3;mu=1;xi=2")


def test_config_unknown_keys_rejected(tmp_path, capsys):
    bad1 = tmp_path / "bad1.json"
    bad1.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "suite", "--ids", "theta-dual",
                           "--config", str(bad1))
    assert code == 2
    assert "unknown config key" in err

    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"quadrature": {"nope": 1}}))
    code, _, err = run_cli(capsys, "suite", "--ids", "theta-dual",
                           "--config", str(bad2))
    assert code == 2
    assert "unknown quadrature key" in err

    # the GK truncation radius is a module constant, not a setting
    bad3 = tmp_path / "bad3.json"
    bad3.write_text(json.dumps({"quadrature": {"truncation_radius": 60}}))
    code, _, err = run_cli(capsys, "suite", "--ids", "theta-dual",
                           "--config", str(bad3))
    assert code == 2
    assert "unknown quadrature key" in err


@pytest.mark.parametrize("row,match", [
    ({"j": 1, "d": 1, "k": [3], "a": 0.5, "mu": 1, "xi": 2, "foo": 3},
     "takes no parameter 'foo'"),
    ({"j": 1, "d": 1, "k": [3], "a": 0.5, "mu": 1}, "missing parameter 'xi'"),
    ([1, 1, [3], 0.5, 1, 2], "must be a list of objects")],
    ids=["unknown", "missing", "not-an-object"])
def test_config_grid_row_off_the_declaration_exit_2(tmp_path, capsys,
                                                    monkeypatch, row, match):
    # the row is refused when the config loads, before any check runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grids": {"theta-dual": [row]}}))
    monkeypatch.setattr(cli, "run_suite", None)
    code, out, err = run_cli(capsys, "suite", "--ids", "theta-dual",
                             "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert match in err


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
