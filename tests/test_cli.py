"""Command-line frontend: eval/check/suite/table, configs, exit codes."""

import json
import math

import pytest

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


# --------------------------------------------------------------- config

def test_config_round_trip(tmp_path, capsys):
    from conefourier.cli import config_to_json, load_config

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "quadrature": {"abs_tol": 1e-10, "rel_tol": 1e-8},
        "seed": 7,
        "format": "json",
    }))
    cfg = load_config(str(cfg_path))
    rt_path = tmp_path / "cfg2.json"
    rt_path.write_text(config_to_json(cfg))
    cfg2 = load_config(str(rt_path))
    assert cfg == cfg2

    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for cpath, fpath in ((cfg_path, f1), (rt_path, f2)):
        code, _, _ = run_cli(capsys, "suite", "--ids", "norm-constants",
                             "--config", str(cpath), "--out", str(fpath))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


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


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
