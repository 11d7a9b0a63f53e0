"""Command-line frontend: evaluate catalog functions, check single
identities, run suites, and emit value tables.

Exit status contract: 0 success (and check/suite pass), 1 check or suite
failure, 2 usage errors (unknown names, malformed arguments or config),
3 domain errors raised by the library.

Report files are written with a fixed key order and fixed number
formatting (17 significant digits) so that identical runs produce
byte-identical bytes; a serialized RunConfig re-read through --config
reproduces the run exactly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .kernel import DomainError
from .multivariate import (JacobiConeParams, LaguerreConeParams, ball_op,
                           jacobi_cone, laguerre_cone)
from .quadrature import QuadratureConfig
from .transforms import (FreqVector, ParsevalParams, TransformParamsJacobi,
                         TransformParamsLaguerre, a_family, b_family, f_d,
                         ft_f_closed, ft_g_jacobi_closed,
                         ft_g_laguerre_closed, g_jacobi, g_laguerre)
from .univariate import continuous_hahn, gegenbauer, jacobi, laguerre
from .verify import IDENTITY_IDS, CheckReport, check_identity, run_suite

__all__ = ["RunConfig", "load_config", "config_to_json", "main"]


class UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# Value formatting
# ----------------------------------------------------------------------

def _fmt_sig(v: float) -> str:
    """Scientific notation with a 16-digit mantissa and a bare exponent,
    e.g. 1.000000000000000e0, 3.141592653589793e0, 1.5e-5 -> ...e-5."""
    s = f"{float(v):.15e}"
    mant, exp = s.split("e")
    return f"{mant}e{int(exp)}"


def _fmt_value(v) -> str:
    v = complex(v)
    if v.imag == 0.0:
        return _fmt_sig(v.real)
    sign = "+" if v.imag >= 0 else "-"
    return f"{_fmt_sig(v.real)} {sign} {_fmt_sig(abs(v.imag))} i"


def _json_float(v: float) -> str:
    v = float(v)
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return f"{v:.16e}"


def _json_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _json_float(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (tuple, list)):
        return "[" + ", ".join(_json_scalar(c) for c in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _report_json(r: CheckReport) -> str:
    params = ", ".join(f"{json.dumps(k)}: {_json_scalar(v)}"
                       for k, v in r.params)
    return ("{"
            f'"id": {json.dumps(r.id)}, '
            f'"params": {{{params}}}, '
            f'"lhs": {{"re": {_json_float(r.lhs.real)}, "im": {_json_float(r.lhs.imag)}}}, '
            f'"rhs": {{"re": {_json_float(r.rhs.real)}, "im": {_json_float(r.rhs.imag)}}}, '
            f'"abs_err": {_json_float(r.abs_err)}, '
            f'"rel_err": {_json_float(r.rel_err)}, '
            f'"tol": {_json_float(r.tol)}, '
            f'"pass": {_json_scalar(r.passed)}, '
            f'"seconds": {_json_float(r.seconds)}, '
            f'"evals": {int(r.evals)}'
            "}")


def _suite_json(result) -> str:
    reports = ", ".join(_report_json(r) for r in result)
    by_id = ", ".join(f"{json.dumps(i)}: {_json_float(v)}"
                      for i, v in sorted(result.summary["max_rel_err_by_id"].items()))
    return ("{"
            f'"reports": [{reports}], '
            '"summary": {'
            f'"total": {int(result.summary["total"])}, '
            f'"passed": {int(result.summary["passed"])}, '
            f'"max_rel_err_by_id": {{{by_id}}}'
            "}}\n")


_CSV_HEADER = ("id,params,lhs_re,lhs_im,rhs_re,rhs_im,"
               "abs_err,rel_err,tol,pass,seconds,evals")


def _csv_cell(v: float) -> str:
    v = float(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.16e}"


def _param_text(v) -> str:
    if isinstance(v, tuple):
        return "|".join(_param_text(c) for c in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _report_csv_row(r: CheckReport) -> str:
    params = ";".join(f"{k}={_param_text(v)}" for k, v in r.params)
    return ",".join([
        r.id, params,
        _csv_cell(r.lhs.real), _csv_cell(r.lhs.imag),
        _csv_cell(r.rhs.real), _csv_cell(r.rhs.imag),
        _csv_cell(r.abs_err), _csv_cell(r.rel_err), _csv_cell(r.tol),
        "true" if r.passed else "false",
        _csv_cell(r.seconds), str(int(r.evals)),
    ])


def _suite_csv(result) -> str:
    return "\n".join([_CSV_HEADER] + [_report_csv_row(r) for r in result]) + "\n"


# ----------------------------------------------------------------------
# Argument parsing helpers
# ----------------------------------------------------------------------

def _num(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text)
    except ValueError:
        raise UsageError(f"cannot parse number {text!r}")


def _parse_pairs(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        if not key or not val:
            raise UsageError(f"expected key=value, got {tok!r}")
        if key in out:
            raise UsageError(f"duplicate argument {key!r}")
        out[key] = val
    return out


def _value_of(text: str):
    if "," in text:
        return tuple(_num(p) for p in text.split(","))
    return _num(text)


def _reals(v, name):
    seq = v if isinstance(v, tuple) else (v,)
    out = []
    for c in seq:
        if isinstance(c, complex):
            raise UsageError(f"{name} must be real")
        out.append(float(c))
    return tuple(out)


def _ints(v, name):
    seq = v if isinstance(v, tuple) else (v,)
    out = []
    for c in seq:
        if not isinstance(c, int):
            raise UsageError(f"{name} must be integer")
        out.append(c)
    return tuple(out)


def _take(args: dict, spec: dict, name: str) -> dict:
    """Pull typed values out of the raw string map.  spec maps key ->
    (converter, required).  An extra 'd' key cross-checks component
    counts, except where the function defines its own d parameter."""
    vals = {}
    raw = dict(args)
    d = raw.pop("d", None) if "d" not in spec else None
    for key, (conv, required) in spec.items():
        if key in raw:
            vals[key] = conv(raw.pop(key))
        elif required:
            raise UsageError(f"{name} requires {key}=")
    if raw:
        raise UsageError(f"unknown argument {sorted(raw)[0]!r} for {name}")
    if d is not None:
        dd = _ints(_value_of(d), "d")[0]
        for key in ("k", "x", "xi"):
            if key in vals and isinstance(vals[key], tuple):
                want = dd + 1 if key == "xi" and "b" in spec else dd
                if len(vals[key]) != want:
                    raise UsageError(
                        f"{name}: {key} has {len(vals[key])} components, "
                        f"expected {want} for d={dd}")
    return vals


def _c_int(text):
    return _ints(_value_of(text), "argument")[0]


def _c_float(text):
    return _reals(_value_of(text), "argument")[0]


def _c_cx(text):
    v = _value_of(text)
    if isinstance(v, tuple):
        raise UsageError("expected a scalar")
    return complex(v)


def _c_ituple(text):
    return _ints(_value_of(text), "argument")


def _c_ftuple(text):
    return _reals(_value_of(text), "argument")


def _c_cxtuple(text):
    v = _value_of(text)
    seq = v if isinstance(v, tuple) else (v,)
    return tuple(complex(c) for c in seq)


def _c_str(text):
    return str(text)


# ----------------------------------------------------------------------
# Evaluation catalog
# ----------------------------------------------------------------------

def _eval_gegenbauer(a):
    v = _take(a, {"n": (_c_int, True), "mu": (_c_float, True),
                  "x": (_c_float, True)}, "gegenbauer")
    return gegenbauer(v["n"], v["mu"], v["x"])


def _eval_laguerre(a):
    v = _take(a, {"n": (_c_int, True), "alpha": (_c_float, True),
                  "t": (_c_float, True)}, "laguerre")
    return laguerre(v["n"], v["alpha"], v["t"])


def _eval_jacobi(a):
    v = _take(a, {"n": (_c_int, True), "alpha": (_c_float, True),
                  "beta": (_c_float, True), "t": (_c_float, True)}, "jacobi")
    return jacobi(v["n"], v["alpha"], v["beta"], v["t"])


def _eval_hahn(a):
    v = _take(a, {"k": (_c_int, True), "x": (_c_cx, True),
                  "a": (_c_cx, True), "b": (_c_cx, True),
                  "c": (_c_cx, True), "d": (_c_cx, True)}, "hahn")
    return continuous_hahn(v["k"], v["x"], v["a"], v["b"], v["c"], v["d"])


def _eval_ball_op(a):
    v = _take(a, {"k": (_c_ituple, True), "mu": (_c_float, True),
                  "x": (_c_ftuple, True)}, "ball-op")
    return ball_op(v["k"], v["mu"], list(v["x"]))


def _eval_laguerre_cone(a):
    v = _take(a, {"k": (_c_ituple, True), "n": (_c_int, True),
                  "beta": (_c_float, True), "mu": (_c_float, True),
                  "t": (_c_float, True), "x": (_c_ftuple, True)},
              "laguerre-cone")
    params = LaguerreConeParams(v["beta"], v["mu"])
    return laguerre_cone(v["k"], v["n"], params, (v["t"], list(v["x"])))


def _eval_jacobi_cone(a):
    v = _take(a, {"k": (_c_ituple, True), "n": (_c_int, True),
                  "beta": (_c_float, True), "mu": (_c_float, True),
                  "gamma": (_c_float, True), "t": (_c_float, True),
                  "x": (_c_ftuple, True)}, "jacobi-cone")
    params = JacobiConeParams(v["beta"], v["mu"], v["gamma"])
    return jacobi_cone(v["k"], v["n"], params, (v["t"], list(v["x"])))


def _mu_for(v, name):
    # mu enters only through factors attached to nonzero k components,
    # so the zero multi-index needs no mu argument
    if "mu" in v:
        return v["mu"]
    if any(v["k"]):
        raise UsageError(f"{name} requires mu= when k has nonzero components")
    return 1.0


def _eval_f_d(a):
    v = _take(a, {"k": (_c_ituple, True), "a": (_c_float, True),
                  "mu": (_c_float, False), "x": (_c_ftuple, True)}, "f-d")
    return f_d(v["x"], v["k"], v["a"], _mu_for(v, "f-d"))


def _eval_g_laguerre(a):
    v = _take(a, {"n": (_c_int, True), "k": (_c_ituple, True),
                  "a": (_c_float, True), "b": (_c_float, True),
                  "beta": (_c_float, True), "mu": (_c_float, True),
                  "t": (_c_float, True), "x": (_c_ftuple, True)},
              "g-laguerre")
    params = TransformParamsLaguerre(v["a"], v["b"], v["beta"], v["mu"])
    return g_laguerre(v["t"], v["x"], v["k"], v["n"], params)


def _eval_g_jacobi(a):
    v = _take(a, {"n": (_c_int, True), "k": (_c_ituple, True),
                  "a": (_c_float, True), "b": (_c_float, True),
                  "c": (_c_float, True), "beta": (_c_float, True),
                  "mu": (_c_float, True), "gamma": (_c_float, True),
                  "t": (_c_float, True), "x": (_c_ftuple, True)}, "g-jacobi")
    params = TransformParamsJacobi(v["a"], v["b"], v["c"], v["beta"],
                                   v["mu"], v["gamma"])
    return g_jacobi(v["t"], v["x"], v["k"], v["n"], params)


def _eval_ft_f(a):
    v = _take(a, {"k": (_c_ituple, True), "a": (_c_float, True),
                  "mu": (_c_float, False), "xi": (_c_ftuple, True)},
              "ft-f-closed")
    return ft_f_closed(v["k"], v["a"], _mu_for(v, "ft-f-closed"),
                       FreqVector(v["xi"]))


def _eval_ft_g_laguerre(a):
    v = _take(a, {"n": (_c_int, True), "k": (_c_ituple, True),
                  "a": (_c_float, True), "b": (_c_float, True),
                  "beta": (_c_float, True), "mu": (_c_float, True),
                  "xi": (_c_ftuple, True)}, "ft-g-laguerre-closed")
    params = TransformParamsLaguerre(v["a"], v["b"], v["beta"], v["mu"])
    return ft_g_laguerre_closed(v["k"], v["n"], params, FreqVector(v["xi"]))


def _eval_ft_g_jacobi(a):
    v = _take(a, {"n": (_c_int, True), "k": (_c_ituple, True),
                  "a": (_c_float, True), "b": (_c_float, True),
                  "c": (_c_float, True), "beta": (_c_float, True),
                  "mu": (_c_float, True), "gamma": (_c_float, True),
                  "xi": (_c_ftuple, True)}, "ft-g-jacobi-closed")
    params = TransformParamsJacobi(v["a"], v["b"], v["c"], v["beta"],
                                   v["mu"], v["gamma"])
    return ft_g_jacobi_closed(v["k"], v["n"], params, FreqVector(v["xi"]))


def _eval_a_family(a):
    v = _take(a, {"n": (_c_int, True), "k": (_c_ituple, True),
                  "t": (_c_cx, True), "x": (_c_cxtuple, True),
                  "a1": (_c_float, True), "a2": (_c_float, True),
                  "b1": (_c_float, True), "b2": (_c_float, True),
                  "form": (_c_str, False)}, "a-family")
    pp = ParsevalParams(v["a1"], v["a2"], v["b1"], v["b2"])
    return a_family(v["t"], v["x"], v["k"], v["n"], pp,
                    form=v.get("form", "hyper"))


def _eval_b_family(a):
    v = _take(a, {"n": (_c_int, True), "k": (_c_ituple, True),
                  "t": (_c_cx, True), "x": (_c_cxtuple, True),
                  "a1": (_c_float, True), "a2": (_c_float, True),
                  "b1": (_c_float, True), "b2": (_c_float, True),
                  "c1": (_c_float, True), "c2": (_c_float, True),
                  "form": (_c_str, False)}, "b-family")
    pp = ParsevalParams(v["a1"], v["a2"], v["b1"], v["b2"], v["c1"], v["c2"])
    return b_family(v["t"], v["x"], v["k"], v["n"], pp,
                    form=v.get("form", "hyper"))


_EVAL_CATALOG = {
    "gegenbauer": _eval_gegenbauer,
    "laguerre": _eval_laguerre,
    "jacobi": _eval_jacobi,
    "hahn": _eval_hahn,
    "ball-op": _eval_ball_op,
    "laguerre-cone": _eval_laguerre_cone,
    "jacobi-cone": _eval_jacobi_cone,
    "f-d": _eval_f_d,
    "g-laguerre": _eval_g_laguerre,
    "g-jacobi": _eval_g_jacobi,
    "ft-f-closed": _eval_ft_f,
    "ft-g-laguerre-closed": _eval_ft_g_laguerre,
    "ft-g-jacobi-closed": _eval_ft_g_jacobi,
    "a-family": _eval_a_family,
    "b-family": _eval_b_family,
    # short aliases for the closed transforms
    "ft-f": _eval_ft_f,
    "ft-g-laguerre": _eval_ft_g_laguerre,
    "ft-g-jacobi": _eval_ft_g_jacobi,
}


# ----------------------------------------------------------------------
# RunConfig
# ----------------------------------------------------------------------

_QUAD_KEYS = ("rule", "abs_tol", "rel_tol", "max_levels", "truncation_radius")
_CONFIG_KEYS = ("quadrature", "grids", "out", "format", "seed")


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration: optional quadrature override applied to
    every check, optional parameter grids per identity (defaults are
    generated from the seed), output path and format, sweep seed."""
    quadrature: QuadratureConfig | None = None
    grids: dict | None = None
    out: str | None = None
    format: str = "json"
    seed: int = 0


def _tuplify(v):
    if isinstance(v, list):
        return tuple(_tuplify(c) for c in v)
    return v


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise UsageError(f"unknown config key {unknown[0]!r}")
    quad = None
    if doc.get("quadrature") is not None:
        qd = doc["quadrature"]
        if not isinstance(qd, dict):
            raise UsageError("config key 'quadrature' must be an object")
        bad = sorted(set(qd) - set(_QUAD_KEYS))
        if bad:
            raise UsageError(f"unknown quadrature key {bad[0]!r}")
        try:
            quad = QuadratureConfig(**qd)
        except DomainError as exc:
            raise UsageError(f"invalid quadrature settings: {exc}")
    grids = None
    if doc.get("grids") is not None:
        gd = doc["grids"]
        if not isinstance(gd, dict):
            raise UsageError("config key 'grids' must be an object")
        grids = {}
        for ident, rows in gd.items():
            if ident not in IDENTITY_IDS:
                raise UsageError(f"unknown identity {ident!r} in grids")
            if not isinstance(rows, list):
                raise UsageError(f"grids[{ident!r}] must be a list")
            grids[ident] = [
                {k: _tuplify(v) for k, v in row.items()} for row in rows]
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise UsageError("config key 'out' must be a string")
    fmt = doc.get("format", "json")
    if fmt not in ("json", "csv"):
        raise UsageError(f"unknown format {fmt!r}; pick json or csv")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise UsageError("config key 'seed' must be an integer")
    return RunConfig(quad, grids, out, fmt, seed)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path!r} is not valid JSON: {exc}")
    return parse_config(doc)


def config_to_json(cfg: RunConfig) -> str:
    doc: dict = {}
    if cfg.quadrature is not None:
        q = cfg.quadrature
        doc["quadrature"] = {
            "rule": q.rule, "abs_tol": q.abs_tol, "rel_tol": q.rel_tol,
            "max_levels": q.max_levels,
            "truncation_radius": q.truncation_radius}
    if cfg.grids is not None:
        doc["grids"] = {
            ident: [{k: list(v) if isinstance(v, tuple) else v
                     for k, v in row.items()} for row in rows]
            for ident, rows in cfg.grids.items()}
    if cfg.out is not None:
        doc["out"] = cfg.out
    doc["format"] = cfg.format
    doc["seed"] = cfg.seed
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _cmd_eval(ns) -> int:
    func = _EVAL_CATALOG.get(ns.name)
    if func is None:
        raise UsageError(
            f"unknown function {ns.name!r}; catalog: "
            + ", ".join(sorted(set(_EVAL_CATALOG))))
    value = func(_parse_pairs(ns.args))
    print(_fmt_value(value))
    return 0


def _check_params(tokens):
    params = {}
    for key, text in _parse_pairs(tokens).items():
        try:
            v = _value_of(text)
        except UsageError:
            # selector keys ("which", "route") take plain strings
            v = text
        if isinstance(v, complex) or (isinstance(v, tuple)
                                      and any(isinstance(c, complex) for c in v)):
            raise UsageError(f"{key} must be real")
        params[key] = v
    return params


def _cmd_check(ns) -> int:
    if ns.id not in IDENTITY_IDS:
        raise UsageError(f"unknown identity {ns.id!r}; catalog: "
                         + ", ".join(IDENTITY_IDS))
    cfg = load_config(ns.config) if ns.config else RunConfig()
    params = _check_params(ns.args)
    try:
        report = check_identity(ns.id, params, cfg.quadrature)
    except KeyError as exc:
        raise UsageError(f"{ns.id} is missing parameter {exc.args[0]!r}")
    if cfg.format == "csv":
        text = _CSV_HEADER + "\n" + _report_csv_row(report) + "\n"
    else:
        text = _report_json(report) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if report.passed else 1


def _cmd_suite(ns) -> int:
    cfg = load_config(ns.config) if ns.config else RunConfig()
    if ns.all:
        selection = "all"
    else:
        selection = list(ns.ids or [])
        for ident in selection:
            if ident not in IDENTITY_IDS:
                raise UsageError(f"unknown identity {ident!r}")
    result = run_suite(selection, grids=cfg.grids, cfg=cfg.quadrature,
                       seed=cfg.seed, record_timing=ns.record_timing)
    text = _suite_csv(result) if cfg.format == "csv" else _suite_json(result)
    out = ns.out or cfg.out
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    summary = result.summary
    failures = summary["total"] - summary["passed"]
    print(f"total {summary['total']}, passed {summary['passed']}, "
          f"failed {failures}")
    for ident in sorted(summary["max_rel_err_by_id"]):
        print(f"  {ident}: max rel_err "
              f"{summary['max_rel_err_by_id'][ident]:.3e}")
    return 0 if failures == 0 else 1


def _parse_axis(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        return None
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise UsageError(f"malformed axis spec {text!r}; expected min:max:count")
    if count < 1:
        raise UsageError("axis count must be at least 1")
    return lo, hi, count


def _cmd_table(ns) -> int:
    func = _EVAL_CATALOG.get(ns.name)
    if func is None:
        raise UsageError(
            f"unknown function {ns.name!r}; catalog: "
            + ", ".join(sorted(set(_EVAL_CATALOG))))
    # an axis spec may stand for one component of a comma list; that
    # axis is named key[i], with i counted from 0
    fixed, swept, axes = {}, {}, []
    for key, text in _parse_pairs(ns.args).items():
        parts = text.split(",")
        specs = [_parse_axis(part) for part in parts]
        for i, spec in enumerate(specs):
            if spec is not None:
                lo, hi, count = spec
                values = np.linspace(lo, hi, count) if count > 1 else np.array([lo])
                axes.append((key if len(parts) == 1 else f"{key}[{i}]",
                             key, i, values))
        if any(specs):
            swept[key] = parts
        else:
            fixed[key] = text
    if not 1 <= len(axes) <= 2:
        raise UsageError(f"table sweeps one or two axes, got {len(axes)}")
    lines = [",".join([name for name, *_ in axes] + ["re", "im"])]
    for coords in itertools.product(*[values for *_, values in axes]):
        texts = {key: list(parts) for key, parts in swept.items()}
        for (_, key, i, _), v in zip(axes, coords):
            texts[key][i] = repr(float(v))
        value = complex(func({**fixed, **{key: ",".join(parts)
                                          for key, parts in texts.items()}}))
        cells = [f"{c:.16e}" for c in coords]
        lines.append(",".join(cells + [f"{value.real:.16e}",
                                       f"{value.imag:.16e}"]))
    text = "\n".join(lines) + "\n"
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conefourier",
        description="evaluate, check, and tabulate the library's functions "
                    "and identities")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a catalog function")
    pe.add_argument("name")
    pe.add_argument("args", nargs="*", metavar="key=value")
    pe.set_defaults(fn=_cmd_eval)

    pc = sub.add_parser("check", help="check one identity")
    pc.add_argument("id")
    pc.add_argument("args", nargs="*", metavar="key=value")
    pc.add_argument("--config")
    pc.set_defaults(fn=_cmd_check)

    ps = sub.add_parser("suite", help="run identity suites")
    group = ps.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--ids", nargs="*")
    ps.add_argument("--config")
    ps.add_argument("--out")
    ps.add_argument("--record-timing", action="store_true")
    ps.set_defaults(fn=_cmd_suite)

    pt = sub.add_parser("table", help="emit a CSV value table")
    pt.add_argument("name")
    pt.add_argument("args", nargs="*", metavar="key=value|key=min:max:count")
    pt.add_argument("--out")
    pt.set_defaults(fn=_cmd_table)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
