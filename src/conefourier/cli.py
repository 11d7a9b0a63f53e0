"""Command-line frontend: evaluate catalog functions, check single
identities, run suites, and emit value tables.

Exit status contract: 0 success (and check/suite pass), 1 check or suite
failure, 2 usage errors (unknown names, malformed arguments or config),
3 domain errors raised by the library.

Report files are written with a fixed key order and fixed number
formatting (17 significant digits) so that identical runs produce
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
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
from .transforms import (ParsevalParams, TransformParamsJacobi,
                         TransformParamsLaguerre, a_family, b_family, f_d,
                         ft_f_closed, ft_g_jacobi_closed,
                         ft_g_laguerre_closed, g_jacobi, g_laguerre)
from .univariate import continuous_hahn, gegenbauer, jacobi, laguerre
from .verify import (_CATALOG as _IDENTITIES, IDENTITY_IDS, CheckReport,
                     _parse_params, check_identity, run_suite)

__all__ = ["RunConfig", "load_config", "main"]


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


def _csv_cell(v: float) -> str:
    """v to 17 significant digits; nan, inf and -inf as those words."""
    return f"{float(v):.16e}"


def _json_float(v: float) -> str:
    """_csv_cell, with nan, inf and -inf quoted as JSON strings."""
    cell = _csv_cell(v)
    return cell if math.isfinite(float(v)) else f'"{cell}"'


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
    for kind in (int, float, complex):
        try:
            return kind(text)
        except ValueError:
            pass
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
        dd = _INT[0](d)
        for key in ("k", "x", "xi"):
            if key in vals and isinstance(vals[key], tuple):
                want = dd + 1 if key == "xi" and "b" in spec else dd
                if len(vals[key]) != want:
                    raise UsageError(
                        f"{name}: {key} has {len(vals[key])} components, "
                        f"expected {want} for d={dd}")
    return vals


# the numbers each converted type takes
_TAKES = {int: (int,), float: (int, float), complex: (int, float, complex)}


def _converter(kind, vector: bool = False):
    """The converter of an argument's text to kind, int, float or
    complex: a scalar, or for a vector a tuple of one or more."""
    def convert(text):
        v = _value_of(text)
        if isinstance(v, tuple) and not vector:
            raise UsageError(f"expected a scalar, got {text!r}")
        seq = v if isinstance(v, tuple) else (v,)
        if not all(isinstance(c, _TAKES[kind]) for c in seq):
            raise UsageError("argument must be "
                             + {int: "integer", float: "real"}[kind])
        out = tuple(map(kind, seq))
        return out if vector else out[0]
    return convert


# ----------------------------------------------------------------------
# Evaluation catalog
# ----------------------------------------------------------------------

# The keys a catalog function broadcasts over: table hands a swept point
# axis to the function as one array, and sweeps any other key value by value.
_POINT_KEYS = ("x", "t", "xi")

_INT, _FLOAT, _CX = ((_converter(kind), True)
                     for kind in (int, float, complex))
_IVEC, _FVEC, _CXVEC = ((_converter(kind, vector=True), True)
                        for kind in (int, float, complex))
_OPTIONAL_MU, _FORM = (_FLOAT[0], False), (str, False)
_LAGUERRE = {"a": _FLOAT, "b": _FLOAT, "beta": _FLOAT, "mu": _FLOAT}
_JACOBI = {"a": _FLOAT, "b": _FLOAT, "c": _FLOAT, "beta": _FLOAT,
           "mu": _FLOAT, "gamma": _FLOAT}
_PARSEVAL = {"a1": _FLOAT, "a2": _FLOAT, "b1": _FLOAT, "b2": _FLOAT}


def _mu_for(v, name):
    # mu enters only through factors attached to nonzero k components,
    # so the zero multi-index needs no mu argument
    if "mu" in v:
        return v["mu"]
    if any(v["k"]):
        raise UsageError(f"{name} requires mu= when k has nonzero components")
    return 1.0


def _laguerre_tp(v):
    return TransformParamsLaguerre(v["a"], v["b"], v["beta"], v["mu"])


def _jacobi_tp(v):
    return TransformParamsJacobi(v["a"], v["b"], v["c"], v["beta"], v["mu"],
                                 v["gamma"])


# name -> (evaluator of the converted arguments v, spec: key -> (converter,
# required)).  The evaluators look the library functions up at call time,
# so that a wrapper installed on this module's names sees every call.
_CATALOG = {
    "gegenbauer": (lambda v: gegenbauer(v["n"], v["mu"], v["x"]),
                   {"n": _INT, "mu": _FLOAT, "x": _FLOAT}),
    "laguerre": (lambda v: laguerre(v["n"], v["alpha"], v["t"]),
                 {"n": _INT, "alpha": _FLOAT, "t": _FLOAT}),
    "jacobi": (lambda v: jacobi(v["n"], v["alpha"], v["beta"], v["t"]),
               {"n": _INT, "alpha": _FLOAT, "beta": _FLOAT, "t": _FLOAT}),
    "hahn": (lambda v: continuous_hahn(v["k"], v["x"], v["a"], v["b"], v["c"],
                                       v["d"]),
             {"k": _INT, "x": _CX, "a": _CX, "b": _CX, "c": _CX, "d": _CX}),
    "ball-op": (lambda v: ball_op(v["k"], v["mu"], v["x"]),
                {"k": _IVEC, "mu": _FLOAT, "x": _FVEC}),
    "laguerre-cone": (
        lambda v: laguerre_cone(v["k"], v["n"],
                                LaguerreConeParams(v["beta"], v["mu"]),
                                (v["t"], v["x"])),
        {"k": _IVEC, "n": _INT, "beta": _FLOAT, "mu": _FLOAT, "t": _FLOAT,
         "x": _FVEC}),
    "jacobi-cone": (
        lambda v: jacobi_cone(v["k"], v["n"],
                              JacobiConeParams(v["beta"], v["mu"], v["gamma"]),
                              (v["t"], v["x"])),
        {"k": _IVEC, "n": _INT, "beta": _FLOAT, "mu": _FLOAT, "gamma": _FLOAT,
         "t": _FLOAT, "x": _FVEC}),
    "f-d": (lambda v: f_d(v["x"], v["k"], v["a"], _mu_for(v, "f-d")),
            {"k": _IVEC, "a": _FLOAT, "mu": _OPTIONAL_MU, "x": _FVEC}),
    "g-laguerre": (
        lambda v: g_laguerre(v["t"], v["x"], v["k"], v["n"], _laguerre_tp(v)),
        {"n": _INT, "k": _IVEC, **_LAGUERRE, "t": _FLOAT, "x": _FVEC}),
    "g-jacobi": (
        lambda v: g_jacobi(v["t"], v["x"], v["k"], v["n"], _jacobi_tp(v)),
        {"n": _INT, "k": _IVEC, **_JACOBI, "t": _FLOAT, "x": _FVEC}),
    "ft-f-closed": (
        lambda v: ft_f_closed(v["k"], v["a"], _mu_for(v, "ft-f-closed"),
                              v["xi"]),
        {"k": _IVEC, "a": _FLOAT, "mu": _OPTIONAL_MU, "xi": _FVEC}),
    "ft-g-laguerre-closed": (
        lambda v: ft_g_laguerre_closed(v["k"], v["n"], _laguerre_tp(v),
                                       v["xi"]),
        {"n": _INT, "k": _IVEC, **_LAGUERRE, "xi": _FVEC}),
    "ft-g-jacobi-closed": (
        lambda v: ft_g_jacobi_closed(v["k"], v["n"], _jacobi_tp(v), v["xi"]),
        {"n": _INT, "k": _IVEC, **_JACOBI, "xi": _FVEC}),
    "a-family": (
        lambda v: a_family(v["t"], v["x"], v["k"], v["n"],
                           ParsevalParams(v["a1"], v["a2"], v["b1"], v["b2"]),
                           form=v.get("form", "hyper")),
        {"n": _INT, "k": _IVEC, "t": _CX, "x": _CXVEC, **_PARSEVAL,
         "form": _FORM}),
    "b-family": (
        lambda v: b_family(v["t"], v["x"], v["k"], v["n"],
                           ParsevalParams(v["a1"], v["a2"], v["b1"], v["b2"],
                                          v["c1"], v["c2"]),
                           form=v.get("form", "hyper")),
        {"n": _INT, "k": _IVEC, "t": _CX, "x": _CXVEC, **_PARSEVAL,
         "c1": _FLOAT, "c2": _FLOAT, "form": _FORM}),
}

# short aliases for the closed transforms
_ALIASES = {"ft-f": "ft-f-closed", "ft-g-laguerre": "ft-g-laguerre-closed",
            "ft-g-jacobi": "ft-g-jacobi-closed"}


def _lookup(name: str):
    """(canonical name, evaluator, spec) of a catalog function or alias."""
    name = _ALIASES.get(name, name)
    if name not in _CATALOG:
        raise UsageError(
            f"unknown function {name!r}; catalog: "
            + ", ".join(sorted([*_CATALOG, *_ALIASES])))
    return (name, *_CATALOG[name])


# ----------------------------------------------------------------------
# RunConfig
# ----------------------------------------------------------------------

_QUAD_KEYS = ("rule", "abs_tol", "rel_tol", "max_levels")
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


def _known_identity(ident, context: str = "") -> None:
    if ident not in IDENTITY_IDS:
        raise UsageError(f"unknown identity {ident!r}{context}")


def _check_row(ident, row) -> None:
    """A usage error where row does not parse against ident's declaration."""
    try:
        _parse_params(ident, row)
    except DomainError as exc:
        raise UsageError(str(exc))


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
    grids = doc.get("grids")
    if grids is not None:
        if not isinstance(grids, dict):
            raise UsageError("config key 'grids' must be an object")
        for ident, rows in grids.items():
            _known_identity(ident, " in grids")
            if not (isinstance(rows, list)
                    and all(isinstance(row, dict) for row in rows)):
                raise UsageError(f"grids[{ident!r}] must be a list of objects")
            for row in rows:
                _check_row(ident, row)
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


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _write(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(ns) -> int:
    name, evaluate, spec = _lookup(ns.name)
    print(_fmt_value(evaluate(_take(_parse_pairs(ns.args), spec, name))))
    return 0


def _cmd_check(ns) -> int:
    _known_identity(ns.id, "; catalog: " + ", ".join(IDENTITY_IDS))
    cfg = load_config(ns.config) if ns.config else RunConfig()
    # a selector's value is its text, any other a number or a comma list
    keys = _IDENTITIES[ns.id][2]
    params = {key: text if isinstance(keys.get(key), dict) else _value_of(text)
              for key, text in _parse_pairs(ns.args).items()}
    _check_row(ns.id, params)
    report = check_identity(ns.id, params, cfg.quadrature)
    if cfg.format == "csv":
        text = _CSV_HEADER + "\n" + _report_csv_row(report) + "\n"
    else:
        text = _report_json(report) + "\n"
    if cfg.out:
        _write(text, cfg.out)
    _write(text, None)
    return 0 if report.passed else 1


def _cmd_suite(ns) -> int:
    cfg = load_config(ns.config) if ns.config else RunConfig()
    if ns.all:
        selection = "all"
    else:
        selection = list(ns.ids or [])
        for ident in selection:
            _known_identity(ident)
    result = run_suite(selection, grids=cfg.grids, cfg=cfg.quadrature,
                       seed=cfg.seed, record_timing=ns.record_timing)
    text = _suite_csv(result) if cfg.format == "csv" else _suite_json(result)
    _write(text, ns.out or cfg.out)
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
    """Tabulate a catalog function over one or two swept axes, one CSV
    row per point, in lexicographic order of the axes as given.

    The arguments are converted and validated once, each axis at its
    first value.  Swept point keys (x, t, xi) reach the function as
    broadcast arrays, two of them meshed with indexing="ij", so the
    function is called once per combination of the swept parameter
    values; a domain error anywhere in the sweep prints no rows."""
    name, evaluate, spec = _lookup(ns.name)
    # an axis spec may stand for one component of a comma list; that
    # axis is named key[i], with i counted from 0
    texts, axes = {}, []  # axes: (header name, key, component, values)
    for key, text in _parse_pairs(ns.args).items():
        parts = text.split(",")
        for i, part in enumerate(parts):
            bounds = _parse_axis(part)
            if bounds is not None:
                lo, hi, count = bounds
                values = np.linspace(lo, hi, count) if count > 1 else np.array([lo])
                axes.append((key if len(parts) == 1 else f"{key}[{i}]", key, i,
                             values))
                parts[i] = repr(float(values[0]))
        texts[key] = parts
    if not 1 <= len(axes) <= 2:
        raise UsageError(f"table sweeps one or two axes, got {len(axes)}")
    vals = _take({key: ",".join(parts) for key, parts in texts.items()},
                 spec, name)

    # evaluate with the parameter axes first, then the point axes
    order = sorted(range(len(axes)), key=lambda a: axes[a][1] in _POINT_KEYS)
    params = [axes[a] for a in order if axes[a][1] not in _POINT_KEYS]
    points = [axes[a] for a in order if axes[a][1] in _POINT_KEYS]
    grids = np.meshgrid(*[values for *_, values in points], indexing="ij")
    for (_, key, i, _), grid in zip(points, grids):
        v = vals[key]  # the type of a component comes from its converter
        if isinstance(v, tuple):
            vals[key] = v[:i] + (grid.astype(type(v[i])),) + v[i + 1:]
        else:
            vals[key] = grid.astype(type(v))
    shape = tuple(len(values) for *_, values in points)
    blocks = []
    for combo in itertools.product(*[values for *_, values in params]):
        for (_, key, i, _), v in zip(params, combo):
            texts[key][i] = repr(float(v))
            vals[key] = spec[key][0](",".join(texts[key]))
        blocks.append(np.broadcast_to(evaluate(vals), shape))
    shape = [len(values) for *_, values in params] + list(shape)
    table = np.reshape(blocks, shape).transpose(np.argsort(order))

    lines = [",".join([header for header, *_ in axes] + ["re", "im"])]
    for coords, value in zip(itertools.product(*[values for *_, values in axes]),
                             table.ravel()):
        value = complex(value)
        cells = [f"{c:.16e}" for c in coords]
        lines.append(",".join(cells + [f"{value.real:.16e}",
                                       f"{value.imag:.16e}"]))
    _write("\n".join(lines) + "\n", ns.out)
    return 0


@functools.cache
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
