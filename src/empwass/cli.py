"""Command-line entry point: every operation as a subcommand with
seeded, reproducible outputs.

Exit codes: 0 success, 1 falsified acceptance property, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import inspect
import io
import json
import math
import os
import sys

from . import __version__
from . import bound_catalog as bc
from . import mc_harness as mc
from .decomposition import mixture_bound, ring_decompose, verify_reconstruction
from .measures import sampler_from_string, uniform_pair
from .metric_core import load_matrix_csv, load_points_csv, validate_metric
from .multiscale import (DegenerateFitError, auto_delta_grid,
                         build_partition_tree, fit_dimension, greedy_cover)
from .ot_exact import wpp_1d, wpp_mcf

CATALOG_REVISION = "catalog-1"


def _parse_grid(text: str):
    """'32:4096' -> dyadic powers; '10,100,1000' -> explicit list."""
    if ":" in text:
        lo, hi = (int(t) for t in text.split(":"))
        if not 1 <= lo <= hi:
            raise ValueError(f"grid {text!r} needs 1 <= lo <= hi")
        out = []
        n = lo
        while n <= hi:
            out.append(n)
            n *= 2
        return tuple(out)
    out = tuple(int(t) for t in text.split(","))
    if min(out) < 1:
        raise ValueError(f"grid {text!r} needs positive entries")
    return out


def _parse_xgrid(text: str, name: str = "x"):
    """'0.1,0.5' -> (0.1, 0.5); every value must be finite."""
    out = tuple(float(t) for t in text.split(","))
    for v in out:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    return out


def _json_text(payload) -> str:
    """Strict JSON: NaN or inf raises ValueError, a non-JSON type TypeError."""
    return json.dumps(payload, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=sorted({k for r in rows for k in r}))
    w.writeheader()
    w.writerows({k: repr(v) if isinstance(v, float) else v
                 for k, v in r.items()} for r in rows)
    return buf.getvalue()


def _joint_measures(path_a: str, path_b: str):
    return uniform_pair(load_points_csv(path_a).points,
                        load_points_csv(path_b).points)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, {file name: payload},
# summary line); main writes the files and prints the line
# ---------------------------------------------------------------------------

def _cmd_wpp(args):
    space, mu, nu = _joint_measures(args.a, args.b)
    # the closed form on the line, unless a plan (only a solve gives one)
    if space.dim == 1 and not args.plan:
        v, plan = wpp_1d(mu, nu, args.p), None
    else:
        v, plan = wpp_mcf(mu, nu, args.p)
    files = {"wpp.json": v.to_dict()}
    if args.plan:
        files["plan.csv"] = [{"i": i, "j": j, "mass": m, "cost": c}
                             for i, j, m, c in plan.to_rows(mu, nu, args.p)]
    return 0, files, str(v.value)


def _cmd_cover(args):
    space = load_points_csv(args.points)
    est = greedy_cover(space, args.delta).to_dict()
    return 0, {"cover.json": est}, json.dumps(est)


def _cmd_dim(args):
    if args.scales is not None and args.delta_grid != "auto":
        raise ValueError("an explicit --delta-grid reads no --scales; "
                         "leave it unset")
    space = load_points_csv(args.points)
    try:
        if args.delta_grid == "auto":
            deltas = (auto_delta_grid(space) if args.scales is None
                      else auto_delta_grid(space, args.scales))
        else:
            deltas = _parse_xgrid(args.delta_grid, "delta")
        fit = fit_dimension(space, deltas).to_dict()
    except DegenerateFitError as exc:
        fit = {"degenerate": True, "reason": str(exc)}
    return 0, {"dim.json": fit}, json.dumps(fit)


def _cmd_tree(args):
    space = load_points_csv(args.points)
    tree = build_partition_tree(space, args.kstar)
    return 0, {"tree.json": tree.to_dict()}, json.dumps(
        {"k_star": tree.k_star, "cell_counts": tree.cell_counts})


def _cmd_rings(args):
    space, mu, nu = _joint_measures(args.a, args.b)
    dec = ring_decompose(mu, nu, args.x0)
    verify_reconstruction(dec)
    mb = mixture_bound(dec, args.p)
    v, _ = wpp_mcf(mu, nu, args.p)
    dominates = mb.total >= v.value - 1e-12
    payload = {"decomposition": dec.to_dict(), "bound": mb.to_dict(),
               "exact": v.value, "dominates": dominates}
    return (0 if dominates else 1, {"rings.json": payload},
            json.dumps({"bound": mb.total, "exact": v.value}))


# `bound --formula` name -> catalog function
_FORMULAS = {
    "moment": bc.moment_bound,
    "hoeffding": bc.hoeffding_bound,
    "main-term": bc.main_term_bound,
    "fuk-nagaev": bc.fuk_nagaev_bound,
    "moderate": bc.moderate_deviation_bound,
    "bernstein": bc.bernstein_bound,
    "as-normalizer": bc.as_rate_normalizer,
}


def _is_number(v) -> bool:
    # v != v only for NaN, which a JSON grid may spell; infinities pass
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v == v


def _read_grid(path: str):
    """(x_grid, n_grid, params) of a `bound` grid file. x_grid and n_grid
    must be lists of numbers (default [1.0] and [0]), every n a whole
    number >= 0, and params an object of numbers or nulls; a null param
    counts as absent."""
    with open(path) as f:
        grid = json.load(f)
    if not isinstance(grid, dict):
        raise ValueError(f"{path}: not a JSON object")
    xs, ns = grid.get("x_grid", [1.0]), grid.get("n_grid", [0])
    params = grid.get("params", {})
    for name, vals in (("x_grid", xs), ("n_grid", ns)):
        if not (isinstance(vals, list) and all(map(_is_number, vals))):
            raise ValueError(f"{path}: {name} is not a list of numbers")
    # a formula takes int(n): 10.7 would be evaluated at 10
    if not all((isinstance(n, int) or n.is_integer()) and n >= 0
               for n in ns):
        raise ValueError(f"{path}: n_grid holds an n that is not a whole "
                         "number >= 0")
    if not (isinstance(params, dict)
            and all(v is None or _is_number(v) for v in params.values())):
        raise ValueError(f"{path}: params is not an object of numbers/nulls")
    return xs, ns, {k: v for k, v in params.items() if v is not None}


def _cmd_bound(args):
    xs, ns, params = _read_grid(args.grid)
    fn = _FORMULAS[args.formula]
    names = inspect.signature(fn).parameters
    rows = []
    for n in ns:
        for x in xs:
            row = {"n": n, "x": x, "formula": args.formula}
            try:
                # alpha = 1 is the CLI's one default; x and n win over
                # params; values[k] raises KeyError for the first
                # required parameter without a value
                values = {"alpha": 1.0, **params, "x": x, "n": int(n)}
                res = fn(**{k: values[k] for k, prm in names.items()
                            if k in values or prm.default is prm.empty})
                row.update(res.to_dict() if isinstance(res, bc.BoundResult)
                           else {"value": res})
            except (bc.BoundError, KeyError) as exc:
                row["error"] = str(exc)
            except OverflowError as exc:   # a float power past 1.8e308
                row["error"] = f"float overflow: {exc}"
            rows.append(row)
    return 0, {"bounds.csv": rows}, f"wrote {len(rows)} rows"


def _spec_from_args(args, need_x: bool = False) -> mc.ExperimentSpec:
    return mc.ExperimentSpec(
        sampler=sampler_from_string(args.sampler), p=args.p,
        estimator=args.estimator, n_grid=_parse_grid(args.ngrid),
        replicates=args.reps, seed=args.seed,
        x_grid=_parse_xgrid(args.xgrid) if need_x else (), m_ref=args.mref,
        k_star=args.kstar, workers=args.workers)


def _cmd_rate(args):
    rep = mc.run_rate_experiment(_spec_from_args(args))
    return 0, {"rate.json": rep.to_dict(), "rate.csv": rep.per_n}, json.dumps(
        {"slope": rep.slope, "degenerate": rep.degenerate})


def _cmd_tail(args):
    spec = _spec_from_args(args, need_x=True)
    rep = mc.run_tail_experiment(spec)
    return (0, {"tail.json": rep.to_dict(), "tail.csv": rep.per_n},
            f"wrote tails for n in {list(spec.n_grid)}")


def _cmd_fitc(args):
    spec = _spec_from_args(args, need_x=True)
    md = spec.sampler.metadata()
    alpha = args.alpha if args.alpha is not None else md.get("alpha")
    Delta = args.delta if args.delta is not None else md.get("delta_diam")
    for flag, value in (("alpha", alpha), ("delta", Delta)):
        if value is None:
            raise ValueError(f"fitc needs --{flag}: sampler {args.sampler} "
                             "states none")
    rep = mc.run_tail_experiment(spec)
    fit = mc.fit_bound_constant(rep, lambda x, n, C: bc.hoeffding_bound(
        x, n, spec.p, alpha, Delta, C)).to_dict()
    fit["measures"] = mc._ESTIMATORS[spec.estimator].measures
    return 0 if fit["ok"] else 1, {"fitc.json": fit}, json.dumps(fit)


def _cmd_asrun(args):
    sampler = sampler_from_string(args.sampler)
    rec = mc.run_as_trajectory(sampler, args.p, args.nmax, args.seed)
    return 0, {"asrun.json": rec, "asrun.csv": rec["rows"]}, json.dumps(
        {"max_normalized": rec["max_normalized"]})


def _cmd_verify_appendix(args):
    if args.a is not None and args.dist != "pareto":
        raise ValueError(f"--dist {args.dist} reads no --a; leave it unset")
    rep = mc.verify_appendix_inequalities(
        args.dist, args.r, _parse_grid(args.ngrid), args.reps, args.seed,
        a=args.a)
    ok = all(row.get("burkholder_ok", True) and row.get("vbe_ok", True)
             for row in rep["rows"])
    return 0 if ok else 1, {"appendix.json": rep}, json.dumps(
        {"ok": ok, "maximal_fitted_L": rep["maximal_fitted_L"]})


def _cmd_validate_metric(args):
    space = (load_points_csv(args.points) if args.matrix is None
             else load_matrix_csv(args.matrix))
    report = validate_metric(space, trials=args.trials,
                             seed=args.seed).to_dict()
    return (0 if report["passed"] else 1, {"validate.json": report},
            json.dumps(report))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Finite(argparse.Action):
    """The action of every float flag: inf or NaN exits 2 with one line."""

    def __call__(self, parser, namespace, value, option_string=None):
        if not math.isfinite(value):
            parser.exit(2, f"error: {self.dest} must be finite, "
                           f"got {value!r}\n")
        setattr(namespace, self.dest, value)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one line, without the usage block; the
    subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_common(sp):
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--config", default=None,
                    help="config file; flags override its values")


def _add_experiment(sp):
    sp.add_argument("--sampler", required=True)
    sp.add_argument("--p", type=float, action=_Finite, required=True)
    names = list(mc._ESTIMATORS)
    sp.add_argument("--estimator", default=names[0], choices=names)
    sp.add_argument("--ngrid", required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--mref", type=int, default=None)
    sp.add_argument("--kstar", type=int, default=None)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="empwass",
        description="Empirical transport-distance bounds and experiments")
    ap.add_argument("--version", action="version",
                    version=f"empwass {__version__} ({CATALOG_REVISION})")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("wpp", help="exact transport cost between two clouds")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--p", type=float, action=_Finite, required=True)
    sp.add_argument("--plan", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=_cmd_wpp)

    sp = sub.add_parser("cover", help="greedy covering estimate")
    sp.add_argument("--points", required=True)
    sp.add_argument("--delta", type=float, action=_Finite, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_cover)

    sp = sub.add_parser("dim", help="covering-dimension envelope fit")
    sp.add_argument("--points", required=True)
    sp.add_argument("--delta-grid", default="auto")
    sp.add_argument("--scales", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_dim)

    sp = sub.add_parser("tree", help="refined partition tree")
    sp.add_argument("--points", required=True)
    sp.add_argument("--kstar", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_tree)

    sp = sub.add_parser("rings", help="ring decomposition and mixture bound")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--x0", type=int, default=0)
    sp.add_argument("--p", type=float, action=_Finite, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_rings)

    sp = sub.add_parser("bound", help="evaluate a bound formula on a grid")
    sp.add_argument("--formula", required=True, choices=list(_FORMULAS))
    sp.add_argument("--grid", required=True,
                    help="JSON file {x_grid, n_grid, params}")
    _add_common(sp)
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("rate", help="convergence-rate experiment")
    _add_experiment(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_rate)

    sp = sub.add_parser("tail", help="tail-probability experiment")
    _add_experiment(sp)
    sp.add_argument("--xgrid", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_tail)

    sp = sub.add_parser("fitc", help="fit the minimal valid bound constant")
    _add_experiment(sp)
    sp.add_argument("--xgrid", required=True)
    sp.add_argument("--alpha", type=float, action=_Finite, default=None)
    sp.add_argument("--delta", type=float, action=_Finite, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_fitc)

    sp = sub.add_parser("asrun", help="almost-sure trajectory check")
    sp.add_argument("--sampler", required=True)
    sp.add_argument("--p", type=float, action=_Finite, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_asrun)

    sp = sub.add_parser("verify-appendix",
                        help="check the partial-sum moment inequalities")
    sp.add_argument("--dist", required=True,
                    choices=["rademacher", "uniform", "pareto"])
    sp.add_argument("--r", type=float, action=_Finite, required=True)
    sp.add_argument("--a", type=float, action=_Finite, default=None)
    sp.add_argument("--ngrid", required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify_appendix)

    sp = sub.add_parser("validate-metric", help="check metric axioms")
    given = sp.add_mutually_exclusive_group(required=True)
    given.add_argument("--points")
    given.add_argument("--matrix")
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_validate_metric)

    return ap


def _apply_config(argv, ap):
    """Put the --config section of the subcommand right after it, so that
    the command line's flags come later and win. On a flag that takes no
    value, a key set to true becomes the flag and one set to false adds
    nothing; any other key goes in as the flag and its value."""
    subs = next(a for a in ap._actions if a.dest == "cmd").choices
    if not argv or argv[0] not in subs:
        return argv
    pre = _Parser(prog=f"empwass {argv[0]}", add_help=False)
    pre.add_argument("--config", nargs="?", const="")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    if not path:
        raise ValueError("--config needs a path")
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ValueError(f"config file not found: {path}")
    switches = {flag for a in subs[argv[0]]._actions if a.nargs == 0
                for flag in a.option_strings}
    extra = []
    for key, val in cp.items(argv[0]) if cp.has_section(argv[0]) else ():
        flag = "--" + key.replace("_", "-")
        if flag in switches and val.lower() in ("true", "false"):
            extra += [flag] * (val.lower() == "true")
        else:
            extra += [flag, val]
    return [argv[0], *extra, *argv[1:]]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        argv = _apply_config(argv, ap)
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except (ValueError, configparser.Error) as exc:
        # a configparser message spans lines: its first one is the reason
        print("error:", str(exc).partition("\n")[0], file=sys.stderr)
        return 2
    try:
        code, files, summary = args.func(args)
        config = {k: v for k, v in vars(args).items()
                  if k != "func" and v is not None}
        # every file is serialized before any is written
        texts = {name: _csv_text(payload) if name.endswith(".csv")
                 else _json_text(payload)
                 for name, payload in {"effective-config.json": config,
                                       **files}.items()}
        os.makedirs(args.out, exist_ok=True)
        for name, text in texts.items():
            with open(os.path.join(args.out, name), "w", newline="") as f:
                f.write(text)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
