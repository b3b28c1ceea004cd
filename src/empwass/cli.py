"""Command-line entry point: every operation as a subcommand with
seeded, reproducible outputs.

Exit codes: 0 success, 1 falsified acceptance property, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import bound_catalog as bc
from . import mc_harness as mc
from .decomposition import mixture_bound, ring_decompose, verify_reconstruction
from .measures import DiscreteMeasure, sampler_from_string
from .metric_core import (FiniteMetricSpace, load_matrix_csv, load_points_csv,
                          validate_metric)
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


def _parse_xgrid(text: str):
    return tuple(float(t) for t in text.split(","))


def _echo_config(args, outdir: str) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k != "func" and v is not None}
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "effective-config.json"), "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _write_json(outdir: str, name: str, payload) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=str)
        f.write("\n")
    return path


def _write_csv(outdir: str, name: str, rows) -> str:
    path = os.path.join(outdir, name)
    keys = sorted({k for r in rows for k in r})
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=keys)
        w.writeheader()
        for r in rows:
            w.writerow({k: repr(r[k]) if isinstance(r[k], float) else r[k]
                        for k in r})
    return path


def _joint_measures(path_a: str, path_b: str):
    pa = load_points_csv(path_a).points
    pb = load_points_csv(path_b).points
    if pa.shape[1] != pb.shape[1]:
        raise ValueError("point files have different dimensions")
    space = FiniteMetricSpace.from_points(np.vstack([pa, pb]))
    na, nb = pa.shape[0], pb.shape[0]
    mu = DiscreteMeasure(space, np.arange(na), np.full(na, 1.0 / na))
    nu = DiscreteMeasure(space, np.arange(na, na + nb), np.full(nb, 1.0 / nb))
    return space, mu, nu


# ---------------------------------------------------------------------------
# subcommand handlers (return exit codes)
# ---------------------------------------------------------------------------

def _cmd_wpp(args) -> int:
    space, mu, nu = _joint_measures(args.a, args.b)
    if space.dim == 1 and args.method in ("auto", "1d"):
        v = wpp_1d(mu, nu, args.p)
        plan = None
    else:
        v, plan = wpp_mcf(mu, nu, args.p)
    _echo_config(args, args.out)
    _write_json(args.out, "wpp.json", v.to_dict())
    if plan is not None and args.plan:
        rows = [{"i": i, "j": j, "mass": m, "cost": c}
                for i, j, m, c in plan.to_rows(mu, nu, args.p)]
        _write_csv(args.out, "plan.csv", rows)
    print(v.value)
    return 0


def _cmd_cover(args) -> int:
    space = load_points_csv(args.points)
    est = greedy_cover(space, np.arange(space.n), args.delta)
    _echo_config(args, args.out)
    _write_json(args.out, "cover.json", est.to_dict())
    print(json.dumps(est.to_dict()))
    return 0


def _cmd_dim(args) -> int:
    space = load_points_csv(args.points)
    subset = np.arange(space.n)
    if args.delta_grid == "auto":
        deltas = auto_delta_grid(space, subset, args.scales)
    else:
        deltas = np.asarray(_parse_xgrid(args.delta_grid))
    try:
        fit = fit_dimension(space, subset, deltas)
    except DegenerateFitError as exc:
        _echo_config(args, args.out)
        _write_json(args.out, "dim.json", {"degenerate": True,
                                           "reason": str(exc)})
        print(json.dumps({"degenerate": True, "reason": str(exc)}))
        return 0
    _echo_config(args, args.out)
    _write_json(args.out, "dim.json", fit.to_dict())
    print(json.dumps(fit.to_dict()))
    return 0


def _cmd_tree(args) -> int:
    space = load_points_csv(args.points)
    tree = build_partition_tree(space, np.arange(space.n), args.kstar)
    _echo_config(args, args.out)
    _write_json(args.out, "tree.json", tree.to_dict())
    print(json.dumps({"k_star": tree.k_star,
                      "cell_counts": tree.cell_counts}))
    return 0


def _cmd_rings(args) -> int:
    space, mu, nu = _joint_measures(args.a, args.b)
    dec = ring_decompose(mu, nu, args.x0)
    verify_reconstruction(dec)
    mb = mixture_bound(dec, args.p)
    v, _ = wpp_mcf(mu, nu, args.p)
    payload = {"decomposition": dec.to_dict(), "bound": mb.to_dict(),
               "exact": v.value, "dominates": mb.total >= v.value - 1e-12}
    _echo_config(args, args.out)
    _write_json(args.out, "rings.json", payload)
    print(json.dumps({"bound": mb.total, "exact": v.value}))
    return 0 if payload["dominates"] else 1


def _cmd_bound(args) -> int:
    with open(args.grid) as f:
        spec = json.load(f)
    params = spec.get("params", {})
    rows = []
    for n in spec.get("n_grid", [0]):
        for x in spec.get("x_grid", [1.0]):
            row = {"n": n, "x": x, "formula": args.formula}
            try:
                row.update(_eval_formula(args.formula, x, int(n), params))
            except (bc.BoundError, KeyError) as exc:
                row["error"] = str(exc)
            rows.append(row)
    _echo_config(args, args.out)
    _write_csv(args.out, "bounds.csv", rows)
    print(f"wrote {len(rows)} rows")
    return 0


def _eval_formula(formula: str, x: float, n: int, params: dict) -> dict:
    p = float(params["p"])
    alpha = float(params.get("alpha", 1.0))
    C = float(params.get("C", 1.0))
    if formula == "moment":
        return {"value": bc.moment_bound(float(params["r"]), n, p, alpha, C)}
    if formula == "hoeffding":
        return {"value": bc.hoeffding_bound(x, n, p, alpha,
                                            float(params["Delta"]), C)}
    if formula == "main-term":
        res = bc.main_term_bound(x, n, p, alpha, float(params["i_val"]),
                                 float(params.get("cap", math.inf)), C)
        return res.to_dict()
    if formula == "fuk-nagaev":
        res = bc.fuk_nagaev_bound(
            x, n, p, alpha, r=params.get("r"), q=params.get("q"),
            weak_rp=params.get("weak_rp"),
            i2pp=float(params.get("i2pp", math.inf)),
            iap=float(params.get("iap", math.inf)),
            cap=float(params.get("cap", math.inf)), C=C,
            Cpoly=float(params.get("Cpoly", 1.0)))
        return res.to_dict()
    if formula == "moderate":
        res = bc.moderate_deviation_bound(
            x, n, float(params["rho"]), p, alpha, r=params.get("r"),
            weak_rp=params.get("weak_rp"),
            i2pp=float(params.get("i2pp", math.inf)),
            iap=float(params.get("iap", math.inf)),
            Cpoly=float(params.get("Cpoly", 1.0)))
        return res.to_dict()
    if formula == "bernstein":
        res = bc.bernstein_bound(
            x, n, float(params["kappa"]), p, alpha,
            i_val=float(params["i_val"]),
            cap=float(params.get("cap", math.inf)), C=C,
            C1=float(params.get("C1", 1.0)), C2=float(params.get("C2", 1.0)),
            eps=params.get("eps"))
        return res.to_dict()
    if formula == "as-normalizer":
        return {"value": bc.as_rate_normalizer(n, p, alpha)}
    raise bc.BoundError(f"unknown formula {formula!r}")


def _spec_from_args(args, need_x: bool = False) -> mc.ExperimentSpec:
    return mc.ExperimentSpec(
        sampler=sampler_from_string(args.sampler),
        p=args.p,
        estimator=args.estimator,
        n_grid=_parse_grid(args.ngrid),
        replicates=args.reps,
        seed=args.seed,
        x_grid=_parse_xgrid(args.xgrid) if need_x else (),
        m_ref=args.mref,
        k_star=args.kstar,
        workers=args.workers,
    )


def _cmd_rate(args) -> int:
    spec = _spec_from_args(args)
    rep = mc.run_rate_experiment(spec)
    _echo_config(args, args.out)
    _write_json(args.out, "rate.json", rep.to_dict())
    _write_csv(args.out, "rate.csv", rep.csv_rows())
    print(json.dumps({"slope": rep.slope, "degenerate": rep.degenerate}))
    return 0


def _cmd_tail(args) -> int:
    spec = _spec_from_args(args, need_x=True)
    rep = mc.run_tail_experiment(spec)
    _echo_config(args, args.out)
    _write_json(args.out, "tail.json", rep.to_dict())
    _write_csv(args.out, "tail.csv", rep.csv_rows())
    print(f"wrote tails for n in {list(spec.n_grid)}")
    return 0


def _cmd_fitc(args) -> int:
    spec = _spec_from_args(args, need_x=True)
    rep = mc.run_tail_experiment(spec)
    md = spec.sampler.metadata()
    alpha = float(args.alpha if args.alpha is not None
                  else md.get("alpha", 1.0))
    Delta = float(args.delta if args.delta is not None
                  else md.get("delta_diam", 1.0))
    p = spec.p

    def bound(x, n, C):
        return bc.hoeffding_bound(x, n, p, alpha, Delta, C)

    fit = mc.fit_bound_constant(rep, bound)
    _echo_config(args, args.out)
    _write_json(args.out, "fitc.json", fit.to_dict())
    print(json.dumps(fit.to_dict()))
    return 0 if fit.ok else 1


def _cmd_asrun(args) -> int:
    sampler = sampler_from_string(args.sampler)
    rec = mc.run_as_trajectory(sampler, args.p, args.nmax, args.seed)
    _echo_config(args, args.out)
    _write_json(args.out, "asrun.json", rec)
    _write_csv(args.out, "asrun.csv", rec["rows"])
    print(json.dumps({"max_normalized": rec["max_normalized"]}))
    return 0


def _cmd_verify_appendix(args) -> int:
    rep = mc.verify_appendix_inequalities(
        args.dist, args.r, _parse_grid(args.ngrid), args.reps, args.seed,
        a=args.a)
    _echo_config(args, args.out)
    _write_json(args.out, "appendix.json", rep)
    ok = all(row.get("burkholder_ok", True) and row.get("vbe_ok", True)
             for row in rep["rows"])
    print(json.dumps({"ok": ok, "maximal_fitted_L": rep["maximal_fitted_L"]}))
    return 0 if ok else 1


def _cmd_validate_metric(args) -> int:
    if args.matrix:
        space = load_matrix_csv(args.matrix)
    elif args.points:
        space = load_points_csv(args.points)
    else:
        raise ValueError("provide --points or --matrix")
    report = validate_metric(space, trials=args.trials, seed=args.seed or 0)
    _echo_config(args, args.out)
    _write_json(args.out, "validate.json", report.to_dict())
    print(json.dumps(report.to_dict()))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sp, seed_required: bool):
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--config", default=None,
                    help="config file; flags override its values")
    sp.add_argument("--seed", type=int, required=seed_required,
                    default=None if seed_required else 0)
    sp.add_argument("--workers", type=int, default=1)


def _add_experiment(sp):
    sp.add_argument("--sampler", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--estimator", default="mcf-two-sample",
                    choices=["mcf-two-sample", "1d-quantile", "dyadic"])
    sp.add_argument("--ngrid", required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--mref", type=int, default=None)
    sp.add_argument("--kstar", type=int, default=3)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="empwass",
        description="Empirical transport-distance bounds and experiments")
    ap.add_argument("--version", action="version",
                    version=f"empwass {__version__} ({CATALOG_REVISION})")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("wpp", help="exact transport cost between two clouds")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--method", default="auto", choices=["auto", "1d", "mcf"])
    sp.add_argument("--plan", action="store_true")
    _add_common(sp, False)
    sp.set_defaults(func=_cmd_wpp)

    sp = sub.add_parser("cover", help="greedy covering estimate")
    sp.add_argument("--points", required=True)
    sp.add_argument("--delta", type=float, required=True)
    _add_common(sp, False)
    sp.set_defaults(func=_cmd_cover)

    sp = sub.add_parser("dim", help="covering-dimension envelope fit")
    sp.add_argument("--points", required=True)
    sp.add_argument("--delta-grid", default="auto")
    sp.add_argument("--scales", type=int, default=6)
    _add_common(sp, False)
    sp.set_defaults(func=_cmd_dim)

    sp = sub.add_parser("tree", help="refined partition tree")
    sp.add_argument("--points", required=True)
    sp.add_argument("--kstar", type=int, required=True)
    _add_common(sp, False)
    sp.set_defaults(func=_cmd_tree)

    sp = sub.add_parser("rings", help="ring decomposition and mixture bound")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--x0", type=int, default=0)
    sp.add_argument("--p", type=float, required=True)
    _add_common(sp, False)
    sp.set_defaults(func=_cmd_rings)

    sp = sub.add_parser("bound", help="evaluate a bound formula on a grid")
    sp.add_argument("--formula", required=True,
                    choices=["moment", "hoeffding", "main-term", "fuk-nagaev",
                             "moderate", "bernstein", "as-normalizer"])
    sp.add_argument("--grid", required=True,
                    help="JSON file {x_grid, n_grid, params}")
    _add_common(sp, False)
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("rate", help="convergence-rate experiment")
    _add_experiment(sp)
    _add_common(sp, True)
    sp.set_defaults(func=_cmd_rate)

    sp = sub.add_parser("tail", help="tail-probability experiment")
    _add_experiment(sp)
    sp.add_argument("--xgrid", required=True)
    _add_common(sp, True)
    sp.set_defaults(func=_cmd_tail)

    sp = sub.add_parser("fitc", help="fit the minimal valid bound constant")
    _add_experiment(sp)
    sp.add_argument("--xgrid", required=True)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    _add_common(sp, True)
    sp.set_defaults(func=_cmd_fitc)

    sp = sub.add_parser("asrun", help="almost-sure trajectory check")
    sp.add_argument("--sampler", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    _add_common(sp, True)
    sp.set_defaults(func=_cmd_asrun)

    sp = sub.add_parser("verify-appendix",
                        help="check the partial-sum moment inequalities")
    sp.add_argument("--dist", required=True,
                    choices=["rademacher", "uniform", "pareto"])
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--a", type=float, default=4.0)
    sp.add_argument("--ngrid", required=True)
    sp.add_argument("--reps", type=int, required=True)
    _add_common(sp, True)
    sp.set_defaults(func=_cmd_verify_appendix)

    sp = sub.add_parser("validate-metric", help="check metric axioms")
    sp.add_argument("--points", default=None)
    sp.add_argument("--matrix", default=None)
    sp.add_argument("--trials", type=int, default=10000)
    _add_common(sp, False)
    sp.set_defaults(func=_cmd_validate_metric)

    return ap


def _apply_config(argv, ap):
    """Insert values from --config as defaults (flags still override)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a path")
    path = argv[i + 1]
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValueError(f"config file not found: {path}")
    extra = []
    section = argv[0] if argv and not argv[0].startswith("-") else None
    if section and cp.has_section(section):
        for key, val in cp.items(section):
            flag = "--" + key.replace("_", "-")
            if flag not in argv:
                if val.lower() == "true":
                    extra.append(flag)
                else:
                    extra.extend([flag, val])
    return argv + extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        argv = _apply_config(argv, ap)
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
