"""Command-line surface: exact laws, simulation, moments, distances, rate fits,
condition verification, fixed-point iteration, and the model catalog.

Output is JSON (default) or CSV, written to stdout or ``--output``. Runs are
deterministic: the same flags and seed produce identical bytes. The default
seed comes from ``RECDIST_SEED`` when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import catalog, clt, fixed_point
from .engine import Solver, SolveOptions, sample_many, spec_from_json
from .errors import CapacityError, PreconditionError, RecdistError, UsageError
from .metrics import NormalMixture, kolmogorov

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_PRECONDITION = 4


def _parse_ns(text: str) -> list:
    """Parse 'a:b' into the doubling grid a, 2a, 4a, ..., b; or 'a,b,c' / 'a'."""
    try:
        if ":" not in text:
            ns = [int(x) for x in text.split(",") if x]
            if ns:
                return ns
            raise UsageError(f"--ns names no index, got {text!r}")
        lo, hi = (int(x) for x in text.split(":", 1))
    except ValueError:
        raise UsageError(f"--ns takes 'a:b' or a comma list of integers, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise PreconditionError(f"bad index range {text!r}")
    out = []
    n = lo
    while n <= hi:
        out.append(n)
        n *= 2
    return out


def _emit(args, payload, csv_rows=None, csv_header=None) -> None:
    if args.format == "csv" and csv_rows is not None:
        lines = [",".join(csv_header)]
        for row in csv_rows:
            lines.append(",".join(_csv_cell(row[c]) for c in csv_header))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output: {exc}") from None
    else:
        sys.stdout.write(text)


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _entry(args) -> catalog.CatalogEntry:
    if not args.model:
        raise UsageError("this command needs --model (see `recdist catalog`)")
    if args.model.replace("-", "_") not in catalog.NAMES:
        raise UsageError(
            f"unknown model {args.model!r}; available: {', '.join(catalog.NAMES)}"
        )
    entry = catalog.make(args.model)
    overrides = {}
    for flag, field in (
        ("alpha", "alpha"),
        ("kappa", "kappa"),
        ("lam", "lam"),
        ("xi", "xi"),
        ("C", "c"),
        ("delta", "delta"),
    ):
        val = getattr(args, flag, None)
        if val is not None:
            overrides[field] = val
    if overrides:
        if entry.params is None:
            raise PreconditionError(f"{entry.name} carries no exponent parameters")
        from dataclasses import replace

        entry = replace(entry, params=replace(entry.params, **overrides))
    return entry


def _spec_and_solver(args):
    if getattr(args, "spec_json", None):
        try:
            with open(args.spec_json, "rb") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read --spec-json: {exc}") from None
        spec = spec_from_json(text)
        return spec, Solver(spec, _opts(args))
    entry = _entry(args)
    return entry.spec, Solver(entry.spec, _opts(args))


def _opts(args) -> SolveOptions:
    return SolveOptions(
        mode="exact" if getattr(args, "exact", False) else "float",
        tail_eps=getattr(args, "tail_eps", 1e-12),
    )


def _seed(args) -> int:
    """The seed a run uses: --seed, else RECDIST_SEED, else 0."""
    if args.seed is not None:
        seed = args.seed
    else:
        text = os.environ.get("RECDIST_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise UsageError(f"RECDIST_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        raise UsageError(f"the seed must be nonnegative, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_dist(args) -> int:
    _, solver = _spec_and_solver(args)
    law = solver.law(args.n)
    if args.format == "csv":
        _emit(args, None, [
            {"value": float(v), "prob": float(p)} for v, p in zip(law.values, law.probs)
        ], ("value", "prob"))
    else:
        _emit(args, {"model": args.model or args.spec_json, "n": args.n, "pmf": law.to_json_dict()})
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.runs < 1:
        raise UsageError("--runs must be at least 1")
    spec, solver = _spec_and_solver(args)
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    draws = sample_many(spec, args.n, args.runs, rng)
    mean = float(np.mean(draws))
    var = float(np.var(draws))
    payload = {
        "model": args.model or args.spec_json,
        "n": args.n,
        "runs": args.runs,
        "seed": seed,
        "mean": mean,
        "variance": var,
        "third_abs_central": float(np.mean(np.abs(draws - mean) ** 3)),
    }
    if spec.exact_cap is None or args.n <= spec.exact_cap:
        payload["tv_to_exact"] = _tv_to_exact(draws, solver.law(args.n), solver.lattice_den)
    _emit(args, payload)
    return EXIT_OK


def _tv_to_exact(draws: np.ndarray, law, den: int) -> float:
    """Total variation between the empirical law of ``draws`` and an exact law
    on the lattice of spacing ``1/den``. Both sides are binned on that lattice:
    sums of float tolls (0.1 + 0.1 + 0.1) miss the exact atoms by rounding."""
    vals, counts = np.unique(np.rint(draws * den).astype(np.int64), return_counts=True)
    emp = dict(zip(vals.tolist(), (counts / len(draws)).tolist()))
    ex = {int(v * den): float(p) for v, p in zip(law.values, law.probs)}
    keys = set(emp) | set(ex)
    return 0.5 * sum(abs(emp.get(k, 0.0) - ex.get(k, 0.0)) for k in keys)


def _cmd_moments(args) -> int:
    _, solver = _spec_and_solver(args)
    rows = [
        {
            "n": row.n,
            "mean": float(row.mean),
            "variance": float(row.variance),
            "third_abs_central": float(row.third_abs_central),
        }
        for row in solver.moment_rows(_parse_ns(args.ns))
    ]
    _emit(args, {"model": args.model or args.spec_json, "rows": rows}, rows,
          ("n", "mean", "variance", "third_abs_central"))
    return EXIT_OK


def _cmd_zeta3(args) -> int:
    entry = _entry(args)
    if entry.params is None:
        raise PreconditionError(
            f"{entry.name} is routed to the fixed-point module (nondegenerate limit)"
        )
    solver = entry.solver(_opts(args))
    rows = []
    for n in _parse_ns(args.ns):
        rep = clt.zeta3_to_normal(solver, n)
        rows.append({"n": n, "value": rep.value, "abs_error_bound": rep.abs_error_bound})
    _emit(args, {"model": args.model, "metric": "zeta3", "rows": rows}, rows,
          ("n", "value", "abs_error_bound"))
    return EXIT_OK


def _cmd_rate(args) -> int:
    entry = _entry(args)
    if entry.params is None:
        raise PreconditionError(
            f"{entry.name} is routed to the fixed-point module (nondegenerate limit)"
        )
    solver = entry.solver(_opts(args))
    ns = _parse_ns(args.ns)
    series = []
    for n in ns:
        if args.metric == "zeta3":
            series.append((n, clt.zeta3_to_normal(solver, n).value))
        else:
            series.append((n, clt.kolmogorov_to_normal(solver, n)))
    fit = clt.fit_rate(series)
    _emit(args, {
        "model": args.model,
        "metric": args.metric,
        "series": [{"n": n, "value": v} for n, v in series],
        "fit": {"exponent": fit.exponent, "constant": fit.constant, "residual": fit.residual},
    })
    return EXIT_OK


def _cmd_verify(args) -> int:
    entry = _entry(args)
    if entry.params is None:
        _emit(args, {
            "model": entry.name,
            "degenerate": False,
            "route": "fixed-point",
            "note": "the scaled limit equation keeps its coefficients, so the "
            "normal-limit gate does not apply; use the fixed-point command",
        })
        return EXIT_OK
    solver = entry.solver(_opts(args))
    params = entry.params
    ns = _parse_ns(args.ns)
    gate = clt.rate_exponent(params, entry.spec.k)
    payload = {
        "model": entry.name,
        "degenerate": True,
        "rate_exponent": gate.beta,
        "gate_applicable": gate.applicable,
        "c_is_fitted": entry.c_is_fitted,
    }
    cond = clt.check_conditions(solver, params, ns)
    payload["conditions"] = {
        "rows": [
            {"n": c.n, "drift": c.drift, "index_l3": c.index_l3, "toll_l3_ratio": c.toll_l3_ratio}
            for c in cond.rows
        ],
        "drift_ok": cond.drift_ok,
        "norms_flagged": cond.norms_flagged,
        "messages": cond.messages,
    }
    checks = [(a, len(clt.log_power_ratio_check(a, args.inequality_nmax))) for a in (0.5, 1.0, 1.5, 3.0)]
    payload["log_power_ratio_violations"] = {str(a): v for a, v in checks}
    rows = payload["rows"] = [clt.verification_row(solver, n, params) for n in ns]
    _emit(args, payload, rows, clt.VERIFICATION_COLUMNS)
    return EXIT_OK


def _cmd_fixed_point(args) -> int:
    if args.bins < 1:
        raise UsageError("--bins must be at least 1")
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    if args.equation == "quickselect":
        eq = fixed_point.quickselect_equation(args.population, args.iterations)
    else:
        eq = fixed_point.dickman_equation(args.population, args.iterations)
    res = fixed_point.iterate_population(eq, rng, bins=args.bins)
    payload = {
        "equation": args.equation,
        "population": args.population,
        "iterations": args.iterations,
        "seed": seed,
        "mean": res.mean,
        "second_moment": res.second_moment,
        "third_moment": res.third_moment,
    }
    if args.equation == "quickselect":
        payload["kolmogorov_to_normal"] = kolmogorov(res.pmf, NormalMixture.std_normal())
    if args.format == "csv":
        rows = [
            {"value": float(v), "prob": float(p)}
            for v, p in zip(res.pmf.values, res.pmf.probs)
        ]
        _emit(args, None, rows, ("value", "prob"))
    else:
        _emit(args, payload)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    rows = []
    for entry in catalog.list_entries():
        p = entry.params
        rows.append({
            "name": entry.name,
            "k": entry.spec.k,
            "exact_dp": True,
            "exact_cap": entry.spec.exact_cap,
            "degenerate": entry.degenerate,
            "params": None
            if p is None
            else {
                "alpha": p.alpha, "kappa": p.kappa, "lambda": p.lam,
                "xi": p.xi, "C": p.c, "delta": p.delta,
                "c_is_fitted": entry.c_is_fitted,
            },
            "notes": entry.notes,
        })
    _emit(args, {"models": rows})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sp, model=True, seeded=False, params=False) -> None:
    """Flags shared by the subcommands; ``model`` also adds the recurrence
    choice and the solver's ``--exact`` and ``--tail-eps``. ``params`` (the
    exponent overrides of a catalog model) leaves out ``--spec-json``; else
    it excludes ``--model``."""
    if model:
        source = sp if params else sp.add_mutually_exclusive_group()
        source.add_argument("--model", help="catalog model name (see `recdist catalog`)")
        if not params:
            source.add_argument("--spec-json", help="path to a custom recurrence JSON document")
        sp.add_argument("--exact", action="store_true", help="exact rational arithmetic")
        sp.add_argument("--tail-eps", type=float, default=1e-12,
                        help="per-step truncation budget (default 1e-12)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output", help="write to this path instead of stdout")
    if seeded:
        sp.add_argument("--seed", type=int, default=None,
                        help="pseudo-random seed (default: RECDIST_SEED or 0)")
    if params:
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--kappa", type=float)
        sp.add_argument("--lambda", type=float, dest="lam")
        sp.add_argument("--xi", type=float)
        sp.add_argument("--C", type=float)
        sp.add_argument("--delta", type=float)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="recdist",
        description="Exact laws of divide-and-conquer recurrences plus "
        "normal-approximation diagnostics.",
        epilog="CSV schemas: dist/fixed-point emit value,prob; moments emits "
        "n,mean,variance,third_abs_central; zeta3 emits n,value,abs_error_bound; "
        f"verify emits {','.join(clt.VERIFICATION_COLUMNS)}.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dist", help="exact distribution at one index")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(fn=_cmd_dist)

    sp = sub.add_parser("simulate", help="Monte Carlo summary at one index")
    _add_common(sp, seeded=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--runs", type=int, default=100_000)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("moments", help="mean/variance table over an index grid")
    _add_common(sp)
    sp.add_argument("--ns", required=True, help="'a:b' doubling grid or comma list")
    sp.set_defaults(fn=_cmd_moments)

    sp = sub.add_parser("zeta3", help="distance of the standardized law to normal")
    _add_common(sp, params=True)
    sp.add_argument("--ns", required=True)
    sp.set_defaults(fn=_cmd_zeta3)

    sp = sub.add_parser("rate", help="fit the decay exponent of a distance series")
    _add_common(sp, params=True)
    sp.add_argument("--ns", required=True)
    sp.add_argument("--metric", choices=("zeta3", "kolmogorov"), default="zeta3")
    sp.set_defaults(fn=_cmd_rate)

    sp = sub.add_parser("verify", help="condition checks, distance rows, bound terms")
    _add_common(sp, params=True)
    sp.add_argument("--seed", type=int, default=None,
                    help="accepted for scripts that pass it; verify draws nothing")
    sp.add_argument("--ns", default="16:256")
    sp.add_argument("--inequality-nmax", type=int, default=500,
                    help="exhaustive log-power inequality check range")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("fixed-point", help="population iteration of a limit equation")
    _add_common(sp, model=False, seeded=True)
    sp.add_argument("--equation", choices=("quickselect", "dickman"), required=True)
    sp.add_argument("--population", type=int, default=200_000)
    sp.add_argument("--iterations", type=int, default=60)
    sp.add_argument("--bins", type=int, default=400)
    sp.set_defaults(fn=_cmd_fixed_point)

    sp = sub.add_parser("catalog", help="list models, parameters and solve modes")
    sp.add_argument("action", nargs="?", default="list", choices=("list",))
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_catalog)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RecdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:
        print(f"capacity error: out of memory ({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
