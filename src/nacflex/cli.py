"""Command-line interface.

Verbs: nac, cut, rand, process, flex, experiment.  Exit codes: 0 on success,
2 on precondition violations (including argument errors, a colouring for
which `flex build` cannot sample separated base vectors, and an input too
large for memory or for an index), 3 on I/O failures.
A search or sampler that runs out of its budget prints
{"result": "budget-exceeded"} and exits 0.  Every `--budget` flag is a
search-node count of at least 1 (default DEFAULT_NODE_BUDGET), so identical
seeds always give identical outputs.  The budget is the only limit of
`nac count`, `nac enumerate` and `nac find`; `--force` exists only on
`experiment sweep`, to pass its n ceilings.

Options shared by several verbs are declared once, in `build_parser`'s
parent parsers.  A handler returns its output (a JSON-able dict, an experiment
table, or None after writing a file); `main` prints it and maps exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cuts as _cuts
from . import experiments as _exp
from . import flex as _flex
from . import nac as _nac
from .errors import DEFAULT_NODE_BUDGET, BudgetExceeded, PreconditionError
from .graphs import graph_to_json_dict, load_graph, save_graph
from .nac import Colour, load_colouring
from .randmodels import RandomSource, gnm, gnp, hitting_times, process
from .randmodels import regular_configuration


def _at_least_one(text: str) -> int:
    """A `--budget` or `--workers` value: a count of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# -- nac -------------------------------------------------------------------------


def _cmd_nac_check(args) -> dict:
    verdict = _nac.nac_check(load_colouring(args.colouring))
    out = {"is_nac": verdict.is_nac}
    if verdict.failure:
        out["failure"] = verdict.failure
        if verdict.edge is not None:
            out["edge"] = list(verdict.edge)
            out["path"] = list(verdict.path)
    return out


def _cmd_nac_count(args) -> dict:
    g = load_graph(args.graph)
    return {"count": _nac.nac_count(g, node_budget=args.budget)}


def _cmd_nac_find(args) -> dict:
    c = _nac.nac_exists(load_graph(args.graph), node_budget=args.budget)
    return {"result": "none"} if c is None else {"result": "found"} | c.to_json_dict()


def _cmd_nac_enumerate(args) -> dict:
    g = load_graph(args.graph)
    res = _nac.nac_enumerate(g, cap=args.cap, node_budget=args.budget)
    red = [[list(e) for e in c.edges_of(Colour.RED)] for c in res.colourings]
    return {"complete": res.complete, "count": res.count, "colourings": red}


def _cmd_nac_stable_witness(args) -> dict:
    c = load_colouring(args.colouring)
    witnesses = _nac.stable_witnesses(c, mode=args.mode, size_cap=args.size_cap)
    found = [{"side": w.side.value, "s": list(w.vertices)} for w in witnesses]
    return {"stable": bool(witnesses), "witnesses": found}


# -- cut -------------------------------------------------------------------------


def _cmd_cut(args) -> dict:
    g = load_graph(args.graph)
    if args.kind == "stable":
        cert = _cuts.stable_cut_exists(g, node_budget=args.budget)
    elif args.kind == "firm":
        cert = _cuts.firm_cut_exists(g, node_budget=args.budget)
    else:
        holds, cert = _cuts.sprime_holds(g, node_budget=args.budget)
        if holds:
            return {"result": "holds"}
    return {"result": "none"} if cert is None else cert.to_json_dict()


# -- rand, process, flex -----------------------------------------------------------


def _cmd_rand(args) -> dict | None:
    src = RandomSource(args.seed, args.stream)
    param = {"gnp": "p", "gnm": "m", "regular": "k"}[args.model]
    if getattr(args, param) is None:
        raise PreconditionError(f"{args.model} requires --{param}")
    if args.model == "gnp":
        g = gnp(args.n, args.p, src)
    elif args.model == "gnm":
        g = gnm(args.n, args.m, src)
    else:
        g, rejects = regular_configuration(
            args.n, args.k, src, max_rejects=args.max_rejects
        )
        # a diagnostic beside the output, which stays the graph alone
        print(f"# rejected pairings: {rejects}", file=sys.stderr)
    if not args.out:
        return graph_to_json_dict(g)
    save_graph(g, args.out, fmt=args.format)
    return None


def _cmd_process_trace(args) -> dict:
    trace = process(args.n, RandomSource(args.seed, args.stream))
    rec = hitting_times(trace, node_budget=args.budget)
    taus = ("tau_conn", "tau_T", "tau_S", "tau_N")
    return {"n": args.n, "seed": args.seed} | {t: rec.as_json_value(t) for t in taus}


def _cmd_flex_build(args) -> dict:
    c = load_colouring(args.colouring)
    family = _flex.build_flex(c, RandomSource(args.seed, args.stream))
    thetas = [2.0 * np.pi * i / args.samples for i in range(args.samples)]
    positions = [
        [[float(p[0]), float(p[1])] for p in _flex.sample_positions(family, t)]
        for t in thetas
    ]
    report = _flex.verify_flex(family, n_samples=args.samples)
    return {"theta": thetas, "positions": positions, "report": vars(report)}


# -- experiment --------------------------------------------------------------------


def _cmd_experiment_sweep(args) -> _exp.SweepResult:
    spec = _exp.SweepSpec(
        args.property, tuple(args.n), tuple(args.c), args.trials, args.seed, args.budget
    )
    return _exp.run_sweep(spec, workers=args.workers, force=args.force)


def _cmd_experiment_hitting(args) -> _exp.HittingResult:
    return _exp.hitting_equality_experiment(
        tuple(args.n), args.trials, args.seed,
        node_budget=args.budget, workers=args.workers,
    )


def _cmd_experiment_regular_nac(args) -> _exp.RegularNacResult:
    return _exp.regular_nac_lower_bound(
        args.n, args.k, args.trials, args.seed, workers=args.workers
    )


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # the shared option groups, each declared once and inherited by its verbs
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_at_least_one, default=DEFAULT_NODE_BUDGET)
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("--seed", type=int, required=True)
    stream.add_argument("--stream", type=int, default=0)
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--seed", type=int, required=True)
    table.add_argument("--out", default=None)
    table.add_argument("--format", choices=["csv", "json"], default="csv")
    table.add_argument("--workers", type=_at_least_one, default=1)

    parser = argparse.ArgumentParser(
        prog="nacflex",
        description="NAC-colourings, stable cuts, flexible realisations, "
        "and random-graph experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nac = sub.add_parser("nac", help="NAC-colouring operations")
    nac_sub = p_nac.add_subparsers(dest="nac_command", required=True)

    p = nac_sub.add_parser("check", help="verify a colouring file")
    p.add_argument("colouring")
    p.set_defaults(func=_cmd_nac_check)

    p = nac_sub.add_parser(
        "count", parents=[budget], help="exact number of NAC-colourings"
    )
    p.add_argument("graph")
    p.set_defaults(func=_cmd_nac_count)

    p = nac_sub.add_parser("find", parents=[budget], help="find one NAC-colouring")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_nac_find)

    p = nac_sub.add_parser("enumerate", parents=[budget], help="list NAC-colourings")
    p.add_argument("graph")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_nac_enumerate)

    p = nac_sub.add_parser(
        "stable-witness",
        help="stable witnesses of a colouring",
        description="Witnesses are canonical: isolated vertices are excluded. "
        "When filtering by witness size, remember any isolated vertex may be "
        "padded into a witness without changing its validity.",
    )
    p.add_argument("colouring")
    p.add_argument("--mode", choices=["first", "all"], default="first")
    p.add_argument("--size-cap", type=int, default=None)
    p.set_defaults(func=_cmd_nac_stable_witness)

    p = sub.add_parser("cut", parents=[budget], help="stable/firm cut decisions")
    p.add_argument("kind", choices=["stable", "firm", "sprime"])
    p.add_argument("graph")
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("rand", parents=[stream], help="random graph generators")
    p.add_argument("model", choices=["gnp", "gnm", "regular"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max-rejects", type=int, default=10_000)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["edgelist", "json"], default="edgelist")
    p.set_defaults(func=_cmd_rand)

    p_proc = sub.add_parser("process", help="random graph process")
    proc_sub = p_proc.add_subparsers(dest="process_command", required=True)
    p = proc_sub.add_parser(
        "trace", parents=[stream, budget], help="hitting times of one process run"
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_process_trace)

    p_flex = sub.add_parser("flex", help="flexible realisations")
    flex_sub = p_flex.add_subparsers(dest="flex_command", required=True)
    p = flex_sub.add_parser("build", parents=[stream], help="build and sample a motion")
    p.add_argument("colouring")
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=_cmd_flex_build)

    p_exp = sub.add_parser("experiment", help="Monte Carlo experiment drivers")
    exp_sub = p_exp.add_subparsers(dest="experiment_command", required=True)

    p = exp_sub.add_parser("sweep", parents=[table, budget], help="threshold sweep")
    p.add_argument("--property", choices=list(_exp.PROPERTIES), required=True)
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--c", type=float, nargs="+", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_experiment_sweep)

    p = exp_sub.add_parser(
        "hitting", parents=[table, budget], help="hitting-time equality experiment"
    )
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(func=_cmd_experiment_hitting)

    p = exp_sub.add_parser(
        "regular-nac", parents=[table], help="random-regular NAC construction"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(func=_cmd_experiment_regular_nac)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        try:
            out = args.func(args)
        except BudgetExceeded:
            out = {"result": "budget-exceeded"}
        if isinstance(out, dict):
            print(json.dumps(out, indent=2))
        elif out is not None:
            _exp.emit(out, args.format, args.out)
        return 0
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:
        reason = str(exc) or type(exc).__name__
        print(f"error: input too large: {reason}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:  # console-script hook
    sys.exit(main())
