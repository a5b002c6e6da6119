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
from .randmodels import (
    RandomSource,
    gnm,
    gnp,
    hitting_times,
    process,
    regular_configuration,
)


def _budget(text: str) -> int:
    """A `--budget` value: a search-node count of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


# -- nac -------------------------------------------------------------------------


def _cmd_nac_check(args) -> int:
    c = load_colouring(args.colouring)
    verdict = _nac.nac_check(c)
    out = {"is_nac": verdict.is_nac}
    if verdict.failure:
        out["failure"] = verdict.failure
        if verdict.edge is not None:
            out["edge"] = list(verdict.edge)
            out["path"] = list(verdict.path)
    _print_json(out)
    return 0


def _cmd_nac_count(args) -> int:
    g = load_graph(args.graph)
    count = _nac.nac_count(g, node_budget=args.budget)
    _print_json({"count": count})
    return 0


def _cmd_nac_find(args) -> int:
    g = load_graph(args.graph)
    c = _nac.nac_exists(g, node_budget=args.budget)
    if c is None:
        _print_json({"result": "none"})
    else:
        _print_json({"result": "found"} | c.to_json_dict())
    return 0


def _cmd_nac_enumerate(args) -> int:
    g = load_graph(args.graph)
    res = _nac.nac_enumerate(g, cap=args.cap, node_budget=args.budget)
    _print_json(
        {
            "complete": res.complete,
            "count": res.count,
            "colourings": [
                [list(e) for e in c.edges_of(Colour.RED)] for c in res.colourings
            ],
        }
    )
    return 0


def _cmd_nac_stable_witness(args) -> int:
    c = load_colouring(args.colouring)
    witnesses = _nac.stable_witnesses(c, mode=args.mode, size_cap=args.size_cap)
    _print_json(
        {
            "stable": bool(witnesses),
            "witnesses": [
                {"side": w.side.value, "s": list(w.vertices)} for w in witnesses
            ],
        }
    )
    return 0


# -- cut -------------------------------------------------------------------------


def _cmd_cut(args) -> int:
    g = load_graph(args.graph)
    if args.kind == "stable":
        cert = _cuts.stable_cut_exists(g, node_budget=args.budget)
    elif args.kind == "firm":
        cert = _cuts.firm_cut_exists(g, node_budget=args.budget)
    else:
        holds, cert = _cuts.sprime_holds(g, node_budget=args.budget)
        if holds:
            _print_json({"result": "holds"})
            return 0
    if cert is None:
        _print_json({"result": "none"})
    else:
        _print_json(cert.to_json_dict())
    return 0


# -- rand ------------------------------------------------------------------------


def _cmd_rand(args) -> int:
    src = RandomSource(args.seed, args.stream)
    if args.model == "gnp":
        if args.p is None:
            raise PreconditionError("gnp requires --p")
        g = gnp(args.n, args.p, src)
    elif args.model == "gnm":
        if args.m is None:
            raise PreconditionError("gnm requires --m")
        g = gnm(args.n, args.m, src)
    else:
        if args.k is None:
            raise PreconditionError("regular requires --k")
        g, rejects = regular_configuration(
            args.n, args.k, src, max_rejects=args.max_rejects
        )
        print(f"# rejected pairings: {rejects}", file=sys.stderr)
    if args.out:
        save_graph(g, args.out, fmt=args.format)
    else:
        _print_json(graph_to_json_dict(g))
    return 0


# -- process ---------------------------------------------------------------------


def _cmd_process_trace(args) -> int:
    src = RandomSource(args.seed, args.stream)
    trace = process(args.n, src)
    rec = hitting_times(trace, node_budget=args.budget)
    _print_json(
        {
            "n": args.n,
            "seed": args.seed,
            "tau_conn": rec.as_json_value("tau_conn"),
            "tau_T": rec.as_json_value("tau_T"),
            "tau_S": rec.as_json_value("tau_S"),
            "tau_N": rec.as_json_value("tau_N"),
        }
    )
    return 0


# -- flex ------------------------------------------------------------------------


def _cmd_flex_build(args) -> int:
    c = load_colouring(args.colouring)
    try:
        family = _flex.build_flex(c, RandomSource(args.seed, args.stream))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    thetas = [2.0 * np.pi * i / args.samples for i in range(args.samples)]
    positions = [
        [[float(p[0]), float(p[1])] for p in _flex.sample_positions(family, t)]
        for t in thetas
    ]
    report = _flex.verify_flex(family, n_samples=args.samples)
    _print_json(
        {
            "theta": thetas,
            "positions": positions,
            "report": {
                "max_edge_drift": report.max_edge_drift,
                "max_pair_variation": report.max_pair_variation,
                "min_edge_length": report.min_edge_length,
                "n_samples": report.n_samples,
            },
        }
    )
    return 0


# -- experiment --------------------------------------------------------------------


def _cmd_experiment_sweep(args) -> int:
    spec = _exp.SweepSpec(
        property=args.property,
        n_values=tuple(args.n),
        c_values=tuple(args.c),
        trials=args.trials,
        master_seed=args.seed,
        node_budget=args.budget,
    )
    result = _exp.run_sweep(spec, workers=args.workers, force=args.force)
    _exp.emit(result, args.format, args.out)
    return 0


def _cmd_experiment_hitting(args) -> int:
    result = _exp.hitting_equality_experiment(
        tuple(args.n),
        args.trials,
        args.seed,
        node_budget=args.budget,
        workers=args.workers,
    )
    _exp.emit(result, args.format, args.out)
    return 0


def _cmd_experiment_regular_nac(args) -> int:
    result = _exp.regular_nac_lower_bound(
        args.n, args.k, args.trials, args.seed, workers=args.workers
    )
    _exp.emit(result, args.format, args.out)
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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

    p = nac_sub.add_parser("count", help="exact number of NAC-colourings")
    p.add_argument("graph")
    p.add_argument("--budget", type=_budget, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_nac_count)

    p = nac_sub.add_parser("find", help="find one NAC-colouring")
    p.add_argument("graph")
    p.add_argument("--budget", type=_budget, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_nac_find)

    p = nac_sub.add_parser("enumerate", help="list NAC-colourings")
    p.add_argument("graph")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--budget", type=_budget, default=DEFAULT_NODE_BUDGET)
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

    p = sub.add_parser("cut", help="stable/firm cut decisions")
    p.add_argument("kind", choices=["stable", "firm", "sprime"])
    p.add_argument("graph")
    p.add_argument("--budget", type=_budget, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("rand", help="random graph generators")
    p.add_argument("model", choices=["gnp", "gnm", "regular"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--max-rejects", type=int, default=10_000)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["edgelist", "json"], default="edgelist")
    p.set_defaults(func=_cmd_rand)

    p_proc = sub.add_parser("process", help="random graph process")
    proc_sub = p_proc.add_subparsers(dest="process_command", required=True)
    p = proc_sub.add_parser("trace", help="hitting times of one process run")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--budget", type=_budget, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_process_trace)

    p_flex = sub.add_parser("flex", help="flexible realisations")
    flex_sub = p_flex.add_subparsers(dest="flex_command", required=True)
    p = flex_sub.add_parser("build", help="build and sample a motion")
    p.add_argument("colouring")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=_cmd_flex_build)

    p_exp = sub.add_parser("experiment", help="Monte Carlo experiment drivers")
    exp_sub = p_exp.add_subparsers(dest="experiment_command", required=True)

    p = exp_sub.add_parser("sweep", help="threshold sweep")
    p.add_argument("--property", choices=list(_exp.PROPERTIES), required=True)
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--c", type=float, nargs="+", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_experiment_sweep)

    p = exp_sub.add_parser("hitting", help="hitting-time equality experiment")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_experiment_hitting)

    p = exp_sub.add_parser("regular-nac", help="random-regular NAC construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_experiment_regular_nac)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceeded:
        _print_json({"result": "budget-exceeded"})
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
