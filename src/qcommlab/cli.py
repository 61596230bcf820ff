"""Command-line front end.

Subcommands:
  matrix     emit a named communication matrix as CSV or JSON
  ndet       build the SVD protocol for a function and check its cost
  intersect  run the intersection searchers and check each trial's cost
             against the cost model, or print just the cost model
  audit      run one of the structural audits
  simulate   simulate a named protocol on one input pair or all pairs

Exit codes: 0 success, 1 assertion/agreement failure, 2 usage or I/O error.
Randomized paths require an explicit --seed so runs are reproducible.
Each subcommand accepts only the shared --seed/--format flags it reads,
and audit rank-bound and intersect --cost-only refuse the --seed, --trials,
--x and --y flags they do not read.  Zero patterns and ranks use the
package's one tolerance, the constant linalg.DEFAULT_TOL; no flag or
argument sets it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import engine, ranklab, zoo
from .errors import QcommError

AUDIT_NAMES = ("rank-bound", "eq-fullrank", "disj-triangular", "monomial-rank")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_matrix(args) -> int:
    cm = ranklab.build_comm_matrix(args.fn, args.n)
    text = cm.to_json() + "\n" if args.format == "json" else cm.to_csv()
    _emit(text, args.out)
    return 0


def cmd_ndet(args) -> int:
    target = ranklab.build_comm_matrix(args.fn, args.n)
    witness = ranklab.canonical_witness(args.fn, args.n)
    bundle = zoo.ndet_svd_protocol(witness)
    cost = bundle.protocol.declared_cost
    claimed = max(int(math.ceil(math.log2(bundle.r))), 0) + 1
    lines = [f"function {args.fn}_{args.n}",
             f"witness rank {bundle.r}",
             f"protocol cost {cost}",
             f"log2(rank)+1  {claimed}"]
    pattern_ok = True
    if args.n <= engine.ACCEPTANCE_N_GUARD:
        accept = engine.acceptance_matrix(bundle.protocol)
        pattern_ok = bool(np.array_equal(accept.support(),
                                         target.values == 1))
        lines.append(f"acceptance pattern {'ok' if pattern_ok else 'MISMATCH'}")
    else:
        lines.append("acceptance pattern skipped (n too large to tabulate)")
    agree = cost == claimed and pattern_ok
    lines.append("agree" if agree else "DISAGREE")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if agree else 1


def cmd_intersect(args) -> int:
    rcfg = zoo.RecursionConfig()
    model = zoo.cost_model(args.n, rcfg)  # raises for n < 1
    if args.cost_only:
        _emit(f"cost_model {model:.17g}\n", args.out)
        return 0
    if args.seed is None:
        sys.stderr.write("--seed is required unless --cost-only is given\n")
        return 2
    if args.n > 64:
        sys.stderr.write("simulation capped at n = 64; use --cost-only\n")
        return 2
    rng = np.random.default_rng(args.seed)
    if args.x is not None and args.y is not None:
        x = engine.bit_array(args.x).tolist()
        y = engine.bit_array(args.y).tolist()
    else:
        x = rng.integers(0, 2, size=args.n).tolist()
        y = rng.integers(0, 2, size=args.n).tolist()
    if len(x) != args.n or len(y) != args.n:
        sys.stderr.write("input length does not match --n\n")
        return 2
    has_solution = any(a & b for a, b in zip(x, y))
    hits = 0
    false_pos = 0
    costs = []
    for t in range(args.trials):
        cfg = zoo.QSearchConfig(rng_seed=(args.seed, t))
        res = zoo.recursive_intersection(x, y, rcfg, cfg)
        costs.append(res.cost)
        if res.index is not None:
            if x[res.index] & y[res.index]:
                hits += 1
            else:
                false_pos += 1
    lines = [
        "x " + "".join(map(str, x)),
        "y " + "".join(map(str, y)),
        f"intersecting {has_solution}",
        f"trials {args.trials}",
        f"success_rate {hits / args.trials:.4f}",
        f"false_positives {false_pos}",
        f"mean_cost {sum(costs) / len(costs):.2f}",
        f"max_cost {max(costs)}",
        f"cost_model {model:.17g}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    # cost_model is the most any run can cost, so a costlier trial is a fault
    if false_pos or max(costs) > model or (has_solution
                                           and hits / args.trials < 0.5):
        return 1
    return 0


def cmd_audit(args) -> int:
    if args.seed is None and args.name in ("eq-fullrank", "disj-triangular",
                                           "monomial-rank"):
        sys.stderr.write("--seed is required for sampled audits\n")
        return 2
    if args.name == "rank-bound":
        corpus = zoo.protocol_corpus(args.n)
        failures = []
        for entry in corpus:
            rep = engine.rank_bound_audit(entry.protocol)
            if not rep.ok:
                failures.append({"protocol": entry.name,
                                 "rank": rep.rank, "bound": rep.bound})
        report = ranklab.AuditReport(name="rank-bound", n=args.n,
                                     trials=len(corpus),
                                     ok=not failures, failures=failures)
    elif args.name == "eq-fullrank":
        report = ranklab.eq_fullrank_audit(args.n, args.trials, args.seed)
    elif args.name == "disj-triangular":
        report = ranklab.disj_triangular_audit(args.n, args.trials, args.seed)
    else:
        rng = np.random.default_rng(args.seed)
        failures = []
        for t in range(args.trials):
            am = ranklab.random_and_dependent_acceptance(args.n, rng)
            rep = ranklab.monomial_rank_audit(am)
            if not rep.ok:
                failures.append({"trial": t, "monomials": rep.monomials,
                                 "rank": rep.rank})
        report = ranklab.AuditReport(name="monomial-rank", n=args.n,
                                     trials=args.trials, ok=not failures,
                                     failures=failures)
    _emit(report.to_json() + "\n", args.out)
    return 0 if report.ok else 1


def cmd_simulate(args) -> int:
    target = ranklab.build_comm_matrix(args.fn, args.n)
    if args.protocol == "trivial":
        proto = zoo.trivial_exact_protocol(target)
    else:
        proto = zoo.ndet_svd_protocol(
            ranklab.canonical_witness(args.fn, args.n)).protocol
    if args.x is not None and args.y is not None:
        res = engine.simulate(proto, args.x, args.y)
        _emit(json.dumps({"x": args.x, "y": args.y,
                          "accept_prob": res.accept_prob,
                          "cost": res.cost}) + "\n", args.out)
        return 0
    accept = engine.acceptance_matrix(proto)
    text = accept.to_json() + "\n" if args.format == "json" else accept.to_csv()
    _emit(text, args.out)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qcomm parser, built once per process and shared by ``main``."""
    parser = argparse.ArgumentParser(
        prog="qcomm", description="two-party protocol lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags, fn=False, trials=None):
        shared = {"--seed": dict(type=int, default=None),
                  "--format": dict(choices=("csv", "json"), default="csv")}
        p.add_argument("--n", type=int, required=True)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.add_argument("--out", default=None)
        if fn:
            p.add_argument("--fn", required=True,
                           choices=ranklab.FUNCTION_NAMES)
        if trials is not None:
            # None marks --trials as not given; main fills in the default
            p.add_argument("--trials", type=_positive_int, default=None)
            p.set_defaults(trials_default=trials)

    p = sub.add_parser("matrix", help="emit a communication matrix")
    common(p, "--format", fn=True)
    p.set_defaults(run=cmd_matrix)

    p = sub.add_parser("ndet", help="SVD protocol cost vs log2(rank)+1")
    common(p, fn=True)
    p.set_defaults(run=cmd_ndet)

    p = sub.add_parser("intersect", help="intersection search trials")
    common(p, "--seed", trials=200)
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    p.add_argument("--cost-only", action="store_true")
    p.set_defaults(run=cmd_intersect)

    p = sub.add_parser("audit", help="run a structural audit")
    p.add_argument("name", choices=AUDIT_NAMES)
    common(p, "--seed", trials=100)
    p.set_defaults(run=cmd_audit)

    p = sub.add_parser("simulate", help="simulate a named protocol")
    common(p, "--format", fn=True)
    p.add_argument("--protocol", choices=("trivial", "svd"), default="trivial")
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    p.set_defaults(run=cmd_simulate)
    return parser


def _unread_flags(args):
    """A mode's name and the flags given to it that it never reads:
    ``audit rank-bound`` audits the fixed corpus and ``intersect
    --cost-only`` runs no trials."""
    if args.command == "audit" and args.name == "rank-bound":
        mode, names = "audit rank-bound", ("seed", "trials")
    elif args.command == "intersect" and args.cost_only:
        mode, names = "intersect --cost-only", ("seed", "trials", "x", "y")
    else:
        return None, []
    return mode, [f"--{name}" for name in names
                  if getattr(args, name) is not None]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    mode, unread = _unread_flags(args)
    if unread:
        sys.stderr.write(f"error: {mode} does not read {', '.join(unread)}\n")
        return 2
    if getattr(args, "trials", 0) is None:
        args.trials = args.trials_default
    if (getattr(args, "x", None) is None) != (getattr(args, "y", None) is None):
        sys.stderr.write("error: --x and --y must be given together\n")
        return 2
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except QcommError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
