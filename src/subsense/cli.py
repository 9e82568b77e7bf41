"""Command-line front end: generate, reduce, solve, verify, bench.

The families are stated once, in ``FAMILIES``: each name maps to its
builder and to the bench parameters it reads, and ``gen`` and ``bench``
both read that table.  ``reduce`` and ``bench`` run arc consistency and
every engine through ``_run_stage``.

Exit codes: 0 success (for reduce: reduced without emptying a domain),
10 proven unsatisfiable during reduction, 2 bad input (parse error,
unknown family or rule), 1 failed verification.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
import time
from dataclasses import replace

from . import generators, instance, oracle
from .acns import establish_ac, ns_to_convergence
from .cns import cns_to_convergence
from .scss import ReplayError, replay_sequence, replay_steps, scss_to_convergence
from .ss import ss_to_convergence
from .trace import Trace, dump_trace, load_trace

ENGINES = {
    "ns": ns_to_convergence,
    "ss": ss_to_convergence,
    "cns": cns_to_convergence,
    "scss": scss_to_convergence,
}
PIPELINE_RULES = ("ac", *ENGINES)
# the engines that take only arc-consistent input; scss removes
# unsupported values itself
NEEDS_AC = ("ns", "ss", "cns")
TIGHTNESS_HELP = (
    "random: probability that a value pair is allowed "
    "(the reverse of the usual CSP tightness)"
)


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load(path: str):
    try:
        return instance.load_file(path)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read instance {path}: {exc}")


# -- gen ----------------------------------------------------------------------

def _parse_sets(text: str) -> list[list[int]]:
    groups = []
    for token in text.split(","):
        token = token.strip()
        if not token.isdigit():
            raise ValueError(f"set token {token!r} is not a run of digits")
        groups.append([int(ch) for ch in token])
    return groups


def _setcover(args) -> instance.Instance:
    if args.universe is None or args.sets is None:
        raise ValueError("setcover needs --universe and --sets")
    return generators.set_cover_instance(
        range(1, args.universe + 1), _parse_sets(args.sets)
    )


# each family: its builder, and the bench parameters it reads; a builder
# looks its generator up at call time, so a wrapper installed on it runs
FAMILIES = {
    "figure1a": (lambda args: generators.figure1a(), ()),
    "figure1b": (lambda args: generators.figure1b(), ()),
    "figure1c": (lambda args: generators.figure1c(), ()),
    "random": (
        lambda args: generators.random_instance(
            args.n, args.d, args.density, args.tightness, args.seed
        ),
        ("d", "density", "tightness", "seed"),
    ),
    "setcover": (_setcover, ()),
    "geqchain": (lambda args: generators.geq_chain(args.length), ()),
    "cnsvsns": (lambda args: generators.two_var_cns_vs_ns(args.d), ("d",)),
}


def cmd_gen(args) -> int:
    try:
        inst = FAMILIES[args.family][0](args)
    except ValueError as exc:
        return _fail(str(exc))
    if args.out:
        instance.dump_file(inst, args.out)
    else:
        sys.stdout.write(instance.dumps(inst))
    return 0


# -- reduce -------------------------------------------------------------------

def _run_stage(inst, rule):
    """Run one pipeline stage; returns (reduced, records, updates, micros)."""
    if rule == "ac":
        start = time.perf_counter_ns()
        reduced, trace = establish_ac(inst)
        micros = (time.perf_counter_ns() - start) // 1000
        return reduced, trace.steps, 0, micros
    reduced, trace, report = ENGINES[rule](inst)
    return reduced, trace.steps, report.updates, report.micros


def run_pipeline(inst, rules):
    """Run the engines in order, repeating the whole pipeline until a full
    pass eliminates nothing (the rules can re-enable one another).

    Arc consistency is prepended when the pipeline contains a rule that
    needs it.  Returns (reduced, steps, updates, micros, unsatisfiable).
    """
    stages = list(rules)
    if any(rule in NEEDS_AC for rule in stages) and stages[0] != "ac":
        stages.insert(0, "ac")
    cur = inst
    steps: list = []
    updates = 0
    micros = 0
    while True:
        eliminated_this_pass = 0
        for rule in stages:
            cur, records, stage_updates, stage_micros = _run_stage(cur, rule)
            for rec in records:
                steps.append(replace(rec, step=len(steps) + 1))
            eliminated_this_pass += len(records)
            updates += stage_updates
            micros += stage_micros
            if cur.unsatisfiable:
                return cur, steps, updates, micros, True
        if not eliminated_this_pass:
            return cur, steps, updates, micros, False


def cmd_reduce(args) -> int:
    rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]
    if not rules:
        return _fail("no rules given")
    for rule in rules:
        if rule not in PIPELINE_RULES:
            return _fail(f"unknown rule {rule!r}")
    inst = _load(args.instance)
    if isinstance(inst, int):
        return inst
    reduced, steps, updates, micros, unsat = run_pipeline(inst, rules)
    if args.out:
        instance.dump_file(reduced, args.out)
    if args.trace:
        trace = Trace(
            inst.name, steps, final_domains=[list(dom) for dom in reduced.domains]
        )
        dump_trace(trace, args.trace)
    if args.stats:
        with open(args.stats, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [
                    "instance",
                    "rules",
                    "eliminations",
                    "updates",
                    "micros",
                    "initial_values",
                    "final_values",
                    "unsatisfiable",
                ]
            )
            writer.writerow(
                [
                    inst.name,
                    "+".join(rules),
                    len(steps),
                    updates,
                    micros,
                    sum(len(dom) for dom in inst.domains),
                    sum(len(dom) for dom in reduced.domains),
                    int(unsat),
                ]
            )
    domains = " ".join(
        "{" + ",".join(str(v) for v in dom) + "}" for dom in reduced.domains
    )
    print(f"eliminated {len(steps)} values; domains: {domains}")
    if unsat:
        print("unsatisfiable: a domain emptied")
        return 10
    return 0


# -- solve --------------------------------------------------------------------

def cmd_solve(args) -> int:
    inst = _load(args.instance)
    if isinstance(inst, int):
        return inst
    try:
        solutions = oracle.solve(inst, limit=args.limit)
    except oracle.SearchSpaceError as exc:
        return _fail(str(exc), code=1)
    except ValueError as exc:
        return _fail(str(exc))
    if not solutions:
        print("UNSAT")
        return 0
    for sol in solutions:
        print(" ".join(str(v) for v in sol))
    return 0


# -- verify -------------------------------------------------------------------

def cmd_verify(args) -> int:
    inst = _load(args.instance)
    if isinstance(inst, int):
        return inst
    try:
        trace = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read trace {args.trace}: {exc}")
    steps, rules = replay_steps(trace)
    try:
        reduced, _ = replay_sequence(inst, steps, rules)
    except (ReplayError, ValueError) as exc:
        print(f"FAIL: {exc}")
        return 1
    if trace.final_domains is not None:
        if trace.final_domains != [list(dom) for dom in reduced.domains]:
            print("FAIL: final domains do not match the trace")
            return 1
    print(f"OK: {len(steps)} steps certified")
    return 0


# -- bench --------------------------------------------------------------------

def cmd_bench(args) -> int:
    rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]
    if not rules:
        return _fail("no rules given")
    for rule in rules:
        if rule not in ENGINES:
            return _fail(f"unknown bench rule {rule!r}")
    try:
        d_values = [int(token) for token in str(args.d).split(",")]
    except ValueError:
        return _fail(f"bad --d list {args.d!r}")
    if args.seeds < 1:
        return _fail(f"--seeds must be at least 1, not {args.seeds}")
    if args.family not in FAMILIES:
        return _fail(f"unknown family {args.family!r}")
    build, reads = FAMILIES[args.family]
    # the parameter columns of the CSV: a family runs once per value of each
    # parameter it reads and leaves the other columns empty
    grid = {
        "d": d_values,
        "density": [args.density],
        "tightness": [args.tightness],
        "seed": range(args.seeds),
    }
    needs_ac = any(rule in NEEDS_AC for rule in rules)
    rows = []
    try:
        for point in itertools.product(*(grid[key] if key in reads else [None] for key in grid)):
            # the gen arguments, with --n as the geqchain length
            params = dict(vars(args), **dict(zip(grid, point)), length=args.n)
            base = build(argparse.Namespace(**params))
            after_ac = _run_stage(base, "ac")[0] if needs_ac else base
            for rule in rules:
                inst = after_ac if rule in NEEDS_AC else base
                records, updates, micros = [], 0, 0
                if not inst.unsatisfiable:
                    _, records, updates, micros = _run_stage(inst, rule)
                rows.append(
                    [args.family, base.n, *point, rule, len(records), updates, micros]
                )
    except ValueError as exc:
        return _fail(str(exc))
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["family", "n", *grid, "rule", "eliminations", "updates", "micros"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# -- parser -------------------------------------------------------------------

def _add_setcover_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--universe", type=int, help="setcover universe size (elements 1..N)")
    parser.add_argument("--sets", help="setcover sets as digit runs, e.g. 12,23,13")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsense",
        description="Satisfiability-preserving value elimination for binary CSPs.",
    )
    sub = parser.add_subparsers(required=True)

    gen = sub.add_parser("gen", help="generate an instance")
    gen.add_argument("family", choices=list(FAMILIES))
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--d", type=int, default=4)
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--tightness", type=float, default=0.5, help=TIGHTNESS_HELP)
    gen.add_argument("--seed", type=int, default=0)
    _add_setcover_arguments(gen)
    gen.add_argument("--length", type=int, default=3, help="geqchain length")
    gen.add_argument("-o", "--out", help="output path (default: stdout)")
    gen.set_defaults(func=cmd_gen)

    red = sub.add_parser("reduce", help="run an elimination pipeline")
    red.add_argument("instance")
    red.add_argument(
        "--rules",
        required=True,
        help="comma-separated pipeline from ac,ns,ss,cns,scss",
    )
    red.add_argument("--out", help="write the reduced instance here")
    red.add_argument("--trace", help="write the elimination trace here")
    red.add_argument("--stats", help="write a one-row stats CSV here")
    red.set_defaults(func=cmd_reduce)

    sol = sub.add_parser("solve", help="brute-force solutions")
    sol.add_argument("instance")
    sol.add_argument("--limit", type=int, help="stop after this many solutions")
    sol.set_defaults(func=cmd_solve)

    ver = sub.add_parser("verify", help="replay and certify a trace")
    ver.add_argument("instance")
    ver.add_argument("trace")
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="run engines over a seed grid")
    ben.add_argument("--family", default="random")
    ben.add_argument("--n", type=int, default=20)
    ben.add_argument("--d", default="4", help="comma-separated domain sizes")
    ben.add_argument("--density", type=float, default=0.3)
    ben.add_argument("--tightness", type=float, default=0.5, help=TIGHTNESS_HELP)
    ben.add_argument("--seeds", type=int, default=5, help="seeds 0..N-1")
    _add_setcover_arguments(ben)
    ben.add_argument(
        "--rules", default="ss", help="comma-separated from ns,ss,cns,scss"
    )
    ben.add_argument("-o", "--out", required=True)
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # an output path that cannot be written is bad input, not a failure
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
