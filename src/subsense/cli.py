"""Command-line front end: generate, reduce, solve, verify, bench.

The families are stated once, in ``FAMILIES``: each name maps to its
builder and to the bench parameters it reads, and ``gen`` and ``bench``
both read that table.  ``reduce`` and ``bench`` run arc consistency and
every engine through ``_run_stage``; ``reduce`` reports a stage whose rule
is settled through ``_settled_stage`` instead, without running it.

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

from . import counters, generators, instance, oracle
from .acns import establish_ac, ns_to_convergence
from .cns import cns_to_convergence
# replay_sequence is imported for perfbench, whose tracing wraps it here
from .oracle import replay_sequence, replay_trace
from .scss import scss_to_convergence
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
# the rules that a stage at its fixpoint leaves nothing to remove, on two or
# more variables: each stronger rule removes every value the weaker ones
# would (with one variable there is no conditioning variable, so ns removes
# values that cns and scss cannot, and a stage settles only its own rule)
SETTLES = {
    "ac": ("ac",),
    "ns": ("ns",),
    "ss": ("ac", "ns", "ss"),
    "cns": ("ac", "ns", "cns"),
    "scss": PIPELINE_RULES,
}
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


def _rules(text: str, allowed, word: str):
    """The names of a comma-separated ``--rules`` list, or the exit code
    when it names none or one outside ``allowed`` (an unknown ``word``)."""
    rules = [rule.strip() for rule in text.split(",") if rule.strip()]
    if not rules:
        return _fail("no rules given")
    for rule in rules:
        if rule not in allowed:
            return _fail(f"unknown {word} {rule!r}")
    return rules


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

def _run_stage(inst, rule, held=None):
    """Run one pipeline stage, handing an engine the pool ``held`` when
    given; returns (reduced, records, updates, micros)."""
    if rule == "ac":
        start = time.perf_counter_ns()
        reduced, trace = establish_ac(inst)
        micros = (time.perf_counter_ns() - start) // 1000
        if trace.steps and held is not None:
            held.clear()
        return reduced, trace.steps, 0, micros
    reduced, trace, report = ENGINES[rule](inst, held=held)
    return reduced, trace.steps, report.updates, report.micros


def _settled_stage(inst, rule, held=None):
    """A stage whose rule has nothing to remove from ``inst``, reported as
    _run_stage would report its run without running it: no records, and
    the charges of its tables, since at the rule's fixpoint no worklist
    starts with an entry.  The pool ``held`` stays as it is."""
    start = time.perf_counter_ns()
    updates = counters.charges(inst, *counters.RULE_TABLES.get(rule, ()))
    return inst, (), updates, (time.perf_counter_ns() - start) // 1000


def run_pipeline(inst, rules):
    """Run the engines in order, repeating the whole pipeline until a full
    pass eliminates nothing (the rules can re-enable one another).

    Arc consistency is prepended when the pipeline contains a rule that
    needs it.  The stages share one pool of counter tables
    (counters.Held): each engine takes the tables it needs from it, builds
    only the rest, and hands back all it kept current.  After a stage that
    eliminated anything the pool holds only that stage's tables, since the
    others went stale; after one that eliminated nothing it holds them
    beside the rest.  An ac stage that removes a value empties it.  The
    charges of a handed table equal those of its build, so ``updates`` is
    the same as with fresh builds.

    A stage whose rule is settled on the current domains is not run: a
    stage that ran to its fixpoint settles its rule and every rule it
    contains (SETTLES), in place of the settled set if it eliminated
    anything, beside it otherwise.  A settled stage reports what its run
    would, no steps and its tables' charges, so the steps, ``updates`` and
    final domains are those of running every stage; the pass that
    eliminates nothing runs no engine.  Where ``ac`` is settled the pool
    names the current instance as arc consistent (Held.arc_consistent), so
    the ns, ss and cns engines skip their scan of their input.
    Returns (reduced, steps, updates, micros, unsatisfiable).
    """
    stages = list(rules)
    if any(rule in NEEDS_AC for rule in stages) and stages[0] != "ac":
        stages.insert(0, "ac")
    settles = SETTLES if inst.n >= 2 else {rule: (rule,) for rule in SETTLES}
    settled: set = set()
    cur = inst
    held = counters.Held()
    steps: list = []
    updates = 0
    micros = 0
    while True:
        eliminated_this_pass = 0
        for rule in stages:
            run = _settled_stage if rule in settled else _run_stage
            # a settled ac vouches for the domains, so no engine rescans them
            held.arc_consistent = cur if "ac" in settled else None
            cur, records, stage_updates, stage_micros = run(cur, rule, held)
            if records:
                settled = set(settles[rule])
            else:
                settled.update(settles[rule])
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
    rules = _rules(args.rules, PIPELINE_RULES, "rule")
    if isinstance(rules, int):
        return rules
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
    for position, rec in enumerate(trace.steps, start=1):
        if rec.step != position:
            print(f"FAIL: step {position} is numbered {rec.step}")
            return 1
    try:
        reduced, _ = replay_trace(inst, trace)
    except ValueError as exc:  # ReplayError is a ValueError
        print(f"FAIL: {exc}")
        return 1
    if trace.final_domains is not None:
        if trace.final_domains != [list(dom) for dom in reduced.domains]:
            print("FAIL: final domains do not match the trace")
            return 1
    searched = sum(rec.witness is None for rec in trace.steps)
    print(
        f"OK: {len(trace.steps)} steps certified"
        f" ({len(trace.steps) - searched} checked from their witness, {searched} by search)"
    )
    return 0


# -- bench --------------------------------------------------------------------

def cmd_bench(args) -> int:
    rules = _rules(args.rules, ENGINES, "bench rule")
    if isinstance(rules, int):
        return rules
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
