"""Acceptance suite: thirteen end-to-end criteria, one test per criterion.

Each test prints one `criterion NN: PASS/FAIL - detail` line (run pytest
with -s to see them alongside the verdicts) and then asserts.  The corpus
criteria (4, 5, 6, 9) share one set of engine runs over 1080 seeded random
instances.
"""

import itertools
import json
import math
import statistics
import time

import pytest

from subsense import (
    check_scss,
    cli,
    cns_to_convergence,
    counters,
    establish_ac,
    generators,
    is_arc_consistent,
    load_file,
    load_trace,
    ns_to_convergence,
    scss_to_convergence,
    ss_to_convergence,
)
from subsense.oracle import (
    is_cns,
    is_ns,
    is_scss,
    is_ss,
    longest_elimination_sequence,
    solvable,
    solve,
)

from conftest import corpus, corpus_size
from reference import scss_conditionings

CORPUS_SEEDS = tuple(range(8))


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def corpus_runs():
    """AC reduction plus all four engine runs for every corpus instance."""
    start = time.perf_counter()
    runs = []
    for inst in corpus(seeds=CORPUS_SEEDS):
        ac, ac_trace = establish_ac(inst)
        engines = {"scss": scss_to_convergence(inst)}
        if not ac.unsatisfiable:
            engines["ns"] = ns_to_convergence(ac)
            engines["ss"] = ss_to_convergence(ac)
            engines["cns"] = cns_to_convergence(ac)
        runs.append(
            {"inst": inst, "ac": ac, "ac_trace": ac_trace, "engines": engines}
        )
    return {"runs": runs, "build_seconds": time.perf_counter() - start}


def test_criterion_01(tmp_path, capsys):
    start = time.perf_counter()
    inst_path = tmp_path / "a.json"
    out_path = tmp_path / "red.json"
    assert cli.main(["gen", "figure1a", "-o", str(inst_path)]) == 0
    rc = cli.main(["reduce", str(inst_path), "--rules", "ss", "--out", str(out_path)])
    reduced = load_file(out_path)
    ns_out = tmp_path / "ns.json"
    rc_ns = cli.main(["reduce", str(inst_path), "--rules", "ns", "--out", str(ns_out)])
    untouched = load_file(ns_out)
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    ok = (
        rc == 0
        and reduced.domains == ((1,), (1,), (1,), (1,))
        and all(0 not in dom for dom in reduced.domains)
        and rc_ns == 0
        and untouched.domains == generators.figure1a().domains
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, ok, f"ss reduced figure1a to {reduced.domains}, ns removed "
                      f"nothing, {elapsed:.3f}s")
    assert ok


def test_criterion_02(tmp_path, capsys):
    start = time.perf_counter()
    inst_path = tmp_path / "b.json"
    cns_out = tmp_path / "cns.json"
    trace_path = tmp_path / "tr.json"
    cli.main(["gen", "figure1b", "-o", str(inst_path)])
    rc = cli.main(["reduce", str(inst_path), "--rules", "cns",
                   "--out", str(cns_out), "--trace", str(trace_path)])
    removed = [(r.variable, r.value) for r in load_trace(trace_path).steps]
    ss_out = tmp_path / "ss.json"
    rc_ss = cli.main(["reduce", str(cns_out), "--rules", "ss", "--out", str(ss_out)])
    final = load_file(ss_out)
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    ok = (
        rc == 0
        and removed == [(1, 0), (2, 2)]
        and rc_ss == 0
        and all(len(dom) == 1 for dom in final.domains)
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(2, ok, f"cns removed exactly {removed}; follow-up ss left "
                      f"{final.domains}, {elapsed:.3f}s")
    assert ok


def test_criterion_03(tmp_path, capsys):
    start = time.perf_counter()
    inst_path = tmp_path / "c.json"
    out_path = tmp_path / "red.json"
    cli.main(["gen", "figure1c", "-o", str(inst_path)])
    rc = cli.main(["reduce", str(inst_path), "--rules", "scss", "--out", str(out_path)])
    reduced = load_file(out_path)
    singleton = all(len(dom) == 1 for dom in reduced.domains)
    survivor = tuple(dom[0] for dom in reduced.domains) if singleton else None
    is_solution = survivor in set(solve(generators.figure1c()))

    # the hand elimination order from the construction notes, written as a
    # bare trace (no witnesses: each step is re-certified from scratch)
    order = [(0, 3), (0, 0), (2, 0), (2, 1), (2, 2), (1, 0), (1, 1), (1, 2),
             (3, 1), (3, 2), (3, 3), (0, 2)]
    hand_trace = tmp_path / "hand.json"
    hand_trace.write_text(json.dumps({
        "instance": "figure1c",
        "steps": [
            {"step": pos + 1, "rule": "scss", "variable": i, "value": b}
            for pos, (i, b) in enumerate(order)
        ],
    }))
    rc_verify = cli.main(["verify", str(inst_path), str(hand_trace)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    ok = (
        rc == 0
        and singleton
        and is_solution
        and rc_verify == 0
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(3, ok, f"scss left {reduced.domains} (solution {survivor}); "
                      f"hand order of {len(order)} steps certified, {elapsed:.3f}s")
    assert ok


def test_criterion_04(corpus_runs, capsys):
    start = time.perf_counter()
    violations = 0
    eliminations = 0
    for entry in corpus_runs["runs"]:
        chains = [(entry["inst"], entry["ac_trace"].steps)]
        for rule, run in entry["engines"].items():
            base = entry["inst"] if rule == "scss" else entry["ac"]
            chains.append((base, run[1].steps))
        for base, steps in chains:
            cur = base
            before = solvable(cur)
            for rec in steps:
                cur = cur.remove_value(rec.variable, rec.value)
                eliminations += 1
                if solvable(cur) != before:
                    violations += 1
    elapsed = corpus_runs["build_seconds"] + (time.perf_counter() - start)
    size = len(corpus_runs["runs"])

    ok = size >= 1000 and violations == 0 and elapsed < 300.0
    with capsys.disabled():
        report(4, ok, f"{eliminations} eliminations over {size} instances, "
                      f"{violations} solvability violations, {elapsed:.1f}s")
    assert ok


def test_criterion_05(corpus_runs, capsys):
    checkers = {"ns": is_ns, "ss": is_ss, "cns": is_cns, "scss": is_scss}
    fixpoint_violations = 0
    set_mismatches = 0
    for entry in corpus_runs["runs"]:
        for rule, run in entry["engines"].items():
            reduced = run[0]
            if reduced.unsatisfiable:
                if solvable(entry["inst"]):
                    fixpoint_violations += 1
                continue
            check = checkers[rule]
            for i in range(reduced.n):
                for b in reduced.domains[i]:
                    if check(reduced, i, b) is not None:
                        fixpoint_violations += 1
        inst = entry["inst"]
        oracle_set = sorted(
            (i, b, j)
            for i in range(inst.n)
            for b in inst.domains[i]
            for j in scss_conditionings(inst, i, b)
        )
        if check_scss(inst) != oracle_set:
            set_mismatches += 1

    ok = fixpoint_violations == 0 and set_mismatches == 0
    with capsys.disabled():
        report(5, ok, f"{fixpoint_violations} fixpoint violations, "
                      f"{set_mismatches} check_scss mismatches over "
                      f"{len(corpus_runs['runs'])} instances")
    assert ok


def test_criterion_06(corpus_runs, capsys):
    violations = 0
    values = 0
    for entry in corpus_runs["runs"]:
        inst = entry["inst"]
        if inst.n < 2:
            continue
        for i in range(inst.n):
            for b in inst.domains[i]:
                values += 1
                ns = is_ns(inst, i, b) is not None
                ss = is_ss(inst, i, b) is not None
                cns = is_cns(inst, i, b) is not None
                scss = is_scss(inst, i, b) is not None
                if ns and not (ss and cns):
                    violations += 1
                if (ss or cns) and not scss:
                    violations += 1

    ok = violations == 0
    with capsys.disabled():
        report(6, ok, f"{violations} subsumption violations over {values} values")
    assert ok


def test_criterion_07(monkeypatch, capsys):
    monkeypatch.setenv(counters.DEBUG_ENV, "1")
    assert counters.debug_recompute_enabled()
    full = 0
    eliminations = 0
    for n in (2, 3, 4, 5, 6):
        for d in (3, 4):
            for density in (0.4, 0.8):
                for tightness in (0.5, 0.7, 0.9):
                    for seed in (0, 1):
                        inst = generators.random_instance(
                            n, d, density, tightness, seed
                        )
                        # every elimination below re-derives all tables from
                        # scratch and raises CounterMismatch on divergence
                        _, trace, _ = scss_to_convergence(inst)
                        eliminations += len(trace.steps)
                        ac, _ = establish_ac(inst)
                        if ac.unsatisfiable:
                            continue
                        _, trace, _ = ss_to_convergence(ac)
                        eliminations += len(trace.steps)
                        _, trace, _ = cns_to_convergence(ac)
                        eliminations += len(trace.steps)
                        full += 1

    ok = full >= 100
    with capsys.disabled():
        report(7, ok, f"{full} instances through all three engines, "
                      f"{eliminations} verified eliminations, no mismatches")
    assert ok


def test_criterion_08(capsys):
    medians = {}
    wiped = {}
    for rule, engine in (("ss", ss_to_convergence), ("cns", cns_to_convergence)):
        for d in (4, 8, 16):
            counts = []
            dead = 0
            for seed in range(20):
                inst = generators.random_instance(20, d, 0.3, 0.5, seed)
                ac, _ = establish_ac(inst)
                if ac.unsatisfiable:
                    counts.append(0)
                    dead += 1
                else:
                    counts.append(engine(ac)[2].updates)
            medians[(rule, d)] = statistics.median(counts)
            wiped[d] = dead
    ratios = {}
    for rule in ("ss", "cns"):
        for lo, hi in ((4, 8), (8, 16)):
            m_lo = medians[(rule, lo)]
            ratios[(rule, lo, hi)] = medians[(rule, hi)] / m_lo if m_lo else math.inf

    ok = all(r <= 10.0 for r in ratios.values())
    shown = ", ".join(
        f"{rule} {lo}->{hi}: {val:.2f}" for (rule, lo, hi), val in ratios.items()
    )
    with capsys.disabled():
        report(8, ok, f"update-count growth per doubling [{shown}]; "
                      f"AC wiped {wiped[4]}/20 seeds at d=4, {wiped[8]}/20 at "
                      f"d=8, {wiped[16]}/20 at d=16")
    assert ok, (
        "the stated parameters are degenerate at d=4: arc consistency wipes "
        "every seed (0 survivors in 2000), so the d=4 median update count is 0 "
        "and the 4->8 growth factor is unbounded; the 8->16 doubling satisfies "
        "the envelope (see the construction notes for the full analysis)"
    )


def test_criterion_09(corpus_runs, capsys):
    violations = 0
    checked = 0
    for entry in corpus_runs["runs"]:
        for rule in ("cns", "ss"):
            if rule not in entry["engines"]:
                continue
            reduced = entry["engines"][rule][0]
            checked += 1
            if not is_arc_consistent(reduced):
                violations += 1

    ok = violations == 0 and checked > 0
    with capsys.disabled():
        report(9, ok, f"{violations} arc-consistency violations over "
                      f"{checked} cns/ss outputs")
    assert ok


def brute_force_min_cover(universe, sets):
    for k in range(1, len(sets) + 1):
        for combo in itertools.combinations(sets, k):
            if frozenset().union(*combo) == universe:
                return k
    raise AssertionError("the sets do not cover the universe")


def test_criterion_10(capsys):
    start = time.perf_counter()
    checked = 0
    mismatches = 0
    for u in range(1, 5):
        universe = frozenset(range(1, u + 1))
        subsets = [
            frozenset(c)
            for r in range(1, u + 1)
            for c in itertools.combinations(sorted(universe), r)
        ]
        for m in range(1, 5):
            for combo in itertools.combinations(subsets, m):
                if frozenset().union(*combo) != universe:
                    continue
                inst = generators.set_cover_instance(
                    universe, [sorted(s) for s in combo]
                )
                # the equality triangle pins the universe variables whatever
                # happens to D(x1), so the unrestricted search below is the
                # D(x1)-restricted one; spot-assert that nothing else moves
                assert all(
                    is_cns(inst, var, val) is None
                    for var in range(1, 4)
                    for val in inst.domains[var]
                )
                expected = m - brute_force_min_cover(universe, combo)
                if longest_elimination_sequence(inst, "cns") != expected:
                    mismatches += 1
                checked += 1
    elapsed = time.perf_counter() - start

    ok = mismatches == 0 and elapsed < 60.0
    with capsys.disabled():
        report(10, ok, f"{checked} set-cover instances, {mismatches} length "
                       f"mismatches, {elapsed:.1f}s")
    assert ok


def test_criterion_11(capsys):
    gadget = generators.two_var_cns_vs_ns(4)
    _, cns_first, _ = cns_to_convergence(gadget, ns_priority=False)
    _, ns_priority, _ = cns_to_convergence(gadget, ns_priority=True)

    ok = len(cns_first.steps) == 1 and len(ns_priority.steps) == 5
    with capsys.disabled():
        report(11, ok, f"cns-first eliminated {len(cns_first.steps)}, "
                       f"ns-priority eliminated {len(ns_priority.steps)}")
    assert ok


def test_criterion_12(capsys):
    untouched_ok = True
    for k in (3, 5, 8):
        chain = generators.geq_chain(k)
        for engine in (ns_to_convergence, ss_to_convergence,
                       cns_to_convergence, scss_to_convergence):
            if engine(chain)[1].steps:
                untouched_ok = False

    propagation_ok = True
    for k in (3, 5, 8):
        for end in (0, k - 1):
            seeded = generators.geq_chain(k).remove_value(end, 2)
            ac, _ = establish_ac(seeded)
            reduced, _, _ = ss_to_convergence(ac)
            if any(2 in reduced.domain_set(i) for i in range(k)):
                propagation_ok = False
            via_scss, _, _ = scss_to_convergence(seeded)
            if any(2 in via_scss.domain_set(i) for i in range(k)):
                propagation_ok = False

    ok = untouched_ok and propagation_ok
    with capsys.disabled():
        report(12, ok, f"untouched chains inert: {untouched_ok}; seeded value 2 "
                       f"fully propagated from either end: {propagation_ok}")
    assert ok


# Criterion 13 grid: two families, each doubled on one axis.  It was fixed
# before any ratio was looked at, by a seed scan that checked only that
# establish_ac leaves every instance standing: seed 0 stands at every point.
# The d axis uses tightness 0.7, the lowest of 0.5/0.6/0.7/0.85 at which AC
# leaves nearly every d=4 seed standing (29 of 30).
COMPLEXITY_N_AXIS = [(n, 4, 6 / n, 0.85, 0) for n in (100, 200, 400, 800)]
COMPLEXITY_D_AXIS = [(20, d, 0.3, 0.7, 0) for d in (4, 8, 16, 32)]
# C per engine: the measured maximum of updates / (e*d^3) over the grid
# (ns 2.00, ss 4.91, cns 4.13, scss 7.24), times 1.25, rounded up
COMPLEXITY_C = {"ns": 2.5, "ss": 6.2, "cns": 5.2, "scss": 9.1}
# the ratio may grow by at most this factor per doubling of n or of d; the
# measured worst is 1.24 (ns, d 4->8), and a rule whose work grew one power
# of n or d faster than e*d^3 would double it
COMPLEXITY_GROWTH = 1.5


def test_criterion_13(capsys):
    engines = {"ns": ns_to_convergence, "ss": ss_to_convergence,
               "cns": cns_to_convergence, "scss": scss_to_convergence}
    ratios = {}
    for shape in COMPLEXITY_N_AXIS + COMPLEXITY_D_AXIS:
        inst = generators.random_instance(*shape)
        ac, _ = establish_ac(inst)
        assert not ac.unsatisfiable, f"{inst.name}: the grid must survive AC"
        scale = inst.e * max(map(len, inst.domains)) ** 3
        for rule, engine in engines.items():
            # scss needs no arc-consistent input, as in the corpus runs
            updates = engine(inst if rule == "scss" else ac)[2].updates
            ratios[(rule, shape)] = updates / scale

    over = [
        f"{rule} {shape[:2]}: {ratio:.2f} > {COMPLEXITY_C[rule]}"
        for (rule, shape), ratio in ratios.items()
        if ratio > COMPLEXITY_C[rule]
    ]
    worst = {}
    for rule in engines:
        for axis in (COMPLEXITY_N_AXIS, COMPLEXITY_D_AXIS):
            for lo, hi in zip(axis, axis[1:]):
                growth = ratios[(rule, hi)] / ratios[(rule, lo)]
                worst[rule] = max(worst.get(rule, 0.0), growth)
                if growth > COMPLEXITY_GROWTH:
                    over.append(f"{rule} {lo[:2]}->{hi[:2]}: grew {growth:.2f}x")

    ok = not over
    shown = ", ".join(
        f"{rule} max {max(r for (ru, _), r in ratios.items() if ru == rule):.2f} "
        f"(C {COMPLEXITY_C[rule]}, worst doubling {worst[rule]:.2f}x)"
        for rule in engines
    )
    with capsys.disabled():
        report(13, ok, f"updates/(e*d^3) over {len(ratios) // len(engines)} "
                       f"instances [{shown}]")
    assert ok, "; ".join(over)
