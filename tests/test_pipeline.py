"""The skip rule of the reduce pipeline (cli.run_pipeline, cli.SETTLES).

A stage that ran to its fixpoint settles its own rule and every rule it
contains, so a later stage of a settled rule is not run.  These tests state
what that rests on: each engine's output leaves its settled rules nothing
to remove by their definitions (oracle.certify), one variable settles only
the stage's own rule, a settled stage reports exactly what its run would,
and the pass that removes nothing runs no engine.
"""

from __future__ import annotations

import pytest

from subsense import acns, cli, counters, establish_ac, generators, make_instance, oracle
from subsense.acns import is_arc_consistent
from subsense.counters import bit_positions

from conftest import corpus

ORDERS = (
    ("ns", "ss", "cns", "scss"),
    ("scss", "ns", "ss", "cns"),
    ("cns", "ss", "ns"),
    ("ns", "scss"),
    ("ss",),
    ("ss", "cns"),
    ("cns", "scss", "ss"),
    ("ac", "ns", "ss", "cns", "scss"),
)
SPARSE_400 = (400, 4, 6 / 400, 0.85, 3)  # perfbench's pipeline-verify instance


def _live_values(inst):
    for i, live in enumerate(inst.live):
        for p in bit_positions(live):
            yield i, inst.original_domains[i][p]


@pytest.mark.parametrize("rule", cli.PIPELINE_RULES)
def test_a_stage_at_its_fixpoint_leaves_its_settled_rules_nothing_to_remove(rule):
    checked = 0
    for inst in corpus((0, 1)):
        assert inst.n >= 2
        if rule in cli.NEEDS_AC:
            inst, _ = establish_ac(inst)
        if inst.unsatisfiable:
            continue
        out = cli._run_stage(inst, rule)[0]
        if out.unsatisfiable:
            continue
        for settled in cli.SETTLES[rule]:
            for i, b in _live_values(out):
                assert oracle.certify(settled, out, i, b) is None, (inst.name, settled, i, b)
                checked += 1
        if "ac" in cli.SETTLES[rule]:
            assert is_arc_consistent(out), inst.name
    assert checked


def test_one_variable_settles_only_the_stages_own_rule():
    # with no second variable there is no conditioning variable: scss
    # removes nothing, yet ns removes all but one value
    inst = make_instance("one", [[0, 1, 2]], {})
    assert not cli.ENGINES["scss"](inst)[1].steps
    reduced, steps, _, _, unsat = cli.run_pipeline(inst, ("scss", "ns"))
    assert [(rec.rule, rec.variable) for rec in steps] == [("ns", 0), ("ns", 0)]
    assert len(reduced.domains[0]) == 1 and not unsat


def _inputs():
    yield from (generators.figure1a(), generators.figure1b(), generators.figure1c())
    yield generators.geq_chain(60)
    yield generators.two_var_cns_vs_ns(30)
    yield generators.set_cover_instance(
        range(1, 7), ([1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1], [1, 3, 5], [2, 4, 6])
    )
    yield from corpus((0,))


def test_a_settled_stage_reports_what_its_run_would(monkeypatch):
    # every settled stage is run anyway, without the pool: it must remove
    # nothing and report exactly the charges the pipeline counts for it
    settled_stage = cli._settled_stage
    skipped = []

    def run_anyway(inst, rule, held=None):
        pool = dict(held)
        out = settled_stage(inst, rule, held)
        assert dict(held) == pool
        reduced, records, updates, _ = cli._run_stage(inst, rule)
        assert not records and reduced.domains == inst.domains, rule
        assert out[:3] == (inst, (), updates), rule
        skipped.append(rule)
        return out

    monkeypatch.setattr(cli, "_settled_stage", run_anyway)
    for inst in _inputs():
        for rules in ORDERS:
            cli.run_pipeline(inst, rules)
    assert set(skipped) == set(cli.PIPELINE_RULES)


def _events(monkeypatch, inst, rules):
    """The pipeline ``rules`` on ``inst`` as a log: "stage" for each stage,
    run or settled, and "engine" for each call of an engine."""
    log = []
    for rule in cli.ENGINES:
        def engine(cur, *, held=None, _engine=cli.ENGINES[rule]):
            log.append("engine")
            return _engine(cur, held=held)
        monkeypatch.setitem(cli.ENGINES, rule, engine)
    for name in ("_run_stage", "_settled_stage"):
        def stage(cur, rule, held=None, _stage=getattr(cli, name)):
            log.append("stage")
            return _stage(cur, rule, held)
        monkeypatch.setattr(cli, name, stage)
    cli.run_pipeline(inst, rules)
    return log


@pytest.mark.parametrize("make", [
    generators.figure1b,
    lambda: generators.random_instance(*SPARSE_400),
], ids=["figure1b", "sparse-n400"])
def test_the_pass_that_removes_nothing_runs_no_engine(monkeypatch, make):
    # the recheck of every table after each elimination is too slow on n=400
    monkeypatch.setenv(counters.DEBUG_ENV, "")
    log = _events(monkeypatch, make(), ("ns", "ss", "cns", "scss"))
    # the last five stages (ac and the four engines) are the last pass
    last_pass = [t for t, event in enumerate(log) if event == "stage"][-5]
    assert "engine" in log[:last_pass] and "engine" not in log[last_pass:]
    assert log.count("stage") > 5


def _scans(monkeypatch, debug):
    """Over every order on every input: the ns, ss and cns runs that the
    pipeline makes with ``ac`` settled and with it not, and the scans for
    arc consistency that those runs make."""
    monkeypatch.setenv(counters.DEBUG_ENV, debug)
    runs = {True: 0, False: 0}
    scans = []
    for rule in cli.NEEDS_AC:
        def engine(cur, *, held=None, _engine=cli.ENGINES[rule]):
            runs[held.arc_consistent is cur] += 1
            return _engine(cur, held=held)
        monkeypatch.setitem(cli.ENGINES, rule, engine)
    scan = acns.is_arc_consistent
    monkeypatch.setattr(acns, "is_arc_consistent", lambda inst: scans.append(inst) or scan(inst))
    for inst in (generators.figure1a(), generators.figure1b(), *corpus((0,))):
        for rules in ORDERS:
            cli.run_pipeline(inst, rules)
    return runs, len(scans)


def test_a_settled_ac_spares_the_engines_their_scan(monkeypatch):
    runs, scans = _scans(monkeypatch, "")
    assert runs[True] and runs[False]
    assert scans == runs[False]


def test_the_scan_runs_on_every_engine_run_under_the_debug_switch(monkeypatch):
    runs, scans = _scans(monkeypatch, "1")
    assert scans == runs[True] + runs[False]


def test_library_callers_keep_the_scan(monkeypatch):
    monkeypatch.setenv(counters.DEBUG_ENV, "")
    scans = []
    scan = acns.is_arc_consistent
    monkeypatch.setattr(acns, "is_arc_consistent", lambda inst: scans.append(inst) or scan(inst))
    inst, _ = establish_ac(generators.figure1b())

    def pool(vouched=None):
        held = counters.Held()
        held.arc_consistent = vouched
        return held

    for run in (cli.ENGINES["ns"], cli.ENGINES["ss"], cli.ENGINES["cns"]):
        run(inst)
        run(inst, held=pool())
        run(inst, held=pool(generators.figure1b()))
        run(inst, held=pool(inst))
    assert scans == [inst] * 9
    # an instance that is not arc consistent is still refused
    chain = generators.geq_chain(5).remove_value(0, 2)
    assert not scan(chain)
    with pytest.raises(ValueError, match="needs an arc-consistent instance"):
        cli.ENGINES["ns"](chain, held=pool(inst))


def _charge_calls(monkeypatch):
    """Log each call of a charge function as (function, live masks)."""
    calls = []
    wrapped = {}
    for name, entry in counters.TABLES.items():
        charge = entry.charge
        if charge not in wrapped:
            def logged(inst, _charge=charge):
                calls.append((_charge, tuple(inst.live)))
                return _charge(inst)
            wrapped[charge] = logged
        monkeypatch.setitem(counters.TABLES, name, entry._replace(charge=wrapped[charge]))
    return calls


@pytest.mark.parametrize("make", [
    generators.figure1b,
    lambda: generators.random_instance(*SPARSE_400),
], ids=["figure1b", "sparse-n400"])
def test_the_pipeline_charges_each_domain_state_once(monkeypatch, make):
    # within a pipeline each charge function runs once per domain state, its
    # value kept in the pool; a library caller with no pool charges afresh
    monkeypatch.setenv(counters.DEBUG_ENV, "")
    inst = make()
    calls = _charge_calls(monkeypatch)
    cli.run_pipeline(inst, ("ns", "ss", "cns", "scss"))
    assert calls and len(calls) == len(set(calls))
    del calls[:]
    counters.charges(inst, "nb_blocks")
    counters.charges(inst, "nb_blocks")
    assert calls == [(counters.charge_pairs, inst.live)] * 2


def test_a_pool_charges_what_a_fresh_count_gives():
    # one pool asked on a chain of domain states, each rule's tables in turn:
    # every sum is the one charges() gives on those domains
    held = counters.Held()
    for inst in (generators.figure1c(), *corpus((0,))):
        cur = inst
        for i, b in list(_live_values(inst))[:4]:
            for names in counters.RULE_TABLES.values():
                assert held.charges(cur, *names) == counters.charges(cur, *names)
            cur = cur.remove_value(i, b)


@pytest.mark.parametrize("rules", [("ac", "ns", "ss", "cns", "scss"), ("scss", "ns", "ss", "cns")])
def test_the_pipeline_numbers_the_stages_own_records(monkeypatch, rules):
    # the steps are the records each stage returned, in order and
    # renumbered 1..N in place, with none copied; the second order skips
    # settled stages in its first pass
    returned = []
    run_stage = cli._run_stage

    def stage(inst, rule, held=None):
        out = run_stage(inst, rule, held)
        returned.extend((rec, rec.step) for rec in out[1])
        return out

    monkeypatch.setattr(cli, "_run_stage", stage)
    steps = cli.run_pipeline(generators.figure1c(), rules)[1]
    assert steps and len(steps) == len(returned)
    assert all(rec is own for rec, (own, _) in zip(steps, returned))
    assert [rec.step for rec in steps] == list(range(1, len(steps) + 1))
    # the first order's scss stage numbered its records from 1, after six
    # cns steps; the second order's scss stage removes all twelve values
    renumbered = [rec.step != step for rec, (_, step) in zip(steps, returned)]
    assert any(renumbered) == (rules[0] == "ac")
