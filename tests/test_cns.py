"""Conditioned substitution engine: cover counters, priority modes."""

import pytest

from subsense import (
    CNS,
    NS,
    CnsWitness,
    cns_to_convergence,
    counters,
    establish_ac,
    generators,
    is_arc_consistent,
    make_instance,
    to_json_dict,
)
from subsense.cns import CnsEngine
from subsense.oracle import is_cns, solvable

from conftest import corpus


def test_counter_init_on_figures():
    inst = generators.figure1b()
    t = counters.build_cns(inst)
    # eliminating 0 at x2 conditioned on x1: both compatible x1 values
    # have a cover, and x1 = 2 has exactly one (a = 1)
    assert counters.cell(inst, "uncovered", t.uncovered, (1, 0, 0)) == set()
    assert counters.cell(inst, "nb_covers", t.nb_covers, (1, 0, 0, 2)) == 1
    # nothing is conditioned-substitutable anywhere in figure1a: no live
    # uncovered mask is empty
    fig_a = generators.figure1a()
    assert not CnsEngine(fig_a, ns_priority=True).conditioned_work


def test_cns_requires_arc_consistency():
    inst = make_instance("t", [(0, 1), (0,)], {(0, 1): [(0, 0)]})
    with pytest.raises(ValueError):
        cns_to_convergence(inst)


def test_cns_on_figure1b_removes_exactly_two_values():
    reduced, trace, report = cns_to_convergence(generators.figure1b())
    assert [(r.rule, r.variable, r.value) for r in trace.steps] == [
        (CNS, 1, 0),
        (CNS, 2, 2),
    ]
    assert trace.steps[0].witness == CnsWitness(conditioning=0, covers={1: 2, 2: 1})
    assert reduced.domains == ((0, 1, 2), (1, 2), (0, 1))
    assert report.eliminations == {NS: 0, CNS: 2}
    # the x2-x3 constraint became trivial on the current domains
    obj = to_json_dict(reduced)
    assert [c["scope"] for c in obj["constraints"]] == [[0, 1], [0, 2]]


def test_cns_leaves_figure1a_alone():
    reduced, trace, _ = cns_to_convergence(generators.figure1a())
    assert reduced == generators.figure1a()
    assert trace.steps == []


def test_priority_modes_on_the_two_var_gadget():
    gadget = generators.two_var_cns_vs_ns(4)
    reduced, trace, report = cns_to_convergence(gadget, ns_priority=True)
    assert [(r.rule, r.variable, r.value) for r in trace.steps] == [
        (NS, 1, 1),
        (NS, 1, 2),
        (NS, 1, 3),
        (NS, 0, 1),
        (NS, 0, 2),
    ]
    assert reduced.domains == ((3,), (0,))
    assert report.eliminations == {NS: 5, CNS: 0}

    reduced, trace, report = cns_to_convergence(gadget, ns_priority=False)
    assert [(r.rule, r.variable, r.value) for r in trace.steps] == [(CNS, 1, 0)]
    assert reduced.domains == ((1, 2, 3), (1, 2, 3))
    assert report.eliminations == {NS: 0, CNS: 1}


def test_unconstrained_variables_collapse_by_plain_substitution():
    inst = make_instance("free", [(0, 1), (2, 5)], {})
    reduced, trace, _ = cns_to_convergence(inst)
    assert reduced.domains == ((1,), (5,))
    assert all(r.rule == NS for r in trace.steps)


def test_cns_corpus_invariants():
    for inst in corpus():
        ac, _ = establish_ac(inst)
        if ac.unsatisfiable:
            continue
        reduced, trace, report = cns_to_convergence(ac)
        # conditioned substitution preserves arc consistency
        assert is_arc_consistent(reduced)
        # fixpoint: the direct checker accepts nothing (cns covers ns too)
        for i in range(reduced.n):
            for b in reduced.domains[i]:
                assert is_cns(reduced, i, b) is None
        cur = ac
        before = solvable(cur)
        for rec in trace.steps:
            cur = cur.remove_value(rec.variable, rec.value)
            assert solvable(cur) == before
        assert cur == reduced
        assert sum(report.eliminations.values()) == len(trace.steps)


def test_both_priority_modes_reach_a_fixpoint():
    for seed in range(6):
        inst = generators.random_instance(5, 3, 0.6, 0.5, seed)
        ac, _ = establish_ac(inst)
        if ac.unsatisfiable:
            continue
        for prio in (True, False):
            reduced, _, _ = cns_to_convergence(ac, ns_priority=prio)
            for i in range(reduced.n):
                for b in reduced.domains[i]:
                    assert is_cns(reduced, i, b) is None


def test_cns_debug_recompute_slice(monkeypatch):
    monkeypatch.setenv(counters.DEBUG_ENV, "1")
    for seed in range(4):
        inst = generators.random_instance(5, 3, 0.6, 0.5, seed)
        ac, _ = establish_ac(inst)
        if ac.unsatisfiable:
            continue
        cns_to_convergence(ac)
