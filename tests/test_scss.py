"""Snake-conditioned substitution engine, the direct checker, and replay."""

import pytest

from subsense import (
    CNS,
    NS,
    SCSS,
    SS,
    ReplayError,
    check_scss,
    cns_to_convergence,
    counters,
    establish_ac,
    generators,
    make_instance,
    ns_to_convergence,
    replay_sequence,
    scss_to_convergence,
    ss_to_convergence,
)
from subsense.oracle import is_scss, replay_trace, solvable, solve

from conftest import corpus
from reference import scss_conditionings


def oracle_triples(inst):
    return sorted(
        (i, b, j)
        for i in range(inst.n)
        for b in inst.domains[i]
        for j in scss_conditionings(inst, i, b)
    )


def test_check_scss_on_the_figures():
    fig_c = generators.figure1c()
    triples = check_scss(fig_c)
    assert (0, 3, 1) in triples
    assert triples == oracle_triples(fig_c)
    fig_a = generators.figure1a()
    assert check_scss(fig_a) == oracle_triples(fig_a)
    assert check_scss(fig_a)


def test_check_scss_on_two_var_equality():
    # with only two variables the snake conditions are vacuous, so every
    # value is eliminable conditioned on the other variable
    inst = make_instance("eq", [(0, 1), (0, 1)], {(0, 1): [(0, 0), (1, 1)]})
    triples = check_scss(inst)
    assert triples == oracle_triples(inst)
    assert triples == [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]


def test_scss_removes_nothing_from_a_lone_variable():
    # the other rules keep one value; scss needs a second variable to condition on
    one = make_instance("one", [(0, 1, 2)], {})
    for engine in (ns_to_convergence, ss_to_convergence, cns_to_convergence):
        assert engine(one)[0].domains == ((2,),)
    assert scss_to_convergence(one)[0].domains == ((0, 1, 2),)
    assert [is_scss(one, 0, b) for b in (0, 1, 2)] == [None, None, None]
    assert check_scss(one) == []


def test_check_scss_lists_only_conditioning_by_a_neighbour():
    # an unconstrained variable may be conditioned on any other variable,
    # which the oracle and the engine do but check_scss does not list
    two = make_instance("two", [(0, 1), (0, 1)], {})
    assert check_scss(two) == []
    witness = is_scss(two, 0, 0)
    assert witness is not None and witness.conditioning == 1
    assert scss_to_convergence(two)[0].domains == ((1,), (1,))


def test_check_scss_does_not_mutate():
    inst = generators.figure1c()
    check_scss(inst)
    assert inst == generators.figure1c()


def test_scss_reduces_each_figure_to_a_solution():
    for inst in (generators.figure1a(), generators.figure1b(), generators.figure1c()):
        reduced, trace, report = scss_to_convergence(inst)
        assert all(len(dom) == 1 for dom in reduced.domains)
        survivor = tuple(dom[0] for dom in reduced.domains)
        assert survivor in set(solve(inst))
        assert report.eliminations == {SCSS: len(trace.steps)}
        assert not report.unsatisfiable


def test_scss_engine_is_deterministic_on_figure1c():
    reduced, trace, _ = scss_to_convergence(generators.figure1c())
    assert reduced.domains == ((1,), (0,), (3,), (0,))
    assert len(trace.steps) == 12
    again, trace2, _ = scss_to_convergence(generators.figure1c())
    assert again == reduced
    assert [(r.variable, r.value) for r in trace2.steps] == [
        (r.variable, r.value) for r in trace.steps
    ]


def test_scss_handles_arc_inconsistent_input_directly():
    inst = make_instance("bad", [(0, 1), (0,)], {(0, 1): [(0, 0)]})
    reduced, trace, _ = scss_to_convergence(inst)
    assert reduced.domains == ((0,), (0,))
    assert [(r.rule, r.variable, r.value) for r in trace.steps] == [(SCSS, 0, 1)]


def test_scss_reduces_isolated_variables():
    inst = make_instance(
        "iso", [(0, 1), (0, 1), (0, 1, 2)], {(0, 1): [(0, 0), (1, 1)]}
    )
    reduced, _, _ = scss_to_convergence(inst)
    assert reduced.domains == ((1,), (1,), (2,))


def test_scss_leaves_single_variable_instances_alone():
    # the rule quantifies over a conditioning variable, so nothing applies,
    # while plain substitution still collapses the domain
    inst = make_instance("one", [(0, 2)], {})
    reduced, trace, _ = scss_to_convergence(inst)
    assert reduced == inst and trace.steps == []
    assert is_scss(inst, 0, 0) is None
    collapsed, _, _ = ns_to_convergence(inst)
    assert collapsed.domains == ((2,),)


def test_scss_flags_wipeout():
    inst = generators.random_instance(3, 2, 1.0, 0.0, 0)
    reduced, _, report = scss_to_convergence(inst)
    assert reduced.unsatisfiable
    assert report.unsatisfiable


def test_scss_corpus_invariants():
    for inst in corpus():
        reduced, trace, _ = scss_to_convergence(inst)
        if reduced.unsatisfiable:
            assert not solvable(inst)
            continue
        for i in range(reduced.n):
            for b in reduced.domains[i]:
                assert is_scss(reduced, i, b) is None
        cur = inst
        before = solvable(cur)
        for rec in trace.steps:
            cur = cur.remove_value(rec.variable, rec.value)
            assert solvable(cur) == before
        assert cur == reduced


def test_scss_debug_recompute_slice(monkeypatch):
    monkeypatch.setenv(counters.DEBUG_ENV, "1")
    for seed in range(4):
        inst = generators.random_instance(5, 3, 0.6, 0.5, seed)
        scss_to_convergence(inst)


def test_replay_certifies_engine_traces():
    for inst in (generators.figure1a(), generators.figure1c()):
        _, trace, _ = scss_to_convergence(inst)
        steps = [(r.variable, r.value) for r in trace.steps]
        rules = [r.rule for r in trace.steps]
        reduced, certified = replay_sequence(inst, steps, rules)
        assert reduced.domains == scss_to_convergence(inst)[0].domains
        assert len(certified.steps) == len(steps)
        assert all(r.witness is not None for r in certified.steps)


def test_replay_twelve_step_hand_order_on_figure1c():
    order = [
        (0, 3),
        (0, 0),
        (2, 0),
        (2, 1),
        (2, 2),
        (1, 0),
        (1, 1),
        (1, 2),
        (3, 1),
        (3, 2),
        (3, 3),
        (0, 2),
    ]
    reduced, certified = replay_sequence(generators.figure1c(), order)
    assert reduced.domains == ((1,), (3,), (3,), (0,))
    assert len(certified.steps) == 12


def test_replay_empty_sequence_is_identity():
    inst = generators.figure1b()
    reduced, certified = replay_sequence(inst, [])
    assert reduced == inst
    assert certified.steps == []


def test_replay_rejects_unjustified_step():
    with pytest.raises(ReplayError):
        replay_sequence(generators.figure1a(), [(0, 0)], [NS])
    # value 2 of x1 is not eliminable before the rest of figure1c goes
    with pytest.raises(ReplayError):
        replay_sequence(generators.figure1c(), [(0, 2)])


def test_replay_rejects_missing_value():
    with pytest.raises(ReplayError):
        replay_sequence(generators.figure1a(), [(0, 0), (0, 0)], [SCSS, SCSS])
    with pytest.raises(ReplayError):
        replay_sequence(generators.figure1a(), [(0, 5)])


@pytest.mark.parametrize("rule", [NS, SS])
def test_replay_rejects_a_third_element_on_ns_and_ss_steps(rule):
    # x1 = 0 is plainly substitutable by 1 on this two-variable instance
    inst = make_instance("two", [(0, 1), (0, 1)], {(0, 1): [(0, 0), (1, 0), (1, 1)]})
    reduced, _ = replay_sequence(inst, [(0, 0)], [rule])
    assert reduced.domains == ((1,), (0, 1))
    for step in ((0, 0, 0), (0, 0, 1), (0, 0, 5)):
        with pytest.raises(ReplayError, match="takes no third element"):
            replay_sequence(inst, [step], [rule])
    # the records of an engine's trace never give ns or ss one
    reduced, trace, _ = ss_to_convergence(generators.figure1a())
    assert {NS, SS} & {rec.rule for rec in trace.steps}
    assert replay_trace(generators.figure1a(), trace)[0] == reduced


@pytest.mark.parametrize("rule", [CNS, SCSS])
def test_replay_rejects_a_step_conditioned_on_its_own_variable(rule):
    inst = generators.figure1b()
    with pytest.raises(ReplayError, match=r"^step 1 .*must differ from the target"):
        replay_sequence(inst, [(1, 0, 1)], [rule])


def test_replay_validates_arguments():
    inst = generators.figure1a()
    with pytest.raises(ValueError):
        replay_sequence(inst, [(0, 0)], [SCSS, SCSS])  # length mismatch
    with pytest.raises(ValueError):
        replay_sequence(inst, [(0, 0, 0, 0)])  # wrong arity
    with pytest.raises(ValueError):
        replay_sequence(inst, [(0, 0)], ["nope"])  # unknown rule
