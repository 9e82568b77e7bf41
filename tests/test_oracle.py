"""Reference checkers and exhaustive search used to certify the engines.

The values asserted here were derived by hand from the definitions on the
small fixture instances and are frozen so a regression in either the
checkers or the fixtures shows up immediately.
"""

import pytest

from subsense import generators, make_instance
from subsense.oracle import (
    CnsWitness,
    NsWitness,
    SearchSpaceError,
    SsWitness,
    cns_with_conditioning,
    is_cns,
    is_ns,
    is_scss,
    is_ss,
    longest_elimination_sequence,
    preserves_satisfiability,
    scss_conditionings,
    solvable,
    solve,
)


def pair_instance(dom1, dom2, pairs):
    return make_instance("pair", [dom1, dom2], {(0, 1): pairs})


def test_solve_is_lexicographic():
    sols = solve(generators.figure1b())
    assert len(sols) == 9
    assert sols == sorted(sols)
    assert sols[0] == (0, 1, 1)


def test_solve_limit():
    sols = solve(generators.figure1b())
    assert solve(generators.figure1b(), limit=3) == sols[:3]
    for limit in (0, -1):
        with pytest.raises(ValueError):
            solve(generators.figure1b(), limit=limit)


def test_solve_space_cap():
    with pytest.raises(SearchSpaceError):
        solve(generators.figure1a(), space_cap=8)


def test_solve_empty_domain():
    inst = make_instance("empty", [(), (0, 1)], {})
    assert solve(inst) == []
    assert not solvable(inst)


def test_solve_unconstrained_single_variable():
    inst = make_instance("one", [(0, 2)], {})
    assert solve(inst) == [(0,), (2,)]


def deep_singleton_chain(length=3000):
    # one solution, but one search level per variable
    return generators.geq_chain(length).restrict([(2,)] * length)


def test_solve_deep_chain_without_recursion():
    assert solve(deep_singleton_chain()) == [(2,) * 3000]


def test_is_ns_smallest_substitute_wins():
    inst = make_instance("free", [(0, 1, 2), (0, 1)], {})
    assert is_ns(inst, 0, 1) == NsWitness(substitute=0)
    assert is_ns(inst, 0, 0) == NsWitness(substitute=1)


def test_is_ns_on_two_var_gadget():
    inst = generators.two_var_cns_vs_ns(4)
    # b = 1 at x2 is only compatible with x1 = 1; 0 is compatible with all
    assert is_ns(inst, 1, 1) == NsWitness(substitute=0)
    assert is_ns(inst, 1, 0) is None
    assert is_ns(inst, 0, 1) is None


def test_nothing_is_ns_on_the_figures():
    for inst in (generators.figure1a(), generators.figure1b(), generators.figure1c()):
        for i in range(inst.n):
            for b in inst.domains[i]:
                assert is_ns(inst, i, b) is None


def test_is_ss_on_figure1a():
    inst = generators.figure1a()
    w = is_ss(inst, 0, 0)
    assert w == SsWitness(substitute=1, swaps={1: {0: 1}})
    assert is_ss(inst, 0, 1) is None
    # every variable can lose value 0 by snake substitution
    for i in range(4):
        assert is_ss(inst, i, 0) is not None


def test_is_ss_on_figure1b():
    inst = generators.figure1b()
    # only x1's extreme values are snake substitutable (by the middle
    # value, swapping the conflicting support 1 away at each neighbour);
    # x2 and x3 need conditioning
    found = {
        (i, b)
        for i in range(inst.n)
        for b in inst.domains[i]
        if is_ss(inst, i, b) is not None
    }
    assert found == {(0, 0), (0, 2)}
    assert is_ss(inst, 0, 0) == SsWitness(substitute=1, swaps={1: {1: 2}, 2: {1: 0}})


def test_is_cns_on_figure1b():
    inst = generators.figure1b()
    w = is_cns(inst, 1, 0)
    assert w == CnsWitness(conditioning=0, covers={1: 2, 2: 1})
    assert is_cns(inst, 2, 2) is not None
    assert is_cns(inst, 0, 0) is None
    assert is_cns(inst, 0, 0) is None
    assert is_cns(inst, 1, 1) is None


def test_is_cns_vacuous_for_unsupported_value():
    inst = pair_instance((0, 1), (0,), [(0, 0)])
    # value 1 at x1 has no compatible value at x2
    assert is_cns(inst, 0, 1) == CnsWitness(conditioning=1, covers={})


def test_cns_with_conditioning_rejects_self():
    with pytest.raises(ValueError):
        cns_with_conditioning(generators.figure1b(), 1, 0, 1)


def test_checkers_reject_missing_value():
    inst = generators.figure1b().remove_value(1, 0)
    for check in (is_ns, is_ss, is_cns, is_scss):
        with pytest.raises(ValueError):
            check(inst, 1, 0)


def test_is_scss_on_the_figures():
    fig_a = generators.figure1a()
    assert is_scss(fig_a, 2, 0) is not None
    fig_c = generators.figure1c()
    w = is_scss(fig_c, 0, 3)
    assert w is not None
    assert w.conditioning == 1
    # snake substitution implies its conditioned form
    assert is_scss(fig_a, 0, 0) is not None


def test_scss_conditionings_lists_edge_neighbours():
    fig_c = generators.figure1c()
    js = scss_conditionings(fig_c, 0, 3)
    assert js
    assert set(js) <= set(fig_c.neighbors(0))
    assert 1 in js


def test_conditioned_checks_work_on_isolated_variable():
    # x1 is unconstrained, so any conditioning variable serves as the
    # quantifier domain and every value is removable
    inst = make_instance("iso", [(0, 1), (0, 1)], {})
    assert is_cns(inst, 0, 1) is not None
    assert is_scss(inst, 0, 1) is not None


def test_preserves_satisfiability():
    inst = pair_instance((0,), (0, 1), [(0, 0)])
    assert preserves_satisfiability(inst, 1, 1)
    assert not preserves_satisfiability(inst, 1, 0)


def test_eliminations_preserve_satisfiability_on_figures():
    for inst in (generators.figure1a(), generators.figure1b()):
        for i in range(inst.n):
            for b in inst.domains[i]:
                if is_scss(inst, i, b) is not None:
                    assert preserves_satisfiability(inst, i, b)


def test_longest_sequence_on_set_cover():
    inst = generators.set_cover_instance({1, 2, 3}, [[1, 2], [2, 3], [1, 3]])
    assert longest_elimination_sequence(inst, "cns") == 1
    bigger = generators.set_cover_instance(
        {1, 2, 3}, [[1, 2], [2, 3], [1, 3], [1, 2, 3]]
    )
    assert longest_elimination_sequence(bigger, "cns") == 3


def test_longest_sequence_priority_mode():
    inst = generators.two_var_cns_vs_ns(4)
    assert longest_elimination_sequence(inst, "cns_ns_priority") == 5
    assert longest_elimination_sequence(inst, "cns") == 5


def test_longest_sequence_zero_when_nothing_applies():
    inst = pair_instance((0, 1), (0, 1), [(0, 0), (1, 1)])
    assert longest_elimination_sequence(inst, "ns") == 0


def test_longest_sequence_rejects_unknown_rule():
    with pytest.raises(ValueError):
        longest_elimination_sequence(generators.figure1b(), "nope")


def test_longest_sequence_state_cap():
    with pytest.raises(SearchSpaceError):
        longest_elimination_sequence(generators.figure1b(), "cns", state_cap=0)
