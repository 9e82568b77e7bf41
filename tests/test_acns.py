"""Arc consistency and plain neighbourhood substitution to convergence."""

import pytest

from subsense import (
    AC,
    NS,
    AcWitness,
    NsWitness,
    establish_ac,
    generators,
    is_arc_consistent,
    make_instance,
    ns_to_convergence,
)
from subsense.acns import require_arc_consistent
from subsense.oracle import is_ns, solvable

import reference
from conftest import corpus
from test_counters import _partly_reduced
from test_golden_traces import SET_COVER_SETS


def brute_force_ac(inst):
    """Independent fixpoint: repeatedly drop values without a live support."""
    domains = [list(d) for d in inst.domains]
    changed = True
    while changed:
        changed = False
        for i in range(inst.n):
            for j in inst.neighbors(i):
                row = inst.rows[(i, j)]
                keep = [a for a in domains[i] if any(c in row[a] for c in domains[j])]
                if len(keep) != len(domains[i]):
                    domains[i] = keep
                    changed = True
    return domains


def test_figures_are_arc_consistent():
    for inst in (generators.figure1a(), generators.figure1b(), generators.figure1c()):
        assert is_arc_consistent(inst)
        reduced, trace = establish_ac(inst)
        assert reduced == inst
        assert trace.steps == []


def test_establish_ac_removes_unsupported_value():
    inst = make_instance("t", [(0,), (0, 1)], {(0, 1): [(0, 0)]})
    reduced, trace = establish_ac(inst)
    assert reduced.domains == ((0,), (0,))
    assert len(trace.steps) == 1
    rec = trace.steps[0]
    assert (rec.step, rec.rule, rec.variable, rec.value) == (1, AC, 1, 1)
    assert rec.witness == AcWitness(unsupported_at=0)


def test_establish_ac_wipeout():
    inst = make_instance("t", [(0,), (0,)], {(0, 1): []})
    reduced, _ = establish_ac(inst)
    assert reduced.unsatisfiable


def test_establish_ac_cascades():
    # x1 <= x2 <= x3 and x3 < x1 over {0,1} has no arc-consistent core
    dom = (0, 1)
    le = [(a, b) for a in dom for b in dom if a <= b]
    gt = [(a, b) for a in dom for b in dom if a > b]
    inst = make_instance("t", [dom] * 3, {(0, 1): le, (1, 2): le, (0, 2): gt})
    reduced, _ = establish_ac(inst)
    assert reduced.unsatisfiable


def test_establish_ac_is_idempotent_and_matches_brute_force():
    checked = 0
    for inst in corpus():
        reduced, trace = establish_ac(inst)
        expected = brute_force_ac(inst)
        if any(not dom for dom in expected):
            assert reduced.unsatisfiable
        else:
            assert [list(d) for d in reduced.domains] == expected
            assert is_arc_consistent(reduced)
            again, more = establish_ac(reduced)
            assert again == reduced and more.steps == []
        assert len(trace.steps) == sum(
            len(o) for o in inst.domains
        ) - sum(len(d) for d in reduced.domains)
        checked += 1
    assert checked == 135


def _ac_inputs():
    """The corpus, the figures, the perfbench gadgets and an input with an
    empty domain."""
    yield from corpus(seeds=range(8))
    yield from (generators.figure1a(), generators.figure1b(), generators.figure1c())
    yield generators.geq_chain(60)
    yield generators.set_cover_instance(range(1, 7), SET_COVER_SETS)
    yield generators.two_var_cns_vs_ns(30)
    yield make_instance("empty", [(0, 1), (0, 1), (), (3, 8)],
                        {(0, 1): [(0, 0), (1, 1)], (1, 3): [(0, 3)]})


def test_ac_equals_the_pair_walk():
    # records, their order, witnesses and final domains, from the masks
    # shared by the lineage and from a walk over the relation rows, on each
    # input and on a snapshot of it whose relations name dead values
    checked = 0
    for root in _ac_inputs():
        for inst in (root, _partly_reduced(root)):
            assert is_arc_consistent(inst) == reference.is_arc_consistent(inst)
            reduced, trace = establish_ac(inst)
            want, want_trace = reference.establish_ac(inst)
            assert reduced.domains == want.domains
            assert trace.steps == want_trace.steps
            assert is_arc_consistent(reduced) == reference.is_arc_consistent(reduced)
        checked += 1
    assert checked == 1080 + 7


def test_ns_requires_arc_consistency():
    inst = make_instance("t", [(0, 1), (0,)], {(0, 1): [(0, 0)]})
    assert not is_arc_consistent(inst)
    with pytest.raises(ValueError):
        ns_to_convergence(inst)
    with pytest.raises(ValueError):
        require_arc_consistent(inst, "caller")


def test_ns_leaves_the_figures_alone():
    for inst in (generators.figure1a(), generators.figure1b(), generators.figure1c()):
        reduced, trace, report = ns_to_convergence(inst)
        assert reduced == inst
        assert trace.steps == []
        assert report.eliminations == {NS: 0}


def test_ns_on_two_var_gadget_is_deterministic():
    reduced, trace, report = ns_to_convergence(generators.two_var_cns_vs_ns(4))
    assert [(r.variable, r.value) for r in trace.steps] == [
        (1, 1),
        (1, 2),
        (1, 3),
        (0, 1),
        (0, 2),
    ]
    assert [r.step for r in trace.steps] == [1, 2, 3, 4, 5]
    assert all(r.rule == NS for r in trace.steps)
    assert trace.steps[0].witness == NsWitness(substitute=0)
    assert reduced.domains == ((3,), (0,))
    assert report.eliminations == {NS: 5}
    assert report.initial_domain_sizes == (3, 4)
    assert report.final_domain_sizes == (1, 1)
    assert not report.unsatisfiable


def test_ns_collapses_unconstrained_instance_keeping_largest():
    inst = make_instance("free", [(0, 1, 2), (1, 3)], {})
    reduced, _, _ = ns_to_convergence(inst)
    assert reduced.domains == ((2,), (3,))


def test_ns_update_count_is_reproducible():
    _, _, first = ns_to_convergence(generators.two_var_cns_vs_ns(5))
    _, _, second = ns_to_convergence(generators.two_var_cns_vs_ns(5))
    assert first.updates == second.updates
    assert first.updates > 0


def test_ns_fixpoint_and_preservation_on_corpus():
    for inst in corpus():
        ac, _ = establish_ac(inst)
        if ac.unsatisfiable:
            continue
        reduced, trace, _ = ns_to_convergence(ac)
        # convergence: the checker accepts nothing in the result
        for i in range(reduced.n):
            for b in reduced.domains[i]:
                assert is_ns(reduced, i, b) is None
        # substitution never empties a domain and keeps arc consistency
        assert all(reduced.domains[i] for i in range(reduced.n))
        assert is_arc_consistent(reduced)
        # each recorded elimination preserved solvability at its point
        cur = ac
        before = solvable(cur)
        for rec in trace.steps:
            cur = cur.remove_value(rec.variable, rec.value)
            assert solvable(cur) == before
