"""Snake substitution engine: counters, cascades, convergence invariants."""

import pytest

from subsense import (
    AC,
    NS,
    SS,
    AcWitness,
    SsWitness,
    counters,
    establish_ac,
    generators,
    is_arc_consistent,
    make_instance,
    ss_to_convergence,
)
from subsense.oracle import is_ss, solvable
from subsense.ss import SsEngine

from conftest import corpus, set_cell


def _cell(inst, tables, name, key):
    return counters.cell(inst, name, getattr(tables, name), key)


def test_counter_init_on_figures():
    inst = generators.figure1b()
    t = counters.build_ss(inst)
    # replacing 0 by 1 at x2 is blocked once at x1 (by f=1) and never at x3
    assert _cell(inst, t, "nb_blocks", (1, 0, 1, 0)) == 1
    assert _cell(inst, t, "nb_blocks", (1, 0, 1, 2)) == 0
    assert _cell(inst, t, "block_vars", (1, 0, 1)) == {0}
    # substitute counts are defined only for incompatible (a, d) pairs; the
    # flat slot of a compatible pair is never read
    assert _cell(inst, t, "nb_subs", (0, 1, 1, 1)) == 1
    block_vars, _ = counters.compute_holders(inst, counters.compute_nb_blocks(inst)[0])
    assert (0, 1, 1, 0) not in counters.compute_nb_subs(inst, block_vars)[0]
    # x1's extreme values are snake substitutable by the middle one
    assert {b: _cell(inst, t, "nb_snake", (0, b)) for b in (0, 1, 2)} == {0: 1, 1: 0, 2: 1}

    figure1a = generators.figure1a()
    ta = counters.build_ss(figure1a)
    assert _cell(figure1a, ta, "nb_snake", (0, 0)) == 1
    assert _cell(figure1a, ta, "nb_snake", (0, 1)) == 0
    # every value is live, so every slot is a cell
    assert not any(ta.inconsistent)


def _step_stops(engine, cell, delta):
    # the kernel steps take value positions
    i, a, b, k = cell
    engine._step_stops(i, engine.pos[i][a], engine.pos[i][b], k, delta)


def _cascade_engine(nb_stops, stop_vars, nb_snake):
    # an ss engine whose own tables hold the given values in the three cells
    # the stop cascade reads
    engine = SsEngine(generators.figure1a())
    for name, cells in (("nb_stops", nb_stops), ("stop_vars", stop_vars), ("nb_snake", nb_snake)):
        for key, value in cells.items():
            set_cell(engine.inst, name, getattr(engine.tables, name), key, value)
    engine.updates = 0
    engine.high.clear()
    engine.low.clear()
    return engine


def test_stop_cascade_and_callback():
    cell = (0, 1, 0, 3)  # replacing b=0 by a=1 at x1, stop at x4
    engine = _cascade_engine({cell: 1}, {(0, 1, 0): {3}}, {(0, 0): 0})
    tables = engine.tables
    _step_stops(engine, cell, -1)
    # nb_stops, stop_vars, nb_snake and the low-class push
    assert list(engine.low) == [(0, engine.pos[0][0])]
    assert engine.updates == 4
    assert _cell(engine.inst, tables, "nb_stops", cell) == 0
    assert _cell(engine.inst, tables, "stop_vars", (0, 1, 0)) == set()
    assert _cell(engine.inst, tables, "nb_snake", (0, 0)) == 1
    # the mirror restores every level
    engine.updates = 0
    _step_stops(engine, cell, 1)
    assert engine.updates == 3
    assert _cell(engine.inst, tables, "nb_stops", cell) == 1
    assert _cell(engine.inst, tables, "stop_vars", (0, 1, 0)) == {3}
    assert _cell(engine.inst, tables, "nb_snake", (0, 0)) == 0


def test_stop_cascade_underflow_is_an_error():
    cell = (0, 1, 0, 3)
    engine = _cascade_engine({cell: 0}, {(0, 1, 0): set()}, {(0, 0): 0})
    with pytest.raises(RuntimeError):
        _step_stops(engine, cell, -1)
    set_cell(engine.inst, "nb_stops", engine.tables.nb_stops, cell, 0)
    with pytest.raises(RuntimeError):
        _step_stops(engine, cell, 1)


def test_ss_requires_arc_consistency():
    inst = make_instance("t", [(0, 1), (0,)], {(0, 1): [(0, 0)]})
    with pytest.raises(ValueError):
        ss_to_convergence(inst)


def test_ss_reduces_figure1a_to_singletons():
    reduced, trace, report = ss_to_convergence(generators.figure1a())
    assert reduced.domains == ((1,), (1,), (1,), (1,))
    assert [(r.rule, r.variable, r.value) for r in trace.steps] == [
        (SS, 0, 0),
        (AC, 1, 0),
        (SS, 2, 0),
        (AC, 3, 0),
    ]
    assert trace.steps[0].witness == SsWitness(substitute=1, swaps={1: {0: 1}})
    assert trace.steps[1].witness == AcWitness(unsupported_at=0)
    assert report.eliminations == {AC: 2, NS: 0, SS: 2}
    assert not report.unsatisfiable


def test_ss_runs_are_deterministic():
    first = ss_to_convergence(generators.figure1a())
    second = ss_to_convergence(generators.figure1a())
    assert first[0] == second[0]
    assert first[1].steps == second[1].steps
    assert first[2].updates == second[2].updates


def test_ss_leaves_untouched_geq_chain_alone():
    for length in (3, 5, 8):
        inst = generators.geq_chain(length)
        reduced, trace, _ = ss_to_convergence(inst)
        assert reduced == inst
        assert trace.steps == []


@pytest.mark.parametrize("end", [0, 4])
def test_seeded_removal_propagates_through_geq_chain(end):
    inst = generators.geq_chain(5).remove_value(end, 2)
    ac, _ = establish_ac(inst)
    reduced, trace, _ = ss_to_convergence(ac)
    assert all(2 not in reduced.domain_set(i) for i in range(5))
    # nothing else goes: each variable keeps {1, 3}
    assert reduced.domains == ((1, 3),) * 5
    assert trace.steps


def test_ss_on_figure1b_after_cns_values_leave():
    # removing the two conditioned values by hand lets plain snake
    # substitution finish the job
    inst = generators.figure1b().remove_value(1, 0).remove_value(2, 2)
    reduced, _, _ = ss_to_convergence(inst)
    assert reduced.domains == ((2,), (1,), (0,))


def test_ss_corpus_invariants():
    for inst in corpus():
        ac, _ = establish_ac(inst)
        if ac.unsatisfiable:
            continue
        reduced, trace, report = ss_to_convergence(ac)
        # output admits no further first-level support removal
        assert is_arc_consistent(reduced)
        # convergence: the direct checker accepts nothing
        for i in range(reduced.n):
            for b in reduced.domains[i]:
                assert is_ss(reduced, i, b) is None
        # every recorded elimination preserved solvability at its point
        cur = ac
        before = solvable(cur)
        for rec in trace.steps:
            cur = cur.remove_value(rec.variable, rec.value)
            assert solvable(cur) == before
        assert cur == reduced
        assert sum(report.eliminations.values()) == len(trace.steps)


def test_ss_debug_recompute_slice(monkeypatch):
    monkeypatch.setenv(counters.DEBUG_ENV, "1")
    for seed in range(4):
        inst = generators.random_instance(5, 3, 0.6, 0.5, seed)
        ac, _ = establish_ac(inst)
        if ac.unsatisfiable:
            continue
        ss_to_convergence(ac)  # raises CounterMismatch on any divergence
