"""The shared kernel layers: cover counter steps, fit changes, mask
updates, and every engine's recheck on relabelled inputs."""

import pytest

from subsense import cli, counters, establish_ac, generators, make_instance, replay_sequence
from subsense.acns import NsEngine
from subsense.cns import CnsEngine
from subsense.scss import ScssEngine, replay_steps
from subsense.ss import SsEngine

from conftest import set_cell
from test_counters import FLAT_INPUTS, WIDTH_INPUTS

ENGINES = {
    "cns": lambda inst: CnsEngine(inst, ns_priority=True),
    "scss": ScssEngine,
}


def _cover_engine(make):
    # an engine on figure1c whose cover cell (0,b,1,c), with c compatible
    # with b, holds one cover and whose uncovered mask for (0,b,1) is empty
    inst = generators.figure1c()
    b = inst.domains[0][0]
    c = min(inst.rows[(0, 1)][b])
    engine = make(inst)
    _set_cover(engine, (0, b, 1, c), 1)
    set_cell(inst, engine.UNCOVERED, engine.uncovered, (0, b, 1), set())
    engine.conditioned_work.clear()
    engine.updates = 0
    return engine, (0, b, 1, c)


def _set_cover(engine, cell, count):
    set_cell(engine.inst, engine.COVERS, engine.covers, cell, count)


def _cover(engine, cell):
    return counters.cell(engine.inst, engine.COVERS, engine.covers, cell)


def _uncovered(engine, key):
    return counters.cell(engine.inst, engine.UNCOVERED, engine.uncovered, key)


@pytest.mark.parametrize("rule", sorted(ENGINES))
def test_cover_steps_keep_the_uncovered_set_and_the_worklist(rule):
    engine, cell = _cover_engine(ENGINES[rule])
    i, b, j, c = cell
    engine._cover_down(*cell)
    # the count and the uncovered set
    assert engine.updates == 2
    assert _cover(engine, cell) == 0
    assert _uncovered(engine, (i, b, j)) == {c}
    assert not engine.conditioned_work
    engine.updates = 0
    engine._cover_up(*cell)
    # the count, the uncovered set and the push of the emptied triple
    assert engine.updates == 3
    assert _cover(engine, cell) == 1
    assert _uncovered(engine, (i, b, j)) == set()
    assert list(engine.conditioned_work) == [(i, b, j)]


@pytest.mark.parametrize("rule", sorted(ENGINES))
def test_cover_underflow_is_an_error(rule):
    engine, cell = _cover_engine(ENGINES[rule])
    _set_cover(engine, cell, 0)
    with pytest.raises(RuntimeError, match="went negative"):
        engine._cover_down(*cell)


@pytest.mark.parametrize(
    "holders, changed",
    [
        # x_1 left an otherwise empty set, or joined one: every other neighbour
        (set(), [2, 3]),
        ({1}, [2, 3]),
        # one other member: only it
        ({2}, [2]),
        ({1, 2}, [2]),
        # two or more others: no {j} fits either side of the change
        ({2, 3}, []),
        ({1, 2, 3}, []),
    ],
)
def test_fit_changes(holders, changed):
    engine = ScssEngine(generators.figure1c())
    assert engine.inst.neighbors(0) == (1, 2, 3)
    mask = sum(engine.nbit[0][l] for l in holders)
    assert list(engine._fit_changes(0, mask, 1)) == changed


def _unset_bit_engine(name):
    """The step that next clears a bit of the table ``name`` in a fresh
    engine, with that bit already cleared by hand."""
    inst = generators.figure1b()
    if name == "block_vars":
        # the nb_blocks cell (k,d,e,r) at one: removing u, which supports d
        # but not e, clears x_r from block_vars(k,d,e)
        engine = NsEngine(inst)
        k, d, e, r, u = next(
            (k, d, e, r, u)
            for k, r in counters.oriented_edges(inst)
            for d in inst.domains[k]
            for e in inst.domains[k]
            for u in inst.rows[(k, r)][d] - inst.rows[(k, r)][e]
        )
        set_cell(inst, "nb_blocks", engine.tables.nb_blocks, (k, d, e, r), 1)
        set_cell(inst, name, engine.tables.block_vars, (k, d, e), set())
        engine.inst = inst.remove_value(r, u)
        return lambda: engine._propagate(r, u)
    if name == "stop_vars":
        engine = SsEngine(inst)
        set_cell(inst, "nb_stops", engine.tables.nb_stops, (0, 1, 0, 1), 1)
        set_cell(inst, name, engine.tables.stop_vars, (0, 1, 0), set())
        return lambda: engine.dec_stops(0, 1, 0, 1)
    engine, cell = _cover_engine(ENGINES["cns" if name == "uncovered" else "scss"])
    _set_cover(engine, cell, 0)
    return lambda: engine._cover_up(*cell)


@pytest.mark.parametrize(
    "name", sorted(name for name, table in counters.TABLES.items() if table.labels)
)
def test_clearing_a_bit_that_is_not_set_is_an_error(name):
    with pytest.raises(RuntimeError, match=rf"^{name}\("):
        _unset_bit_engine(name)()


@pytest.mark.parametrize("rule", sorted(cli.ENGINES))
def test_engines_eliminate_nothing_when_a_domain_is_already_empty(rule):
    # x0 = x1 would let ss and scss remove values, but x2 has none left
    inst = make_instance("wiped", [(0, 1), (0, 1), ()], {(0, 1): [(0, 0), (1, 1)]})
    assert inst.unsatisfiable
    reduced, trace, report = cli.ENGINES[rule](inst)
    assert not trace.steps
    assert report.unsatisfiable
    assert reduced.domains == inst.domains


@pytest.mark.parametrize("rule", sorted(cli.ENGINES))
def test_engines_recheck_their_tables_on_relabelled_inputs(rule, monkeypatch):
    # sparse, non-contiguous value labels, some inputs partly reduced, so a
    # mask bit indexed by a value label instead of its position shows; plus
    # a variable with no constraint, whose scss witness swaps at a variable
    # that has no bit for it; plus masks past 64 bits, paired slot by slot,
    # and holder masks of 70 neighbours
    monkeypatch.setenv(counters.DEBUG_ENV, "1")
    isolated = make_instance(
        "isolated", [(3, 8, 20), (1, 6, 40), (50, 70, 90)],
        {(0, 1): [(3, 1), (8, 6), (20, 6), (20, 40)]},
    )
    removed = 0
    wide = [WIDTH_INPUTS[name]() for name in ("domain-65", "star-70")]
    for inst in [*FLAT_INPUTS["relabelled"](), isolated, *wide]:
        if rule != "scss":
            inst, _ = establish_ac(inst)
            if inst.unsatisfiable:
                continue
        reduced, trace, _ = cli.ENGINES[rule](inst)
        replayed, _ = replay_sequence(inst, *replay_steps(trace))
        assert replayed == reduced
        removed += len(trace)
    assert removed
