"""The shared kernel layers: cover counter steps and fit changes."""

import pytest

from subsense import counters, generators
from subsense.cns import CnsEngine
from subsense.scss import ScssEngine

ENGINES = {
    "cns": lambda inst: CnsEngine(inst, ns_priority=True),
    "scss": ScssEngine,
}


def _cover_engine(make):
    # an engine on figure1c whose cover cell (0,b,1,c), with c compatible
    # with b, holds one cover and whose uncovered set for (0,b,1) is empty
    inst = generators.figure1c()
    b = inst.domains[0][0]
    c = min(inst.rows[(0, 1)][b])
    engine = make(inst)
    _set_cover(engine, (0, b, 1, c), 1)
    engine.uncovered[(0, b, 1)] = set()
    engine.conditioned_work.clear()
    engine.updates = 0
    return engine, (0, b, 1, c)


def _set_cover(engine, cell, count):
    edge, index = counters.slot(engine.inst, engine.COVERS, cell)
    engine.covers[edge][index] = count


def _cover(engine, cell):
    edge, index = counters.slot(engine.inst, engine.COVERS, cell)
    return engine.covers[edge][index]


@pytest.mark.parametrize("rule", sorted(ENGINES))
def test_cover_steps_keep_the_uncovered_set_and_the_worklist(rule):
    engine, cell = _cover_engine(ENGINES[rule])
    i, b, j, c = cell
    engine._cover_down(*cell)
    # the count and the uncovered set
    assert engine.updates == 2
    assert _cover(engine, cell) == 0
    assert engine.uncovered[(i, b, j)] == {c}
    assert not engine.conditioned_work
    engine.updates = 0
    engine._cover_up(*cell)
    # the count, the uncovered set and the push of the emptied triple
    assert engine.updates == 3
    assert _cover(engine, cell) == 1
    assert engine.uncovered[(i, b, j)] == set()
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
    assert list(engine._fit_changes(0, holders, 1)) == changed
