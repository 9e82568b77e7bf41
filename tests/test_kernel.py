"""The shared kernel layers: cover and sub counter steps, fit changes, mask
updates, and every engine's recheck on relabelled inputs."""

import copy

import pytest

from subsense import (
    cli,
    counters,
    establish_ac,
    generators,
    kernel,
    make_instance,
    scss_to_convergence,
)
from subsense.acns import NsEngine
from subsense.cns import CnsEngine
from subsense.oracle import replay_trace
from subsense.scss import ScssEngine
from subsense.ss import SsEngine
from subsense.trace import NS, NsWitness

from conftest import WIDTH_INPUTS, corpus, set_cell
from test_counters import FLAT_INPUTS

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


def _step_cover(engine, cell, delta):
    # the kernel steps take value positions, and a cover step a mask of c
    i, b, j, c = cell
    engine._step_cover(i, engine.pos[i][b], j, 1 << engine.pos[j][c], delta)


@pytest.mark.parametrize("rule", sorted(ENGINES))
def test_cover_steps_keep_the_uncovered_set_and_the_worklist(rule):
    engine, cell = _cover_engine(ENGINES[rule])
    i, b, j, c = cell
    _step_cover(engine, cell, -1)
    # the count and the uncovered set
    assert engine.updates == 2
    assert _cover(engine, cell) == 0
    assert _uncovered(engine, (i, b, j)) == {c}
    assert not engine.conditioned_work
    engine.updates = 0
    _step_cover(engine, cell, 1)
    # the count, the uncovered set and the push of the emptied triple
    assert engine.updates == 3
    assert _cover(engine, cell) == 1
    assert _uncovered(engine, (i, b, j)) == set()
    assert list(engine.conditioned_work) == [(i, engine.pos[i][b], j)]


@pytest.mark.parametrize("rule", sorted(ENGINES))
def test_cover_underflow_is_an_error(rule):
    engine, cell = _cover_engine(ENGINES[rule])
    _set_cover(engine, cell, 0)
    with pytest.raises(RuntimeError, match="went negative"):
        _step_cover(engine, cell, -1)


@pytest.mark.parametrize("rule", sorted(ENGINES))
def test_a_cover_step_over_a_mask_pushes_once_when_the_mask_empties(rule):
    inst = generators.figure1c()
    engine = ENGINES[rule](inst)
    i, b, j = next(
        (i, b, j)
        for i, j in counters.oriented_edges(inst)
        for b in inst.domains[i]
        if len(inst.rows[(i, j)][b]) > 2
    )
    cs = sorted(inst.rows[(i, j)][b])
    for c in cs:
        _set_cover(engine, (i, b, j, c), 0)
    set_cell(inst, engine.UNCOVERED, engine.uncovered, (i, b, j), set(cs))
    engine.conditioned_work.clear()
    engine.updates = 0
    p = engine.pos[i][b]
    mask = lambda values: sum(1 << engine.pos[j][c] for c in values)
    # all but the last c: one update per count and per bit cleared, no push
    engine._step_cover(i, p, j, mask(cs[:-1]), 1)
    assert engine.updates == 2 * (len(cs) - 1)
    assert _uncovered(engine, (i, b, j)) == {cs[-1]}
    assert not engine.conditioned_work
    # every c: one update per count, one for the last bit and one for the push
    engine.updates = 0
    engine._step_cover(i, p, j, mask(cs), 1)
    assert engine.updates == len(cs) + 2
    assert [_cover(engine, (i, b, j, c)) for c in cs] == [2] * (len(cs) - 1) + [1]
    assert _uncovered(engine, (i, b, j)) == set()
    assert list(engine.conditioned_work) == [(i, engine.pos[i][b], j)]


def test_bit_positions_walk_each_mask_in_ascending_order(monkeypatch):
    wide = [2**64, 2**64 - 1, 2**65 + 2**8, 2**70 + 5, 2**299, 2**300 - 1, 0xA5 << 200]
    for mask in [*range(256), *wide]:
        assert list(kernel.bit_positions(mask)) == [
            p for p in range(mask.bit_length()) if mask >> p & 1
        ]
    # a wide mask is walked afresh: the held table keeps one entry a byte;
    # counts-300 is too wide to recheck after each elimination
    monkeypatch.setenv(counters.DEBUG_ENV, "")
    assert scss_to_convergence(WIDTH_INPUTS["counts-300"]())[1].steps
    assert len(counters._BYTE_POSITIONS) == 256


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
        # u goes from the engine's working domains as converge removes it
        a = next(v for v in inst.domains[r] if v != u)
        assert engine.eliminate(r, engine.pos[r][u], NS, NsWitness(substitute=a))
        return lambda: engine._propagate(r, engine.pos[r][u])
    if name == "stop_vars":
        engine = SsEngine(inst)
        set_cell(inst, "nb_stops", engine.tables.nb_stops, (0, 1, 0, 1), 1)
        set_cell(inst, name, engine.tables.stop_vars, (0, 1, 0), set())
        return lambda: engine._step_stops(0, engine.pos[0][1], engine.pos[0][0], 1, -1)
    engine, cell = _cover_engine(ENGINES["cns" if name == "uncovered" else "scss"])
    _set_cover(engine, cell, 0)
    return lambda: _step_cover(engine, cell, 1)


def _set_bit_engine(name):
    """The step that next sets a bit of the table ``name`` in a fresh
    engine, with that bit already set by hand."""
    if name == "stop_vars":
        # nb_stops(0,1,0,1) rising to one adds x_1 to stop_vars(0,1,0)
        inst = generators.figure1b()
        engine = ScssEngine(inst)
        set_cell(inst, "nb_stops", engine.tables.nb_stops, (0, 1, 0, 1), 0)
        set_cell(inst, name, engine.tables.stop_vars, (0, 1, 0), {1})
        return lambda: engine._step_stops(0, engine.pos[0][1], engine.pos[0][0], 1, 1)
    # the cover cell falling to none adds c to the uncovered set of (i,b,j)
    engine, cell = _cover_engine(ENGINES["cns" if name == "uncovered" else "scss"])
    i, b, j, c = cell
    set_cell(engine.inst, name, engine.uncovered, (i, b, j), {c})
    return lambda: _step_cover(engine, cell, -1)


@pytest.mark.parametrize(
    "name", sorted(name for name, table in counters.TABLES.items() if table.labels)
)
def test_clearing_a_bit_that_is_not_set_is_an_error(name):
    with pytest.raises(RuntimeError, match=rf"^{name}\("):
        _unset_bit_engine(name)()
    # and setting one that is set; a block bit is only ever cleared
    if name != "block_vars":
        with pytest.raises(RuntimeError, match=rf"^{name}\(.* already holds"):
            _set_bit_engine(name)()


def test_the_recheck_compares_the_live_masks_with_the_domains():
    engine = NsEngine(generators.figure1a())
    engine.verify()
    # a mask that no longer stands for D(x_0); every table still matches
    engine.inst.live[0] = 0
    with pytest.raises(counters.CounterMismatch, match="live masks"):
        engine.verify()


SUB_CASCADE = ("nb_subs", "nb_stops", "stop_vars", "nb_snake_covers", "not_snake_covered")


def test_sub_steps_round_trip():
    # for every incompatible (a at x_i, d at x_k), one sub more and then one
    # fewer leave every table the sub cascade writes as it was
    cells = cascaded = 0
    for make in (generators.figure1a, generators.figure1b, generators.figure1c):
        inst = make()
        for i, k in counters.oriented_edges(inst):
            for a in inst.domains[i]:
                for d in sorted(set(inst.domains[k]) - inst.rows[(i, k)][a]):
                    engine = ScssEngine(inst)
                    before = copy.deepcopy([getattr(engine.tables, t) for t in SUB_CASCADE])
                    engine.updates = 0
                    at = (i, engine.pos[i][a], k, engine.pos[k][d])
                    engine._step_subs(*at, 1)
                    cascaded += engine.updates > 1
                    engine._step_subs(*at, -1)
                    assert [getattr(engine.tables, t) for t in SUB_CASCADE] == before
                    cells += 1
    # both a plain step and a flip that cascades ran
    assert 0 < cascaded < cells


def test_sub_underflow_is_an_error():
    inst = generators.figure1a()
    engine = ScssEngine(inst)
    set_cell(inst, "nb_subs", engine.tables.nb_subs, (0, 1, 1, 0), 0)
    with pytest.raises(RuntimeError, match=r"^nb_subs\(0, 1, 1, 0\) went negative"):
        engine._step_subs(0, engine.pos[0][1], 1, engine.pos[1][0], -1)


def test_an_engine_cannot_record_a_step_its_rule_refuses():
    # x1 = 0 takes only 1 at x0 and 1 takes everything, so with its blocks
    # forged to sit at x0 alone the tables claim 1 covers it; but 1 does
    # not dominate 0 at x2, and the definition refuses the step
    inst = next(i for i in corpus() if i.name == "random-n3-d2-p1-t0.7-s0")
    engine = CnsEngine(establish_ac(inst)[0], ns_priority=False)
    b, size = engine.pos[1][0], len(engine.pos[1])
    block_vars, base = engine.tables.block_vars, engine.pairs[1] + b * size
    for a in range(size):
        block_vars[base + a] &= engine.nbit[1][0]
    engine.uncovered[engine.ends[(1, 0)] + b] = 0
    engine.conditioned_work.clear()
    engine.conditioned_work.append((1, b, 0))
    with pytest.raises(RuntimeError, match=r"^x1=0 conditioned by x0 fails cns$"):
        engine._pop()
    assert not engine.steps


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
    removed = flagged = 0
    wide = [WIDTH_INPUTS[name]() for name in ("domain-65", "star-70")]
    for inst in [*FLAT_INPUTS["relabelled"](), isolated, *wide]:
        if rule != "scss":
            inst, _ = establish_ac(inst)
            if inst.unsatisfiable:
                continue
        reduced, trace, _ = cli.ENGINES[rule](inst)
        replayed, _ = replay_trace(inst, trace)
        assert replayed == reduced
        removed += len(trace)
        flagged += trace.count("ac")
    assert removed
    if rule == "ss":
        # its support-loss flags, indexed by value position, are compared
        # cell by cell after each of these steps
        assert flagged >= 30
