"""Arc consistency, the engines and replay eliminate on one private working snapshot.

No run calls ``Instance.remove_value``.  Each returns an immutable snapshot
equal to its input restricted to the final domains and to the
``remove_value`` chain of its trace, and leaves its input as it was.
"""

import copy
import random
import re

import pytest

from subsense import (
    Instance,
    cns_to_convergence,
    establish_ac,
    generators,
    ns_to_convergence,
    scss_to_convergence,
    ss_to_convergence,
)
from subsense.acns import NsEngine
from subsense.oracle import replay_trace
from subsense.trace import NS, NsWitness

from conftest import WIDTH_INPUTS, corpus

SET_COVER = (
    range(1, 7),
    ([1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1], [1, 3, 5], [2, 4, 6], [1, 4], [2, 5], [3, 6]),
)

INPUTS = [
    generators.figure1a(),
    generators.figure1b(),
    generators.figure1c(),
    generators.geq_chain(60),
    generators.set_cover_instance(*SET_COVER),
    generators.two_var_cns_vs_ns(30),
    *corpus(seeds=(0, 1)),
]


def _replay(inst):
    return replay_trace(inst, scss_to_convergence(inst)[1])


RUNS = {
    "ac": establish_ac,
    "ns": ns_to_convergence,
    "ss": ss_to_convergence,
    "cns": cns_to_convergence,
    "scss": scss_to_convergence,
    "replay": _replay,
}

# the engines that need an arc-consistent input
NEEDS_AC = ("ns", "ss", "cns")


def _no_remove_value(self, i, b):
    raise AssertionError(f"remove_value({i}, {b}) called")


def _same_snapshot(got: Instance, want: Instance) -> None:
    assert got == want
    assert all(got.domain_set(i) == want.domain_set(i) for i in range(want.n))


@pytest.mark.parametrize("run", sorted(RUNS))
def test_runs_eliminate_in_place_and_return_a_frozen_snapshot(run, monkeypatch):
    remove_value = Instance.remove_value
    bases = INPUTS
    if run in NEEDS_AC:
        # an input that arc consistency wipes out is not theirs to take
        bases = [ac for ac in (establish_ac(inst)[0] for inst in INPUTS) if not ac.unsatisfiable]
    eliminated = 0
    for base in bases:
        domains, cur_sets = base.domains, base._cur_sets
        before = (list(domains), list(cur_sets))
        with monkeypatch.context() as patch:
            patch.setattr(Instance, "remove_value", _no_remove_value)
            final, trace = RUNS[run](base)[:2]
        # the input is untouched: the same tuples, holding the same values
        assert base.domains is domains and base._cur_sets is cur_sets
        assert (list(domains), list(cur_sets)) == before
        # the result is frozen, outside and in
        assert type(final.domains) is tuple and type(final._cur_sets) is tuple
        assert all(type(dom) is tuple for dom in final.domains)
        assert all(type(dom) is frozenset for dom in final._cur_sets)
        _same_snapshot(final, base.restrict(final.domains))
        chain = base
        for rec in trace.steps:
            chain = remove_value(chain, rec.variable, rec.value)
        _same_snapshot(final, chain)
        eliminated += len(trace.steps)
    assert eliminated


def test_eliminating_a_value_already_gone_is_the_remove_value_error():
    inst = generators.figure1a()
    engine = NsEngine(inst)
    b, a = inst.domains[0][:2]
    # the engine names the value by its position
    p = inst.positions[0][b]
    assert engine.eliminate(0, p, NS, NsWitness(substitute=a))
    steps = list(engine.steps)
    for i in (0, inst.n):
        with pytest.raises(ValueError) as expected:
            inst.remove_value(0, b).remove_value(i, b)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            engine.eliminate(i, p, NS, NsWitness(substitute=a))
        assert engine.steps == steps


def _masks_of(inst: Instance, domains) -> list[int]:
    """The mask of each of ``domains`` over the value positions of ``inst``."""
    return [sum(1 << inst.positions[k][v] for v in dom) for k, dom in enumerate(domains)]


@pytest.mark.parametrize("name", ["corpus", *WIDTH_INPUTS])
def test_every_snapshot_keeps_the_live_masks_of_its_domains(name):
    # random chains of drops, restricts, removals, working and frozen copies,
    # each branching from any snapshot made so far; ten chains from a wide
    # input.  Beside each snapshot the test keeps its own record of the
    # domains, which every operation updates as its definition says: a
    # working snapshot holds only its live masks, so those are compared with
    # the record, and a frozen one's domains too
    bases = list(corpus(seeds=(0,))) if name == "corpus" else [WIDTH_INPUTS[name]()] * 10
    rng = random.Random(name)
    drops = 0
    for base in bases:
        snapshots, working = [base], set()
        records = {id(base): [list(dom) for dom in base.domains]}
        for _ in range(24):
            parent = rng.choice(snapshots)
            record = records[id(parent)]
            values = [(i, b) for i, dom in enumerate(record) for b in dom]
            op = rng.choice(("_drop", "restrict", "remove_value", "_working", "_frozen"))
            if op == "_drop" and id(parent) in working and values:
                others = [(snap, list(snap.live)) for snap in snapshots if snap is not parent]
                i, b = rng.choice(values)
                parent._drop(i, parent.positions[i][b])
                record[i].remove(b)
                drops += 1
                assert b not in parent._frozen().domain_set(i)
                # the parent's masks, and every sibling's, are as they were
                assert all(list(snap.live) == live for snap, live in others)
                continue
            if op == "restrict":
                kept = [[b for b in dom if rng.random() < 0.8] for dom in record]
                child, record = parent.restrict(kept), kept
            elif op == "remove_value" and values:
                i, b = rng.choice(values)
                child = parent.remove_value(i, b)
                record = [[v for v in dom if (k, v) != (i, b)] for k, dom in enumerate(record)]
            elif op == "_working":
                child = parent._working()
                working.add(id(child))
            else:
                child = parent._frozen()
            snapshots.append(child)
            records[id(child)] = [list(dom) for dom in record]
            for snap in snapshots:
                record = records[id(snap)]
                assert type(snap.live) is (list if id(snap) in working else tuple)
                assert list(snap.live) == _masks_of(snap, record)
                frozen = snap if id(snap) not in working else snap._frozen()
                assert frozen.domains == tuple(map(tuple, record))
                assert [set(frozen.domain_set(k)) for k in range(snap.n)] == list(map(set, record))
    assert drops


@pytest.mark.parametrize("name", ["corpus", *WIDTH_INPUTS])
def test_a_frozen_drop_chain_is_restrict_and_the_remove_value_chain(name):
    # a random chain of drops on one working snapshot, at a random point
    # carried on by a working snapshot of it; once frozen, it is the input
    # restricted to what is left and the remove_value chain of the drops,
    # and every variable no drop touched keeps the input's tuple and set
    bases = list(corpus(seeds=(0,))) if name == "corpus" else [WIDTH_INPUTS[name]()] * 3
    rng = random.Random(name)
    twice = 0
    for base in bases:
        values = [(i, b) for i, dom in enumerate(base.domains) for b in dom]
        rng.shuffle(values)
        dropped = values[: rng.randint(1, len(values))]
        handover = rng.randrange(len(dropped))
        cur, chain = base._working(), base
        for t, (i, b) in enumerate(dropped):
            if t == handover:
                parent, live = cur, list(cur.live)
                cur = cur._working()
            p = base.positions[i][b]
            cur._drop(i, p)
            chain = chain.remove_value(i, b)
            if rng.random() < 0.2:
                # a value dropped twice: the remove_value error, and no change
                with pytest.raises(ValueError) as expected:
                    chain.remove_value(i, b)
                live_now = list(cur.live)
                with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
                    cur._drop(i, p)
                assert cur.live == live_now
                twice += 1
        # the drops after the handover left the working parent as it was
        assert parent.live == live
        frozen = cur._frozen()
        gone = set(dropped)
        kept = [[b for b in dom if (i, b) not in gone] for i, dom in enumerate(base.domains)]
        _same_snapshot(frozen, base.restrict(kept))
        _same_snapshot(frozen, chain)
        assert frozen.domains == tuple(map(tuple, kept))
        touched = {i for i, _ in dropped}
        for k in range(base.n):
            if k not in touched:
                assert frozen.domains[k] is base.domains[k]
                assert frozen.domain_set(k) is base.domain_set(k)
    assert twice


def test_a_drop_flips_one_live_bit_and_nothing_else():
    inst = generators.figure1c()
    cur = inst._working()
    # a working snapshot holds no domain tuple or set that could go stale
    assert cur.domains is None and cur._cur_sets is None
    fields = dict(vars(cur))
    copies = {key: copy.deepcopy(value) for key, value in fields.items() if key != "full"}
    live = list(cur.live)
    i, b = 2, inst.domains[2][1]
    p = inst.positions[i][b]
    cur._drop(i, p)
    assert vars(cur).keys() == fields.keys()
    assert all(vars(cur)[key] is value for key, value in fields.items())
    live[i] ^= 1 << p
    assert cur.live == live
    for key, value in copies.items():
        if key != "live":
            assert vars(cur)[key] == value, key


def test_a_working_snapshot_names_the_freeze_when_its_domains_are_read():
    inst = generators.figure1a()
    cur = inst._working()
    for i in range(inst.n):
        with pytest.raises(ValueError, match=r"only live masks: freeze it \(_frozen\(\)\)"):
            cur.domain_set(i)
    # its frozen copy reads them, as the input it was taken from does
    cur._drop(0, 1)
    frozen = cur._frozen()
    assert [frozen.domain_set(i) for i in range(inst.n)] == [
        frozenset(dom) for dom in frozen.domains
    ]
    assert frozen.domain_set(0) == inst.domain_set(0) - {inst.original_domains[0][1]}
