"""Arc consistency, the engines and replay eliminate on one private working snapshot.

No run calls ``Instance.remove_value``.  Each returns an immutable snapshot
equal to its input restricted to the final domains and to the
``remove_value`` chain of its trace, and leaves its input as it was.
"""

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


def _masks_of(inst: Instance) -> list[int]:
    """The mask of each current domain over its value positions."""
    return [sum(1 << inst.positions[k][v] for v in dom) for k, dom in enumerate(inst.domains)]


@pytest.mark.parametrize("name", ["corpus", *WIDTH_INPUTS])
def test_every_snapshot_keeps_the_live_masks_of_its_domains(name):
    # random chains of drops, restricts, removals, working and frozen copies,
    # each branching from any snapshot made so far; ten chains from a wide input
    bases = list(corpus(seeds=(0,))) if name == "corpus" else [WIDTH_INPUTS[name]()] * 10
    rng = random.Random(name)
    drops = 0
    for base in bases:
        snapshots, working = [base], set()
        for _ in range(24):
            parent = rng.choice(snapshots)
            values = [(i, b) for i, dom in enumerate(parent.domains) for b in dom]
            op = rng.choice(("_drop", "restrict", "remove_value", "_working", "_frozen"))
            if op == "_drop" and id(parent) in working and values:
                others = [(snap, list(snap.live)) for snap in snapshots if snap is not parent]
                i, b = rng.choice(values)
                parent._drop(i, parent.positions[i][b])
                drops += 1
                assert b not in parent.domain_set(i)
                # the parent's masks, and every sibling's, are as they were
                assert all(list(snap.live) == live for snap, live in others)
            elif op == "restrict":
                kept = [[b for b in dom if rng.random() < 0.8] for dom in parent.domains]
                snapshots.append(parent.restrict(kept))
            elif op == "remove_value" and values:
                snapshots.append(parent.remove_value(*rng.choice(values)))
            elif op == "_working":
                snapshots.append(parent._working())
                working.add(id(snapshots[-1]))
            else:
                snapshots.append(parent._frozen())
            for snap in snapshots:
                assert type(snap.live) is (list if id(snap) in working else tuple)
                assert list(snap.live) == _masks_of(snap)
    assert drops
