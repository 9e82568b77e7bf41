"""The table recheck on 300-value domains.

Rechecking every table after each elimination takes seconds a step on
counts-300, whose counts pass one byte, so test_golden_traces leaves it out
(NO_RECHECK).  Here each engine runs on it with Kernel.verify at chosen
steps instead: cns and scss at the first and the last step always, and
every engine at steps 1, 2, 4, 8, ... and the last, plus scss against a
fresh flat build at every step, under SUBSENSE_DEBUG_RECOMPUTE=1.

No step on counts-300 propagates into a 300-value domain that keeps two
values, so geq-300, x_0 >= x_1 over range(300), covers that: each of its
first 299 steps removes a value of x_0 and walks all 300 values of x_1.
ns and ss are rechecked there at step 299, where x_0 has one value left and
the set-builders are cheap, and every engine at steps 1, 2, 4, ... and the
last under SUBSENSE_DEBUG_RECOMPUTE=1.
"""

from operator import itemgetter

import pytest

from subsense import counters, establish_ac, make_instance
from subsense.acns import NsEngine
from subsense.cns import CnsEngine
from subsense.counters import bit_positions
from subsense.scss import ScssEngine
from subsense.ss import SsEngine

from conftest import WIDTH_INPUTS


def _geq_300():
    """x_0 >= x_1 over range(300): x_0 loses every value but 299, each walk
    splitting the values of x_1, then x_1 every value but one."""
    big = range(300)
    return make_instance("geq-300", [big, big], {(0, 1): [(a, b) for a in big for b in big if a >= b]})


INPUTS = {"counts-300": WIDTH_INPUTS["counts-300"], "geq-300": _geq_300}
# each engine as its *_to_convergence runs it (cns with ns priority)
ENGINES = {"ns": NsEngine, "ss": SsEngine, "cns": lambda inst: CnsEngine(inst, True), "scss": ScssEngine}
DEBUG_ONLY = pytest.mark.skipif(
    not counters.debug_recompute_enabled(), reason=f"the full schedule runs with {counters.DEBUG_ENV}=1"
)


def _run(rule, recheck, each_step=None, name="counts-300") -> list[int]:
    """Run ``rule``'s engine to convergence on the input ``name``, made arc
    consistent first unless the rule is scss, calling Kernel.verify after
    each step that ``recheck(step)`` picks and after the last, and
    ``each_step(engine)`` after every step.  Returns the steps rechecked."""
    inst = INPUTS[name]()
    engine = ENGINES[rule](inst if rule == "scss" else establish_ac(inst)[0])
    # the steps picked here take the place of the recheck after every step
    engine.debug = False
    eliminate, rechecked = engine.eliminate, []

    def after(step, last=False):
        if last or recheck(step):
            engine.verify()
            rechecked.append(step)
        if each_step is not None:
            each_step(engine)

    def checked(*args):
        # every step before this one has been propagated
        if engine.steps:
            after(len(engine.steps))
        return eliminate(*args)

    engine.eliminate = checked
    engine.converge()
    assert not engine.unsat
    after(len(engine.steps), last=True)
    return rechecked


@pytest.mark.parametrize("rule", ["cns", "scss"])
def test_tables_hold_at_the_first_and_last_step_on_300_values(rule):
    first, last = _run(rule, lambda step: step == 1)
    assert first == 1 and last > 256


@pytest.mark.parametrize("rule", ["ns", "ss"])
def test_tables_hold_after_walks_of_a_wide_neighbour(rule):
    # steps 1-299 each split the 300 live values of x_1; step 299 leaves
    # every one of them live, beside the last value of x_0
    assert _run(rule, lambda step: step == 299, name="geq-300") == [299, 598]


@DEBUG_ONLY
@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("rule", ENGINES)
def test_tables_hold_at_doubling_steps_on_300_values(rule, name):
    rechecked = _run(rule, lambda step: step & (step - 1) == 0, name=name)
    assert rechecked[:-1] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]


def _assert_matches_a_fresh_build(engine) -> None:
    """Every live cell of the tables the engine keeps equals that cell of a
    flat build on its current domains: the cells of live values, but for
    nb_subs only the pairs that are not compatible, and for pairs of one
    variable's values only distinct ones."""
    inst, kept = engine.inst._frozen(), engine._kept()
    fresh = counters.build(inst, *kept)
    live, vals = inst.live, inst.original_domains
    for name, table in kept.items():
        layout, want = counters.TABLES[name].layout, getattr(fresh, name)
        if layout is None:  # a dict keyed by (variable, value)
            keys = [(i, vals[i][p]) for i in range(inst.n) for p in bit_positions(live[i])]
            assert [table[key] for key in keys] == [want[key] for key in keys], name
            continue
        for where, cells in table.items():
            i, k = (where, where) if layout is counters._pair else where
            if layout is counters._along:
                k = i
            width = len(vals[k])
            for p in bit_positions(live[i]):
                if layout is counters._value:
                    assert cells[p] == want[where][p], (name, where, p)
                    continue
                mask = live[k] & ~(1 << p) if i == k else live[k]
                if name == "nb_subs":
                    mask &= ~engine.full[where][p]
                slots = [p * width + q for q in bit_positions(mask)]
                if slots:
                    get = itemgetter(*slots)
                    assert get(cells) == get(want[where]), (name, where, p)


@DEBUG_ONLY
def test_scss_tables_match_a_fresh_flat_build_at_every_step_on_300_values():
    compared = []

    def compare(engine):
        _assert_matches_a_fresh_build(engine)
        compared.append(len(engine.steps))

    (last,) = _run("scss", lambda step: False, compare)
    assert compared == list(range(1, last + 1))
