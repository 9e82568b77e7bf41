"""Snake-conditioned snake substitution to convergence, plus trace replay.

SCSS is the strongest of the elimination rules here: b at x_i goes when,
for some conditioning neighbour x_j, every c compatible with b has a snake
cover a (a takes c directly or has a sub for it, and stops at most at x_j).
It needs no arc-consistency precondition; unsupported values fall out as
vacuous cases.

The engine keeps the tables of counters.build_scss.  The block, sub and
stop counters with their passes come from kernel.SnakeKernel, and the cover
layer that scss shares with cns from kernel.CoverKernel.  This module states
only what a snake cover is: a fits when stop_vars(i,a,b) fits inside {j},
which the stop cascade reports through its two stop hooks, and a reaches c
when it takes c or has a sub for it, which changes when nb_subs flips
between zero and one.

Variables with no constraints at all sit outside the edge-indexed tables,
so the engine pops their eliminations first (any value substitutes for any
other when nothing is constrained).  Replay certifies each step of a trace
with ``oracle.certify``.
"""

from __future__ import annotations

from collections import deque

from . import counters, oracle
from .counters import pair_index
from .instance import Instance
from .kernel import CoverKernel, SnakeKernel, conditioned
from .trace import (
    NS,
    RULES,
    SCSS,
    SS,
    AcWitness,
    CnsWitness,
    EliminationRecord,
    ReductionReport,
    ScssCover,
    ScssWitness,
    Trace,
)


def check_scss(inst: Instance) -> list[tuple[int, int, int]]:
    """All (variable, value, conditioning) triples eliminable right now
    whose conditioning variable is a constrained neighbour of the variable.

    Builds the counter tables for the current domains without mutating
    anything; a triple qualifies when every conditioning value compatible
    with the value has a snake cover.  A variable with no constraint may be
    conditioned on any other variable, as ``oracle.is_scss`` and the engine
    do, but none of its triples is listed.
    """
    return list(conditioned(inst, counters.build_scss(inst).not_snake_covered))


class ScssEngine(CoverKernel, SnakeKernel):
    RULE = SCSS
    LABELS = (SCSS,)
    BUILD = "build_scss"
    COVERS = "nb_snake_covers"
    UNCOVERED = "not_snake_covered"

    def __init__(self, inst: Instance):
        super().__init__(inst)
        # the counter tables cover only constrained variables; before anything
        # else goes, each variable with no constraint sheds all but one value
        self.unconstrained = deque(
            i for i in range(inst.n) if inst.n > 1 and not inst.neighbors(i)
        )

    def _pop(self):
        while self.unconstrained:
            i = self.unconstrained[0]
            if len(self.inst.domains[i]) > 1:
                b = self.inst.domains[i][0]
                return i, b, SCSS, self._unconstrained_witness(i, b)
            self.unconstrained.popleft()
        return self._pop_conditioned()

    def _fits(self, i: int, b: int, a: int, j: int) -> bool:
        return not self.tables.stop_vars[i][pair_index(self.pos, i, a, i, b)] & ~self.nbit[i][j]

    def _reaches(self, i: int, a: int, j: int, c: int) -> bool:
        return (
            c in self.inst.rows[(i, j)][a]
            or self.tables.nb_subs[(i, j)][pair_index(self.pos, i, a, j, c)] > 0
        )

    def _unconstrained_witness(self, i: int, b: int) -> ScssWitness:
        # condition on the smallest other variable: with no constraint on
        # x_i, any other a takes every value of x_j and needs no snake swaps
        j = 1 if i == 0 else 0
        a = next(v for v in self.inst.domains[i] if v != b)
        return ScssWitness(
            conditioning=j,
            covers={
                c: ScssCover(a, self._conditioning_swap(i, j, a, c), {})
                for c in self.inst.domains[j]
            },
        )

    # -- witness construction ------------------------------------------------

    def _witness(self, r: int, u: int, t: int) -> ScssWitness:
        swap_cache: dict[int, dict[int, dict[int, int]]] = {}
        covers: dict[int, ScssCover] = {}
        for c, a in self._first_covers(r, u, t).items():
            if a not in swap_cache:
                swap_cache[a] = self._swaps(r, u, a, skip=t)
            g = self._conditioning_swap(r, t, a, c)
            covers[c] = ScssCover(a, g, swap_cache[a])
        return ScssWitness(conditioning=t, covers=covers)

    def _conditioning_swap(self, r: int, t: int, a: int, c: int) -> int:
        """The swap g for c at x_t that a at x_r takes."""
        row = self.inst.rows.get((r, t))
        g = self._swap(t, c, self.inst.domain_set(t) if row is None else row[a], r)
        if g is None:
            raise RuntimeError(f"no conditioning swap for x{t}={c} toward {a}")
        return g

    # -- cover scope and reach ------------------------------------------------

    def _sub_flipped(self, i: int, a: int, k: int, d: int, gained: bool) -> None:
        # a starts (or stops) reaching conditioning value d at x_k
        step = self._cover_up if gained else self._cover_down
        for b in self.inst.domains[i]:
            if b != a and self._fits(i, b, a, k):
                step(i, b, k, d)

    def _stop_var_added(self, i: int, a: int, b: int, k: int, holders: int) -> None:
        for j in self._fit_changes(i, holders, k):
            self._scope_changed(i, b, a, j, self._cover_down)

    def _stop_var_removed(self, i: int, a: int, b: int, k: int, holders: int) -> None:
        for j in self._fit_changes(i, holders, k):
            self._scope_changed(i, b, a, j, self._cover_up)


def scss_to_convergence(inst: Instance) -> tuple[Instance, Trace, ReductionReport]:
    """Apply snake-conditioned snake substitution until no eliminable value
    remains.

    No precondition: the rule subsumes support-based removal, so values
    without support fall out along the way.  If a domain empties the run
    stops and the report is flagged unsatisfiable.
    """
    return ScssEngine(inst).converge()


# -- replay -------------------------------------------------------------------


class ReplayError(ValueError):
    """A claimed elimination step failed certification."""


def replay_steps(trace: Trace) -> tuple[list[tuple[int, ...]], list[str]]:
    """The steps and rules of a trace as ``replay_sequence`` takes them:
    each step carries the conditioning variable of a cns or scss witness,
    or the variable an ac witness names, when it has one."""
    steps, rules = [], []
    for rec in trace.steps:
        cond = None
        if isinstance(rec.witness, (CnsWitness, ScssWitness)):
            cond = rec.witness.conditioning
        elif isinstance(rec.witness, AcWitness):
            cond = rec.witness.unsupported_at
        step = (rec.variable, rec.value)
        steps.append(step if cond is None else (*step, cond))
        rules.append(rec.rule)
    return steps, rules


def replay_sequence(inst: Instance, steps, rules=None):
    """Apply a claimed elimination sequence, certifying every step at its
    moment.

    ``steps`` holds (variable, value) or (variable, value, conditioning)
    tuples; ``rules`` is an optional parallel list of rule names, default
    ``scss``.  Conditioned rules are certified against the given
    conditioning variable when one is present, otherwise against any; an
    ns or ss step with a third element fails.
    Returns the reduced instance and a trace carrying the certifying
    witnesses; raises ReplayError naming the first step that fails.
    """
    steps = list(steps)
    if rules is None:
        rules = [SCSS] * len(steps)
    rules = list(rules)
    if len(rules) != len(steps):
        raise ValueError("need exactly one rule per step")
    cur = inst
    records: list[EliminationRecord] = []
    for pos, step in enumerate(steps, start=1):
        step = tuple(step)
        if len(step) == 2:
            i, b = step
            j = None
        elif len(step) == 3:
            i, b, j = step
        else:
            raise ValueError(f"step {pos}: expected (variable, value[, conditioning])")
        rule = rules[pos - 1]
        if rule not in RULES:
            raise ValueError(f"step {pos}: unknown rule {rule!r}")
        if j is not None and rule in (NS, SS):
            raise ReplayError(f"step {pos} ({rule}): the rule takes no third element, got {j}")
        for v in (i,) if j is None else (i, j):
            if not 0 <= v < cur.n:
                raise ReplayError(f"step {pos} ({rule}): no variable with index {v}")
        label = f"step {pos} ({rule} at {cur.names[i]}={b})"
        if j == i:
            raise ReplayError(f"{label}: the conditioning variable must differ from the target")
        if b not in cur.domain_set(i):
            raise ReplayError(f"{label}: value not in the current domain")
        witness = oracle.certify(rule, cur, i, b, j)
        if witness is None:
            raise ReplayError(f"{label}: the rule does not hold at this point")
        cur = cur.remove_value(i, b)
        records.append(EliminationRecord(pos, rule, i, b, witness))
    return cur, Trace(inst.name, records)
