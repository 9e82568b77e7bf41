"""Snake-conditioned snake substitution to convergence.

SCSS is the strongest of the elimination rules here: b at x_i goes when,
for some conditioning neighbour x_j, every c compatible with b has a snake
cover a (a takes c directly or has a sub for it, and stops at most at x_j).
It needs no arc-consistency precondition; unsupported values fall out as
vacuous cases.

The engine keeps the tables of counters.build_scss.  The block, sub and
stop counters with their passes come from kernel.SnakeKernel, and the cover
layer that scss shares with cns from kernel.CoverKernel.  This module states
only what a snake cover is, as masks over value positions: a's holder mask
for b is stop_vars(i,a,b), which fits inside {j} when it has no bit but
j's, as ``_stop_var_changed`` reports, and a's reach at x_j is its full row
mask plus the live c that it does not take but has a sub for
(nb_subs > 0), read from the table at the moment, as ``_sub_flipped``
reports.  Both hand the cover step a ``delta``: -1 for a stop var gained or
a last sub lost, +1 otherwise.  The witness of each step is the one
``oracle.scss_with_conditioning`` gives for the popped triple.

Variables with no constraints at all sit outside the edge-indexed tables,
so the engine pops their eliminations first (any value substitutes for any
other when nothing is constrained), each with ``oracle.is_scss``'s witness.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from . import counters
from .instance import Instance
from .counters import bit_positions
from .kernel import CoverKernel, SnakeKernel
# replay_sequence is re-exported: perfbench calls scss.replay_sequence and wraps it here
from .oracle import is_scss, replay_sequence, scss_with_conditioning
from .trace import SCSS, ReductionReport, Trace


def check_scss(inst: Instance) -> list[tuple[int, int, int]]:
    """All (variable, value, conditioning) triples eliminable right now
    whose conditioning variable is a constrained neighbour of the variable.

    These are the triples an engine starts its conditioned worklist with: it
    builds the counter tables for the current domains without mutating
    anything, and a triple qualifies when every conditioning value
    compatible with the value has a snake cover.  A variable with no
    constraint may be conditioned on any other variable, as
    ``oracle.is_scss`` and the engine do, but none of its triples is listed.
    """
    vals = inst.original_domains
    return [(i, vals[i][b], j) for i, b, j in ScssEngine(inst).conditioned_work]


class ScssEngine(CoverKernel, SnakeKernel):
    RULE = SCSS
    LABELS = (SCSS,)
    BUILD = "build_scss"
    COVERS = "nb_snake_covers"
    UNCOVERED = "not_snake_covered"
    CHECK = staticmethod(scss_with_conditioning)

    def __init__(self, inst: Instance, held: Optional[counters.Held] = None):
        super().__init__(inst, held)
        # the counter tables cover only constrained variables; before anything
        # else goes, each variable with no constraint sheds all but one value
        self.unconstrained = deque(
            i for i in range(inst.n) if inst.n > 1 and not inst.neighbors(i)
        )

    def _pop(self):
        while self.unconstrained:
            i = self.unconstrained[0]
            live_ps = bit_positions(self.live[i])
            if len(live_ps) > 1:
                return i, live_ps[0], SCSS, is_scss(self.inst, i, self.vals[i][live_ps[0]])
            self.unconstrained.popleft()
        return self._pop_conditioned()

    def _holders(self, i: int, b: int, a: int) -> int:
        return self.tables.stop_vars[self.pairs[i] + a * len(self.pos[i]) + b]

    def _reach(self, i: int, a: int, j: int) -> int:
        # a's row, plus each live value it does not take but has a sub for
        reach = row = self.full[(i, j)][a]
        subs = self.tables.nb_subs
        base = self.across[(i, j)] + a * len(self.pos[j])
        for c in bit_positions(self.live[j] & ~row):
            if subs[base + c]:
                reach |= 1 << c
        return reach

    # -- cover scope and reach ------------------------------------------------

    def _sub_flipped(self, i: int, a: int, k: int, d: int, delta: int) -> None:
        # a starts (or stops) reaching conditioning value d at x_k
        for b in bit_positions(self.live[i] & ~(1 << a)):
            if self._fits(i, b, a, k):
                self._step_cover(i, b, k, 1 << d, delta)

    def _stop_var_changed(self, i: int, a: int, b: int, k: int, holders: int, delta: int) -> None:
        # a stop var more narrows a's scope for b, one fewer widens it
        for j in self._fit_changes(i, holders, k):
            self._scope_changed(i, b, a, j, -delta)


def scss_to_convergence(
    inst: Instance, *, held: Optional[counters.Held] = None
) -> tuple[Instance, Trace, ReductionReport]:
    """Apply snake-conditioned snake substitution until no eliminable value
    remains.

    No precondition: the rule subsumes support-based removal, so values
    without support fall out along the way.  If a domain empties the run
    stops and the report is flagged unsatisfiable.
    ``held``, a pool of counter tables (counters.Held), gives the run the
    tables it holds and takes back the run's own (see kernel.Kernel).
    """
    return ScssEngine(inst, held).converge()
