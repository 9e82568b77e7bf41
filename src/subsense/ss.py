"""Snake substitution to convergence with incremental counters.

The engine keeps the full counter stack of counters.build_ss.  A value b of
x_r is eliminable once some other value a has no stop variable left
(nb_snake(r,b) > 0) or b has lost all support somewhere (inconsistent).
Candidates, by value position, live in a two-class FIFO worklist: pairs
queued because of a plain substitution or a lost support go to the high
class, pairs queued because a snake substitution appeared go to the low
class.  Classes are fixed when a pair is pushed; on popping, a pair is
revalidated and labelled by the strongest rule that applies (ac over ns
over ss).  The tables choose the label and an ns substitute; an ac or ss
witness is what ``oracle.is_ac`` or ``oracle.is_ss`` gives on the working
snapshot.

Deleting u from D(x_r) runs the block, sub and stop passes of
kernel.SnakeKernel; nb_snake takes one step up for each stop_vars mask that
empties and one down for each that gains its first bit.  Two passes follow:
values whose last support at r was u are flagged inconsistent, and u stops
counting as a replacement for r's remaining values.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from . import counters
from .acns import require_arc_consistent
from .instance import Instance
from .counters import bit_positions
from .kernel import SnakeKernel
from .oracle import is_ac, is_ss
from .trace import AC, NS, SS, NsWitness, ReductionReport, Trace


class SsEngine(SnakeKernel):
    RULE = SS
    LABELS = (AC, NS, SS)
    BUILD = "build_ss"

    def __init__(self, inst: Instance, held: Optional[counters.Held] = None):
        super().__init__(inst, held)
        self.high: deque[tuple[int, int]] = deque()
        self.low: deque[tuple[int, int]] = deque()
        # arc-consistent input: nothing is inconsistent yet
        snake = self.tables.nb_snake
        for i, live_i in enumerate(self.live):
            for b in bit_positions(live_i):
                if snake[(i, self.vals[i][b])] > 0:
                    if self._ns_substitute(i, b) is None:
                        self.low.append((i, b))
                    else:
                        self.high.append((i, b))
                    self.updates += 1

    def _pop(self):
        snake, inconsistent = self.tables.nb_snake, self.tables.inconsistent
        while self.high or self.low:
            r, u = (self.high or self.low).popleft()
            key = (r, self.vals[r][u])
            if self.live[r] >> u & 1 and (snake[key] or inconsistent[key]):
                return (r, u, *self._classify(r, u))
        return None

    # -- labelling ----------------------------------------------------------

    def _ns_substitute(self, r: int, u: int) -> Optional[int]:
        """The position of the first value of x_r that plainly substitutes
        for the value at position u, or None."""
        block_vars = self.tables.block_vars[r]
        base = u * len(self.pos[r])
        for a in bit_positions(self.live[r] & ~(1 << u)):
            if not block_vars[base + a]:
                return a
        return None

    def _classify(self, r: int, u: int):
        """The label the tables give the value at position u of x_r, and its
        witness: an ac or ss one is the oracle's."""
        value = self.vals[r][u]
        if self.tables.inconsistent[(r, value)]:
            witness = is_ac(self.inst, r, value)
            if witness is None:
                raise RuntimeError(f"x{r}={value} is flagged inconsistent but has support")
            return AC, witness
        a = self._ns_substitute(r, u)
        if a is not None:
            return NS, NsWitness(substitute=self.vals[r][a])
        witness = is_ss(self.inst, r, value)
        if witness is None:
            raise RuntimeError(f"queued pair x{r}={value} has no eliminating value")
        return SS, witness

    # -- propagation --------------------------------------------------------

    def _propagate(self, r: int, u: int) -> None:
        super()._propagate(r, u)
        inconsistent = self.tables.inconsistent
        live_r = self.live[r]
        # values whose last support at r was u: only those that u supports
        # can have lost it
        newly_flagged: list[tuple[int, int]] = []
        for i in self.inst.neighbors(r):
            full_i, vals_i = self.full[(i, r)], self.vals[i]
            for p in bit_positions(self.full[(r, i)][u] & self.live[i]):
                v = vals_i[p]
                if full_i[p] & live_r or inconsistent[(i, v)]:
                    continue
                inconsistent[(i, v)] = True
                self.high.append((i, p))
                self.updates += 2
                newly_flagged.append((i, v))
        # u no longer counts as a replacement for r's remaining values
        stop_vars = self.tables.stop_vars[r]
        base = u * len(self.pos[r])
        for b in bit_positions(live_r):
            if not stop_vars[base + b]:
                self._step_snake(r, b, -1)
        if self.debug and self.steps[-1].rule == AC and newly_flagged:
            raise AssertionError(
                "support-loss deletions are not expected to expose "
                f"further unsupported values, yet {newly_flagged} appeared"
            )

    def _substitutable(self, k: int, d: int, e: int) -> None:
        self.high.append((k, d))
        self.updates += 1

    def _stop_var_changed(self, i: int, a: int, b: int, k: int, holders: int, delta: int) -> None:
        # a replaces b with swaps exactly while stop_vars(i,a,b) is empty
        if not holders & ~self.nbit[i][k]:
            self._step_snake(i, b, -delta)

    def _step_snake(self, i: int, b: int, delta: int) -> None:
        """nb_snake(i,b) moves by ``delta``; a rise to one queues (i,b)."""
        snake, key = self.tables.nb_snake, (i, self.vals[i][b])
        left = snake[key] = snake[key] + delta
        self.updates += 1
        if left < 0:
            raise RuntimeError(f"nb_snake{key} went negative")
        if delta > 0 and left == 1:
            self.low.append((i, b))
            self.updates += 1


def ss_to_convergence(
    inst: Instance, *, held: Optional[counters.Held] = None
) -> tuple[Instance, Trace, ReductionReport]:
    """Apply snake substitution (with its plain and support-loss special
    cases) until no eliminable value remains.

    The input must be arc consistent (ValueError otherwise).  Each record is
    labelled by the strongest rule that applied at its moment: ``ac`` when
    the value had lost all support somewhere, ``ns`` when an unswapped
    substitute existed, ``ss`` otherwise.  If a domain empties the run stops
    and the report is flagged unsatisfiable.
    ``held``, a pool of counter tables (counters.Held), gives the run the
    tables it holds and takes back the run's own (see kernel.Kernel).
    """
    require_arc_consistent(inst, "ss_to_convergence")
    return SsEngine(inst, held).converge()
