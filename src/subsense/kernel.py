"""The incremental kernel under the ns, ss, cns and scss engines.

Every rule keeps the block counters of plain neighbourhood substitution
(nb_blocks, block_vars) beneath its own tables.  Kernel owns what the four
engines share: the current instance, the counter tables, the ``updates``
count, the trace, the unsatisfiable flag, the debug recheck, the run loop,
the report, and the pass every elimination starts with, in which the
blocks through the removed value disappear at its variable's neighbours.
SnakeKernel adds the sub and stop cascades that ss and scss both keep.

A rule module adds its table choice (``BUILD``), worklist seeding and pop
policy (``_pop``), its witness builder and its own passes, appended to
``_propagate``.  The kernel calls the rule hooks only where a count flips.
Cells indexed by the removed value are read before they go stale and are
never written during a pass.  Each counter step, set change, flag change
and worklist push adds one to ``updates``.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterator, Optional

from . import counters
from .counters import subset1
from .instance import Instance
from .trace import EliminationRecord, ReductionReport, Trace, Witness


def conditioned(inst: Instance, uncovered: dict) -> Iterator[tuple[int, int, int]]:
    """Triples (i, b, j) whose conditioning values at x_j are all covered:
    the (variable, value, conditioning) triples with an empty ``uncovered``
    (or ``not_snake_covered``) set."""
    for i in range(inst.n):
        for b in inst.domains[i]:
            for j in inst.neighbors(i):
                if not uncovered[(i, b, j)]:
                    yield i, b, j


class Kernel:
    """Shared state and block propagation of one engine run."""

    RULE: str  # the rule the report names
    LABELS: tuple[str, ...]  # the record labels the report counts
    BUILD: str  # the counters builder of the rule's tables

    def __init__(self, inst: Instance):
        self.start = time.perf_counter_ns()
        self.initial = inst
        self.inst = inst
        # looked up at call time, so wrappers installed on counters see it
        self.tables = getattr(counters, self.BUILD)(inst)
        self.updates = self.tables.probes
        self.steps: list[EliminationRecord] = []
        self.unsat = False
        self.debug = counters.debug_recompute_enabled()

    def converge(self) -> tuple[Instance, Trace, ReductionReport]:
        """Eliminate until no candidate is left or a domain empties."""
        while (picked := self._pop()) is not None:
            r, u, rule, witness = picked
            if not self.eliminate(r, u, rule, witness):
                break
            self._propagate(r, u)
            if self.debug:
                self.verify()
        return self.report()

    def eliminate(self, r: int, u: int, rule: str, witness: Witness) -> bool:
        """Remove u from D(x_r) and record it; False once that domain is empty."""
        self.inst = self.inst.remove_value(r, u)
        self.steps.append(EliminationRecord(len(self.steps) + 1, rule, r, u, witness))
        self.unsat = not self.inst.domains[r]
        return not self.unsat

    def verify(self) -> None:
        """Recompute every kept table from its definition and compare."""
        kept = {name: t for name, t in vars(self.tables).items() if name != "probes"}
        counters.verify_tables(self.inst, **kept)

    def report(self) -> tuple[Instance, Trace, ReductionReport]:
        trace = Trace(self.initial.name, self.steps)
        report = ReductionReport(
            instance=self.initial.name,
            rules=(self.RULE,),
            eliminations={rule: trace.count(rule) for rule in self.LABELS},
            updates=self.updates,
            micros=(time.perf_counter_ns() - self.start) // 1000,
            initial_domain_sizes=tuple(len(d) for d in self.initial.domains),
            final_domain_sizes=tuple(len(d) for d in self.inst.domains),
            unsatisfiable=self.unsat,
        )
        return self.inst, trace, report

    # -- rule hooks -----------------------------------------------------------

    def _pop(self) -> Optional[tuple[int, int, str, Witness]]:
        """The next (variable, value, rule, witness) to eliminate, or None."""
        raise NotImplementedError

    def _substitutable(self, k: int, d: int, e: int) -> None:
        """block_vars(k,d,e) became empty: e plainly substitutes for d."""

    def _fits_within(self, k: int, d: int, e: int, i: int) -> None:
        """block_vars(k,d,e) newly fits inside {i}."""

    # -- propagation ----------------------------------------------------------

    def _propagate(self, r: int, u: int) -> None:
        """Blocks through u disappear at r's neighbours."""
        inst = self.inst
        nb_blocks = self.tables.nb_blocks
        block_vars = self.tables.block_vars
        for k in inst.neighbors(r):
            row = inst.rows[(k, r)]
            dom_k = inst.domains[k]
            for d in dom_k:
                if u not in row[d]:
                    continue
                for e in dom_k:
                    if e == d or u in row[e]:
                        continue
                    cell = (k, d, e, r)
                    nb_blocks[cell] -= 1
                    self.updates += 1
                    left = nb_blocks[cell]
                    if left < 0:
                        raise RuntimeError(f"nb_blocks{cell} went negative")
                    if left:
                        continue
                    holders = block_vars[(k, d, e)]
                    holders.remove(r)
                    self.updates += 1
                    if not holders:
                        self._substitutable(k, d, e)
                        for i in inst.neighbors(k):
                            if i != r:
                                self._fits_within(k, d, e, i)
                    elif len(holders) == 1:
                        (i,) = holders
                        self._fits_within(k, d, e, i)

    # -- helpers shared by several rules --------------------------------------

    def _substitutions(self) -> Iterator[tuple[int, int, int]]:
        """Triples (i, b, a) where a replaces b at x_i with no block anywhere."""
        block_vars = self.tables.block_vars
        for i in range(self.inst.n):
            dom = self.inst.domains[i]
            for b in dom:
                for a in dom:
                    if a != b and not block_vars[(i, b, a)]:
                        yield i, b, a

    def _conditioning_gone(self, r: int, u: int, uncovered: dict, work: deque) -> None:
        """u no longer serves as a conditioning value at x_r."""
        for i in self.inst.neighbors(r):
            for b in self.inst.domains[i]:
                values = uncovered[(i, b, r)]
                if u in values:
                    values.remove(u)
                    self.updates += 1
                    if not values:
                        work.append((i, b, r))
                        self.updates += 1

    def _swaps(
        self, r: int, u: int, a: int, skip: Optional[int] = None
    ) -> dict[int, dict[int, int]]:
        """For each neighbour x_k of x_r other than ``skip``, a replacement
        compatible with a and blocked at most at x_r for every value of x_k
        that supports u but not a."""
        swaps: dict[int, dict[int, int]] = {}
        block_vars = self.tables.block_vars
        for k in self.inst.neighbors(r):
            if k == skip:
                continue
            row = self.inst.rows[(r, k)]
            row_u = row[u]
            row_a = row[a]
            needed: dict[int, int] = {}
            for d in self.inst.domains[k]:
                if d not in row_u or d in row_a:
                    continue
                for e in self.inst.domains[k]:
                    if e in row_a and subset1(block_vars[(k, d, e)], r):
                        needed[d] = e
                        break
                else:
                    raise RuntimeError(
                        f"no replacement at x{k} for {d} when x{r}={u} yields to {a}"
                    )
            if needed:
                swaps[k] = needed
        return swaps


class SnakeKernel(Kernel):
    """Kernel plus the sub and stop counters of snake substitution
    (nb_subs, nb_stops, stop_vars)."""

    def _fits_within(self, k: int, d: int, e: int, i: int) -> None:
        # e becomes a sub for d in the context of each a at x_i it supports
        row = self.inst.rows[(i, k)]
        for a in self.inst.domains[i]:
            row_a = row[a]
            if d not in row_a and e in row_a:
                self._inc_subs(i, a, k, d)

    def _propagate(self, r: int, u: int) -> None:
        super()._propagate(r, u)
        inst = self.inst
        tables = self.tables
        # u no longer counts as a sub at r
        for i in inst.neighbors(r):
            row = inst.rows[(i, r)]
            for a in inst.domains[i]:
                row_a = row[a]
                if u not in row_a:
                    continue
                for d in inst.domains[r]:
                    if d not in row_a and subset1(tables.block_vars[(r, d, u)], i):
                        self._dec_subs(i, a, r, d)
        # u no longer counts as a stop at r
        for i in inst.neighbors(r):
            row = inst.rows[(i, r)]
            for a in inst.domains[i]:
                if u in row[a] or tables.nb_subs[(i, a, r, u)] != 0:
                    continue
                for b in inst.domains[i]:
                    if u in row[b]:
                        self.dec_stops(i, a, b, r)

    # -- rule hooks -----------------------------------------------------------

    def _stop_var_removed(self, i: int, a: int, b: int, k: int, holders: set) -> None:
        """stop_vars(i,a,b) lost x_k; ``holders`` is the set after the change."""

    def _stop_var_added(self, i: int, a: int, b: int, k: int, holders: set) -> None:
        """stop_vars(i,a,b) gained x_k; ``holders`` is the set after the change."""

    def _sub_flipped(self, i: int, a: int, k: int, d: int, gained: bool) -> None:
        """nb_subs(i,a,k,d) rose from zero (gained) or fell to zero."""

    # -- cascades -------------------------------------------------------------

    def _inc_subs(self, i: int, a: int, k: int, d: int) -> None:
        nb_subs = self.tables.nb_subs
        cell = (i, a, k, d)
        nb_subs[cell] += 1
        self.updates += 1
        if nb_subs[cell] != 1:
            return
        # d stops stopping replacements by a
        row = self.inst.rows[(i, k)]
        for b in self.inst.domains[i]:
            if d in row[b]:
                self.dec_stops(i, a, b, k)
        self._sub_flipped(i, a, k, d, True)

    def _dec_subs(self, i: int, a: int, k: int, d: int) -> None:
        nb_subs = self.tables.nb_subs
        cell = (i, a, k, d)
        nb_subs[cell] -= 1
        self.updates += 1
        if nb_subs[cell] < 0:
            raise RuntimeError(f"nb_subs{cell} went negative")
        if nb_subs[cell]:
            return
        # d resumes stopping replacements by a
        row = self.inst.rows[(i, k)]
        for b in self.inst.domains[i]:
            if d in row[b]:
                self.inc_stops(i, a, b, k)
        self._sub_flipped(i, a, k, d, False)

    def dec_stops(self, i: int, a: int, b: int, k: int) -> None:
        """A stop against replacing b by a at x_i vanished at x_k.  A count
        falling below zero signals an internal-consistency bug."""
        nb_stops = self.tables.nb_stops
        cell = (i, a, b, k)
        nb_stops[cell] -= 1
        self.updates += 1
        if nb_stops[cell] < 0:
            raise RuntimeError(f"nb_stops{cell} went negative")
        if nb_stops[cell]:
            return
        holders = self.tables.stop_vars[(i, a, b)]
        holders.remove(k)
        self.updates += 1
        self._stop_var_removed(i, a, b, k, holders)

    def inc_stops(self, i: int, a: int, b: int, k: int) -> None:
        """Mirror of dec_stops for a stop that reappeared at x_k."""
        nb_stops = self.tables.nb_stops
        cell = (i, a, b, k)
        nb_stops[cell] += 1
        self.updates += 1
        if nb_stops[cell] != 1:
            return
        holders = self.tables.stop_vars[(i, a, b)]
        holders.add(k)
        self.updates += 1
        self._stop_var_added(i, a, b, k, holders)
