"""The incremental kernel under the ns, ss, cns and scss engines.

Every rule keeps the block counters of plain neighbourhood substitution
(nb_blocks, block_vars) beneath its own tables.  Kernel owns what the four
engines share: the current instance, the counter tables, the ``updates``
count, the trace, the unsatisfiable flag, the debug recheck, the run loop,
the report, and the pass every elimination starts with, in which the
blocks through the removed value disappear at its variable's neighbours.
Three layers sit on it:

- SnakeKernel adds the sub and stop cascades that ss and scss both keep.
- Substitutions adds the worklist of plain substitutions that ns and cns
  both pop.
- CoverKernel adds the cover layer that cns and scss share: the cover
  counters and uncovered masks, the conditioned worklist, the pass in which
  a removed value stops covering, the scope change and the first-cover
  search.  Each of the two rules states only its fit and reach predicates.

A rule module adds its table choice (``BUILD``), its pop policy
(``_pop``), its witness builder and its own passes, appended to
``_propagate``.  ``converge`` is the one elimination loop: a rule never
removes a value outside it.  Every swap in a witness (a value of x_k that
stands in for d) comes from ``_swap``, which reads ``block_vars``.  The
kernel calls the rule hooks only where a count flips.

The count, holder and uncovered tables are flat lists indexed by value
position (``Instance.positions``), laid out as ``counters.TABLES`` states;
each pass computes its slots inline.  A holder cell is an int mask with
the bit ``nbit[k][l]`` for each neighbour x_l of x_k that holds it; an
uncovered cell is an int mask over the value positions of the
conditioning variable.  Slots indexed by the removed value are read before
they go stale, are never written during a pass, and are never read after
it.  Each counter step, bit set or cleared, flag change and worklist push
adds one to ``updates``; clearing a bit that is not set is an error.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterable, Iterator, Optional

from . import counters
from .counters import pair_index
from .instance import Instance
from .trace import NS, EliminationRecord, NsWitness, ReductionReport, Trace, Witness


def conditioned(inst: Instance, uncovered: dict) -> Iterator[tuple[int, int, int]]:
    """Triples (i, b, j) whose conditioning values at x_j are all covered:
    the (variable, value, conditioning) triples with an empty ``uncovered``
    (or ``not_snake_covered``) mask."""
    for i in range(inst.n):
        pos_i = inst.positions[i]
        for b in inst.domains[i]:
            p = pos_i[b]
            for j in inst.neighbors(i):
                if not uncovered[(i, j)][p]:
                    yield i, b, j


def _cleared(mask: int, bit: int, name: str, key: tuple, member: int) -> int:
    """``mask`` without ``bit``, which stands for ``member`` in the cell
    ``key`` of the mask table ``name``.  A bit that is not set signals an
    internal-consistency bug."""
    if not mask & bit:
        raise RuntimeError(f"{name}{key} does not hold {member}")
    return mask ^ bit


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
        self.pos = inst.positions
        self.nbit = counters.static_masks(inst).nbit
        self.updates = self.tables.probes
        self.steps: list[EliminationRecord] = []
        self.unsat = inst.unsatisfiable
        self.debug = counters.debug_recompute_enabled()

    def converge(self) -> tuple[Instance, Trace, ReductionReport]:
        """Eliminate until no candidate is left or a domain is empty."""
        while not self.unsat and (picked := self._pop()) is not None:
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
        for k in inst.neighbors(r):
            row = inst.rows[(k, r)]
            dom_k = inst.domains[k]
            blocks = self.tables.nb_blocks[(k, r)]
            block_vars = self.tables.block_vars[k]
            bit_r = self.nbit[k][r]
            pos_k = self.pos[k]
            size_k = len(pos_k)
            for d in dom_k:
                if u not in row[d]:
                    continue
                base = pos_k[d] * size_k  # pair_index, hoisted out of the e loop
                for e in dom_k:
                    if e == d or u in row[e]:
                        continue
                    cell = base + pos_k[e]
                    blocks[cell] -= 1
                    self.updates += 1
                    left = blocks[cell]
                    if left < 0:
                        raise RuntimeError(f"nb_blocks{(k, d, e, r)} went negative")
                    if left:
                        continue
                    holders = _cleared(block_vars[cell], bit_r, "block_vars", (k, d, e), r)
                    block_vars[cell] = holders
                    self.updates += 1
                    if not holders:
                        self._substitutable(k, d, e)
                    for i in self._fit_changes(k, holders, r):
                        self._fits_within(k, d, e, i)

    def _fit_changes(self, i: int, holders: int, k: int) -> Iterable[int]:
        """The x_j such that ``holders``, a holder mask at x_i that x_k just
        left or joined, newly fits inside {j} or stops fitting inside it.
        ``holders`` is the mask after the change."""
        rest = holders & ~self.nbit[i][k]
        if not rest:
            return [j for j in self.inst.neighbors(i) if j != k]
        if rest.bit_count() == 1:
            return (self.inst.neighbors(i)[rest.bit_length() - 1],)
        return ()

    # -- helpers shared by several rules --------------------------------------

    def _swap(self, k: int, d: int, takes, r: int) -> Optional[int]:
        """The smallest e of x_k in ``takes`` that is d itself or is blocked
        at most at x_r, or None: e stands in for d on every neighbour of x_k
        but x_r, which need not be a neighbour of x_k."""
        block_vars = self.tables.block_vars[k]
        pos_k = self.pos[k]
        base = pos_k[d] * len(pos_k)
        others = ~self.nbit[k].get(r, 0)
        for e in self.inst.domains[k]:
            if e in takes and (e == d or not block_vars[base + pos_k[e]] & others):
                return e
        return None

    def _swaps(
        self, r: int, u: int, a: int, skip: Optional[int] = None
    ) -> dict[int, dict[int, int]]:
        """For each neighbour x_k of x_r other than ``skip``, the swap that a
        takes for every value of x_k that supports u but not a."""
        swaps: dict[int, dict[int, int]] = {}
        for k in self.inst.neighbors(r):
            if k == skip:
                continue
            row_u, row_a = self.inst.rows[(r, k)][u], self.inst.rows[(r, k)][a]
            needed = {
                d: self._swap(k, d, row_a, r)
                for d in self.inst.domains[k]
                if d in row_u and d not in row_a
            }
            if None in needed.values():
                raise RuntimeError(f"no replacement at x{k} when x{r}={u} yields to {a}")
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
        block_vars = tables.block_vars[r]
        pos_r = self.pos[r]
        size_r, pos_u = len(pos_r), pos_r[u]
        for i in inst.neighbors(r):
            row = inst.rows[(i, r)]
            others = ~self.nbit[r][i]
            for a in inst.domains[i]:
                row_a = row[a]
                if u not in row_a:
                    continue
                for d in inst.domains[r]:
                    if d not in row_a and not block_vars[pos_r[d] * size_r + pos_u] & others:
                        self._dec_subs(i, a, r, d)
        # u no longer counts as a stop at r
        for i in inst.neighbors(r):
            row = inst.rows[(i, r)]
            subs = tables.nb_subs[(i, r)]
            for a in inst.domains[i]:
                if u in row[a] or subs[pair_index(self.pos, i, a, r, u)] != 0:
                    continue
                for b in inst.domains[i]:
                    if u in row[b]:
                        self.dec_stops(i, a, b, r)

    # -- rule hooks -----------------------------------------------------------

    def _stop_var_removed(self, i: int, a: int, b: int, k: int, holders: int) -> None:
        """stop_vars(i,a,b) lost x_k; ``holders`` is the mask after the change."""

    def _stop_var_added(self, i: int, a: int, b: int, k: int, holders: int) -> None:
        """stop_vars(i,a,b) gained x_k; ``holders`` is the mask after the change."""

    def _sub_flipped(self, i: int, a: int, k: int, d: int, gained: bool) -> None:
        """nb_subs(i,a,k,d) rose from zero (gained) or fell to zero."""

    # -- cascades -------------------------------------------------------------

    def _inc_subs(self, i: int, a: int, k: int, d: int) -> None:
        subs = self.tables.nb_subs[(i, k)]
        cell = pair_index(self.pos, i, a, k, d)
        subs[cell] += 1
        self.updates += 1
        if subs[cell] != 1:
            return
        # d stops stopping replacements by a
        row = self.inst.rows[(i, k)]
        for b in self.inst.domains[i]:
            if d in row[b]:
                self.dec_stops(i, a, b, k)
        self._sub_flipped(i, a, k, d, True)

    def _dec_subs(self, i: int, a: int, k: int, d: int) -> None:
        subs = self.tables.nb_subs[(i, k)]
        cell = pair_index(self.pos, i, a, k, d)
        subs[cell] -= 1
        self.updates += 1
        if subs[cell] < 0:
            raise RuntimeError(f"nb_subs{(i, a, k, d)} went negative")
        if subs[cell]:
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
        stops = self.tables.nb_stops[(i, k)]
        cell = pair_index(self.pos, i, a, i, b)
        stops[cell] -= 1
        self.updates += 1
        if stops[cell] < 0:
            raise RuntimeError(f"nb_stops{(i, a, b, k)} went negative")
        if stops[cell]:
            return
        stop_vars = self.tables.stop_vars[i]
        holders = _cleared(stop_vars[cell], self.nbit[i][k], "stop_vars", (i, a, b), k)
        stop_vars[cell] = holders
        self.updates += 1
        self._stop_var_removed(i, a, b, k, holders)

    def inc_stops(self, i: int, a: int, b: int, k: int) -> None:
        """Mirror of dec_stops for a stop that reappeared at x_k."""
        stops = self.tables.nb_stops[(i, k)]
        cell = pair_index(self.pos, i, a, i, b)
        stops[cell] += 1
        self.updates += 1
        if stops[cell] != 1:
            return
        stop_vars = self.tables.stop_vars[i]
        holders = stop_vars[cell] | self.nbit[i][k]
        stop_vars[cell] = holders
        self.updates += 1
        self._stop_var_added(i, a, b, k, holders)


class Substitutions(Kernel):
    """Kernel plus the FIFO worklist of plain substitution triples
    (variable, value, substitute) that ns and cns keep."""

    def __init__(self, inst: Instance):
        super().__init__(inst)
        block_vars = self.tables.block_vars
        self.substitutions = deque(
            (i, b, a)
            for i in range(inst.n)
            for b in inst.domains[i]
            for a in inst.domains[i]
            if a != b and not block_vars[i][pair_index(self.pos, i, b, i, a)]
        )
        self.updates += len(self.substitutions)

    def _pop_substitution(self) -> Optional[tuple[int, int, str, Witness]]:
        """The next triple whose value and substitute are both still live."""
        while self.substitutions:
            i, b, a = self.substitutions.popleft()
            dom = self.inst.domain_set(i)
            if b in dom and a in dom:
                return i, b, NS, NsWitness(substitute=a)
        return None

    _pop = _pop_substitution

    def _substitutable(self, k: int, d: int, e: int) -> None:
        self.substitutions.append((k, d, e))
        self.updates += 1


class CoverKernel(Kernel):
    """Kernel plus the cover layer of the conditioned rules cns and scss.

    b at x_i is eliminable conditioned by a neighbour x_j when every c in
    D(x_j) compatible with b has a cover: a value a != b whose holder set
    for b fits inside {j} (``_fits``) and that reaches c (``_reaches``).  A
    rule states only those two predicates.  The layer keeps the cover count
    of every cell (i,b,j,c) in the table named by COVERS, the compatible
    values without a cover of every (i,b,j), as a mask, in the table named
    by UNCOVERED, and a FIFO worklist of the triples (i,b,j) whose mask
    emptied.
    """

    COVERS: str
    UNCOVERED: str

    def __init__(self, inst: Instance):
        super().__init__(inst)
        self.covers = getattr(self.tables, self.COVERS)
        self.uncovered = getattr(self.tables, self.UNCOVERED)
        self.conditioned_work = deque(conditioned(inst, self.uncovered))
        self.updates += len(self.conditioned_work)

    # -- rule hooks -----------------------------------------------------------

    def _fits(self, i: int, b: int, a: int, j: int) -> bool:
        """a's holder set for b at x_i fits inside {j}."""
        raise NotImplementedError

    def _reaches(self, i: int, a: int, j: int, c: int) -> bool:
        """a at x_i reaches the conditioning value c at x_j."""
        raise NotImplementedError

    def _witness(self, i: int, b: int, j: int) -> Witness:
        """The witness for eliminating b at x_i conditioned by x_j."""
        raise NotImplementedError

    # -- worklist and witnesses -----------------------------------------------

    def _pop_conditioned(self) -> Optional[tuple[int, int, str, Witness]]:
        """The next triple whose value is live and whose values are all covered."""
        while self.conditioned_work:
            i, b, j = self.conditioned_work.popleft()
            if b in self.inst.domain_set(i) and not self.uncovered[(i, j)][self.pos[i][b]]:
                return i, b, self.RULE, self._witness(i, b, j)
        return None

    _pop = _pop_conditioned

    def _first_covers(self, i: int, b: int, j: int) -> dict[int, int]:
        """For each c in D(x_j) compatible with b, its first cover in D(x_i)."""
        fitting = [a for a in self.inst.domains[i] if a != b and self._fits(i, b, a, j)]
        row_b = self.inst.rows[(i, j)][b]
        covers: dict[int, int] = {}
        for c in self.inst.domains[j]:
            if c not in row_b:
                continue
            for a in fitting:
                if self._reaches(i, a, j, c):
                    covers[c] = a
                    break
            else:
                raise RuntimeError(f"no cover for x{j}={c} while eliminating x{i}={b}")
        return covers

    # -- counter steps --------------------------------------------------------

    def _cover_up(self, i: int, b: int, j: int, c: int) -> None:
        """One more cover of c for b; queue (i,b,j) once all of b's are covered."""
        covers = self.covers[(i, j)]
        cell = pair_index(self.pos, i, b, j, c)
        covers[cell] += 1
        self.updates += 1
        if covers[cell] != 1 or c not in self.inst.rows[(i, j)][b]:
            return
        uncovered = self.uncovered[(i, j)]
        p = self.pos[i][b]
        values = _cleared(uncovered[p], 1 << self.pos[j][c], self.UNCOVERED, (i, b, j), c)
        uncovered[p] = values
        self.updates += 1
        if not values:
            self.conditioned_work.append((i, b, j))
            self.updates += 1

    def _cover_down(self, i: int, b: int, j: int, c: int) -> None:
        """One cover of c for b fewer.  A count falling below zero signals an
        internal-consistency bug."""
        covers = self.covers[(i, j)]
        cell = pair_index(self.pos, i, b, j, c)
        covers[cell] -= 1
        self.updates += 1
        left = covers[cell]
        if left < 0:
            raise RuntimeError(f"{self.COVERS}{(i, b, j, c)} went negative")
        if not left and c in self.inst.rows[(i, j)][b]:
            self.uncovered[(i, j)][self.pos[i][b]] |= 1 << self.pos[j][c]
            self.updates += 1

    def _scope_changed(self, i: int, b: int, a: int, j: int, step) -> None:
        """a's holder set for b came to fit inside {j} (``step`` is
        _cover_up) or stopped fitting (_cover_down): a covers b for each
        value of x_j it reaches."""
        for c in self.inst.domains[j]:
            if self._reaches(i, a, j, c):
                step(i, b, j, c)

    # -- propagation ----------------------------------------------------------

    def _propagate(self, r: int, u: int) -> None:
        super()._propagate(r, u)
        inst = self.inst
        # u no longer covers r's remaining values
        for j in inst.neighbors(r):
            lost = [b for b in inst.domains[r] if self._fits(r, b, u, j)]
            if not lost:
                continue
            for c in inst.domains[j]:
                if self._reaches(r, u, j, c):
                    for b in lost:
                        self._cover_down(r, b, j, c)
        self._conditioning_gone(r, u)

    def _conditioning_gone(self, r: int, u: int) -> None:
        """u no longer serves as a conditioning value at x_r."""
        bit_u = 1 << self.pos[r][u]
        for i in self.inst.neighbors(r):
            uncovered = self.uncovered[(i, r)]
            pos_i = self.pos[i]
            for b in self.inst.domains[i]:
                p = pos_i[b]
                if uncovered[p] & bit_u:
                    uncovered[p] ^= bit_u
                    self.updates += 1
                    if not uncovered[p]:
                        self.conditioned_work.append((i, b, r))
                        self.updates += 1
