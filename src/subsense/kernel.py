"""The incremental kernel under the ns, ss, cns and scss engines.

Every rule keeps the block counters of plain neighbourhood substitution
(nb_blocks, block_vars) beneath its own tables.  Kernel owns what the four
engines share: the working snapshot, the counter tables, the ``updates``
count, the trace, the unsatisfiable flag, the debug recheck, the run loop,
the report, and the pass every elimination starts with, in which the
blocks through the removed value disappear at its variable's neighbours.
Each elimination drops its value from the working snapshot by flipping
its live bit (``Instance._drop``); only frozen copies of it leave the
kernel.  Every witness the run asks the oracle for comes from the search
behind the rule's check, given the value's position and one domination
test for the working snapshot (``oracle._dominance``).
An engine may be given a pool of tables (``counters.Held``) that an earlier
engine kept current on the same domains: it takes from the pool what its
rule needs, builds only the rest, and owns them all for its run.  When the
run ends it hands them all back, in place of everything the pool held if it
eliminated a value (the others went stale), beside it otherwise, and none
if a domain emptied, since that last elimination went unpropagated.  With
SUBSENSE_DEBUG_RECOMPUTE=1, a run that took any handed table rechecks
every table once before it starts, and every run rechecks after each
elimination: the live masks against the initial ones less the values its
records removed, then every table against its set-builder.
Three layers sit on it:

- SnakeKernel adds the sub and stop cascades that ss and scss both keep.
- Substitutions adds the worklist of plain substitutions that ns and cns
  both pop.
- CoverKernel adds the cover layer that cns and scss share: the cover
  counters and uncovered masks, the conditioned worklist, the pass in which
  a removed value stops covering, and the scope change.  Each of the two
  rules states only its holder mask, whose fit inside {j} the layer tests,
  its reach mask, and the check in ``oracle`` that gives its witness.

A rule module adds its table choice (``BUILD``), its pop policy
(``_pop``) and its own passes, appended to ``_propagate``.  ``converge``
is the one elimination loop: a rule never removes a value outside it.  The
tables decide which value goes and by which rule; every ac, ss, cns and
scss witness is the one that rule's check in ``oracle`` gives on the
working snapshot at the pop, before ``eliminate`` drops the value.  Only
an ns substitute comes from the tables.  Each counter that rises and
falls has one step that moves it by ``delta`` (+1 or -1).  Only where the
count flips, up to one or down to none, does it go further; the rule hook
it then calls takes the same ``delta``.

Each table is one flat list, indexed by value position
(``Instance.positions``) and laid out as ``counters.TABLES`` states: each
oriented edge or variable owns a run of slots, which starts at its offset
in ``counters.Static`` (``along``, ``across``, ``ends``, ``pairs``,
``singles``), shared by the whole lineage.  Each pass computes its slots
inline, adding the key's offset into the base it computes per row.  A
holder cell is an int mask with the bit ``nbit[k][l]`` for each neighbour
x_l of x_k that holds it; an uncovered cell is an int mask over the value
positions of the conditioning variable.  Slots indexed by the removed value
are read before they go stale, are never written during a pass, and are
never read after it.  Each counter step, bit set or cleared, flag change
and worklist push adds one to ``updates``.  A count below zero, a bit set
that is already set and a bit cleared that is not set are errors.

Worklists, passes, hooks and counter steps name each value by its
position; the letters (a, b, c, d, e, u) keep their roles.  A pop tests a
bit of ``live``, the working snapshot's masks of its domains
(``Instance.live``), and a pass walks the set bits (``bit_positions``) of
a row mask of ``Instance.full`` ANDed with ``live``, so it visits
only the values that the removed one splits.  Bits ascend in domain order,
as a domain scan would.  Labels appear only in the records, the
witnesses, the oracle calls and the error messages.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterable, Optional

from . import counters
from .counters import bit_positions
from .instance import Instance
from .oracle import _dominance
from .trace import NS, EliminationRecord, NsWitness, ReductionReport, Trace, Witness


def _bit_error(name: str, key: tuple, on: bool, member: int) -> RuntimeError:
    """The error for setting (``on``) a bit of the cell ``key`` of the mask
    table ``name`` that already stands for ``member``, or clearing one that
    does not: either signals an internal-consistency bug."""
    return RuntimeError(f"{name}{key} {'already holds' if on else 'does not hold'} {member}")


class Kernel:
    """Shared state and block propagation of one engine run."""

    RULE: str  # the rule the report names
    LABELS: tuple[str, ...]  # the record labels the report counts
    BUILD: str  # the counters builder of the rule's tables

    def __init__(self, inst: Instance, held: Optional[counters.Held] = None):
        self.start = time.perf_counter_ns()
        self.initial = inst
        self.inst = inst._working()
        # looked up at call time, so wrappers installed on counters see it
        self.tables = getattr(counters, self.BUILD)(inst, held=held)
        self.held = held
        self.pos = inst.positions
        self.vals = inst.original_domains  # vals[k][p] = the value at position p
        static = self.static = counters.static_masks(inst)
        self.full, self.nbit = inst.full, static.nbit
        # where each key's run of slots starts in the flat tables
        self.along, self.across, self.ends = static.along, static.across, static.ends
        self.pairs, self.singles = static.pairs, static.singles
        self.live = self.inst.live  # the working snapshot's, which _drop keeps
        # the oracle's domination test on the working snapshot: every witness
        # the run asks the oracle for shares it
        self.dominates = _dominance(self.inst)
        self.updates = self.tables.probes
        self.steps: list[EliminationRecord] = []
        self.unsat = inst.unsatisfiable
        self.debug = counters.debug_recompute_enabled()
        if self.debug and held and not held.keys().isdisjoint(self._kept()):
            # a handed table is rechecked before the run trusts it
            self.verify()

    def converge(self) -> tuple[Instance, Trace, ReductionReport]:
        """Eliminate until no candidate is left or a domain is empty, then
        hand the kept tables back to the pool, if the run took one."""
        while not self.unsat and (picked := self._pop()) is not None:
            r, u, rule, witness = picked
            if not self.eliminate(r, u, rule, witness):
                break
            self._propagate(r, u)
            if self.debug:
                self.verify()
        if self.held is not None:
            if self.unsat:  # the last elimination went unpropagated
                self.held.clear()
            else:
                self.held.keep(self._kept(), self.static, self.live, replace=bool(self.steps))
        return self.report()

    def eliminate(self, r: int, u: int, rule: str, witness: Witness) -> bool:
        """Remove the value at position u from D(x_r) and record it; False
        once that domain is empty."""
        self.inst._drop(r, u)
        self.steps.append(EliminationRecord(len(self.steps) + 1, rule, r, self.vals[r][u], witness))
        self.unsat = not self.live[r]
        return not self.unsat

    def _kept(self) -> dict:
        """Every table the run keeps current, by name."""
        return {name: t for name, t in vars(self.tables).items() if name != "probes"}

    def verify(self) -> None:
        """Recompute the live masks from the run's records, and every kept
        table from its definition, and compare."""
        # the initial masks less every value the records removed; a value
        # recorded twice flips its bit back, and so differs
        live = list(self.initial.live)
        for rec in self.steps:
            live[rec.variable] ^= 1 << self.pos[rec.variable][rec.value]
        if live != self.live:
            raise counters.CounterMismatch("the live masks differ from the records")
        counters.verify_tables(self.inst._frozen(), **self._kept())

    def report(self) -> tuple[Instance, Trace, ReductionReport]:
        final = self.inst._frozen()
        trace = Trace(self.initial.name, self.steps)
        report = ReductionReport(
            instance=self.initial.name,
            rules=(self.RULE,),
            eliminations={rule: trace.count(rule) for rule in self.LABELS},
            updates=self.updates,
            micros=(time.perf_counter_ns() - self.start) // 1000,
            initial_domain_sizes=tuple(len(d) for d in self.initial.domains),
            final_domain_sizes=tuple(len(d) for d in final.domains),
            unsatisfiable=self.unsat,
        )
        return final, trace, report

    # -- rule hooks -----------------------------------------------------------

    def _pop(self) -> Optional[tuple[int, int, str, Witness]]:
        """The next (variable, value position, rule, witness) to eliminate,
        or None."""
        raise NotImplementedError

    def _substitutable(self, k: int, d: int, e: int) -> None:
        """block_vars(k,d,e), for the values at positions d and e of x_k,
        became empty: e plainly substitutes for d."""

    def _fits_within(self, k: int, d: int, e: int, i: int) -> None:
        """block_vars(k,d,e), for the values at positions d and e of x_k,
        newly fits inside {i}."""

    # -- propagation ----------------------------------------------------------

    def _propagate(self, r: int, u: int) -> None:
        """Blocks through the value at position u of x_r disappear at r's
        neighbours: at each x_k, for each d that u supports and each e that
        it does not."""
        blocks, block_vars = self.tables.nb_blocks, self.tables.block_vars
        for k in self.inst.neighbors(r):
            live_k = self.live[k]
            with_u = self.full[(r, k)][u] & live_k
            if not with_u or with_u == live_k:
                continue
            without_u = bit_positions(live_k ^ with_u)
            start = self.along[(k, r)]
            # from a cell of (k,r)'s run to the same pair's cell in x_k's run
            to_holders = self.pairs[k] - start
            bit_r = self.nbit[k][r]
            size_k = len(self.pos[k])
            for d in bit_positions(with_u):
                base = start + d * size_k
                self.updates += len(without_u)
                for e in without_u:
                    cell = base + e
                    left = blocks[cell] = blocks[cell] - 1
                    if left:
                        if left < 0:
                            key = (k, self.vals[k][d], self.vals[k][e], r)
                            raise RuntimeError(f"nb_blocks{key} went negative")
                        continue
                    cell += to_holders
                    holders = block_vars[cell]
                    if not holders & bit_r:
                        key = (k, self.vals[k][d], self.vals[k][e])
                        raise _bit_error("block_vars", key, False, r)
                    holders = block_vars[cell] = holders ^ bit_r
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


class SnakeKernel(Kernel):
    """Kernel plus the sub and stop counters of snake substitution
    (nb_subs, nb_stops, stop_vars)."""

    def _fits_within(self, k: int, d: int, e: int, i: int) -> None:
        # e becomes a sub for d in the context of each a at x_i it supports
        full = self.full[(k, i)]
        for a in bit_positions(full[e] & ~full[d] & self.live[i]):
            self._step_subs(i, a, k, d, 1)

    def _propagate(self, r: int, u: int) -> None:
        super()._propagate(r, u)
        full, live = self.full, self.live
        size_r = len(self.pos[r])
        # u no longer counts as a sub at r: for each a at x_i that takes u,
        # at each d that a does not take and whose block_vars(r,d,u) fits
        # inside {i}
        block_vars, base = self.tables.block_vars, self.pairs[r] + u
        held = [(1 << d, block_vars[base + d * size_r]) for d in bit_positions(live[r])]
        for i in self.inst.neighbors(r):
            takes_u = full[(r, i)][u] & live[i]
            if not takes_u:
                continue
            others = ~self.nbit[r][i]
            subbed = 0
            for bit, holders in held:
                if not holders & others:
                    subbed |= bit
            if not subbed:
                continue
            full_i = full[(i, r)]
            for a in bit_positions(takes_u):
                for d in bit_positions(subbed & ~full_i[a]):
                    self._step_subs(i, a, r, d, -1)
        # u no longer counts as a stop at r: against replacing each b at x_i
        # that takes u by each a that does not take it and has no sub for it
        for i in self.inst.neighbors(r):
            takes_u = full[(r, i)][u] & live[i]
            if not takes_u:
                continue
            subs, base = self.tables.nb_subs, self.across[(i, r)] + u
            takers = bit_positions(takes_u)
            for a in bit_positions(live[i] ^ takes_u):
                if subs[base + a * size_r]:
                    continue
                for b in takers:
                    self._step_stops(i, a, b, r, -1)

    # -- rule hooks -----------------------------------------------------------

    def _stop_var_changed(self, i: int, a: int, b: int, k: int, holders: int, delta: int) -> None:
        """x_k joined (``delta`` +1) or left (-1) stop_vars(i,a,b);
        ``holders`` is the mask after the change."""

    def _sub_flipped(self, i: int, a: int, k: int, d: int, delta: int) -> None:
        """nb_subs(i,a,k,d) rose to one (``delta`` +1) or fell to none (-1)."""

    # -- cascades -------------------------------------------------------------

    def _step_subs(self, i: int, a: int, k: int, d: int, delta: int) -> None:
        """nb_subs(i,a,k,d) moves by ``delta``.  Once d at x_k has a sub for
        a, it stops stopping replacements by a; once it has none, it resumes."""
        subs = self.tables.nb_subs
        cell = self.across[(i, k)] + a * len(self.pos[k]) + d
        left = subs[cell] = subs[cell] + delta
        self.updates += 1
        if left < 0:
            raise RuntimeError(f"nb_subs{(i, self.vals[i][a], k, self.vals[k][d])} went negative")
        if left != (delta > 0):  # a flip leaves one after +1, none after -1
            return
        for b in bit_positions(self.full[(k, i)][d] & self.live[i]):
            self._step_stops(i, a, b, k, -delta)
        self._sub_flipped(i, a, k, d, delta)

    def _step_stops(self, i: int, a: int, b: int, k: int, delta: int) -> None:
        """The stops against replacing b by a at x_i that sit at x_k move by
        ``delta``; x_k joins stop_vars(i,a,b) with the first and leaves it
        with the last."""
        stops = self.tables.nb_stops
        pair = a * len(self.pos[i]) + b
        cell = self.along[(i, k)] + pair
        left = stops[cell] = stops[cell] + delta
        self.updates += 1
        if left < 0:
            key = (i, self.vals[i][a], self.vals[i][b], k)
            raise RuntimeError(f"nb_stops{key} went negative")
        if left != (delta > 0):
            return
        stop_vars, cell = self.tables.stop_vars, self.pairs[i] + pair
        holders, bit = stop_vars[cell], self.nbit[i][k]
        if bool(holders & bit) == (delta > 0):
            raise _bit_error("stop_vars", (i, self.vals[i][a], self.vals[i][b]), delta > 0, k)
        holders = stop_vars[cell] = holders ^ bit
        self.updates += 1
        self._stop_var_changed(i, a, b, k, holders, delta)


class Substitutions(Kernel):
    """Kernel plus the FIFO worklist of plain substitution triples
    (variable, value, substitute), by value position, that ns and cns keep."""

    def __init__(self, inst: Instance, held: Optional[counters.Held] = None):
        super().__init__(inst, held)
        self.substitutions: deque[tuple[int, int, int]] = deque()
        block_vars = self.tables.block_vars
        for i, live_i in enumerate(self.live):
            size = len(self.pos[i])
            live_ps = bit_positions(live_i)
            for b in live_ps:
                base = self.pairs[i] + b * size
                for a in live_ps:
                    if a != b and not block_vars[base + a]:
                        self.substitutions.append((i, b, a))
        self.updates += len(self.substitutions)

    def _pop_substitution(self) -> Optional[tuple[int, int, str, Witness]]:
        """The next triple whose value and substitute are both still live."""
        while self.substitutions:
            i, b, a = self.substitutions.popleft()
            live_i = self.live[i]
            if live_i >> b & 1 and live_i >> a & 1:
                return i, b, NS, NsWitness(substitute=self.vals[i][a])
        return None

    _pop = _pop_substitution

    def _substitutable(self, k: int, d: int, e: int) -> None:
        self.substitutions.append((k, d, e))
        self.updates += 1


class CoverKernel(Kernel):
    """Kernel plus the cover layer of the conditioned rules cns and scss.

    b at x_i is eliminable conditioned by a neighbour x_j when every c in
    D(x_j) compatible with b has a cover: a value a != b whose holder set
    for b (``_holders``) fits inside {j} and whose reach mask over the
    positions of x_j (``_reach``) holds c.  A rule states only those two.
    The layer keeps the cover count of every cell (i,b,j,c) in the table
    named by COVERS, the compatible values without a cover of every (i,b,j),
    as a mask, in the table named by UNCOVERED, and a FIFO worklist of the
    triples (i,b,j), b by position, whose mask emptied.  The witness of a
    popped triple is what the rule's search in ``oracle``, named by CHECK,
    gives on the working snapshot before the value goes: the search behind
    its public check, which takes b by position and the run's domination
    test.
    """

    COVERS: str
    UNCOVERED: str
    CHECK: Callable[..., Optional[Witness]]

    def __init__(self, inst: Instance, held: Optional[counters.Held] = None):
        super().__init__(inst, held)
        self.covers = getattr(self.tables, self.COVERS)
        self.uncovered = uncovered = getattr(self.tables, self.UNCOVERED)
        ends = self.ends
        # every triple whose conditioning values are all covered already
        self.conditioned_work = deque(
            (i, b, j)
            for i, live_i in enumerate(self.live)
            for b in bit_positions(live_i)
            for j in inst.neighbors(i)
            if not uncovered[ends[(i, j)] + b]
        )
        self.updates += len(self.conditioned_work)

    # -- rule hooks -----------------------------------------------------------

    def _holders(self, i: int, b: int, a: int) -> int:
        """The holder mask of a's replacement of b at x_i."""
        raise NotImplementedError

    def _reach(self, i: int, a: int, j: int) -> int:
        """The mask over the positions of x_j of the values that a at x_i
        reaches, read at the moment; it may hold dead ones."""
        raise NotImplementedError

    def _fits(self, i: int, b: int, a: int, j: int) -> bool:
        """a's holder set for b at x_i fits inside {j}."""
        return not self._holders(i, b, a) & ~self.nbit[i][j]

    # -- worklist and witnesses -----------------------------------------------

    def _pop_conditioned(self) -> Optional[tuple[int, int, str, Witness]]:
        """The next triple whose value is live and whose values are all covered."""
        while self.conditioned_work:
            i, b, j = self.conditioned_work.popleft()
            if self.live[i] >> b & 1 and not self.uncovered[self.ends[(i, j)] + b]:
                return i, b, self.RULE, self._witness(i, b, j)
        return None

    _pop = _pop_conditioned

    def _witness(self, i: int, b: int, j: int) -> Witness:
        """The witness for eliminating the value at position b of x_i
        conditioned by x_j, as the rule's definition gives it."""
        witness = self.CHECK(self.inst, self.dominates, i, b, j)
        if witness is None:
            raise RuntimeError(f"x{i}={self.vals[i][b]} conditioned by x{j} fails {self.RULE}")
        return witness

    # -- counter steps --------------------------------------------------------

    def _step_cover(self, i: int, b: int, j: int, cs: int, delta: int) -> None:
        """The covers for b of each c in the position mask ``cs`` move by
        ``delta``.  A compatible c leaves b's uncovered mask with its first
        cover, queueing (i,b,j) once the mask is empty, and rejoins it when
        its last cover goes."""
        covers = self.covers
        base = self.across[(i, j)] + b * len(self.pos[j])
        flipped = 0
        for c in bit_positions(cs):
            cell = base + c
            left = covers[cell] = covers[cell] + delta
            if left < 0:
                key = (i, self.vals[i][b], j, self.vals[j][c])
                raise RuntimeError(f"{self.COVERS}{key} went negative")
            if left == (delta > 0):  # a flip leaves one after +1, none after -1
                flipped |= 1 << c
        self.updates += cs.bit_count()
        flipped &= self.full[(i, j)][b]
        if not flipped:
            return
        uncovered, at = self.uncovered, self.ends[(i, j)] + b
        held = uncovered[at]
        stray = held & flipped if delta < 0 else flipped & ~held  # a bit already so
        if stray:
            key = (i, self.vals[i][b], j)
            member = self.vals[j][bit_positions(stray)[0]]
            raise _bit_error(self.UNCOVERED, key, delta < 0, member)
        values = uncovered[at] = held ^ flipped
        self.updates += flipped.bit_count()
        if not values:
            self.conditioned_work.append((i, b, j))
            self.updates += 1

    def _scope_changed(self, i: int, b: int, a: int, j: int, delta: int) -> None:
        """a's holder set for b came to fit inside {j} (``delta`` +1) or
        stopped fitting (-1): a covers b for each value of x_j it reaches."""
        reach = self._reach(i, a, j) & self.live[j]
        if reach:
            self._step_cover(i, b, j, reach, delta)

    # -- propagation ----------------------------------------------------------

    def _propagate(self, r: int, u: int) -> None:
        super()._propagate(r, u)
        # u no longer covers r's remaining values; the -1 steps never push,
        # so they may run value by value
        held = [(b, self._holders(r, b, u)) for b in bit_positions(self.live[r])]
        for j in self.inst.neighbors(r):
            others = ~self.nbit[r][j]
            lost = [b for b, holders in held if not holders & others]
            if not lost:
                continue
            reach = self._reach(r, u, j) & self.live[j]
            if reach:
                for b in lost:
                    self._step_cover(r, b, j, reach, -1)
        self._conditioning_gone(r, u)

    def _conditioning_gone(self, r: int, u: int) -> None:
        """u no longer serves as a conditioning value at x_r: it leaves the
        uncovered masks of the values it supports."""
        bit_u = 1 << u
        full, live, uncovered = self.full, self.live, self.uncovered
        for i in self.inst.neighbors(r):
            start = self.ends[(i, r)]
            for b in bit_positions(full[(r, i)][u] & live[i]):
                held = uncovered[start + b]
                if held & bit_u:
                    uncovered[start + b] = held ^ bit_u
                    self.updates += 1
                    if held == bit_u:
                        self.conditioned_work.append((i, b, r))
                        self.updates += 1
