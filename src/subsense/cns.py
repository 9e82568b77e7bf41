"""Conditioned neighbourhood substitution to convergence.

A value b of x_p is eliminable when, for some neighbouring conditioning
variable x_q, every value c compatible with b has a cover: a substitute
a != b compatible with c whose blocks all sit at x_q.  The engine keeps
nb_covers / uncovered on top of the block counters and runs two FIFO
worklists: plain substitution triples and conditioned (variable, value,
conditioning) triples.  ns_priority picks which list drains first; the two
orders may eliminate different (equally safe) value sets.

The block counters and their pass come from kernel.Kernel; this module adds
the cover counters and their two passes.
"""

from __future__ import annotations

from collections import deque

from .acns import require_arc_consistent
from .counters import subset1
from .instance import Instance
from .kernel import Kernel, conditioned
from .trace import (
    CNS,
    NS,
    CnsWitness,
    NsWitness,
    ReductionReport,
    Trace,
)


class CnsEngine(Kernel):
    RULE = CNS
    LABELS = (NS, CNS)
    BUILD = "build_cns"

    def __init__(self, inst: Instance, ns_priority: bool):
        super().__init__(inst)
        self.ns_priority = ns_priority
        self.ns_list = deque(self._substitutions())
        self.cns_list = deque(conditioned(inst, self.tables.uncovered))
        self.updates += len(self.ns_list) + len(self.cns_list)

    def _pop(self):
        while self.ns_list or self.cns_list:
            take_ns = bool(self.ns_list) if self.ns_priority else not self.cns_list
            if take_ns:
                p, u, v = self.ns_list.popleft()
                dom = self.inst.domain_set(p)
                if u in dom and v in dom:
                    return p, u, NS, NsWitness(substitute=v)
            else:
                p, u, q = self.cns_list.popleft()
                if u in self.inst.domain_set(p) and not self.tables.uncovered[(p, u, q)]:
                    witness = CnsWitness(conditioning=q, covers=self._covers(p, u, q))
                    return p, u, CNS, witness
        return None

    def _covers(self, p: int, u: int, q: int) -> dict[int, int]:
        row = self.inst.rows[(p, q)]
        row_u = row[u]
        covers: dict[int, int] = {}
        for c in self.inst.domains[q]:
            if c not in row_u:
                continue
            for a in self.inst.domains[p]:
                if a == u or c not in row[a]:
                    continue
                if subset1(self.tables.block_vars[(p, u, a)], q):
                    covers[c] = a
                    break
            else:
                raise RuntimeError(
                    f"no cover for x{q}={c} while eliminating x{p}={u}"
                )
        return covers

    def _propagate(self, p: int, u: int) -> None:
        super()._propagate(p, u)
        inst = self.inst
        tables = self.tables
        # u no longer counts as a cover at p
        for b in inst.domains[p]:
            for j in inst.neighbors(p):
                if not subset1(tables.block_vars[(p, b, u)], j):
                    continue
                row = inst.rows[(p, j)]
                row_u = row[u]
                row_b = row[b]
                for c in inst.domains[j]:
                    if c not in row_u:
                        continue
                    cell = (p, b, j, c)
                    tables.nb_covers[cell] -= 1
                    self.updates += 1
                    if tables.nb_covers[cell] < 0:
                        raise RuntimeError(f"nb_covers{cell} went negative")
                    if tables.nb_covers[cell] == 0 and c in row_b:
                        tables.uncovered[(p, b, j)].add(c)
                        self.updates += 1
        self._conditioning_gone(p, u, tables.uncovered, self.cns_list)

    def _substitutable(self, i: int, b: int, a: int) -> None:
        self.ns_list.append((i, b, a))
        self.updates += 1

    def _fits_within(self, i: int, b: int, a: int, j: int) -> None:
        # a now covers b for each conditioning value c at x_j it supports
        tables = self.tables
        row_a = self.inst.rows[(i, j)][a]
        values = tables.uncovered[(i, b, j)]
        for c in self.inst.domains[j]:
            if c not in row_a:
                continue
            tables.nb_covers[(i, b, j, c)] += 1
            self.updates += 1
            if c in values:
                values.remove(c)
                self.updates += 1
                if not values:
                    self.cns_list.append((i, b, j))
                    self.updates += 1


def cns_to_convergence(
    inst: Instance, ns_priority: bool = True
) -> tuple[Instance, Trace, ReductionReport]:
    """Apply conditioned neighbourhood substitution until no eliminable
    value remains.

    The input must be arc consistent (ValueError otherwise).  Records are
    labelled ``ns`` when an unconditioned substitute fired and ``cns``
    otherwise.  With ns_priority (the default) plain substitutions drain
    first; with ns_priority=False conditioned ones do, which can change how
    many values go (the rule is not confluent across pop orders).
    """
    require_arc_consistent(inst, "cns_to_convergence")
    return CnsEngine(inst, ns_priority).converge()
