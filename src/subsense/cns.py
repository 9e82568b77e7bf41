"""Conditioned neighbourhood substitution to convergence.

A value b of x_p is eliminable when, for some neighbouring conditioning
variable x_q, every value c compatible with b has a cover: a substitute
a != b compatible with c whose blocks all sit at x_q.  The engine keeps
nb_covers / uncovered on top of the block counters and runs two FIFO
worklists: plain substitution triples and conditioned (variable, value,
conditioning) triples.  ns_priority picks which list drains first; the two
orders may eliminate different (equally safe) value sets.

The block counters, the substitution worklist and the cover layer that cns
shares with scss come from kernel.Kernel, kernel.Substitutions and
kernel.CoverKernel.  This module states only what a cover is, as masks
over value positions: a's holder mask for b is block_vars(p,b,a), which
fits inside {q} when it has no bit but q's, as the block pass reports
through ``_fits_within`` with a +1 cover step, and a's reach at x_q is its
full row mask (Instance.full): a reaches c when it takes c.  The
witness of a conditioned step is ``oracle.cns_with_conditioning``'s; a
plain step's substitute is the one its queued triple names.
"""

from __future__ import annotations

from typing import Optional

from . import counters
from .acns import require_arc_consistent
from .instance import Instance
from .kernel import CoverKernel, Substitutions
from .oracle import cns_with_conditioning
from .trace import CNS, NS, ReductionReport, Trace


class CnsEngine(CoverKernel, Substitutions):
    RULE = CNS
    LABELS = (NS, CNS)
    BUILD = "build_cns"
    COVERS = "nb_covers"
    UNCOVERED = "uncovered"
    CHECK = staticmethod(cns_with_conditioning)

    def __init__(self, inst: Instance, ns_priority: bool, held: Optional[counters.Held] = None):
        super().__init__(inst, held)
        self.ns_priority = ns_priority

    def _pop(self):
        if self.ns_priority:
            return self._pop_substitution() or self._pop_conditioned()
        return self._pop_conditioned() or self._pop_substitution()

    def _holders(self, i: int, b: int, a: int) -> int:
        return self.tables.block_vars[self.pairs[i] + b * len(self.pos[i]) + a]

    def _reach(self, i: int, a: int, j: int) -> int:
        return self.full[(i, j)][a]

    def _fits_within(self, i: int, b: int, a: int, j: int) -> None:
        self._scope_changed(i, b, a, j, 1)


def cns_to_convergence(
    inst: Instance, ns_priority: bool = True, *, held: Optional[counters.Held] = None
) -> tuple[Instance, Trace, ReductionReport]:
    """Apply conditioned neighbourhood substitution until no eliminable
    value remains.

    The input must be arc consistent (ValueError otherwise).  Records are
    labelled ``ns`` when an unconditioned substitute fired and ``cns``
    otherwise.  With ns_priority (the default) plain substitutions drain
    first; with ns_priority=False conditioned ones do, which can change how
    many values go (the rule is not confluent across pop orders).
    ``held``, a pool of counter tables (counters.Held), gives the run the
    tables it holds and takes back the run's own (see kernel.Kernel).
    """
    require_arc_consistent(inst, "cns_to_convergence")
    return CnsEngine(inst, ns_priority, held).converge()
