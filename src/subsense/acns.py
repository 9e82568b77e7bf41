"""Arc consistency and plain neighbourhood substitution to convergence.

establish_ac is the classic arc-revision worklist over each edge's full
row masks (Instance.full) and live masks (Instance.live); it drops
each unsupported value from one working snapshot (Instance._working), as
the engines do, and returns it frozen.  ns_to_convergence keeps the block
counters (counters.build_ns) and deletes any value all of whose
replacement blocks have disappeared, requeueing candidates as blocks vanish.
Both are deterministic: worklists are FIFO and every scan runs ascending.
The block counters, their propagation and the substitution worklist live
in kernel.Substitutions; plain substitution adds nothing of its own.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from . import counters
from .counters import bit_positions
from .instance import Instance
from .kernel import Substitutions
from .trace import (
    AC,
    NS,
    AcWitness,
    EliminationRecord,
    ReductionReport,
    Trace,
)


def is_arc_consistent(inst: Instance) -> bool:
    """True when every current value has a support at every neighbour: its
    full row mask (Instance.full) meets the live mask of the neighbour."""
    live = inst.live
    for (i, j), full in inst.full.items():
        live_j = live[j]
        for b in bit_positions(live[i]):
            if not full[b] & live_j:
                return False
    return True


def require_arc_consistent(inst: Instance, caller: str) -> None:
    if not is_arc_consistent(inst):
        raise ValueError(
            f"{caller} needs an arc-consistent instance; run establish_ac first"
        )


def _require_ac_input(inst: Instance, caller: str, held: Optional[counters.Held]) -> None:
    """require_arc_consistent, but for an instance that the pool ``held``
    names as arc consistent (the reduce pipeline does once ``ac`` is settled),
    which is scanned only under SUBSENSE_DEBUG_RECOMPUTE=1."""
    if held is None or held.arc_consistent is not inst or counters.debug_recompute_enabled():
        require_arc_consistent(inst, caller)


def establish_ac(inst: Instance) -> tuple[Instance, Trace]:
    """Remove unsupported values until arc consistent or a domain empties.

    Returns the reduced instance and the trace of removals; a wiped-out
    domain shows up as ``unsatisfiable`` on the result.
    """
    full = inst.full
    cur = inst._working()
    live, vals = cur.live, inst.original_domains
    queue: deque[tuple[int, int]] = deque(full)
    queued = set(queue)
    steps: list[EliminationRecord] = []
    while queue:
        i, j = queue.popleft()
        queued.discard((i, j))
        rows, live_j = full[(i, j)], live[j]
        # positions ascend with values, so these go in ascending order
        unsupported = [b for b in bit_positions(live[i]) if not rows[b] & live_j]
        if not unsupported:
            continue
        for b in unsupported:
            cur._drop(i, b)
            steps.append(EliminationRecord(len(steps) + 1, AC, i, vals[i][b], AcWitness(j)))
        if not live[i]:
            break
        for k in inst.neighbors(i):
            if k != j and (k, i) not in queued:
                queue.append((k, i))
                queued.add((k, i))
    return cur._frozen(), Trace(inst.name, steps)


class NsEngine(Substitutions):
    """Plain substitution: the kernel's substitution worklist alone."""

    RULE = NS
    LABELS = (NS,)
    BUILD = "build_ns"


def ns_to_convergence(
    inst: Instance, *, held: Optional[counters.Held] = None
) -> tuple[Instance, Trace, ReductionReport]:
    """Eliminate values substitutable by a same-domain value that is blocked
    nowhere, until no such value remains.

    The input must be arc consistent (ValueError otherwise).  Candidate
    triples (variable, value, substitute) are processed FIFO; a stale triple
    whose value or substitute is gone is skipped.
    ``held``, a pool of counter tables (counters.Held), gives the run the
    tables it holds and takes back the run's own (see kernel.Kernel).
    """
    _require_ac_input(inst, "ns_to_convergence", held)
    return NsEngine(inst, held).converge()
