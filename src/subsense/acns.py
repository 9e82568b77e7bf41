"""Arc consistency and plain neighbourhood substitution to convergence.

establish_ac is the classic arc-revision worklist.  ns_to_convergence keeps
the block counters (counters.build_ns) and deletes any value all of whose
replacement blocks have disappeared, requeueing candidates as blocks vanish.
Both are deterministic: worklists are FIFO and every scan runs ascending.
The block counters, their propagation and the substitution worklist live
in kernel.Substitutions; plain substitution adds nothing of its own.
"""

from __future__ import annotations

from collections import deque

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
    """True when every current value has a support at every neighbour."""
    for i in range(inst.n):
        for j in inst.neighbors(i):
            row = inst.rows[(i, j)]
            cur = inst.domain_set(j)
            for b in inst.domains[i]:
                if not (row[b] & cur):
                    return False
    return True


def require_arc_consistent(inst: Instance, caller: str) -> None:
    if not is_arc_consistent(inst):
        raise ValueError(
            f"{caller} needs an arc-consistent instance; run establish_ac first"
        )


def establish_ac(inst: Instance) -> tuple[Instance, Trace]:
    """Remove unsupported values until arc consistent or a domain empties.

    Returns the reduced instance and the trace of removals; a wiped-out
    domain shows up as ``unsatisfiable`` on the result.
    """
    domains = [list(dom) for dom in inst.domains]
    sets = [set(dom) for dom in inst.domains]
    queue: deque[tuple[int, int]] = deque()
    for i, j in inst.edges:
        queue.append((i, j))
        queue.append((j, i))
    queued = set(queue)
    steps: list[EliminationRecord] = []
    while queue:
        i, j = queue.popleft()
        queued.discard((i, j))
        row = inst.rows[(i, j)]
        removed = False
        for b in list(domains[i]):
            if row[b] & sets[j]:
                continue
            domains[i].remove(b)
            sets[i].discard(b)
            steps.append(
                EliminationRecord(len(steps) + 1, AC, i, b, AcWitness(unsupported_at=j))
            )
            removed = True
        if not removed:
            continue
        if not domains[i]:
            break
        for k in inst.neighbors(i):
            if k != j and (k, i) not in queued:
                queue.append((k, i))
                queued.add((k, i))
    return inst.restrict(domains), Trace(inst.name, steps)


class NsEngine(Substitutions):
    """Plain substitution: the kernel's substitution worklist alone."""

    RULE = NS
    LABELS = (NS,)
    BUILD = "build_ns"


def ns_to_convergence(inst: Instance) -> tuple[Instance, Trace, ReductionReport]:
    """Eliminate values substitutable by a same-domain value that is blocked
    nowhere, until no such value remains.

    The input must be arc consistent (ValueError otherwise).  Candidate
    triples (variable, value, substitute) are processed FIFO; a stale triple
    whose value or substitute is gone is skipped.
    """
    require_arc_consistent(inst, "ns_to_convergence")
    return NsEngine(inst).converge()
